"""The benchmark's reference checkers against brute force on small inputs.

Run with:  python3 -m pytest perfbench/test_checkers.py
"""

import random
from fractions import Fraction

import checkers


def per_copy_capacity(classes, k):
    """max sum d_j w_j over a level d_j for every single ball, with
    sum (d_j^2 + d_j) <= 2k; no assumption that equal balls share levels."""
    balls = [Fraction(w) for w, n in classes for _ in range(n)]
    best = Fraction(0)

    def search(i, left, acc):
        nonlocal best
        best = max(best, acc)
        if i == len(balls):
            return
        d = 0
        while d * d + d <= left:
            search(i + 1, left - d * d - d, acc + d * balls[i])
            d += 1

    search(0, 2 * k, Fraction(0))
    return best


def listed_lattice(a, b, count):
    """{m a + n b} listed by a double loop over a box that holds every value
    up to count * min(a, b)."""
    a, b = Fraction(a), Fraction(b)
    cap = count * min(a, b)
    values = sorted(
        m * a + n * b
        for m in range(int(cap / a) + 2)
        for n in range(int(cap / b) + 2)
    )
    return values[:count]


def test_two_class_matches_per_copy_levels():
    rng = random.Random(2024)
    for _ in range(150):
        classes = [
            (Fraction(rng.randint(1, 12), rng.randint(1, 6)), rng.randint(1, 3))
            for _ in range(rng.randint(1, 2))
        ]
        if len(classes) == 2 and classes[0][0] == classes[1][0]:
            continue
        k = rng.randint(0, 9)
        assert checkers.two_class_capacity(classes, k) == per_copy_capacity(classes, k), (
            classes,
            k,
        )


def test_two_class_many_copies_matches_ball_formula():
    # n = 1 is a ball: c_k = d a with d(d+1)/2 <= k.
    for k in range(60):
        d = max(d for d in range(20) if d * (d + 1) // 2 <= k)
        assert checkers.two_class_capacity([(Fraction(3, 2), 1)], k) == d * Fraction(3, 2)
    # Copies beyond 2k cannot all be used; the answer must not depend on them.
    for k in range(1, 30):
        few = checkers.two_class_capacity([(1, 1), (Fraction(1, 7), 2 * k)], k)
        many = checkers.two_class_capacity([(1, 1), (Fraction(1, 7), 10**12)], k)
        assert few == many


def test_unit_cost_is_the_cheapest_spread():
    for copies in range(1, 5):
        for units in range(12):
            cheapest = min(
                sum(d * d + d for d in levels)
                for levels in _level_tuples(copies, units)
            )
            assert checkers.unit_cost(copies, units) == cheapest
            budget = checkers.unit_cost(copies, units)
            assert checkers.max_units(copies, budget) >= units
            if units:
                assert checkers.max_units(copies, budget - 1) < units


def _level_tuples(copies, units):
    if copies == 1:
        yield (units,)
        return
    for first in range(units + 1):
        for rest in _level_tuples(copies - 1, units - first):
            yield (first,) + rest


def test_lattice_values_match_listing():
    rng = random.Random(7)
    cases = [(1, 1), (1, 2), (2, 3), (Fraction(1, 3), Fraction(5, 2))]
    cases += [
        (Fraction(rng.randint(1, 9), rng.randint(1, 5)), Fraction(rng.randint(1, 9), rng.randint(1, 5)))
        for _ in range(20)
    ]
    for a, b in cases:
        count = rng.randint(1, 80)
        listed = listed_lattice(a, b, count)
        assert checkers.lattice_values(a, b, count) == listed, (a, b)
        k = rng.randrange(count)
        assert checkers.lattice_value(a, b, k) == listed[k], (a, b, k)


def test_quasiflat_classes():
    assert checkers.quasiflat_classes([4, 16]) == [
        (Fraction(1, 2), 16),
        (Fraction(1, 16), 4096),
    ]
    assert checkers.quasiflat_classes([64, 4096], scale=3) == [
        (Fraction(3, 8), 4096),
        (Fraction(3, 4096), 4096**3),
    ]


def test_shoelace_and_witness_arithmetic():
    # Triangle with legs 2 (x) and 3 (y), and a two-segment profile.
    assert checkers.shoelace_area([(0, 3), (2, 0)]) == 3
    assert checkers.shoelace_area([(0, 2), (1, 1), (3, 0)]) == Fraction(3, 2) + 1
    assignments = [(Fraction(1, 2), 3, 2, 1), (Fraction(1, 5), 4, 0, 3)]
    assert checkers.witness_cost(assignments) == 3 * 6 + 2 * 1 * 3 + 2 * 3 * 1
    assert checkers.witness_value(assignments) == 7 * Fraction(1, 2) + 3 * Fraction(1, 5)
