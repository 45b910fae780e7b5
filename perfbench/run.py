"""Benchmark of echcap: one workload, one process, one caller.

    python3 perfbench/run.py --workload flat-certificate --seed 1 --seconds 40 --trace 0

Runs from the root of a source checkout and imports echcap from ``src/``.
After set-up (imports, seeded inputs, one warm-up call) it repeats whole
passes over the workload's fixed job list for about ``--seconds`` seconds,
timing a fixed unit of reference work every 50 ms inside each pass
(``calibration.py``).  Then it checks the first pass's outputs against the
benchmark's own reference computations and requires every later pass to
repeat them.  The last line of standard output is a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``:

* ``--trace 0``: setup_s, wall_ref_s (median pass, scaled to the reference
  host speed by the samples taken in it) and peak_rss_mib;
* ``--trace 1``: per-layer metrics from traced passes, which alternate with
  untraced ones so that ``trace.overhead_s`` compares the two.

A record of the run goes to ``.perfbench/`` in the checkout.
"""

import time

T0 = time.perf_counter()

import argparse
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("flat-certificate", "flat-sweep", "concave-domains")


def since_process_start() -> float:
    """Seconds from the start of this process to T0, from the process start
    time the kernel records (clock ticks since boot); 0 where unreadable."""
    try:
        stat = Path("/proc/self/stat").read_text()
        ticks = int(stat[stat.rindex(")") + 2 :].split()[19])
        started = ticks / os.sysconf("SC_CLK_TCK")
        offset = time.clock_gettime(time.CLOCK_BOOTTIME) - started - (time.perf_counter() - T0)
    except (OSError, ValueError, IndexError, AttributeError):
        return 0.0
    return offset if 0.0 <= offset < 60.0 else 0.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program():
    """Put the checkout's src/ first on the path; refuse any other echcap."""
    src = ROOT / "src"
    if not (src / "echcap" / "__init__.py").is_file():
        sys.exit(f"perfbench: no echcap sources under {src}")
    sys.path.insert(0, str(src))
    import echcap

    if Path(echcap.__file__).resolve().parent != (src / "echcap").resolve():
        sys.exit(f"perfbench: imported echcap from {echcap.__file__}, not {src}")
    return echcap


def run_pass(workload, sampler):
    """One pass over the job list, sampled by ``sampler``: (seconds, outputs,
    failed operations)."""
    outputs = []
    failed = 0
    start = time.perf_counter()
    sampler.start()
    try:
        for job in workload.jobs:
            try:
                outputs.append(job())
            except Exception as exc:  # a failed operation is counted, not fatal
                outputs.append(exc)
                failed += job.ops
    finally:
        sampler.stop()
    elapsed = time.perf_counter() - start
    ok = [o for o in outputs if not isinstance(o, Exception)]
    if len(ok) == len(outputs):
        failed += workload.failures(outputs)
    return elapsed, outputs, failed


def main(argv=None) -> int:
    args = parse_args(argv)
    offset = since_process_start()
    echcap = import_program()
    import numpy as np

    import calibration
    import tracing
    import workloads

    workload = workloads.build(args.workload, args.seed)
    workload.warm_up()
    setup_s = offset + time.perf_counter() - T0

    tracer = tracing.Tracer() if args.trace else None
    ops_per_pass = sum(job.ops for job in workload.jobs)
    plain, traced, layer = [], [], []
    first = None
    mismatched = 0
    attempted = failed = 0
    # Each pass is stored as (wall seconds net of the samples, the same at the
    # reference speed, seconds per sample): see calibration.Sampler.scale.
    sampler = calibration.Sampler()
    deadline = time.perf_counter() + args.seconds
    while True:
        trace_this = tracer is not None and len(traced) < len(plain)
        if trace_this:
            tracer.reset()
            tracer.install()
        try:
            elapsed, outputs, pass_failed = run_pass(workload, sampler)
        finally:
            if trace_this:
                tracer.uninstall()
        (traced if trace_this else plain).append(sampler.scale(elapsed))
        if trace_this:
            layer.append(tracing.layer_metrics(tracer.spans))
        attempted += ops_per_pass
        failed += pass_failed
        if first is None:
            first = outputs
        elif outputs != first:
            mismatched += 1
        # Free this pass's outputs before the next pass runs, so that at most
        # two passes' outputs are alive and peak RSS barely grows with the
        # number of passes.
        del outputs
        done = len(plain) + len(traced)
        if time.perf_counter() + elapsed > deadline and (tracer is None or traced):
            break
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    problems = [f"pass output: {o!r}" for o in first if isinstance(o, Exception)]
    if not problems:
        problems = workload.check(first)
    if mismatched:
        problems.append(f"{mismatched} of {done - 1} later passes gave other outputs")

    def median(passes, field):
        return statistics.median(p[field] for p in passes)

    wall_ref_s = median(plain, 1)
    if tracer is None:
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_ref_s": (wall_ref_s, "s"),
            "peak_rss_mib": (peak_rss_mib, "MiB"),
        }
    else:
        missing = tracer.missing_spans()
        metrics = {}
        for name, (unit, needs) in tracing.METRICS.items():
            if name == "trace.overhead_s":
                value = median(traced, 1) - wall_ref_s
            elif name == "pass.wall_s":
                value = median(plain, 0)
            elif name == "host.sample_s":
                value = median(plain + traced, 2)
            elif needs & missing:
                value = 0.0
            else:
                value = statistics.median(m[name] for m in layer)
            metrics[name] = (value, unit)
        if tracer.missing:
            print("perfbench: entry points missing, layers reported as 0: " + ", ".join(tracer.missing), file=sys.stderr)

    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "backend": echcap._kernels.BACKEND,
        },
        "inputs": workload.inputs,
        "passes": plain,
        "traced_passes": traced,
        "problems": problems,
        "missing": tracer.missing if tracer else [],
        "result": result,
    }
    out = ROOT / ".perfbench"
    out.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str) + "\n")
    if tracer is not None:
        spans = [[s[0], s[1], s[2], s[3]] for s in tracer.spans]
        (out / f"{stem}-spans.json").write_text(json.dumps(spans) + "\n")
    for p in problems:
        print(f"perfbench: check failed: {p}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
