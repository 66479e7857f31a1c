"""One pass of one workload in a fresh process.

    python3 perfbench/worker.py --workload NAME --seed N --trace 0|1 [--spans FILE]

Times set-up (importing fracwave and building the inputs) and one pass
of the workload's solves, reads the process's peak resident memory, runs
the correctness checks, and prints one JSON line.  With ``--trace 1`` the
calls into fracwave's modules are wrapped and the per-layer metrics are
added; the spans go to ``--spans``.  Run by ``perfbench/run.py``.
"""

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans")
    args = parser.parse_args()

    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import fracwave
    if Path(fracwave.__file__).resolve().parent != SRC / "fracwave":
        sys.exit(f"imported fracwave from {fracwave.__file__}, not from {SRC}")
    import workloads

    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
        tracer.install()
    inputs = workloads.setup(args.workload, args.seed)
    t1 = time.perf_counter()
    outputs = workloads.run_pass(args.workload, inputs,
                                 tracer.span if tracer else workloads.no_span)
    t2 = time.perf_counter()
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer:
        tracer.uninstall()
    outcomes = workloads.check(args.workload, inputs, outputs, args.seed)

    result = {
        "setup_s": t1 - t0,
        "wall_s": t2 - t1,
        "peak_rss_mb": peak_kb * 1024 / 1e6,
        "outcomes": [vars(o) for o in outcomes],
    }
    if tracer:
        result["layers"] = tracer.layer_metrics()
        if args.spans:
            tracer.write_csv(args.spans)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
