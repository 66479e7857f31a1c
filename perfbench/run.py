"""fracwave benchmark: end-to-end and per-layer metrics for three workloads.

    python3 perfbench/run.py --workload acceptance|ladder2d|decay1d|all \
        [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root; fracwave is imported from ``src/``.  Each
pass (set-up plus one run of the workload's solves) is a fresh process
(``perfbench/worker.py``) with BLAS pinned to one thread, run one at a
time in a closed loop.  Passes repeat while the next one would still end
within ``--seconds`` (at least three), and each metric is the median over
passes.

``--trace 0`` reports the end-to-end metrics: ``wall_s``, ``setup_s``,
``peak_rss_mb`` and ``pass_frac`` (operations whose own verdict passed,
over operations attempted; 1 - pass_frac is the failed fraction).
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of the traced ones, plus ``trace.overhead_s``: traced
minus untraced ``wall_s``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
is the run record (commit, seed, versions, threads, CPU).  Both are also
written to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import tomllib
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
WORKLOADS = ("acceptance", "ladder2d", "decay1d")
OPERATIONS = {"acceptance": 10, "ladder2d": 4, "decay1d": 2}   # per pass, as in workloads.py

BLAS_THREADS = 1
MIN_PASSES = 3          # untraced; a traced run makes at least two of each kind
DEADLINE_S = 150.0      # start no pass that could end after this
PASS_TIMEOUT_S = 120.0

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def pinned_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_pass(workload: str, seed: int, traced: bool, env: dict) -> dict:
    """One worker process; a crash or timeout comes back as ``error``."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(traced))]
    if traced:
        cmd += ["--spans", str(RESULTS / f"spans-{workload}-seed{seed}.csv")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"pass timed out after {PASS_TIMEOUT_S:g} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-3:]
        return {"error": f"worker exited {proc.returncode}: " + " | ".join(tail)}
    return json.loads(lines[-1])


def measure(workload: str, seed: int, seconds: float, traced: bool) -> tuple[dict, list]:
    env = pinned_env()
    # Compile fracwave's bytecode and fill the file cache before timing.
    subprocess.run([sys.executable, "-c",
                    f"import sys; sys.path.insert(0, {str(SRC)!r}); import fracwave"],
                   cwd=ROOT, env=env, check=True, timeout=PASS_TIMEOUT_S)
    kinds = (False, True) if traced else (False,)
    min_passes = MIN_PASSES + 1 if traced else MIN_PASSES
    passes, start, longest = [], time.perf_counter(), 0.0
    while True:
        elapsed = time.perf_counter() - start
        if len(passes) >= min_passes and elapsed + longest > seconds:
            break
        if passes and elapsed + 1.5 * longest > DEADLINE_S:
            break
        kind = kinds[len(passes) % len(kinds)]
        t0 = time.perf_counter()
        result = run_pass(workload, seed, kind, env)
        longest = max(longest, time.perf_counter() - t0)
        result["traced"] = kind
        passes.append(result)
        print(_describe(len(passes), result), file=sys.stderr, flush=True)
        if "error" in result:
            break
    return summarize(workload, passes, traced), passes


def summarize(workload: str, passes: list, traced: bool) -> dict:
    attempted = failed = passed = 0
    for p in passes:
        if "error" in p:
            attempted += OPERATIONS[workload]
            failed += OPERATIONS[workload]
            continue
        attempted += len(p["outcomes"])
        failed += sum(not o["ok"] for o in p["outcomes"])
        passed += sum(o["passed"] for o in p["outcomes"])
    good = [p for p in passes if "error" not in p]
    plain = [p for p in good if not p["traced"]]
    layered = [p for p in good if p["traced"]]
    values = {}
    if not traced and plain:
        for name in ("wall_s", "setup_s", "peak_rss_mb"):
            values[name] = statistics.median(p[name] for p in plain)
        values["pass_frac"] = passed / attempted
    elif traced and plain and layered:
        for name in layered[0]["layers"]:
            values[name] = statistics.median(p["layers"][name] for p in layered)
        values["trace.overhead_s"] = (statistics.median(p["wall_s"] for p in layered)
                                      - statistics.median(p["wall_s"] for p in plain))
    declared = SPEC["per_layer" if traced else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared} if values else {}
    return {"correct": bool(passes) and failed == 0 and bool(metrics),
            "attempted": max(attempted, 1), "failed": failed, "metrics": metrics}


def _describe(i: int, p: dict) -> str:
    if "error" in p:
        return f"pass {i}: {p['error']}"
    ok = sum(o["ok"] for o in p["outcomes"])
    bad = [f"{o['label']}: {o['detail']}" for o in p["outcomes"] if not o["ok"]]
    line = (f"pass {i}{' (traced)' if p['traced'] else ''}: setup {p['setup_s']:.3f} s,"
            f" wall {p['wall_s']:.3f} s, rss {p['peak_rss_mb']:.1f} MB,"
            f" {ok}/{len(p['outcomes'])} ok")
    return "\n  ".join([line] + bad)


def run_record(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    digest = hashlib.sha256()
    for path in sorted((SRC / "fracwave").glob("*.py")):
        digest.update(path.read_bytes())
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(traced),
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "fracwave": f"{project['name']} {project['version']}",
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
    }


def _git_commit() -> str | None:
    # The benchmark may run from an exported tree with no repository.
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "fracwave" / "__init__.py").is_file():
        print(f"fracwave sources not found under {SRC}", file=sys.stderr)
        return 2
    RESULTS.mkdir(exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    traced = bool(args.trace)
    results = {}
    for name in names:
        result, passes = measure(name, args.seed, args.seconds, traced)
        record = run_record(name, args.seed, args.seconds, traced)
        (RESULTS / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps({"record": record, "result": result, "passes": passes}, indent=1))
        results[name] = result
        if args.workload == "all":
            for metric, m in result["metrics"].items():
                print(f"{name:<11} {metric:<30} {m['value']:>14.6g} {m['unit']}")
        else:
            print(json.dumps({"record": record}))
    if args.workload == "all":
        print(json.dumps(results))
    else:
        print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
