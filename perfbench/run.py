"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload localize --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload serve --seed 1 --seconds 15 --trace 1

Workloads: ``localize``, ``ranging``, ``fleet`` (closed-loop campaign
passes, see ``batch.py``) and ``serve`` (open-loop traffic against the
cache server, see ``serve.py``).  ``--trace 0`` measures the end-to-end
metrics with tracing off; ``--trace 1`` adds traced passes and reports
the per-layer metrics (see ``layers.py``).  The last line of standard
output is one JSON object::

    {"correct": true, "attempted": 42, "failed": 0, "metrics": {...}}

The lines before it are a readable report; the full record (host
fingerprint, pinned environment, per-pass times, problems) is written
to ``.bench_build/perfbench/`` together with the Chrome trace of a
traced run.  Exits non-zero without a result when the source tree is
missing or a workload cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

from probe import PROBE_REF_S

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_build", "perfbench")

WORKLOADS = ("localize", "ranging", "fleet", "serve")

#: The seed whose artifact digests are committed in ``digests.json``.
DEFAULT_SEED = 2023

#: ``(name, unit)`` of the end-to-end metrics (``--trace 0``).
END_TO_END = (("setup_s", "s"), ("ref_cpu_s", "s"), ("peak_rss_mb", "MB"))

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "REPRO_FFT_WORKERS",
)
RECORDED_VARS = THREAD_VARS + ("REPRO_PIPELINE_DEPTH", "REPRO_ARRAY_BACKEND")

#: Set-ups per ``--trace 0`` run; ``setup_s`` is their median.
SETUPS = 3
CHILD_TIMEOUT_S = 150


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def pin_environment() -> None:
    """Pin every thread-count variable to 1; put ``src`` on the path.

    One thread per pool keeps the work on one core of a shared host,
    where idle pool threads spin-waiting on a busy sibling core would
    make both wall and CPU time swing.  Runs before numpy is imported
    here, and child processes inherit it.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"
    paths = [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    os.environ["PYTHONPATH"] = os.pathsep.join(dict.fromkeys(paths))
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def host_fingerprint() -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy
    import scipy

    return {
        "nproc": nproc(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "env": {var: os.environ.get(var) for var in RECORDED_VARS},
    }


def expected_digest(workload: str, seed: int):
    if seed != DEFAULT_SEED:
        return None
    with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as fh:
        return json.load(fh).get(workload, "not committed")


def setup_probe(workload: str, seed: int) -> float:
    """Time one batch-workload set-up in a fresh child process."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{done.stderr[-2000:]}")
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


def run_batch(args) -> dict:
    probes = [] if args.trace else [setup_probe(args.workload, args.seed) for _ in range(SETUPS - 1)]
    import batch

    trace_path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")
    out = batch.measure(
        args.workload,
        args.seed,
        args.seconds,
        bool(args.trace),
        expected_digest(args.workload, args.seed),
        trace_path if args.trace else None,
    )
    samples = sorted(probes + [out["setup_s"]])
    out["setup_samples_s"] = samples
    out["setup_s"] = statistics.median(samples)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return out


def run_serve(args) -> dict:
    import serve

    trace_path = os.path.join(OUT_DIR, f"trace-serve-seed{args.seed}.json")
    return serve.measure(
        args.seed,
        args.seconds,
        bool(args.trace),
        expected_digest("serve", args.seed),
        OUT_DIR,
        nproc(),
        trace_path if args.trace else None,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no source tree at {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    pin_environment()
    if args.setup_probe:
        import batch

        print(json.dumps({"setup_s": batch.BatchWorkload(args.workload, args.seed).setup()}))
        return 0

    os.makedirs(OUT_DIR, exist_ok=True)
    started = time.perf_counter()
    out = run_serve(args) if args.workload == "serve" else run_batch(args)
    import layers

    if args.trace:
        values = layers.complete(out["layers"])
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in layers.PER_LAYER}
    else:
        speed = PROBE_REF_S / out["probe_s"]
        values = {
            "setup_s": out["setup_s"] * speed,
            "ref_cpu_s": out["cpu_s"] * speed,
            "peak_rss_mb": out["peak_rss_mb"],
        }
        metrics = {name: {"value": float(values[name]), "unit": unit} for name, unit in END_TO_END}
    attempted, failed, problems = out["attempted"], out["failed"], out["problems"]
    result = {
        "correct": failed == 0 and not problems,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": metrics,
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host_fingerprint(),
        "wall_s": time.perf_counter() - started,
        "failed_frac": failed / max(1, attempted),
        "detail": {k: v for k, v in out.items() if k != "layers"},
        "result": result,
    }
    record_path = os.path.join(
        OUT_DIR, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, default=str)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"digest {out['digest']}")
    print(f"host {json.dumps(record['host'], sort_keys=True)}")
    print(f"  failed_frac = {record['failed_frac']:.6g} ({failed}/{attempted})")
    for name, entry in metrics.items():
        print(f"  {name} = {entry['value']:.6g} {entry['unit']}")
    if not args.trace:
        print(f"  setup_wall_s = {out['setup_s']:.6g} s  cpu_s = {out['cpu_s']:.6g} s  "
              f"run_s = {out['run_s']:.6g} s (wall)  probe = {out['probe_s'] * 1e3:.4g} ms")
        for name, value in sorted(out.get("client", {}).items()):
            print(f"  {name} = {value:.6g}")
    for problem in problems[:20]:
        print(f"  PROBLEM: {problem}")
    print(f"record {os.path.relpath(record_path, ROOT)}")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
