"""Run one benchmark workload of vit2img and print its metrics.

    python3 perfbench/run.py --workload train-c --seed 1 --seconds 30 --trace 0

Run from the repository root; the package is imported from ``src/``.  With
``--trace 0`` the run prints the end-to-end metrics; ``setup_s`` is the
median time of whole set-ups, imports included, each in a fresh process
(``--setup-only``), because a process's memory layout decides whether
numpy's large arrays get huge pages.  With ``--trace 1`` it
runs the workload untraced for half of ``--seconds``, then with the
outside-in tracer installed for the other half, and prints the per-layer
metrics, whose ``trace.overhead`` is the traced step p50 over the untraced
one.  Lines before the last are a readable table and the environment; the
last line is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit status is 0 only when every operation
passed its correctness checks.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("train-c", "train-b", "eval-c")
STEP_ALIAS = {"eval-c": "infer_ms"}  # on eval-c a step is one batch-1 eval forward
# Fresh-process set-ups per run: at least SETUP_MIN, more while they took
# under SETUP_BUDGET_S in all, at most SETUP_MAX.
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 5, 15, 3.0


def blas_threads() -> int:
    """Threads the OpenBLAS bundled with numpy will use, or -1 if unknown."""
    import ctypes
    import glob

    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return -1


def git_commit() -> str:
    try:
        head = (ROOT / ".git" / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            head = (ROOT / ".git" / head[5:]).read_text().strip()
        return head[:12]
    except OSError:
        return "unknown"


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "commit": git_commit(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in sorted((SRC / "vit2img").glob("*.py"))),
    }


def time_setups(args, res) -> None:
    """Append to ``res.setup_s`` the set-up times of fresh processes."""
    while len(res.setup_s) < SETUP_MIN or (sum(res.setup_s) < SETUP_BUDGET_S
                                           and len(res.setup_s) < SETUP_MAX):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed",
             str(args.seed), "--seconds", "0", "--setup-only"],
            capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up in a fresh process failed:\n{proc.stderr}")
        res.setup_s.append(float(proc.stdout.split()[-1]))


def end_to_end(res) -> dict:
    """name -> (value, unit, sample count) of every end-to-end metric."""
    import numpy as np

    steps = res.step_ms
    return {
        "setup_s": (statistics.median(res.setup_s), "s", len(res.setup_s)),
        "samples_per_s": (res.images / res.window_s, "images/s", res.images),
        "step_ms.p50": (statistics.median(steps), "ms", len(steps)),
        "step_ms.tail": (float(np.percentile(steps, 100 * res.tail_quantile)), "ms", len(steps)),
        "ckpt_save_ms.p50": (statistics.median(res.ckpt_save_ms), "ms", len(res.ckpt_save_ms)),
        "ckpt_load_ms.p50": (statistics.median(res.ckpt_load_ms), "ms", len(res.ckpt_load_ms)),
        "peak_rss_mb": (res.peak_rss_mb, "MiB", 1),
    }


def traced(args, workloads, tracing) -> tuple:
    """Untraced then traced halves; returns (per-layer metrics, both Results)."""
    half = args.seconds / 2
    base = workloads.run(args.workload, args.seed, half, workloads.Result(), str(OUT))
    tracer = tracing.Tracer().install()
    res = workloads.Result()
    try:
        workloads.run(args.workload, args.seed, half, res, str(OUT), tracer=tracer)
    finally:
        tracer.uninstall()
    tracer.write(str(OUT / f"spans-{args.workload}-{args.seed}.jsonl"))
    overhead = statistics.median(res.step_ms) / statistics.median(base.step_ms)
    values, checks = tracing.per_layer(tracer, len(res.report_ms), overhead)
    for ok, what in checks:
        res.op(ok, what)
    n = len(tracer.step_ms)
    return {name: (values[name], unit, n) for name, unit in tracing.per_layer_units().items()}, (base, res)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="do one set-up and print its time from this script's start")
    args = parser.parse_args(argv)
    if not (SRC / "vit2img" / "__init__.py").is_file():
        print(f"error: no vit2img package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2

    # At most one BLAS thread per usable core, fixed before numpy loads OpenBLAS.
    os.environ["OPENBLAS_NUM_THREADS"] = str(len(os.sched_getaffinity(0)))
    sys.path.insert(0, str(SRC))
    import vit2img

    if Path(vit2img.__file__).resolve().parent != (SRC / "vit2img").resolve():
        print(f"error: imported vit2img from {vit2img.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import tracer as tracing
    import workloads

    if args.setup_only:
        res = workloads.Result()
        workloads.setup_once(args.workload, args.seed, res, str(OUT))
        print(time.perf_counter() - START - res.unclocked_s)
        for what in res.failures:
            print(f"check failed: {what}", file=sys.stderr)
        return 0 if res.failed == 0 else 1

    print("# environment " + json.dumps(environment()))
    runs = (workloads.Result(),)
    try:
        if args.trace:
            metrics, runs = traced(args, workloads, tracing)
        else:
            time_setups(args, runs[0])
            workloads.run(args.workload, args.seed, args.seconds, runs[0], str(OUT))
            metrics = end_to_end(runs[0])
    except Exception:
        traceback.print_exc()
        runs[-1].op(False, "the workload raised")
        metrics = {}
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    for r in runs:
        for what in r.failures:
            print(f"check failed: {what}", file=sys.stderr)

    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    for name, (value, unit, n) in metrics.items():
        label = name
        if name.startswith("step_ms.") and args.workload in STEP_ALIAS:
            label += f" ({STEP_ALIAS[args.workload]})"
        extra = ""
        if name == "step_ms.tail":
            label += f" (p{100 * runs[-1].tail_quantile:g})"
            extra = f" beyond={sum(v > value for v in runs[-1].step_ms)}"
        print(f"{label:<36} {value:>16.6f} {unit:<9} n={n}{extra}")
    # Printed, not gated: the report's time varies too much between processes.
    reports = runs[-1].report_ms
    if reports and not args.trace:
        print(f"{'report_ms.p50 (not gated)':<36} {statistics.median(reports):>16.6f} {'ms':<9} n={len(reports)}")
    print(f"{'ops_failed_share':<36} {failed / max(attempted, 1):>16.6f} {'ratio':<9} n={attempted}")
    print(json.dumps({
        "correct": failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }))
    return 0 if failed == 0 and metrics else 1


if __name__ == "__main__":
    sys.exit(main())
