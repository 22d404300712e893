"""Run the mmadapt benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

runs one workload in this process and prints each metric by name with its
unit, then one JSON line: {"correct", "attempted", "failed", "metrics"}.
With `--trace 0` the metrics are the end-to-end ones; with `--trace 1`
they are the per-layer ones, from a run with tracing wrappers installed.

`--workload all` runs every workload in its own fresh process, one at a
time, and writes their results beside a run manifest.

BLAS is pinned to one thread before numpy loads. Results, the manifest
and the traced run's spans go to perfbench/out/.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
WORKLOAD_NAMES = ("pretrain_text", "merge_speech_text", "dev_decode")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    return p.parse_args(argv)


def git_commit() -> str | None:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, asked of the library itself."""
    import ctypes

    import numpy as np

    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib_path in sorted(libs.glob("*openblas*")) if libs.is_dir() else []:
        lib = ctypes.CDLL(str(lib_path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def manifest(seed: int, size: str, seconds: float, trace: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "seed": seed,
        "size": size,
        "seconds": seconds,
        "trace": trace,
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": blas_threads(),
        "blas_env": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
    }


def _print_metrics(metrics: dict) -> None:
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:14.6g} {unit}")


def run_one(args) -> int:
    if not (ROOT / "src" / "mmadapt").is_dir():
        print(f"error: no mmadapt sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))
    from perfbench import workloads

    OUT.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="work-") as work:
        result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), args.size, Path(work))

    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} size={args.size}")
    _print_metrics(result["metrics"])
    _print_metrics(result["extra"])
    for kind, digest in result["digests"].items():
        print(f"{kind + '_digest':34s} {digest}")
    for problem in result["problems"]:
        print(f"check failed: {problem}")

    stem = f"{args.workload}-trace{args.trace}"
    record = {
        "manifest": {**manifest(args.seed, args.size, args.seconds, args.trace), "workload": args.workload,
                     "config": result["config"], "digests": result["digests"]},
        "setup_s": result["setup_s"],
        "units": result["units"],
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "problems": result["problems"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in {**result["metrics"], **result["extra"]}.items()},
    }
    tracer = result.get("tracer")
    if tracer is not None:
        record["spans"] = tracer.summary()
        tracer.save(OUT / f"{stem}-spans.npz")
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1))

    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
            }
        )
    )
    return 0


def run_all(args) -> int:
    """Each workload in its own fresh process, one at a time."""
    results = {}
    ok = True
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not proc.stdout.strip():
            print(f"# {name} exited with code {proc.returncode}")
            ok = False
            continue
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
        ok = ok and results[name]["correct"]
    OUT.mkdir(parents=True, exist_ok=True)
    summary = {"manifest": manifest(args.seed, args.size, args.seconds, args.trace), "results": results}
    path = OUT / f"all-trace{args.trace}.json"
    path.write_text(json.dumps(summary, indent=1))
    print(f"# all workloads {'passed their checks' if ok else 'FAILED'}; results in {path.relative_to(ROOT)}")
    return 0 if ok else 1


def main(argv=None) -> int:
    args = _parse(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
