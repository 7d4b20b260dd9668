"""Offline benchmark of aspectcrf; run from the repository root.

    python3 perfbench/run.py --workload train_syn --seed 1 --seconds 30 --trace 0

Builds nothing: it imports ``aspectcrf`` from ``src/`` of the checkout it
sits in and refuses to run against any other copy. Information lines go to
stdout first; the last stdout line is the result object
``{"correct", "attempted", "failed", "metrics"}``. ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer ones from a traced run and
writes its spans under ``.perfbench_work/spans/``. See README.md in this
directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
# every BLAS/OpenMP pool this numpy might use, pinned to one thread
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def git_commit(root: Path) -> str | None:
    """HEAD's commit read from .git without running git; None outside a repository."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split(" ", 1)[0]
    return None


def source_digest(package: Path) -> str:
    """sha256 over the package's Python sources, so a result names the code it measured."""
    h = hashlib.sha256()
    for path in sorted(package.rglob("*.py")):
        h.update(str(path.relative_to(package)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()[:16]


def main(argv=None) -> int:
    package = SRC / "aspectcrf"
    if not (package / "__init__.py").is_file():
        print(f"error: no aspectcrf sources under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import aspectcrf  # noqa: E402  (after the thread pinning, from this checkout only)
    if Path(aspectcrf.__file__).resolve().parent != package.resolve():
        print(f"error: imported aspectcrf from {aspectcrf.__file__}, not {package}", file=sys.stderr)
        return 2
    import numpy as np
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    workload = workloads.WORKLOADS[args.workload]
    env = {
        "commit": git_commit(ROOT),
        "src_sha256": source_digest(package),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ[var] for var in THREAD_VARS},
        "config_digest": workload.config.replace(seed=args.seed).digest(),
    }
    print("env " + json.dumps(env, sort_keys=True), flush=True)

    workdir = WORK / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    spans = WORK / "spans" / f"{args.workload}-seed{args.seed}.json" if args.trace else None
    try:
        outcome = workloads.run(workload, args.seed, args.seconds, bool(args.trace), workdir, spans)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print("workload " + json.dumps(outcome.info, sort_keys=True), flush=True)
    result = {
        "correct": outcome.ledger.failed == 0,
        "attempted": outcome.ledger.attempted,
        "failed": outcome.ledger.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in outcome.metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
