"""GNN4IP benchmark: one workload per process, from a seed.

    python3 perfbench/run.py --workload train --seed 1 --seconds 10 --trace 0

Run from the repository root.  The program under test is imported from
``src/``; the benchmark writes its inputs under ``.perfbench/`` and
removes them at exit.  The same seed gives the same inputs.  The last
line of standard output is the result: ``{"correct", "attempted",
"failed", "metrics"}``.  With ``--trace 0`` the metrics are the
end-to-end metrics; with ``--trace 1`` the public functions of each
layer are wrapped (:mod:`layers`) and the metrics are the per-layer
figures.  The line before it is the full record: environment stamp,
checks, operation counts, digests and details.
See ``perfbench/README.md``.
"""

import os
import time

START = time.perf_counter()

# One BLAS thread: every workload's load runs in one process with at most
# two threads, and a pinned thread count keeps runs comparable.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

WORKLOADS = ("train", "ingest", "detect", "serve")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program to measure under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    import common
    from spans import Tracer

    work = ROOT / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    tracer = None
    if args.trace:
        import layers

        tracer = Tracer()
        layers.install(tracer)
        tracer.enabled = False
    ctx = common.Context(workload=args.workload, seed=args.seed,
                         seconds=args.seconds, tracer=tracer, work=work,
                         start=START)
    try:
        module = __import__(f"wl_{args.workload}")
        outcome = module.run(ctx)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if tracer is not None:
        tracer.dump(ROOT / ".perfbench"
                    / f"trace-{args.workload}-{args.seed}.json")
    record = common.record(ctx, outcome)
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(common.result_line(outcome)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
