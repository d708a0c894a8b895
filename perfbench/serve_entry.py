"""Server process for the ``serve`` workload.

    python3 perfbench/serve_entry.py INDEX_DIR [--trace SPANS.json]

Serves INDEX_DIR in-process (``workers=0``) on an ephemeral port and
prints ``serving on http://HOST:PORT`` when ready; SIGTERM drains and
stops it.  With ``--trace`` the layer wrappers are installed before the
server is built, and the spans are written to SPANS.json at exit.
"""

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("index")
    parser.add_argument("--trace")
    args = parser.parse_args()
    tracer = None
    if args.trace:
        import layers
        from spans import Tracer

        tracer = Tracer()
        layers.install(tracer)
    from repro.api import Corpus, Session
    from repro.server import run

    code = run(Session(corpus=Corpus.open(args.index)), port=0, workers=0)
    if tracer is not None:
        tracer.dump(args.trace)
    return code


if __name__ == "__main__":
    sys.exit(main())
