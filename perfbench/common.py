"""Shared pieces of the workloads: run context, set-up timing, environment
stamp, statistics and the result record."""

import contextlib
import ctypes
import hashlib
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

clock = time.perf_counter

SRC = Path(__file__).resolve().parent.parent / "src"

#: Set-up repetitions per run; ``setup_s`` is their median.
SETUP_REPS = 3

#: End-to-end metrics, reported by every workload with ``--trace 0``.
END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("items_per_s", "1/s"),
    ("op_p50_ms", "ms"),
)


@dataclass
class Context:
    workload: str
    seed: int
    seconds: float
    tracer: object
    work: Path
    start: float
    #: Usable CPUs when the process started.
    cores: int = field(
        default_factory=lambda: len(os.sched_getaffinity(0)))
    #: Seconds from process start until the workload's imports are done.
    import_s: float = None
    notes: dict = field(default_factory=dict)

    def imported(self):
        """Mark the end of this process's imports (recorded, not gated)."""
        self.import_s = clock() - self.start

    def setup(self, build, modules):
        """Set up :data:`SETUP_REPS` times; returns the last ``build``
        result and ``setup_s``.

        ``setup_s`` is the median time a fresh interpreter takes to
        import ``modules`` (this process imports them only once, so each
        repetition runs in a child) plus the median time of
        ``build(rep)``, traced in a traced run, scaled to the reference
        speed with a :class:`Pace` probed between repetitions.
        """
        code = "import " + ", ".join(modules)
        env = dict(os.environ, PYTHONPATH=str(SRC))
        imports, builds, result = [], [], None
        pace = Pace()
        pace.probe()
        for rep in range(SETUP_REPS):
            began = clock()
            subprocess.run([sys.executable, "-c", code], env=env,
                           check=True)
            imports.append(clock() - began)
            with self.tracing():
                began = clock()
                result = build(rep)
                builds.append(clock() - began)
            pace.probe()
        self.notes.update(import_s=self.import_s, setup_imports_s=imports,
                          setup_builds_s=builds, setup_pace_s=pace.samples)
        return result, (statistics.median(pace.scaled(imports))
                        + statistics.median(pace.scaled(builds)))

    @contextlib.contextmanager
    def tracing(self, on=True):
        """Record spans inside the block (a no-op in an untraced run).
        Input generation and correctness checks run outside it."""
        if self.tracer is None:
            yield
            return
        before, self.tracer.enabled = self.tracer.enabled, on
        try:
            yield
        finally:
            self.tracer.enabled = before

    def passes(self):
        """Trace flags for each unit of work: an untraced run does each
        unit once; a traced run does it untraced and then traced, on the
        same input, and the difference is the tracing overhead."""
        return (False,) if self.tracer is None else (False, True)


#: Seconds :func:`reference_work` takes at the reference speed.  Fixed:
#: every reported time is scaled to this speed, so changing it rescales
#: every figure the benchmark has recorded.
REFERENCE_S = 0.4


def reference_work():
    """A fixed mix of interpreter, allocation and small-array work, the
    kinds of work the workloads do.  It calls nothing from ``src/``, so no
    change to the program moves it."""
    total = 0
    for i in range(1_400_000):
        total += i * i % 7
    words = []
    for i in range(140_000):
        entry = {"id": i, "name": "n%d" % i, "pins": [i, i + 1, i + 2]}
        words.append(entry["name"] + str(len(entry["pins"])))
        if len(words) == 1000:
            # Small batches: the work must not move peak_rss_mb.
            total += len(" ".join(words).split())
            words.clear()
    x = np.random.default_rng(0).standard_normal((64, 64))
    for _ in range(3000):
        x = np.tanh(x @ x.T * 0.01 + 0.5)
    return total + float(x.sum())


class Pace:
    """The host's speed, from :func:`reference_work` timed between timed
    units.

    The shared host's speed flips between states some 40% apart, for a
    few seconds at a time, so one run's raw times spread too much to
    compare.  The reference work runs before each unit and after the
    last; :meth:`scaled` multiplies each unit's time by
    :data:`REFERENCE_S` over the mean time of the two probes that bracket
    it, which cancels the state the unit ran in.  Raw times are kept in
    each record's details.
    """

    def __init__(self):
        self.samples = []

    def probe(self):
        start = clock()
        reference_work()
        self.samples.append(clock() - start)

    def scaled(self, times):
        """``times[i]``, run between probes ``i`` and ``i + 1``, at the
        reference speed."""
        assert len(self.samples) == len(times) + 1
        return [t * 2.0 * REFERENCE_S / (before + after)
                for t, before, after in zip(times, self.samples,
                                            self.samples[1:])]


def units(seconds, nominal_s, minimum):
    """How many timed units fill about ``seconds``.

    Fixed from ``--seconds`` and the unit's nominal duration, not from
    the clock, so a faster program does the same work, not more of it.
    """
    return max(minimum, int(round(seconds / nominal_s)))


def peak_rss_mb(who=resource.RUSAGE_SELF):
    return resource.getrusage(who).ru_maxrss / 1024.0


def percentile(values, q):
    """Nearest-rank percentile ``q`` in [0, 100] of ``values``."""
    ordered = sorted(values)
    if not ordered:
        return float("nan")
    rank = min(len(ordered) - 1, max(0, int(round(q / 100.0
                                                  * len(ordered))) - 1))
    return ordered[rank]


def tail_percentile(count):
    """The highest of p99.9/p99/p95/p90/p50 that has at least ten samples
    beyond it among ``count`` samples."""
    for q in (99.9, 99.0, 95.0, 90.0):
        if count * (100.0 - q) / 100.0 >= 10:
            return q
    return 50.0


def end_to_end(setup_s, rss_mb, items_per_s, op_ms):
    values = {"setup_s": setup_s, "peak_rss_mb": rss_mb,
              "items_per_s": items_per_s, "op_p50_ms": op_ms}
    return {name: {"value": float(values[name]), "unit": unit}
            for name, unit in END_TO_END}


def sha256_files(paths):
    digest = hashlib.sha256()
    for path in paths:
        digest.update(Path(path).name.encode())
        digest.update(Path(path).read_bytes())
    return digest.hexdigest()


def _blas():
    """(OpenBLAS version, BLAS thread count) of the loaded numpy."""
    version = None
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        version = deps["blas"].get("version")
    except (KeyError, TypeError, ValueError):
        pass
    threads = None
    with open("/proc/self/maps") as maps:
        libs = sorted({line.split()[-1] for line in maps
                       if "openblas" in line.lower()})
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                threads = int(getter())
                break
        if threads is not None:
            break
    return version, threads


def environment(ctx):
    import scipy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=SRC.parent, capture_output=True,
            text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    blas_version, blas_threads = _blas()
    return {
        "commit": commit,
        "seed": ctx.seed,
        "workload": ctx.workload,
        "seconds": ctx.seconds,
        "trace": ctx.tracer is not None,
        "cores": ctx.cores,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": blas_version,
        "blas_threads": blas_threads,
    }


def record(ctx, outcome):
    """The full record line printed before the result line."""
    return {
        "env": environment(ctx),
        "correct": outcome["correct"],
        "checks": outcome["checks"],
        "operations": {"attempted": outcome["attempted"],
                       "succeeded": outcome["attempted"]
                       - outcome["failed"],
                       "failed": outcome["failed"]},
        "digests": outcome.get("digests", {}),
        "details": dict(ctx.notes, **outcome.get("details", {})),
        "metrics": outcome["metrics"],
    }


def result_line(outcome):
    return {"correct": bool(outcome["correct"]),
            "attempted": int(outcome["attempted"]),
            "failed": int(outcome["failed"]),
            "metrics": outcome["metrics"]}


def layer_outcome(ctx, windows, untraced_s, traced_s, extra=None):
    """Per-layer metrics for a traced run.

    ``windows`` are the traced units' ``(start, end)`` intervals;
    ``untraced_s``/``traced_s`` the matching unit times, whose medians
    give the tracing overhead.
    """
    import layers

    tracer = ctx.tracer
    wall = sum(end - start for start, end in windows)
    covered = tracer.covered(windows)
    extra = dict(extra or {})
    extra["trace.unattributed_pct"] = (100.0 * (1.0 - covered / wall)
                                       if wall > 0 else 0.0)
    extra["trace.overhead_pct"] = 100.0 * (statistics.median(traced_s)
                                           / statistics.median(untraced_s)
                                           - 1.0)
    ctx.notes["traced_units_s"] = traced_s
    ctx.notes["untraced_units_s"] = untraced_s
    return layers.layer_metrics(tracer, extra)
