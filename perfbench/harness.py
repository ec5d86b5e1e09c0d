"""Shared plumbing of the benchmark: imports, inputs, oracle, statistics.

The benchmark runs from the root of a source checkout (``python3
perfbench/run.py ...``) and imports the program from ``src/`` of that
checkout, never from an installed copy. Everything here is deterministic
given the workload seed, so two runs with one seed see identical inputs.
"""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import resource
import statistics
import sys
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = Path(__file__).resolve().parent / "out"

#: Relative objective error every solve must reach (paper §5.1).
TARGET_REL_ERR = 1e-4
#: Tail percentiles need at least this many samples beyond them.
TAIL_BEYOND = 10


def no_span(_name: str):
    """Stand-in for ``Tracer.span`` when a run is not traced."""
    return nullcontext()


class SourceMissing(RuntimeError):
    """The checkout holds no ``src/repro`` to benchmark."""


def import_program() -> None:
    """Put the checkout's ``src`` first on ``sys.path`` (or fail loudly)."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SourceMissing(f"no program sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


# --------------------------------------------------------------------- #
# inputs and oracle
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class Shape:
    """A registry shape signature: ``X`` is d × m with fill ``density``."""

    d: int
    m: int
    density: float
    lam_ratio: float
    seed: int  # the registry's own generation seed


def registry_shape(name: str, size: str = "full") -> Shape:
    """The shape signature of registry dataset *name* (``repro.data``)."""
    from repro.data.datasets import DATASETS

    reg = DATASETS[name]
    d, m = reg.scaled_d, reg.scaled_m
    if size == "tiny":  # the registry's own tiny rule
        d, m = max(4, d // 4), max(64, m // 10)
    return Shape(d, m, reg.density, reg.lam_ratio, reg.seed)


def generate_problem(shape: Shape, seed: int, span=no_span):
    """``L1LeastSquares`` built the way the dataset registry builds one,
    with its features in an order drawn from *seed*.

    ``make_regression`` from the registry's own seed, then unit-norm
    samples, with λ a fixed fraction of λ_max; *seed* permutes the
    features (rows of ``X``). The program sees other bytes for every seed
    and does its arithmetic in another order, but poses the same problem
    with the same F*, partitions and sampled minibatches, so every seed
    runs the same mix of operations. A problem drawn afresh per seed
    changed the iterations RC-SFISTA needs to reach 1e-4 by up to 2×, and
    the share of proximal Newton solves that need 2 rather than 3 outer
    iterations, from one draw to the next; no run length averages that
    out. *span* (a tracer's ``span`` method) times the data-layer calls.
    """
    import numpy as np

    from repro.core.objectives import L1LeastSquares
    from repro.core.path import lambda_max
    from repro.data import scaling, synthetic
    from repro.sparse.csr import CSCMatrix

    with span("data.gen"):
        X, y, _w = synthetic.make_regression(
            shape.d, shape.m, density=shape.density, support_fraction=0.3,
            noise=0.1, rng=shape.seed,
        )
        X, _norms = scaling.normalize_sample_columns(X)
    order = np.random.default_rng([seed, 11]).permutation(shape.d)
    X = X[order] if isinstance(X, np.ndarray) else CSCMatrix.from_dense(X.to_dense()[order])
    lam = shape.lam_ratio * lambda_max(L1LeastSquares(X, y, 1.0))
    return L1LeastSquares(X, y, lam)


class OracleFailed(RuntimeError):
    """The reference solver did not certify F*; nothing can be checked."""


def oracle_fstar(problem) -> float:
    """F* from the reference solver.

    An optimality residual of 1e-6 (checked every 25 iterations) puts F*
    within ~1e-8 relative of the default 1e-8 reference — far inside the
    1e-4 target — at a fraction of its cost, and a run needs many. The
    iteration budget stays the reference solver's default 20,000.
    """
    from repro.core.reference import solve_reference
    from repro.exceptions import ConvergenceError

    try:
        result = solve_reference(problem, tol=1e-6, iters_per_round=25, max_rounds=800,
                                 raise_on_failure=True)
    except ConvergenceError as exc:
        raise OracleFailed(f"reference solver did not converge: {exc}") from exc
    return float(result.meta["fstar"])


def rel_error(value: float, fstar: float) -> float:
    from repro.core.stopping import relative_objective_error

    return relative_objective_error(value, fstar)


# --------------------------------------------------------------------- #
# statistics
# --------------------------------------------------------------------- #
def median(values) -> float:
    return float(statistics.median(values)) if len(values) else float("nan")


def quantile(values, p: float) -> float:
    """Harrell–Davis estimate of the *p* quantile of a latency sample.

    A Beta-weighted average of all order statistics rather than one of
    them. Solve times come in steps (proximal Newton needs a whole number
    of outer iterations) and a single order statistic jumps a full step
    when the quantile sits near a step edge; this estimate moves smoothly.
    """
    import numpy as np
    from scipy.special import betainc

    x = np.sort(np.asarray(values, dtype=np.float64))
    n = x.size
    if n < 2:
        return float(x[0]) if n else float("nan")
    a, b = (n + 1) * p, (n + 1) * (1.0 - p)
    return float(np.diff(betainc(a, b, np.arange(n + 1) / n)) @ x)


def tail(values) -> tuple[float, float, int]:
    """``(value, percentile, n)`` at the highest percentile that leaves
    :data:`TAIL_BEYOND` samples beyond it (the maximum when n ≤ 10)."""
    n = len(values)
    if n <= TAIL_BEYOND:
        return (float(max(values)) if n else float("nan")), 100.0, n
    p = (n - TAIL_BEYOND) / n
    return quantile(values, p), 100.0 * p, n


# --------------------------------------------------------------------- #
# host speed
# --------------------------------------------------------------------- #
#: Seconds :func:`probe_s` takes at the reference host speed (a 2-core
#: Intel Xeon host with one BLAS thread, in a quiet stretch).
PROBE_REF_S = 2.5e-3
_PROBE_DATA: list = []


def probe_s() -> float:
    """Seconds of one fixed calibration task, the fastest of three.

    The task mixes what the solvers spend host time on: interpreted
    Python, small numpy calls and a small GEMM. A shared 2-core Intel
    Xeon host ran everything up to ~1.6× slower for minutes at a time;
    there, the probe's time tracked the time of proximal Newton solves
    taken between probes with a correlation of 0.7-0.9.
    """
    import numpy as np

    if not _PROBE_DATA:
        rng = np.random.default_rng(0)
        _PROBE_DATA.extend([rng.standard_normal((196, 64)), rng.standard_normal(196)])
    A, b = _PROBE_DATA
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        acc, counts = 0.0, {}
        for i in range(400):
            acc += float(A[:, i % 64] @ b)
        for _ in range(20):
            np.matmul(A, A.T)
        for i in range(3000):
            counts[i % 97] = counts.get(i % 97, 0) + i
        best = min(best, time.perf_counter() - t0)
    return best


def at_reference_speed(seconds: float, probe_before: float, probe_after: float) -> float:
    """*seconds* measured between two probes, scaled to the reference speed."""
    return seconds * PROBE_REF_S / (0.5 * (probe_before + probe_after))


# --------------------------------------------------------------------- #
# resources
# --------------------------------------------------------------------- #
def cpu_seconds() -> float:
    """CPU seconds of this process (to the ns) plus its reaped children
    (to the clock tick)."""
    t = os.times()
    return time.process_time() + t.children_user + t.children_system


def proc_cpu_seconds(pid: int) -> float:
    """CPU seconds of a live child process, from ``/proc``."""
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    ticks = os.sysconf("SC_CLK_TCK")
    return (int(fields[11]) + int(fields[12])) / ticks  # utime + stime


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of a live process, in MB (0 once gone)."""
    try:
        text = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return 0.0
    for line in text.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return 0.0


def child_pids() -> list[int]:
    """Live child processes of this process, from ``/proc``."""
    pids = []
    for path in glob.glob(f"/proc/{os.getpid()}/task/*/children"):
        try:
            pids += [int(p) for p in Path(path).read_text().split()]
        except OSError:
            pass
    return pids


def stop_resource_tracker() -> None:
    """Stop multiprocessing's resource-tracker process and wait for it.

    The mp backend starts it (shared-memory segments) as a child that
    exits only when it reads EOF on its pipe, which otherwise happens
    after this process has exited: it would outlive the run, reparented,
    for a moment. ``_stop`` closes the pipe and reaps it.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


class ChildMemory:
    """Peak of the summed VmHWM of this process's live children.

    A daemon thread samples every *period* seconds. mp workers live only
    while a solve runs, so the children's peak is read while they are
    alive; ``RUSAGE_CHILDREN`` would report only the largest single child.
    """

    def __init__(self, period: float = 0.1) -> None:
        self.peak_mb = 0.0
        self._period = period
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    def sample(self) -> float:
        total = sum(proc_peak_rss_mb(pid) for pid in child_pids())
        self.peak_mb = max(self.peak_mb, total)
        return self.peak_mb

    def _loop(self) -> None:
        while not self._stop.wait(self._period):
            self.sample()

    def close(self) -> float:
        """Take a last sample, stop the thread and return the peak."""
        self.sample()
        self._stop.set()
        self._thread.join()
        return self.peak_mb


def peak_rss_mb(children: ChildMemory) -> float:
    """Peak RSS of this process plus the peak sum over its live children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return own + children.close()


# --------------------------------------------------------------------- #
# host record and roofline
# --------------------------------------------------------------------- #
def openblas_threads() -> int | None:
    """Thread count of numpy's bundled OpenBLAS, if it can be asked."""
    import numpy as np

    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "libscipy_openblas*")) + glob.glob(
        str(libdir / "libopenblas*")
    ):
        handle = ctypes.CDLL(lib)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def llc_bytes() -> int | None:
    best = None
    for path in glob.glob("/sys/devices/system/cpu/cpu0/cache/index*/size"):
        text = Path(path).read_text().strip()
        mult = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(text[-1:], 1)
        size = int(text.rstrip("KMG")) * mult
        best = size if best is None else max(best, size)
    return best


def environment() -> dict:
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "openblas_threads": openblas_threads(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "llc_bytes": llc_bytes(),
        "ram_bytes": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"),
    }


def dgemm_gflops(d: int, k: int, seconds: float = 1.5, window: float = 0.1) -> float:
    """Host ``A @ Aᵀ`` GFLOP/s with ``A`` of shape (d, k) — the Gram shape.

    The base of ``sparse.gram.peak_frac``: the product the dense Gram path
    issues, at the size it issues it. The best of short windows is kept,
    because on a shared 2-core host the first second of BLAS work ran
    far slower than the rest.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    A = rng.standard_normal((d, max(1, k)))
    out = np.empty((d, d))
    flops = 2.0 * d * d * A.shape[1]
    best = 0.0
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        reps, start = 0, time.perf_counter()
        while time.perf_counter() - start < window:
            np.matmul(A, A.T, out=out)
            reps += 1
        best = max(best, flops * reps / (time.perf_counter() - start) / 1e9)
    return best
