"""Spans, statistics, machine-speed calibration and the environment block.

Shared by the runner and the workers.
"""

from __future__ import annotations

import ctypes
import os
import platform
import statistics
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


SPAN_FIELDS = ("trace", "span", "parent", "name", "start", "end")


class Tracer:
    """In-memory spans around the benchmark's calls into the library.

    A span is a tuple of SPAN_FIELDS; parent 0 marks a root span. Every
    operation opens a root span whose span id is also the trace id of all
    its descendants. When disabled, ``call`` adds one Python call and
    nothing is recorded.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        self._stack: list[tuple[int, int]] = []  # (trace id, span id)
        self._next_id = 1

    def _new_id(self) -> int:
        sid = self._next_id
        self._next_id += 1
        return sid

    @contextmanager
    def root(self, name: str, trace_id: int | None = None):
        """Open an operation (or its check) span; yields the trace id."""
        sid = self._new_id()
        trace = sid if trace_id is None else trace_id
        if not self.enabled:
            yield trace
            return
        self._stack.append((trace, sid))
        start = perf_counter()
        try:
            yield trace
        finally:
            self._stack.pop()
            self.spans.append((trace, sid, 0, name, start, perf_counter()))

    def call(self, name: str, fn, *args, **kwargs):
        """Call ``fn``; when enabled, record it as a child of the open span."""
        if not self.enabled:
            return fn(*args, **kwargs)
        trace, parent = self._stack[-1]
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans.append((trace, self._new_id(), parent, name, start, perf_counter()))

    def child(self, name: str, start: float, end: float) -> None:
        """Record an interval measured elsewhere (a child process) under the open span."""
        if self.enabled:
            trace, parent = self._stack[-1]
            self.spans.append((trace, self._new_id(), parent, name, start, end))


def span_cost_s(samples: int = 20000) -> float:
    """Added cost of one traced call over an untraced one, in seconds."""
    def noop():
        return None

    on, off = Tracer(True), Tracer(False)
    best = []
    for tracer in (on, off):
        with tracer.root("calibrate"):
            start = perf_counter()
            for _ in range(samples):
                tracer.call("calibrate.noop", noop)
            best.append((perf_counter() - start) / samples)
    return max(0.0, best[0] - best[1])


def layer_metrics(spans: list[tuple]) -> dict[str, float]:
    """Per-function calls/busy/p50 and per-layer self time from spans.

    Self time of a span is its duration minus the time its children cover;
    children of one span never overlap, because every call is sequential.
    """
    covered: dict[int, float] = {}
    for _, _, parent, _, start, end in spans:
        if parent:
            covered[parent] = covered.get(parent, 0.0) + (end - start)
    durations: dict[str, list[float]] = {}
    self_s: dict[str, float] = {}
    for _, sid, parent, name, start, end in spans:
        dur = end - start
        if parent:
            durations.setdefault(name, []).append(dur)
            layer = name.split(".", 1)[0]
        else:  # root spans: "op.<kind>", "check" or "setup"
            layer = "bench." + name.split(".", 1)[0]
        self_s[layer] = self_s.get(layer, 0.0) + dur - covered.get(sid, 0.0)
    out: dict[str, float] = {}
    for name, durs in durations.items():
        out[f"{name}.calls"] = len(durs)
        out[f"{name}.busy_s"] = sum(durs)
        out[f"{name}.p50_ms"] = statistics.median(durs) * 1e3
    for layer, value in self_s.items():
        out[f"{layer}.self_s"] = value
    return out


def tail(values: list[float]) -> dict:
    """Highest percentile with at least ten samples beyond it.

    With fewer than eleven samples no such percentile exists; the maximum
    is reported with ``beyond`` = 0.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n >= 11:
        return {"value": ordered[n - 11], "percentile": 100.0 * (n - 10) / n, "samples": n, "beyond": 10}
    return {"value": ordered[-1], "percentile": 100.0, "samples": n, "beyond": 0}


def import_nlboxes(src: Path):
    """Import nlboxes from ``src``, never from an installed copy."""
    sys.path.insert(0, str(src))
    import nlboxes

    if Path(nlboxes.__file__).resolve().parent != src / "nlboxes":
        raise BenchError(f"nlboxes imported from {nlboxes.__file__}, not from {src}")
    return nlboxes


def summary(values: list[float]) -> dict:
    """Median, tail and mean of raw latencies (any one unit)."""
    return {"p50": statistics.median(values), "tail": tail(values), "mean": statistics.fmean(values),
            "samples": len(values)}


# ---------------------------------------------------------------------------
# Machine-speed calibration.
#
# The machine is shared: other tenants slow every kind of work by up to
# 1.7x, in phases lasting from under a second to minutes, so raw latencies
# of the same code spread by up to 70 % between runs. Each workload
# therefore times a fixed reference kernel right after a sample of each
# class, once REF_EVERY_S[class] has passed since that class's kernel last
# ran. The kernel runs until it has taken REF_DOSE of the sample's latency,
# and at least REF_MIN_S; the median of those runs is one kernel time.
# Every sample is calibrated by the first kernel time taken after it, as
# latency x NOMINAL_S[kernel] / kernel time: milliseconds at the kernel's
# nominal speed. A metric is then the median (or mean) of calibrated
# samples, so a slow phase moves a sample and its kernel together.
# A kernel uses numpy and Python only, never nlboxes, so a change to the
# library moves the calibrated figures exactly as it moves the raw ones.
# Each class gets the kernel whose work resembles it most.
# ---------------------------------------------------------------------------

# Seconds between kernel runs, per operation class; 0 pairs every sample
# with a kernel run of its own.
REF_EVERY_S = {"op": 0.5, "alt": 0.5}
REF_DOSE = 0.1
REF_MIN_S = 0.02

# Median kernel times measured once on the machine the benchmark was tuned
# on (2 vCPU Intel Xeon, Python 3.11, numpy 2.4, OpenBLAS with 2 threads).
NOMINAL_S = {"python": 2.1e-3, "numpy": 8.5e-3, "blas": 1.8e-2, "spawn": 1.65e-1}
NOMINAL_S["search"] = 3 * NOMINAL_S["numpy"] + NOMINAL_S["blas"]

# The kernel each workload's set-up and operation classes are calibrated with.
CLASS_KERNELS = {
    "search_stream": {"setup": "numpy", "op": "blas", "alt": "python"},
    "box_batch": {"setup": "spawn", "op": "python", "alt": "python"},
    "distill_sweep": {"setup": "spawn", "op": "python", "alt": "numpy"},
    "cli_cold": {"setup": "spawn", "op": "spawn", "alt": "search"},
}

_ARRAYS: dict[str, object] = {}


def _ref_python() -> None:
    """Interpreter-bound work with small numpy calls, like the per-box path."""
    import numpy as np

    x = 0
    for i in range(30000):
        x += i % 7
    a = np.arange(4.0)
    for i in range(300):
        x += float((a * i).sum())


def _ref_numpy() -> None:
    """Elementwise numpy over large arrays, like the optimizer's grid."""
    import numpy as np

    grid = _ARRAYS.setdefault("grid", np.linspace(0.001, 0.999, 100_000))
    e = 1.0 - 2.0 * grid
    float((np.arcsin(e) * 3.0 - e ** 5).max())


def _ref_blas() -> None:
    """Multithreaded BLAS products of the pair scan's shape."""
    import numpy as np

    if "a" not in _ARRAYS:
        rng = np.random.default_rng(0)
        _ARRAYS["a"], _ARRAYS["b"] = rng.random((6212, 64)), rng.random((64, 1024))
    float((_ARRAYS["a"] @ _ARRAYS["b"]).max())


def _ref_spawn() -> None:
    """A fresh interpreter importing numpy, like a CLI process starting."""
    subprocess.run([sys.executable, "-c", "import numpy"], check=True, timeout=60)


def _ref_search() -> None:
    """Elementwise numpy, then the pair scan's product: a whole search in small, about as
    its dedup and its scan share a CLI search's time."""
    for _ in range(3):
        _ref_numpy()
    _ref_blas()


KERNELS = {"python": _ref_python, "numpy": _ref_numpy, "blas": _ref_blas, "spawn": _ref_spawn,
           "search": _ref_search}


def time_kernel(name: str) -> float:
    start = perf_counter()
    KERNELS[name]()
    return perf_counter() - start


def kernel_time(name: str, latency: float) -> float:
    """Median time of ``name`` over runs that take REF_DOSE of ``latency`` and at least REF_MIN_S."""
    runs = [time_kernel(name)]
    while sum(runs) < max(REF_DOSE * latency, REF_MIN_S):
        runs.append(time_kernel(name))
    return statistics.median(runs)


class Calibrator:
    """Latency samples per class, each with the reference-kernel time taken after it."""

    def __init__(self, kernels: dict[str, str], every_s: dict[str, float] = REF_EVERY_S):
        self.kernels = kernels
        self.every_s = every_s
        self.samples: dict[str, list[float]] = {}  # kernel name -> kernel times
        # class -> [latency, index of the first kernel time taken after it]
        self.timings: dict[str, list[list]] = {"op": [], "alt": []}
        self._last: dict[str, float] = {}

    def add(self, cls: str, latency: float) -> None:
        """Keep one ``cls`` sample; time the class's kernel if it is due."""
        kernel = self.kernels[cls]
        times = self.samples.setdefault(kernel, [])
        self.timings[cls].append([latency, len(times)])
        if perf_counter() - self._last.get(cls, float("-inf")) >= self.every_s[cls]:
            times.append(kernel_time(kernel, latency))
            self._last[cls] = perf_counter()


def calibrated(kernel: str, timings: list[list], kernel_times: list[float]) -> list[float]:
    """Each latency x nominal / the first kernel time taken after it (the last one, if none was)."""
    last = len(kernel_times) - 1
    return [latency * NOMINAL_S[kernel] / kernel_times[min(index, last)] for latency, index in timings]


def speed_factor(kernel: str, kernel_times: list[float]) -> float:
    """Nominal over the median kernel time: the speed of a whole run."""
    return NOMINAL_S[kernel] / statistics.median(kernel_times)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads() -> int | None:
    """Effective OpenBLAS thread count of this process, read from the loaded library."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line}
    except OSError:
        return None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    """Machine and library facts a result depends on; numpy must be imported first."""
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(),
        "env_threads": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                   "MKL_NUM_THREADS") if k in os.environ},
    }
