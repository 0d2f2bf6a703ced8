"""In-memory span recorder that times sarnet's layers from outside the package.

Nothing under ``src/`` is changed.  While a traced operation runs, the public
sarnet functions listed in ``PROBES`` are replaced, at every module attribute
through which a caller reaches them, by wrappers that record a span (op index,
name, start, end, parent span).  ``Spectrum.from_instruments`` is wrapped on
its class.  After the operation every original is put back, so untraced
operations run the unmodified code.  Spans stay in memory.

Counts and byte sizes are taken at the same boundaries.  Byte sizes are
computed from the sizes of the arrays a function returns, not measured.
The spectrum route is observed, not inferred: ``numpy.linalg.eigh`` is
wrapped too, and a ``from_instruments`` call whose decomposed matrix has
the instruments' row count as its order took the dense n x n route.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

import numpy as np

#: the package modules, which are also the layers the benchmark reports
LAYERS = ("graphs", "transforms", "identification", "instruments",
          "regularization", "estimation", "selection", "montecarlo", "cli")

#: span names whose self time (duration minus their child spans) is reported
SELF_TIMED = ("montecarlo.run_replication", "cli.main")

#: span names whose call count per op is reported
CALL_COUNTED = ("identification.distinct_eigenvalues",
                "regularization.from_instruments")


def array_bytes(obj) -> int:
    """Bytes held by the arrays among ``obj``'s attributes (computed, not measured)."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (tuple, list)):
        return sum(array_bytes(x) for x in obj)
    return sum(v.nbytes for v in getattr(obj, "__dict__", {}).values()
               if isinstance(v, np.ndarray))


@dataclass
class Span:
    op: int
    name: str
    start: float
    end: float = 0.0
    parent: int = -1     # index into Tracer.spans; -1 for a root span


class Tracer:
    """Spans and counters of the traced operations, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.maxima: dict[tuple[int, str], float] = {}
        self.op = 0
        self.eigh_order: int | None = None    # last eigh inside from_instruments
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(self.op, name, time.perf_counter(), parent=parent))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index].end = time.perf_counter()

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counts[name] += amount

    def record_max(self, name: str, value: float) -> None:
        key = (self.op, name)
        self.maxima[key] = max(self.maxima.get(key, value), value)

    def totals(self) -> tuple[dict[str, float], dict[str, int], dict[str, float]]:
        """Per span name: summed duration (s), span count, summed self time (s)."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.end - s.start
        duration: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        self_time: dict[str, float] = defaultdict(float)
        for s, c in zip(self.spans, child):
            duration[s.name] += s.end - s.start
            calls[s.name] += 1
            self_time[s.name] += s.end - s.start - c
        return duration, calls, self_time

    def per_op_max(self, name: str, ops: int) -> float:
        """Mean over ``ops`` traced ops of the per-op maximum recorded under ``name``."""
        return sum(v for (_, n), v in self.maxima.items() if n == name) / max(ops, 1)

    def innermost(self) -> str | None:
        return self.spans[self._stack[-1]].name if self._stack else None


# ---------------------------------------------------------------------------
# What is wrapped
# ---------------------------------------------------------------------------

def _network_bytes(tracer: Tracer, args, kwargs, out) -> None:
    net = out[0] if isinstance(out, tuple) else out    # load_network -> (net, data)
    tracer.count("graphs.network_bytes", array_bytes(net))


def _columns(tracer: Tracer, args, kwargs, out) -> None:
    tracer.record_max("instruments.columns", np.shape(out.Q)[1])


def _grid_points(tracer: Tracer, args, kwargs, out) -> None:
    tracer.count("selection.grid_points", len(out.curve))


def _spectrum(tracer: Tracer, args, kwargs, out) -> None:
    # the Gram route decomposes an m x m matrix, the dense route an n x n one
    if tracer.eigh_order == out.n:
        tracer.count("regularization.dense_route.calls")
    tracer.eigh_order = None
    tracer.count("regularization.spectrum_bytes", array_bytes(out))


def _observed_eigh(tracer: Tracer, eigh):
    """``eigh`` that notes the matrix order when called by from_instruments."""
    def wrapper(a, *args, **kwargs):
        if tracer.innermost() == "regularization.from_instruments":
            tracer.eigh_order = np.shape(a)[0]
        return eigh(a, *args, **kwargs)
    return wrapper


def _count_only(name: str):
    def after(tracer: Tracer, args, kwargs, out) -> None:
        tracer.count(name)
    return after


@dataclass(frozen=True)
class Probe:
    layer: str                      # defining module, also the span prefix
    func: str
    after: Callable | None = None   # (tracer, args, kwargs, result) hook
    span: bool = True
    owner: str | None = None        # class holding ``func`` as a classmethod

    @property
    def name(self) -> str:
        return f"{self.layer}.{self.func}"


PROBES = (
    Probe("graphs", "generate_mc_network", _network_bytes),
    Probe("graphs", "load_network", _network_bytes),
    Probe("transforms", "j_projector"),
    Probe("transforms", "reduced_form"),
    Probe("identification", "distinct_eigenvalues"),
    Probe("identification", "build_report"),
    Probe("instruments", "q1_roster", _columns),
    Probe("instruments", "q2_roster", _columns),
    Probe("instruments", "normalize_columns"),
    Probe("instruments", "build_instruments", _columns),
    Probe("regularization", "from_instruments", _spectrum, owner="Spectrum"),
    Probe("estimation", "preliminary_delta"),
    Probe("estimation", "preliminary_rho"),
    Probe("estimation", "regularized_2sls"),
    Probe("estimation", "bias_corrected_2sls"),
    Probe("selection", "prepare_selection"),
    Probe("selection", "select_from_context", _grid_points),
    Probe("selection", "select_alpha"),
    # called once or twice per grid point: counted, not spanned
    Probe("selection", "criterion_value",
          _count_only("selection.criterion_value.calls"), span=False),
)


def _wrap(tracer: Tracer, probe: Probe, fn):
    def wrapper(*args, **kwargs):
        with tracer.span(probe.name) if probe.span else contextlib.nullcontext():
            out = fn(*args, **kwargs)
        if probe.after is not None:
            probe.after(tracer, args, kwargs, out)
        return out
    return wrapper


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap every probe at each sarnet attribute bound to it; restore after."""
    modules = [importlib.import_module(f"sarnet.{name}") for name in LAYERS]
    restore: list[tuple[object, str, object]] = [(np.linalg, "eigh", np.linalg.eigh)]
    try:
        np.linalg.eigh = _observed_eigh(tracer, np.linalg.eigh)
        for probe in PROBES:
            home = modules[LAYERS.index(probe.layer)]
            if probe.owner is not None:
                cls = getattr(home, probe.owner)
                original = cls.__dict__[probe.func]
                restore.append((cls, probe.func, original))
                setattr(cls, probe.func,
                        classmethod(_wrap(tracer, probe, original.__func__)))
                continue
            original = getattr(home, probe.func, None)
            if original is None:
                continue
            wrapped = _wrap(tracer, probe, original)
            for mod in modules:
                if getattr(mod, probe.func, None) is original:
                    restore.append((mod, probe.func, original))
                    setattr(mod, probe.func, wrapped)
        yield
    finally:
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)
