"""Per-layer tracing of the qdirac modules, installed from outside ``src/``.

The tracer wraps every public function and method of each layer module at
its module or class attribute, so the library itself is not edited.  A
function imported by name into another qdirac module (``from .dirac import
pair_residual``) is re-bound there too, so calls between layers are seen.

Each wrapped call is a span.  A stack of open spans gives every span its
parent, and a layer's self time is the sum over its spans of the span's
duration minus the time covered by its child spans.  Spans of the
``quaternion`` and ``blocks`` layers are aggregated into counts and self
time only: one ``current_divergence`` call at N = 160 makes about 10**6 of
them, too many to keep.  Spans of the other layers, and the benchmark's own
root spans, are kept in memory (name, start, end, parent) when ``record`` is
set, and written out by the caller when the run ends.

The wrapper's own bookkeeping falls partly inside a span and partly outside
it, in the parent's self time.  For cheap callables such as ``Quat.__mul__``
that cost is as large as the work itself, so ``calibrate`` times an empty
wrapped call and ``layer_metrics`` subtracts its inside part once per call
of a layer and its outside part once per child span of the layer.  The
machine's speed drifts, so the caller calibrates between the ops of a pass
and the medians of those batches are used.
"""

from __future__ import annotations

import contextlib
import inspect
import math
import statistics
import sys
import time
from collections import Counter, defaultdict

LAYERS = (
    "quaternion",
    "spinor_maps",
    "blocks",
    "transforms",
    "dirac",
    "current",
    "harness",
    "cli",
)
# layers whose spans are counted and timed but not stored one by one
AGGREGATE_ONLY = ("quaternion", "blocks")

# dunder methods that are part of a class's public arithmetic or construction
_PUBLIC_DUNDERS = {
    "__init__",
    "__add__",
    "__radd__",
    "__sub__",
    "__rsub__",
    "__neg__",
    "__mul__",
    "__rmul__",
    "__truediv__",
}

_FD_FUNCTIONS = ("harness.fd_apply_D", "harness.fd_apply_D_conj")
_COMPLEX_BYTES = 16


def _count_mode_pairs(tracer, args, kwargs, result):
    solutions = args[0] if args else kwargs["solutions"]
    tracer.counts["current.mode_pairs"] += len(solutions) ** 2


def _count_cases(tracer, args, kwargs, result):
    tracer.counts["harness.case_count"] += len(result.cases)
    tracer.case_names.append([case.name for case in result.cases])


def _count_fd(tracer, args, kwargs, result):
    grid = args[0] if args else kwargs["grid"]
    shape = grid.values.shape[:4]
    points = math.prod(shape)
    tracer.counts["harness.fd_points"] += points
    # computed traffic: the input grid read once and the output grid written
    # once; caches and temporaries are not modelled
    out_points = math.prod(n - 2 for n in shape)
    tracer.counts["harness.fd_bytes_computed"] += (points + out_points) * 4 * _COMPLEX_BYTES


# wrapped callable -> count metric that goes up by one per call; every
# wrapper counts its calls by name alone, so all of them cost the same
CALL_COUNTERS = {
    "quaternion.Quat.__init__": "quaternion.new_count",
    "quaternion.Quat.__mul__": "quaternion.mul_count",
    "blocks.Reflector.__mul__": "blocks.mul_count",
    "blocks.Rotator.__mul__": "blocks.mul_count",
    "dirac.plane_wave_modes": "dirac.eigh_calls",
    "dirac.pair_system_matrix": "dirac.eigh_calls",
}
# wrapped callable -> hook(tracer, args, kwargs, result) for counts read
# from the arguments or the result
COUNT_HOOKS = {
    "current.current_divergence": _count_mode_pairs,
    "harness.run_suite": _count_cases,
    "harness.fd_apply_D": _count_fd,
    "harness.fd_apply_D_conj": _count_fd,
}

COUNT_METRICS = (
    "quaternion.new_count",
    "quaternion.mul_count",
    "blocks.mul_count",
    "current.mode_pairs",
    "dirac.eigh_calls",
    "harness.case_count",
    "harness.fd_points",
    "harness.fd_bytes_computed",
)


class _Probe:
    """Empty stand-in for a ``Quat``, for timing the wrapper alone."""

    def __init__(self, a, b):
        pass

    def __mul__(self, other):
        return None


class Tracer:
    """Spans, counts and per-layer self time for one traced pass."""

    def __init__(self, record: bool = True):
        self.record = record
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.name_calls: Counter = Counter()  # per wrapped callable
        self.child_calls: Counter = Counter()  # child spans, per parent layer
        self.self_s: defaultdict = defaultdict(float)  # per layer, uncorrected
        self.counts: Counter = Counter()  # counts taken by the hooks
        self.fd_s = 0.0
        # per calibration batch: wrapper cost of one call, inside its own
        # span and outside it; and the wall time spent calibrating
        self._inside: list[float] = []
        self._outside: list[float] = []
        self.calibration_s = 0.0
        self.case_names: list[list[str]] = []
        # open spans: [layer, start, child seconds, span index or -1]
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------

    def _enter(self, layer: str, name: str, keep: bool) -> list:
        start = time.perf_counter()
        index = -1
        if keep and self.record:
            parent = -1
            for frame in reversed(self._stack):
                if frame[3] >= 0:
                    parent = frame[3]
                    break
            index = len(self.spans)
            self.spans.append([name, start, None, parent])
        frame = [layer, start, 0.0, index]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> float:
        end = time.perf_counter()
        self._stack.pop()
        duration = end - frame[1]
        self.self_s[frame[0]] += duration - frame[2]
        if self._stack:
            parent = self._stack[-1]
            parent[2] += duration
            self.child_calls[parent[0]] += 1
        if frame[3] >= 0:
            self.spans[frame[3]][2] = end
        return duration

    @contextlib.contextmanager
    def span(self, name: str, layer: str = "bench"):
        """One of the benchmark's own spans, such as a set-up or an op."""
        frame = self._enter(layer, name, True)
        try:
            yield
        finally:
            self._exit(frame)

    # -- installation -----------------------------------------------------

    def _wrapper(self, fn, layer: str, name: str):
        hook = COUNT_HOOKS.get(name)
        keep = layer not in AGGREGATE_ONLY
        is_fd = name in _FD_FUNCTIONS
        tracer = self

        def traced(*args, **kwargs):
            frame = tracer._enter(layer, name, keep)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = tracer._exit(frame)
            tracer.name_calls[name] += 1
            if is_fd:
                tracer.fd_s += duration
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, package) -> None:
        """Wrap the public callables of every layer module of ``package``."""
        prefix = package.__name__ + "."
        modules = [package] + [
            mod
            for key, mod in sorted(sys.modules.items())
            if key.startswith(prefix) and mod is not None
        ]
        seen: set = set()
        for layer in LAYERS:
            module = sys.modules[prefix + layer]
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(value):
                    wrapped = self._wrapper(value, layer, "%s.%s" % (layer, attr))
                    for other in modules:
                        for alias, held in list(vars(other).items()):
                            if held is value:
                                self._patch(other, alias, wrapped)
                elif inspect.isclass(value) and not issubclass(value, BaseException):
                    self._install_class(value, layer, module.__name__, seen)

    def _install_class(self, cls, layer: str, module_name: str, seen: set) -> None:
        # inherited methods are wrapped once, on the class that defines them
        for klass in cls.__mro__:
            if klass.__module__ != module_name or klass in seen:
                continue
            seen.add(klass)
            for attr, value in list(vars(klass).items()):
                if not inspect.isfunction(value):
                    continue
                if attr.startswith("_") and attr not in _PUBLIC_DUNDERS:
                    continue
                name = "%s.%s.%s" % (layer, klass.__name__, attr)
                self._patch(klass, attr, self._wrapper(value, layer, name))

    def uninstall(self) -> None:
        """Restore every attribute that ``install`` replaced."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def calibrate(self, rounds: int = 1000) -> None:
        """Time one batch of empty wrapped calls, as children of a span.

        A round constructs a ``_Probe`` and multiplies it, as the hot
        ``Quat`` and block calls do, so it makes two wrapped calls.  The
        batch runs on a scratch tracer, so it may run between the ops of a
        traced pass; batches spread over the pass see the machine at the
        speed the pass saw it.  Per call, the inside cost is the self time
        of the empty call's span (the empty methods' own time is nil), and
        the outside cost is what the call adds to the parent's self time
        over a plain call of the empty method.
        """
        begin = time.perf_counter()
        probe = Tracer(record=False)
        wrapped = type("WrappedProbe", (_Probe,), {
            "__init__": probe._wrapper(_Probe.__init__, "probe", "probe.init"),
            "__mul__": probe._wrapper(_Probe.__mul__, "probe", "probe.mul"),
        })
        start = time.perf_counter()
        for _ in range(rounds):
            _Probe(1.0, 2.0) * 3.0
        plain = time.perf_counter() - start
        with probe.span("calibrate", "parent"):
            for _ in range(rounds):
                wrapped(1.0, 2.0) * 3.0
        calls = 2 * rounds
        self._inside.append(probe.self_s["probe"] / calls)
        self._outside.append((probe.self_s["parent"] - plain) / calls)
        self.calibration_s += time.perf_counter() - begin

    @property
    def inside_s(self) -> float:
        return statistics.median(self._inside) if self._inside else 0.0

    @property
    def outside_s(self) -> float:
        return statistics.median(self._outside) if self._outside else 0.0

    # -- results ----------------------------------------------------------

    def layer_calls(self, layer: str) -> int:
        prefix = layer + "."
        return sum(n for name, n in self.name_calls.items() if name.startswith(prefix))

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit).

        Self times have the calibrated wrapper cost taken out; they can read
        a little below 0 for a layer whose own work is below the error of the
        calibration.
        """
        out: dict[str, tuple[float, str]] = {}
        for layer in LAYERS:
            calls = self.layer_calls(layer)
            wrapper_s = self.inside_s * calls + self.outside_s * self.child_calls[layer]
            out[layer + ".calls"] = (calls, "count")
            out[layer + ".self_s"] = (self.self_s[layer] - wrapper_s, "s")
        counts = Counter(self.counts)
        for name, metric in CALL_COUNTERS.items():
            counts[metric] += self.name_calls[name]
        for name in COUNT_METRICS:
            out[name] = (counts[name], "B" if name.endswith("_bytes_computed") else "count")
        out["harness.fd_s"] = (self.fd_s, "s")
        out["trace.per_call_s"] = (self.inside_s + self.outside_s, "s")
        return out
