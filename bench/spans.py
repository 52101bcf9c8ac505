"""Span tracer for one benchmark request, installed from outside fanqec.

`install()` wraps the public functions of the six fanqec modules and the
arithmetic methods of `Poly`, and rebinds every module attribute (and every
`cli._FAMILIES` entry) that still points at an original, because `roots`,
`qec` and `cli` import names directly.  Each wrapped call is a span.  A span's
self time is its duration minus the durations of the spans it called, so the
self times of one request sum exactly (integer nanoseconds) to the duration
of its root span, `cli.main`.

Spans are aggregated by name while they close; no per-call record is kept,
because the identity battery alone makes millions of calls.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter

MODULES = ("polynomial", "chebyshev", "roots", "graphs", "qec", "cli")

# Span names of functions grouped into one layer metric.  Every other public
# function of the six modules gets "<module>.<function>".
GROUPS = {
    "chebyshev": dict.fromkeys(
        ("cheb_u", "cheb_t", "cheb_v", "cheb_w", "partial_e", "partial_o",
         "s_poly", "phi"), "chebyshev.build")
    | dict.fromkeys(
        ("u_value", "s_value", "partial_e_value", "partial_o_value",
         "phi_value"), "chebyshev.float_eval"),
    "graphs": {"from_edge_list": "graphs.parse", "fan": "graphs.build",
               "path": "graphs.build", "join": "graphs.build",
               "single": "graphs.build"},
    "qec": {"qec_numeric": "qec.numeric", "helmert_basis": "qec.helmert",
            "qec_fan": "qec.fan", "jacobi_eigenvalues": "qec.jacobi"},
    "cli": {"build_parser": "cli.main", "entry": "cli.main"},
}

POLY_METHODS = {
    "__mul__": "polynomial.mul", "__rmul__": "polynomial.mul",
    "__add__": "polynomial.addsub", "__radd__": "polynomial.addsub",
    "__sub__": "polynomial.addsub", "__rsub__": "polynomial.addsub",
    "__neg__": "polynomial.addsub",
    "exact_div": "polynomial.exact_div", "sign_at": "polynomial.sign_at",
    "evaluate": "polynomial.evaluate", "evaluate_float": "polynomial.evaluate",
}


def _max_bits(poly) -> int:
    return max((abs(c).bit_length() for c in poly.coeffs), default=0)


class Tracer:
    """Span stack plus per-name call counts, self times and work counters."""

    def __init__(self):
        self.stack: list[tuple[str, list[int]]] = []
        self.self_ns: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.root_ns = 0
        self.max_coeff_bits = 0
        self._bits: dict[int, tuple[object, int]] = {}
        self._lru: list = []

    def wrap(self, name, fn, before=None, after=None):
        """Callable that runs fn inside a span called name.

        before(args) runs before the span opens, while stack[-1] is still the
        caller; after(frame, result) runs once it closed, frame[1] holding
        what callees counted into it.
        """
        stack, self_ns, calls = self.stack, self.self_ns, self.calls
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            frame = [0, 0]  # child ns, steps counted by callees
            stack.append((name, frame))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self_ns[name] += elapsed - frame[0]
                calls[name] += 1
                if stack:
                    stack[-1][1][0] += elapsed
                else:
                    self.root_ns += elapsed
            if after is not None:
                after(frame, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- counters measured where the work happens ----------------------------

    def _poly_bits(self, poly) -> int:
        # Results of the family builders are cached objects, so their ids are
        # stable; holding the object keeps its id from being reused.
        hit = self._bits.get(id(poly))
        if hit is None or hit[0] is not poly:
            hit = (poly, _max_bits(poly))
            self._bits[id(poly)] = hit
        return hit[1]

    def _count_mul(self, args):
        a, b = args[0].coeffs, args[1]
        nonzero_a = len(a) - a.count(0)
        self.counts["polynomial.mul.coeff_products"] += (
            len(a) if isinstance(b, int) else nonzero_a * len(b.coeffs))

    def _count_sign_at(self, args):
        poly = args[0]
        self.counts["polynomial.sign_at.coeff_bits"] += (
            max(poly.degree, 0) * self._poly_bits(poly))
        if any(name.startswith("roots.") for name, _ in self.stack):
            self.counts["roots.sign_queries"] += 1
        if self.stack and self.stack[-1][0] == "roots.bisect":
            self.stack[-1][1][1] += 1

    def _after_bisect(self, frame, _result):
        self.counts["roots.bisect.steps"] += frame[1]
        if frame[1] == 0:
            self.counts["roots.bisect.zero_step_calls"] += 1

    def _after_build(self, _frame, result):
        self.max_coeff_bits = max(self.max_coeff_bits, self._poly_bits(result))

    def _count_distance(self, args):
        self.counts["graphs.distance_matrix.cells"] += args[0].n_vertices ** 2

    def _count_jacobi(self, args):
        self.counts["qec.jacobi.dim3"] += len(args[0]) ** 3

    def _hooks(self, name):
        return {
            "polynomial.mul": (self._count_mul, None),
            "polynomial.sign_at": (self._count_sign_at, None),
            "roots.bisect": (None, self._after_bisect),
            "chebyshev.build": (None, self._after_build),
            "graphs.distance_matrix": (self._count_distance, None),
            "qec.jacobi": (self._count_jacobi, None),
        }.get(name, (None, None))

    def report(self) -> dict:
        """Aggregates of every span closed so far, JSON-ready."""
        cache = Counter()
        for fn in self._lru:
            info = fn.cache_info()
            cache["hits"] += info.hits
            cache["misses"] += info.misses
        return {
            "root_ns": self.root_ns,
            "self_ns": dict(self.self_ns),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "cache_hits": cache["hits"],
            "cache_misses": cache["misses"],
            "max_coeff_bits": self.max_coeff_bits,
        }


def _public_functions(module):
    for attr, value in vars(module).items():
        if (not attr.startswith("_") and callable(value)
                and not isinstance(value, type)
                and getattr(value, "__module__", None) == module.__name__):
            yield attr, value


def _rebind(namespace: dict, wrappers: dict[int, tuple[object, object]]) -> None:
    def swap(value):
        hit = wrappers.get(id(value))
        return hit[1] if hit is not None and hit[0] is value else value

    for attr, value in list(namespace.items()):
        if attr.startswith("__"):
            continue
        namespace[attr] = swap(value)
        if isinstance(value, dict):  # e.g. cli._FAMILIES: name -> (builder, n)
            for key, entry in list(value.items()):
                if isinstance(entry, tuple):
                    value[key] = tuple(swap(x) for x in entry)


def install() -> Tracer:
    """Wrap fanqec in place and return the tracer that collects its spans."""
    tracer = Tracer()
    modules = {m: importlib.import_module(f"fanqec.{m}") for m in MODULES}
    tracer._lru = [v for v in vars(modules["chebyshev"]).values()
                   if hasattr(v, "cache_info")]

    poly = modules["polynomial"].Poly
    for method, name in POLY_METHODS.items():
        setattr(poly, method, tracer.wrap(name, getattr(poly, method),
                                          *tracer._hooks(name)))

    wrappers: dict[int, tuple[object, object]] = {}
    for short, module in modules.items():
        groups = GROUPS.get(short, {})
        for attr, fn in _public_functions(module):
            name = groups.get(attr, f"{short}.{attr}")
            wrappers[id(fn)] = (fn, tracer.wrap(name, fn, *tracer._hooks(name)))
    for module in (importlib.import_module("fanqec"), *modules.values()):
        _rebind(vars(module), wrappers)
    return tracer
