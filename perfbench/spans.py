"""Spans around the public functions of each genrank module, for the traced run.

A wrapper is installed at every name a caller looks the function up by: each
loaded `genrank.*` module attribute that *is* the original function object is
replaced (so `rank` as imported into `genrank.symbolic` is wrapped as well as
`genrank.linalg.rank`), and methods are replaced on their class.  `restore`
puts every original back, so untraced runs and correctness checks execute
unwrapped code.

A span has a name, a start, an end and a parent (the span open below it on
the stack).  Spans are folded into per-layer totals when they close instead
of being kept: a rho-auto pass opens about a million of them.  A layer's self
time is its span's duration minus the durations of its child spans.
"""

from __future__ import annotations

import sys
from collections import Counter
from time import perf_counter

# Layer name -> (module, attribute) of every function that forms the layer.
FUNCTION_LAYERS = {
    "jsonio.load": [("genrank.jsonio", n) for n in
                    ("load_json", "load_family", "load_graph", "load_r2", "load_rk")],
    "engine.insert_subspace": [("genrank.engine", "insert_subspace")],
    "sfm.minimize_exhaustive": [("genrank.sfm", "minimize_exhaustive")],
    "sfm.minimize_polynomial": [("genrank.sfm", "minimize_polynomial")],
    "linalg.rref": [("genrank.linalg", "rref"), ("genrank.linalg", "rank")],
    "symbolic.family": [("genrank.symbolic", "r2_family"), ("genrank.symbolic", "rk_family")],
    "symbolic.randomized_rank": [("genrank.symbolic", "randomized_rank")],
    "rigidity.rigidity_family": [("genrank.rigidity", "rigidity_family")],
    "rigidity.rigidity_report": [("genrank.rigidity", "rigidity_report")],
}
METHOD_LAYERS = {
    "engine.eval_mask": ("genrank.engine", "InsertionOracle", "eval_mask"),
    "partitions.span_rank": ("genrank.partitions", "SpanRankCache", "rank"),
}

# Layers whose self time is reported (with a share of traced solve time).
TIMED_LAYERS = ("cli.main", "jsonio.load", "engine.insert_subspace", "engine.eval_mask",
                "sfm.minimize_exhaustive", "sfm.minimize_polynomial", "partitions.span_rank",
                "linalg.rref_q", "linalg.rref_fp", "symbolic.family",
                "symbolic.randomized_rank", "rigidity.rigidity_family",
                "rigidity.rigidity_report")
# Layers whose call count is reported.
COUNTED_LAYERS = ("jsonio.load", "engine.insert_subspace", "engine.eval_mask",
                  "sfm.minimize_exhaustive", "sfm.minimize_polynomial", "partitions.span_rank",
                  "symbolic.family", "symbolic.randomized_rank")


class Tracer:
    """Span stack plus per-layer totals; counts are exact, times are wall time."""

    def __init__(self):
        self.stack: list[list] = []
        self.self_s: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.hat_sizes: list[int] = []
        self._masks: set[int] = set()
        self._patched: list[tuple[object, str, object]] = []

    def span(self, name: str, fn):
        stack = self.stack
        self_s = self.self_s
        calls = self.calls

        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                self_s[name] += elapsed - frame[1]
                calls[name] += 1
                if stack:
                    stack[-1][1] += elapsed

        return wrapper

    # -- layers that record more than a span -------------------------------

    def _rref_layer(self, fn):
        """rank and rref as one layer; rank's inner rref call is not a new span."""
        q_span = self.span("linalg.rref_q", fn)
        fp_span = self.span("linalg.rref_fp", fn)
        stack = self.stack
        counts = self.counts

        def wrapper(m):
            if stack and stack[-1][0] in ("linalg.rref_q", "linalg.rref_fp"):
                return fn(m)
            counts["linalg.rref.rows"] += m.nrows
            return (q_span if m.field.p is None else fp_span)(m)

        return wrapper

    def _insert_layer(self, fn):
        """Distinct oracle masks are counted per insertion (one oracle each)."""
        inner = self.span("engine.insert_subspace", fn)

        def wrapper(*args, **kwargs):
            self._masks = set()
            try:
                return inner(*args, **kwargs)
            finally:
                self.counts["engine.eval_mask.distinct"] += len(self._masks)

        return wrapper

    def _minimize_layer(self, name: str, fn):
        inner = self.span(name, fn)

        def wrapper(oracle):
            self.hat_sizes.append(oracle.n)
            return inner(oracle)

        return wrapper

    def _eval_mask_layer(self, fn):
        inner = self.span("engine.eval_mask", fn)

        def wrapper(oracle, mask):
            self._masks.add(mask)
            return inner(oracle, mask)

        return wrapper

    # -- installation ------------------------------------------------------

    def _layer_wrapper(self, layer: str, fn):
        if layer == "linalg.rref":
            return self._rref_layer(fn)
        if layer == "engine.insert_subspace":
            return self._insert_layer(fn)
        if layer.startswith("sfm.minimize_"):
            return self._minimize_layer(layer, fn)
        if layer == "engine.eval_mask":
            return self._eval_mask_layer(fn)
        return self.span(layer, fn)

    def install(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "genrank" or name.startswith("genrank.")]
        for layer, targets in FUNCTION_LAYERS.items():
            found = False
            for module_name, attr in targets:
                original = getattr(sys.modules[module_name], attr, None)
                if original is None:
                    continue
                wrapper = self._layer_wrapper(layer, original)
                for module in modules:
                    for name, value in list(vars(module).items()):
                        if value is original:
                            self._patched.append((module, name, value))
                            setattr(module, name, wrapper)
                            found = True
            if not found:
                self.restore()
                raise RuntimeError(f"no entry point of layer {layer} was found to trace")
        for layer, (module_name, cls_name, attr) in METHOD_LAYERS.items():
            cls = getattr(sys.modules[module_name], cls_name)
            original = cls.__dict__[attr]
            self._patched.append((cls, attr, original))
            setattr(cls, attr, self._layer_wrapper(layer, original))

    def restore(self):
        for owner, name, value in reversed(self._patched):
            setattr(owner, name, value)
        self._patched.clear()

    # -- results -----------------------------------------------------------

    def exact_counts(self) -> dict[str, float]:
        """Every count that must repeat exactly on the same inputs."""
        out = {f"{layer}.calls": self.calls[layer] for layer in COUNTED_LAYERS}
        out["linalg.rref.calls"] = self.calls["linalg.rref_q"] + self.calls["linalg.rref_fp"]
        out["linalg.rref.rows"] = self.counts["linalg.rref.rows"]
        distinct = self.counts["engine.eval_mask.distinct"]
        out["engine.eval_mask.distinct"] = distinct
        hats = self.hat_sizes
        out["engine.hat_size.mean"] = sum(hats) / len(hats) if hats else 0.0
        out["engine.hat_size.max"] = max(hats, default=0)
        minimizations = out["sfm.minimize_exhaustive.calls"] + out["sfm.minimize_polynomial.calls"]
        out["sfm.evals_per_minimize"] = distinct / minimizations if minimizations else 0.0
        evals = out["engine.eval_mask.calls"]
        out["engine.eval_mask.reuse_ratio"] = 1 - distinct / evals if evals else 0.0
        return out

    def reset(self):
        self.self_s.clear()
        self.calls.clear()
        self.counts.clear()
        self.hat_sizes.clear()
