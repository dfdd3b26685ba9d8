"""Per-layer spans, installed from the benchmark by wrapping public functions.

Each wrapped function F of module M gets a call count and, unless it is
counted only, a self time: its span's duration minus the time covered by
the spans of wrapped functions it called.  A function bound elsewhere by
`from ... import` is replaced in every moyalquot namespace that holds it, so
calls through `moyalquot.rational.poly_gcd` are seen as well as calls through
`moyalquot.polynomial.poly_gcd`.  Methods are replaced on their class, under
every name that refers to them (`__mul__` and `__rmul__` alike).
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter, defaultdict
from time import perf_counter

# (module, qualified name in it, metric name, counted only)
TARGETS = (
    ("gaussian", "GaussianRational.__mul__", "mul", True),
    ("gaussian", "GaussianRational.__add__", "add", True),
    ("polynomial", "Polynomial.__mul__", "mul", False),
    ("polynomial", "poly_gcd", "poly_gcd", False),
    ("polynomial", "poly_try_divexact", "poly_try_divexact", False),
    ("rational", "rf_normalize", "rf_normalize", False),
    ("rational", "RationalFunction.derivative", "derivative", False),
    ("rational", "RationalFunction.substitute", "substitute", False),
    ("rational", "RationalFunction.__mul__", "mul", False),
    ("rational", "RationalFunction.__add__", "add", False),
    ("moyal", "moyal_star", "moyal_star", False),
    ("moyal", "poisson_bracket", "poisson_bracket", False),
    ("geometry", "pushforward_even_pair", "pushforward_even_pair", False),
    ("atlas", "transport", "transport", False),
    ("atlas", "star_on_K", "star_on_K", False),
    ("quot", "product_star", "product_star", False),
    ("quot", "symmetrize", "symmetrize", False),
    ("quot", "is_invariant", "is_invariant", False),
    ("expr", "parse_expr", "parse_expr", False),
    ("expr", "lower_expr", "lower_expr", False),
    ("suites", "run_suite", "run_suite", False),
    ("cli", "run", "run", False),
)


def metric_names():
    """Every per-layer metric the traced run reports, with its unit."""
    out = []
    for module, _, name, counted_only in TARGETS:
        out.append((f"{module}.{name}.calls", "count"))
        if not counted_only:
            out.append((f"{module}.{name}.self_ms", "ms"))
    return out


class Tracer:
    """Call counts and self times; spans are recorded only while `active`."""

    def __init__(self):
        self.active = False
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self._children = [0.0]  # time covered by child spans, per open span

    def _counted(self, name, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.active:
                calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _spanned(self, name, fn):
        calls, self_s, children = self.calls, self.self_s, self._children

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            calls[name] += 1
            children.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self_s[name] += elapsed - children.pop()
                children[-1] += elapsed

        return wrapper

    def install(self):
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if n == "moyalquot" or n.startswith("moyalquot.")]
        for module, qualname, name, counted_only in TARGETS:
            mod = importlib.import_module(f"moyalquot.{module}")
            key = f"{module}.{name}"
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(mod, cls_name)
                original = cls.__dict__[attr]
                owners = [cls]
            else:
                original = getattr(mod, qualname)
                owners = namespaces
            wrapper = (self._counted if counted_only else self._spanned)(key, original)
            for owner in owners:
                for attr, value in list(vars(owner).items()):
                    if value is original:
                        setattr(owner, attr, wrapper)

    def metrics(self):
        out = {}
        for metric, unit in metric_names():
            key, kind = metric.rsplit(".", 1)
            value = self.calls[key] if kind == "calls" else self.self_s[key] * 1000.0
            out[metric] = {"value": value, "unit": unit}
        return out
