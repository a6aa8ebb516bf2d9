"""Per-layer spans for the traced run.

The library has no tracing of its own, so the traced run wraps each layer's
entry points from outside: every module attribute (in ``resrings`` and in
this benchmark) that is one of the functions below is replaced by a wrapper
that records a span, and restored afterwards.  Spans live in memory and are
written out when the run ends.  The untraced run installs nothing.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

# (module, function, span name, attributes recorded from (args, result))
FUNCTIONS = (
    ("resrings.configs", "evaluation_matrix", "configs.evaluation_matrix", None),
    ("resrings.configs", "general_position_check", "configs.general_position", None),
    ("resrings.resolution", "build_resolution", "resolution.build", None),
    ("resrings.resolution", "validate", "resolution.validate", None),
    ("resrings.resolution", "integerize", "resolution.integerize", None),
    ("resrings.symcore", "nullspace", "symcore.nullspace", lambda a, r: {"entries": a[0].rows * a[0].cols}),
    ("resrings._modnull", "modular_nullspace", "modnull", lambda a, r: {"uncertified": r is None}),
    ("resrings._modnull", "_rref_mod_p", "modnull.prime", None),
    ("resrings.brackets", "omega", "brackets.omega", None),
    ("resrings.brackets", "bracket", "brackets.bracket", None),
    ("resrings.brackets", "brace", "brackets.brace", None),
    ("resrings.ringalg", "structure_constants", "ringalg.structure_constants", None),
    ("resrings.ringalg", "verify_table", "ringalg.verify_table", None),
    ("resrings.ringalg", "integral_orders", "ringalg.integral_orders", None),
    ("resrings.ringalg", "discriminant", "ringalg.discriminant", None),
    ("resrings.ringalg", "table1_check", "ringalg.table1", None),
)
# (module, class, method, span name)
METHODS = (("resrings.symcore", "QMatrix", "rref", "symcore.rref"),)
# (module, class, method, counter name): counted only, too frequent for spans
COUNTED = (("resrings.symcore", "Polynomial", "__hash__", "symcore.poly_hash"),)

PREFIXES = ("resrings", "perfbench")

# per-layer metric -> (kind, span or counter name); kinds are explained in layer_metrics
PER_LAYER = {
    "configs.evaluation_matrix_s": ("total", "configs.evaluation_matrix"),
    "configs.general_position_s": ("total", "configs.general_position"),
    "resolution.build_self_s": ("self", "resolution.build"),
    "symcore.nullspace_calls": ("calls", "symcore.nullspace"),
    "symcore.nullspace_entries": ("attr_sum", "symcore.nullspace", "entries"),
    "symcore.nullspace_s": ("total", "symcore.nullspace"),
    "resolution.validate_s": ("total", "resolution.validate"),
    "modnull.s": ("total", "modnull"),
    "modnull.primes": ("calls", "modnull.prime"),
    "modnull.uncertified": ("attr_sum", "modnull", "uncertified"),
    "symcore.rref_fallback_s": ("fallback", "symcore.rref"),
    "brackets.omega_s": ("total", "brackets.omega"),
    "brackets.bracket_calls": ("calls", "brackets.bracket"),
    "brackets.bracket_s": ("total", "brackets.bracket"),
    "brackets.brace_calls": ("calls", "brackets.brace"),
    "brackets.brace_s": ("total", "brackets.brace"),
    "resolution.integerize_s": ("total", "resolution.integerize"),
    "ringalg.structure_constants_s": ("total", "ringalg.structure_constants"),
    "ringalg.verify_table_s": ("total", "ringalg.verify_table"),
    "ringalg.integral_orders_self_s": ("self", "ringalg.integral_orders"),
    "ringalg.discriminant_s": ("total", "ringalg.discriminant"),
    "ringalg.table1_self_s": ("self", "ringalg.table1"),
    "symcore.poly_hash_calls": ("counter", "symcore.poly_hash"),
}
COUNT_METRICS = tuple(k for k, v in PER_LAYER.items() if v[0] in ("calls", "attr_sum", "counter"))


class Collector:
    """Spans of the current op as [name, parent index, start, end, attrs]."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.archive: list[dict] = []

    def begin_op(self) -> None:
        self.spans, self.stack, self.counters = [], [], defaultdict(int)

    def end_op(self, op_index: int) -> dict[str, float]:
        """Per-layer values of the op just finished; its spans go to the archive."""
        for idx, (name, parent, start, end, attrs) in enumerate(self.spans):
            self.archive.append({"op": op_index, "id": idx, "parent": parent, "name": name,
                                 "start": start, "end": end, "attrs": attrs})
        return layer_metrics(self.spans, self.counters)

    def wrap(self, fn, name, attrs_fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self.stack
            rec = [name, stack[-1] if stack else None, 0.0, 0.0, None]
            stack.append(len(self.spans))
            self.spans.append(rec)
            rec[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = perf_counter()
                stack.pop()
            if attrs_fn is not None:
                rec[4] = attrs_fn(args, result)
            return result

        return wrapper

    def count(self, fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counters[name] += 1
            return fn(*args, **kwargs)

        return wrapper


def layer_metrics(spans: list[list], counters: dict[str, int]) -> dict[str, float]:
    """``total``: summed span time; ``self``: span time minus its direct
    children; ``calls``: number of spans; ``attr_sum``: summed attribute;
    ``counter``: counted calls; ``fallback``: rref time inside a nullspace
    whose modular attempt was not certified."""
    child_time = defaultdict(float)
    for name, parent, start, end, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    fell_back = {s[1] for s in spans if s[0] == "modnull" and s[4]["uncertified"]}
    out = {}
    for metric, (kind, name, *attr) in PER_LAYER.items():
        mine = [(i, s) for i, s in enumerate(spans) if s[0] == name]
        if kind == "total":
            value = sum(s[3] - s[2] for _, s in mine)
        elif kind == "self":
            value = sum(s[3] - s[2] - child_time[i] for i, s in mine)
        elif kind == "calls":
            value = len(mine)
        elif kind == "attr_sum":
            value = sum(int(s[4][attr[0]]) for _, s in mine)
        elif kind == "counter":
            value = counters.get(name, 0)
        else:
            value = sum(s[3] - s[2] for _, s in mine if s[1] in fell_back)
        out[metric] = value
    return out


def _modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and name.split(".")[0] in PREFIXES]


@contextmanager
def instrumented(collector: Collector):
    """Install span wrappers on every reference to the traced entry points."""
    undo = []
    modules = _modules()
    for mod_name, attr, span, attrs_fn in FUNCTIONS:
        original = getattr(importlib.import_module(mod_name), attr)
        wrapper = collector.wrap(original, span, attrs_fn)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    undo.append((mod, key, original))
    for mod_name, cls_name, meth, span in METHODS:
        cls = getattr(importlib.import_module(mod_name), cls_name)
        original = cls.__dict__[meth]
        setattr(cls, meth, collector.wrap(original, span, None))
        undo.append((cls, meth, original))
    for mod_name, cls_name, meth, counter in COUNTED:
        cls = getattr(importlib.import_module(mod_name), cls_name)
        original = cls.__dict__[meth]
        setattr(cls, meth, collector.count(original, counter))
        undo.append((cls, meth, original))
    try:
        yield collector
    finally:
        for owner, key, original in reversed(undo):
            setattr(owner, key, original)
