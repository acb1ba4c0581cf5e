"""Counting and timing wrappers around colorlie's public functions, for the
traced run only.

Spans are kept in memory.  Each timed span records its caller (the
innermost timed span around it), so a layer's self time is its inclusive
time minus the time of the spans it called.  A function re-entered while
already on the stack is counted but timed only at its outermost call.
"""
from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

# (metric prefix, module, attribute path, kind); kind "s" is timed and
# counted, "calls" only counted.  GQ is counted per operator family.
TARGETS = [
    ("scalars.GQ.new", "colorlie.scalars", "GQ.__init__", "calls"),
    ("scalars.GQ.add", "colorlie.scalars", "GQ.__add__", "calls"),
    ("scalars.GQ.add", "colorlie.scalars", "GQ.__radd__", "calls"),
    ("scalars.GQ.mul", "colorlie.scalars", "GQ.__mul__", "calls"),
    ("scalars.GQ.mul", "colorlie.scalars", "GQ.__rmul__", "calls"),
    ("scalars.GQ.div", "colorlie.scalars", "GQ.__truediv__", "calls"),
    ("scalars.GQ.div", "colorlie.scalars", "GQ.__rtruediv__", "calls"),
    ("linalg.vec_axpy", "colorlie.linalg", "vec_axpy", "calls"),
    ("linalg.SMat.matvec", "colorlie.linalg", "SMat.matvec", "calls"),
    ("linalg.SMat.matmul", "colorlie.linalg", "SMat.__matmul__", "s"),
    ("linalg.SubspaceBasis.add", "colorlie.linalg", "SubspaceBasis.add", "s"),
    ("linalg.kernel_basis", "colorlie.linalg", "kernel_basis", "s"),
    ("linalg.invert", "colorlie.linalg", "invert", "s"),
    ("linalg.minimal_polynomial", "colorlie.linalg", "minimal_polynomial", "s"),
    ("linalg.gaussian_rational_roots", "colorlie.linalg", "gaussian_rational_roots", "s"),
    ("linalg.eigensplit", "colorlie.linalg", "eigensplit", "s"),
    ("algebra.from_matrices", "colorlie.algebra", "from_matrices", "s"),
    ("algebra.check_axioms", "colorlie.algebra", "check_axioms", "s"),
    ("algebra.killing_form", "colorlie.algebra", "killing_form", "s"),
    ("algebra.is_basic", "colorlie.algebra", "is_basic", "s"),
    ("roots.find_cartan", "colorlie.roots", "find_cartan", "s"),
    ("roots.root_decomposition", "colorlie.roots", "root_decomposition", "s"),
    ("roots.positive_and_simple", "colorlie.roots", "positive_and_simple", "s"),
    ("roots.enhanced_dynkin", "colorlie.roots", "enhanced_dynkin", "s"),
    ("roots.weyl_group", "colorlie.roots", "weyl_group", "s"),
    ("reps.tensor_product", "colorlie.reps", "tensor_product", "s"),
    ("reps.is_representation", "colorlie.reps", "is_representation", "s"),
    ("reps.casimir_matrix", "colorlie.reps", "casimir_matrix", "s"),
    ("reps.weight_decomposition", "colorlie.reps", "weight_decomposition", "s"),
    ("reps.decompose", "colorlie.reps", "decompose", "s"),
    ("reps.grading_synthesis", "colorlie.reps", "grading_synthesis", "s"),
    ("serialize.algebra_from_json", "colorlie.serialize", "algebra_from_json", "s"),
    ("serialize.root_system_report", "colorlie.serialize", "root_system_report", "s"),
]


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.incl = defaultdict(float)
        self.edges = defaultdict(float)  # (caller, callee) -> seconds
        self.stack = []
        self._patches = []

    def span(self, name, fn, *args, **kwargs):
        """Run fn as a timed span called name."""
        stack = self.stack
        self.calls[name] += 1
        if name in stack:
            return fn(*args, **kwargs)
        caller = stack[-1] if stack else None
        stack.append(name)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            stack.pop()
            self.incl[name] += dt
            self.edges[(caller, name)] += dt

    def _timed(self, name, fn):
        span = self.span

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return span(name, fn, *args, **kwargs)

        return wrapper

    def _counted(self, name, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        """Patch every binding of each target in the loaded colorlie modules."""
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "colorlie" or n.startswith("colorlie."))]
        for name, modname, path, kind in TARGETS:
            owner = sys.modules[modname]
            parts = path.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part)
            attr = parts[-1]
            orig = owner.__dict__[attr]
            wrapper = self._timed(name, orig) if kind == "s" else self._counted(name, orig)
            if isinstance(owner, type):
                self._patch(owner, attr, orig, wrapper)
            else:
                for mod in modules:
                    for key, val in list(vars(mod).items()):
                        if val is orig:
                            self._patch(mod, key, orig, wrapper)

    def _patch(self, owner, attr, orig, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def snapshot(self):
        return Counter(self.calls), dict(self.incl)

    def summary(self):
        """Per span name: calls, inclusive and self seconds, callers."""
        child = defaultdict(float)
        callers = defaultdict(dict)
        for (caller, callee), dt in self.edges.items():
            if caller is not None:
                child[caller] += dt
            callers[callee][caller or "<bench>"] = dt
        out = {}
        for name in sorted(set(self.calls) | set(self.incl)):
            entry = {"calls": self.calls[name]}
            if name in self.incl:
                entry["incl_s"] = self.incl[name]
                entry["self_s"] = self.incl[name] - child[name]
                entry["callers"] = callers[name]
            out[name] = entry
        return out
