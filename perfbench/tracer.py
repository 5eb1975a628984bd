"""Spans around the calls into each flatconn layer, recorded from outside.

:meth:`Tracer.install` wraps the public functions listed in :data:`TARGETS`, in
every flatconn module namespace that bound them (``flatrep.total_derivative``
as well as ``jets.total_derivative``), and the ring operations of ``Expr``.
Each call becomes a span with a name, start, end and parent.  Self time is a
span's duration minus the part its child spans cover; because one thread
runs everything, child spans never overlap and the part they cover is the
sum of their durations.

``Expr`` operations run millions of times per batch, so they are aggregated
(calls and self time) rather than kept as individual spans; every other span
is kept in memory and written out by :meth:`Tracer.write` when the run ends.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict
from fractions import Fraction

# (module, attribute) -> span name.  "Class.method" attributes are wrapped on
# the class; plain functions are rebound wherever flatconn imported them.
TARGETS = {
    ("jets", "total_derivative"): "jets.total_derivative",
    ("jets", "d_sigma"): "jets.d_sigma",
    ("jets", "evolutionary_apply"): "jets.evolutionary_apply",
    ("jets", "is_symmetry_evolution"): "jets.is_symmetry_evolution",
    ("vforms", "Derivation.bracket"): "vforms.bracket",
    ("vforms", "Derivation.apply"): "vforms.apply",
    ("vforms", "VForm.nijenhuis"): "vforms.nijenhuis",
    ("fce", "fc_total"): "fce.fc_total",
    ("fce", "fc_vertical"): "fce.fc_vertical",
    ("fce", "dfc"): "fce.dfc",
    ("fce", "symmetry_action"): "fce.symmetry_action",
    ("fce", "bracket0"): "fce.bracket0",
    ("fce", "recover_f"): "fce.recover_f",
    ("fce", "flatness_residual"): "fce.flatness_residual",
    ("flatrep", "du_vertical"): "flatrep.du_vertical",
    ("flatrep", "du_cochain1"): "flatrep.du_cochain1",
    ("flatrep", "check_flat_rep"): "flatrep.check_flat_rep",
    ("flatrep", "exactness_test"): "flatrep.exactness_test",
    ("flatrep", "lift_symmetry"): "flatrep.lift_symmetry",
    ("flatrep", "infinitesimal_deformation"): "flatrep.infinitesimal_deformation",
    ("flatrep", "pullback"): "flatrep.pullback",
    ("linsolve", "AnsatzSpec.monomials"): "linsolve.monomials",
    ("linsolve", "solve_by_superposition"): "linsolve.solve_by_superposition",
    ("linsolve", "solve_linear"): "linsolve.solve_linear",
    ("kdv", "build_kdv"): "kdv.build_kdv",
    ("kdv", "miura_at"): "kdv.miura_at",
    ("sdym", "build_flatrep"): "sdym.build_flatrep",
    ("sdym", "SdymRewriter.normalize"): "sdym.normalize",
    ("sdym", "lambda_expand"): "sdym.lambda_expand",
    ("sdym", "verify_ugh"): "sdym.verify_ugh",
    ("problems", "parse_problem"): "problems.parse_problem",
    ("cli", "run"): "cli.run",
    ("reports", "emit_report"): "reports.emit_report",
}

# Expr attributes -> aggregated span name.
EXPR_METHODS = {
    "__mul__": "expr.mul", "__rmul__": "expr.mul",
    "__add__": "expr.add", "__radd__": "expr.add",
    "__sub__": "expr.sub", "__rsub__": "expr.sub",
    "__neg__": "expr.neg", "__pow__": "expr.pow",
    "partial": "expr.partial", "subs": "expr.subs", "render": "expr.render",
}

OP_SPAN = "bench.op"


class Tracer:
    """Span stack plus per-name aggregates; one per traced run."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.spans = []          # (id, parent id, name, start, end)
        self._stack = []         # [span id, child seconds]
        self._next_id = 0
        self._undo = []

    # ---- recording ----------------------------------------------------------
    def _enter(self):
        self._next_id += 1
        frame = [self._next_id, 0.0]
        self._stack.append(frame)
        return frame

    def _leave(self, name, frame, t0, t1, keep):
        self._stack.pop()
        dur = t1 - t0
        self.calls[name] += 1
        self.self_s[name] += dur - frame[1]
        if self._stack:
            self._stack[-1][1] += dur
            parent = self._stack[-1][0]
        else:
            parent = 0
        if keep:
            self.spans.append((frame[0], parent, name, t0, t1))

    def span(self, name, fn, keep=True):
        """``fn`` wrapped in a span called ``name``."""
        clock = time.perf_counter
        enter, leave = self._enter, self._leave

        def traced(*args, **kwargs):
            frame = enter()
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                leave(name, frame, t0, clock(), keep)

        return traced

    def _uncounted(self, seconds):
        """Charge bookkeeping done inside a parent span to the benchmark."""
        if self._stack:
            self._stack[-1][1] += seconds
        self.self_s["bench.count"] += seconds

    # ---- installation -------------------------------------------------------
    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every target; :meth:`uninstall` restores the originals."""
        for modname, _ in TARGETS:
            importlib.import_module("flatconn." + modname)
        mods = [m for n, m in sorted(sys.modules.items())
                if n == "flatconn" or n.startswith("flatconn.")]
        for (modname, attr), name in TARGETS.items():
            mod = sys.modules["flatconn." + modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                self._set(cls, meth, self.span(name, cls.__dict__[meth]))
                continue
            orig = getattr(mod, attr)
            wrapped = self._special(name, orig)
            for m in mods:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        self._set(m, key, wrapped)
        from flatconn.expr import Expr

        for attr, name in EXPR_METHODS.items():
            wrapped = self.span(name, Expr.__dict__[attr], keep=False)
            if name == "expr.mul":
                wrapped = self._count_products(wrapped)
            self._set(Expr, attr, wrapped)

    def uninstall(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def _special(self, name, fn):
        # Counting runs outside the function's own span and is charged to the
        # benchmark, so it inflates no layer's self time.
        if name == "linsolve.solve_linear":
            return self._count_rows(self.span(name, fn))
        if name == "linsolve.solve_by_superposition":
            return self._count_solve(self.span(name, fn))
        return self.span(name, fn)

    # ---- deterministic counts -----------------------------------------------
    def _count_products(self, mul):
        from flatconn.expr import Expr

        counts, clock = self.counts, time.perf_counter

        def counted(a, b):
            t0 = clock()
            if isinstance(b, Expr):
                nb = len(b.terms)
            elif isinstance(b, (int, Fraction)):
                nb = 1 if b else 0
            else:  # a Symbol
                nb = 1
            counts["expr.mul.term_products"] += len(a.terms) * nb
            self._uncounted(clock() - t0)
            return mul(a, b)

        return counted

    def _count_rows(self, solve_linear):
        counts, clock = self.counts, time.perf_counter

        def counted(rows):
            t0 = clock()
            counts["linsolve.rows"] += len(rows)
            counts["linsolve.nnz"] += sum(len(c) for c, _ in rows)
            counts["linsolve.trivial_rows"] += sum(
                1 for c, const in rows if len(c) == 1 and const == 0)
            self._uncounted(clock() - t0)
            return solve_linear(rows)

        return counted

    def _count_solve(self, solve):
        counts = self.counts

        def counted(images, target):
            counts["linsolve.solves"] += 1
            counts["linsolve.unknowns"] += len(images)
            got = solve(images, target)
            counts["linsolve.witness" if got is not None else "linsolve.bounded_no"] += 1
            return got

        return counted

    # ---- output -------------------------------------------------------------
    def write(self, path, origin):
        """One tab-separated line per kept span; times in microseconds from
        ``origin``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tstart_us\tend_us\n")
            for sid, parent, name, t0, t1 in self.spans:
                fh.write("%d\t%d\t%s\t%.1f\t%.1f\n"
                         % (sid, parent, name, (t0 - origin) * 1e6, (t1 - origin) * 1e6))
