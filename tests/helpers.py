"""Seeded random generators shared by the property tests, and a spy on the
ansatz solver."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from flatconn.expr import KIND_FC, ZERO, Expr, const, fc, jet, v, x
from flatconn import jets, linsolve
from flatconn.jets import d_sigma, sort_with_sign


def rand_expr(rng: random.Random, symbols, degree=2, terms=3, span=3) -> Expr:
    """Random polynomial: ``terms`` monomials of total degree <= ``degree``."""
    out = const(0)
    for _ in range(terms):
        mono = const(rng.randint(-span, span))
        for _ in range(rng.randint(0, degree)):
            mono = mono * rng.choice(symbols)
        out = out + mono
    return out


def partial_reference(f: Expr, s) -> Expr:
    """df/ds term by term, one monomial at a time; independent of
    Expr.derive, which Expr.partial is built on."""
    out = {}
    for mono, c in f.terms.items():
        for k, (sym, p) in enumerate(mono):
            if sym is s:
                m = mono[:k] + (((sym, p - 1),) if p > 1 else ()) + mono[k + 1:]
                out[m] = out.get(m, 0) + c * p
                break
    return Expr({m: c for m, c in out.items() if c})


def leibniz_reference(f: Expr, image) -> Expr:
    """The derivation with values ``image(s)`` on symbols, by its definition
    sum_s image(s) * df/ds; the reference that Expr.derive is tested against."""
    out = ZERO
    for s in f.symbols():
        out = out + image(s) * partial_reference(f, s)
    return out


# A naive polynomial kernel on {Symbol: power} dicts, sorted by Symbol.key:
# the references for the terms dicts of Expr's ring operations and Leibniz
# rule, monomial tuple order included.  No Expr operation runs in them.

def _naive_add_into(out: dict, powers: dict, c) -> None:
    m = tuple(sorted(powers.items(), key=lambda sp: sp[0].key))
    out[m] = out.get(m, 0) + c


def _naive_canonical(out: dict) -> dict:
    return {m: c for m, c in out.items() if c}


def naive_sum(a: Expr, b: Expr, sign=1) -> dict:
    """The terms of a + sign * b."""
    out = {}
    for e, k in ((a, 1), (b, sign)):
        for mono, c in e.terms.items():
            _naive_add_into(out, dict(mono), k * c)
    return _naive_canonical(out)


def naive_product(a: Expr, b: Expr) -> dict:
    """The terms of a * b, one pair of terms at a time."""
    out = {}
    for ma, ca in a.terms.items():
        for mb, cb in b.terms.items():
            powers = dict(ma)
            for s, p in mb:
                powers[s] = powers.get(s, 0) + p
            _naive_add_into(out, powers, ca * cb)
    return _naive_canonical(out)


def naive_derive(f: Expr, image) -> dict:
    """The terms of sum_s image(s) * df/ds, one term of f, one factor of
    it and one term of image(s) at a time."""
    out = {}
    for mono, c in f.terms.items():
        for s, p in mono:
            rest = dict(mono)
            if p == 1:
                del rest[s]
            else:
                rest[s] = p - 1
            for mi, ci in image(s).terms.items():
                powers = dict(rest)
                for t, q in mi:
                    powers[t] = powers.get(t, 0) + q
                _naive_add_into(out, powers, c * p * ci)
    return _naive_canonical(out)


# Hand-written formulas of the representation differentials, one loop per
# index; the references that jets.cochain_differential is tested against.

def du_vertical_reference(spec, vert):
    """d_U(V), component ((i,), d) = F_i(b^d) - sum_c b^c D_c(a_i^d)."""
    out = {}
    for i in spec.base_dirs:
        for d in spec.fiber_dirs:
            val = spec.f_apply(i, Expr.wrap(vert.get(d, ZERO)))
            for c in spec.fiber_dirs:
                b = Expr.wrap(vert.get(c, ZERO))
                if not b.is_zero():
                    val = val - b * d_sigma(spec.scheme, (c,), spec.a(i, d))
            if not val.is_zero():
                out[((i,), d)] = val
    return out


def du_cochain1_reference(spec, c):
    """d_U on the 1-cochain {((i,), d): c_i^d}, component ((i, j), d) for i < j:
    F_i(c_j^d) - F_j(c_i^d) - sum_e c_j^e D_e(a_i^d) + sum_e c_i^e D_e(a_j^d)."""
    out = {}
    for ai, i in enumerate(spec.base_dirs):
        for j in spec.base_dirs[ai + 1:]:
            for d in spec.fiber_dirs:
                val = spec.f_apply(i, Expr.wrap(c.get(((j,), d), ZERO)))
                val = val - spec.f_apply(j, Expr.wrap(c.get(((i,), d), ZERO)))
                for e in spec.fiber_dirs:
                    cj = Expr.wrap(c.get(((j,), e), ZERO))
                    ci = Expr.wrap(c.get(((i,), e), ZERO))
                    if not cj.is_zero():
                        val = val - cj * d_sigma(spec.scheme, (e,), spec.a(i, d))
                    if not ci.is_zero():
                        val = val + ci * d_sigma(spec.scheme, (e,), spec.a(j, d))
                if not val.is_zero():
                    out[((i, j), d)] = val
    return out


def dfc_reference(c, total):
    """Data of dfc(c): sum_i (D_i f) dx_i ^ dx_I (x) D_{v^a}
    - sum_{i,b} v_i^{b,a} f dx_i ^ dx_I (x) D_{v^b}, with ``total(i, f)`` = D_i f."""
    directions, fibers = c.complex.base_dirs, c.complex.fiber_dirs
    out = {}

    def add(key, e):
        acc = out.get(key, ZERO) + e
        if acc.is_zero():
            out.pop(key, None)
        else:
            out[key] = acc

    for (dirs, alpha), f in c.items():
        for i in directions:
            skey, sign = sort_with_sign((i,) + dirs)
            if sign == 0:
                continue
            lead = total(i, f)
            add((skey, alpha), lead if sign > 0 else -lead)
            for beta in fibers:
                tail = fc(beta, (i,), (alpha,)) * f
                add((skey, beta), -tail if sign > 0 else tail)
    return out


def prolong_reference(chart, f, targets):
    """S_I^{a,A} on each target v_I^{a,A} by its definition: the base
    coefficient S_I^{a} of the symmetry of f, then D_{v^b} for each b of A
    in order; the reference that fce.prolong_symmetry is tested against."""
    from flatconn import fce

    symmetry = fce.Symmetry(chart, f)
    out = {}
    for s in targets:
        e = symmetry._coefficient(fc(s.index, s.ii, ()))
        for beta in s.aa:
            e = fce.fc_vertical(chart, beta, e)
        out[s] = e
    return out


def total_symbol_peel_last(chart, i, s):
    """D_i on a chart symbol by the recursion that removes the last element
    of A first, without a memo; fce's recursion removes the first, and
    test_fce checks that both give the same answer."""
    from flatconn import fce

    if s.kind != KIND_FC or not s.aa:
        return fce.fc_total(chart, i, Expr.wrap(s))
    beta, rest = s.aa[-1], s.aa[:-1]
    out = fce.fc_vertical(chart, beta, total_symbol_peel_last(chart, i, fc(s.index, s.ii, rest)))
    for gamma in range(1, chart.m + 1):
        out = out - fc(gamma, (i,), (beta,)) * fc(s.index, s.ii, tuple(sorted(rest + (gamma,))))
    return out


def fc_symbols(n, m, max_i, max_a):
    """Every special coordinate v_I^{a,A} with 1 <= |I| <= max_i, |A| <= max_a."""
    out = []
    dirs = tuple(range(1, n + 1))
    fibs = tuple(range(1, m + 1))
    for alpha in fibs:
        for k in range(1, max_i + 1):
            for ii in itertools.combinations_with_replacement(dirs, k):
                for l in range(0, max_a + 1):
                    for aa in itertools.combinations_with_replacement(fibs, l):
                        out.append(fc(alpha, ii, aa))
    return out


def fc_pool(n, m, max_i=1, max_a=1):
    return [x(i) for i in range(1, n + 1)] + [v(a) for a in range(1, m + 1)] + \
        fc_symbols(n, m, max_i, max_a)


def spatial_jets(m, max_order):
    return [jet(a, (1,) * k) for a in range(1, m + 1) for k in range(max_order + 1)]


def spy_solver(monkeypatch) -> list:
    """Record every ansatz solve of ``jets.cochain_preimage`` as a dict:
    ``basis``, the full basis size (monomials times fibers) that the ansatz
    gives; ``unknowns``, the columns of the blocks that hold the target's
    rows, which is all the solver sees; ``rows`` and ``nnz`` handed to
    ``solve_linear``; ``left``, the (rows, columns) that reach elimination
    after pin propagation, or None when propagation alone decides; and
    ``none``, whether the answer is bounded-no."""
    log = []
    unknowns, solve, linear, eliminate = (
        linsolve.AnsatzSpec.unknowns, jets.solve_by_superposition,
        linsolve.solve_linear, linsolve._eliminate)

    def spy_unknowns(ansatz, fibers):
        basis = unknowns(ansatz, fibers)
        log.append({"basis": basis, "left": None})
        return basis

    def spy_solve(images, target):
        rec = log[-1]
        rec["unknowns"] = len(images)
        got = solve(images, target)
        rec["none"] = got is None
        return got

    def spy_linear(rows):
        log[-1].update(rows=len(rows), nnz=sum(len(c) for c, _ in rows))
        return linear(rows)

    def spy_eliminate(rows):
        log[-1]["left"] = (len(rows), len({j for c, _ in rows for j in c}))
        return eliminate(rows)

    monkeypatch.setattr(linsolve.AnsatzSpec, "unknowns", spy_unknowns)
    monkeypatch.setattr(jets, "solve_by_superposition", spy_solve)
    monkeypatch.setattr(linsolve, "solve_linear", spy_linear)
    monkeypatch.setattr(linsolve, "_eliminate", spy_eliminate)
    return log
