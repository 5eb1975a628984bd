"""Calculus on the equation of flat connections in its special coordinates.

The equation lives in the chart x_i, v^a, v_I^{a,A} where v_I^{a,A} is the
coordinate function D_{v^A} D_I (v^a).  The two derivations that generate
everything are

* D_{v^b} (:func:`fc_vertical`) -- raises the fiber multi-index A;
* D_i     (:func:`fc_total`)    -- the connection total derivative, whose
  action on symbols with nonempty A is forced by the commutation identity
  [D_i, D_{v^b}] = - sum_g v_i^{g,b} D_{v^g}.

On top of them: the vertical complex and its differential :func:`dfc` on
``jets.Cochain``, symmetry reconstruction and recovery (the test
:func:`is_symmetry` reports through ``reports.check``, reading its verdict
from the components of d_fc(phi) it prints: pass when each is 0), the
symmetry S_f of a 0-cochain with its prolongation to all special
coordinates, and the induced bracket on 0-cochains.  The chart is itself
the vertical complex, the case phi = identity of ``jets``: base directions
1..n, fibers 1..m, F_i = D_i on one symbol, memoized by the chart
(:meth:`FcChart.f_symbol`), and twist D_{v^a}(v_i^b) = v_i^{b,a}.  Each
derivation (D_{v^b}, D_i, S_f + V_f) is given by its values on symbols and
applied through the one Leibniz kernel :meth:`Expr.derive`.  A coordinate
connection v_i^a(x, v) is a flat representation (``flatrep.connection``),
whose residuals :func:`flatness_residual` lists.

Input is validated once, at the public entries (:func:`fc_total`,
:func:`fc_vertical`, a :class:`Cochain` built on or moved to the chart, the
expression of :meth:`Symmetry.apply`, the targets of
:func:`prolong_symmetry` and the symbols of an explicit ansatz in
:func:`recover_f`), by :meth:`FcChart.check_symbol`, the chart's own judge
as on every ``jets.Chart``, which also judges the input of
``flatrep.pullback``.  Everything past them works on expressions the chart
built itself, through the unchecked kernels :meth:`FcChart.f_symbol` (and
:meth:`FcChart.f_apply` over it) and ``_fc_vertical``.  Each memo is owned
by an immutable ``expr.Frozen`` record: the chart holds D_i and D_{v^b} on
symbols, the fiber-multi-index reductions of :func:`default_recover_ansatz`
and the slots and packed D_i(s) of its solves (and builds its twist), a
cochain its differential, and a :class:`Symmetry` the coefficients
S_I^{a,A} for as long as its caller keeps it (one call, inside the library).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from .expr import (
    KIND_BASEFIBER, KIND_FC, KIND_INDEP, KIND_PARAM, Expr, Frozen, ONE, Symbol, ZERO,
    fc, positive, render, v, x,
)
from .jets import Chart, Cochain, apply_f, cochain_preimage
from .linsolve import AnsatzSpec
from .reports import Report, check

if TYPE_CHECKING:
    from .flatrep import FlatRepSpec

__all__ = [
    "FcChart", "Cochain", "cochain0", "cochain1",
    "fc_vertical", "fc_total", "flatness_residual", "dfc",
    "symmetry_from_f", "is_symmetry", "recover_f", "default_recover_ansatz",
    "Symmetry", "prolong_symmetry", "bracket0", "symmetry_action",
]


class FcChart(Chart):
    """Chart dimensions: n base directions (``ndirs``), m fiber directions;
    the chart is also the vertical complex that its cochains live on.

    Frozen, because its memos depend on m: D_i and D_{v^b} on symbols, the
    fiber-multi-index reductions and the packing memo, which only
    ``jets.cochain_preimage`` fills.  It compares by identity: two charts
    of one size are two sets of memos.
    """

    __slots__ = ("n", "m", "base_dirs", "fiber_dirs", "twist", "_total_memo", "_vertical_memo",
                 "_reduction_memo", "_pack_memo", "ndirs")

    def __init__(self, n: int, m: int):
        n, m = positive(n, "n"), positive(m, "m")
        base, fibers = tuple(range(1, n + 1)), tuple(range(1, m + 1))
        # D_{v^a}(v_i^b) = v_i^{b,a}, keyed (i, a) as pairs (b, value).
        twist = {(i, a): tuple((b, Expr.wrap(fc(b, (i,), (a,)))) for b in fibers)
                 for i in base for a in fibers}
        self._put(n=n, m=m, ndirs=n, base_dirs=base, fiber_dirs=fibers, twist=twist,
                  _total_memo={}, _vertical_memo={}, _reduction_memo={}, _pack_memo={})

    def check_symbol(self, s: Symbol) -> None:
        k = s.kind
        if k == KIND_INDEP:
            if s.index > self.n:
                raise ValueError("independent %s outside chart" % render(s))
        elif k == KIND_BASEFIBER:
            if s.index > self.m:
                raise ValueError("fiber coordinate %s outside chart" % render(s))
        elif k == KIND_FC:
            if (
                s.index > self.m
                or any(i > self.n for i in s.ii)
                or any(a > self.m for a in s.aa)
            ):
                raise ValueError("coordinate %s outside chart" % render(s))
        elif k != KIND_PARAM:
            raise ValueError("symbol %s is foreign to the flat-connection chart" % render(s))

    def check_fiber(self, b: int) -> None:
        if not 1 <= b <= self.m:
            raise ValueError("fiber index %d out of range 1..%d" % (b, self.m))

    def check_component(self, dirs: Tuple[int, ...], a: int, e: Expr) -> Expr:
        """The component e dx_I (x) D_{v^a} of a cochain, validated."""
        e = self.check_expr(e)
        self.check_fiber(a)
        for i in dirs:
            self.check_direction(i)
        return e

    def f_symbol(self, i: int, s: Symbol) -> Expr:
        """D_i s for one chart symbol s, unchecked and memoized on the chart:
        F_i of the identity representation on one symbol."""
        return _total_symbol(self, i, s)

    def f_apply(self, i: int, f: Expr) -> Expr:
        """D_i f, unchecked: F_i of the identity representation."""
        return apply_f(self, i, f)


def _vertical_symbol(chart: FcChart, beta: int, s: Symbol) -> Expr:
    """D_{v^beta} on a single chart symbol."""
    k = s.kind
    if k == KIND_BASEFIBER:
        return ONE if s.index == beta else ZERO
    if k != KIND_FC:
        return ZERO  # independents and parameters
    got = chart._vertical_memo.get((s, beta))
    if got is None:
        got = chart._vertical_memo[(s, beta)] = Expr.wrap(fc(s.index, s.ii, s.aa + (beta,)))
    return got


def _fc_vertical(chart: FcChart, beta: int, f: Expr) -> Expr:
    return f.derive(lambda s: _vertical_symbol(chart, beta, s))


def fc_vertical(chart: FcChart, beta: int, f: Expr) -> Expr:
    """The derivation D_{v^beta} in special coordinates."""
    chart.check_fiber(beta)
    return _fc_vertical(chart, beta, chart.check_expr(f))


def _total_symbol(chart: FcChart, i: int, s: Symbol) -> Expr:
    """D_i on a single chart symbol, memoized on the chart.

    The recursion peels the first element of A; the answer does not depend
    on which element goes first (well-definedness is property-tested
    against ``helpers.total_symbol_peel_last``).
    """
    k = s.kind
    if k == KIND_INDEP:
        return ONE if s.index == i else ZERO
    if k == KIND_PARAM:
        return ZERO
    got = chart._total_memo.get((s, i))
    if got is not None:
        return got
    if k == KIND_BASEFIBER:
        out = Expr.wrap(fc(s.index, (i,), ()))
    elif not s.aa:
        out = Expr.wrap(fc(s.index, s.ii + (i,), ()))
    else:
        beta, rest = s.aa[0], s.aa[1:]
        out = _fc_vertical(chart, beta, _total_symbol(chart, i, fc(s.index, s.ii, rest)))
        for gamma in range(1, chart.m + 1):
            out = out - fc(gamma, (i,), (beta,)) * fc(s.index, s.ii, tuple(sorted(rest + (gamma,))))
    chart._total_memo[(s, i)] = out
    return out


def fc_total(chart: FcChart, i: int, f: Expr) -> Expr:
    """The total derivative D_i = D_{x_i} + sum_b v_i^b D_{v^b} on the equation."""
    chart.check_direction(i)
    return chart.f_apply(i, chart.check_expr(f))


def flatness_residual(spec: FlatRepSpec) -> List[Expr]:
    """``spec.flatness_residuals`` as a list, e.g. of a coordinate connection."""
    return list(spec.flatness_residuals)


def cochain0(chart: FcChart, comps: Sequence[Expr]) -> Cochain:
    comps = tuple(comps)
    if len(comps) != chart.m:
        raise ValueError("expected %d components, got %d" % (chart.m, len(comps)))
    return Cochain(chart, 0, {((), a): e for a, e in enumerate(comps, 1)})


def cochain1(chart: FcChart, data: Mapping[Tuple[Tuple[int, ...], int], Expr]) -> Cochain:
    return Cochain(chart, 1, data)


def dfc(c: Cochain) -> Cochain:
    """The differential of the vertical complex on the equation,
    d(f dx_I (x) D_{v^a}) = sum_i dx_i ^ dx_I (x) [D_i, f D_{v^a}], which
    the cochain computes once and holds."""
    return c.d


def symmetry_from_f(chart: FcChart, f: Cochain) -> Cochain:
    """Generating section of the symmetry determined by the 0-cochain f:
    phi_i^a = D_i(f^a) - sum_b v_i^{a,b} f^b.  Always a 1-cocycle."""
    if f.degree != 0:
        raise ValueError("expected a degree-0 cochain")
    return f.on(chart).d


def is_symmetry(chart: FcChart, phi: Cochain) -> Report:
    """A 1-cochain is a symmetry generating section iff it is d_fc-closed."""
    if phi.degree != 1:
        raise ValueError("expected a degree-1 cochain")
    image = phi.on(chart).d
    return check("is-symmetry-fce", [render(e) for _, e in sorted(image.items())] or ["0"])


def _sub_multisets(t: Tuple[int, ...]) -> Set[Tuple[int, ...]]:
    out: Set[Tuple[int, ...]] = {()}
    for e in t:
        out |= {tuple(sorted(s + (e,))) for s in out}
    return out


def _reductions(chart: FcChart, s: Symbol) -> Tuple[Symbol, ...]:
    """The fc symbols v_I^{a,A'} for every sub-multiset A' of A, of the fc
    symbol s = v_I^{a,A}; memoized on the chart."""
    got = chart._reduction_memo.get(s)
    if got is None:
        got = chart._reduction_memo[s] = tuple(
            fc(s.index, s.ii, aa) for aa in _sub_multisets(s.aa))
    return got


def default_recover_ansatz(chart: FcChart, phi: Cochain) -> AnsatzSpec:
    """Default bounded ansatz for recovering f from its symmetry.

    The pool holds x_i, v^a, the parameters and special coordinates present
    in phi, and the fiber-multi-index reductions of the latter (dfc raises
    degrees, base and fiber indices, so the preimage lives below phi);
    the degree bound is deg(phi), which exceeds deg(f) by one for the
    multiplication term of the differential.  Exhausting the spec-level
    bound deg(phi)+1 over every coordinate within |I|, |A|+1 would be
    combinatorially explosive; verdicts are bound-relative either way and
    an explicit AnsatzSpec overrides the default.
    """
    degree = 0
    seen: Dict[Symbol, None] = {}
    for _, e in phi.items():
        degree = max(degree, e.total_degree())
        seen.update(e.symbols())
    pool: Set[Symbol] = {s for s in seen if s.kind == KIND_PARAM}
    pool.update(x(i) for i in range(1, chart.n + 1))
    pool.update(v(a) for a in range(1, chart.m + 1))
    for s in seen:
        if s.kind == KIND_FC:
            pool.update(_reductions(chart, s))
    return AnsatzSpec(symbols=tuple(pool), degree=degree)


def recover_f(chart: FcChart, phi: Cochain, ansatz: Optional[AnsatzSpec] = None) -> Optional[Cochain]:
    """Invert symmetry_from_f within a bounded ansatz.

    Returns the unique degree-0 cochain f with symmetry_from_f(f) = phi, or
    None when no solution exists inside the ansatz (bounded-no; not a proof
    of non-existence).  Rejects phi that is not a cocycle.

    Without an explicit ansatz, the default pool is tried at total degree
    deg(phi) - 1 first (the differential raises the degree by one, so that
    is where f generically lives) and at deg(phi) on a miss.
    """
    if phi.degree != 1:
        raise ValueError("expected a degree-1 cochain")
    phi = phi.on(chart)
    if not phi.d.is_zero():
        raise ValueError("input is not d_fc-closed; it is not a symmetry")
    if ansatz is None:
        base = default_recover_ansatz(chart, phi)
        tries = [AnsatzSpec(base.symbols, base.degree - 1), base] if base.degree else [base]
    else:
        for s in ansatz.symbols:
            chart.check_symbol(s)
        tries = [ansatz]
    for ans in tries:
        f = cochain_preimage(chart, phi, ans)
        if f is not None:
            return f
    return None


class Symmetry(Frozen):
    """The symmetry S_f of a 0-cochain f moved onto ``chart``, with phi = d f;
    immutable, because it holds the memo of the coefficients S_I^{a,A}."""

    __slots__ = ("chart", "f", "phi", "_coefficients")

    def __init__(self, chart: FcChart, f: Cochain):
        if f.degree != 0:
            raise ValueError("expected a degree-0 cochain")
        f = f.on(chart)
        self._put(chart=chart, f=f, phi=f.d, _coefficients={})

    def apply(self, e: Expr) -> Expr:
        """The full field S_f + V_f on a function of the chart."""
        return self.chart.check_expr(e).derive(self._image)

    def _coefficient(self, s: Symbol) -> Expr:
        """S_I^{a,A} = D_{v^b} S_I^{a,A'}, with b the last element of A and A'
        the rest; on A empty, S_{Ii}^a = D_i S_I^a + sum_b v_I^{a,b} phi_i^b."""
        got = self._coefficients.get(s)
        if got is None:
            chart, phi, alpha, ii = self.chart, self.phi, s.index, s.ii
            if s.aa:
                got = _fc_vertical(chart, s.aa[-1], self._coefficient(fc(alpha, ii, s.aa[:-1])))
            elif len(ii) == 1:
                got = phi.component(ii, alpha)
            else:
                head, i = ii[:-1], ii[-1]
                got = chart.f_apply(i, self._coefficient(fc(alpha, head, ())))
                for beta in range(1, chart.m + 1):
                    got = got + fc(alpha, head, (beta,)) * phi.component((i,), beta)
            self._coefficients[s] = got
        return got

    def _image(self, s: Symbol) -> Expr:
        """S_f + V_f on one chart symbol: V_f = sum_b f^b D_{v^b} moves v^a and
        raises the fiber multi-index A, S_f moves the |I| >= 1 coordinates."""
        img = self._coefficient(s) if s.kind == KIND_FC else ZERO
        for beta, comp in enumerate(self.f.data, start=1):
            if not comp.is_zero():
                img = img + comp * _vertical_symbol(self.chart, beta, s)
        return img


def prolong_symmetry(chart: FcChart, f: Cochain, targets: Iterable[Symbol]) -> Dict[Symbol, Expr]:
    """Coefficients of the symmetry S_f on the requested special coordinates."""
    targets = list(targets)
    for s in targets:
        if s.kind != KIND_FC:
            raise ValueError("symmetry coefficients exist only on v_I^{a,A} with |I| >= 1")
        chart.check_symbol(s)
    symmetry = Symmetry(chart, f)
    return {s: symmetry._coefficient(s) for s in targets}


def symmetry_action(chart: FcChart, f: Cochain, e: Expr) -> Expr:
    """Action of the full field S_f + V_f on a function of the chart."""
    return Symmetry(chart, f).apply(e)


def bracket0(chart: FcChart, f: Cochain, g: Cochain) -> Cochain:
    """The bracket on 0-cochains induced by commutation of symmetries:
    {f,g}^a = (S_f + V_f)(g^a) - (S_g + V_g)(f^a)."""
    sf, sg = Symmetry(chart, f), Symmetry(chart, g)
    comps = tuple(ga.derive(sf._image) - fa.derive(sg._image)
                  for fa, ga in zip(sf.f.data, sg.f.data))
    return Cochain._built(chart, 0, comps)
