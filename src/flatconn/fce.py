"""Calculus on the equation of flat connections in its special coordinates.

The equation lives in the chart x_i, v^a, v_I^{a,A} where v_I^{a,A} is the
coordinate function D_{v^A} D_I (v^a).  The two derivations that generate
everything are

* D_{v^b} (:func:`fc_vertical`) -- raises the fiber multi-index A;
* D_i     (:func:`fc_total`)    -- the connection total derivative, whose
  action on symbols with nonempty A is forced by the commutation identity
  [D_i, D_{v^b}] = - sum_g v_i^{g,b} D_{v^g}.

On top of them: the flatness residuals of a coordinate connection, the
cochain complex differential :func:`dfc` (the case phi = identity of the one
cochain differential ``jets.cochain_differential``, with F_i = D_i and twist
D_{v^a}(v_i^b) = v_i^{b,a}), symmetry reconstruction and recovery,
prolongation of symmetries to all special coordinates, and the induced
bracket on 0-cochains.  Each derivation (D_{v^b}, D_i, the horizontal lift
in the flatness residual, S_f + V_f) is given by its values on symbols and
applied through the one Leibniz kernel :meth:`Expr.derive`.

Input is validated once, at the public entries (:func:`fc_total`,
:func:`fc_vertical`, :class:`Cochain`, the expression of
:func:`symmetry_action`, the targets of :func:`prolong_symmetry` and the
symbols of an explicit ansatz in :func:`recover_f`).  Everything past them
works on expressions the chart built itself, through the unchecked kernels
``_fc_total`` and ``_fc_vertical``.  The chart owns the memos of D_i and
D_{v^b} on symbols; a prolongation owns the memo of its coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from .expr import (
    KIND_BASEFIBER, KIND_FC, KIND_INDEP, KIND_PARAM, Expr, ONE, Symbol, ZERO,
    fc, render, v, x,
)
from .jets import (
    DirectionError, add_term, cochain_differential, cochain_preimage, sort_with_sign)
from .linsolve import AnsatzSpec
from .reports import FAIL, PASS, Report

__all__ = [
    "FcChart", "ConnectionSpec", "Cochain", "cochain0", "cochain1",
    "fc_vertical", "fc_total", "flatness_residual", "dfc",
    "symmetry_from_f", "is_symmetry", "recover_f", "default_recover_ansatz",
    "prolong_symmetry", "bracket0", "symmetry_action",
]


@dataclass(frozen=True, eq=False)
class FcChart:
    """Chart dimensions: n base directions, m fiber directions.

    Frozen, because the memos of D_i and D_{v^b} on symbols depend on m.
    """

    n: int
    m: int
    _total_memo: Dict[Tuple[Symbol, int], Expr] = field(
        default_factory=dict, init=False, repr=False)
    _vertical_memo: Dict[Tuple[Symbol, int], Expr] = field(
        default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise ValueError("need n >= 1 and m >= 1")

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

    def check_expr(self, e: Expr) -> Expr:
        e = Expr.wrap(e)
        for s in sorted(e.symbols()):
            self.check_symbol(s)
        return e

    def check_direction(self, i: int) -> None:
        if not 1 <= i <= self.n:
            raise DirectionError("direction %d out of range 1..%d" % (i, self.n))

    def check_fiber(self, b: int) -> None:
        if not 1 <= b <= self.m:
            raise ValueError("fiber index %d out of range 1..%d" % (b, self.m))

    @cached_property
    def twist(self) -> Dict[Tuple[int, int], Tuple[Tuple[int, Expr], ...]]:
        """D_{v^a}(v_i^b) = v_i^{b,a}, keyed (i, a) as pairs (b, value)."""
        fibers = range(1, self.m + 1)
        return {(i, a): tuple((b, Expr.wrap(fc(b, (i,), (a,)))) for b in fibers)
                for i in range(1, self.n + 1) for a in fibers}


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
    if k == KIND_BASEFIBER:
        return Expr.wrap(fc(s.index, (i,), ()))
    if not s.aa:
        return Expr.wrap(fc(s.index, s.ii + (i,), ()))
    got = chart._total_memo.get((s, i))
    if got is not None:
        return got
    beta, rest = s.aa[0], s.aa[1:]
    out = _fc_vertical(chart, beta, _total_symbol(chart, i, fc(s.index, s.ii, rest)))
    for gamma in range(1, chart.m + 1):
        out = out - fc(gamma, (i,), (beta,)) * fc(s.index, s.ii, tuple(sorted(rest + (gamma,))))
    chart._total_memo[(s, i)] = out
    return out


def _fc_total(chart: FcChart, i: int, f: Expr) -> Expr:
    return f.derive(lambda s: _total_symbol(chart, i, s))


def fc_total(chart: FcChart, i: int, f: Expr) -> Expr:
    """The total derivative D_i = D_{x_i} + sum_b v_i^b D_{v^b} on the equation."""
    chart.check_direction(i)
    return _fc_total(chart, i, chart.check_expr(f))


class ConnectionSpec:
    """A coordinate connection: nm functions v_i^a of (x, v) only."""

    def __init__(self, n: int, m: int, coeffs: Mapping[Tuple[int, int], Expr]):
        if n < 1 or m < 1:
            raise ValueError("need n >= 1 and m >= 1")
        self.n = n
        self.m = m
        self.coeffs: Dict[Tuple[int, int], Expr] = {}
        for (i, a), e in coeffs.items():
            if not (1 <= i <= n and 1 <= a <= m):
                raise ValueError("coefficient v_%d^%d outside the n=%d, m=%d chart" % (i, a, n, m))
            e = Expr.wrap(e)
            for s in sorted(e.symbols()):
                if s.kind in (KIND_INDEP, KIND_BASEFIBER):
                    if s.kind == KIND_INDEP and s.index > n:
                        raise ValueError("independent %s outside chart" % render(s))
                    if s.kind == KIND_BASEFIBER and s.index > m:
                        raise ValueError("fiber %s outside chart" % render(s))
                elif s.kind != KIND_PARAM:
                    raise ValueError(
                        "connection coefficients must depend on (x, v) only; got %s" % render(s)
                    )
            add_term(self.coeffs, (i, a), e)

    def coeff(self, i: int, a: int) -> Expr:
        return self.coeffs.get((i, a), ZERO)


def _horizontal_image(spec: ConnectionSpec, i: int):
    """d/dx_i + sum_b v_i^b d/dv^b on one symbol of the (x, v) chart."""
    values = {v(b): spec.coeff(i, b) for b in range(1, spec.m + 1)}
    values[x(i)] = ONE
    return lambda s: values.get(s, ZERO)


def flatness_residual(spec: ConnectionSpec) -> List[Expr]:
    """Residuals of the flatness system, ordered by (i < j, then a).

    residual = dv_j^a/dx_i + sum_b v_i^b dv_j^a/dv^b
             - dv_i^a/dx_j - sum_b v_j^b dv_i^a/dv^b.
    """
    horizontal = [_horizontal_image(spec, i) for i in range(1, spec.n + 1)]
    out = []
    for i in range(1, spec.n + 1):
        for j in range(i + 1, spec.n + 1):
            for a in range(1, spec.m + 1):
                vi, vj = spec.coeff(i, a), spec.coeff(j, a)
                out.append(vj.derive(horizontal[i - 1]) - vi.derive(horizontal[j - 1]))
    return out


class Cochain:
    """Element of V^q: degree 0 holds m functions, degree q >= 1 a map
    (sorted direction tuple, fiber index) -> coefficient."""

    def __init__(self, chart: FcChart, degree: int, data):
        self.chart = chart
        self.degree = degree
        if degree < 0:
            raise ValueError("negative degree")
        if degree == 0:
            comps = tuple(chart.check_expr(e) for e in data)
            if len(comps) != chart.m:
                raise ValueError("expected %d components, got %d" % (chart.m, len(comps)))
            self.data: Tuple[Expr, ...] = comps
        else:
            out: Dict[Tuple[Tuple[int, ...], int], Expr] = {}
            for (dirs, alpha), e in data.items():
                e = chart.check_expr(e)
                chart.check_fiber(alpha)
                if len(dirs) != degree:
                    raise ValueError("key %r does not match degree %d" % (dirs, degree))
                for i in dirs:
                    chart.check_direction(i)
                skey, sign = sort_with_sign(tuple(dirs))
                if sign != 0:
                    add_term(out, (skey, alpha), e, sign)
            self.data = out

    def component(self, dirs: Tuple[int, ...], alpha: int) -> Expr:
        if self.degree == 0:
            return self.data[alpha - 1]
        return self.data.get((tuple(dirs), alpha), ZERO)

    def items(self):
        if self.degree == 0:
            for alpha, e in enumerate(self.data, start=1):
                yield ((), alpha), e
        else:
            yield from self.data.items()

    def is_zero(self) -> bool:
        if self.degree == 0:
            return all(e.is_zero() for e in self.data)
        return not self.data

    def __eq__(self, other):
        return (
            isinstance(other, Cochain)
            and self.degree == other.degree
            and self.data == other.data
        )

    @classmethod
    def _built(cls, chart: FcChart, degree: int, data) -> "Cochain":
        """A cochain whose data the chart built itself, taken without checks."""
        c = cls.__new__(cls)
        c.chart, c.degree, c.data = chart, degree, data
        return c

    def __repr__(self):
        if self.degree == 0:
            return "(" + ", ".join(render(e) for e in self.data) + ")"
        bits = []
        for (dirs, alpha) in sorted(self.data):
            wedge = "^".join("dx%d" % i for i in dirs)
            bits.append("(%s) %s (x) D_v%d" % (render(self.data[(dirs, alpha)]), wedge, alpha))
        return " + ".join(bits) if bits else "0"


def _on(chart: FcChart, c: Cochain) -> Cochain:
    """``c`` itself when ``chart`` built it, else ``c`` checked against ``chart``."""
    return c if c.chart is chart else Cochain(chart, c.degree, c.data)


def cochain0(chart: FcChart, comps: Sequence[Expr]) -> Cochain:
    return Cochain(chart, 0, comps)


def cochain1(chart: FcChart, data: Mapping[Tuple[Tuple[int, ...], int], Expr]) -> Cochain:
    return Cochain(chart, 1, data)


def dfc(c: Cochain) -> Cochain:
    """The differential of the vertical complex on the equation.

    d(f dx_I (x) D_{v^a}) = sum_i dx_i ^ dx_I (x) [D_i, f D_{v^a}]
                          = sum_i (D_i f) dx_i ^ dx_I (x) D_{v^a}
                            - sum_{i,b} v_i^{b,a} f dx_i ^ dx_I (x) D_{v^b}.
    """
    chart = c.chart
    return Cochain._built(chart, c.degree + 1, cochain_differential(
        c.items(), range(1, chart.n + 1), lambda i, f: _fc_total(chart, i, f), chart.twist))


def symmetry_from_f(chart: FcChart, f: Cochain) -> Cochain:
    """Generating section of the symmetry determined by the 0-cochain f:
    phi_i^a = D_i(f^a) - sum_b v_i^{a,b} f^b.  Always a 1-cocycle."""
    if f.degree != 0:
        raise ValueError("expected a degree-0 cochain")
    return dfc(_on(chart, f))


def is_symmetry(chart: FcChart, phi: Cochain) -> Report:
    """A 1-cochain is a symmetry generating section iff it is d_fc-closed."""
    if phi.degree != 1:
        raise ValueError("expected a degree-1 cochain")
    image = dfc(_on(chart, phi))
    return Report(
        task="is-symmetry-fce",
        verdict=PASS if image.is_zero() else FAIL,
        residuals=[render(e) for _, e in sorted(image.items())] or ["0"],
    )


def _sub_multisets(t: Tuple[int, ...]) -> Set[Tuple[int, ...]]:
    out: Set[Tuple[int, ...]] = {()}
    for e in t:
        out |= {tuple(sorted(s + (e,))) for s in out}
    return out


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
    pool: Set[Symbol] = set()
    pool.update(x(i) for i in range(1, chart.n + 1))
    pool.update(v(a) for a in range(1, chart.m + 1))
    for _, e in phi.items():
        degree = max(degree, e.total_degree())
        for s in e.symbols():
            if s.kind == KIND_PARAM:
                pool.add(s)
            elif s.kind == KIND_FC:
                for aa in _sub_multisets(s.aa):
                    pool.add(fc(s.index, s.ii, aa))
    return AnsatzSpec(symbols=tuple(sorted(pool, key=lambda s: s.key)), degree=degree)


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
    phi = _on(chart, phi)
    if not dfc(phi).is_zero():
        raise ValueError("input is not d_fc-closed; it is not a symmetry")
    if ansatz is None:
        base = default_recover_ansatz(chart, phi)
        tries = [AnsatzSpec(base.symbols, d)
                 for d in range(max(0, base.degree - 1), base.degree + 1)]
    else:
        for s in ansatz.symbols:
            chart.check_symbol(s)
        tries = [ansatz]
    fibers = range(1, chart.m + 1)
    for ans in tries:
        f = cochain_preimage(range(1, chart.n + 1), fibers,
                             lambda i, e: _fc_total(chart, i, e), chart.twist, phi.data, ans)
        if f is not None:
            return cochain0(chart, list(f.values()))
    return None


class _Prolongation:
    """Coefficients S_I^{a,A} of the symmetry S_f on special coordinates,
    memoised per (I, a) and per symbol."""

    def __init__(self, chart: FcChart, f: Cochain):
        if f.degree != 0:
            raise ValueError("expected a degree-0 cochain")
        self.chart = chart
        self.f = _on(chart, f)
        self.phi = symmetry_from_f(chart, self.f)
        self._base: Dict[Tuple[Tuple[int, ...], int], Expr] = {}
        self._coefficient: Dict[Symbol, Expr] = {}

    def base(self, ii: Tuple[int, ...], alpha: int) -> Expr:
        """S_I^{a,empty} by the recursion S_{Ii} = D_i S_I + sum_b v_I^{a,b} phi_i^b."""
        got = self._base.get((ii, alpha))
        if got is not None:
            return got
        if len(ii) == 1:
            out = self.phi.component(ii, alpha)
        else:
            head, i = ii[:-1], ii[-1]
            out = _fc_total(self.chart, i, self.base(head, alpha))
            for beta in range(1, self.chart.m + 1):
                out = out + fc(alpha, head, (beta,)) * self.phi.component((i,), beta)
        self._base[(ii, alpha)] = out
        return out

    def coefficient(self, s: Symbol) -> Expr:
        """S_I^{a,A} on a chart symbol v_I^{a,A}, by S_I^{a,A} = D_{v^b} S_I^{a,A'}
        with b the last element of A and A' the rest."""
        got = self._coefficient.get(s)
        if got is None:
            if s.aa:
                inner = self.coefficient(fc(s.index, s.ii, s.aa[:-1]))
                got = _fc_vertical(self.chart, s.aa[-1], inner)
            else:
                got = self.base(s.ii, s.index)
            self._coefficient[s] = got
        return got


def prolong_symmetry(chart: FcChart, f: Cochain, targets: Iterable[Symbol]) -> Dict[Symbol, Expr]:
    """Coefficients of the symmetry S_f on the requested special coordinates."""
    targets = list(targets)
    for s in targets:
        if s.kind != KIND_FC:
            raise ValueError("symmetry coefficients exist only on v_I^{a,A} with |I| >= 1")
        chart.check_symbol(s)
    pro = _Prolongation(chart, f)
    return {s: pro.coefficient(s) for s in targets}


def _action_image(chart: FcChart, pro: _Prolongation):
    """S_f + V_f on one chart symbol, for the prolongation ``pro`` of f.

    V_f = sum_b f^b D_{v^b} moves both v^a and the higher coordinates (it
    raises the fiber multi-index), S_f moves only the |I| >= 1 coordinates.
    """

    def image(s: Symbol) -> Expr:
        img = pro.coefficient(s) if s.kind == KIND_FC else ZERO
        for beta, comp in enumerate(pro.f.data, start=1):
            if not comp.is_zero():
                img = img + comp * _vertical_symbol(chart, beta, s)
        return img

    return image


def symmetry_action(chart: FcChart, f: Cochain, e: Expr) -> Expr:
    """Action of the full field S_f + V_f on a function of the chart."""
    return chart.check_expr(e).derive(_action_image(chart, _Prolongation(chart, f)))


def bracket0(chart: FcChart, f: Cochain, g: Cochain) -> Cochain:
    """The bracket on 0-cochains induced by commutation of symmetries:
    {f,g}^a = (S_f + V_f)(g^a) - (S_g + V_g)(f^a)."""
    if f.degree != 0 or g.degree != 0:
        raise ValueError("bracket0 expects degree-0 cochains")
    act_f = _action_image(chart, _Prolongation(chart, f))
    act_g = _action_image(chart, _Prolongation(chart, g))
    comps = tuple(ga.derive(act_f) - fa.derive(act_g) for fa, ga in zip(f.data, g.data))
    return Cochain._built(chart, 0, comps)
