"""Flat representations of differential equations.

A flat representation over a scheme whose directions split into base
directions x_1..x_{n'} and fiber directions (coverings contribute trivial
y-fibers, the self-dual Yang-Mills example also reclassifies two genuine
independents as fiber directions) is the family of fields

    F_i = D_{x_i} + sum_d a_i^d D_d,   i over base directions,

subject to [F_i, F_j] = 0, the package's one flatness formula.  A spec over
a trivial extension ``jets.Extended`` is built in one place,
:func:`covering_to_flatrep`, from flat keys (i, b) and a fiber count: a
covering of an equation, or, over ``jets.Base(n)``, a coordinate connection
(:func:`connection`, the jet-free case).  The self-dual Yang-Mills family
(``sdym.build_flatrep``) is the one spec whose split also moves genuine
directions to the fibers, so it states its split itself.  This module verifies
that condition, realizes the induced morphism onto the equation of flat
connections as a pullback of coordinates, differentiates parametric families
into deformation 1-cocycles, tests cocycles for exactness inside a bounded
ansatz, and lifts equation symmetries to the covering.

The spec, an ``expr.Frozen`` record, is itself its complex C_phi in the
sense of ``jets``: base and fiber directions, one F_i table per base
direction (``spec.f_tables``, each an ``expr.SymbolTable`` that computes
F_i(s) on the first read of s; :meth:`FlatRepSpec.f_apply` extends it to an
Expr), the twist D_d(a_i^b), set once as ``spec.twist``,
and :meth:`FlatRepSpec.check_component`, which judges a component by the
scheme's ``check_expr``, as the coefficients are judged.  Its cochains,
deformation and symmetry cocycles and exactness witnesses alike, are
``jets.Cochain``s on the spec, keyed ((i,), d) in degree 1, and d_U is
their differential (:func:`du_vertical` in degree 0, :func:`du_cochain1`
in degree 1).
"""

from __future__ import annotations

from fractions import Fraction
from types import MappingProxyType
from typing import Dict, Mapping, Optional, Sequence, Tuple

from .expr import (
    KIND_BASEFIBER, KIND_INDEP, KIND_JET, KIND_PARAM,
    Expr, Frozen, Symbol, SymbolTable, ZERO, fc, jet as jet_symbol, param, positive, render,
)
from .fce import FcChart
from .jets import (
    Base, Cochain, DerivScheme, Evolution, Extended, add_term, apply_f, cochain_preimage,
    evolutionary_apply, is_symmetry_evolution, total_derivative,
)
from .linsolve import AnsatzSpec
from .reports import Report, check

__all__ = [
    "FlatRepSpec", "AnsatzSpec", "check_flat_rep", "pullback",
    "infinitesimal_deformation", "exactness_test",
    "symmetry_cocycle", "lift_symmetry", "covering_to_flatrep", "connection",
    "du_vertical", "du_cochain1", "default_ansatz",
]


class FlatRepSpec(Frozen):
    """Declarative flat representation: scheme, direction split, coefficients.

    Frozen, with the split stored as tuples and read-only coefficients, so
    that what it caches cannot go stale: its flatness residuals and twist,
    its F_i tables ``f_tables`` (one per base direction, each filled on
    first read and refusing, through the scheme's judge, a symbol foreign
    to the scheme's chart without storing it) and its packing memo, empty
    until ``jets.cochain_preimage`` fills it.  An empty base or fiber
    split, and a coefficient foreign to the scheme's chart, are refused at
    construction, the latter by ``scheme.check_expr``, which also judges
    each cochain component.  It is also the complex its cochains live on,
    so it compares and hashes by identity: two specs with equal fields are
    two complexes with two memos.
    """

    __slots__ = ("scheme", "base_dirs", "fiber_dirs", "coeffs", "f_tables",
                 "_residuals", "_twist", "_pack_memo")

    def __init__(self, scheme: DerivScheme, base_dirs: Tuple[int, ...],
                 fiber_dirs: Tuple[int, ...],
                 coeffs: Mapping[Tuple[int, int], Expr] = MappingProxyType({})):
        base_dirs, fiber_dirs = tuple(base_dirs), tuple(fiber_dirs)
        positive(len(base_dirs), "the number of base directions")
        positive(len(fiber_dirs), "the number of fiber directions")
        seen = set(base_dirs) | set(fiber_dirs)
        if len(seen) != len(base_dirs) + len(fiber_dirs):
            raise ValueError("base and fiber directions overlap")
        for d in seen:
            scheme.check_direction(d)
        cleaned = {}
        for (i, d), e in coeffs.items():
            if i not in base_dirs or d not in fiber_dirs:
                raise _off_split(i, d)
            add_term(cleaned, (i, d), scheme.check_expr(e))
        tables = {i: _F(scheme, i, tuple((d, cleaned[(i, d)]) for d in fiber_dirs
                                         if (i, d) in cleaned))
                  for i in base_dirs}
        self._put(scheme=scheme, base_dirs=base_dirs, fiber_dirs=fiber_dirs,
                  coeffs=MappingProxyType(cleaned), f_tables=MappingProxyType(tables),
                  _residuals=None, _twist=None, _pack_memo={})

    def a(self, i: int, d: int) -> Expr:
        """The coefficient a_i^d; a key off the split is refused."""
        got = self.coeffs.get((i, d))
        if got is None:
            if i not in self.base_dirs or d not in self.fiber_dirs:
                raise _off_split(i, d)
            got = ZERO
        return got

    def f_apply(self, i: int, e: Expr) -> Expr:
        """F_i(e), F_i = D_{x_i} + sum_d a_i^d D_d, for a base direction i."""
        if i not in self.base_dirs:
            raise ValueError("F_%d: base directions are %r" % (i, self.base_dirs))
        return apply_f(self, i, Expr.wrap(e))

    def subs(self, bindings: Mapping[Symbol, Expr]) -> "FlatRepSpec":
        return FlatRepSpec(
            self.scheme,
            self.base_dirs,
            self.fiber_dirs,
            {key: e.subs(bindings) for key, e in self.coeffs.items()},
        )

    @property
    def flatness_residuals(self) -> Tuple[Expr, ...]:
        """Fiber components F_i(a_j^d) - F_j(a_i^d) of [F_i, F_j], for i < j
        and each fiber direction d, set once; [F_i, F_j] has no base component."""
        if self._residuals is None:
            self._put(_residuals=tuple(
                self.f_apply(i, self.a(j, d)) - self.f_apply(j, self.a(i, d))
                for k, i in enumerate(self.base_dirs) for j in self.base_dirs[k + 1:]
                for d in self.fiber_dirs))
        return self._residuals

    @property
    def is_flat(self) -> bool:
        return all(r.is_zero() for r in self.flatness_residuals)

    @property
    def twist(self) -> Dict[Tuple[int, int], Tuple[Tuple[int, Expr], ...]]:
        """D_d(a_i^b), keyed (i, d) as pairs (b, value); zero values dropped; set once."""
        if self._twist is None:
            out = {}
            for i in self.base_dirs:
                for d in self.fiber_dirs:
                    pairs = tuple(
                        (b, t) for b in self.fiber_dirs
                        if not (t := total_derivative(self.scheme, d, self.a(i, b))).is_zero())
                    if pairs:
                        out[(i, d)] = pairs
            self._put(_twist=out)
        return self._twist

    def check_component(self, dirs: Tuple[int, ...], d: int, e: Expr) -> Expr:
        """The component e dx_I (x) D_d of a cochain, refused off the split or
        foreign to the scheme's chart, by the rule that judges a coefficient."""
        if d not in self.fiber_dirs or any(i not in self.base_dirs for i in dirs):
            raise ValueError(
                "cochain component %r is off the split: base directions %r, "
                "fiber directions %r" % (dirs + (d,) if dirs else d,
                                         self.base_dirs, self.fiber_dirs))
        return self.scheme.check_expr(e)


def _off_split(i: int, d: int) -> ValueError:
    """The refusal of a coefficient key (i, d) off a spec's split."""
    return ValueError("coefficient a_%d^%d outside the declared split" % (i, d))


class _F(SymbolTable):
    """F_i(s) = D_i(s) + sum_d a_i^d D_d(s) on symbols of ``scheme``, which
    judges each one, over the pairs (d, a_i^d) with a nonzero coefficient."""

    __slots__ = ("scheme", "i", "coeffs")

    def __init__(self, scheme: DerivScheme, i: int, coeffs: Tuple[Tuple[int, Expr], ...]):
        self._put(scheme=scheme, i=i, coeffs=coeffs)

    def _rule(self, s: Symbol) -> Expr:
        derive = self.scheme.derive_symbol
        out = derive(s, self.i)
        for d, a in self.coeffs:
            out = out + a * derive(s, d)
        return out


def check_flat_rep(spec: FlatRepSpec) -> Report:
    """Report of the flatness residuals; a new Report on every call."""
    return check("check-flatrep", [render(r) for r in spec.flatness_residuals])


def _require_flat(spec: FlatRepSpec) -> None:
    if not spec.is_flat:
        raise ValueError("flat representation does not satisfy [F_i, F_j] = 0")


def pullback(spec: FlatRepSpec, f: Expr) -> Expr:
    """Image of a function on the equation of flat connections under the
    morphism determined by the representation.

    ``f`` lives on the fc chart of the split's size, whose rule judges it.
    phi*(x_i) = i-th base coordinate, phi*(v^a) = a-th fiber coordinate,
    phi*(v_{Ii}^{a,0}) = F_i phi*(v_I^{a,0}) with phi*(v_i^{a,0}) = a_i^a,
    and phi*(v_I^{a,A+b}) = D_{fiber b} phi*(v_I^{a,A}); flatness makes the
    recursion order irrelevant.
    """
    _require_flat(spec)
    f = FcChart(len(spec.base_dirs), len(spec.fiber_dirs)).check_expr(f)
    return f.subs({s: _pullback_symbol(spec, s) for s in f.symbols() if s.kind != KIND_PARAM})


def _pullback_symbol(spec: FlatRepSpec, s: Symbol) -> Expr:
    """phi*(s) for one symbol x_i, v^a or v_I^{a,A} of the matching fc chart,
    unchecked: a chain of |I| + |A| - 1 derivations from a_i^a."""
    k = s.kind
    if k == KIND_INDEP:
        return Expr.wrap(spec.scheme.indep(spec.base_dirs[s.index - 1]))
    if k == KIND_BASEFIBER:
        return Expr.wrap(spec.scheme.indep(spec.fiber_dirs[s.index - 1]))
    if s.aa:
        prev = _pullback_symbol(spec, fc(s.index, s.ii, s.aa[:-1]))
        return total_derivative(spec.scheme, spec.fiber_dirs[s.aa[-1] - 1], prev)
    if len(s.ii) == 1:
        return spec.a(spec.base_dirs[s.ii[0] - 1], spec.fiber_dirs[s.index - 1])
    prev = _pullback_symbol(spec, fc(s.index, s.ii[:-1], ()))
    return spec.f_apply(spec.base_dirs[s.ii[-1] - 1], prev)


def du_vertical(spec: FlatRepSpec, vert: Mapping[int, Expr]) -> Cochain:
    """d_U(V) for a vertical field V = sum_d b^d D_d:
    component ((i,), d) = F_i(b^d) - V(a_i^d)."""
    return Cochain(spec, 0, {((), d): b for d, b in vert.items()}).d


def du_cochain1(spec: FlatRepSpec, c: Cochain) -> Cochain:
    """d_U on 1-cochains; component ((i, j), d) for i < j."""
    if c.degree != 1:
        raise ValueError("expected a degree-1 cochain")
    return c.on(spec).d


def infinitesimal_deformation(
    family: FlatRepSpec, p: Symbol, at: Optional[Fraction] = None
) -> Cochain:
    """Infinitesimal part of a parametric family of flat representations.

    The family must be flat identically in the parameter.  The cocycle is the
    epsilon-coefficient after shifting p -> p0 + eps (p0 = ``at``, or the
    symbolic parameter itself when ``at`` is None), a 1-cochain on the base
    point (its ``complex``: the family, or the family at p = ``at``); its
    closedness is verified, not assumed.
    """
    if p.kind != KIND_PARAM:
        raise ValueError("deformation parameter must be a parameter symbol")
    if not family.is_flat:
        raise ValueError("family is not flat for the symbolic parameter")
    eps = param("_eps")
    base_point = Expr.wrap(p if at is None else Fraction(at))
    base = family if at is None else family.subs({p: Expr.wrap(Fraction(at))})
    cocycle = Cochain(base, 1, {
        ((i,), d): e.subs({p: base_point + eps}).coefficient(eps, 1)
        for (i, d), e in family.coeffs.items()})
    if not cocycle.d.is_zero():  # pragma: no cover - guaranteed by the flatness identity
        raise AssertionError("deformation cocycle is not closed")
    return cocycle


def exactness_test(spec: FlatRepSpec, c: Cochain, ansatz: AnsatzSpec) -> Optional[Cochain]:
    """Solve d_U(V) = c for a vertical field V inside the ansatz.

    Returns the witness V = sum_d b^d D_d as a 0-cochain, or None
    (bounded-no).  A returned witness has been re-substituted into d_U and
    checked against c exactly.
    """
    _require_flat(spec)
    c = c.on(spec)
    if not du_cochain1(spec, c).is_zero():
        raise ValueError("cochain is not closed; exactness is ill-posed")
    return cochain_preimage(spec, c, ansatz)


def symmetry_cocycle(spec: FlatRepSpec, phi: Sequence[Expr], check: bool = True) -> Cochain:
    """c_S = [[U, S]] for the lift of the equation symmetry with generating
    functions phi; component ((i,), d) = -S(a_i^d)."""
    if check and not is_symmetry_evolution(_evolution(spec, "symmetry check"), phi).ok:
        raise ValueError("phi is not a symmetry of the underlying equation")
    return Cochain(spec, 1, {
        ((i,), d): -evolutionary_apply(spec.scheme, phi, a) for (i, d), a in spec.coeffs.items()})


def _evolution(spec: FlatRepSpec, what: str) -> Evolution:
    """The evolution scheme under ``spec``, which ``what`` needs; any other
    scheme is refused."""
    base = spec.scheme.base if isinstance(spec.scheme, Extended) else spec.scheme
    if not isinstance(base, Evolution):
        raise ValueError("%s requires an evolution scheme underneath" % what)
    return base


def lift_symmetry(
    spec: FlatRepSpec, phi: Sequence[Expr], ansatz: AnsatzSpec
) -> Optional[Cochain]:
    """The fiber part of a lift of the symmetry phi to the covering, a 0-cochain.

    Raises ValueError unless phi is a symmetry of the underlying equation.
    Solves the exactness problem for c_S; the lifted symmetry is
    Ev_phi + sum_d a^d D_d with a^d = -b^d for the exactness witness V.
    Returns None when no lift exists inside the ansatz (bounded-no).
    """
    _require_flat(spec)
    c = symmetry_cocycle(spec, phi)
    witness = exactness_test(spec, c, ansatz)
    if witness is None:
        return None
    lift = Cochain._built(spec, 0, tuple(-b for b in witness.data))
    if any(lift.d.component((i,), d) != evolutionary_apply(spec.scheme, phi, spec.a(i, d))
           for i in spec.base_dirs for d in spec.fiber_dirs):  # pragma: no cover
        raise AssertionError("lift witness fails the commutation condition")
    return lift


def covering_to_flatrep(
    base: DerivScheme, coeffs: Mapping[Tuple[int, int], Expr], nfibers: int
) -> FlatRepSpec:
    """The flat-representation candidate F_i = D_i + sum_b a_i^b D_b over
    ``Extended(base, nfibers)``, a_i^b = ``coeffs[(i, b)]`` for a direction
    i of ``base`` and a fiber b in 1..nfibers: base directions
    1..base.ndirs, fiber direction base.ndirs + b, the extension's b-th
    fiber.  Every spec over an extension is built here, except the SDYM
    family, whose split also moves x3 and x4 to the fibers.

    check_flat_rep on the result is exactly the covering condition
    [D_i + X_i, D_j + X_j] = 0, X_i = sum_b a_i^b D_b; over a :class:`Base`
    it is the flatness of a connection (:func:`connection`).  A key outside
    the chart is refused here, a coefficient foreign to the extended chart
    by the spec, through the extension's ``check_symbol``.
    """
    scheme = Extended(base, nfibers)
    n = base.ndirs
    for i, b in coeffs:
        if not (1 <= i <= n and 1 <= b <= nfibers):
            raise ValueError("coefficient a_%d^%d outside the chart of %d base and %d fiber "
                             "directions" % (i, b, n, nfibers))
    return FlatRepSpec(scheme, tuple(range(1, n + 1)), tuple(range(n + 1, scheme.ndirs + 1)),
                       {(i, n + b): e for (i, b), e in coeffs.items()})


def connection(n: int, m: int, coeffs: Mapping[Tuple[int, int], Expr]) -> FlatRepSpec:
    """The connection v_i^a(x, v) = ``coeffs[(i, a)]`` on R^n x R^m: the
    covering of ``Base(n)`` by the m fibers v1..vm, fiber direction n + a =
    d/dv^a, so F_i = d/dx_i + sum_a v_i^a d/dv^a."""
    return covering_to_flatrep(Base(n), coeffs, positive(m, "m"))


def default_ansatz(
    spec: FlatRepSpec,
    extra: Sequence[Expr] = (),
    degree: Optional[int] = None,
    order: Optional[int] = None,
) -> AnsatzSpec:
    """Default bounded ansatz for exactness/lifting over a representation.

    Pool: base and fiber coordinates, spatial jets u_(1...1) up to the
    maximal order seen in the data plus one, and every parameter present;
    those are the jets of an evolution scheme, and any other is refused.
    Degree bound: maximal total degree seen plus one.  ``degree``/``order``
    override.
    """
    _evolution(spec, "the default ansatz (spatial jets)")
    if order is not None and type(order) is not int:
        raise ValueError("jet-order bound must be a nonnegative int, got %r" % (order,))
    if order is not None and order < 0:
        raise ValueError("jet-order bound must be nonnegative")
    exprs = list(spec.coeffs.values()) + [Expr.wrap(e) for e in extra]
    max_deg = 0
    max_ord = 0
    deps = set()
    params = set()
    for e in exprs:
        max_deg = max(max_deg, e.total_degree())
        for s in e.symbols():
            if s.kind == KIND_JET:
                max_ord = max(max_ord, len(s.sigma))
                deps.add(s.index)
            elif s.kind == KIND_PARAM:
                params.add(s)
    degree = max_deg + 1 if degree is None else degree
    order = max_ord + 1 if order is None else order
    pool = set(params)
    for i in range(1, spec.scheme.ndirs + 1):
        pool.add(spec.scheme.indep(i))
    for alpha in sorted(deps):
        for k in range(order + 1):
            pool.add(jet_symbol(alpha, (1,) * k))
    return AnsatzSpec(symbols=tuple(pool), degree=degree)
