"""Flat representations of differential equations.

A flat representation over a scheme whose directions split into base
directions x_1..x_{n'} and fiber directions (coverings contribute trivial
y-fibers, the self-dual Yang-Mills example also reclassifies two genuine
independents as fiber directions) is the family of fields

    F_i = D_{x_i} + sum_d a_i^d D_d,   i over base directions,

subject to [F_i, F_j] = 0.  This module verifies that condition, realizes
the induced morphism onto the equation of flat connections as a pullback of
coordinates, differentiates parametric families into deformation 1-cocycles,
tests cocycles for exactness inside a bounded ansatz, and lifts equation
symmetries to the covering.

Its differential d_U (:func:`du_vertical` in degree 0, :func:`du_cochain1` in
degree 1) is the one cochain differential ``jets.cochain_differential`` with
F_i as horizontal part and the twist D_d(a_i^b) cached as ``spec.twist``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from types import MappingProxyType
from typing import TYPE_CHECKING, Dict, Mapping, Optional, Sequence, Tuple

from .expr import (
    KIND_BASEFIBER, KIND_FC, KIND_FIBER, KIND_INDEP, KIND_JET, KIND_PARAM,
    Expr, Symbol, ZERO, fc, jet as jet_symbol, param, render, y,
)
from .jets import (
    DerivScheme, Evolution, Extended, add_term, cochain_differential, cochain_preimage,
    d_sigma, evolutionary_apply, is_symmetry_evolution, total_derivative,
)
from .linsolve import AnsatzSpec
from .reports import FAIL, PASS, Report

__all__ = [
    "FlatRepSpec", "AnsatzSpec", "check_flat_rep", "pullback",
    "infinitesimal_deformation", "DeformationResult", "exactness_test",
    "symmetry_cocycle", "lift_symmetry", "covering_to_flatrep",
    "du_vertical", "du_cochain1", "is_closed", "default_ansatz",
]

if TYPE_CHECKING:
    from .jets import CochainKey

    # Cochains of the representation complex: (base direction, fiber direction)
    # -> coefficient for degree 1, (i, j, fiber) -> coefficient for degree 2.
    Cochain1 = Dict[Tuple[int, int], Expr]


@dataclass(frozen=True)
class FlatRepSpec:
    """Declarative flat representation: scheme, direction split, coefficients.

    Frozen, with read-only coefficients, so that its flatness residuals,
    pullback images and F_i images, cached on it, cannot go stale.
    """

    scheme: DerivScheme
    base_dirs: Tuple[int, ...]
    fiber_dirs: Tuple[int, ...]
    coeffs: Mapping[Tuple[int, int], Expr] = field(default_factory=dict)
    _pullback_memo: Dict[Symbol, Expr] = field(
        default_factory=dict, init=False, repr=False, compare=False)
    _f_memo: Dict[Tuple[int, Symbol], Expr] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        seen = set(self.base_dirs) | set(self.fiber_dirs)
        if len(seen) != len(self.base_dirs) + len(self.fiber_dirs):
            raise ValueError("base and fiber directions overlap")
        for d in seen:
            self.scheme.check_direction(d)
        cleaned = {}
        for (i, d), e in self.coeffs.items():
            if i not in self.base_dirs or d not in self.fiber_dirs:
                raise ValueError("coefficient a_%d^%d outside the declared split" % (i, d))
            add_term(cleaned, (i, d), Expr.wrap(e))
        object.__setattr__(self, "coeffs", MappingProxyType(cleaned))

    def a(self, i: int, d: int) -> Expr:
        return self.coeffs.get((i, d), ZERO)

    def f_apply(self, i: int, e: Expr) -> Expr:
        """F_i(e), F_i = D_{x_i} + sum_d a_i^d D_d, for a base direction i."""
        if i not in self.base_dirs:
            raise ValueError("F_%d: base directions are %r" % (i, self.base_dirs))
        memo = self._f_memo
        derive = self.scheme.derive_symbol
        terms = [(d, self.a(i, d)) for d in self.fiber_dirs if (i, d) in self.coeffs]

        def image(s: Symbol) -> Expr:
            out = memo.get((i, s))
            if out is None:
                out = derive(s, i)
                for d, a in terms:
                    out = out + a * derive(s, d)
                memo[(i, s)] = out
            return out

        return Expr.wrap(e).derive(image)

    def subs(self, bindings: Mapping[Symbol, Expr]) -> "FlatRepSpec":
        return FlatRepSpec(
            self.scheme,
            self.base_dirs,
            self.fiber_dirs,
            {key: e.subs(bindings) for key, e in self.coeffs.items()},
        )

    @cached_property
    def flatness_residuals(self) -> Tuple[Expr, ...]:
        """Fiber components F_i(a_j^d) - F_j(a_i^d) of [F_i, F_j], for i < j
        and each fiber direction d; [F_i, F_j] has no base component."""
        return tuple(
            self.f_apply(i, self.a(j, d)) - self.f_apply(j, self.a(i, d))
            for k, i in enumerate(self.base_dirs) for j in self.base_dirs[k + 1:]
            for d in self.fiber_dirs)

    @property
    def is_flat(self) -> bool:
        return all(r.is_zero() for r in self.flatness_residuals)

    @cached_property
    def twist(self) -> Dict[Tuple[int, int], Tuple[Tuple[int, Expr], ...]]:
        """D_d(a_i^b), keyed (i, d) as pairs (b, value); zero values dropped."""
        out = {}
        for i in self.base_dirs:
            for d in self.fiber_dirs:
                pairs = tuple(
                    (b, t) for b in self.fiber_dirs
                    if not (t := d_sigma(self.scheme, (d,), self.a(i, b))).is_zero())
                if pairs:
                    out[(i, d)] = pairs
        return out


def check_flat_rep(spec: FlatRepSpec) -> Report:
    """Report of the flatness residuals; a new Report on every call."""
    return Report(
        task="check-flatrep",
        verdict=PASS if spec.is_flat else FAIL,
        residuals=[render(r) for r in spec.flatness_residuals],
    )


def _require_flat(spec: FlatRepSpec) -> None:
    if not spec.is_flat:
        raise ValueError("flat representation does not satisfy [F_i, F_j] = 0")


def pullback(spec: FlatRepSpec, f: Expr) -> Expr:
    """Image of a function on the equation of flat connections under the
    morphism determined by the representation.

    phi*(x_i) = i-th base coordinate, phi*(v^a) = a-th fiber coordinate,
    phi*(v_{Ii}^{a,0}) = F_i phi*(v_I^{a,0}) with phi*(v_i^{a,0}) = a_i^a,
    and phi*(v_I^{a,A+b}) = D_{fiber b} phi*(v_I^{a,A}); flatness makes the
    recursion order irrelevant.
    """
    _require_flat(spec)
    memo = spec._pullback_memo

    n, m = len(spec.base_dirs), len(spec.fiber_dirs)

    def image(s: Symbol) -> Expr:
        got = memo.get(s)
        if got is not None:
            return got
        k = s.kind
        if k == KIND_INDEP and s.index <= n:
            out = Expr.wrap(spec.scheme.indep(spec.base_dirs[s.index - 1]))
        elif k == KIND_FC:
            if s.index > m or any(i > n for i in s.ii) or any(a > m for a in s.aa):
                raise ValueError("symbol %s outside the matching fc chart" % render(s))
            if s.aa:
                beta = s.aa[-1]
                prev = image(fc(s.index, s.ii, s.aa[:-1]))
                out = total_derivative(spec.scheme, spec.fiber_dirs[beta - 1], prev)
            elif len(s.ii) == 1:
                out = spec.a(spec.base_dirs[s.ii[0] - 1], spec.fiber_dirs[s.index - 1])
            else:
                prev = image(fc(s.index, s.ii[:-1], ()))
                out = spec.f_apply(spec.base_dirs[s.ii[-1] - 1], prev)
        elif k == KIND_BASEFIBER and s.index <= m:
            out = Expr.wrap(spec.scheme.indep(spec.fiber_dirs[s.index - 1]))
        elif k == KIND_PARAM:
            out = Expr.wrap(s)
        else:
            raise ValueError("symbol %s is foreign to the fc chart" % render(s))
        memo[s] = out
        return out

    f = Expr.wrap(f)
    return f.subs({s: image(s) for s in f.symbols() if s.kind != KIND_PARAM})


def _du(spec: FlatRepSpec, cochain: Mapping[CochainKey, Expr]) -> Dict[CochainKey, Expr]:
    """d_U through the one cochain differential.  A component whose directions
    or fiber index lie outside the spec's split raises ValueError."""
    for dirs, d in cochain:
        if d not in spec.fiber_dirs or any(i not in spec.base_dirs for i in dirs):
            raise ValueError(
                "cochain component %r is off the split: base directions %r, "
                "fiber directions %r" % (dirs + (d,) if dirs else d,
                                         spec.base_dirs, spec.fiber_dirs))
    return cochain_differential(
        (((dirs, d), Expr.wrap(e)) for (dirs, d), e in cochain.items()),
        spec.base_dirs, spec.f_apply, spec.twist)


def du_vertical(spec: FlatRepSpec, vert: Mapping[int, Expr]) -> Cochain1:
    """d_U(V) for a vertical field V = sum_d b^d D_d:
    component (i, d) = F_i(b^d) - V(a_i^d)."""
    out = _du(spec, {((), d): b for d, b in vert.items()})
    return {(i, d): e for ((i,), d), e in out.items()}


def du_cochain1(spec: FlatRepSpec, c: Cochain1) -> Dict[Tuple[int, int, int], Expr]:
    """d_U on 1-cochains; component (i, j, d) for i < j."""
    out = _du(spec, {((i,), d): e for (i, d), e in c.items()})
    return {(i, j, d): e for ((i, j), d), e in out.items()}


def is_closed(spec: FlatRepSpec, c: Cochain1) -> bool:
    return not du_cochain1(spec, c)


@dataclass
class DeformationResult:
    base: FlatRepSpec
    cocycle: Cochain1
    report: Report


def infinitesimal_deformation(
    family: FlatRepSpec, p: Symbol, at: Optional[Fraction] = None
) -> DeformationResult:
    """Infinitesimal part of a parametric family of flat representations.

    The family must be flat identically in the parameter.  The cocycle is the
    epsilon-coefficient after shifting p -> p0 + eps (p0 = ``at``, or the
    symbolic parameter itself when ``at`` is None); its closedness is
    verified, not assumed.
    """
    if p.kind != KIND_PARAM:
        raise ValueError("deformation parameter must be a parameter symbol")
    if not family.is_flat:
        raise ValueError("family is not flat for the symbolic parameter")
    eps = param("_eps")
    base_point = Expr.wrap(p if at is None else Fraction(at))
    cocycle: Cochain1 = {}
    for key, e in family.coeffs.items():
        add_term(cocycle, key, e.subs({p: base_point + eps}).coefficient(eps, 1))
    base = family if at is None else family.subs({p: Expr.wrap(Fraction(at))})
    residuals = du_cochain1(base, cocycle)
    report = Report(
        task="deformation",
        verdict=PASS if not residuals else FAIL,
        residuals=[render(e) for e in residuals.values()] or ["0"],
    )
    if residuals:  # pragma: no cover - guaranteed by the flatness identity
        raise AssertionError("deformation cocycle is not closed")
    return DeformationResult(base=base, cocycle=cocycle, report=report)


def exactness_test(
    spec: FlatRepSpec, c: Cochain1, ansatz: AnsatzSpec
) -> Optional[Dict[int, Expr]]:
    """Solve d_U(V) = c for a vertical field V inside the ansatz.

    Returns the witness components {fiber direction: b^d} or None
    (bounded-no).  A returned witness has been re-substituted into d_U and
    checked against c exactly.
    """
    _require_flat(spec)
    if not is_closed(spec, c):
        raise ValueError("cochain is not closed; exactness is ill-posed")
    return cochain_preimage(
        spec.base_dirs, spec.fiber_dirs, spec.f_apply, spec.twist,
        {((i,), d): Expr.wrap(e) for (i, d), e in c.items()}, ansatz)


def symmetry_cocycle(spec: FlatRepSpec, phi: Sequence[Expr], check: bool = True) -> Cochain1:
    """c_S = [[U, S]] for the lift of the equation symmetry with generating
    functions phi; component (i, d) = -S(a_i^d)."""
    if check:
        base = spec.scheme.base if isinstance(spec.scheme, Extended) else spec.scheme
        if not isinstance(base, Evolution):
            raise ValueError("symmetry check requires an evolution scheme underneath")
        if not is_symmetry_evolution(base, phi).ok:
            raise ValueError("phi is not a symmetry of the underlying equation")
    out: Cochain1 = {}
    for key, a in spec.coeffs.items():
        add_term(out, key, evolutionary_apply(spec.scheme, phi, a), -1)
    return out


def lift_symmetry(
    spec: FlatRepSpec, phi: Sequence[Expr], ansatz: AnsatzSpec
) -> Optional[Dict[int, Expr]]:
    """Fiber components of a lift of the symmetry phi to the covering.

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
    lift = {d: -witness[d] for d in spec.fiber_dirs}
    du_lift = du_vertical(spec, lift)
    if any(du_lift.get((i, d), ZERO) != evolutionary_apply(spec.scheme, phi, spec.a(i, d))
           for i in spec.base_dirs for d in spec.fiber_dirs):  # pragma: no cover
        raise AssertionError("lift witness fails the commutation condition")
    return lift


def covering_to_flatrep(
    base: DerivScheme, fields: Mapping[int, Mapping[int, Expr]], nfibers: int
) -> FlatRepSpec:
    """Trivially extend an equation by fibers y^b and package vertical fields
    X_i = sum_b a_i^b D_{y^b} as a flat-representation candidate.

    check_flat_rep on the result is exactly the covering condition
    [D_i + X_i, D_j + X_j] = 0.  Input must be vertical: coefficients may
    involve the base chart and the declared fibers only.
    """
    if nfibers < 1:
        raise ValueError("need at least one fiber")
    fibers = tuple(y(b) for b in range(1, nfibers + 1))
    ext = Extended(base, fibers)
    coeffs: Dict[Tuple[int, int], Expr] = {}
    for i, comps in fields.items():
        base.check_direction(i)
        for b, e in comps.items():
            if not 1 <= b <= nfibers:
                raise ValueError("fiber index %d out of range" % b)
            e = Expr.wrap(e)
            for s in sorted(e.symbols()):
                if s.kind == KIND_FIBER:
                    if s not in fibers:
                        raise ValueError("undeclared fiber %s in covering field" % render(s))
                elif s.kind not in (KIND_JET, KIND_INDEP, KIND_PARAM):
                    raise ValueError(
                        "covering fields must be vertical over the equation chart; got %s"
                        % render(s)
                    )
            coeffs[(i, base.ndirs + b)] = e
    return FlatRepSpec(
        scheme=ext,
        base_dirs=tuple(range(1, base.ndirs + 1)),
        fiber_dirs=tuple(range(base.ndirs + 1, base.ndirs + nfibers + 1)),
        coeffs=coeffs,
    )


def default_ansatz(
    spec: FlatRepSpec,
    extra: Sequence[Expr] = (),
    degree: Optional[int] = None,
    order: Optional[int] = None,
) -> AnsatzSpec:
    """Default bounded ansatz for exactness/lifting over a representation.

    Pool: base and fiber coordinates, jet variables up to the maximal order
    seen in the data plus one, and every parameter present.  Degree bound:
    maximal total degree seen plus one.  ``degree``/``order`` override.
    """
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
    return AnsatzSpec(symbols=tuple(sorted(pool, key=lambda s: s.key)), degree=degree)
