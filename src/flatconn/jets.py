"""Total-derivative schemes on jet spaces and evolution equations.

A scheme knows a set of pairwise commuting directions D_1, ..., D_N and how
each direction acts on every symbol of its chart.  Three built-in flavors:

* :class:`FreeJet` -- the free jet space J^inf of an n-by-m trivial bundle,
  D_i(u_sigma) = u_{sigma i};
* :class:`Evolution` -- internal coordinates (x, t, u_k) of an evolution
  system u_t = F(x, t, u_0, ..., u_r): the spatial rule shifts the order, the
  temporal rule prolongs the right-hand side;
* :class:`Extended` -- an existing scheme plus fiber coordinates y^b that all
  original variables are independent of (the trivial extension used by
  coverings and flat representations).

On top of the schemes: evolutionary vector fields, the symmetry test for
evolution systems, and the horizontal de Rham differential d_h.  Every
derivation here is fixed by its values on symbols and applied through the
one Leibniz kernel :meth:`Expr.derive`.  :func:`cochain_differential` is the
one differential of the complex of a flat representation phi: d_h is its case
with one trivial fiber and no twist, ``fce.dfc`` the case phi = identity on
E_fc, and ``flatrep.du_vertical``/``du_cochain1`` the d_U of any phi.
:func:`cochain_preimage` is its bounded inverse in degree 0, the one place
where an ansatz system is built and solved: ``flatrep.exactness_test`` (and
``lift_symmetry`` through it) asks it whether a cocycle of phi is exact, and
``fce.recover_f`` asks it for the f of a symmetry of E_fc.  Every signed
sparse sum of the package goes through :func:`add_term`.
"""

from __future__ import annotations

import warnings
from typing import TYPE_CHECKING, Callable, Dict, Iterable, Mapping, Optional, Sequence, Tuple

from .expr import (
    KIND_FIBER, KIND_INDEP, KIND_JET, KIND_PARAM, Expr, ONE, Symbol, ZERO,
    jet, render, x,
)
from .linsolve import solve_by_superposition
from .reports import FAIL, PASS, Report

__all__ = [
    "FreeJet", "Evolution", "Extended", "HForm",
    "total_derivative", "d_sigma", "evolutionary_apply",
    "is_symmetry_evolution", "d_h", "sort_with_sign", "add_term",
    "cochain_differential", "cochain_preimage", "DirectionError",
]


class DirectionError(ValueError):
    """A direction index outside the scheme's range."""


def sort_with_sign(indices: Sequence[int]) -> Tuple[Tuple[int, ...], int]:
    """Sort a tuple of indices, returning the permutation sign (0 on repeats)."""
    idx = list(indices)
    sign = 1
    for i in range(1, len(idx)):
        j = i
        while j > 0 and idx[j - 1] > idx[j]:
            idx[j - 1], idx[j] = idx[j], idx[j - 1]
            sign = -sign
            j -= 1
    for i in range(1, len(idx)):
        if idx[i - 1] == idx[i]:
            return tuple(idx), 0
    return tuple(idx), sign


def add_term(acc: dict, key, value, sign: int = 1) -> None:
    """acc[key] += sign * value in a sparse dict; a key whose sum is zero is
    dropped.  Values are Exprs or Derivations; ``sign`` is +1 or -1."""
    if sign < 0:
        value = -value
    got = acc.get(key)
    if got is not None:
        value = got + value
    if value.is_zero():
        acc.pop(key, None)
    else:
        acc[key] = value


if TYPE_CHECKING:
    from .linsolve import AnsatzSpec

    # The key (sorted directions I, fiber index a) of the term f dx_I (x) e_a.
    CochainKey = Tuple[Tuple[int, ...], int]


def cochain_differential(
    items: Iterable[Tuple[CochainKey, Expr]], directions: Sequence[int],
    horizontal: Callable[[int, Expr], Expr],
    twist: Mapping[Tuple[int, int], Sequence[Tuple[int, Expr]]],
) -> Dict[CochainKey, Expr]:
    """The differential of the complex C_phi of a flat representation phi,
    d(f dx_I (x) e_a) = sum_i dx_i ^ dx_I (x) (F_i(f) e_a - sum_b f D_a(a_i^b) e_b),
    on ``((I, a), f)`` items, skipping zero ones.  ``horizontal(i, f)`` is F_i(f);
    ``twist[(i, a)]`` lists the pairs (b, D_a(a_i^b)) with a nonzero value."""
    out: Dict[CochainKey, Expr] = {}
    for (dirs, a), f in items:
        if f.is_zero():
            continue
        for i in directions:
            key, sign = sort_with_sign((i,) + dirs)
            if sign == 0:
                continue
            add_term(out, (key, a), horizontal(i, f), sign)
            for b, t in twist.get((i, a), ()):
                add_term(out, (key, b), t * f, -sign)
    return out


def cochain_preimage(
    directions: Sequence[int], fibers: Sequence[int],
    horizontal: Callable[[int, Expr], Expr],
    twist: Mapping[Tuple[int, int], Sequence[Tuple[int, Expr]]],
    target: Mapping[CochainKey, Expr], ansatz: AnsatzSpec,
) -> Optional[Dict[int, Expr]]:
    """A 0-cochain {a: f^a} with components in the ansatz whose
    :func:`cochain_differential` is the 1-cochain ``target``, or None when
    the ansatz holds none (bounded-no).

    The unknowns are the coefficients of the basis mu e_a, a over ``fibers``
    and mu over the ansatz monomials; a returned answer has been
    re-substituted and checked against ``target`` exactly.
    """
    monos = ansatz.monomials()
    basis = [(a, mu) for a in fibers for mu in monos]
    keys = [((i,), a) for i in directions for a in fibers]

    def d(cochain0):
        return cochain_differential(
            ((((), a), f) for a, f in cochain0), directions, horizontal, twist)

    images = []
    for a, mu in basis:
        img = d([(a, mu)])
        images.append([img.get(k, ZERO) for k in keys])
    coeffs = solve_by_superposition(images, [target.get(k, ZERO) for k in keys])
    if coeffs is None:
        return None
    out = {a: ZERO for a in fibers}
    for (a, mu), q in zip(basis, coeffs):
        if q:
            out[a] = out[a] + q * mu
    back = d(out.items())
    if any(back.get(k, ZERO) != target.get(k, ZERO) for k in set(back) | set(target)):
        raise AssertionError("cochain preimage fails verification")  # pragma: no cover
    return out


class DerivScheme:
    """Common behavior of total-derivative rule systems."""

    ndirs: int
    m: int
    # The memo of d_sigma, (sorted sigma, f) -> D_sigma f; empty at construction.
    _dsigma: Dict[Tuple[Tuple[int, ...], Expr], Expr]

    def indep(self, i: int) -> Symbol:
        """The coordinate whose differential pairs with direction i."""
        raise NotImplementedError

    def derive_symbol(self, s: Symbol, i: int) -> Expr:
        """D_i applied to a single chart symbol."""
        raise NotImplementedError

    def is_internal(self, s: Symbol) -> bool:
        """True for symbols carrying nontrivial derivative rules (jets)."""
        return s.kind == KIND_JET

    def rules_mention(self, s: Symbol) -> bool:
        """Whether any rule coefficient can depend on ``s``.

        Used to decide when [D_i, d/ds] vanishes; must err on the side of
        True.
        """
        raise NotImplementedError

    def check_direction(self, i: int) -> None:
        if not 1 <= i <= self.ndirs:
            raise DirectionError("direction %d out of range 1..%d" % (i, self.ndirs))


class FreeJet(DerivScheme):
    """Free jet space of a trivial bundle with n independents, m dependents."""

    def __init__(self, n: int, m: int):
        if n < 1 or m < 1:
            raise ValueError("need n >= 1 and m >= 1")
        self.n = n
        self.m = m
        self.ndirs = n
        self._dsigma = {}

    def indep(self, i: int) -> Symbol:
        self.check_direction(i)
        return x(i)

    def derive_symbol(self, s: Symbol, i: int) -> Expr:
        self.check_direction(i)
        k = s.kind
        if k == KIND_JET:
            if s.index > self.m or any(d > self.n for d in s.sigma):
                raise ValueError("jet symbol %s outside chart" % render(s))
            return Expr.wrap(jet(s.index, s.sigma + (i,)))
        if k == KIND_INDEP:
            if s.index > self.n:
                raise ValueError("independent %s outside chart" % render(s))
            return ONE if s.index == i else ZERO
        if k == KIND_PARAM:
            return ZERO
        raise ValueError("symbol %s is foreign to a free jet chart" % render(s))

    def rules_mention(self, s: Symbol) -> bool:
        return s.kind == KIND_JET


class Evolution(DerivScheme):
    """Internal chart (x, t, u_k) of the evolution system u^a_t = F^a.

    Direction 1 is x, direction 2 is t; jets carry purely spatial
    multi-indices (repetitions of 1).  D_t on u^a_k is D_x^k(F^a).
    """

    def __init__(self, m: int, rhs: Sequence[Expr]):
        if m < 1:
            raise ValueError("need m >= 1")
        if len(rhs) != m:
            raise ValueError("expected %d right-hand sides, got %d" % (m, len(rhs)))
        self.m = m
        self.ndirs = 2
        self.rhs = tuple(Expr.wrap(f) for f in rhs)
        self._dsigma = {}
        self._rule_syms = set()
        for f in self.rhs:
            for s in sorted(f.symbols()):
                self._validate(s)
                self._rule_syms.add(s)

    def _validate(self, s: Symbol) -> None:
        k = s.kind
        if k == KIND_JET:
            if s.index > self.m or (s.sigma and set(s.sigma) != {1}):
                raise ValueError("jet %s is not spatial or outside chart" % render(s))
        elif k == KIND_INDEP:
            if s.index > 2:
                raise ValueError("independent %s outside (x, t) chart" % render(s))
        elif k != KIND_PARAM:
            raise ValueError("symbol %s is foreign to an evolution chart" % render(s))

    def indep(self, i: int) -> Symbol:
        self.check_direction(i)
        return x(i)

    def derive_symbol(self, s: Symbol, i: int) -> Expr:
        self.check_direction(i)
        k = s.kind
        if k == KIND_JET:
            self._validate(s)
            if i == 1:
                return Expr.wrap(jet(s.index, s.sigma + (1,)))
            return d_sigma(self, s.sigma, self.rhs[s.index - 1])
        if k == KIND_INDEP:
            self._validate(s)
            return ONE if s.index == i else ZERO
        if k == KIND_PARAM:
            return ZERO
        raise ValueError("symbol %s is foreign to an evolution chart" % render(s))

    def rules_mention(self, s: Symbol) -> bool:
        return s.kind == KIND_JET or s in self._rule_syms


class Extended(DerivScheme):
    """A scheme plus fiber directions whose rules are all trivial."""

    def __init__(self, base: DerivScheme, fibers: Sequence[Symbol]):
        for f in fibers:
            if f.kind != KIND_FIBER:
                raise ValueError("extension fibers must be fiber symbols, got %s" % render(f))
        self.base = base
        self.fibers = tuple(fibers)
        self.ndirs = base.ndirs + len(self.fibers)
        self.m = base.m
        self._fiber_set = set(self.fibers)
        self._dsigma = {}

    def indep(self, i: int) -> Symbol:
        self.check_direction(i)
        if i <= self.base.ndirs:
            return self.base.indep(i)
        return self.fibers[i - self.base.ndirs - 1]

    def derive_symbol(self, s: Symbol, i: int) -> Expr:
        self.check_direction(i)
        if s in self._fiber_set:
            return ONE if self.indep(i) is s else ZERO
        if i <= self.base.ndirs:
            return self.base.derive_symbol(s, i)
        # Fiber direction on a base-chart symbol: the extension is trivial,
        # so independents, parameters and equation variables all map to 0.
        if s.kind in (KIND_PARAM, KIND_INDEP) or self.base.is_internal(s):
            return ZERO
        raise ValueError("symbol %s is foreign to the extended chart" % render(s))

    def is_internal(self, s: Symbol) -> bool:
        return self.base.is_internal(s)

    def rules_mention(self, s: Symbol) -> bool:
        if s in self._fiber_set:
            return False
        return self.base.rules_mention(s)


def total_derivative(scheme: DerivScheme, i: int, f: Expr) -> Expr:
    """D_i f = sum_s D_i(s) * df/ds over the finitely many symbols of f."""
    scheme.check_direction(i)
    return Expr.wrap(f).derive(lambda s: scheme.derive_symbol(s, i))


def d_sigma(scheme: DerivScheme, sigma: Iterable[int], f: Expr) -> Expr:
    """Composition D_{i_1} ... D_{i_k}; order is irrelevant by commutativity.

    Memoized per scheme on (sigma, f); Evolution's D_t rule on u^a_k is
    D_x^k(F^a) served from the same memo.
    """
    sig = tuple(sorted(sigma))
    f = Expr.wrap(f)
    if not sig:
        return f
    memo = scheme._dsigma
    key = (sig, f)
    got = memo.get(key)
    if got is None:
        got = total_derivative(scheme, sig[-1], d_sigma(scheme, sig[:-1], f))
        memo[key] = got
    return got


def evolutionary_apply(scheme: DerivScheme, phi: Sequence[Expr], f: Expr) -> Expr:
    """Apply the evolutionary field with generating section phi to f.

    Ev_phi(f) = sum over jet symbols u^a_sigma of f of D_sigma(phi^a) df/du.
    Non-jet symbols (independents, fibers, parameters) are constants for it.
    """
    if len(phi) != scheme.m:
        raise ValueError("expected %d generating functions, got %d" % (scheme.m, len(phi)))
    phi = [Expr.wrap(p) for p in phi]

    def image(s: Symbol) -> Expr:
        if s.kind != KIND_JET:
            return ZERO
        return d_sigma(scheme, s.sigma, phi[s.index - 1])

    return Expr.wrap(f).derive(image)


def is_symmetry_evolution(scheme: Evolution, phi: Sequence[Expr]) -> Report:
    """Check the linearized equation D_t(phi^a) = Ev_phi(F^a) on internal
    coordinates."""
    if not isinstance(scheme, Evolution):
        raise TypeError("symmetry test requires an evolution scheme")
    if len(phi) != scheme.m:
        raise ValueError("expected %d generating functions, got %d" % (scheme.m, len(phi)))
    phi = [Expr.wrap(p) for p in phi]
    residuals = [
        total_derivative(scheme, 2, p) - evolutionary_apply(scheme, phi, rhs)
        for p, rhs in zip(phi, scheme.rhs)
    ]
    ok = all(r.is_zero() for r in residuals)
    return Report(
        task="is-symmetry",
        verdict=PASS if ok else FAIL,
        residuals=[render(r) for r in residuals],
    )


class HForm:
    """Horizontal differential form: sorted direction tuples -> coefficients."""

    def __init__(self, scheme: DerivScheme, degree: int, terms=None):
        self.scheme = scheme
        self.degree = degree
        data: Dict[Tuple[int, ...], Expr] = {}
        for key, coeff in (terms or {}).items():
            coeff = Expr.wrap(coeff)
            if len(key) != degree:
                raise ValueError("key %r does not match degree %d" % (key, degree))
            for i in key:
                scheme.check_direction(i)
            skey, sign = sort_with_sign(key)
            if sign != 0:
                add_term(data, skey, coeff, sign)
        self.terms = data

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return (
            isinstance(other, HForm)
            and self.degree == other.degree
            and self.terms == other.terms
        )

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for key in sorted(self.terms):
            wedge = "^".join("dx%d" % i for i in key) or "1"
            bits.append("(%s) %s" % (render(self.terms[key]), wedge))
        return " + ".join(bits)


def d_h(scheme: DerivScheme, omega: HForm) -> HForm:
    """Horizontal de Rham differential: d_h(f dx_I) = sum_i D_i(f) dx_i ^ dx_I.

    The cochain differential with one dummy fiber index and no twist.
    """
    if omega.degree >= scheme.ndirs:
        warnings.warn("d_h on a top-degree form is zero", stacklevel=2)
    out = cochain_differential(
        (((key, 0), f) for key, f in omega.terms.items()), range(1, scheme.ndirs + 1),
        lambda i, f: total_derivative(scheme, i, f), {})
    result = HForm(scheme, omega.degree + 1)
    result.terms = {key: e for (key, _), e in out.items()}
    return result
