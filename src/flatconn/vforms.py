"""Vector-valued differential forms and the Froelicher-Nijenhuis bracket.

The carrier is deliberately small: a :class:`VForm` over a scheme
(``jets.DerivScheme``) is a sum of decomposable terms (wedge of closed
coordinate differentials) tensor (derivation), where a :class:`Derivation`
is a combination of the scheme's commuting directions D_i.  Every
computation in this package fits the fragment, and on it the bracket of
decomposables

    [[w (x) X, w' (x) X']] = w^w' (x) [X,X'] + w ^ L_X(w') (x) X'
                             - L_X'(w) ^ w' (x) X

is exact (the two d(w) terms vanish because basis wedges are closed).

A flat representation phi (``flatrep.FlatRepSpec``) gives the structure
element Ubar = sum_i dx_i (x) F_i, and [[Ubar, .]] on vertical forms is
:func:`d_nabla_vertical`, the differential of the complex C_phi.  A
coordinate connection (``flatrep.connection``) also gives the vertical form
U of :func:`connection_forms`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from .expr import KIND_PARAM, Expr, ONE, Symbol, ZERO, render
from .jets import Base, DerivScheme, Extended, add_term, sort_with_sign

if TYPE_CHECKING:
    from .flatrep import FlatRepSpec

__all__ = [
    "Derivation", "VForm", "UnsupportedBracket", "connection_forms", "d_nabla_vertical",
]


class UnsupportedBracket(ValueError):
    """Bracket or Nijenhuis term outside the finitely representable fragment."""


class Derivation:
    """c_1 D_{i_1} + ... + c_k D_{i_k} on the commuting directions of one
    scheme."""

    def __init__(self, space: DerivScheme, dirs: Optional[dict] = None):
        self.space = space
        self.dirs: Dict[int, Expr] = {}
        for i, c in (dirs or {}).items():
            c = Expr.wrap(c)
            if not c.is_zero():
                space.check_direction(i)
                self.dirs[i] = c

    def is_zero(self) -> bool:
        return not self.dirs

    def __eq__(self, other):
        return (
            isinstance(other, Derivation)
            and self.space is other.space
            and self.dirs == other.dirs
        )

    def apply(self, f: Expr) -> Expr:
        def image(s: Symbol) -> Expr:
            out = ZERO
            for i, c in self.dirs.items():
                out = out + c * self.space.derive_symbol(s, i)
            return out

        return Expr.wrap(f).derive(image)

    __call__ = apply

    def __add__(self, other: "Derivation") -> "Derivation":
        self._same_space(other)
        dirs = dict(self.dirs)
        for i, c in other.dirs.items():
            add_term(dirs, i, c)
        return Derivation(self.space, dirs)

    def __neg__(self) -> "Derivation":
        return self.scale(-ONE)

    def __sub__(self, other: "Derivation") -> "Derivation":
        return self + (-other)

    def scale(self, factor) -> "Derivation":
        factor = Expr.wrap(factor)
        return Derivation(self.space, {i: factor * c for i, c in self.dirs.items()})

    def _same_space(self, other: "Derivation") -> None:
        if self.space is not other.space:
            raise ValueError("derivations live on different charts")

    def bracket(self, other: "Derivation") -> "Derivation":
        """[X, Y] as a derivation; the scheme directions commute by the
        scheme contract, so only the coefficients are differentiated."""
        self._same_space(other)
        dirs: Dict[int, Expr] = {}
        for i, c in other.dirs.items():
            add_term(dirs, i, self.apply(c))
        for i, c in self.dirs.items():
            add_term(dirs, i, other.apply(c), -1)
        return Derivation(self.space, dirs)

    def __repr__(self):
        bits = ["(%s) D_%d" % (render(self.dirs[i]), i) for i in sorted(self.dirs)]
        return " + ".join(bits) if bits else "0"


class VForm:
    """Sum of (wedge of coframe differentials) tensor (derivation)."""

    def __init__(self, space: DerivScheme, coframe: Sequence[Symbol], degree: int, terms=None):
        self.space = space
        self.coframe = tuple(coframe)
        self.degree = degree
        self._pos = {s: k for k, s in enumerate(self.coframe)}
        data: Dict[Tuple[int, ...], Derivation] = {}
        for key, der in (terms or {}).items():
            if len(key) != degree:
                raise ValueError("key %r does not match degree %d" % (key, degree))
            if any(not 0 <= k < len(self.coframe) for k in key):
                raise ValueError("key %r is not a list of coframe positions 0..%d"
                                 % (key, len(self.coframe) - 1))
            if der.space is not space:
                raise ValueError("the derivation of key %r lives on another chart" % (key,))
            skey, sign = sort_with_sign(key)
            if sign != 0:
                add_term(data, skey, der, sign)
        self.terms = data

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return (
            isinstance(other, VForm)
            and self.coframe == other.coframe
            and self.degree == other.degree
            and self.terms == other.terms
        )

    def __add__(self, other: "VForm") -> "VForm":
        if (self.space is not other.space or self.coframe != other.coframe
                or self.degree != other.degree):
            raise ValueError("cannot add forms of different shape")
        out = dict(self.terms)
        for key, der in other.terms.items():
            add_term(out, key, der)
        res = VForm(self.space, self.coframe, self.degree)
        res.terms = out
        return res

    def __neg__(self) -> "VForm":
        res = VForm(self.space, self.coframe, self.degree)
        res.terms = {k: -d for k, d in self.terms.items()}
        return res

    def __sub__(self, other: "VForm") -> "VForm":
        return self + (-other)

    def _differential(self, g: Expr) -> List[Tuple[int, Expr]]:
        """d(g) in the coframe basis; error if it leaves the span."""
        g = Expr.wrap(g)
        out = []
        for s in sorted(g.symbols()):
            if s.kind == KIND_PARAM:
                continue
            k = self._pos.get(s)
            if k is None:
                raise UnsupportedBracket(
                    "d(%s) leaves the coframe span (symbol %s)" % (render(g), render(s))
                )
            out.append((k, g.partial(s)))
        return out

    def nijenhuis(self, other: "VForm") -> "VForm":
        """Froelicher-Nijenhuis bracket of decomposable sums.

        Valid because every basis wedge is a product of exact coordinate
        differentials, so the d(w) terms of the decomposable formula vanish
        and the Lie-derivative terms reduce to differentials of the functions
        X(coordinate).
        """
        if self.coframe != other.coframe or self.space is not other.space:
            raise ValueError("forms live on different charts")
        degree = self.degree + other.degree
        acc: Dict[Tuple[int, ...], Derivation] = {}

        def put(key: Tuple[int, ...], der: Derivation) -> None:
            skey, sign = sort_with_sign(key)
            if sign != 0:
                add_term(acc, skey, der, sign)

        for ii, dx in self.terms.items():
            for jj, dy in other.terms.items():
                # wedge (x) [X, Y]
                put(ii + jj, dx.bracket(dy))
                # w ^ L_X(w') (x) Y
                for k in range(len(jj)):
                    g = dx.apply(self.coframe[jj[k]])
                    if g.is_zero():
                        continue
                    for pos, coeff in self._differential(g):
                        put(ii + jj[:k] + (pos,) + jj[k + 1:], dy.scale(coeff))
                # - L_Y(w) ^ w' (x) X
                for k in range(len(ii)):
                    g = dy.apply(self.coframe[ii[k]])
                    if g.is_zero():
                        continue
                    for pos, coeff in self._differential(g):
                        put(ii[:k] + (pos,) + ii[k + 1:] + jj, dx.scale(-coeff))
        res = VForm(self.space, self.coframe, degree)
        res.terms = acc
        return res

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for key in sorted(self.terms):
            wedge = "^".join("d%s" % render(self.coframe[k]) for k in key) or "1"
            bits.append("%s (x) [%r]" % (wedge, self.terms[key]))
        return " + ".join(bits)


def _ubar(spec: FlatRepSpec) -> VForm:
    """Ubar = sum_i dx_i (x) F_i, F_i = D_i + sum_d a_i^d D_d, over
    ``spec.scheme`` on the coframe of its base and fiber coordinates."""
    scheme = spec.scheme
    coframe = [scheme.indep(d) for d in spec.base_dirs + spec.fiber_dirs]
    return VForm(scheme, coframe, 1, {
        (k,): Derivation(scheme, {i: ONE, **{d: spec.a(i, d) for d in spec.fiber_dirs}})
        for k, i in enumerate(spec.base_dirs)})


def connection_forms(spec: FlatRepSpec) -> Tuple[VForm, VForm]:
    """The pair (Ubar, U) of a coordinate connection v_i^a on the chart (x, v),
    a flat representation over a jet-free chart (``flatrep.connection``);
    a spec over any other chart is refused.

    Ubar = sum_i dx_i (x) (d/dx_i + sum_a v_i^a d/dv^a) and
    U = sum_a (dv^a - sum_i v_i^a dx_i) (x) d/dv^a, where d/dx_i and d/dv^a
    are the scheme directions D_i and D_a; Ubar + U acts as the full
    differential split into horizontal and vertical parts.
    """
    scheme = spec.scheme
    if not (isinstance(scheme, Extended) and isinstance(scheme.base, Base)):
        raise ValueError("not a coordinate connection: its chart is not jet-free")
    ubar = _ubar(spec)
    u_terms = {}
    for k, i in enumerate(spec.base_dirs):
        u_terms[(k,)] = Derivation(scheme, {d: -spec.a(i, d) for d in spec.fiber_dirs})
    for k, d in enumerate(spec.fiber_dirs, len(spec.base_dirs)):
        u_terms[(k,)] = Derivation(scheme, {d: ONE})
    return ubar, VForm(scheme, ubar.coframe, 1, u_terms)


def d_nabla_vertical(spec: FlatRepSpec, theta: VForm) -> VForm:
    """Covariant differential d_nabla = [[Ubar, .]] on vertical forms.

    Requires a flat representation (otherwise d o d would not vanish) and a
    theta over ``spec.scheme`` on Ubar's coframe (``nijenhuis`` refuses
    another) whose derivation components are all vertical (fiber directions
    only).  On theta = f dx_I (x) D_d the
    bracket is sum_i dx_i ^ dx_I (x) (F_i(f) D_d - f sum_b D_d(a_i^b) D_b),
    the differential of the complex C_phi.
    """
    if not spec.is_flat:
        raise ValueError("the representation is not flat; d_nabla is not a differential")
    ubar = _ubar(spec)
    for der in theta.terms.values():
        if any(d not in spec.fiber_dirs for d in der.dirs):
            raise ValueError("theta must be vertical (fiber directions only)")
    return ubar.nijenhuis(theta)
