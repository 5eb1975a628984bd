"""Vector-valued differential forms and the Froelicher-Nijenhuis bracket.

The carrier is deliberately small: a :class:`VForm` is a sum of decomposable
terms (wedge of closed coordinate differentials) tensor (derivation), where a
:class:`Derivation` splits into a schematic part (coefficients on registered
commuting scheme directions D_i) and a partial part (coefficients on
coordinate partials).  Every computation in this package fits the fragment,
and on it the bracket of decomposables

    [[w (x) X, w' (x) X']] = w^w' (x) [X,X'] + w ^ L_X(w') (x) X'
                             - L_X'(w) ^ w' (x) X

is exact (the two d(w) terms vanish because basis wedges are closed).

A coordinate connection (``flatrep.connection``) gives the forms of
:func:`connection_forms`, and [[Ubar, .]] is :func:`d_nabla_vertical`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from .expr import KIND_BASEFIBER, KIND_PARAM, Expr, ONE, Symbol, ZERO, render
from .jets import Base, DerivScheme, Extended, add_term, sort_with_sign

if TYPE_CHECKING:
    from .flatrep import FlatRepSpec

__all__ = [
    "FiniteChart", "Derivation", "VForm", "UnsupportedBracket",
    "connection_forms", "d_nabla_vertical",
]


class UnsupportedBracket(ValueError):
    """Bracket or Nijenhuis term outside the finitely representable fragment."""


class FiniteChart:
    """A plain finite coordinate chart (no total-derivative structure)."""

    ndirs = 0

    def __init__(self, coords: Sequence[Symbol]):
        self.coords = tuple(coords)
        if len(set(self.coords)) != len(self.coords):
            raise ValueError("repeated chart coordinates")

    def rules_mention(self, s: Symbol) -> bool:
        return False

    def __eq__(self, other):
        return isinstance(other, FiniteChart) and self.coords == other.coords

    def __hash__(self):
        return hash(self.coords)


class Derivation:
    """c_1 D_{i_1} + ... + f_1 d/ds_1 + ...: scheme directions plus partials."""

    def __init__(self, space, dirs: Optional[dict] = None, partials: Optional[dict] = None):
        self.space = space
        self.dirs: Dict[int, Expr] = {}
        self.partials: Dict[Symbol, Expr] = {}
        for i, c in (dirs or {}).items():
            c = Expr.wrap(c)
            if not c.is_zero():
                if not isinstance(space, DerivScheme):
                    raise ValueError("schematic part needs a scheme, not a finite chart")
                space.check_direction(i)
                self.dirs[i] = c
        for s, c in (partials or {}).items():
            add_term(self.partials, s, Expr.wrap(c))

    def is_zero(self) -> bool:
        return not self.dirs and not self.partials

    def __eq__(self, other):
        return (
            isinstance(other, Derivation)
            and self.space is other.space
            and self.dirs == other.dirs
            and self.partials == other.partials
        )

    def apply(self, f: Expr) -> Expr:
        def image(s: Symbol) -> Expr:
            out = self.partials.get(s, ZERO)
            for i, c in self.dirs.items():
                out = out + c * self.space.derive_symbol(s, i)
            return out

        return Expr.wrap(f).derive(image)

    __call__ = apply

    def __add__(self, other: "Derivation") -> "Derivation":
        self._same_space(other)
        dirs = dict(self.dirs)
        partials = dict(self.partials)
        for i, c in other.dirs.items():
            add_term(dirs, i, c)
        for s, c in other.partials.items():
            add_term(partials, s, c)
        return Derivation(self.space, dirs, partials)

    def __neg__(self) -> "Derivation":
        return self.scale(-ONE)

    def __sub__(self, other: "Derivation") -> "Derivation":
        return self + (-other)

    def scale(self, factor) -> "Derivation":
        factor = Expr.wrap(factor)
        return Derivation(
            self.space,
            {i: factor * c for i, c in self.dirs.items()},
            {s: factor * c for s, c in self.partials.items()},
        )

    def _same_space(self, other: "Derivation") -> None:
        if not (self.space is other.space or self.space == other.space):
            raise ValueError("derivations live on different charts")

    def bracket(self, other: "Derivation") -> "Derivation":
        """[X, Y] as a derivation.

        Scheme directions commute among themselves by the scheme contract;
        mixed D_i/partial cross terms must vanish, which holds exactly when no
        rule coefficient of the scheme depends on the partial's symbol.
        """
        self._same_space(other)
        for a, b in ((self, other), (other, self)):
            if a.dirs:
                for s in b.partials:
                    if a.space.rules_mention(s):
                        raise UnsupportedBracket(
                            "[D_i, d/d%s] is not finitely representable here" % render(s)
                        )
        dirs: Dict[int, Expr] = {}
        partials: Dict[Symbol, Expr] = {}
        for i, c in other.dirs.items():
            add_term(dirs, i, self.apply(c))
        for s, c in other.partials.items():
            add_term(partials, s, self.apply(c))
        for i, c in self.dirs.items():
            add_term(dirs, i, other.apply(c), -1)
        for s, c in self.partials.items():
            add_term(partials, s, other.apply(c), -1)
        return Derivation(self.space, dirs, partials)

    def __repr__(self):
        bits = []
        for i in sorted(self.dirs):
            bits.append("(%s) D_%d" % (render(self.dirs[i]), i))
        for s in sorted(self.partials, key=lambda t: t.key):
            bits.append("(%s) d/d%s" % (render(self.partials[s]), render(s)))
        return " + ".join(bits) if bits else "0"


class VForm:
    """Sum of (wedge of coframe differentials) tensor (derivation)."""

    def __init__(self, space, coframe: Sequence[Symbol], degree: int, terms=None):
        self.space = space
        self.coframe = tuple(coframe)
        self.degree = degree
        self._pos = {s: k for k, s in enumerate(self.coframe)}
        data: Dict[Tuple[int, ...], Derivation] = {}
        for key, der in (terms or {}).items():
            if len(key) != degree:
                raise ValueError("key %r does not match degree %d" % (key, degree))
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
        if self.coframe != other.coframe or self.degree != other.degree:
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
        if self.coframe != other.coframe or not (self.space is other.space or self.space == other.space):
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


def connection_forms(spec: FlatRepSpec) -> Tuple[VForm, VForm]:
    """The pair (Ubar, U) of a coordinate connection v_i^a on the chart (x, v),
    a flat representation over a jet-free chart (``flatrep.connection``);
    a spec over any other chart is refused.

    Ubar = sum_i dx_i (x) (d/dx_i + sum_a v_i^a d/dv^a) and
    U = sum_a (dv^a - sum_i v_i^a dx_i) (x) d/dv^a; Ubar + U acts as the
    full differential split into horizontal and vertical parts.
    """
    scheme = spec.scheme
    if not (isinstance(scheme, Extended) and isinstance(scheme.base, Base)):
        raise ValueError("not a coordinate connection: its chart is not jet-free")
    xs = [scheme.indep(i) for i in spec.base_dirs]
    vs = [scheme.indep(d) for d in spec.fiber_dirs]
    chart = FiniteChart(xs + vs)
    ubar_terms, u_terms = {}, {}
    for k, i in enumerate(spec.base_dirs):
        coeffs = {vd: spec.a(i, d) for d, vd in zip(spec.fiber_dirs, vs)}
        ubar_terms[(k,)] = Derivation(chart, partials={xs[k]: ONE, **coeffs})
        u_terms[(k,)] = Derivation(chart, partials={vd: -c for vd, c in coeffs.items()})
    for k, vd in enumerate(vs, len(xs)):
        u_terms[(k,)] = Derivation(chart, partials={vd: ONE})
    return VForm(chart, chart.coords, 1, ubar_terms), VForm(chart, chart.coords, 1, u_terms)


def d_nabla_vertical(spec: FlatRepSpec, theta: VForm) -> VForm:
    """Covariant differential d_nabla = [[Ubar, .]] on vertical forms.

    Requires a coordinate connection (see :func:`connection_forms`) that is
    flat (otherwise d o d would not vanish) and a theta whose derivation
    components are all vertical (basefiber partials only).
    """
    ubar, _ = connection_forms(spec)
    if not spec.is_flat:
        raise ValueError("connection is not flat; d_nabla is not a differential")
    for der in theta.terms.values():
        if der.dirs or any(s.kind != KIND_BASEFIBER for s in der.partials):
            raise ValueError("theta must be vertical (d/dv^a components only)")
    if theta.coframe != ubar.coframe:
        raise ValueError("theta is not defined over the spec's chart")
    return ubar.nijenhuis(theta)
