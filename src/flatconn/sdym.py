"""Self-dual Yang-Mills: matrix chart, lambda expansion of the Lax condition,
rewriting modulo the equation, the flat-representation family, generalized
gauge symmetries, and the exactness identity for their cocycles.

The unknowns are four g-valued functions A_1..A_4 on R^4 with g the full
k-by-k matrix algebra; entry (p, q) of A_i is the jet dependent with family
index alpha(k, i, p, q) = ((i-1)k + (p-1))k + q over the free chart
FreeJet(4, 4k^2), and the fiber coordinate w_p is y(p).  The system, read
off the coefficients of 1, lambda, lambda^2 in the Lax condition, orients
three rewrite rules that eliminate d1(A2), d1(A4) and d3(A4); a fourth,
derived from their critical pair, eliminates d1 d4(A3).  One immutable
:class:`SdymRewriter` per k holds the rule table and is the scheme of
internal coordinates: it certifies at construction that its ranking is
compatible and decreasing and that its critical pairs normalize to 0, so
normal forms are unique; internal coordinates are the normal-form jets,
and its total derivative normalizes through the rules.

The model never changes, so a process builds it once per k: the symbolic
family of :func:`build_flatrep`, a ``flatrep.FlatRepSpec`` over its
certified rewriter, is interned by k and shared by every caller,
:func:`verify_ugh` included, with the memos of its rewriter and spec.  A
family at a rational lambda is the family's ``subs``, a new spec on every
call over the same extended scheme; no spec writes into that scheme's
D_sigma memo, so memory grows with the number of k, not with the parameter
values asked for.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from types import MappingProxyType
from typing import TYPE_CHECKING, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from .expr import Expr, KIND_JET, Symbol, ZERO, jet, param, positive, render, y
from .jets import (
    DerivScheme, Extended, FreeJet, d_sigma, evolutionary_apply, total_derivative)
from .flatrep import FlatRepSpec, du_vertical, symmetry_cocycle
from .reports import Report, check

__all__ = [
    "SdymRewriter", "alpha", "family", "matrix",
    "lambda_expand", "build_flatrep", "gauge_symmetry",
    "gauge_symmetry_residuals", "verify_ugh", "sigma_field",
    "mat_add", "mat_sub", "mat_mul", "mat_bracket", "mat_map", "mat_is_zero",
]

if TYPE_CHECKING:
    Matrix = List[List[Expr]]


def alpha(k: int, i: int, p: int, q: int) -> int:
    """Family index of the entry A_i[p, q] in the size-k chart."""
    if not (1 <= i <= 4 and 1 <= p <= k and 1 <= q <= k):
        raise ValueError("entry A_%d[%d,%d] outside the chart" % (i, p, q))
    return ((i - 1) * k + (p - 1)) * k + q


def family(k: int, index: int) -> Tuple[int, int, int]:
    """(i, p, q) of the family index ``index`` in the size-k chart."""
    a, q = divmod(index - 1, k)
    i, p = divmod(a, k)
    return i + 1, p + 1, q + 1


def matrix(k: int, i: int, sigma: Tuple[int, ...] = ()) -> Matrix:
    """The matrix d_sigma A_i of jet symbols."""
    return [[Expr.wrap(jet(alpha(k, i, p, q), sigma)) for q in range(1, k + 1)]
            for p in range(1, k + 1)]


# ---- small exact matrix algebra over Expr -------------------------------------------

def mat_map(m: Matrix, fn: Callable[[Expr], Expr]) -> Matrix:
    return [[fn(e) for e in row] for row in m]


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return [[ea + eb for ea, eb in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return [[ea - eb for ea, eb in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    k = len(a)
    return [
        [sum((a[p][r] * b[r][q] for r in range(k)), ZERO) for q in range(k)]
        for p in range(k)
    ]


def mat_bracket(a: Matrix, b: Matrix) -> Matrix:
    return mat_sub(mat_mul(a, b), mat_mul(b, a))


def mat_is_zero(a: Matrix) -> bool:
    return all(e.is_zero() for row in a for e in row)


def sigma_field(m: Matrix) -> Dict[int, Expr]:
    """The action sigma(X) = - sum X_{pq} w_q d/dw_p, w_q = y(q), as fiber
    components {p: sigma(X)(w_p)}; the sign makes sigma a Lie algebra homomorphism."""
    return {p: -sum((e * y(q) for q, e in enumerate(row, 1)), ZERO) for p, row in enumerate(m, 1)}


def _divide(sigma: Sequence[int], mu: Sequence[int]) -> Optional[Tuple[int, ...]]:
    """sigma minus mu as multisets, or None when mu does not fit inside sigma."""
    rest = list(sigma)
    for d in mu:
        if d not in rest:
            return None
        rest.remove(d)
    return tuple(rest)


def _by_index(k: int, rules: Mapping[Tuple[int, Tuple[int, ...]], Matrix]
              ) -> Mapping[int, Tuple[Tuple[Tuple[int, ...], Matrix], ...]]:
    """The rules grouped by family, read-only: each family index of the
    size-k chart maps to the (mu, R) of the rules of its family i, in firing
    order."""
    fams = {i: tuple((mu, r) for (j, mu), r in rules.items() if j == i) for i in range(1, 5)}
    return MappingProxyType({index: fams[family(k, index)[0]]
                             for index in range(1, 4 * k * k + 1)})


class SdymRewriter(DerivScheme):
    """The SDYM system for one k: its rule table and its internal
    coordinates, the normal-form jets, with the total derivative composed
    with normalization.  Immutable: it owns k, the lambda coefficients
    ``lax``, the read-only rule table and the memos of normal forms and of
    D_sigma, and refuses assignment to every field.

    The table maps (family i, sorted multi-index mu) -> matrix R in firing
    order: the jet d_mu A_i[p, q] rewrites to R[p][q].  A read-only copy
    grouped by family, built with the table, gives each jet index the rules
    of its family, so a match scans only those.

    d1 A2 -> d2 A1 - [A1, A2]
    d1 A4 -> d4 A1 + d2 A3 - d3 A2 - [A1, A4] - [A3, A2]
    d3 A4 -> d4 A3 - [A3, A4]
    d1 d4 A3 -> d3 d4 A1 + d2 d3 A3 - d3 d3 A2 + (commutator terms)

    The first three orient the lambda coefficients; the fourth resolves
    their one critical pair, normalized with them.  d_sigma A_i rewrites by
    the first rule of family i whose mu fits inside sigma, to
    D_{sigma - mu}(R).  The table is complete and certified at construction;
    a failed check raises AssertionError, an internal fault:

    1. Ranking, checked first, so a table that would loop is refused before
       any normalization: each jet of R ranks strictly below d_mu A_i in the
       lexicographic order of (jet order, number of 1s in sigma, i).  D_j
       raises both orders by one, both counts of 1s alike and keeps both
       families, so the ranking is compatible with every D_j, and the jets
       D_rho(s) of D_tau(R), rho inside tau, rank below D_tau(d_mu A_i) too.
       Ranks are well-ordered, so rewriting terminates.
    2. Critical pairs: the rewrites by two rules of one family of the jet at
       the union of their multi-indices agree after normalization.

    By the Riquier-Janet passivity criterion and Newman's lemma, the two
    checks make normal forms unique, whatever the firing order.
    """

    def __init__(self, k: int):
        lax = lambda_expand(k)
        rules = {(2, (1,)): mat_sub(matrix(k, 2, (1,)), lax[0]),
                 (4, (1,)): mat_sub(matrix(k, 4, (1,)), lax[1]),
                 (4, (3,)): mat_sub(matrix(k, 4, (3,)), lax[2])}
        draft = SdymRewriter._uncertified(k, lax, rules)
        # d3(rule 4,1) - d1(rule 4,3) is -d1 d4 A3 + normal forms: solve it
        (pair,) = draft._pairs()
        rules[(3, (1, 4))] = mat_add(matrix(k, 3, (1, 4)), pair)
        self._put(k=k, m=draft.m, ndirs=4, free=draft.free, lax=lax,
                  rules=MappingProxyType(rules), _by_index=_by_index(k, rules),
                  _nf={}, _dsigma={})
        self._certify()

    @classmethod
    def _uncertified(cls, k: int, lax, rules) -> SdymRewriter:
        """A rewriter on a copy of ``rules``, not yet certified."""
        self = cls.__new__(cls)
        self._put(k=k, m=4 * k * k, ndirs=4, free=FreeJet(4, 4 * k * k), lax=lax,
                  rules=MappingProxyType(dict(rules)), _by_index=_by_index(k, rules),
                  _nf={}, _dsigma={})
        return self

    def _pairs(self) -> List[Matrix]:
        """Check the ranking, then normalize D_{lcm - mu}(R_mu) - D_{lcm - nu}(R_nu)
        for each two rules of one family, lcm the union of mu and nu."""
        rank = lambda i, sigma: (len(sigma), sigma.count(1), i)
        for (i, mu), r in self.rules.items():
            for s in (s for row in r for e in row for s in e.symbols() if s.kind == KIND_JET):
                if rank(family(self.k, s.index)[0], s.sigma) >= rank(i, mu):
                    raise AssertionError("rule %r does not lower the rank: %s" % ((i, mu), render(s)))
        out = []
        items = list(self.rules.items())
        for n, ((i, mu), r_mu) in enumerate(items):
            for (j, nu), r_nu in items[n + 1:]:
                if i == j:
                    lcm = tuple(sorted((Counter(mu) | Counter(nu)).elements()))
                    a, b = _divide(lcm, mu), _divide(lcm, nu)
                    out.append([[self.normalize(d_sigma(self.free, a, ea) - d_sigma(self.free, b, eb))
                                 for ea, eb in zip(ra, rb)] for ra, rb in zip(r_mu, r_nu)])
        return out

    def _certify(self) -> None:
        if not all(mat_is_zero(m) for m in self._pairs()):
            raise AssertionError("a critical pair of the SDYM rules does not normalize to 0")

    def _match(self, s: Symbol) -> Optional[Tuple[Matrix, Tuple[int, ...]]]:
        """The first rule that rewrites ``s``: its R and sigma - mu."""
        if s.kind == KIND_JET:
            for mu, r in self._by_index.get(s.index, ()):
                rest = _divide(s.sigma, mu)
                if rest is not None:
                    return r, rest
        return None

    def reducible(self, s: Symbol) -> bool:
        return self._match(s) is not None

    def normal_symbol(self, s: Symbol) -> Expr:
        """Normal form of one reducible jet symbol."""
        got = self._nf.get(s)
        if got is None:
            r, rest = self._match(s)
            _, p, q = family(self.k, s.index)
            got = self._nf[s] = self.normalize(d_sigma(self.free, rest, r[p - 1][q - 1]))
        return got

    def normalize(self, e: Expr) -> Expr:
        e = Expr.wrap(e)
        bindings = {s: self.normal_symbol(s) for s in e.symbols() if self.reducible(s)}
        return e.subs(bindings) if bindings else e

    def _check_jet(self, s: Symbol) -> None:
        self.free._check_jet(s)  # the free chart of the same size
        if self.reducible(s):
            raise ValueError("%s is not an internal coordinate" % render(s))

    def _derive_jet(self, s: Symbol, i: int) -> Expr:
        up = jet(s.index, s.sigma + (i,))
        return self.normal_symbol(up) if self.reducible(up) else Expr.wrap(up)


def lambda_expand(k: int) -> Tuple[Matrix, Matrix, Matrix]:
    """Coefficient matrices of lambda^0, lambda^1, lambda^2 in the Lax
    condition [d1 + A1 + lam (d3 + A3), d2 + A2 + lam (d4 + A4)] = 0."""
    free = FreeJet(4, 4 * positive(k, "k") ** 2)
    a1, a2, a3, a4 = (matrix(k, i) for i in (1, 2, 3, 4))
    d = lambda j, m: mat_map(m, lambda e: total_derivative(free, j, e))
    m0 = mat_add(mat_sub(d(1, a2), d(2, a1)), mat_bracket(a1, a2))
    m1 = mat_add(mat_sub(mat_add(d(1, a4), d(3, a2)), mat_add(d(4, a1), d(2, a3))),
                 mat_add(mat_bracket(a1, a4), mat_bracket(a3, a2)))
    m2 = mat_add(mat_sub(d(3, a4), d(4, a3)), mat_bracket(a3, a4))
    return m0, m1, m2


# The symbolic family of each k built so far, interned by k: a rewriter is
# certified once per k per process, and a failed build interns nothing.
_FAMILIES: Dict[int, FlatRepSpec] = {}


def build_flatrep(k: int, lam0: Optional[Fraction] = None) -> FlatRepSpec:
    """The lambda-family of flat representations over the base (x_1, x_2).

    The scheme is ``Extended(rewriter, k)``, the rewriter of k extended by
    the fibers w_p = y(p); fiber directions are x_3, x_4 and the w's.  The
    connection adds lam D_3 (resp. lam D_4) and sigma(A_i + lam A_{i+2}) to
    D_1 (resp. D_2), so the rewriter is ``spec.scheme.base`` and lam is
    ``spec.a(1, 3)``.  None keeps lam symbolic and returns the process's
    one family of k; ``lam0`` fixes it to a rational, the family's
    ``subs``, a new spec on every call over the family's scheme.
    """
    spec = _FAMILIES.get(positive(k, "k"))  # 2.0 and True would hit the cache of 2 and 1
    if spec is None:
        lam = Expr.wrap(param("lam"))
        coeffs: Dict[Tuple[int, int], Expr] = {(1, 3): lam, (2, 4): lam}
        for i in (1, 2):
            m = mat_add(matrix(k, i), mat_map(matrix(k, i + 2), lambda e: lam * e))
            for p, e in sigma_field(m).items():
                coeffs[(i, 4 + p)] = e
        spec = _FAMILIES[k] = FlatRepSpec(Extended(SdymRewriter(k), k), (1, 2),
                                          (3, 4) + tuple(range(5, 5 + k)), coeffs)
    return spec if lam0 is None else spec.subs({param("lam"): Expr.wrap(Fraction(lam0))})


def gauge_symmetry(scheme: SdymRewriter, h: Matrix) -> List[Expr]:
    """Characteristics of the generalized gauge symmetry G_H(A_i) =
    D_i(H) - [H, A_i], flattened in family-index order (i, p, q)."""
    h = mat_map(h, scheme.normalize)
    phi: List[Expr] = []
    for i in range(1, 5):
        g = mat_sub(mat_map(h, lambda e: total_derivative(scheme, i, e)),
                    mat_bracket(h, matrix(scheme.k, i)))
        phi += [e for row in g for e in row]
    return phi


def gauge_symmetry_residuals(scheme: SdymRewriter, phi: Sequence[Expr]) -> List[Matrix]:
    """Residuals of the linearized lambda-coefficient equations, normalized.

    Zero for every characteristic of an SDYM symmetry; this is where the
    rewriter genuinely works (the raw linearization does not vanish on the
    free chart when H depends on jets).
    """
    out = []
    for m in scheme.lax:
        lin = mat_map(m, lambda e: evolutionary_apply(scheme.free, list(phi), e))
        out.append(mat_map(lin, scheme.normalize))
    return out


def _resolve_h(k: int, h: Union[str, Matrix]) -> Matrix:
    if isinstance(h, str):
        if h == "const":
            return [[Expr.wrap(Fraction(p + k * (q - 1))) for q in range(1, k + 1)]
                    for p in range(1, k + 1)]
        if h == "a1":
            return matrix(k, 1)
        raise ValueError("unknown H choice %r (use 'const', 'a1', or a matrix)" % h)
    return [[Expr.wrap(e) for e in row] for row in h]


def verify_ugh(k: int, h: Union[str, Matrix] = "a1", witness: str = "sigma") -> Report:
    """Check that the gauge-symmetry cocycle is exact with witness -sigma(H):
    [[Ubar_F, G_H]] + [[Ubar_F, sigma(H)]] = 0 for symbolic lambda.

    ``witness='square'`` replaces sigma(H) by a non-gauge vertical field (the
    componentwise-square action, w_q -> w_q^2 in sigma(H)), which breaks the
    identity; used as the planted counterexample.  Any other ``witness`` is
    refused with ``ValueError``.
    """
    if witness not in ("sigma", "square"):
        raise ValueError("witness must be 'sigma' or 'square', got %r" % (witness,))
    spec = build_flatrep(k, None)
    scheme = spec.scheme.base
    hm = _resolve_h(k, h)
    phi = gauge_symmetry(scheme, hm)
    residuals = [render(e) for m in gauge_symmetry_residuals(scheme, phi)
                 for row in m for e in row]
    cocycle = symmetry_cocycle(spec, phi, check=False)
    # H passed gauge_symmetry, which refuses fiber symbols: w_q is only the factor
    vert = {4 + p: e for p, e in sigma_field(hm).items()}
    if witness == "square":
        square = {y(q): Expr.wrap(y(q)) ** 2 for q in range(1, k + 1)}
        vert = {d: e.subs(square) for d, e in vert.items()}
    trivial = du_vertical(spec, {3: ZERO, 4: ZERO, **vert})
    for i in spec.base_dirs:
        for d in spec.fiber_dirs:
            residuals.append(render(scheme.normalize(
                cocycle.component((i,), d) + trivial.component((i,), d))))
    return check("sdym-ugh", residuals)
