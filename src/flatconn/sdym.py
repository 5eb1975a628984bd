"""Self-dual Yang-Mills: matrix chart, lambda expansion of the Lax condition,
rewriting modulo the equation, the flat-representation family, generalized
gauge symmetries, and the exactness identity for their cocycles.

The unknowns are four g-valued functions A_1..A_4 on R^4 with g the full
k-by-k matrix algebra; entry (p, q) of A_i is the jet dependent with family
index ((i-1)k + (p-1))k + q over the free chart FreeJet(4, 4k^2).  The
system, read off the coefficients of 1, lambda, lambda^2 in the Lax
condition, orients three rewrite rules that eliminate d1(A2), d3(A4) and
d1(A4); internal coordinates are the surviving jets, and the internal total
derivative normalizes through the rules.
"""

from __future__ import annotations

from fractions import Fraction
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple, Union

from .expr import (
    Expr, KIND_INDEP, KIND_JET, KIND_PARAM, ONE, Symbol, ZERO, jet, param,
    render, x, y,
)
from .jets import DerivScheme, Extended, FreeJet, d_sigma, evolutionary_apply, total_derivative
from .flatrep import FlatRepSpec, du_vertical, symmetry_cocycle
from .reports import FAIL, PASS, Report

__all__ = [
    "MatChart", "SdymRewriter", "SdymScheme", "SdymRep",
    "lambda_expand", "build_flatrep", "gauge_symmetry",
    "gauge_symmetry_residuals", "verify_ugh", "sigma_field",
    "mat_add", "mat_sub", "mat_mul", "mat_bracket", "mat_map", "mat_is_zero",
]

if TYPE_CHECKING:
    Matrix = List[List[Expr]]


class MatChart:
    """Size-k matrix chart: 4 k^2 dependents over x_1..x_4, fibers w_1..w_k."""

    def __init__(self, k: int):
        if k < 1:
            raise ValueError("need k >= 1")
        self.k = k
        self.m = 4 * k * k

    def alpha(self, i: int, p: int, q: int) -> int:
        if not (1 <= i <= 4 and 1 <= p <= self.k and 1 <= q <= self.k):
            raise ValueError("entry A_%d[%d,%d] outside the chart" % (i, p, q))
        return ((i - 1) * self.k + (p - 1)) * self.k + q

    def family(self, alpha: int) -> Tuple[int, int, int]:
        a = alpha - 1
        q = a % self.k
        a //= self.k
        p = a % self.k
        return a // self.k + 1, p + 1, q + 1

    def entry(self, i: int, p: int, q: int, sigma: Tuple[int, ...] = ()) -> Symbol:
        return jet(self.alpha(i, p, q), sigma)

    def matrix(self, i: int, sigma: Tuple[int, ...] = ()) -> Matrix:
        return [
            [Expr.wrap(self.entry(i, p, q, sigma)) for q in range(1, self.k + 1)]
            for p in range(1, self.k + 1)
        ]

    def w(self, p: int) -> Symbol:
        if not 1 <= p <= self.k:
            raise ValueError("fiber index %d outside 1..%d" % (p, self.k))
        return y(p)


# ---- small exact matrix algebra over Expr -------------------------------------------

def mat_map(m: Matrix, fn: Callable[[Expr], Expr]) -> Matrix:
    return [[fn(e) for e in row] for row in m]


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return [[ea + eb for ea, eb in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return [[ea - eb for ea, eb in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(a: Matrix, c) -> Matrix:
    return mat_map(a, lambda e: Expr.wrap(c) * e)


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


def sigma_field(chart: MatChart, m: Matrix) -> Dict[int, Expr]:
    """The action sigma(X) = - sum X_{pq} w_q d/dw_p as fiber components
    {p: sigma(X)(w_p)}; the sign makes sigma a Lie algebra homomorphism."""
    out = {}
    for p in range(1, chart.k + 1):
        acc = ZERO
        for q in range(1, chart.k + 1):
            acc = acc - m[p - 1][q - 1] * chart.w(q)
        out[p] = acc
    return out


class SdymRewriter:
    """Oriented rules from the three lambda coefficients of the Lax condition.

    d1 A2 -> d2 A1 - [A1, A2]
    d3 A4 -> d4 A3 - [A3, A4]
    d1 A4 -> d4 A1 + d2 A3 - d3 A2 - [A1, A4] - [A3, A2]

    plus all prolongations, entrywise.  The two eliminations of d1 d3 A4
    overlap; resolving that critical pair yields one more on-equation
    relation, oriented as a fourth rule

    d1 d4 A3 -> d3 d4 A1 + d2 d3 A3 - d3 d3 A2 + (commutator terms),

    computed at construction by normalizing the overlap.  Every rule replaces
    its left-hand symbol by symbols strictly smaller in the well-order
    (jet order, number of 1s in the multi-index, family index), so rewriting
    terminates; uniqueness of normal forms after completion is checked
    empirically by comparing reduction strategies.
    """

    def __init__(self, chart: MatChart):
        self.chart = chart
        self.free = FreeJet(4, chart.m)
        self._nf: Dict[Tuple[Symbol, bool], Expr] = {}
        d = lambda j, m: mat_map(m, lambda e: total_derivative(self.free, j, e))
        # (family, eliminated direction) -> right-hand side: the leading jet
        # minus the lambda coefficient that contains it
        m0, m1, m2 = lambda_expand(chart.k)
        self._base: Dict[Tuple[int, int], Matrix] = {
            (2, 1): mat_sub(chart.matrix(2, (1,)), m0),
            (4, 3): mat_sub(chart.matrix(4, (3,)), m2),
            (4, 1): mat_sub(chart.matrix(4, (1,)), m1),
        }
        # Critical pair d3(rule 4,1) vs d1(rule 4,3): their difference is an
        # on-equation relation whose leading symbol is d1 d4 A3.
        overlap = mat_sub(d(3, self._base[(4, 1)]), d(1, self._base[(4, 3)]))
        lead = chart.matrix(3, (1, 4))
        raw = mat_add(lead, overlap)  # cancels the -d1 d4 A3 inside the overlap
        rule = mat_map(raw, self.normalize)
        for row in rule:
            for e in row:
                if any(self.reducible(s) for s in e.symbols()):  # pragma: no cover
                    raise AssertionError("completion left a reducible symbol")
        self._base[(3, 1)] = rule
        self._nf.clear()  # drop normal forms computed before completion

    def reducible(self, s: Symbol) -> bool:
        if s.kind != KIND_JET:
            return False
        i, _, _ = self.chart.family(s.index)
        if i == 2:
            return 1 in s.sigma
        if i == 4:
            return 1 in s.sigma or 3 in s.sigma
        if i == 3:
            return (3, 1) in self._base and 1 in s.sigma and 4 in s.sigma
        return False

    def normal_symbol(self, s: Symbol, alt: bool = False) -> Expr:
        """Normal form of one reducible jet symbol.

        ``alt`` flips which rule fires first on A4 jets containing both a 1
        and a 3; used by the empirical confluence test.
        """
        got = self._nf.get((s, alt))
        if got is not None:
            return got
        i, p, q = self.chart.family(s.index)
        sig = list(s.sigma)
        if i == 2:
            drop = 1
        elif i == 3:
            # the completed rule eliminates the pair (1, 4) at once
            sig.remove(4)
            drop = 1
        elif (1 in sig) and not (alt and 3 in sig):
            drop = 1
        else:
            drop = 3
        sig.remove(drop)
        base = self._base[(i, drop)][p - 1][q - 1]
        out = self.normalize(d_sigma(self.free, tuple(sig), base), alt)
        self._nf[(s, alt)] = out
        return out

    def normalize(self, e: Expr, alt: bool = False) -> Expr:
        e = Expr.wrap(e)
        bindings = {
            s: self.normal_symbol(s, alt) for s in e.symbols() if self.reducible(s)
        }
        return e.subs(bindings) if bindings else e


class SdymScheme(DerivScheme):
    """Internal coordinates of the SDYM system: normal-form jets with the
    total derivative composed with normalization."""

    def __init__(self, chart: MatChart, rewriter: Optional[SdymRewriter] = None):
        self.chart = chart
        self.rewriter = rewriter or SdymRewriter(chart)
        self.ndirs = 4
        self.m = chart.m
        self._dsigma = {}

    def indep(self, i: int) -> Symbol:
        self.check_direction(i)
        return x(i)

    def derive_symbol(self, s: Symbol, i: int) -> Expr:
        self.check_direction(i)
        if s.kind == KIND_JET:
            if s.index > self.m:
                raise ValueError("jet %s outside the matrix chart" % render(s))
            if self.rewriter.reducible(s):
                raise ValueError("%s is not an internal coordinate" % render(s))
            up = jet(s.index, s.sigma + (i,))
            if self.rewriter.reducible(up):
                return self.rewriter.normal_symbol(up)
            return Expr.wrap(up)
        if s.kind == KIND_INDEP:
            if s.index > 4:
                raise ValueError("independent %s outside the chart" % render(s))
            return ONE if s.index == i else ZERO
        if s.kind == KIND_PARAM:
            return ZERO
        raise ValueError("symbol %s is foreign to the SDYM chart" % render(s))

    def rules_mention(self, s: Symbol) -> bool:
        return s.kind == KIND_JET

    def internal_matrix(self, m: Matrix) -> Matrix:
        return mat_map(m, self.rewriter.normalize)

    def d_matrix(self, i: int, m: Matrix) -> Matrix:
        return mat_map(m, lambda e: total_derivative(self, i, e))


def lambda_expand(k: int) -> Tuple[Matrix, Matrix, Matrix]:
    """Coefficient matrices of lambda^0, lambda^1, lambda^2 in the Lax
    condition [d1 + A1 + lam (d3 + A3), d2 + A2 + lam (d4 + A4)] = 0."""
    chart = MatChart(k)
    free = FreeJet(4, chart.m)
    a1, a2, a3, a4 = (chart.matrix(i) for i in (1, 2, 3, 4))
    d = lambda j, m: mat_map(m, lambda e: total_derivative(free, j, e))
    m0 = mat_add(mat_sub(d(1, a2), d(2, a1)), mat_bracket(a1, a2))
    m1 = mat_add(
        mat_sub(mat_add(d(1, a4), d(3, a2)), mat_add(d(4, a1), d(2, a3))),
        mat_add(mat_bracket(a1, a4), mat_bracket(a3, a2)),
    )
    m2 = mat_add(mat_sub(d(3, a4), d(4, a3)), mat_bracket(a3, a4))
    return m0, m1, m2


@dataclass
class SdymRep:
    chart: MatChart
    scheme: SdymScheme
    spec: FlatRepSpec
    lam: Expr  # the parameter as used in the coefficients (symbol or constant)


def build_flatrep(k: int, lam0: Optional[Fraction] = None) -> SdymRep:
    """The lambda-family of flat representations over the base (x_1, x_2).

    Fiber directions are x_3, x_4 and the w's; the connection adds lam D_3
    (resp. lam D_4) and sigma(A_i + lam A_{i+2}) to D_1 (resp. D_2).
    ``lam0`` fixes the parameter to a rational; None keeps it symbolic.
    """
    chart = MatChart(k)
    scheme = SdymScheme(chart)
    ext = Extended(scheme, tuple(chart.w(p) for p in range(1, k + 1)))
    lam = Expr.wrap(param("lam")) if lam0 is None else Expr.wrap(Fraction(lam0))
    coeffs: Dict[Tuple[int, int], Expr] = {(1, 3): lam, (2, 4): lam}
    for i in (1, 2):
        m = mat_add(chart.matrix(i), mat_scale(chart.matrix(i + 2), lam))
        vert = sigma_field(chart, m)
        for p in range(1, k + 1):
            coeffs[(i, 4 + p)] = vert[p]
    spec = FlatRepSpec(
        scheme=ext,
        base_dirs=(1, 2),
        fiber_dirs=(3, 4) + tuple(range(5, 5 + k)),
        coeffs=coeffs,
    )
    return SdymRep(chart=chart, scheme=scheme, spec=spec, lam=lam)


def gauge_symmetry(scheme: SdymScheme, h: Matrix) -> List[Expr]:
    """Characteristics of the generalized gauge symmetry G_H(A_i) =
    D_i(H) - [H, A_i], flattened per dependent family index."""
    chart = scheme.chart
    h = scheme.internal_matrix(h)
    phi = [ZERO] * chart.m
    for i in range(1, 5):
        g = mat_sub(scheme.d_matrix(i, h), mat_bracket(h, chart.matrix(i)))
        for p in range(1, chart.k + 1):
            for q in range(1, chart.k + 1):
                phi[chart.alpha(i, p, q) - 1] = g[p - 1][q - 1]
    return phi


def gauge_symmetry_residuals(scheme: SdymScheme, phi: Sequence[Expr]) -> List[Matrix]:
    """Residuals of the linearized lambda-coefficient equations, normalized.

    Zero for every characteristic of an SDYM symmetry; this is where the
    rewriter genuinely works (the raw linearization does not vanish on the
    free chart when H depends on jets).
    """
    free = FreeJet(4, scheme.chart.m)
    out = []
    for m in lambda_expand(scheme.chart.k):
        lin = mat_map(m, lambda e: evolutionary_apply(free, list(phi), e))
        out.append(mat_map(lin, scheme.rewriter.normalize))
    return out


def _resolve_h(chart: MatChart, h: Union[str, Matrix]) -> Matrix:
    if isinstance(h, str):
        if h == "const":
            return [
                [Expr.wrap(Fraction(p + chart.k * (q - 1))) for q in range(1, chart.k + 1)]
                for p in range(1, chart.k + 1)
            ]
        if h == "a1":
            return chart.matrix(1)
        raise ValueError("unknown H choice %r (use 'const', 'a1', or a matrix)" % h)
    return [[Expr.wrap(e) for e in row] for row in h]


def verify_ugh(k: int, h: Union[str, Matrix] = "a1", witness: str = "sigma") -> Report:
    """Check that the gauge-symmetry cocycle is exact with witness -sigma(H):
    [[Ubar_F, G_H]] + [[Ubar_F, sigma(H)]] = 0 for symbolic lambda.

    ``witness='square'`` replaces sigma(H) by a non-gauge vertical field (the
    componentwise-square action), which breaks the identity; used as the
    planted counterexample.
    """
    rep = build_flatrep(k, None)
    chart, scheme, spec = rep.chart, rep.scheme, rep.spec
    hm = _resolve_h(chart, h)
    phi = gauge_symmetry(scheme, hm)
    residuals: List[str] = []
    ok = True
    for m in gauge_symmetry_residuals(scheme, phi):
        for row in m:
            for e in row:
                residuals.append(render(e))
                ok = ok and e.is_zero()
    cocycle = symmetry_cocycle(spec, phi, check=False)
    vert: Dict[int, Expr] = {3: ZERO, 4: ZERO}
    for p in range(1, chart.k + 1):
        acc = ZERO
        for q in range(1, chart.k + 1):
            wq = Expr.wrap(chart.w(q))
            acc = acc - hm[p - 1][q - 1] * (wq if witness == "sigma" else wq ** 2)
        vert[4 + p] = acc
    trivial = du_vertical(spec, vert)
    for i in spec.base_dirs:
        for d in spec.fiber_dirs:
            diff = scheme.rewriter.normalize(
                cocycle.get((i, d), ZERO) + trivial.get((i, d), ZERO)
            )
            residuals.append(render(diff))
            ok = ok and diff.is_zero()
    return Report(task="sdym-ugh", verdict=PASS if ok else FAIL, residuals=residuals)
