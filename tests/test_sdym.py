import random
from fractions import Fraction

import pytest

from flatconn.expr import Expr, const, jet, param, render, x, y, ZERO
from flatconn.jets import FreeJet, total_derivative
from flatconn import flatrep, sdym
from flatconn.linsolve import AnsatzSpec


@pytest.fixture(scope="module")
def chart2():
    return sdym.MatChart(2)


@pytest.fixture(scope="module")
def rep2():
    return sdym.build_flatrep(2, None)


def test_family_index_round_trip(chart2):
    for i in (1, 2, 3, 4):
        for p in (1, 2):
            for q in (1, 2):
                assert chart2.family(chart2.alpha(i, p, q)) == (i, p, q)


def test_lambda_expand_abelian():
    m0, m1, m2 = sdym.lambda_expand(1)
    chart = sdym.MatChart(1)
    free = FreeJet(4, chart.m)
    d = lambda j, i: total_derivative(free, j, Expr.wrap(chart.entry(i, 1, 1)))
    assert m0[0][0] == d(1, 2) - d(2, 1)
    assert m1[0][0] == d(1, 4) - d(4, 1) + d(3, 2) - d(2, 3)
    assert m2[0][0] == d(3, 4) - d(4, 3)


def test_lambda_expand_has_commutator_bilinears(chart2):
    m0, _, _ = sdym.lambda_expand(2)
    assert any(e.total_degree() == 2 for row in m0 for e in row)


def test_rewriter_kills_the_residuals(chart2):
    rew = sdym.SdymRewriter(chart2)
    for m in sdym.lambda_expand(2):
        assert all(rew.normalize(e).is_zero() for row in m for e in row)


def test_rewrite_rules_are_the_oriented_lax_equations():
    # The rules come from lambda_expand; here they are checked against the
    # right-hand sides written out by hand in the SdymRewriter docstring.
    for k in (1, 2):
        chart = sdym.MatChart(k)
        free = FreeJet(4, chart.m)
        a1, a2, a3, a4 = (chart.matrix(i) for i in (1, 2, 3, 4))
        d = lambda j, m: sdym.mat_map(m, lambda e: total_derivative(free, j, e))
        add, sub, br = sdym.mat_add, sdym.mat_sub, sdym.mat_bracket
        rules = sdym.SdymRewriter(chart).rules
        assert rules[(2, (1,))] == sub(d(2, a1), br(a1, a2))
        assert rules[(4, (3,))] == sub(d(4, a3), br(a3, a4))
        assert rules[(4, (1,))] == sub(sub(add(d(4, a1), d(2, a3)), d(3, a2)),
                                       add(br(a1, a4), br(a3, a2)))


def test_rewriter_terminates_on_deep_jets(chart2):
    rew = sdym.SdymRewriter(chart2)
    deep = jet(chart2.alpha(4, 1, 2), (1, 1, 3))
    out = rew.normalize(Expr.wrap(deep))
    assert all(not rew.reducible(s) for s in out.symbols())


def test_rewriter_empirical_confluence(chart2):
    # Uniqueness of normal forms is the certificate's job (the tests below);
    # here 50 seeded random expressions check that normalize is idempotent
    # and leaves no reducible symbol.
    rng = random.Random(61)
    rew = sdym.SdymRewriter(chart2)
    pool = []
    for i in (1, 2, 3, 4):
        for p in (1, 2):
            for q in (1, 2):
                pool.append(chart2.entry(i, p, q))
                pool.append(chart2.entry(i, p, q, (rng.choice((1, 2, 3, 4)),)))
    pool.append(chart2.entry(4, 1, 1, (1, 3)))
    pool.append(chart2.entry(4, 2, 2, (1, 3)))
    pool.append(chart2.entry(2, 1, 2, (1, 1)))
    for _ in range(50):
        e = ZERO
        for _ in range(3):
            mono = const(rng.randint(-3, 3))
            for _ in range(rng.randint(1, 2)):
                mono = mono * rng.choice(pool)
            e = e + mono
        out = rew.normalize(e)
        assert rew.normalize(out) == out
        assert not any(rew.reducible(s) for s in out.symbols())


@pytest.mark.parametrize("k", [1, 2])
def test_rewriter_certificate_passes(k):
    rew = sdym.SdymRewriter(sdym.MatChart(k))  # raises if the certificate fails
    assert list(rew.rules) == [(2, (1,)), (4, (1,)), (4, (3,)), (3, (1, 4))]
    assert all(sdym.mat_is_zero(m) for m in rew._pairs())


def test_rewriter_certificate_fails_without_the_completion_rule(chart2):
    rew = sdym.SdymRewriter(chart2)
    three = {key: r for key, r in rew.rules.items() if key != (3, (1, 4))}
    draft = sdym.SdymRewriter._uncertified(chart2, rew.lax, three)
    with pytest.raises(AssertionError, match="critical pair"):
        draft._certify()


def test_rewriter_ranking_refuses_a_rule_that_keeps_its_own_jet(chart2):
    # d1 A2 -> d1 A2 + d2 A1 would rewrite forever; the ranking check runs
    # before any normalization and refuses it.
    rew = sdym.SdymRewriter(chart2)
    loop = sdym.mat_add(chart2.matrix(2, (1,)), chart2.matrix(1, (2,)))
    draft = sdym.SdymRewriter._uncertified(chart2, rew.lax, {(2, (1,)): loop})
    with pytest.raises(AssertionError, match="does not lower the rank"):
        draft._certify()


def test_scheme_directions_commute(chart2):
    rng = random.Random(67)
    scheme = sdym.SdymScheme(chart2)
    pool = [chart2.entry(i, p, q) for i in (1, 2, 3, 4) for p in (1, 2) for q in (1, 2)]
    for _ in range(4):
        e = ZERO
        for _ in range(2):
            e = e + rng.randint(-2, 2) * rng.choice(pool) * rng.choice(pool)
        for i in (1, 2, 3):
            for j in (i + 1, 4):
                a = total_derivative(scheme, i, total_derivative(scheme, j, e))
                b = total_derivative(scheme, j, total_derivative(scheme, i, e))
                assert a == b


def test_sigma_is_a_homomorphism():
    rng = random.Random(71)
    for k in (1, 2, 3):
        chart = sdym.MatChart(k)
        ws = [chart.w(p) for p in range(1, k + 1)]
        for _ in range(6):
            X = [[const(rng.randint(-3, 3)) for _ in range(k)] for _ in range(k)]
            Y = [[const(rng.randint(-3, 3)) for _ in range(k)] for _ in range(k)]
            sx = sdym.sigma_field(chart, X)
            sy = sdym.sigma_field(chart, Y)
            sxy = sdym.sigma_field(chart, sdym.mat_bracket(X, Y))
            for p in range(1, k + 1):
                # [sigma(X), sigma(Y)](w_p) via the w-partials
                comm = ZERO
                for q in range(1, k + 1):
                    comm = comm + sx[q] * sy[p].partial(chart.w(q))
                    comm = comm - sy[q] * sx[p].partial(chart.w(q))
                assert comm == sxy[p]


def test_flatrep_abelian_at_zero():
    rep = sdym.build_flatrep(1, Fraction(0))
    chart = rep.chart
    assert rep.spec.a(1, 5) == -Expr.wrap(chart.entry(1, 1, 1)) * chart.w(1)
    assert flatrep.check_flat_rep(rep.spec).verdict == "pass"


def test_flatrep_k2_flat_for_symbolic_lambda(rep2):
    assert flatrep.check_flat_rep(rep2.spec).verdict == "pass"


def test_gauge_symmetry_requires_rewriting(rep2):
    scheme = rep2.scheme
    phi = sdym.gauge_symmetry(scheme, rep2.chart.matrix(1))
    from flatconn.jets import evolutionary_apply

    free = FreeJet(4, rep2.chart.m)
    raw = [
        sdym.mat_map(m, lambda e: evolutionary_apply(free, list(phi), e))
        for m in sdym.lambda_expand(2)
    ]
    assert any(not e.is_zero() for m in raw for row in m for e in row)
    for m in sdym.gauge_symmetry_residuals(scheme, phi):
        assert sdym.mat_is_zero(m)


def test_gauge_symmetry_classical_and_constant(rep2):
    scheme = rep2.scheme
    # H = H(x): classical gauge symmetry
    h = [[x(1) * x(2), Expr.wrap(x(3))], [ZERO, Expr.wrap(x(4)) ** 2]]
    for m in sdym.gauge_symmetry_residuals(scheme, sdym.gauge_symmetry(scheme, h)):
        assert sdym.mat_is_zero(m)
    # constant H in the abelian case gives the zero symmetry
    ch1 = sdym.MatChart(1)
    sch1 = sdym.SdymScheme(ch1)
    phi = sdym.gauge_symmetry(sch1, [[const(5)]])
    assert all(e.is_zero() for e in phi)


def test_verify_ugh_verdicts():
    assert sdym.verify_ugh(1, "a1").verdict == "pass"
    assert sdym.verify_ugh(2, "const").verdict == "pass"
    assert sdym.verify_ugh(2, "a1").verdict == "pass"
    bad = sdym.verify_ugh(2, "a1", witness="square")
    assert bad.verdict == "fail"


def test_lambda_family_cocycle_closed_and_not_exact(rep2):
    res = flatrep.infinitesimal_deformation(rep2.spec, param("lam"))
    assert res.report.verdict == "pass"
    chart = rep2.chart
    # the cocycle is C1(d3 + sigma(A3)) dx1 + C1(d4 + sigma(A4)) dx2
    assert res.cocycle[(1, 3)] == Expr.wrap(const(1))
    assert res.cocycle[(2, 4)] == Expr.wrap(const(1))
    for p in (1, 2):
        assert res.cocycle[(1, 4 + p)] == sdym.sigma_field(chart, chart.matrix(3))[p]
        assert res.cocycle[(2, 4 + p)] == sdym.sigma_field(chart, chart.matrix(4))[p]
    pool = [x(i) for i in (1, 2, 3, 4)] + [chart.w(p) for p in (1, 2)]
    for alpha in range(1, chart.m + 1):
        pool.append(jet(alpha, ()))
        for d in (1, 2, 3, 4):
            s = jet(alpha, (d,))
            if not rep2.scheme.rewriter.reducible(s):
                pool.append(s)
    ansatz = AnsatzSpec(symbols=tuple(pool), degree=2)
    assert flatrep.exactness_test(res.base, res.cocycle, ansatz) is None
