import itertools
import random
from fractions import Fraction

import pytest

from flatconn.expr import Expr, const, jet, param, render, x, y, ZERO
from flatconn.jets import Extended, FreeJet, total_derivative
from flatconn import flatrep, sdym


@pytest.fixture(scope="module")
def spec2():
    return sdym.build_flatrep(2, None)


def test_family_index_round_trip():
    for i in (1, 2, 3, 4):
        for p in (1, 2):
            for q in (1, 2):
                assert sdym.family(2, sdym.alpha(2, i, p, q)) == (i, p, q)


def test_lambda_expand_abelian():
    m0, m1, m2 = sdym.lambda_expand(1)
    free = FreeJet(4, 4)
    d = lambda j, i: total_derivative(free, j, sdym.matrix(1, i)[0][0])
    assert m0[0][0] == d(1, 2) - d(2, 1)
    assert m1[0][0] == d(1, 4) - d(4, 1) + d(3, 2) - d(2, 3)
    assert m2[0][0] == d(3, 4) - d(4, 3)


def test_lambda_expand_has_commutator_bilinears():
    m0, _, _ = sdym.lambda_expand(2)
    assert any(e.total_degree() == 2 for row in m0 for e in row)


def test_rewriter_kills_the_residuals():
    rew = sdym.SdymRewriter(2)
    for m in sdym.lambda_expand(2):
        assert all(rew.normalize(e).is_zero() for row in m for e in row)


def test_rewrite_rules_are_the_oriented_lax_equations():
    # The rules come from lambda_expand; here they are checked against the
    # right-hand sides written out by hand in the SdymRewriter docstring.
    for k in (1, 2):
        free = FreeJet(4, 4 * k * k)
        a1, a2, a3, a4 = (sdym.matrix(k, i) for i in (1, 2, 3, 4))
        d = lambda j, m: sdym.mat_map(m, lambda e: total_derivative(free, j, e))
        add, sub, br = sdym.mat_add, sdym.mat_sub, sdym.mat_bracket
        rules = sdym.SdymRewriter(k).rules
        assert rules[(2, (1,))] == sub(d(2, a1), br(a1, a2))
        assert rules[(4, (3,))] == sub(d(4, a3), br(a3, a4))
        assert rules[(4, (1,))] == sub(sub(add(d(4, a1), d(2, a3)), d(3, a2)),
                                       add(br(a1, a4), br(a3, a2)))


def test_rewriter_terminates_on_deep_jets():
    rew = sdym.SdymRewriter(2)
    deep = jet(sdym.alpha(2, 4, 1, 2), (1, 1, 3))
    out = rew.normalize(Expr.wrap(deep))
    assert all(not rew.reducible(s) for s in out.symbols())


def test_rewriter_empirical_confluence():
    # Uniqueness of normal forms is the certificate's job (the tests below);
    # here 50 seeded random expressions check that normalize is idempotent
    # and leaves no reducible symbol.
    rng = random.Random(61)
    rew = sdym.SdymRewriter(2)
    entry = lambda i, p, q, sigma=(): jet(sdym.alpha(2, i, p, q), sigma)
    pool = []
    for i in (1, 2, 3, 4):
        for p in (1, 2):
            for q in (1, 2):
                pool.append(entry(i, p, q))
                pool.append(entry(i, p, q, (rng.choice((1, 2, 3, 4)),)))
    pool.append(entry(4, 1, 1, (1, 3)))
    pool.append(entry(4, 2, 2, (1, 3)))
    pool.append(entry(2, 1, 2, (1, 1)))
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
    rew = sdym.SdymRewriter(k)  # raises if the certificate fails
    assert list(rew.rules) == [(2, (1,)), (4, (1,)), (4, (3,)), (3, (1, 4))]
    assert all(sdym.mat_is_zero(m) for m in rew._pairs())


@pytest.mark.parametrize("k", [1, 2])
def test_rewriter_match_scans_the_family_table(k):
    # The grouped table answers as a scan of the whole table in firing order,
    # keeping the first rule of the jet's family whose mu fits, on every jet
    # of order <= 3 and on one index outside the chart.
    rew = sdym.SdymRewriter(k)

    def scan(s):
        fam = sdym.family(k, s.index)[0]
        for (i, mu), r in rew.rules.items():
            rest = sdym._divide(s.sigma, mu) if i == fam else None
            if rest is not None:
                return r, rest
        return None

    sigmas = [()] + [tuple(sorted(c)) for n in (1, 2, 3)
                     for c in itertools.combinations_with_replacement((1, 2, 3, 4), n)]
    for index in range(1, 4 * k * k + 2):
        for sigma in sigmas:
            s = jet(index, sigma)
            assert rew._match(s) == scan(s), (index, sigma)
    assert rew._match(x(1)) is None
    with pytest.raises(TypeError):
        rew._by_index[1] = ()


def test_rewriter_certificate_fails_without_the_completion_rule():
    rew = sdym.SdymRewriter(2)
    three = {key: r for key, r in rew.rules.items() if key != (3, (1, 4))}
    draft = sdym.SdymRewriter._uncertified(2, rew.lax, three)
    with pytest.raises(AssertionError, match="critical pair"):
        draft._certify()


def test_rewriter_ranking_refuses_a_rule_that_keeps_its_own_jet():
    # d1 A2 -> d1 A2 + d2 A1 would rewrite forever; the ranking check runs
    # before any normalization and refuses it.
    rew = sdym.SdymRewriter(2)
    loop = sdym.mat_add(sdym.matrix(2, 2, (1,)), sdym.matrix(2, 1, (2,)))
    draft = sdym.SdymRewriter._uncertified(2, rew.lax, {(2, (1,)): loop})
    with pytest.raises(AssertionError, match="does not lower the rank"):
        draft._certify()


def test_scheme_directions_commute():
    rng = random.Random(67)
    scheme = sdym.SdymRewriter(2)
    pool = [e for i in (1, 2, 3, 4) for row in sdym.matrix(2, i) for e in row]
    for _ in range(4):
        e = ZERO
        for _ in range(2):
            e = e + rng.randint(-2, 2) * rng.choice(pool) * rng.choice(pool)
        for i in (1, 2, 3):
            for j in (i + 1, 4):
                a = total_derivative(scheme, i, total_derivative(scheme, j, e))
                b = total_derivative(scheme, j, total_derivative(scheme, i, e))
                assert a == b


def test_rewriter_refuses_a_jet_outside_its_chart():
    # The chart has 4 directions and 4 k^2 dependents; a jet off either is
    # refused as FreeJet refuses it, not taken as an internal coordinate.
    rew = sdym.SdymRewriter(1)
    with pytest.raises(ValueError, match=r"^jet symbol u\[5;\] outside chart$"):
        rew.derive_symbol(jet(1, (5,)), 1)
    with pytest.raises(ValueError, match=r"^jet symbol u5\[0\] outside chart$"):
        rew.derive_symbol(jet(5, ()), 2)
    assert rew.derive_symbol(jet(1, (4,)), 1) == Expr.wrap(jet(1, (1, 4)))


@pytest.mark.parametrize("k", [1, 2])
def test_rewriter_accepts_exactly_the_jets_no_rule_rewrites(k):
    # The internal coordinates are the normal-form jets: check_symbol accepts
    # a jet of order <= 2 exactly when normalize leaves it as it is.
    rew = sdym.SdymRewriter(k)
    verdicts = set()
    for a in range(1, rew.m + 1):
        for order in range(3):
            for sigma in itertools.combinations_with_replacement(range(1, 5), order):
                s = jet(a, sigma)
                try:
                    rew.check_symbol(s)
                    accepted = True
                except ValueError as err:
                    assert str(err) == "%s is not an internal coordinate" % render(s)
                    accepted = False
                assert accepted == (rew.normalize(s) == Expr.wrap(s)), render(s)
                verdicts.add(accepted)
    assert verdicts == {True, False}


def test_a_specialised_family_is_judged_without_deriving(monkeypatch):
    # build_flatrep(k, lam0) is the family's subs, whose coefficients the
    # chart judges by check_symbol: no D_i of any jet is computed.
    sdym.build_flatrep(2)
    calls = []
    derive = sdym.SdymRewriter._derive_jet
    monkeypatch.setattr(sdym.SdymRewriter, "_derive_jet",
                        lambda self, s, i: calls.append((s, i)) or derive(self, s, i))
    for n in range(10):
        sdym.build_flatrep(2, Fraction(n, 3))
    assert calls == []


def test_sigma_is_a_homomorphism():
    rng = random.Random(71)
    for k in (1, 2, 3):
        for _ in range(6):
            X = [[const(rng.randint(-3, 3)) for _ in range(k)] for _ in range(k)]
            Y = [[const(rng.randint(-3, 3)) for _ in range(k)] for _ in range(k)]
            sx = sdym.sigma_field(X)
            sy = sdym.sigma_field(Y)
            sxy = sdym.sigma_field(sdym.mat_bracket(X, Y))
            for p in range(1, k + 1):
                # [sigma(X), sigma(Y)](w_p) via the w-partials
                comm = ZERO
                for q in range(1, k + 1):
                    comm = comm + sx[q] * sy[p].partial(y(q))
                    comm = comm - sy[q] * sx[p].partial(y(q))
                assert comm == sxy[p]


def test_flatrep_abelian_at_zero():
    spec = sdym.build_flatrep(1, Fraction(0))
    assert spec.a(1, 5) == -sdym.matrix(1, 1)[0][0] * y(1)
    assert flatrep.check_flat_rep(spec).verdict == "pass"


def test_flatrep_k2_flat_for_symbolic_lambda(spec2):
    assert flatrep.check_flat_rep(spec2).verdict == "pass"


def test_gauge_symmetry_requires_rewriting(spec2):
    scheme = spec2.scheme.base
    phi = sdym.gauge_symmetry(scheme, sdym.matrix(2, 1))
    from flatconn.jets import evolutionary_apply

    free = FreeJet(4, scheme.m)
    raw = [
        sdym.mat_map(m, lambda e: evolutionary_apply(free, list(phi), e))
        for m in sdym.lambda_expand(2)
    ]
    assert any(not e.is_zero() for m in raw for row in m for e in row)
    for m in sdym.gauge_symmetry_residuals(scheme, phi):
        assert sdym.mat_is_zero(m)


def test_gauge_symmetry_classical_and_constant(spec2):
    scheme = spec2.scheme.base
    # H = H(x): classical gauge symmetry
    h = [[x(1) * x(2), Expr.wrap(x(3))], [ZERO, Expr.wrap(x(4)) ** 2]]
    for m in sdym.gauge_symmetry_residuals(scheme, sdym.gauge_symmetry(scheme, h)):
        assert sdym.mat_is_zero(m)
    # constant H in the abelian case gives the zero symmetry
    sch1 = sdym.SdymRewriter(1)
    phi = sdym.gauge_symmetry(sch1, [[const(5)]])
    assert all(e.is_zero() for e in phi)


def test_verify_ugh_verdicts():
    assert sdym.verify_ugh(1, "a1").verdict == "pass"
    assert sdym.verify_ugh(2, "const").verdict == "pass"
    assert sdym.verify_ugh(2, "a1").verdict == "pass"
    bad = sdym.verify_ugh(2, "a1", witness="square")
    assert bad.verdict == "fail"


def test_verify_ugh_refuses_unknown_witness(monkeypatch):
    built = []
    monkeypatch.setattr(sdym, "build_flatrep", lambda *a: built.append(a))
    for witness in ("sigam", "Square", ""):
        with pytest.raises(ValueError, match="witness must be 'sigma' or 'square'"):
            sdym.verify_ugh(1, "a1", witness=witness)
    assert built == []  # refused before any work


def test_one_symbolic_family_per_k(spec2):
    assert sdym.build_flatrep(2) is spec2
    assert sdym.build_flatrep(1) is not spec2
    # a rational lambda gives a new spec on every call, over the family's
    # scheme: the rewriter is spec.scheme.base and lambda is spec.a(1, 3)
    at_one = sdym.build_flatrep(2, Fraction(1))
    assert at_one is not sdym.build_flatrep(2, Fraction(1))
    assert at_one.scheme is spec2.scheme and at_one.a(1, 3) == const(1)
    assert isinstance(spec2.scheme.base, sdym.SdymRewriter) and spec2.a(1, 3) == param("lam")


@pytest.mark.parametrize("k", [1, 2])
def test_family_at_lambda_is_the_family_substituted(k):
    # The family at a rational lambda is the symbolic family's subs; it
    # agrees with the connection written out at that lambda, on its
    # coefficients and its rendered flatness residuals.
    family = sdym.build_flatrep(k)
    rewriter = family.scheme.base
    for lam0 in (Fraction(0), Fraction(1), Fraction(-3, 2)):
        lam = const(lam0)
        coeffs = {(1, 3): lam, (2, 4): lam}
        for i in (1, 2):
            m = sdym.mat_add(sdym.matrix(k, i), sdym.mat_map(sdym.matrix(k, i + 2),
                                                             lambda e: lam * e))
            coeffs.update({(i, 4 + p): e for p, e in sdym.sigma_field(m).items()})
        written = flatrep.FlatRepSpec(Extended(rewriter, k), (1, 2),
                                      (3, 4) + tuple(range(5, 5 + k)), coeffs)
        for spec in (sdym.build_flatrep(k, lam0), family.subs({param("lam"): lam})):
            assert spec.scheme is family.scheme and spec.scheme.base is rewriter
            assert spec.a(1, 3) == lam
            assert (spec.base_dirs, spec.fiber_dirs) == (written.base_dirs, written.fiber_dirs)
            assert dict(spec.coeffs) == {key: e for key, e in coeffs.items() if not e.is_zero()}
            assert [render(r) for r in spec.flatness_residuals] == \
                [render(r) for r in written.flatness_residuals]
        assert written.is_flat


def test_rewriter_is_certified_once_per_k(monkeypatch):
    certify = sdym.SdymRewriter._certify
    made = []

    def counted(self):
        made.append(self.k)
        return certify(self)

    monkeypatch.setattr(sdym, "_FAMILIES", {})
    monkeypatch.setattr(sdym.SdymRewriter, "_certify", counted)
    for _ in range(2):
        sdym.build_flatrep(2)
        sdym.build_flatrep(2, Fraction(1, 2))
        assert sdym.verify_ugh(2, "const").ok
    assert made == [2]
    sdym.build_flatrep(1, Fraction(0))
    assert sdym.verify_ugh(1, "a1").ok
    assert made == [2, 1]


def test_failed_build_interns_nothing(monkeypatch):
    # A third-order jet in the lambda^2 coefficient: the rule on d3 A4 no
    # longer lowers the rank.  Each call certifies again and fails again.
    expand = sdym.lambda_expand

    def bent(k):
        m0, m1, m2 = expand(k)
        return m0, m1, sdym.mat_add(m2, sdym.matrix(k, 4, (1, 1, 4)))

    monkeypatch.setattr(sdym, "_FAMILIES", {})
    monkeypatch.setattr(sdym, "lambda_expand", bent)
    for _ in range(2):
        with pytest.raises(AssertionError, match="does not lower the rank"):
            sdym.build_flatrep(1)
        assert sdym._FAMILIES == {}


def test_rep_refuses_assignment(spec2):
    with pytest.raises(AttributeError):
        spec2.coeffs = sdym.build_flatrep(2, Fraction(0)).coeffs
    with pytest.raises(AttributeError):
        spec2.scheme = sdym.build_flatrep(2, Fraction(0)).scheme


def test_lambda_family_cocycle_closed_and_not_exact(spec2):
    c = flatrep.infinitesimal_deformation(spec2, param("lam"))
    assert c.d.is_zero()
    # the cocycle is C1(d3 + sigma(A3)) dx1 + C1(d4 + sigma(A4)) dx2
    assert c.component((1,), 3) == Expr.wrap(const(1))
    assert c.component((2,), 4) == Expr.wrap(const(1))
    for p in (1, 2):
        assert c.component((1,), 4 + p) == sdym.sigma_field(sdym.matrix(2, 3))[p]
        assert c.component((2,), 4 + p) == sdym.sigma_field(sdym.matrix(2, 4))[p]
    # that it is not exact (bounded-no at w-degree 2) is acceptance criterion 8
