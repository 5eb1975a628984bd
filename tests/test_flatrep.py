import random
import re
from fractions import Fraction

import pytest

from flatconn.expr import Expr, const, fc, jet, param, render, v, x, y, ZERO, ONE
from flatconn.jets import (
    Base, Cochain, Evolution, FreeJet, d_sigma, evolutionary_apply, total_derivative)
from flatconn import fce, flatrep, sdym
from flatconn.kdv import build_kdv, miura_at
from flatconn.linsolve import AnsatzSpec
from flatconn.vforms import Derivation
from helpers import du_cochain1_reference, du_vertical_reference, rand_expr


def u(k):
    return jet(1, (1,) * k)


@pytest.fixture(scope="module")
def kdv():
    return build_kdv()


def pinned_ansatz(with_lam=False, degree=4, order=3):
    syms = [x(1), x(2), y(1)] + [u(k) for k in range(order + 1)]
    if with_lam:
        syms.append(param("lam"))
    return AnsatzSpec(symbols=tuple(syms), degree=degree)


def bent_miura(kdv):
    """The Miura spec with a_t perturbed by +y1: not flat."""
    spec = kdv.miura
    return flatrep.FlatRepSpec(
        spec.scheme, spec.base_dirs, spec.fiber_dirs,
        {(1, 3): spec.a(1, 3), (2, 3): spec.a(2, 3) + y(1)})


def test_check_flat_rep_examples(kdv):
    zero = flatrep.covering_to_flatrep(kdv.scheme, {(1, 1): ZERO, (2, 1): ZERO}, 1)
    assert flatrep.check_flat_rep(zero).verdict == "pass"
    assert flatrep.check_flat_rep(kdv.miura).verdict == "pass"
    bent = bent_miura(kdv)
    rep = flatrep.check_flat_rep(bent)
    assert rep.verdict == "fail"
    assert any(r != "0" for r in rep.residuals)
    # a spec cannot be changed behind its cached verdict
    with pytest.raises(TypeError):
        kdv.miura.coeffs[(1, 3)] = u(1) * y(1)
    with pytest.raises(AttributeError, match="immutable"):
        kdv.miura.coeffs = {}
    assert flatrep.check_flat_rep(kdv.miura).verdict == "pass"
    # each call builds its own report from the cached residuals
    first, second = flatrep.check_flat_rep(bent), flatrep.check_flat_rep(bent)
    assert first is not second
    first.task = "check-flat"
    assert second.task == "check-flatrep"
    with pytest.raises(ValueError):
        flatrep.pullback(bent, Expr.wrap(v(1)))
    with pytest.raises(ValueError):
        flatrep.exactness_test(bent, Cochain(bent, 1, {}), pinned_ansatz())
    with pytest.raises(ValueError):
        flatrep.lift_symmetry(bent, [kdv.symmetries["x-translation"]], pinned_ansatz())


def test_covering_to_flatrep_rejects_and_fails(kdv):
    # X_x = u0 d_y, X_t = 0 is not a covering of KdV: residual -D_t(u0) != 0
    spec = flatrep.covering_to_flatrep(kdv.scheme, {(1, 1): Expr.wrap(u(0)), (2, 1): ZERO}, 1)
    rep = flatrep.check_flat_rep(spec)
    assert rep.verdict == "fail"
    assert render(-(u(3) + 6 * u(0) * u(1))) in rep.residuals
    # X_x = y d_y, X_t = 0 is compatible (y_x = y, y_t = 0): genuinely flat
    triv = flatrep.covering_to_flatrep(kdv.scheme, {(1, 1): Expr.wrap(y(1)), (2, 1): ZERO}, 1)
    assert flatrep.check_flat_rep(triv).verdict == "pass"
    with pytest.raises(ValueError):
        flatrep.covering_to_flatrep(kdv.scheme, {(1, 1): Expr.wrap(v(1))}, 1)
    # a key off the chart, a fiber past the count or a direction past the
    # equation's, is refused in the words a connection's is
    for i, b in ((1, 2), (3, 1), (0, 1)):
        with pytest.raises(ValueError, match="^coefficient a_%d\\^%d outside the chart of 2 base "
                           "and 1 fiber directions$" % (i, b)):
            flatrep.covering_to_flatrep(kdv.scheme, {(i, b): ONE}, 1)


def test_covering_fields_are_judged_by_the_extended_scheme(kdv):
    # covering_to_flatrep checks only the keys of the coefficients; the spec's
    # scheme, KdV extended by y1, refuses what is foreign to its chart, and
    # the spec is refused when it is built, not when it is first used.
    for e, msg in [(x(3), "independent x3 outside chart"),
                   (jet(2, ()), "jet u2[0] is not spatial or outside chart"),
                   (u(1) + y(2), "symbol y2 is foreign to the chart"),
                   (v(1), "symbol v1 is foreign to the chart")]:
        with pytest.raises(ValueError, match="^%s$" % re.escape(msg)):
            flatrep.covering_to_flatrep(kdv.scheme, {(1, 1): Expr.wrap(e)}, 1)


def test_equal_specs_are_refused_alike_when_built(kdv):
    # v1 + x3 built in two term orders: equal Exprs whose symbols come in two
    # orders.  The scheme sees them in key order, so both specs are refused
    # at construction, with one message.
    a, b = Expr.wrap(v(1)) + x(3), Expr.wrap(x(3)) + v(1)
    assert a == b and list(a.symbols()) != list(b.symbols())
    for e in (a, b):
        with pytest.raises(ValueError, match=r"^independent x3 outside chart$"):
            flatrep.FlatRepSpec(kdv.miura.scheme, (1, 2), (3,), {(1, 3): e})


def test_pullback_examples(kdv):
    spec = kdv.miura
    assert flatrep.pullback(spec, Expr.wrap(fc(1, (1,), ()))) == spec.a(1, 3)
    assert flatrep.pullback(spec, Expr.wrap(fc(1, (1,), (1,)))) == 2 * y(1)
    assert flatrep.pullback(spec, Expr.wrap(v(1))) == Expr.wrap(y(1))


def test_pullback_is_a_morphism(kdv):
    rng = random.Random(51)
    spec = kdv.miura
    ch = fce.FcChart(2, 1)
    pool = [x(1), x(2), v(1)] + [
        fc(1, ii, aa)
        for ii in [(1,), (2,), (1, 1), (1, 2), (2, 2)]
        for aa in [(), (1,), (1, 1)]
    ]
    for _ in range(5):
        f = rand_expr(rng, pool, terms=2)
        for i in (1, 2):
            assert flatrep.pullback(spec, fce.fc_total(ch, i, f)) == \
                spec.f_apply(i, flatrep.pullback(spec, f))
        assert flatrep.pullback(spec, fce.fc_vertical(ch, 1, f)) == \
            total_derivative(spec.scheme, 3, flatrep.pullback(spec, f))


def test_pullback_judges_its_input_by_the_fc_chart_rule(kdv):
    # f lives on the fc chart of the split's size, (2, 1) for Miura, and is
    # refused in that chart's words.
    chart = fce.FcChart(2, 1)
    for s, msg in [(x(3), "independent x3 outside chart"),
                   (v(2), "fiber coordinate v2 outside chart"),
                   (fc(1, (1, 3), ()), "coordinate v[1;1,3;] outside chart"),
                   (fc(1, (1,), (2,)), "coordinate v[1;1;2] outside chart"),
                   (u(0), "symbol u[0] is foreign to the flat-connection chart")]:
        for refuse in (lambda: flatrep.pullback(kdv.miura, x(1) + s),
                       lambda: chart.check_symbol(s)):
            with pytest.raises(ValueError, match="^%s$" % re.escape(msg)):
                refuse()


def test_pullback_rejects_invalid_spec(kdv):
    bad = flatrep.covering_to_flatrep(kdv.scheme, {(1, 1): Expr.wrap(u(0)), (2, 1): ZERO}, 1)
    with pytest.raises(ValueError):
        flatrep.pullback(bad, Expr.wrap(v(1)))


def test_infinitesimal_deformation_miura(kdv):
    c = flatrep.infinitesimal_deformation(kdv.miura, kdv.lam)
    assert c.d.is_zero()
    assert c.component((1,), 3) == ONE
    assert c.component((2,), 3) == -(2 * u(0) + 8 * param("lam") + 4 * y(1) ** 2)
    # at a rational base point the lam disappears
    c0 = flatrep.infinitesimal_deformation(kdv.miura, kdv.lam, Fraction(0))
    assert c0.component((2,), 3) == -(2 * u(0) + 4 * y(1) ** 2)


def test_constant_family_has_zero_cocycle(kdv):
    c = flatrep.infinitesimal_deformation(kdv.miura, param("mu"))
    assert c.data == {}


def test_deformation_rejects_nonflat_family(kdv):
    bent = flatrep.FlatRepSpec(
        kdv.miura.scheme, kdv.miura.base_dirs, kdv.miura.fiber_dirs,
        {(1, 3): kdv.miura.a(1, 3) + param("lam") * y(1), (2, 3): kdv.miura.a(2, 3)},
    )
    with pytest.raises(ValueError):
        flatrep.infinitesimal_deformation(bent, param("lam"))


def test_exponential_of_vertical_field_is_trivial_to_first_order(kdv):
    # family a + eps [[V, U]] for V = y d_y keeps flatness to O(eps^2) and its
    # infinitesimal part is the trivial cocycle [[V, U]] = -d_U(V)
    spec = kdv.miura
    eps = param("_tst_eps")
    vfield = {3: Expr.wrap(y(1))}
    inf = {(i, d): -e for ((i,), d), e in flatrep.du_vertical(spec, vfield).items()}
    keys = set(spec.coeffs) | set(inf)
    fam = flatrep.FlatRepSpec(
        spec.scheme, spec.base_dirs, spec.fiber_dirs,
        {key: spec.a(*key) + eps * inf.get(key, ZERO) for key in keys},
    )
    assert not fam.is_flat
    for residual in fam.flatness_residuals:
        for deg, coeff in residual.collect(eps):
            assert deg >= 2, render(coeff)


def linear_kdv_covering(kdv):
    """The linear covering psi_x = A psi, psi_t = B psi of KdV behind the Miura
    covering (y = -psi_2/psi_1), on fibers y1, y2.  Its twist D_c(a_i^d) is
    the matrix of A or B, with off-diagonal entries, and A, B do not commute."""
    lam = kdv.lam
    u0, u1, u2 = u(0), u(1), u(2)
    fields = {
        (1, 1): Expr.wrap(y(2)), (1, 2): -(lam + u0) * y(1),
        (2, 1): -u1 * y(1) + (2 * u0 - 4 * lam) * y(2),
        (2, 2): -(u2 + 2 * u0 ** 2 - 2 * lam * u0 - 4 * lam ** 2) * y(1) + u1 * y(2),
    }
    return flatrep.covering_to_flatrep(kdv.scheme, fields, 2)


def test_f_apply_matches_derivation_route(kdv):
    # F_i built as a vforms.Derivation, the route f_apply replaced, on four
    # specs: one fiber, two coupled fibers, the SDYM family (a rewriting
    # scheme, three fibers) and a spec that is not flat.
    lam = kdv.lam
    kdv_pool = [x(1), x(2), y(1), u(0), u(1), u(2), lam]
    sdym_pool = [x(1), x(3), x(4), y(1), param("lam"), jet(1, ()), jet(2, ()), jet(3, ()),
                 jet(4, ()), jet(1, (1,)), jet(2, (2,)), jet(3, (1,)), jet(4, (4,))]
    specs = [
        (kdv.miura, kdv_pool),
        (linear_kdv_covering(kdv), kdv_pool + [y(2)]),
        (sdym.build_flatrep(1), sdym_pool),
        (bent_miura(kdv), kdv_pool),
    ]
    rng = random.Random(43)
    for spec, pool in specs:
        route = {i: Derivation(spec.scheme, {i: ONE, **{d: spec.a(i, d) for d in spec.fiber_dirs}})
                 for i in spec.base_dirs}
        want = []
        for k, i in enumerate(spec.base_dirs):
            for j in spec.base_dirs[k + 1:]:
                bracket = route[i].bracket(route[j])
                assert set(bracket.dirs) <= set(spec.fiber_dirs)
                want += [bracket.dirs.get(d, ZERO) for d in spec.fiber_dirs]
        assert spec.flatness_residuals == tuple(want)
        for _ in range(4):
            e = rand_expr(rng, pool, degree=3)
            for i in spec.base_dirs:
                assert spec.f_apply(i, e) == route[i].apply(e)
        with pytest.raises(ValueError):
            spec.f_apply(spec.fiber_dirs[0], e)
    assert not bent_miura(kdv).is_flat


def _same_fields(a, b):
    """Whether two specs have the same scheme, split, coefficients and repr."""
    return (a.scheme is b.scheme and a.base_dirs == b.base_dirs
            and a.fiber_dirs == b.fiber_dirs and dict(a.coeffs) == dict(b.coeffs)
            and repr(a) == repr(b))


def test_spec_stores_its_split_as_tuples(kdv):
    # A list used to be kept as passed: a fiber direction appended to it
    # went through, is_flat answered from the old split, and twist failed.
    m = kdv.miura
    s = flatrep.FlatRepSpec(m.scheme, [1, 2], [3], dict(m.coeffs))
    assert (s.base_dirs, s.fiber_dirs) == ((1, 2), (3,))
    with pytest.raises(AttributeError):
        s.fiber_dirs.append(4)
    assert s.is_flat and s.twist == m.twist


def test_spec_compares_and_hashes_by_identity(kdv):
    # A spec is a complex with its own memos, which Cochain.on tells apart by
    # identity; equality and hashing follow it.
    spec = kdv.miura
    twin = spec.subs({})
    assert _same_fields(spec, twin)
    assert spec != twin and spec == spec
    assert hash(spec) == hash(spec) and len({spec, twin}) == 2


def test_f_images_are_memoised_on_the_spec(kdv, monkeypatch):
    base = kdv.miura
    spec = flatrep.FlatRepSpec(base.scheme, base.base_dirs, base.fiber_dirs, dict(base.coeffs))
    # the scheme is immutable, so the spy goes on its class
    scheme = spec.scheme
    derive = type(scheme).derive_symbol
    calls = []

    def counted(self, s, i):
        if self is scheme:
            calls.append((s, i))
        return derive(self, s, i)

    monkeypatch.setattr(type(scheme), "derive_symbol", counted)
    e = u(2) * y(1) + x(1) * u(0) ** 2
    first = [spec.f_apply(i, e) for i in spec.base_dirs]
    made = len(calls)
    for _ in range(3):
        assert [spec.f_apply(i, e) for i in spec.base_dirs] == first
        assert spec.f_apply(1, e * e) == 2 * e * first[0]
    assert len(calls) == made
    # D_i(s) runs once per (i, s), and D_d(s) once per fiber direction d
    own = [(s, i) for s, i in calls if i in spec.base_dirs]
    assert len(own) == len(set(own)) == len(spec.base_dirs) * len(e.symbols())
    assert len(calls) == len(own) * (1 + len(spec.fiber_dirs))
    assert len(spec._f_memo) == len(own)
    # the memo is no part of the value, and a substituted spec starts afresh
    assert _same_fields(spec, base)
    fresh = flatrep.FlatRepSpec(base.scheme, base.base_dirs, base.fiber_dirs, dict(base.coeffs))
    assert _same_fields(spec, fresh) and not fresh._f_memo
    at_one = spec.subs({kdv.lam: const(1)})
    assert not at_one._f_memo and at_one.f_apply(1, e) == first[0].subs({kdv.lam: const(1)})


def test_specialisations_leave_the_scheme_memo_alone(kdv):
    # Specs fixed at many values of lambda share their extended scheme, KdV's
    # and SDYM's alike; each caches its own twist, so none writes into the
    # scheme's D_sigma memo (200 KdV values used to leave 400 entries there).
    family = sdym.build_flatrep(1)
    for scheme, at in ((kdv.miura.scheme, lambda lam: miura_at(kdv, lam)),
                       (family.scheme, lambda lam: sdym.build_flatrep(1, lam))):
        before = len(scheme._dsigma)
        for n in range(-20, 20):
            spec = at(Fraction(n, 3))
            assert spec.scheme is scheme and spec.twist and spec.is_flat
        assert len(scheme._dsigma) == before
    # the twist is still D_d(a_i^b) as d_sigma gives it
    spec = miura_at(kdv, Fraction(2))
    assert spec.twist == {(i, 3): ((3, d_sigma(spec.scheme, (3,), spec.a(i, 3))),)
                          for i in (1, 2)}


def test_connection_is_the_covering_of_a_base():
    # One constructor: the connection on R^n x R^m is the covering of
    # Base(n) by m fibers, with the same fibers, split and coefficients.
    for n, m, coeffs in ((1, 1, {}), (2, 1, {(1, 1): Expr.wrap(x(2)), (2, 1): Expr.wrap(x(1))}),
                         (2, 2, {(2, 2): x(2) * v(2) + param("lam"), (1, 1): v(1) * v(2)}),
                         (3, 2, {(3, 1): Expr.wrap(v(2)), (1, 2): ZERO})):
        a = flatrep.connection(n, m, coeffs)
        b = flatrep.covering_to_flatrep(Base(n), coeffs, m)
        assert a.scheme.fibers == b.scheme.fibers == tuple(v(k) for k in range(1, m + 1))
        assert (a.base_dirs, a.fiber_dirs) == (b.base_dirs, b.fiber_dirs) == (
            tuple(range(1, n + 1)), tuple(range(n + 1, n + m + 1)))
        assert dict(a.coeffs) == dict(b.coeffs) == {
            (i, n + c): e for (i, c), e in coeffs.items() if not e.is_zero()}


def test_du_matches_hand_written_formulas(kdv):
    spec = linear_kdv_covering(kdv)
    assert flatrep.check_flat_rep(spec).ok
    # zero entries of the twist are dropped: D_{y1}(y2) = 0
    assert spec.twist[(1, 3)] == ((4, -(kdv.lam + u(0))),)
    rng = random.Random(31)
    pool = [x(1), x(2), y(1), y(2), u(0), u(1), u(2), kdv.lam]
    for _ in range(6):
        vert = {3: rand_expr(rng, pool), 4: rand_expr(rng, pool)}
        want = du_vertical_reference(spec, vert)
        assert want and flatrep.du_vertical(spec, vert).data == want
        assert flatrep.du_vertical(spec, {4: vert[4]}).data == \
            du_vertical_reference(spec, {4: vert[4]})
        c = {((i,), d): rand_expr(rng, pool) for i in (1, 2) for d in (3, 4)}
        want = du_cochain1_reference(spec, c)
        assert want and flatrep.du_cochain1(spec, Cochain(spec, 1, c)).data == want


def test_du_squares_to_zero(kdv):
    # On one fiber, d_U with the opposite twist sign squares to zero as well
    # (the twist is a 1x1 matrix); the non-commuting twist of the linear
    # covering is what catches a sign slip.
    rng = random.Random(32)
    for spec, fibers in ((kdv.miura, (3,)), (linear_kdv_covering(kdv), (3, 4))):
        pool = [x(1), x(2), u(0), u(1), u(2), kdv.lam] + [y(d - 2) for d in fibers]
        for _ in range(6):
            vert = {d: rand_expr(rng, pool, degree=3) for d in fibers}
            assert not flatrep.du_vertical(spec, vert).is_zero()
            assert flatrep.du_cochain1(spec, flatrep.du_vertical(spec, vert)).data == {}


def test_exactness_planted_witness(kdv):
    spec = kdv.miura
    cocycle = flatrep.du_vertical(spec, {3: Expr.wrap(y(1))})
    got = flatrep.exactness_test(spec, cocycle, pinned_ansatz(with_lam=True))
    assert got is not None
    # any witness differs from y d_y by a kernel element; re-substitution is
    # checked inside exactness_test, and here the kernel is trivial:
    assert dict(got.items()) == {((), 3): Expr.wrap(y(1))}
    zero = Cochain(spec, 1, {})
    assert dict(flatrep.exactness_test(spec, zero, pinned_ansatz(with_lam=True)).items()) == \
        {((), 3): ZERO}
    # Several fibers and an off-diagonal twist: the witness is read back per
    # fiber from one solve, with the twist coupling the fibers.
    spec = linear_kdv_covering(kdv)
    planted = {3: x(1) * y(2) + y(1), 4: u(0) * y(1)}
    c = flatrep.du_vertical(spec, planted)
    pool = (x(1), x(2), y(1), y(2), u(0), u(1), kdv.lam)
    got = flatrep.exactness_test(spec, c, AnsatzSpec(pool, 2))
    assert dict(got.items()) == {((), d): b for d, b in planted.items()}
    assert flatrep.exactness_test(spec, c, AnsatzSpec(pool[1:], 2)) is None


def test_miura_lambda_cocycle_not_exact_at_degree_4(kdv):
    c = flatrep.infinitesimal_deformation(kdv.miura, kdv.lam)
    ans = AnsatzSpec(symbols=(x(1), x(2), y(1), u(0), u(1), u(2)), degree=4)
    assert flatrep.exactness_test(c.complex, c, ans) is None


def test_exactness_rejects_non_closed(kdv):
    c = Cochain(kdv.miura, 1, {((1,), 3): Expr.wrap(y(1))})
    with pytest.raises(ValueError):
        flatrep.exactness_test(kdv.miura, c, pinned_ansatz())


def test_cochain_keyed_off_the_split_is_refused(kdv):
    # (1, 1) names fiber index 1, not the fiber direction 3; read as the zero
    # cochain it would pass as closed, with the false witness {3: 0}
    spec = kdv.miura
    with pytest.raises(ValueError, match=r"cochain component \(1, 1\) is off the split"):
        flatrep.exactness_test(spec, Cochain(spec, 1, {((1,), 1): Expr.wrap(y(1))}),
                               AnsatzSpec((x(1), y(1)), 1))
    with pytest.raises(ValueError, match=r"\(3, 3\)"):
        flatrep.du_cochain1(spec, Cochain(spec, 1, {((3,), 3): ZERO}))
    with pytest.raises(ValueError, match="component 1 is off the split"):
        flatrep.du_vertical(spec, {1: Expr.wrap(y(1))})
    assert flatrep.du_vertical(spec, {3: ZERO}).data == {}


def test_cochain_with_a_foreign_fc_symbol_is_refused_when_built(kdv):
    # The component's symbols are judged by the rule that judges the
    # coefficients, when the cochain is built, not when its differential is.
    with pytest.raises(ValueError, match="symbol v1 is foreign to the chart"):
        Cochain(kdv.miura, 1, {((1,), 3): v(1)})


def test_cochain_with_an_independent_outside_the_chart_is_refused_when_built(kdv):
    with pytest.raises(ValueError, match="independent x3 outside chart"):
        Cochain(kdv.miura, 0, {((), 3): x(3)})
    # the first symbol in key order is the one refused, in either term order
    for e in (v(1) + x(3), x(3) + v(1)):
        with pytest.raises(ValueError, match="independent x3 outside chart"):
            Cochain(kdv.miura, 1, {((2,), 3): e})


def test_empty_split_is_refused(kdv):
    # With no fiber (or no base) direction a spec has no fc chart to pull
    # back from; the refusal names the split.
    with pytest.raises(ValueError, match="number of fiber directions must be a positive int, got 0"):
        flatrep.FlatRepSpec(FreeJet(2, 1), (1, 2), ())
    with pytest.raises(ValueError, match="number of base directions must be a positive int, got 0"):
        flatrep.FlatRepSpec(FreeJet(2, 1), (), (1, 2))


def test_cochain_of_another_spec_is_checked(kdv):
    # A cochain built on one spec and used on another is checked against the
    # one it is used on: the linear covering has the fiber direction 4, the
    # Miura covering does not.
    wide = linear_kdv_covering(kdv)
    c = Cochain(wide, 1, {((1,), 3): Expr.wrap(y(1)), ((2,), 4): Expr.wrap(y(2))})
    with pytest.raises(ValueError, match=r"cochain component \(2, 4\) is off the split"):
        flatrep.exactness_test(kdv.miura, c, pinned_ansatz())
    with pytest.raises(ValueError, match=r"cochain component \(2, 4\) is off the split"):
        flatrep.du_cochain1(kdv.miura, c)
    # A cocycle of a family at a base point lives on that base point, not on
    # the family, and is tested there.
    c = flatrep.infinitesimal_deformation(kdv.miura, kdv.lam, Fraction(1))
    assert c.complex is not kdv.miura
    assert c.complex.coeffs == miura_at(kdv, Fraction(1)).coeffs
    ans = flatrep.default_ansatz(c.complex)
    assert ans.degree == 4 and len(ans.symbols) == 7
    assert flatrep.exactness_test(c.complex, c, ans) is None


def test_symmetry_cocycle_values_and_closedness(kdv):
    spec = kdv.miura
    phi = [Expr.wrap(u(1))]
    c = flatrep.symmetry_cocycle(spec, phi)
    assert c.component((1,), 3) == -evolutionary_apply(spec.scheme, phi, spec.a(1, 3))
    assert c.component((2,), 3) == -evolutionary_apply(spec.scheme, phi, spec.a(2, 3))
    assert c.component((1,), 3) == -Expr.wrap(u(1))
    for name in ("x-translation", "t-translation", "galilean"):
        cc = flatrep.symmetry_cocycle(spec, [kdv.symmetries[name]])
        assert flatrep.du_cochain1(spec, cc).is_zero()
    assert flatrep.symmetry_cocycle(spec, [ZERO]).data == {}
    with pytest.raises(ValueError):
        flatrep.symmetry_cocycle(spec, [Expr.wrap(u(0))])


def test_lift_x_translation_witness(kdv):
    lift = flatrep.lift_symmetry(
        kdv.miura, [kdv.symmetries["x-translation"]], pinned_ansatz(with_lam=True))
    assert dict(lift.items()) == {((), 3): param("lam") + u(0) + y(1) ** 2}


def test_lift_t_translation(kdv):
    lift = flatrep.lift_symmetry(
        kdv.miura, [kdv.symmetries["t-translation"]], pinned_ansatz(with_lam=True))
    assert dict(lift.items()) == {((), 3): kdv.miura.a(2, 3)}


def test_lift_galilean_bounded_no_at_lambda_1(kdv):
    spec = miura_at(kdv, Fraction(1))
    assert flatrep.lift_symmetry(spec, [kdv.symmetries["galilean"]], pinned_ansatz()) is None


def test_lift_scaling_verdicts(kdv):
    phi = [kdv.symmetries["scaling"]]
    got = flatrep.lift_symmetry(miura_at(kdv, Fraction(0)), phi, pinned_ansatz())
    expected = (
        y(1) + x(1) * (u(0) + y(1) ** 2)
        + 3 * x(2) * (u(2) + 2 * u(0) ** 2 + 2 * u(1) * y(1) + 2 * u(0) * y(1) ** 2)
    )
    assert dict(got.items()) == {((), 3): expected}
    assert flatrep.lift_symmetry(miura_at(kdv, Fraction(1)), phi, pinned_ansatz()) is None


def test_lifted_commutator_of_liftable_flows(kdv):
    # x- and t-translations commute; their bracket characteristic lifts trivially
    p1 = kdv.symmetries["x-translation"]
    p2 = kdv.symmetries["t-translation"]
    comm = evolutionary_apply(kdv.scheme, [p1], p2) - evolutionary_apply(kdv.scheme, [p2], p1)
    assert comm.is_zero()
    lift = flatrep.lift_symmetry(kdv.miura, [comm], pinned_ansatz(with_lam=True))
    assert dict(lift.items()) == {((), 3): ZERO}


def test_default_ansatz_refuses_a_scheme_that_is_not_an_evolution():
    # On SDYM the spatial jet u2[1] = d1 A2 is rewritten by the first rule,
    # so a pool of spatial jets is no pool of internal coordinates there.
    spec = sdym.build_flatrep(1)
    with pytest.raises(ValueError, match="requires an evolution scheme underneath"):
        flatrep.default_ansatz(spec)


def test_default_ansatz_refuses_an_order_that_is_no_int(kdv):
    # range() used to raise a bare TypeError on 1.5, and True was read as 1;
    # the degree bound is refused alike by AnsatzSpec.
    for order in (1.5, True, "2"):
        with pytest.raises(ValueError, match="^jet-order bound must be a nonnegative int, "
                           "got %s$" % re.escape(repr(order))):
            flatrep.default_ansatz(kdv.miura, order=order)
    ans = flatrep.default_ansatz(kdv.miura, order=0)
    assert {render(s) for s in ans.symbols} == {"x1", "x2", "y1", "lam", "u[0]"}


def test_default_ansatz_covers_the_data(kdv):
    ans = flatrep.default_ansatz(kdv.miura, [kdv.symmetries["scaling"]])
    names = {render(s) for s in ans.symbols}
    assert {"x1", "x2", "y1", "lam", "u[0]", "u[3]"} <= names
    assert ans.degree == 4
