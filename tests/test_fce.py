import itertools
import random
import re

import pytest

from flatconn.expr import KIND_FC, Expr, const, fc, jet, param, render, v, x, ZERO, ONE
from flatconn import fce, flatrep, jets
from flatconn.jets import Cochain
from flatconn.linsolve import AnsatzSpec
from helpers import (
    dfc_reference, fc_pool, fc_symbols, leibniz_reference, prolong_reference, rand_expr,
    total_symbol_peel_last,
)

# An out-of-chart fiber index, an out-of-chart direction and a jet symbol,
# none of which belongs to the (2, 2) chart.
FOREIGN = (fc(3, (1,)), x(3), jet(1, (1,)))


@pytest.fixture
def ch():
    return fce.FcChart(2, 1)


@pytest.fixture
def ch2():
    return fce.FcChart(2, 2)


def test_fc_vertical_examples(ch2):
    assert fce.fc_vertical(ch2, 1, Expr.wrap(v(1))) == ONE
    assert fce.fc_vertical(ch2, 1, Expr.wrap(v(2))).is_zero()
    assert fce.fc_vertical(ch2, 2, Expr.wrap(fc(1, (1,), ()))) == fc(1, (1,), (2,)) + ZERO
    s = fc(1, (2,), ())
    assert fce.fc_vertical(ch2, 1, s ** 2) == 2 * s * fc(1, (2,), (1,))
    with pytest.raises(ValueError):
        fce.fc_vertical(ch2, 3, Expr.wrap(v(1)))


def test_fc_total_examples(ch):
    assert fce.fc_total(ch, 1, Expr.wrap(v(1))) == fc(1, (1,), ()) + ZERO
    assert fce.fc_total(ch, 1, Expr.wrap(fc(1, (2,), ()))) == fc(1, (1, 2), ()) + ZERO
    got = fce.fc_total(ch, 1, Expr.wrap(fc(1, (2,), (1,))))
    assert got == fc(1, (1, 2), (1,)) - fc(1, (1,), (1,)) * fc(1, (2,), (1,))
    assert fce.fc_total(ch, 1, Expr.wrap(x(1))) == ONE
    assert fce.fc_total(ch, 1, Expr.wrap(x(2))).is_zero()
    with pytest.raises(ValueError):
        fce.fc_total(ch, 3, Expr.wrap(v(1)))
    # the memo of D_i on symbols depends on m, so the chart is frozen
    with pytest.raises(AttributeError, match="immutable"):
        ch.m = 2


def test_fc_total_well_defined(ch2):
    # the recursion peels A in an arbitrary order; answers must agree
    for s in fc_symbols(2, 2, 3, 3):
        for i in (1, 2):
            assert ch2.f_tables[i][s] == total_symbol_peel_last(ch2, i, s)


def test_fc_total_commutes_with_itself(ch2):
    rng = random.Random(19)
    pool = fc_pool(2, 2)
    for _ in range(6):
        f = rand_expr(rng, pool)
        a = fce.fc_total(ch2, 1, fce.fc_total(ch2, 2, f))
        b = fce.fc_total(ch2, 2, fce.fc_total(ch2, 1, f))
        assert a == b


def test_commutation_identity(ch2):
    # [D_i, D_{v^b}] = - sum_g v_i^{g,b} D_{v^g} on random functions
    rng = random.Random(20)
    pool = fc_pool(2, 2)
    for _ in range(6):
        f = rand_expr(rng, pool, terms=2)
        for i in (1, 2):
            for b in (1, 2):
                lhs = fce.fc_total(ch2, i, fce.fc_vertical(ch2, b, f)) - \
                    fce.fc_vertical(ch2, b, fce.fc_total(ch2, i, f))
                rhs = ZERO
                for g in (1, 2):
                    rhs = rhs - fc(g, (i,), (b,)) * fce.fc_vertical(ch2, g, f)
                assert lhs == rhs


def test_flatness_residual_examples():
    assert all(r.is_zero() for r in fce.flatness_residual(flatrep.connection(2, 1, {})))
    flat = flatrep.connection(2, 1, {(1, 1): Expr.wrap(x(2)), (2, 1): Expr.wrap(x(1))})
    assert all(r.is_zero() for r in fce.flatness_residual(flat))
    bent = flatrep.connection(2, 1, {(1, 1): Expr.wrap(v(1)), (2, 1): x(1) * v(1)})
    assert [render(r) for r in fce.flatness_residual(bent)] == ["v1"]


def test_connection_spec_rejects_fc_coefficients():
    with pytest.raises(ValueError):
        flatrep.connection(2, 1, {(1, 1): Expr.wrap(fc(1, (1,), ()))})
    with pytest.raises(ValueError, match="^coefficient a_3\\^1 outside the chart of 2 base and "
                       "1 fiber directions$"):
        flatrep.connection(2, 1, {(3, 1): Expr.wrap(v(1))})


def test_connection_spec_is_judged_by_the_fc_chart_rule():
    # A connection is judged by its own chart, the jet-free base of n
    # independents extended by the m fibers v^a, in the scheme's words: an
    # fc coordinate and a jet are foreign to it, and so are a fiber and an
    # independent past m and n.
    for s, msg in [(fc(1, (1,), ()), "symbol v[1;1;] is foreign to the chart"),
                   (jet(1, (1,)), "symbol u[1] is foreign to the chart"),
                   (v(2), "symbol v2 is foreign to the chart"),
                   (x(3), "independent x3 outside chart")]:
        with pytest.raises(ValueError, match="^%s$" % re.escape(msg)):
            flatrep.connection(2, 1, {(1, 1): Expr.wrap(s) + x(1)})
    spec = flatrep.connection(2, 2, {(2, 2): x(2) * v(2) + param("lam")})
    assert render(spec.a(2, 4)) == "lam + x2*v2"


def test_connection_spec_is_a_frozen_record():
    # Its fields used to be open to change behind its checks: a jet put in
    # coeffs was then read as a constant by flatness_residual.
    spec = flatrep.connection(2, 1, {(1, 1): Expr.wrap(x(2)), (2, 1): Expr.wrap(x(1))})
    for name in ("scheme", "base_dirs", "fiber_dirs", "coeffs"):
        with pytest.raises(AttributeError, match="immutable"):
            setattr(spec, name, 3)
    with pytest.raises(TypeError):
        spec.coeffs[(1, 3)] = Expr.wrap(jet(1, (1,)))
    assert (spec.base_dirs, spec.fiber_dirs) == ((1, 2), (3,))
    assert [spec.scheme.indep(d) for d in (1, 2, 3)] == [x(1), x(2), v(1)]
    assert spec.coeffs == {(1, 3): Expr.wrap(x(2)), (2, 3): Expr.wrap(x(1))}
    assert [render(r) for r in fce.flatness_residual(spec)] == ["0"]


def test_dfc_constant_cochain(ch2):
    # d(1 (x) D_{v^1}) = - sum_{i,b} v_i^{b,1} dx_i (x) D_{v^b}
    c = fce.cochain0(ch2, [ONE, ZERO])
    image = fce.dfc(c)
    for i in (1, 2):
        for b in (1, 2):
            assert image.component((i,), b) == -Expr.wrap(fc(b, (i,), (1,)))


def test_dfc_matches_spec_coordinates(ch):
    cv = fce.cochain0(ch, [Expr.wrap(v(1))])
    image = fce.dfc(cv)
    for i in (1, 2):
        assert image.component((i,), 1) == \
            fc(1, (i,), ()) - fc(1, (i,), (1,)) * v(1)


def test_dfc_squared_zero_random(ch2):
    rng = random.Random(21)
    pool = fc_pool(2, 2, max_i=2, max_a=1)
    for _ in range(15):
        c0 = fce.cochain0(ch2, [rand_expr(rng, pool), rand_expr(rng, pool)])
        assert fce.dfc(fce.dfc(c0)).is_zero()
        c1 = fce.cochain1(ch2, {
            ((1,), 1): rand_expr(rng, pool), ((2,), 2): rand_expr(rng, pool),
        })
        assert fce.dfc(fce.dfc(c1)).is_zero()


def test_dfc_matches_hand_written_formula(ch2):
    # dfc through the one cochain differential against the explicit formula,
    # so that a sign slip in the twist v_i^{b,a} f (b != a included) fails.
    rng = random.Random(23)
    pool = fc_pool(2, 2, max_i=2, max_a=1)

    def total(i, f):
        return fce.fc_total(ch2, i, f)

    for _ in range(10):
        c0 = fce.cochain0(ch2, [rand_expr(rng, pool), rand_expr(rng, pool)])
        c1 = fce.cochain1(ch2, {
            ((i,), a): rand_expr(rng, pool) for i in (1, 2) for a in (1, 2)})
        for c in (c0, c1, fce.cochain0(ch2, [ZERO, rand_expr(rng, pool)])):
            want = dfc_reference(c, total)
            assert want
            assert fce.dfc(c).data == want
    # a top-degree cochain has a zero image
    c2 = fce.Cochain(ch2, 2, {((2, 1), 1): rand_expr(rng, pool)})
    assert fce.dfc(c2).is_zero() and dfc_reference(c2, total) == {}


def test_zero_acyclicity_spot_check(ch2):
    rng = random.Random(22)
    pool = fc_pool(2, 2, max_i=2, max_a=1)
    done = 0
    while done < 50:
        q = fce.cochain0(ch2, [rand_expr(rng, pool), rand_expr(rng, pool)])
        if q.is_zero():
            continue
        assert not fce.dfc(q).is_zero()
        done += 1


def test_symmetry_from_f_examples(ch2):
    e1 = fce.cochain0(ch2, [ONE, ZERO])
    phi = fce.symmetry_from_f(ch2, e1)
    for i in (1, 2):
        for a in (1, 2):
            assert phi.component((i,), a) == -Expr.wrap(fc(a, (i,), (1,)))
    zero = fce.cochain0(ch2, [ZERO, ZERO])
    assert fce.symmetry_from_f(ch2, zero).is_zero()


def test_is_symmetry(ch):
    rng = random.Random(24)
    pool = fc_pool(2, 1, max_i=1, max_a=1)
    f = fce.cochain0(ch, [rand_expr(rng, pool)])
    assert fce.is_symmetry(ch, fce.symmetry_from_f(ch, f)).verdict == "pass"
    # phi_i = v_i^{1,0} is not a symmetry: the image carries v_i^{1,1} v_j^{1,0} terms
    bad = fce.cochain1(ch, {
        ((1,), 1): Expr.wrap(fc(1, (1,), ())),
        ((2,), 1): Expr.wrap(fc(1, (2,), ())),
    })
    rep = fce.is_symmetry(ch, bad)
    assert rep.verdict == "fail"
    expected = (
        fc(1, (2,), (1,)) * fc(1, (1,), ()) - fc(1, (1,), (1,)) * fc(1, (2,), ())
    )
    assert fce.dfc(bad).component((1, 2), 1) == expected
    assert fce.is_symmetry(ch, fce.cochain1(ch, {})).verdict == "pass"


def test_component_reads_any_order_of_its_key_and_refuses_what_the_constructor_refuses():
    # The constructor stores each key sorted with its sign; the reader sorts
    # the key it is given the same way, and refuses a key off the complex
    # in the constructor's words, where it used to read 0.
    ch = fce.FcChart(2, 1)
    d = fce.cochain1(ch, {((1,), 1): x(2) * v(1)}).d
    comp = d.component((1, 2), 1)
    assert comp == x(2) * v(1) * fc(1, (2,), (1,)) - x(2) * fc(1, (2,), ()) - v(1)
    assert d.component((2, 1), 1) == -comp
    assert d.component((1, 1), 1) == ZERO
    with pytest.raises(ValueError, match=r"^fiber index 7 out of range 1\.\.1$"):
        d.component((1, 2), 7)
    with pytest.raises(jets.DirectionError, match=r"^direction 3 out of range 1\.\.2$"):
        d.component((1, 3), 1)
    with pytest.raises(ValueError, match=r"^key \(1,\) does not match degree 2$"):
        d.component((1,), 1)
    c0 = fce.cochain0(ch, [x(1)])
    assert c0.component((), 1) == Expr.wrap(x(1))
    with pytest.raises(ValueError, match=r"^fiber index 2 out of range 1\.\.1$"):
        c0.component((), 2)


def test_recover_f_round_trip(ch2):
    rng = random.Random(25)
    pool = fc_pool(2, 2, max_i=1, max_a=1)
    for _ in range(10):
        f = fce.cochain0(ch2, [rand_expr(rng, pool, terms=2), rand_expr(rng, pool, terms=2)])
        phi = fce.symmetry_from_f(ch2, f)
        assert fce.recover_f(ch2, phi) == f


def test_recover_f_named_examples(ch2):
    # product of the two fiber coordinates
    f = fce.cochain0(ch2, [v(1) * v(2), ZERO])
    assert fce.recover_f(ch2, fce.symmetry_from_f(ch2, f)) == f
    # the constant section e1 from its cocycle -v_i^{a,1}
    phi = fce.cochain1(ch2, {
        ((i,), a): -Expr.wrap(fc(a, (i,), (1,))) for i in (1, 2) for a in (1, 2)
    })
    got = fce.recover_f(ch2, phi)
    assert got == fce.cochain0(ch2, [ONE, ZERO])
    # zero is recovered uniquely
    assert fce.recover_f(ch2, fce.cochain1(ch2, {})) == fce.cochain0(ch2, [ZERO, ZERO])


def test_recover_f_rejects_non_cocycles(ch):
    bad = fce.cochain1(ch, {((1,), 1): Expr.wrap(fc(1, (1,), ()))})
    with pytest.raises(ValueError):
        fce.recover_f(ch, bad)


def test_default_recover_ansatz_pool_is_pinned(ch2):
    # x_i, v^a, the parameters, and every fiber-multi-index reduction of each
    # special coordinate of phi, sorted by Symbol.key; the degree is deg(phi).
    lam = param("lam")
    f = fce.cochain0(ch2, [lam * fc(1, (1,), (2,)) * v(2) + x(1) * fc(2, (2,), (1,)),
                           fc(2, (1,), (1,)) ** 2 + v(1)])
    phi = fce.symmetry_from_f(ch2, f)
    ans = fce.default_recover_ansatz(ch2, phi)
    assert ans.degree == 4
    assert " ".join(render(s) for s in ans.symbols) == (
        "lam x1 x2 v1 v2 v[1;1;] v[1;1;1] v[1;1;2] v[1;1,1;] v[1;1,1;2] v[1;1,2;] "
        "v[1;1,2;2] v[1;2;] v[1;2;1] v[1;2;2] v[2;1;] v[2;1;1] v[2;1;2] v[2;1,1;] "
        "v[2;1,1;1] v[2;1,2;] v[2;1,2;1] v[2;2;] v[2;2;1] v[2;2;2] v[2;2,2;] v[2;2,2;1]")
    assert fce.recover_f(ch2, phi) == f


def _parent_formula_pool(chart, s):
    """The default pool for a phi whose only symbol is the fc coordinate s,
    written out: x_i, v^a and v_I^{a,A'} for every sub-multiset A' of A."""
    subs = {tuple(sorted(c)) for k in range(len(s.aa) + 1)
            for c in itertools.combinations(s.aa, k)}
    return {x(i) for i in chart.base_dirs} | {v(a) for a in chart.fiber_dirs} | {
        fc(s.index, s.ii, aa) for aa in subs}


def test_default_recover_ansatz_reads_reductions_from_the_chart_memo(monkeypatch):
    # Every fc coordinate of the (2, 2) chart with |I| <= 2 and |A| <= 3 gives
    # the pool of the written-out formula; its reductions are built once per
    # symbol, by fc(), and read from the chart's memo afterwards.
    chart = fce.FcChart(2, 2)
    multi = lambda k, top: [t for n in range(k + 1)
                            for t in itertools.combinations_with_replacement(range(1, top + 1), n)]
    coords = [fc(a, ii, aa) for a in chart.fiber_dirs for ii in multi(2, 2) if ii
              for aa in multi(3, 2)]
    assert len(coords) == 2 * 5 * 10
    phis = [Cochain(chart, 1, {((1,), 1): Expr.wrap(s)}) for s in coords]
    for s, phi in zip(coords, phis):
        want = AnsatzSpec(tuple(_parent_formula_pool(chart, s)), 1)
        assert fce.default_recover_ansatz(chart, phi) == want, render(s)
    assert set(chart._reduction_memo) == set(coords)
    built = []
    monkeypatch.setattr(fce, "fc", lambda *a: built.append(a) or fc(*a))
    again = [fce.default_recover_ansatz(chart, phi) for phi in phis]
    assert built == [] and len(chart._reduction_memo) == len(coords)
    assert [set(a.symbols) for a in again] == [_parent_formula_pool(chart, s) for s in coords]


def test_recover_f_builds_one_ansatz_spec_besides_the_default(ch2, monkeypatch):
    # The default spec serves degree deg(phi); one more spec serves
    # deg(phi) - 1, which is tried first.  At deg(phi) = 0 the default spec
    # is the only try.
    built, tried = [], []
    init, preimage = AnsatzSpec.__init__, fce.cochain_preimage
    monkeypatch.setattr(AnsatzSpec, "__init__",
                        lambda self, symbols, degree: built.append(degree) or
                        init(self, symbols, degree))
    monkeypatch.setattr(fce, "cochain_preimage",
                        lambda cx, target, ans: tried.append(ans.degree) or
                        preimage(cx, target, ans))
    f = fce.cochain0(ch2, [v(1) * v(2), ZERO])
    phi = fce.symmetry_from_f(ch2, f)
    assert fce.recover_f(ch2, phi) == f
    assert built == [3, 2] and tried == [2]
    del built[:], tried[:]
    assert fce.recover_f(ch2, fce.cochain1(ch2, {})) == fce.cochain0(ch2, [ZERO, ZERO])
    assert built == [0] and tried == [0]


def test_recover_f_bounded_no_is_bound_relative(ch):
    # force an ansatz too small to contain the true f
    f = fce.cochain0(ch, [v(1) ** 3])
    phi = fce.symmetry_from_f(ch, f)
    tiny = AnsatzSpec(symbols=(v(1),), degree=1)
    assert fce.recover_f(ch, phi, tiny) is None
    assert fce.recover_f(ch, phi) == f  # default bounds do contain it


def test_prolong_symmetry_examples(ch2):
    e1 = fce.cochain0(ch2, [ONE, ZERO])
    t1 = fc(1, (1,), ())
    t2 = fc(1, (1,), (2,))
    got = fce.prolong_symmetry(ch2, e1, [t1, t2])
    assert got[t1] == -Expr.wrap(fc(1, (1,), (1,)))
    assert got[t2] == -Expr.wrap(fc(1, (1,), (1, 2)))
    zero = fce.cochain0(ch2, [ZERO, ZERO])
    assert all(e.is_zero() for e in fce.prolong_symmetry(ch2, zero, [t1, t2]).values())
    with pytest.raises(ValueError):
        fce.prolong_symmetry(ch2, e1, [v(1)])


def test_prolong_symmetry_matches_reference(ch2):
    # The per-symbol memo extends the prefix of A; the reference applies
    # D_{v^b} for every b of A to the base coefficient, in order.
    rng = random.Random(28)
    pool = fc_pool(2, 2, max_i=1, max_a=1)
    targets = fc_symbols(2, 2, 2, 3)
    for _ in range(3):
        f = fce.cochain0(ch2, [rand_expr(rng, pool, terms=2), rand_expr(rng, pool, terms=2)])
        got = fce.prolong_symmetry(ch2, f, targets)
        assert list(got) == targets
        assert got == prolong_reference(ch2, f, targets)


def test_vertical_memo_is_owned_by_the_frozen_chart(ch2):
    # The D_{v^2} table belongs to the chart: the same table on every read
    # of the chart, which stores D_{v^2}(s) on the first read of s and
    # returns that object after; neither the chart's map of tables nor the
    # table's own field can be reassigned.
    s = fc(1, (2,), (1,))
    table = ch2._vertical[2]
    assert ch2._vertical[2] is table and s not in table
    got = table[s]
    assert got == Expr.wrap(fc(1, (2,), (1, 2)))
    assert table[s] is got and dict.get(table, s) is got
    with pytest.raises(AttributeError, match="immutable"):
        ch2._vertical = {}
    with pytest.raises(TypeError):
        ch2._vertical[2] = {}
    with pytest.raises(AttributeError, match="immutable"):
        table.beta = 1
    assert ch2._vertical[2] is table and table.beta == 2


@pytest.mark.parametrize("n, m", [(2, 2), (3, 2)])
def test_chart_tables_match_the_checked_path(n, m):
    # Each entry of the D_i and D_{v^b} tables equals the checked path on
    # every coordinate with |I| <= 3, |A| <= 3, on x_i and on v^a: D_i the
    # recursion that peels the last element of A, D_{v^b} the checked fc()
    # of the raised key.  Every symbol a table creates is the interned fc()
    # of its key, so no unsorted key makes a second symbol.
    chart = fce.FcChart(n, m)
    coords = fc_symbols(n, m, 3, 3)
    symbols = [x(i) for i in range(1, n + 1)] + [v(a) for a in range(1, m + 1)] + coords
    for s in symbols:
        for i in chart.base_dirs:
            assert chart.f_tables[i][s] == total_symbol_peel_last(chart, i, s), (i, render(s))
        for b in chart.fiber_dirs:
            want = Expr.wrap(fc(s.index, s.ii, s.aa + (b,))) if s.kind == KIND_FC else (
                ONE if s is v(b) else ZERO)
            assert chart._vertical[b][s] == want, (b, render(s))
    tables = list(chart.f_tables.values()) + list(chart._vertical.values())
    made = {t for table in tables for e in table.values() for t in e.symbols()}
    assert made - set(symbols)  # e.g. the |A| = 4 coordinates D_{v^b} raises to
    for t in made:
        if t.kind == KIND_FC:
            assert t is fc(t.index, t.ii, t.aa), render(t)


def test_cochain_is_immutable(ch2):
    f = fce.cochain0(ch2, [v(1), ZERO])
    phi = fce.symmetry_from_f(ch2, f)
    for c in (f, phi):
        for name, value in [("data", ()), ("degree", 3), ("complex", ch2), ("_d", None)]:
            with pytest.raises(AttributeError):
                setattr(c, name, value)
        with pytest.raises(AttributeError):
            del c.data
        with pytest.raises(AttributeError):
            c.memo = {}
    with pytest.raises(TypeError):
        phi.data[((1,), 1)] = ONE
    with pytest.raises(TypeError):
        fce.cochain1(ch2, {((1,), 1): v(2)}).data[((2,), 2)] = ONE
    assert phi == fce.cochain1(ch2, dict(phi.data))


def test_cochain_holds_its_differential(ch2):
    f = fce.cochain0(ch2, [v(1) * v(2), x(1) * fc(2, (2,), ())])
    d = fce.dfc(f)
    assert fce.dfc(f) is d
    assert fce.symmetry_from_f(ch2, f) is d
    assert fce.dfc(d) is fce.dfc(d)
    assert fce.dfc(d).is_zero()
    assert fce.dfc(fce.cochain0(ch2, f.data)) == d  # an equal cochain computes its own


def test_prolongations_reuse_the_differential_of_their_cochains(ch2, monkeypatch):
    # Each bracket0 and symmetry_action used to run symmetry_from_f afresh:
    # six differentials for these four calls, now one per cochain.
    f = fce.cochain0(ch2, [v(1) * v(2), x(1) * fc(2, (2,), ())])
    g = fce.cochain0(ch2, [Expr.wrap(fc(1, (1,), (2,))), v(1) ** 2])
    s = fc(1, (1, 2), (2,)) * v(2) + x(2)
    differential = jets.cochain_differential
    calls = []

    def counted(*args):
        calls.append(args)
        return differential(*args)

    monkeypatch.setattr(jets, "cochain_differential", counted)
    fg, gf = fce.bracket0(ch2, f, g), fce.bracket0(ch2, g, f)
    sf, sg = fce.symmetry_action(ch2, f, s), fce.symmetry_action(ch2, g, s)
    assert len(calls) == 2
    assert (fg, gf) == (fce.bracket0(ch2, f, g), fce.bracket0(ch2, g, f))
    assert (sf, sg) == (fce.symmetry_action(ch2, f, s), fce.symmetry_action(ch2, g, s))
    assert len(calls) == 2


def test_public_entries_reject_foreign_symbols(ch2):
    f = fce.cochain0(ch2, [ONE, ZERO])
    for s in FOREIGN:
        e = Expr.wrap(s)
        with pytest.raises(ValueError):
            fce.fc_total(ch2, 1, e)
        with pytest.raises(ValueError):
            fce.fc_vertical(ch2, 1, e)
        with pytest.raises(ValueError):
            fce.prolong_symmetry(ch2, f, [fc(1, (1,)), s])
        with pytest.raises(ValueError):
            fce.symmetry_action(ch2, f, e + v(1))


def test_recover_f_rejects_foreign_ansatz_symbols(ch2):
    phi = fce.symmetry_from_f(ch2, fce.cochain0(ch2, [v(1) * v(2), ZERO]))
    for s in FOREIGN:
        with pytest.raises(ValueError):
            fce.recover_f(ch2, phi, AnsatzSpec(symbols=(v(1), v(2), s), degree=2))


def test_cochain_of_another_chart_is_checked(ch, ch2):
    # A cochain built on one chart and used on another is checked against
    # the one it is used on.
    f = fce.cochain0(fce.FcChart(3, 1), [x(3) * v(1)])
    for bad in (f, fce.cochain0(ch2, [ONE, ZERO])):
        with pytest.raises(ValueError):
            fce.prolong_symmetry(ch, bad, [fc(1, (1,))])
        with pytest.raises(ValueError):
            fce.bracket0(ch, bad, bad)
        with pytest.raises(ValueError):
            fce.symmetry_from_f(ch, bad)
    with pytest.raises(ValueError):
        fce.is_symmetry(ch, fce.symmetry_from_f(ch2, fce.cochain0(ch2, [v(1), ZERO])))
    other = fce.FcChart(2, 1)
    g = fce.cochain0(other, [v(1) ** 2])
    assert fce.bracket0(ch, g, fce.cochain0(ch, [ONE])) == fce.cochain0(ch, [-2 * v(1)])
    phi = fce.symmetry_from_f(other, g)
    assert fce.recover_f(ch, phi) == fce.cochain0(ch, [v(1) ** 2])
    # A cochain from a chart with fewer fibers gains zero components.
    f, g = fce.cochain0(ch, [x(1) * v(1)]), fce.cochain0(ch2, [v(1), v(1) * v(2)])
    fg = fce.cochain0(ch2, [ZERO, x(1) * v(1) * v(2)])
    rebuilt = fce.cochain0(ch2, [x(1) * v(1), ZERO])
    assert fce.bracket0(ch2, f, g) == fg == fce.bracket0(ch2, rebuilt, g)
    assert fce.bracket0(ch2, g, f) == fce.cochain0(ch2, [ZERO, -x(1) * v(1) * v(2)])


def test_bracket0_examples(ch2):
    e1 = fce.cochain0(ch2, [ONE, ZERO])
    e2 = fce.cochain0(ch2, [ZERO, ONE])
    assert fce.bracket0(ch2, e1, e2).is_zero()
    f = fce.cochain0(ch2, [v(1) * v(2), x(1) * fc(2, (2,), ())])
    g = fce.cochain0(ch2, [Expr.wrap(fc(1, (1,), (2,))), v(1) ** 2])
    assert [render(e) for e in fce.bracket0(ch2, f, g).data] == [
        "-x1*v[1;1;2]*v[2;2;2] - v1^3 - v1*v[1;1;1] + v1*v[2;1;2] + v[1;1;]",
        "-2*x1*v1*v[1;2;] + 2*v1^2*v2",
    ]


def test_bracket0_v_against_one():
    ch = fce.FcChart(2, 1)
    f = fce.cochain0(ch, [Expr.wrap(v(1))])
    g = fce.cochain0(ch, [ONE])
    assert fce.bracket0(ch, f, g) == fce.cochain0(ch, [-ONE])


def test_bracket0_antisymmetry_and_jacobi(ch2):
    rng = random.Random(26)
    pool = fc_pool(2, 2, max_i=1, max_a=1)
    for _ in range(5):
        f, g, h = (
            fce.cochain0(ch2, [rand_expr(rng, pool, terms=2), rand_expr(rng, pool, terms=2)])
            for _ in range(3)
        )
        assert fce.bracket0(ch2, f, f).is_zero()
        fg, gf = fce.bracket0(ch2, f, g), fce.bracket0(ch2, g, f)
        assert all((a + b).is_zero() for a, b in zip(fg.data, gf.data))
        j = [
            fce.bracket0(ch2, f, fce.bracket0(ch2, g, h)),
            fce.bracket0(ch2, g, fce.bracket0(ch2, h, f)),
            fce.bracket0(ch2, h, fce.bracket0(ch2, f, g)),
        ]
        assert all((a + b + c).is_zero() for a, b, c in zip(*[t.data for t in j]))


def test_commutator_oracle(ch2):
    rng = random.Random(27)
    pool = fc_pool(2, 2, max_i=1, max_a=1)
    targets = [Expr.wrap(s) for s in [v(1), v(2)] + fc_symbols(2, 2, 2, 2)]
    for _ in range(2):
        f = fce.cochain0(ch2, [rand_expr(rng, pool, terms=2), rand_expr(rng, pool, terms=2)])
        g = fce.cochain0(ch2, [rand_expr(rng, pool, terms=2), rand_expr(rng, pool, terms=2)])
        fg = fce.bracket0(ch2, f, g)
        sf, sg = fce.Symmetry(ch2, f), fce.Symmetry(ch2, g)
        for s in targets:
            lhs = fce.symmetry_action(ch2, fg, s)
            rhs = sf.apply(sg.apply(s)) - sg.apply(sf.apply(s))
            assert lhs == rhs


def test_cochain_differential_matches_the_reference_formula(ch2):
    # The differential accumulates each component in one term map: against
    # the hand-written formula on 0-cochains, on their differentials (closed
    # 1-cochains, whose image cancels term by term, as in is_symmetry) and
    # on 1-cochains that are not closed; no component is kept at zero.
    rng = random.Random(31)
    pool = fc_pool(2, 2, max_i=2, max_a=1)

    def total(i, f):
        return fce.fc_total(ch2, i, f)

    for _ in range(10):
        c0 = fce.cochain0(ch2, [rand_expr(rng, pool), rand_expr(rng, pool)])
        c1 = fce.cochain1(ch2, {
            ((i,), a): rand_expr(rng, pool) for i in (1, 2) for a in (1, 2)})
        for c in (c0, c0.d, c1):
            got = jets.cochain_differential(c.items(), ch2)
            assert got == dfc_reference(c, total)
            assert all(e.terms and 0 not in e.terms.values() for e in got.values())
        assert jets.cochain_differential(c0.d.items(), ch2) == {}
        assert jets.cochain_differential(c1.items(), ch2)


def test_bracket0_is_the_difference_of_the_two_symmetry_actions(ch2):
    # {f,g}^a = (S_f + V_f)(g^a) - (S_g + V_g)(f^a), each action by the
    # definition of a derivation over Symmetry._image; and _image on a
    # symbol, with S_{ij}^a for |I| = 2, by its formula.
    rng = random.Random(32)
    pool = fc_pool(2, 2, max_i=2, max_a=1)
    for _ in range(8):
        f, g = (fce.cochain0(ch2, [rand_expr(rng, pool, terms=2), rand_expr(rng, pool, terms=2)])
                for _ in range(2))
        sf, sg = fce.Symmetry(ch2, f), fce.Symmetry(ch2, g)
        want = [leibniz_reference(ga, sf._image) - leibniz_reference(fa, sg._image)
                for fa, ga in zip(f.data, g.data)]
        assert list(fce.bracket0(ch2, f, g).data) == want
        for s in pool:
            img = sum((fb * fce.fc_vertical(ch2, b, Expr.wrap(s))
                       for b, fb in enumerate(f.data, 1)), ZERO)
            if s.kind == KIND_FC:
                img = img + sf._coefficient(s)
            assert sf._image(s) == img
        phi = f.d
        for a in (1, 2):
            for i, j in ((1, 1), (1, 2), (2, 2)):
                want = fce.fc_total(ch2, j, phi.component((i,), a)) + sum(
                    (fc(a, (i,), (b,)) * phi.component((j,), b) for b in (1, 2)), ZERO)
                assert sf._coefficient(fc(a, (i, j))) == want
