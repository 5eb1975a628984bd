import random
import re
from types import SimpleNamespace

import pytest

from fractions import Fraction

from flatconn import fce, flatrep, sdym
from flatconn.expr import Expr, const, fc, jet, param, render, v, x, y, ZERO
from flatconn.jets import (
    Cochain, DirectionError, Evolution, Extended, FreeJet, _monomial_keys, _target_block,
    cochain_differential, cochain_preimage, d_sigma, evolutionary_apply, is_symmetry_evolution,
    total_derivative,
)
from flatconn.kdv import build_kdv, miura_at
from flatconn.linsolve import AnsatzSpec, solve_by_superposition
from helpers import fc_pool, rand_expr, spatial_jets, spy_solver


def u(k):
    return jet(1, (1,) * k)


def kdv_scheme():
    return Evolution(1, [u(3) + 6 * u(0) * u(1)])


def test_free_jet_rule():
    free = FreeJet(2, 1)
    assert total_derivative(free, 1, Expr.wrap(u(0) ** 2)) == 2 * u(0) * jet(1, (1,))
    assert total_derivative(free, 1, Expr.wrap(x(2))).is_zero()
    assert total_derivative(free, 2, Expr.wrap(x(2))) == const(1)
    with pytest.raises(DirectionError):
        total_derivative(free, 3, Expr.wrap(x(1)))


def test_kdv_time_derivatives():
    kdv = kdv_scheme()
    assert total_derivative(kdv, 2, Expr.wrap(u(0))) == u(3) + 6 * u(0) * u(1)
    assert total_derivative(kdv, 2, Expr.wrap(u(1))) == \
        u(4) + 6 * u(1) ** 2 + 6 * u(0) * u(2)


def test_scheme_commutativity_to_depth():
    rng = random.Random(2)
    kdv = kdv_scheme()
    free = FreeJet(2, 2)
    ext = Extended(kdv_scheme(), 1)
    pools = {
        kdv: spatial_jets(1, 4) + [x(1), x(2)],
        free: [jet(a, s) for a in (1, 2) for s in [(), (1,), (2,), (1, 2), (2, 2)]],
        ext: spatial_jets(1, 3) + [x(1), x(2), y(1)],
    }
    for scheme, pool in pools.items():
        for _ in range(8):
            f = rand_expr(rng, pool)
            for i in range(1, scheme.ndirs + 1):
                for j in range(i + 1, scheme.ndirs + 1):
                    a = total_derivative(scheme, i, total_derivative(scheme, j, f))
                    b = total_derivative(scheme, j, total_derivative(scheme, i, f))
                    assert a == b


def test_d_sigma_order_independent_and_memoized():
    kdv = kdv_scheme()
    f = Expr.wrap(u(0) * u(1))
    got = d_sigma(kdv, (1, 2), f)
    assert d_sigma(kdv, (2, 1), f) is got
    assert d_sigma(kdv, (), f) == f
    # D_t on u_k is D_x^k(F), served from the same memo
    assert kdv.derive_symbol(u(2), 2) is d_sigma(kdv, (1, 1), kdv.rhs[0])
    assert render(total_derivative(kdv, 2, u(1))) == "6*u[0]*u[2] + 6*u[1]^2 + u[4]"
    assert render(total_derivative(kdv, 2, u(2))) == "6*u[0]*u[3] + 18*u[1]*u[2] + u[5]"


def test_evolutionary_apply_examples():
    kdv = kdv_scheme()
    assert evolutionary_apply(kdv, [Expr.wrap(u(1))], Expr.wrap(u(0))) == Expr.wrap(u(1))
    assert evolutionary_apply(kdv, [Expr.wrap(u(1))], Expr.wrap(u(2))) == Expr.wrap(u(3))
    # D_x of the Galilean characteristic 1 + 6t u1 (t = x2, so D_x kills it)
    galilean = 1 + 6 * x(2) * u(1)
    assert evolutionary_apply(kdv, [galilean], Expr.wrap(u(1))) == 6 * x(2) * u(2)
    with pytest.raises(ValueError):
        evolutionary_apply(kdv, [galilean, galilean], Expr.wrap(u(0)))


def test_evolutionary_commutes_with_total_derivatives_free():
    rng = random.Random(4)
    free = FreeJet(2, 2)
    pool = [jet(a, s) for a in (1, 2) for s in [(), (1,), (2,), (1, 1)]]
    for _ in range(10):
        phi = [rand_expr(rng, pool, terms=2) for _ in range(2)]
        f = rand_expr(rng, pool, terms=3)
        for i in (1, 2):
            assert evolutionary_apply(free, phi, total_derivative(free, i, f)) == \
                total_derivative(free, i, evolutionary_apply(free, phi, f))


def test_symmetry_check_kdv():
    kdv = kdv_scheme()
    assert is_symmetry_evolution(kdv, [Expr.wrap(u(1))]).verdict == "pass"
    assert is_symmetry_evolution(kdv, [1 + 6 * x(2) * u(1)]).verdict == "pass"
    bad = is_symmetry_evolution(kdv, [Expr.wrap(u(0))])
    assert bad.verdict == "fail"
    assert bad.residuals == ["-6*u[0]*u[1]"]
    square = is_symmetry_evolution(kdv, [u(0) ** 2])
    assert square.verdict == "fail"
    assert square.residuals == ["-6*u[0]^2*u[1] - 6*u[1]*u[2]"]


def test_symmetry_check_agrees_with_commutator_form():
    # pass-verdict symmetries commute with D_t on internal coordinates
    rng = random.Random(6)
    kdv = kdv_scheme()
    for phi in (Expr.wrap(u(1)), 1 + 6 * x(2) * u(1), u(3) + 6 * u(0) * u(1)):
        f = rand_expr(rng, spatial_jets(1, 2) + [x(1), x(2)])
        a = evolutionary_apply(kdv, [phi], total_derivative(kdv, 2, f))
        b = total_derivative(kdv, 2, evolutionary_apply(kdv, [phi], f))
        assert a == b


def test_extended_scheme_fibers():
    ext = Extended(kdv_scheme(), 1)
    assert ext.ndirs == 3
    assert ext.indep(3) is y(1)
    assert total_derivative(ext, 3, Expr.wrap(u(2))).is_zero()
    assert total_derivative(ext, 3, Expr.wrap(y(1))) == const(1)
    assert total_derivative(ext, 1, Expr.wrap(y(1))).is_zero()


def test_extended_fiber_directions_refuse_what_the_base_refuses():
    # A fiber direction sends each base-chart symbol to 0, once the base has
    # checked it with the words a base direction uses.
    ext = Extended(FreeJet(2, 1), 1)
    for i in (1, 3):
        with pytest.raises(ValueError, match=r"^independent x7 outside chart$"):
            ext.derive_symbol(x(7), i)
        for s in (jet(2, ()), jet(1, (3,))):
            with pytest.raises(ValueError, match=r"^jet symbol .* outside chart$"):
                ext.derive_symbol(s, i)
        with pytest.raises(ValueError, match=r"^symbol v1 is foreign to the chart$"):
            ext.derive_symbol(v(1), i)
    for s in (x(2), jet(1, (1, 2)), param("lam")):
        assert ext.derive_symbol(s, 3) == ZERO
    with pytest.raises(ValueError, match="not spatial"):
        Extended(kdv_scheme(), 1).derive_symbol(jet(1, (2,)), 3)


@pytest.mark.parametrize("build", [
    lambda: FreeJet(2, 1), kdv_scheme, lambda: sdym.SdymRewriter(1),
], ids=["free-jet", "evolution", "sdym"])
def test_schemes_share_the_rules_off_their_jets(build):
    # DerivScheme states them once: direction i pairs with x_i, D_i x_j is
    # delta_ij up to ndirs, a parameter is a constant, and any other symbol
    # is refused, in one wording for every scheme.
    scheme = build()
    n = scheme.ndirs
    for i in (0, n + 1):
        with pytest.raises(DirectionError):
            scheme.indep(i)
        with pytest.raises(DirectionError):
            scheme.derive_symbol(x(1), i)
    for i in range(1, n + 1):
        assert scheme.indep(i) == x(i)
        assert scheme.derive_symbol(param("lam"), i) == ZERO
        for j in range(1, n + 1):
            assert scheme.derive_symbol(x(j), i) == (const(1) if i == j else ZERO)
        with pytest.raises(ValueError, match=r"^independent x%d outside chart$" % (n + 1)):
            scheme.derive_symbol(x(n + 1), i)
        for s in (y(1), v(1), fc(1, (1,), ())):
            with pytest.raises(ValueError, match=r"^symbol .* is foreign to the chart$"):
                scheme.derive_symbol(s, i)


def test_evolution_refuses_its_first_foreign_symbol_in_key_order():
    # The constructor checks every right-hand-side symbol by D_x, in key order.
    assert sorted([y(1), x(3)])[0] == x(3)
    with pytest.raises(ValueError, match=r"^independent x3 outside chart$"):
        Evolution(1, [y(1) + x(3)])
    with pytest.raises(ValueError, match="not spatial"):
        Evolution(1, [u(1) * jet(1, (2,))])
    with pytest.raises(ValueError, match="foreign to the chart"):
        Evolution(1, [u(0) + v(1)])


def test_evolution_judges_its_right_hand_sides_in_turn_without_deriving(monkeypatch):
    # Each right-hand side in turn, its symbols in key order: y1 of the first
    # is refused before x3 of the second, which comes first in key order.
    calls = []
    derive = Evolution._derive_jet
    monkeypatch.setattr(Evolution, "_derive_jet",
                        lambda self, s, i: calls.append((s, i)) or derive(self, s, i))
    assert sorted([y(1), x(3)])[0] == x(3)
    for rhs, msg in [([u(0) + y(1), x(3)], "symbol y1 is foreign to the chart"),
                     ([y(1) + jet(1, (2,)), x(3)], "jet u[2;] is not spatial or outside chart"),
                     ([u(0), jet(3, ()) + x(3)], "independent x3 outside chart"),
                     ([u(0), jet(3, ()) + x(2)], "jet u3[0] is not spatial or outside chart")]:
        with pytest.raises(ValueError, match="^%s$" % re.escape(msg)):
            Evolution(2, [Expr.wrap(e) for e in rhs])
    Evolution(2, [u(3) * jet(2, (1,)) + x(1), param("lam") * x(2)])
    assert calls == []


def scheme_complex(scheme, fibers, twist):
    """The complex over all directions of ``scheme`` with F_i = D_i, the
    given fibers and twist; a component is checked for its directions and
    fiber.  It carries the six names that a cochain reads from what it
    lives on, the packing memo of cochain_preimage among them."""
    def check(dirs, a, e):
        if a not in fibers:
            raise ValueError("fiber %r outside %r" % (a, fibers))
        for i in dirs:
            scheme.check_direction(i)
        return Expr.wrap(e)

    return SimpleNamespace(
        base_dirs=tuple(range(1, scheme.ndirs + 1)), fiber_dirs=tuple(fibers),
        f_symbol=lambda i, s: scheme.derive_symbol(s, i), twist=twist,
        check_component=check, _pack_memo={})


def horizontal(scheme):
    """The horizontal de Rham complex of ``scheme``: one trivial fiber 0 and
    no twist, so that the differential is d_h(f dx_I) = sum_i D_i(f) dx_i ^ dx_I."""
    return scheme_complex(scheme, (0,), {})


def test_d_h_examples():
    free = horizontal(FreeJet(2, 1))
    w0 = Cochain(free, 0, {((), 0): Expr.wrap(x(1))})
    assert w0.d.data == {((1,), 0): const(1)}

    kdv = horizontal(kdv_scheme())
    image = Cochain(kdv, 1, {((1,), 0): Expr.wrap(u(0))}).d
    # d_h(u0 dx) = D_t(u0) dt ^ dx = -(u3 + 6 u0 u1) dx ^ dt
    assert image.data == {((1, 2), 0): -(u(3) + 6 * u(0) * u(1))}


def test_d_h_squared_zero():
    rng = random.Random(8)
    for scheme, pool in (
        (kdv_scheme(), spatial_jets(1, 3) + [x(1), x(2)]),
        (FreeJet(2, 1), [jet(1, s) for s in [(), (1,), (2,), (1, 2)]] + [x(1)]),
    ):
        cx = horizontal(scheme)
        for _ in range(8):
            f = rand_expr(rng, pool)
            w = Cochain(cx, 0, {((), 0): f})
            assert w.d.d.is_zero()
            w1 = Cochain(cx, 1, {((1,), 0): f, ((2,), 0): rand_expr(rng, pool)})
            assert w1.d.d.is_zero()


def test_hform_sign_normalization():
    kdv = horizontal(kdv_scheme())
    a = Cochain(kdv, 2, {((2, 1), 0): Expr.wrap(u(0))})
    b = Cochain(kdv, 2, {((1, 2), 0): -Expr.wrap(u(0))})
    assert a == b
    assert Cochain(kdv, 2, {((1, 1), 0): Expr.wrap(u(0))}).is_zero()


@pytest.mark.parametrize("bad", [1.0, True, -1, "1", None])
def test_cochain_degree_is_an_int_of_at_least_zero(bad):
    # 1.0 used to give a cochain of degree 1.0 whose d had degree 2.0, and
    # True to be taken for 1.
    cx = horizontal(FreeJet(2, 1))
    with pytest.raises(ValueError, match="^cochain degree must be a nonnegative int, got %s$"
                       % re.escape(repr(bad))):
        Cochain(cx, bad, {((1,), 0): Expr.wrap(x(1))})
    chart = fce.FcChart(2, 1)
    c = Cochain(chart, 1, {((1,), 1): Expr.wrap(x(1))})
    assert type(c.degree) is int and c.d.degree == 2


def _preimage_problems():
    """(name, complex, pool) of three degree-0 inverse problems, each with a
    nonzero twist."""
    yield ("fc(2,2)", fce.FcChart(2, 2),
           AnsatzSpec((x(1), v(1), v(2), fc(1, (2,)), fc(2, (1,), (2,))), 2))
    yield ("miura", build_kdv().miura,
           AnsatzSpec((x(2), y(1), u(0), u(1), param("lam")), 3))
    yield ("sdym k=1", sdym.build_flatrep(1, None),
           AnsatzSpec((x(1), x(3), y(1), jet(1), jet(4), jet(1, (2,)), jet(3, (4,))), 2))


def _check_basis_images(cx, ansatz):
    """The packed closure grown from each target d(mu e_a) holds the column
    mu e_a, and every column mu' e_a' of it holds its own d(mu' e_a') as its
    image, packed with the closure's own slot table, component by component;
    so does every column of the closure grown from d(sum_a mu e_a), which
    builds the columns of one mu in several fibers in one call.  Packing is
    injective on the ansatz monomials and on the monomials of those images."""
    monos = ansatz.monomials()
    keys = [((i,), b) for i in cx.base_dirs for b in cx.fiber_dirs]
    basis = [[cochain_differential([(((), a), mu)], cx) for mu in monos] for a in cx.fiber_dirs]

    def block(want):
        assert set(want) <= set(keys)
        goal = [want.get(key, ZERO) for key in keys]
        columns, images, pack = _target_block(cx, ansatz, monos, goal)
        for j, image in zip(columns, images):
            got = basis[j // len(monos)][j % len(monos)]
            assert [dict(c) for c in image] == [pack(got.get(key, ZERO)) for key in keys], \
                ([render(e) for e in goal], j)
        return columns, pack

    seen = set()
    for pos, a in enumerate(cx.fiber_dirs):  # column order: a outer, mu inner
        for k, mu in enumerate(monos):
            want = basis[pos][k]
            columns, pack = block(want)
            assert ((pos * len(monos) + k) in columns) == bool(want), (a, render(mu))
            seen.update(m for e in want.values() for m in e.terms)
    for mu in monos:
        block(cochain_differential([(((), a), mu) for a in cx.fiber_dirs], cx))
    assert len({next(iter(pack(Expr({m: 1})))) for m in seen}) == len(seen)
    assert len({next(iter(pack(mu))) for mu in monos}) == len(monos)


@pytest.mark.parametrize("problem", list(_preimage_problems()), ids=lambda p: p[0])
def test_basis_images_match_cochain_differential(problem):
    # A bounded-no answer is never re-substituted, so this is what checks the
    # packed per-monomial kernel of cochain_preimage's closure against the
    # one differential.
    _, cx, ansatz = problem
    assert cx.twist
    _check_basis_images(cx, ansatz)


def test_slot_width_covers_the_leibniz_and_twist_degrees():
    # Two systems in which one degree bound alone sets W: on KdV, D_t(u[0]) =
    # u[3] + 6*u[0]*u[1] raises the degree of F_t(mu) by one; on J(1, 1) with
    # the twist value x1^3, the twist part exceeds every other degree.
    _check_basis_images(scheme_complex(kdv_scheme(), (1,), {}), AnsatzSpec((u(0), u(1)), 2))
    cx = scheme_complex(FreeJet(1, 1), (1, 2), {(1, 1): ((2, x(1) ** 3),)})
    _check_basis_images(cx, AnsatzSpec((x(1), u(0)), 1))
    # Every block is packed at W = 3 = (1 + 3).bit_length(), also the one of
    # d(1 e_1) = -x1^3 dx1 (x) e_2, whose target and ansatz give only W = 2.
    assert sorted(cx._pack_memo["widths"]) == [3]


def test_slot_width_covers_the_ansatz_degree():
    # On the horizontal complex of J(2, 1) with the ansatz (x1, x2) at
    # degree 2, every image and the target dx2 have degree at most 1, which
    # alone gives W = 1: x1^2 would pack onto x2, and the column x2, whose
    # image is dx2, would never be found.  The ansatz degree sets W = 2.
    cx = horizontal(FreeJet(2, 1))
    ansatz = AnsatzSpec((x(1), x(2)), 2)
    target = Cochain(cx, 1, {((2,), 0): const(1)})
    got = cochain_preimage(cx, target, ansatz)
    assert got is not None and list(got.data) == _full_system_preimage(cx, target, ansatz)
    assert dict(got.items()) == {((), 0): Expr.wrap(x(2))}
    assert list(cx._pack_memo["slots"]) == [x(1), x(2)] and list(cx._pack_memo["widths"]) == [2]
    _check_basis_images(cx, ansatz)


def _d_h_problem():
    """The complex of d_h on the free jet space J(1, 1), with one fiber 1
    and no twist, and a 1-cochain builder on it."""
    cx = scheme_complex(FreeJet(1, 1), (1,), {})
    return cx, lambda e: Cochain(cx, 1, {((1,), 1): e})


def test_preimage_slot_width_comes_from_the_target():
    # On the degree-1 ansatz (x1, u[0]) the images 1 and u[1] have degree at
    # most 1, so the images alone would give W = 1, with slots x1, u[0],
    # u[1]: x1^4 would pack onto u[1], the image of u[0], and give the false
    # witness u[0], which the re-substitution refuses.  W comes from the
    # target's degree 4 instead, and the answer is bounded-no.
    cx, one = _d_h_problem()
    ansatz = AnsatzSpec((x(1), u(0)), 1)
    assert cochain_preimage(cx, one(x(1) ** 4), ansatz) is None
    assert list(cx._pack_memo["slots"]) == [x(1), u(0), u(1)]
    assert list(cx._pack_memo["widths"]) == [3]
    *_, pack = _target_block(cx, ansatz, ansatz.monomials(), [x(1) ** 4])
    assert pack(x(1) ** 4) != pack(Expr.wrap(u(1)))
    got = cochain_preimage(cx, one(3 * x(1) ** 2), AnsatzSpec((x(1),), 3))
    assert dict(got.items()) == {((), 1): x(1) ** 3}


def test_preimage_target_symbol_in_no_image_is_bounded_no():
    # u[2] is in no image of the pool (x1,), so its row has no unknown.
    cx, one = _d_h_problem()
    assert cochain_preimage(cx, one(x(1) + u(2)), AnsatzSpec((x(1),), 2)) is None
    got = cochain_preimage(cx, one(Expr.wrap(x(1))), AnsatzSpec((x(1),), 2))
    assert dict(got.items()) == {((), 1): x(1) ** 2 / 2}


def test_preimage_packs_lam_like_any_symbol():
    # lam gets a slot of its own: lam is not the constant 1, and d(lam x1) =
    # lam dx1 needs lam in the pool.
    lam = param("lam")
    cx, one = _d_h_problem()
    target = one(Expr.wrap(lam))
    assert cochain_preimage(cx, target, AnsatzSpec((x(1),), 2)) is None
    got = cochain_preimage(cx, target, AnsatzSpec((x(1), lam), 2))
    assert dict(got.items()) == {((), 1): lam * x(1)}
    assert lam in cx._pack_memo["slots"]
    # The target lam*x1 makes D = 2, so every monomial below packs injectively.
    ansatz = AnsatzSpec((x(1), lam), 2)
    *_, pack = _target_block(cx, ansatz, ansatz.monomials(), [lam * x(1)])
    keys = [next(iter(pack(e))) for e in (Expr.wrap(1), Expr.wrap(lam), Expr.wrap(x(1)),
                                          lam * x(1), lam ** 2)]
    assert len(set(keys)) == len(keys)
    assert keys[3] == keys[1] + keys[2] and keys[4] == 2 * keys[1]
    # On the Miura spec at symbolic lambda, lam enters only through F_i(y1),
    # and it gets a slot there too.
    miura = build_kdv().miura
    assert lam in miura.f_apply(1, Expr.wrap(y(1))).symbols()
    ansatz = AnsatzSpec((x(2), y(1), u(0)), 1)
    *_, pack = _target_block(miura, ansatz, ansatz.monomials(), [])
    keys = [next(iter(pack(e))) for e in (Expr.wrap(1), Expr.wrap(lam), Expr.wrap(y(1)),
                                          lam * y(1))]
    assert len(set(keys)) == len(keys) and keys[3] == keys[1] + keys[2]
    assert lam in miura._pack_memo["slots"]


def test_f_symbol_is_f_apply_on_one_symbol():
    # F_i on one symbol, read from the complex's memo, is F_i of that symbol
    # as an Expr, for every base direction and pool symbol of the preimage
    # problems.  A spec refuses a foreign symbol alike on both routes; the
    # chart's D_i is an unchecked kernel, judged at fce.fc_total.
    names = set()
    for name, cx, _, ansatz in _seeded_preimage_problems():
        names.add(name.split()[0] + (" " + name.split()[1] if name.startswith("miura") else ""))
        for i in cx.base_dirs:
            for s in ansatz.symbols:
                assert cx.f_symbol(i, s) == cx.f_apply(i, Expr.wrap(s)), (name, i, render(s))
        if isinstance(cx, flatrep.FlatRepSpec):
            for foreign in (v(1), x(5), fc(1, (1,))):
                with pytest.raises(ValueError) as by_symbol:
                    cx.f_symbol(cx.base_dirs[0], foreign)
                with pytest.raises(ValueError) as by_expr:
                    cx.f_apply(cx.base_dirs[0], Expr.wrap(foreign))
                assert str(by_symbol.value) == str(by_expr.value), (name, render(foreign))
    assert {"fc(2,1)", "fc(2,2)", "miura lam=lam", "miura lam=0", "miura lam=1",
            "sdym"} <= names


def _block_goal(cx, ansatz):
    """A target for _target_block: the components of d(mu e_a) for the last
    monomial mu of the ansatz and the first fiber a."""
    mu = ansatz.monomials()[-1]
    want = cochain_differential([(((), cx.fiber_dirs[0]), mu)], cx)
    return [want.get(((i,), b), ZERO) for i in cx.base_dirs for b in cx.fiber_dirs]


@pytest.mark.parametrize("problem", list(_preimage_problems()), ids=lambda p: p[0])
def test_second_target_block_derives_nothing(problem, monkeypatch):
    # The pool's F_i(s) are memo reads: once the complex knows them, a block
    # on the same pool applies no derivation.  Once its packing memo holds
    # their degrees and, at the block's width, their packed leads, the block
    # does not ask the complex for them at all; a fresh complex does.
    _, cx, ansatz = problem
    goal = _block_goal(cx, ansatz)
    first = _target_block(cx, ansatz, ansatz.monomials(), goal)
    derive = Expr.derive
    calls = []
    monkeypatch.setattr(Expr, "derive", lambda self, image: calls.append(1) or derive(self, image))
    f_symbol = type(cx).f_symbol
    asked = []
    monkeypatch.setattr(type(cx), "f_symbol",
                        lambda self, i, s: asked.append((i, s)) or f_symbol(self, i, s))
    again = _target_block(cx, ansatz, ansatz.monomials(), goal)
    assert calls == [] and asked == []
    assert again[:2] == first[:2] and first[0]
    _target_block(_fresh(cx), ansatz, ansatz.monomials(), goal)
    assert len(asked) >= len(cx.base_dirs) * len(ansatz.symbols)


@pytest.mark.parametrize("problem", list(_preimage_problems()), ids=lambda p: p[0])
def test_column_keys_are_the_packed_monomials(problem):
    # Each pool symbol s has the slot slots[s] of the complex's packing
    # memo, numbered in the order the complex first saw its symbols, and its
    # unit is 2^(W slots[s]) for the block's width W.  The key of each
    # column's monomial, summed from the slot units, is pack(mu).
    _, cx, ansatz = problem
    monos = ansatz.monomials()
    *_, pack = _target_block(cx, ansatz, monos, _block_goal(cx, ansatz))
    slots = cx._pack_memo["slots"]
    assert sorted(slots.values()) == list(range(len(slots)))
    units = [next(iter(pack(Expr.wrap(s)))) for s in ansatz.symbols]
    top = max(ansatz.symbols, key=slots.__getitem__)
    width = (units[ansatz.symbols.index(top)].bit_length() - 1) // slots[top]
    assert units == [1 << (width * slots[s]) for s in ansatz.symbols]
    assert _monomial_keys(units, ansatz.degree) == [next(iter(pack(mu))) for mu in monos]
    # At degree 0, or with no symbols, the one monomial is 1.
    assert _monomial_keys(units, 0) == [0] == _monomial_keys([], 3)
    assert len(AnsatzSpec((), 3).monomials()) == len(AnsatzSpec(ansatz.symbols, 0).monomials()) == 1


def _fresh(cx):
    """A new complex equal to the chart or spec ``cx``, its memos empty."""
    return fce.FcChart(cx.n, cx.m) if isinstance(cx, fce.FcChart) else cx.subs({})


def _read_back(cx, pack, packed):
    """The packed map ``packed`` as an Expr: each key split into its fields,
    highest unit first, over the slots of cx's packing memo."""
    units = sorted(((next(iter(pack(Expr.wrap(s)))), s) for s in cx._pack_memo["slots"]),
                   key=lambda us: us[0], reverse=True)
    out = ZERO
    for key, c in packed.items():
        term = Expr.wrap(c)
        for unit, s in units:
            p, key = divmod(key, unit)
            term = term * Expr.wrap(s) ** p
        assert key == 0
        out = out + term
    return out


def _solve_and_block(cx, target, ansatz):
    """The answer of cochain_preimage on ``cx``, and the columns and images
    (read back as Exprs) of the target's block."""
    target = target.on(cx)
    goal = [target.component((i,), a) for i in cx.base_dirs for a in cx.fiber_dirs]
    columns, images, pack = _target_block(cx, ansatz, ansatz.monomials(), goal)
    return (cochain_preimage(cx, target, ansatz), columns,
            [[_read_back(cx, pack, comp) for comp in image] for image in images])


def test_a_warm_complex_solves_as_a_fresh_one():
    # One complex per family keeps its packing memo through every seeded
    # problem of the family, in sequence; each answer, column list and image
    # list is the one a fresh complex gives, which packs from nothing.
    for name, cx, target, ansatz in _seeded_preimage_problems():
        warm = _solve_and_block(cx, target, ansatz)
        assert warm == _solve_and_block(_fresh(cx), target, ansatz), name
    assert len(cx._pack_memo["slots"]) > len(ansatz.symbols)


def test_one_complex_packs_at_each_width_it_meets():
    # On the (2,1) chart the twist v_i^{1,1} raises each degree by one: an
    # ansatz of degree 2 gives D = 3 and W = 2, one of degree 3 gives D = 4
    # and W = 3.  The memo keeps a table per width, and each answer is a
    # fresh chart's.
    chart = fce.FcChart(2, 1)
    widths = []
    for f, degree in ((x(1) * v(1), 2), (x(1) ** 2 * v(1), 3), (v(1) ** 2, 2)):
        phi = fce.symmetry_from_f(chart, fce.cochain0(chart, [f]))
        ansatz = AnsatzSpec((x(1), v(1), fc(1, (1,))), degree)
        got = cochain_preimage(chart, phi, ansatz)
        fresh = fce.FcChart(2, 1)
        assert got == cochain_preimage(fresh, phi.on(fresh), ansatz) == fce.cochain0(chart, [f])
        widths.append(sorted(chart._pack_memo["widths"]))
    assert widths == [[2], [2, 3], [2, 3]]


def test_a_refused_solve_leaves_the_packing_memo_usable():
    # A pool symbol foreign to the spec is refused by its scheme, as the
    # spec's F_i refuses it, and takes no slot; the next solve on the spec
    # is a fresh spec's.
    kdv = build_kdv()
    spec = miura_at(kdv, Fraction(1))
    c = flatrep.symmetry_cocycle(spec, [kdv.symmetries["x-translation"]])
    good = AnsatzSpec((x(1), x(2), y(1), u(0), u(1)), 2)
    with pytest.raises(ValueError, match="^symbol v1 is foreign to the chart$"):
        cochain_preimage(spec, c, AnsatzSpec(good.symbols + (v(1),), 2))
    assert v(1) not in spec._pack_memo["slots"]
    got = cochain_preimage(spec, c, good)
    fresh = spec.subs({})
    assert got is not None and got == cochain_preimage(fresh, c.on(fresh), good)


def _full_system_preimage(cx, target, ansatz):
    """The reference for cochain_preimage: every column's image from
    cochain_differential on Expr keys, the whole system solved by
    solve_by_superposition; the components of the witness, or None."""
    keys = [((i,), b) for i in cx.base_dirs for b in cx.fiber_dirs]
    basis = [(pos, mu) for pos in range(len(cx.fiber_dirs)) for mu in ansatz.monomials()]
    images = []
    for pos, mu in basis:
        image = cochain_differential([(((), cx.fiber_dirs[pos]), mu)], cx)
        images.append([dict(image.get(key, ZERO).terms) for key in keys])
    coeffs = solve_by_superposition(images, [dict(target.component(*key).terms) for key in keys])
    if coeffs is None:
        return None
    comps = [ZERO] * len(cx.fiber_dirs)
    for (pos, mu), q in zip(basis, coeffs):
        comps[pos] = comps[pos] + q * mu
    return comps


def _same_as_full_system(cx, target, ansatz):
    """cochain_preimage gives the reference's witness, or None with it;
    returns whether there was a witness."""
    got = cochain_preimage(cx, target, ansatz)
    want = _full_system_preimage(cx, target.on(cx), ansatz)
    assert (got is None) == (want is None), (target, ansatz)
    if got is not None:
        assert list(got.data) == want, (target, ansatz)
    return got is not None


def _seeded_preimage_problems():
    """(name, complex, target, ansatz) on the E_fc charts, the Miura
    covering and SDYM at k = 1: closed targets d(f), f drawn from a pool
    one symbol wider than the ansatz, and the same targets perturbed."""
    rng = random.Random(20)
    for n, m in ((2, 1), (2, 2), (3, 1)):
        chart = fce.FcChart(n, m)
        pool = fc_pool(n, m, 1, 1)
        for _ in range(4):
            syms = rng.sample(pool, 5)
            ansatz = AnsatzSpec(tuple(syms[:4]), 2)
            f = Cochain(chart, 0, {((), a): rand_expr(rng, syms) for a in chart.fiber_dirs})
            yield "fc(%d,%d)" % (n, m), chart, f.d, ansatz
            extra = {((rng.randint(1, n),), rng.randint(1, m)): rand_expr(rng, syms[:4])}
            yield "fc(%d,%d)+" % (n, m), chart, _plus(chart, f.d, extra), ansatz
    kdv = build_kdv()
    for lam, spec in (("lam", kdv.miura), ("0", miura_at(kdv, Fraction(0))),
                      ("1", miura_at(kdv, Fraction(1)))):
        params = (param("lam"),) if lam == "lam" else ()
        for name, phi in kdv.symmetries.items():
            c = flatrep.symmetry_cocycle(spec, [phi])
            for degree, order in ((2, 1), (2, 2), (3, 2), (3, 3)):
                ansatz = AnsatzSpec((x(1), x(2), y(1)) + params + tuple(
                    u(k) for k in range(order + 1)), degree)
                yield "miura lam=%s %s" % (lam, name), spec, c, ansatz
    c = flatrep.infinitesimal_deformation(sdym.build_flatrep(1, None), param("lam"))
    pool = (x(1), x(2), x(3), x(4), y(1), jet(1), jet(3), jet(4), jet(3, (3,)))
    for degree in (1, 2):
        ansatz = AnsatzSpec(pool, degree)
        yield "sdym k=1 deformation", c.complex, c, ansatz
        f = Cochain(c.complex, 0, {((), a): rand_expr(rng, pool) for a in c.complex.fiber_dirs})
        yield "sdym k=1 exact", c.complex, f.d, ansatz
        yield "sdym k=1 exact+", c.complex, _plus(c.complex, f.d, {((1,), 4): Expr.wrap(x(3))}), \
            ansatz


def _plus(cx, c, extra):
    """The 1-cochain c plus the components ``extra``."""
    data = dict(c.items())
    for key, e in extra.items():
        data[key] = data.get(key, ZERO) + e
    return Cochain(cx, 1, data)


def test_preimage_matches_the_full_system():
    # The closure solves only the blocks that hold the target's rows; the
    # reference assembles and solves every column.  Both verdicts occur.
    found = [_same_as_full_system(cx, target, ansatz)
             for _, cx, target, ansatz in _seeded_preimage_problems()]
    assert len(found) == 24 + 48 + 6
    assert 0 < sum(found) < len(found), sum(found)


def test_preimage_block_smaller_than_the_system(monkeypatch):
    # d(x1^2/2) = x1 dx1: the block is the column x1^2 and the rows it
    # reaches, not the six columns of the ansatz.
    log = spy_solver(monkeypatch)
    cx, one = _d_h_problem()
    ansatz = AnsatzSpec((x(1), u(0)), 2)
    assert _same_as_full_system(cx, one(Expr.wrap(x(1))), ansatz)
    assert log[0]["basis"] == 6 and log[0]["unknowns"] == 1


def test_preimage_target_no_column_hits_or_zero(monkeypatch):
    # u[2] is in no image of the pool (x1,): the block has no column, and
    # the bounded-no needs no elimination of a column.  The zero target
    # has no row, and its witness is the zero cochain.
    log = spy_solver(monkeypatch)
    cx, one = _d_h_problem()
    ansatz = AnsatzSpec((x(1),), 2)
    assert not _same_as_full_system(cx, one(Expr.wrap(u(2))), ansatz)
    zero = cochain_preimage(cx, one(ZERO), ansatz)
    assert zero is not None and zero.is_zero()
    assert [(r["basis"], r["unknowns"], r["none"]) for r in log] == [
        (3, 0, True), (3, 0, False)]


def test_preimage_column_only_the_twist_reaches(monkeypatch):
    # Fibers 1 and 2 on J(1, 1) with D_1(a_1^2) = x1^3: d(1 e_1) = -x1^3
    # dx1 (x) e_2, so the row x1^3 of component (1, 2) is hit only through
    # the twist lookup, by a column of fiber 1, and the row 1 only through
    # the F_1 lookup, by x1 e_2.  The witness needs both.
    log = spy_solver(monkeypatch)
    cx = scheme_complex(FreeJet(1, 1), (1, 2), {(1, 1): ((2, x(1) ** 3),)})
    target = Cochain(cx, 1, {((1,), 2): 1 - x(1) ** 3})
    assert _same_as_full_system(cx, target, AnsatzSpec((x(1), u(0)), 1))
    got = cochain_preimage(cx, target, AnsatzSpec((x(1), u(0)), 1))
    assert list(got.data) == [const(1), Expr.wrap(x(1))]
    assert log[0]["basis"] == 6 and log[0]["unknowns"] == 2


def test_preimage_refuses_a_huge_ansatz_before_building_it(monkeypatch):
    # 2 symbols at degree 700 give C(702, 700) = 246,051 monomials, over the
    # cap: the refusal states the size, and no monomial is built.
    def no_monomials(self):
        raise AssertionError("monomials built before the size check")

    monkeypatch.setattr(AnsatzSpec, "monomials", no_monomials)
    cx, one = _d_h_problem()
    with pytest.raises(ValueError, match="246051 unknowns"):
        cochain_preimage(cx, one(Expr.wrap(x(1))), AnsatzSpec((x(1), u(0)), 700))


@pytest.mark.parametrize("degree, dirs", [(0, ()), (2, (1, 2))], ids=["degree-0", "degree-2"])
def test_preimage_refuses_a_target_not_of_degree_1(degree, dirs):
    # The preimage of a 0-cochain is ill-posed, not a bounded-no; a
    # 2-cochain is bad input, not the re-substitution's internal fault.
    chart = fce.FcChart(2, 1)
    with pytest.raises(ValueError, match="expected a degree-1 cochain"):
        cochain_preimage(chart, Cochain(chart, degree, {(dirs, 1): Expr.wrap(v(1))}),
                         AnsatzSpec((x(1), v(1)), 2))


def test_preimage_candidate_whose_image_cancels_the_row_stays_out(monkeypatch):
    # With the twist D_1(a_2^1) = 6 u[1] on KdV, d(u[0] e_1) has the
    # t-component u[3] + 6 u[0] u[1] - 6 u[0] u[1] = u[3]: the F_t lookup
    # finds u[0] for the row u[0] u[1], but its image does not hold it, so
    # the block stays empty and the answer is bounded-no.
    log = spy_solver(monkeypatch)
    cx = scheme_complex(kdv_scheme(), (1,), {(2, 1): ((1, 6 * u(1)),)})
    target = Cochain(cx, 1, {((2,), 1): u(0) * u(1)})
    assert not _same_as_full_system(cx, target, AnsatzSpec((u(0), u(1)), 1))
    assert (log[0]["basis"], log[0]["unknowns"]) == (3, 0)


def test_preimage_keeps_the_global_column_order():
    # With D_1(a_1^2) = 1 on J(1, 1), d(e_1 + x1 e_2) = 0, so the target
    # 1 dx1 (x) e_2 has two witnesses, -e_1 and x1 e_2; the leading column
    # of the whole system, 1 e_1, is the pivot, as in the block.
    cx = scheme_complex(FreeJet(1, 1), (1, 2), {(1, 1): ((2, const(1)),)})
    target = Cochain(cx, 1, {((1,), 2): const(1)})
    assert _same_as_full_system(cx, target, AnsatzSpec((x(1),), 1))
    got = cochain_preimage(cx, target, AnsatzSpec((x(1),), 1))
    assert list(got.data) == [const(-1), ZERO]
