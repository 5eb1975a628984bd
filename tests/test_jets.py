import random
from types import SimpleNamespace

import pytest

from flatconn import fce, sdym
from flatconn.expr import Expr, const, fc, jet, param, render, v, x, y, ZERO
from flatconn.jets import (
    Cochain, DirectionError, Evolution, Extended, FreeJet, _basis_images,
    cochain_differential, cochain_preimage, d_sigma, evolutionary_apply, is_symmetry_evolution,
    total_derivative,
)
from flatconn.kdv import build_kdv
from flatconn.linsolve import AnsatzSpec
from helpers import rand_expr, spatial_jets


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
    ext = Extended(kdv_scheme(), (y(1),))
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
    ext = Extended(kdv_scheme(), (y(1),))
    assert ext.ndirs == 3
    assert ext.indep(3) is y(1)
    assert total_derivative(ext, 3, Expr.wrap(u(2))).is_zero()
    assert total_derivative(ext, 3, Expr.wrap(y(1))) == const(1)
    assert total_derivative(ext, 1, Expr.wrap(y(1))).is_zero()


def scheme_complex(scheme, fibers, twist):
    """The complex over all directions of ``scheme`` with F_i = D_i, the
    given fibers and twist; a component is checked for its directions and
    fiber.  It carries the five names that a cochain reads from what it
    lives on."""
    def check(dirs, a, e):
        if a not in fibers:
            raise ValueError("fiber %r outside %r" % (a, fibers))
        for i in dirs:
            scheme.check_direction(i)
        return Expr.wrap(e)

    return SimpleNamespace(
        base_dirs=tuple(range(1, scheme.ndirs + 1)), fiber_dirs=tuple(fibers),
        f_apply=lambda i, f: total_derivative(scheme, i, f), twist=twist,
        check_component=check)


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


def _preimage_problems():
    """(name, complex, pool) of three degree-0 inverse problems, each with a
    nonzero twist."""
    yield ("fc(2,2)", fce.FcChart(2, 2),
           AnsatzSpec((x(1), v(1), v(2), fc(1, (2,)), fc(2, (1,), (2,))), 2))
    yield ("miura", build_kdv().miura,
           AnsatzSpec((x(2), y(1), u(0), u(1), param("lam")), 3))
    yield ("sdym k=1", sdym.build_flatrep(1, None).spec,
           AnsatzSpec((x(1), x(3), y(1), jet(1), jet(4), jet(1, (2,)), jet(3, (4,))), 2))


def _check_basis_images(cx, ansatz):
    """Every image of the packed kernel equals cochain_differential of
    {((), a): mu}, packed with the kernel's own slot table, component by
    component; and packing is injective on the monomials of those images."""
    monos = ansatz.monomials()
    keys = [((i,), b) for i in cx.base_dirs for b in cx.fiber_dirs]
    images, pack = _basis_images(cx, monos, [ZERO] * len(keys))
    assert len(images) == len(cx.fiber_dirs) * len(monos)
    seen = set()
    slot = 0
    for a in cx.fiber_dirs:  # column order: a outer, mu inner
        for mu in monos:
            want = cochain_differential([(((), a), mu)], cx)
            assert set(want) <= set(keys)
            assert [dict(c) for c in images[slot]] == [pack(want.get(k, ZERO)) for k in keys], \
                (a, render(mu))
            seen.update(m for e in want.values() for m in e.terms)
            slot += 1
    assert len({next(iter(pack(Expr({m: 1})))) for m in seen}) == len(seen)


@pytest.mark.parametrize("problem", list(_preimage_problems()), ids=lambda p: p[0])
def test_basis_images_match_cochain_differential(problem):
    # A bounded-no answer is never re-substituted, so this is what checks the
    # packed per-monomial kernel of cochain_preimage against the one
    # differential.
    _, cx, ansatz = problem
    assert cx.twist
    _check_basis_images(cx, ansatz)


def test_slot_width_covers_the_leibniz_and_twist_degrees():
    # Two systems in which one degree bound alone sets W: on KdV, D_t(u[0]) =
    # u[3] + 6*u[0]*u[1] raises the degree of F_t(mu) by one; on J(1, 1) with
    # the twist value x1^3, the twist part exceeds every other degree.
    _check_basis_images(scheme_complex(kdv_scheme(), (1,), {}), AnsatzSpec((u(0), u(1)), 2))
    _check_basis_images(scheme_complex(FreeJet(1, 1), (1, 2), {(1, 1): ((2, x(1) ** 3),)}),
                        AnsatzSpec((x(1), u(0)), 1))


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
    _, pack = _basis_images(cx, ansatz.monomials(), [x(1) ** 4])
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
    # The target lam*x1 makes D = 2, so every monomial below packs injectively.
    _, pack = _basis_images(cx, AnsatzSpec((x(1), lam), 2).monomials(), [lam * x(1)])
    keys = [next(iter(pack(e))) for e in (Expr.wrap(1), Expr.wrap(lam), Expr.wrap(x(1)),
                                          lam * x(1), lam ** 2)]
    assert len(set(keys)) == len(keys)
    assert keys[3] == keys[1] + keys[2] and keys[4] == 2 * keys[1]
    # On the Miura spec at symbolic lambda, lam enters only through F_i(y1),
    # and it gets a slot there too.
    miura = build_kdv().miura
    assert lam in miura.f_apply(1, Expr.wrap(y(1))).symbols()
    _, pack = _basis_images(miura, AnsatzSpec((x(2), y(1), u(0)), 1).monomials(), [])
    keys = [next(iter(pack(e))) for e in (Expr.wrap(1), Expr.wrap(lam), Expr.wrap(y(1)),
                                          lam * y(1))]
    assert len(set(keys)) == len(keys) and keys[3] == keys[1] + keys[2]
