import random
from fractions import Fraction

import pytest

from flatconn.expr import Expr, jet, param, v, x, y, ZERO, ONE
from flatconn.jets import Base, Cochain, Evolution, Extended
from flatconn import fce, flatrep, sdym
from flatconn.kdv import build_kdv, miura_at
from flatconn.vforms import (
    Derivation, UnsupportedBracket, VForm, _ubar, connection_forms, d_nabla_vertical,
)
from helpers import rand_expr


def u(k):
    return jet(1, (1,) * k)


def kdv_ext():
    return Extended(Evolution(1, [u(3) + 6 * u(0) * u(1)]), 1)


def test_bracket_scheme_directions_commute():
    kdv = Evolution(1, [u(3) + 6 * u(0) * u(1)])
    dx = Derivation(kdv, dirs={1: ONE})
    dt = Derivation(kdv, dirs={2: ONE})
    assert dx.bracket(dt).is_zero()


def test_bracket_partial_example():
    chart = Extended(Base(1), 1)
    X = Derivation(chart, {2: Expr.wrap(v(1))})
    Y = Derivation(chart, {2: ONE})
    b = X.bracket(Y)
    assert b.dirs == {2: -ONE}


def test_bracket_miura_covering():
    from flatconn.expr import param

    ext = kdv_ext()
    lam = Expr.wrap(param("lam"))
    A = lam + u(0) + y(1) ** 2
    B = (
        u(2) + 2 * u(0) ** 2 - 2 * lam * u(0) - 4 * lam ** 2
        + 2 * u(1) * y(1) + y(1) ** 2 * (2 * u(0) - 4 * lam)
    )
    dxt = Derivation(ext, dirs={1: ONE, 3: A})
    dtt = Derivation(ext, dirs={2: ONE, 3: B})
    assert dxt.bracket(dtt).is_zero()


def test_bracket_mismatched_charts_rejected():
    a = Derivation(Extended(Base(1), 1), {2: ONE})
    b = Derivation(Extended(Base(1), 2), {2: ONE})
    with pytest.raises(ValueError):
        a.bracket(b)


def _rand_vform(rng, chart, coords, degree):
    terms = {}
    for _ in range(2):
        key = tuple(rng.sample(range(len(coords)), degree))
        # Direction k + 1 of the chart is the coordinate coords[k].
        der = Derivation(chart, {rng.choice(range(1, len(coords) + 1)):
                                 rand_expr(rng, coords, terms=2)})
        terms[key] = der + terms.get(key, Derivation(chart))
    return VForm(chart, coords, degree, terms)


def test_nijenhuis_graded_antisymmetry():
    rng = random.Random(31)
    coords = (x(1), v(1), v(2))
    chart = Extended(Base(1), 2)
    for _ in range(15):
        di, dj = rng.choice([0, 1]), rng.choice([0, 1, 2])
        A = _rand_vform(rng, chart, coords, di)
        B = _rand_vform(rng, chart, coords, dj)
        AB, BA = A.nijenhuis(B), B.nijenhuis(A)
        if (-1) ** (di * dj) > 0:
            assert (AB + BA).is_zero()
        else:
            assert (AB - BA).is_zero()


def test_nijenhuis_graded_jacobi():
    rng = random.Random(37)
    coords = (x(1), v(1), v(2))
    chart = Extended(Base(1), 2)
    for _ in range(10):
        di, dj, dk = 1, 1, rng.choice([0, 1])
        A = _rand_vform(rng, chart, coords, di)
        B = _rand_vform(rng, chart, coords, dj)
        C = _rand_vform(rng, chart, coords, dk)
        lhs = A.nijenhuis(B.nijenhuis(C))
        rhs = A.nijenhuis(B).nijenhuis(C)
        extra = B.nijenhuis(A.nijenhuis(C))
        if (-1) ** (di * dj) > 0:
            rhs = rhs + extra
        else:
            rhs = rhs - extra
        assert (lhs - rhs).is_zero()


def test_nijenhuis_trivial_examples():
    # dx (x) d/dx bracketed with itself on R^1
    coords = (x(1),)
    chart = Base(1)
    om = VForm(chart, coords, 1, {(0,): Derivation(chart, {1: ONE})})
    assert om.nijenhuis(om).is_zero()


def test_nijenhuis_degree_two_over_line_vanishes():
    # dx (x) (D_x + a d/dy) squared over a 1-dimensional base
    ext = Extended(Evolution(1, [u(1)]), 1)
    coframe = (x(1),)
    a = u(0) + y(1)
    om = VForm(ext, coframe, 1, {(0,): Derivation(ext, dirs={1: ONE, 3: a})})
    assert om.nijenhuis(om).is_zero()


def test_curvature_vs_flatness_residual():
    # [[Ubar, Ubar]] = 2 * residual dx1^dx2 (x) d/dv on the nonflat example
    spec = flatrep.connection(2, 1, {(1, 1): Expr.wrap(v(1)), (2, 1): x(1) * v(1)})
    ubar, _ = connection_forms(spec)
    br = ubar.nijenhuis(ubar)
    assert not br.is_zero()
    der = br.terms[(0, 1)]
    assert der.dirs == {3: 2 * v(1)}

    flat = flatrep.connection(2, 1, {(1, 1): Expr.wrap(x(2)), (2, 1): Expr.wrap(x(1))})
    ub2, _ = connection_forms(flat)
    assert ub2.nijenhuis(ub2).is_zero()


def test_curvature_criterion_random_specs():
    rng = random.Random(41)
    for trial in range(30):
        n, m = rng.choice([(2, 1), (2, 2)])
        xs = [x(i) for i in range(1, n + 1)]
        vs = [v(a) for a in range(1, m + 1)]
        coeffs = {}
        if trial % 2 == 0:
            # flat by construction: v_i^a = d(phi_a)/dx_i for a potential phi_a(x)
            for a in range(1, m + 1):
                phi = rand_expr(rng, xs, degree=3, terms=3)
                for i in range(1, n + 1):
                    coeffs[(i, a)] = phi.partial(x(i))
        else:
            for i in range(1, n + 1):
                for a in range(1, m + 1):
                    coeffs[(i, a)] = rand_expr(rng, xs + vs, degree=2, terms=2)
        spec = flatrep.connection(n, m, coeffs)
        ubar, _ = connection_forms(spec)
        assert ubar.nijenhuis(ubar).is_zero() == \
            all(r.is_zero() for r in fce.flatness_residual(spec))


def test_connection_forms_split():
    # trivial connection: Ubar = sum dx_i (x) d/dx_i
    spec = flatrep.connection(2, 1, {})
    ubar, uform = connection_forms(spec)
    assert ubar.terms[(0,)].dirs == {1: ONE}
    assert ubar.terms[(1,)].dirs == {2: ONE}
    assert uform.terms[(2,)].dirs == {3: ONE}
    # n=1, m=1, v1 = v: Ubar = dx (x) (d/dx + v d/dv)
    spec2 = flatrep.connection(1, 1, {(1, 1): Expr.wrap(v(1))})
    ub2, u2 = connection_forms(spec2)
    assert ub2.terms[(0,)].dirs == {1: ONE, 2: Expr.wrap(v(1))}
    assert u2.terms[(0,)].dirs == {2: -Expr.wrap(v(1))}
    # Ubar + U = d: applying the sum to any coordinate c gives the 1-form dc
    coords2 = ub2.coframe
    for cpos, coord in enumerate(coords2):
        one_form = {}
        for form in (ub2, u2):
            for key, der in form.terms.items():
                got = der.apply(Expr.wrap(coord))
                if not got.is_zero():
                    one_form[key[0]] = one_form.get(key[0], ZERO) + got
        one_form = {k: e for k, e in one_form.items() if not e.is_zero()}
        assert one_form == {cpos: ONE}


def test_d_nabla_vertical_examples():
    spec = flatrep.connection(2, 1, {})
    ubar, _ = connection_forms(spec)
    chart = ubar.space
    theta = VForm(chart, ubar.coframe, 0, {(): Derivation(chart, {3: ONE})})
    assert d_nabla_vertical(spec, theta).is_zero()

    spec1 = flatrep.connection(2, 1, {(1, 1): Expr.wrap(x(2)), (2, 1): Expr.wrap(x(1))})
    ub1, _ = connection_forms(spec1)
    theta_v = VForm(ub1.space, ub1.coframe, 0,
                    {(): Derivation(ub1.space, {3: Expr.wrap(v(1))})})
    img = d_nabla_vertical(spec1, theta_v)
    assert img.terms[(0,)].dirs == {3: Expr.wrap(x(2))}
    assert img.terms[(1,)].dirs == {3: Expr.wrap(x(1))}


def test_d_nabla_squared_zero_random_flat():
    rng = random.Random(43)
    for _ in range(8):
        n, m = 2, 1
        phi = rand_expr(rng, [x(1), x(2)], degree=3, terms=3)
        spec = flatrep.connection(n, m, {
            (1, 1): phi.partial(x(1)), (2, 1): phi.partial(x(2)),
        })
        ubar, _ = connection_forms(spec)
        chart = ubar.space
        theta = VForm(chart, ubar.coframe, 0, {
            (): Derivation(chart, {3: rand_expr(rng, list(ubar.coframe))}),
        })
        once = d_nabla_vertical(spec, theta)
        assert d_nabla_vertical(spec, once).is_zero()


def test_d_nabla_rejects_nonflat():
    spec = flatrep.connection(2, 1, {(1, 1): Expr.wrap(v(1)), (2, 1): x(1) * v(1)})
    ubar, _ = connection_forms(spec)
    theta = VForm(ubar.space, ubar.coframe, 0,
                  {(): Derivation(ubar.space, {3: ONE})})
    with pytest.raises(ValueError):
        d_nabla_vertical(spec, theta)


def _oracle_connections(rng):
    """Flat connections on (2,1), (2,2) and (3,1), each twice from potentials
    phi_a(x): the gradient v_i^a = d(phi_a)/dx_i, and v_i^a = d(phi_a)/dx_i v^a,
    which has the twist D_{v^a}(v_i^a) = d(phi_a)/dx_i."""
    for n, m in ((2, 1), (2, 2), (3, 1)):
        xs = [x(i) for i in range(1, n + 1)]
        phis = [rand_expr(rng, xs, degree=3, terms=3) for _ in range(m)]
        grad = {(i, a): phi.partial(x(i)) for i in range(1, n + 1)
                for a, phi in enumerate(phis, 1)}
        yield flatrep.connection(n, m, grad)
        yield flatrep.connection(n, m, {(i, a): e * v(a) for (i, a), e in grad.items()})


def _agrees_with_cochain_d(spec, rng, pool, q):
    """Whether [[Ubar, theta]] (``d_nabla_vertical``) equals ``Cochain.d``
    for one random vertical theta of degree ``q`` over ``spec.scheme``, its
    components f dx_I (x) D_d drawn from ``pool``."""
    ubar = _ubar(spec)
    data, terms = {}, {}
    for dirs in ([()] if q == 0 else [(i,) for i in spec.base_dirs]):
        comps = {d: rand_expr(rng, pool, degree=2, terms=2) for d in spec.fiber_dirs}
        data.update({(dirs, d): f for d, f in comps.items()})
        key = tuple(ubar.coframe.index(spec.scheme.indep(i)) for i in dirs)
        terms[key] = Derivation(spec.scheme, comps)
    image = d_nabla_vertical(spec, VForm(spec.scheme, ubar.coframe, q, terms))
    got = {}
    for key, der in image.terms.items():
        assert set(der.dirs) <= set(spec.fiber_dirs)
        dirs = tuple(spec.base_dirs[k] for k in key)
        got.update({(dirs, d): e for d, e in der.dirs.items()})
    return got == dict(Cochain(spec, q, data).d.items())


def test_d_nabla_is_the_cochain_differential_of_a_connection():
    # The Froelicher-Nijenhuis bracket [[Ubar, theta]] and Cochain.d, the
    # differential of the connection's complex, agree on every vertical theta
    # of degree 0 and 1 built from the same components.
    rng = random.Random(47)
    cases = twisted = 0
    for _ in range(4):
        for spec in _oracle_connections(rng):
            assert spec.is_flat
            twisted += bool(spec.twist)
            coords = list(connection_forms(spec)[0].coframe)
            for q in (0, 1):
                assert _agrees_with_cochain_d(spec, rng, coords, q)
                cases += 1
    # 11 of the 12 v-dependent connections drawn have a nonzero twist.
    assert (cases, twisted) == (48, 11)


def _jet_space_specs():
    """The Miura representation of KdV at lam symbolic, 0 and 1, and the
    SDYM families k = 1 and 2, each with a pool of its coordinates, some
    low-order jets and lam."""
    kdv = build_kdv()
    lam = param("lam")
    kdv_pool = [x(1), x(2), y(1), u(0), u(1), u(2), lam]
    for spec in (kdv.miura, miura_at(kdv, Fraction(0)), miura_at(kdv, Fraction(1))):
        yield spec, kdv_pool
    for k in (1, 2):
        spec = sdym.build_flatrep(k)
        coords = [spec.scheme.indep(d) for d in spec.base_dirs + spec.fiber_dirs]
        jets = [jet(a, ()) for a in range(1, 5)] + [
            jet(1, (1,)), jet(2, (2,)), jet(3, (1,)), jet(4, (4,))]
        yield spec, coords + jets + [lam]


def test_d_nabla_is_the_cochain_differential_of_a_flat_representation():
    # The same oracle on jet spaces, where F_i = D_i + sum_d a_i^d D_d has
    # total derivatives and a nonzero twist: 3 thetas per spec and degree.
    rng = random.Random(53)
    for spec, pool in _jet_space_specs():
        assert spec.is_flat and spec.twist
        for q in (0, 1):
            for _ in range(3):
                assert _agrees_with_cochain_d(spec, rng, pool, q)


def test_self_bracket_of_ubar_is_zero_exactly_on_a_flat_representation():
    # [[Ubar, Ubar]] = 0 iff the flatness residuals vanish, on each jet-space
    # spec and on a copy with a_i^d perturbed by x1 times the last fiber
    # coordinate.
    for spec, _ in _jet_space_specs():
        coeffs = dict(spec.coeffs)
        key = (spec.base_dirs[0], spec.fiber_dirs[0])
        coeffs[key] = spec.a(*key) + x(1) * spec.scheme.indep(spec.fiber_dirs[-1])
        bent = flatrep.FlatRepSpec(spec.scheme, spec.base_dirs, spec.fiber_dirs, coeffs)
        assert spec.is_flat and not bent.is_flat
        for s in (spec, bent):
            ubar = _ubar(s)
            assert ubar.nijenhuis(ubar).is_zero() == s.is_flat


def test_connection_forms_refuse_a_jet_space_spec():
    # The Miura representation has base and fiber directions too, but over
    # the KdV jets: no coordinate connection.
    with pytest.raises(ValueError, match="^not a coordinate connection"):
        connection_forms(build_kdv().miura)


def test_nijenhuis_refuses_a_differential_off_the_coframe():
    # On Miura, L_{F_1}(dy1) = d(a_1) = d(lam + u[0] + y1^2) needs du[0].
    miura = build_kdv().miura
    ubar = _ubar(miura)
    theta = VForm(miura.scheme, ubar.coframe, 1, {(2,): Derivation(miura.scheme, {3: ONE})})
    with pytest.raises(UnsupportedBracket, match=r"leaves the coframe span \(symbol u\[0\]\)$"):
        ubar.nijenhuis(theta)


def test_vform_refuses_a_key_off_the_coframe():
    # A negative position would silently mean a coordinate from the end,
    # and one past the coframe would fail later in nijenhuis and repr.
    ubar, _ = connection_forms(
        flatrep.connection(2, 1, {(1, 1): Expr.wrap(x(2)), (2, 1): Expr.wrap(x(1))}))
    der = Derivation(ubar.space, {3: ONE})
    for key in ((-1,), (7,)):
        with pytest.raises(ValueError, match="is not a list of coframe positions 0..2$"):
            VForm(ubar.space, ubar.coframe, 1, {key: der})


def test_vform_refuses_a_derivation_of_another_chart():
    ubar, _ = connection_forms(flatrep.connection(2, 1, {}))
    chart = Extended(Base(2), 1)
    other = Derivation(chart, {3: ONE})
    with pytest.raises(ValueError, match="lives on another chart$"):
        VForm(ubar.space, ubar.coframe, 0, {(): other})
    # A sum of forms on two charts would hold both charts' derivations.
    with pytest.raises(ValueError, match="^cannot add forms of different shape$"):
        ubar + VForm(chart, ubar.coframe, 1, {(1,): other})
