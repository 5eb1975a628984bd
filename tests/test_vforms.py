import random

import pytest

from flatconn.expr import Expr, const, jet, render, v, x, y, ZERO, ONE
from flatconn.jets import Cochain, Evolution, Extended
from flatconn import fce, flatrep
from flatconn.kdv import build_kdv
from flatconn.vforms import (
    Derivation, FiniteChart, UnsupportedBracket, VForm, connection_forms,
    d_nabla_vertical,
)
from helpers import rand_expr


def u(k):
    return jet(1, (1,) * k)


def kdv_ext():
    return Extended(Evolution(1, [u(3) + 6 * u(0) * u(1)]), (y(1),))


def test_bracket_scheme_directions_commute():
    kdv = Evolution(1, [u(3) + 6 * u(0) * u(1)])
    dx = Derivation(kdv, dirs={1: ONE})
    dt = Derivation(kdv, dirs={2: ONE})
    assert dx.bracket(dt).is_zero()


def test_bracket_partial_example():
    chart = FiniteChart((v(1),))
    X = Derivation(chart, partials={v(1): Expr.wrap(v(1))})
    Y = Derivation(chart, partials={v(1): ONE})
    b = X.bracket(Y)
    assert b.partials == {v(1): -ONE}


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
    a = Derivation(FiniteChart((v(1),)), partials={v(1): ONE})
    b = Derivation(FiniteChart((v(2),)), partials={v(2): ONE})
    with pytest.raises(ValueError):
        a.bracket(b)


def test_bracket_unsupported_cross_term():
    kdv = Evolution(1, [u(3) + 6 * u(0) * u(1)])
    dx = Derivation(kdv, dirs={1: ONE})
    vert = Derivation(kdv, partials={u(1): ONE})
    with pytest.raises(UnsupportedBracket):
        dx.bracket(vert)


def _rand_vform(rng, chart, coords, degree):
    terms = {}
    for _ in range(2):
        key = tuple(rng.sample(range(len(coords)), degree))
        der = Derivation(chart, partials={rng.choice(coords): rand_expr(rng, coords, terms=2)})
        terms[key] = der + terms.get(key, Derivation(chart))
    return VForm(chart, coords, degree, terms)


def test_nijenhuis_graded_antisymmetry():
    rng = random.Random(31)
    coords = (x(1), v(1), v(2))
    chart = FiniteChart(coords)
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
    chart = FiniteChart(coords)
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
    chart = FiniteChart(coords)
    om = VForm(chart, coords, 1, {(0,): Derivation(chart, partials={x(1): ONE})})
    assert om.nijenhuis(om).is_zero()


def test_nijenhuis_degree_two_over_line_vanishes():
    # dx (x) (D_x + a d/dy) squared over a 1-dimensional base
    ext = Extended(Evolution(1, [u(1)]), (y(1),))
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
    assert der.partials == {v(1): 2 * v(1)}

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
    assert ubar.terms[(0,)].partials == {x(1): ONE}
    assert ubar.terms[(1,)].partials == {x(2): ONE}
    assert uform.terms[(2,)].partials == {v(1): ONE}
    # n=1, m=1, v1 = v: Ubar = dx (x) (d/dx + v d/dv)
    spec2 = flatrep.connection(1, 1, {(1, 1): Expr.wrap(v(1))})
    ub2, u2 = connection_forms(spec2)
    assert ub2.terms[(0,)].partials == {x(1): ONE, v(1): Expr.wrap(v(1))}
    assert u2.terms[(0,)].partials == {v(1): -Expr.wrap(v(1))}
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
    theta = VForm(chart, ubar.coframe, 0, {(): Derivation(chart, partials={v(1): ONE})})
    assert d_nabla_vertical(spec, theta).is_zero()

    spec1 = flatrep.connection(2, 1, {(1, 1): Expr.wrap(x(2)), (2, 1): Expr.wrap(x(1))})
    ub1, _ = connection_forms(spec1)
    theta_v = VForm(ub1.space, ub1.coframe, 0,
                    {(): Derivation(ub1.space, partials={v(1): Expr.wrap(v(1))})})
    img = d_nabla_vertical(spec1, theta_v)
    assert img.terms[(0,)].partials == {v(1): Expr.wrap(x(2))}
    assert img.terms[(1,)].partials == {v(1): Expr.wrap(x(1))}


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
            (): Derivation(chart, partials={v(1): rand_expr(rng, list(ubar.coframe))}),
        })
        once = d_nabla_vertical(spec, theta)
        assert d_nabla_vertical(spec, once).is_zero()


def test_d_nabla_rejects_nonflat():
    spec = flatrep.connection(2, 1, {(1, 1): Expr.wrap(v(1)), (2, 1): x(1) * v(1)})
    ubar, _ = connection_forms(spec)
    theta = VForm(ubar.space, ubar.coframe, 0,
                  {(): Derivation(ubar.space, partials={v(1): ONE})})
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
            ubar, _ = connection_forms(spec)
            chart, coords = ubar.space, list(ubar.coframe)
            fiber = {spec.scheme.indep(d): d for d in spec.fiber_dirs}
            for q in (0, 1):
                data, terms = {}, {}
                for dirs in ([()] if q == 0 else [(i,) for i in spec.base_dirs]):
                    comps = {s: rand_expr(rng, coords, degree=2, terms=2) for s in fiber}
                    data.update({(dirs, fiber[s]): f for s, f in comps.items()})
                    key = tuple(coords.index(spec.scheme.indep(i)) for i in dirs)
                    terms[key] = Derivation(chart, partials=comps)
                image = d_nabla_vertical(spec, VForm(chart, coords, q, terms))
                got = {}
                for key, der in image.terms.items():
                    assert not der.dirs and set(der.partials) <= set(fiber)
                    dirs = tuple(spec.base_dirs[k] for k in key)
                    got.update({(dirs, fiber[s]): e for s, e in der.partials.items()})
                assert got == dict(Cochain(spec, q, data).d.items())
                cases += 1
    # 11 of the 12 v-dependent connections drawn have a nonzero twist.
    assert (cases, twisted) == (48, 11)


def test_connection_forms_refuse_a_jet_space_spec():
    # The Miura representation has base and fiber directions too, but over
    # the KdV jets: no coordinate connection.
    miura = build_kdv().miura
    with pytest.raises(ValueError, match="^not a coordinate connection"):
        connection_forms(miura)
    chart = FiniteChart((x(1), x(2), y(1)))
    theta = VForm(chart, chart.coords, 0, {(): Derivation(chart, partials={y(1): ONE})})
    with pytest.raises(ValueError, match="^not a coordinate connection"):
        d_nabla_vertical(miura, theta)
