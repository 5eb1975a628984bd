"""Degenerate-dimension and boundary behavior."""

import re

import pytest

from flatconn.expr import Expr, const, fc, jet, render, v, x, y, ZERO, ONE
from flatconn.jets import Base, Evolution, Extended, FreeJet, total_derivative
from flatconn import fce, flatrep, sdym
from flatconn.linsolve import AnsatzSpec


def test_one_dimensional_base_has_no_flatness_equations():
    spec = flatrep.connection(1, 1, {(1, 1): v(1) * v(1)})
    assert fce.flatness_residual(spec) == []


def test_dfc_top_degree_is_zero():
    ch = fce.FcChart(2, 1)
    top = fce.cochain1(ch, {((1,), 1): Expr.wrap(fc(1, (1,), ()))})
    once = fce.dfc(top)          # degree 2 = n: fine
    again = fce.dfc(once)        # degree 3 over a 2-direction base: empty
    assert again.degree == 3 and again.is_zero()


def test_fc_chart_rejects_foreign_symbols():
    ch = fce.FcChart(2, 1)
    with pytest.raises(ValueError):
        fce.fc_total(ch, 1, Expr.wrap(jet(1, (1,))))
    with pytest.raises(ValueError):
        fce.fc_total(ch, 1, Expr.wrap(fc(2, (1,), ())))  # alpha out of range
    with pytest.raises(ValueError):
        fce.fc_total(ch, 1, Expr.wrap(fc(1, (3,), ())))  # direction out of range


SIZED = {  # each size of the package, as its constructor names it
    "FcChart n": (lambda s: fce.FcChart(s, 1), "n"),
    "FcChart m": (lambda s: fce.FcChart(1, s), "m"),
    # a connection's sizes, keyed as the test ids have always named them
    "ConnectionSpec n": (lambda s: flatrep.connection(s, 1, {}), "n"),
    "ConnectionSpec m": (lambda s: flatrep.connection(1, s, {}), "m"),
    "FreeJet n": (lambda s: FreeJet(s, 1), "n"),
    "FreeJet m": (lambda s: FreeJet(1, s), "m"),
    "Evolution m": (lambda s: Evolution(s, [Expr.wrap(jet(1, (1,)))]), "m"),
    "lambda_expand k": (lambda s: sdym.lambda_expand(s), "k"),
    "build_flatrep k": (lambda s: sdym.build_flatrep(s), "k"),
    "covering_to_flatrep nfibers": (lambda s: flatrep.covering_to_flatrep(
        Evolution(1, [Expr.wrap(jet(1, (1,)))]), {}, s), "nfibers"),
    "Extended nfibers": (lambda s: Extended(FreeJet(1, 1), s), "nfibers"),
}


@pytest.mark.parametrize("bad", [2.0, True, 0, -1])
@pytest.mark.parametrize("case", sorted(SIZED))
def test_every_size_is_a_positive_int(case, bad):
    # One rule: a float, a bool or a number below 1 is refused up front, in
    # words that name the size (2.0 used to fail later with a TypeError, and
    # True to be taken for 1), also once 1 was built and is cached.
    build, size = SIZED[case]
    build(1)
    with pytest.raises(ValueError, match="^%s must be a positive int, got %s$"
                       % (size, re.escape(repr(bad)))):
        build(bad)


def test_cochain_sign_normalization():
    ch = fce.FcChart(2, 1)
    a = fce.Cochain(ch, 2, {((2, 1), 1): Expr.wrap(v(1))})
    b = fce.Cochain(ch, 2, {((1, 2), 1): -Expr.wrap(v(1))})
    assert a == b
    assert fce.Cochain(ch, 2, {((1, 1), 1): ONE}).is_zero()


def test_evolution_rhs_validation():
    with pytest.raises(ValueError):
        Evolution(1, [Expr.wrap(jet(1, (2,)))])  # non-spatial jet
    with pytest.raises(ValueError):
        Evolution(1, [Expr.wrap(v(1))])
    with pytest.raises(ValueError):
        Evolution(2, [Expr.wrap(jet(1, ()))])  # wrong arity


def test_extended_rejects_non_fiber_symbols():
    # An extension names its own fibers, so a fiber of the other kind, or
    # one past the count, is foreign to its chart.
    base = Evolution(1, [Expr.wrap(jet(1, (1,)))])
    for scheme, fiber in ((Extended(base, 1), v(1)), (Extended(base, 1), y(2)),
                          (Extended(Base(1), 1), y(1)), (Extended(Base(1), 1), v(2))):
        with pytest.raises(ValueError, match="^symbol %s is foreign to the chart$"
                           % re.escape(render(fiber))):
            scheme.derive_symbol(fiber, 1)


def test_extended_names_its_own_fibers():
    # Bundle fibers v1..vk over a Base, covering fibers y1..yk over any
    # other scheme, in index order, one fiber direction each.
    assert Extended(Base(2), 2).fibers == (v(1), v(2))
    assert Extended(FreeJet(1, 1), 2).fibers == (y(1), y(2))
    assert Extended(sdym.SdymRewriter(1), 1).fibers == (y(1),)


def test_bundle_fibers_extend_a_base_and_covering_fibers_an_equation():
    base = Base(2)
    assert Extended(base, 2).indep(4) is v(2)
    assert base.derive_symbol(x(2), 2) == ONE
    with pytest.raises(ValueError, match=re.escape("symbol u[1] is foreign to the chart")):
        base.derive_symbol(jet(1, (1,)), 1)


def test_multifiber_covering():
    # two fibers over u_t = u_1: since a_x = a_t and D_t(u0) = D_x(u0) on
    # this equation, the system y1_x = y2, y2_x = u0 (same in t) is flat
    base = Evolution(1, [Expr.wrap(jet(1, (1,)))])
    u0 = jet(1, ())
    spec = flatrep.covering_to_flatrep(
        base,
        {(1, 1): Expr.wrap(y(2)), (1, 2): Expr.wrap(u0),
         (2, 1): Expr.wrap(y(2)), (2, 2): Expr.wrap(u0)},
        2,
    )
    assert flatrep.check_flat_rep(spec).verdict == "pass"
    # the zero covering on two fibers is flat and lifts the zero symmetry
    zero = flatrep.covering_to_flatrep(base, {}, 2)
    assert flatrep.check_flat_rep(zero).verdict == "pass"
    ans = AnsatzSpec(symbols=(x(1), x(2), y(1), y(2), u0), degree=2)
    lift = flatrep.lift_symmetry(zero, [Expr.wrap(jet(1, (1,)))], ans)
    assert dict(lift.items()) == {((), 3): ZERO, ((), 4): ZERO}


def test_pullback_over_a_transport_equation():
    # u_t = u_x with the covering y_x = u0, y_t = u0 (compatible since
    # D_t(u0) = u1 = D_x(u0)); pullback of v_{12} is F_t(a_x)
    base = Evolution(1, [Expr.wrap(jet(1, (1,)))])
    u0 = jet(1, ())
    spec = flatrep.covering_to_flatrep(
        base, {(1, 1): Expr.wrap(u0), (2, 1): Expr.wrap(u0)}, 1)
    assert flatrep.check_flat_rep(spec).verdict == "pass"
    got = flatrep.pullback(spec, Expr.wrap(fc(1, (1, 2), ())))
    assert got == Expr.wrap(jet(1, (1,)))


def test_expr_wrap_rejects_junk():
    with pytest.raises(TypeError):
        Expr.wrap("u[0]")
    with pytest.raises(TypeError):
        Expr.wrap(1.5)


def test_memo_owners_refuse_assignment():
    # Each of these owns a memo (of D_sigma, of normal forms, of F_i images,
    # of a differential); assigning a field could leave it stale.
    from flatconn import sdym

    free = FreeJet(2, 1)
    evo = Evolution(1, [Expr.wrap(jet(1, (1, 1)))])
    ext = Extended(evo, 1)
    rewriter = sdym.SdymRewriter(1)
    chart = fce.FcChart(2, 1)
    spec = flatrep.FlatRepSpec(ext, (1, 2), (3,), {(1, 3): Expr.wrap(y(1))})
    cochain = fce.cochain0(chart, [Expr.wrap(v(1))])
    cases = [
        (free, "m", 2), (evo, "rhs", (ZERO,)), (ext, "base", free),
        (rewriter, "k", 2), (rewriter, "rules", {}), (rewriter, "_nf", {}),
        (chart, "m", 2), (spec, "coeffs", {}), (cochain, "data", (ZERO,)),
    ]
    for obj, name, value in cases:
        before = getattr(obj, name)
        with pytest.raises(AttributeError):
            setattr(obj, name, value)
        with pytest.raises(AttributeError):
            delattr(obj, name)
        assert getattr(obj, name) is before, (type(obj).__name__, name)
    with pytest.raises(TypeError):
        rewriter.rules[(1, (1,))] = rewriter.rules[(2, (1,))]  # the table is read-only
