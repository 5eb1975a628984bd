import pytest

from flatconn.expr import Expr, fc, jet, param, render, v, x, y
from flatconn import fce, flatrep
from flatconn.problems import ParseError, parse_problem, render_problem

FLAT_XY = """
# flat connection over the plane
[chart]
n = 2
m = 1
kind = connection

[connection]
v1 = x2
v2 = x1

[task]
name = check-flat
"""

KDV_LIFT = """
[chart]
n = 2
m = 1
kind = evolution
names = x, t
params = lam

[equation]
f1 = u[3] + 6*u[0]*u[1]

[flatrep]
fibers = 1
a1 = lam + u[0] + y1^2
a2 = u[2] + 2*u[0]^2 - 2*lam*u[0] - 4*lam^2 + 2*u[1]*y1 + y1^2*(2*u[0] - 4*lam)

[symmetry]
phi1 = u[1]

[ansatz]
degree = 4
order = 3
symbols = x1, x2, y1, u[0], u[1], u[2], u[3], lam

[task]
name = lift
"""


def test_parse_connection_smoke():
    pf = parse_problem(FLAT_XY)
    assert (pf.n, pf.m, pf.kind) == (2, 1, "connection")
    assert pf.connection == {(1, 1): Expr.wrap(x(2)), (2, 1): Expr.wrap(x(1))}
    assert pf.task == "check-flat"
    spec = pf.connection_spec()
    assert all(r.is_zero() for r in fce.flatness_residual(spec))


def test_parse_kdv_expression():
    pf = parse_problem(KDV_LIFT)
    assert pf.equation[0] == jet(1, (1, 1, 1)) + 6 * jet(1, ()) * jet(1, (1,))
    assert len(pf.equation[0].terms) == 2
    assert pf.flatrep_coeffs[(1, 1)] == param("lam") + jet(1, ()) + y(1) ** 2
    assert pf.ansatz_symbols == (
        x(1), x(2), y(1), jet(1, ()), jet(1, (1,)), jet(1, (1, 1)),
        jet(1, (1, 1, 1)), param("lam"),
    )
    spec = pf.flat_representation()
    assert flatrep.check_flat_rep(spec).verdict == "pass"


def test_index_range_error():
    bad = FLAT_XY.replace("v2 = x1", "v3 = 0")
    with pytest.raises(ParseError, match="index out of range"):
        parse_problem(bad)


def test_undeclared_variable_error():
    bad = FLAT_XY.replace("v1 = x2", "v1 = q7")
    with pytest.raises(ParseError, match="undeclared variable"):
        parse_problem(bad)
    bad2 = FLAT_XY.replace("v1 = x2", "v1 = x3")
    with pytest.raises(ParseError, match="out of range"):
        parse_problem(bad2)


def test_syntax_errors_have_positions():
    bad = FLAT_XY.replace("v1 = x2", "v1 = x2 + + ")
    with pytest.raises(ParseError) as err:
        parse_problem(bad)
    assert "line" in str(err.value)
    with pytest.raises(ParseError, match="unexpected character"):
        parse_problem(FLAT_XY.replace("v1 = x2", "v1 = x2 @ 3"))
    with pytest.raises(ParseError, match="missing"):
        parse_problem("[connection]\nv1 = x2\n")


def test_section_task_consistency():
    text = FLAT_XY.replace("[connection]\nv1 = x2\nv2 = x1\n\n", "")
    with pytest.raises(ParseError, match="requires"):
        parse_problem(text)
    with pytest.raises(ParseError, match="unknown task"):
        parse_problem(FLAT_XY.replace("name = check-flat", "name = frobnicate"))


def test_fc_chart_symbols():
    text = """
[chart]
n = 2
m = 1
kind = fc

[symmetry]
phi1 = v[1;1;] - v[1;1;1]*v1
phi2 = v[1;2;] - v[1;2;1]*v1

[task]
name = recover-f
"""
    pf = parse_problem(text)
    got = pf.symmetry["phi"][(1, 1)]
    assert got == fc(1, (1,), ()) - fc(1, (1,), (1,)) * v(1)
    chart = pf.fc_chart()
    phi = fce.cochain1(chart, {((i,), a): e for (i, a), e in pf.symmetry["phi"].items()})
    assert fce.recover_f(chart, phi) == fce.cochain0(chart, [Expr.wrap(v(1))])


def test_round_trip_stability():
    for text in (FLAT_XY, KDV_LIFT):
        pf = parse_problem(text)
        again = parse_problem(render_problem(pf))
        assert render_problem(again) == render_problem(pf)
        assert again.task == pf.task
        assert again.connection == pf.connection
        assert again.flatrep_coeffs == pf.flatrep_coeffs
        assert again.symmetry == pf.symmetry
        assert again.ansatz_symbols == pf.ansatz_symbols


def test_duplicate_section_rejected():
    with pytest.raises(ParseError, match="duplicate"):
        parse_problem(FLAT_XY + "\n[connection]\nv1 = x1\n")


def test_covering_section():
    text = KDV_LIFT.replace("[flatrep]", "[covering]").replace("a1 =", "X1 =").replace("a2 =", "X2 =")
    pf = parse_problem(text)
    assert pf.covering_fields is not None
    assert flatrep.check_flat_rep(pf.flat_representation()).verdict == "pass"


def test_flatrep_and_covering_are_exclusive():
    # Both sections used to parse, and flat_representation() silently
    # dropped [covering]; now the file is refused.
    covering = "\n[covering]\nfibers = 1\nX1 = y1\nX2 = 0\n"
    with pytest.raises(ParseError, match="exclusive"):
        parse_problem(KDV_LIFT + covering)
