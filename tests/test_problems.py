from fractions import Fraction

import pytest

from flatconn.expr import ZERO, Expr, fc, jet, param, render, v, x, y
from flatconn import fce, flatrep, jets
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
    assert pf.flatrep.fields[(1, 1)] == param("lam") + jet(1, ()) + y(1) ** 2
    assert pf.ansatz_symbols == (
        x(1), x(2), y(1), jet(1, ()), jet(1, (1,)), jet(1, (1, 1)),
        jet(1, (1, 1, 1)), param("lam"),
    )
    spec = pf.flat_representation()
    assert flatrep.check_flat_rep(spec).verdict == "pass"


def test_minus_binds_looser_than_power_after_an_operator():
    # A minus after an operator used to negate before ^ (2*-x1^2 read as
    # 2*x1^2), while a leading one negated after it; now each reads as
    # -(x1^2).  A leading + is still accepted only at the start.
    def parse(text):
        pf = parse_problem(FLAT_XY.replace("v1 = x2", "v1 = " + text))
        return render(pf.connection[(1, 1)])

    assert parse("2*-x1^2") == "-2*x1^2"
    assert parse("x2 - -x1^2") == "x1^2 + x2"
    assert parse("1/-2^2") == "-1/4"
    assert parse("-x1^2") == "-x1^2"
    assert parse("(-x1)^2") == "x1^2"
    assert parse("--x1") == "x1"
    assert parse("+x1") == "x1"
    with pytest.raises(ParseError, match="unexpected token '\\+'"):
        parse("2*+x1")


def test_index_range_error():
    bad = FLAT_XY.replace("v2 = x1", "v3 = 0")
    with pytest.raises(ParseError, match="index out of range"):
        parse_problem(bad)


def test_undeclared_variable_error():
    bad = FLAT_XY.replace("v1 = x2", "v1 = q7")
    with pytest.raises(ParseError, match="undeclared variable"):
        parse_problem(bad)
    bad2 = FLAT_XY.replace("v1 = x2", "v1 = x3")
    with pytest.raises(ParseError, match="outside chart"):
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
    # An empty pool (constants only) used to render as no symbols line, and
    # to re-read as the default pool.
    constants = KDV_LIFT.replace("symbols = x1, x2, y1, u[0], u[1], u[2], u[3], lam", "symbols =")
    assert parse_problem(constants).ansatz_symbols == ()
    for text in (FLAT_XY, KDV_LIFT, constants):
        pf = parse_problem(text)
        again = parse_problem(render_problem(pf))
        assert render_problem(again) == render_problem(pf)
        assert again.task == pf.task
        assert again.connection == pf.connection
        assert again.flatrep == pf.flatrep
        assert again.symmetry == pf.symmetry
        assert again.ansatz_symbols == pf.ansatz_symbols


def test_duplicate_section_rejected():
    with pytest.raises(ParseError, match="duplicate"):
        parse_problem(FLAT_XY + "\n[connection]\nv1 = x1\n")


def test_covering_section():
    text = KDV_LIFT.replace("[flatrep]", "[covering]").replace("a1 =", "X1 =").replace("a2 =", "X2 =")
    pf = parse_problem(text)
    assert pf.flatrep.header == "covering"
    assert "\n[covering]\n" in render_problem(pf)
    assert parse_problem(render_problem(pf)).flatrep == pf.flatrep
    assert flatrep.check_flat_rep(pf.flat_representation()).verdict == "pass"


def test_flatrep_and_covering_are_exclusive():
    # Both sections used to parse, and flat_representation() silently
    # dropped [covering]; now the file is refused.
    covering = "\n[covering]\nfibers = 1\nX1 = y1\nX2 = 0\n"
    with pytest.raises(ParseError, match="exclusive"):
        parse_problem(KDV_LIFT + covering)


def _line(text, line):
    """The number of the first line of ``text`` that reads ``line``."""
    return text.split("\n").index(line) + 1


def _refused(text, match):
    """The line that the refusal of ``text`` reports."""
    with pytest.raises(ParseError, match=match) as err:
        parse_problem(text)
    return err.value.line


COVERING = KDV_LIFT.replace("[flatrep]", "[covering]").replace("a1 =", "X1 =")
EXACT = KDV_LIFT.replace("[symmetry]\nphi1 = u[1]", "[cochain]\nc1 = 1\nc2 = 0").replace(
    "name = lift", "name = exactness")
FC_PHI = """
[chart]
n = 2
m = 1
kind = fc

[symmetry]
phi1 = v[1;1;]
phi2 = v[1;2;]
"""


def test_key_bound_twice_is_refused_at_its_line():
    # Each section used to keep the last of two bindings of one key.
    for text, line in [
        (FLAT_XY, "n = 2"), (FLAT_XY, "v1 = x2"), (FLAT_XY, "name = check-flat"),
        (KDV_LIFT, "f1 = u[3] + 6*u[0]*u[1]"), (KDV_LIFT, "fibers = 1"),
        (KDV_LIFT, "a1 = lam + u[0] + y1^2"), (COVERING, "X1 = lam + u[0] + y1^2"),
        (KDV_LIFT, "phi1 = u[1]"), (KDV_LIFT, "degree = 4"), (EXACT, "c1 = 1"),
    ]:
        twice = text.replace(line + "\n", line + "\n" + line + "\n", 1)
        assert _refused(twice, "bound twice") == _line(text, line) + 1, line


def test_entry_bound_by_two_spellings_is_refused():
    # On m = 1 (one fiber), v1 and v1_1 name one entry; the second used to
    # win.  Leading zeros and a second index 0 are no spellings of it.
    for text, line, extra in [
        (FLAT_XY, "v2 = x1", "v1_1 = x1"),
        (KDV_LIFT, "a2 = u[2] + 2*u[0]^2 - 2*lam*u[0] - 4*lam^2 + 2*u[1]*y1"
                   " + y1^2*(2*u[0] - 4*lam)", "a1_1 = 0"),
        (EXACT, "c2 = 0", "c1_1 = 0"),
        (FC_PHI, "phi2 = v[1;2;]", "phi1_1 = 0"),
    ]:
        text = text.replace(line, line + "\n" + extra)
        assert _refused(text, "binds an entry bound on an earlier line") == _line(text, extra)
    at = _line(FLAT_XY, "v1 = x2")
    assert _refused(FLAT_XY.replace("v1 = x2", "v01 = x2"), "malformed") == at
    assert _refused(FLAT_XY.replace("v1 = x2", "v1_0 = x2"), "out of range") == at


def test_unknown_chart_key_is_refused():
    text = FLAT_XY.replace("kind = connection", "kind = connection\nfibres = 3")
    assert _refused(text, "unknown \\[chart\\] key 'fibres'") == _line(text, "fibres = 3")


def test_task_option_the_task_does_not_read_is_refused():
    text = KDV_LIFT.replace("name = lift", "name = lift\nat = 1")
    assert _refused(text, "task lift reads no option 'at'") == _line(text, "at = 1")


def test_pullback_expr_is_parsed_with_its_line():
    # The expression used to be parsed by the CLI, its errors at line 0.
    pullback = KDV_LIFT.replace("name = lift", "name = pullback\nexpr = v[1;1;1]")
    pullback = pullback.replace("[symmetry]\nphi1 = u[1]\n", "")
    assert parse_problem(pullback).pullback_expr == Expr.wrap(fc(1, (1,), (1,)))
    at = _line(pullback, "expr = v[1;1;1]")
    assert _refused(pullback.replace("expr = v[1;1;1]", "expr = v[1;3;]"), "outside chart") == at
    assert _refused(pullback.replace("expr = v[1;1;1]", "expr = q"), "undeclared") == at


def test_names_that_shadow_or_cannot_be_used_are_refused():
    # names = x2, x1 made x2 mean x1, names = v1, t hid the fiber coordinate,
    # 1x could never be written, and a name equal to a parameter lost to it.
    for names, params in [("x2, x1", ""), ("v1, t", ""), ("1x", ""), ("a, a", ""),
                          ("y1", ""), ("t", "t")]:
        text = FLAT_XY.replace("kind = connection", "kind = connection\nnames = %s\nparams = %s"
                               % (names, params))
        assert _refused(text, "bad name '%s'" % names.split(",")[0]) == _line(text, "names = " + names)
    text = FLAT_XY.replace("kind = connection", "kind = connection\nparams = x1")
    assert _refused(text, "bad parameter name 'x1'") == _line(text, "params = x1")
    ok = parse_problem(FLAT_XY.replace("kind = connection", "kind = connection\nnames = s, t"))
    assert ok.names == ("s", "t")


def test_file_is_checked_for_the_invoked_task():
    with pytest.raises(ParseError, match="declares task 'check-flat', invoked as 'dfc'") as err:
        parse_problem(FLAT_XY, "dfc")
    assert err.value.line == _line(FLAT_XY, "name = check-flat")
    undeclared = FLAT_XY.replace("[task]\nname = check-flat\n", "")
    with pytest.raises(ParseError, match="task dfc needs an fc chart"):
        parse_problem(undeclared, "dfc")
    assert parse_problem(undeclared, "check-flat").task == "check-flat"
    assert _refused(KDV_LIFT.replace("[flatrep]", "[ansatz2]"), "unknown section") == \
        _line(KDV_LIFT, "[flatrep]")


def test_section_refusals_read_the_line_of_their_header():
    # These refusals used to read line 0.
    no_symmetry = KDV_LIFT.replace("[symmetry]\nphi1 = u[1]\n", "")
    for text, match, header in [
        (no_symmetry, "task lift requires a \\[symmetry\\] section", "[task]"),
        (FLAT_XY.replace("kind = connection", "kind = evolution"),
         "\\[connection\\] needs a connection or fc chart", "[connection]"),
        (FLAT_XY.replace("n = 2\n", ""), "\\[chart\\] is missing 'n'", "[chart]"),
        (FLAT_XY.replace("kind = connection\n", ""), "missing 'kind'", "[chart]"),
        (FLAT_XY.replace("name = check-flat\n", ""), "\\[task\\] is missing 'name'", "[task]"),
        (KDV_LIFT.replace("fibers = 1\n", ""), "needs a fibers count", "[flatrep]"),
        (KDV_LIFT.replace("m = 1", "m = 2"), "equation must bind every dependent", "[equation]"),
        (FLAT_XY.replace("name = check-flat", "name = dfc"), "task dfc needs an fc chart",
         "[task]"),
    ]:
        assert _refused(text, match) == _line(text, header), match
    # invoked as a task the file does not declare: the [chart] header
    undeclared = no_symmetry.replace("[task]\nname = lift\n", "")
    with pytest.raises(ParseError, match="task lift requires a \\[symmetry\\] section") as err:
        parse_problem(undeclared, "lift")
    assert err.value.line == _line(undeclared, "[chart]")


DEFORMATION = KDV_LIFT.split("[symmetry]")[0] + "[task]\nname = deformation\nparam = lam\nat = 1/2\n"


def test_deformation_options_are_parsed_with_their_line():
    # at and param used to be checked by the CLI after parsing, with no line.
    pf = parse_problem(DEFORMATION)
    assert (pf.deformation_param, pf.deformation_at) == ("lam", Fraction(1, 2))
    default = parse_problem(DEFORMATION.replace("param = lam\nat = 1/2\n", ""))
    assert (default.deformation_param, default.deformation_at) == ("lam", None)
    for line, bad, match in [
        ("at = 1/2", "at = x", "at must be a rational number, got 'x'"),
        ("at = 1/2", "at = 1/0", "at must be a rational number, got '1/0'"),
        ("param = lam", "param = q", "parameter 'q' is not declared in the chart"),
    ]:
        text = DEFORMATION.replace(line, bad)
        assert _refused(text, match) == _line(text, bad)
    two = DEFORMATION.replace("params = lam", "params = lam, mu").replace("param = lam\n", "")
    assert _refused(two, "needs a 'param' option or exactly one parameter") == _line(two, "[task]")


NO_FLATREP = EXACT[:EXACT.index("[flatrep]")] + EXACT[EXACT.index("[cochain]"):]
# Each refusal of the reader: a valid fixture, an edit (old -> new), the
# message and the start of the line it reads (the edit's, unless named).
REFUSALS = [
    (FLAT_XY, "[chart]", "n = 2\n[chart]", "binding outside any section", None),
    (FLAT_XY, "v1 = x2", "v1 x2", "expected 'key = value'", None),
    (FLAT_XY, "kind = connection", "kind = cone", "unknown chart kind 'cone'", None),
    (FLAT_XY, "n = 2", "n = 0", "n must be a positive integer", None),
    (KDV_LIFT, "n = 2", "n = 3", "evolution charts have n = 2 (x and t)", None),
    (KDV_LIFT, "names = x, t", "names = x, t, s", "more names than independents", None),
    (FLAT_XY, "[task]", "[equation]\nf1 = x1\n[task]", "[equation] needs an evolution chart",
     "[equation]"),
    (KDV_LIFT, "f1 = ", "f2 = ", "equation keys are f1..f1", None),
    (FLAT_XY, "[task]", "[flatrep]\nfibers = 1\n[task]", "[flatrep] needs an evolution chart",
     "[flatrep]"),
    (FLAT_XY, "[task]", "[covering]\nfibers = 1\n[task]", "[covering] needs an evolution chart",
     "[covering]"),
    (KDV_LIFT, "fibers = 1", "fibers = 0", "fibers must be a positive integer", None),
    (NO_FLATREP, "[cochain]", "[cochain]", "[cochain] needs a [flatrep] or [covering] first", None),
    (FLAT_XY, "v1 = x2", "w1 = x2", "connection keys are v<i> or v<i>_<a>", None),
    (KDV_LIFT, "phi1 = u[1]", "psi1 = u[1]", "symmetry keys start with f, g or phi", None),
    (KDV_LIFT, "phi1 = u[1]", "phi2 = u[1]", "component keys are phi1..phi1", None),
    (KDV_LIFT, "symbols = x1,", "symbols = x1*x2,", "'x1*x2' is not a single symbol", None),
    (KDV_LIFT, "symbols = x1,", "symbols = 2*x1,", "'2*x1' is not a single symbol", None),
    (KDV_LIFT, "symbols = x1,", "symbols = -x1,", "'-x1' is not a single symbol", None),
    (KDV_LIFT, "symbols = x1,", "symbols = 1/2*x1,", "'1/2*x1' is not a single symbol", None),
    (KDV_LIFT, "params = lam", "params = lam, lam", "parameter 'lam' is given twice", None),
    (KDV_LIFT, "degree = 4", "depth = 4", "unknown ansatz key 'depth'", None),
    (KDV_LIFT, "degree = 4", "degree = -1", "degree must be a nonnegative integer", None),
    (KDV_LIFT, "phi1 = u[1]", "phi1 = u[1,2]", "jet form is u[k] with one order index", None),
    (KDV_LIFT, "phi1 = u[1]", "phi1 = u2[1]", "jet u2[1] is not spatial or outside chart", None),
    (KDV_LIFT, "phi1 = u[1]", "phi1 = u[x]", "bad index list near 'x'", None),
    (KDV_LIFT, "a1 = lam + u[0] + y1^2", "a1 = lam + u[0] + y2^2",
     "symbol y2 is foreign to the chart", None),
    (FC_PHI, "phi1 = v[1;1;]", "phi1 = v[1;1]", "fc form is v[a;I;A]", None),
    (FC_PHI, "phi1 = v[1;1;]", "phi1 = v[1;;1]",
     "fc symbol needs |I| >= 1 when A is nonempty", None),
    (FC_PHI, "phi1 = v[1;1;]", "phi1 = v[1;0;]", "fc base indices must be positive integers, got 0",
     None),
    (FLAT_XY, "v1 = x2", "v1 = v2", "symbol v2 is foreign to the chart", None),
    (FLAT_XY, "v1 = x2", "v1 = x0", "independent indices must be positive integers, got 0", None),
    (FLAT_XY, "v1 = x2", "v1 = w[1]", "unknown indexed symbol 'w'", None),
    (FLAT_XY, "v1 = x2", "v1 = x2 +", "unexpected end of expression", None),
    (FLAT_XY, "v1 = x2", "v1 = (x2 x1", "expected ')', found 'x1'", None),
    (FLAT_XY, "v1 = x2", "v1 = x2 x1", "trailing input 'x1'", None),
    (FLAT_XY, "v1 = x2", "v1 = x2/0", "division of an Expr by zero", None),
    (FLAT_XY, "v1 = x2", "v1 = x2^x1", "exponent must be a nonnegative integer", None),
]


@pytest.mark.parametrize("fixture, old, new, message, at", REFUSALS,
                         ids=[case[3] for case in REFUSALS])
def test_every_refusal_reads_its_message_and_line(fixture, old, new, message, at):
    text = fixture.replace(old, new, 1)
    with pytest.raises(ParseError) as err:
        parse_problem(text)
    assert str(err.value).split(": ", 1)[1] == message
    start = at or new.split("\n")[0]
    assert err.value.line == next(
        k for k, line in enumerate(text.split("\n"), 1) if line.startswith(start))


@pytest.mark.parametrize("fixture, line", [
    (FLAT_XY, "n = 2"), (FLAT_XY, "m = 1"), (KDV_LIFT, "fibers = 1"),
    (COVERING, "fibers = 1"), (KDV_LIFT, "degree = 4"), (KDV_LIFT, "order = 3")],
    ids=["[chart] n", "[chart] m", "[flatrep] fibers", "[covering] fibers", "[ansatz] degree",
         "[ansatz] order"])
def test_a_digit_that_is_no_decimal_is_refused_at_its_line(fixture, line):
    # "²" passes str.isdigit but not int(), which used to raise a bare
    # ValueError with no line.
    key = line.split(" = ")[0]
    text = fixture.replace(line, key + " = ²", 1)
    kind = "nonnegative" if key in ("degree", "order") else "positive"
    with pytest.raises(ParseError, match="^line %d:0: %s must be a %s integer$"
                       % (_line(text, key + " = ²"), key, kind)):
        parse_problem(text)


# The parity grid: each spelling and the constructor call it spells.
SPELLINGS = (
    [("x%d" % k, x, (k,)) for k in range(4)] + [("v%d" % k, v, (k,)) for k in range(4)]
    + [("y%d" % k, y, (k,)) for k in range(3)] + [("u[2]", jet, (1, (1, 1)))]
    + [("u%d[1]" % a, jet, (a, (1,))) for a in range(4)]
    + [("v[%d;%s;%s]" % (a, i, b), fc, (a, tuple(map(int, i)), tuple(map(int, b))))
       for a in range(4) for i in ("",) + tuple("0123") for b in ("",) + tuple("0123")])
_EVOLUTION = "[chart]\nn = 2\nm = 2\nkind = evolution\n\n[equation]\nf1 = %s\nf2 = 0\n"
_FIBERS = _EVOLUTION % "u[1]" + "\n[flatrep]\nfibers = 2\n"
# Each chart kind: a file with SYMBOL where the spelling goes, and the chart
# the file's symbols are judged by there.
PARITY = {
    "connection": ("[chart]\nn = 2\nm = 2\nkind = connection\n\n[connection]\nv1_1 = 1 + SYMBOL\n",
                   lambda: flatrep.connection(2, 2, {}).scheme),
    "fc": ("[chart]\nn = 2\nm = 2\nkind = fc\n\n[symmetry]\nf1 = 1 + SYMBOL\n",
           lambda: fce.FcChart(2, 2)),
    "evolution": (_EVOLUTION % "1 + SYMBOL", lambda: jets.Evolution(2, [ZERO] * 2)),
    "evolution with fibers": (_FIBERS + "a1_1 = 1 + SYMBOL\n", lambda: flatrep.covering_to_flatrep(
        jets.Evolution(2, [ZERO] * 2), {}, 2).scheme),
    "pullback expr": (_FIBERS + "\n[task]\nname = pullback\nexpr = 1 + SYMBOL\n",
                      lambda: fce.FcChart(2, 2)),
}


@pytest.mark.parametrize("kind", PARITY)
def test_the_parser_refuses_a_symbol_exactly_when_its_chart_does(kind):
    # The parser spells a symbol and the chart judges it: a refusal of the
    # constructor or of check_symbol is a ParseError at the symbol, in the
    # same words; a symbol both accept parses.
    template, judge = PARITY[kind]
    chart = judge()
    at = "line %d:5: " % next(
        k for k, row in enumerate(template.split("\n"), 1) if "SYMBOL" in row)
    wrong = []
    for spelling, make, args in SPELLINGS:
        try:
            chart.check_symbol(make(*args))
            want = None
        except ValueError as exc:
            want = at + str(exc)
        try:
            parse_problem(template.replace("SYMBOL", spelling))
            got = None
        except Exception as exc:
            got = str(exc) if type(exc) is ParseError else repr(exc)
        if got != want:
            wrong.append((spelling, want, got))
    assert not wrong, wrong
