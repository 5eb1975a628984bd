import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from flatconn import flatrep
from flatconn.cli import run
from flatconn.kdv import build_kdv
from helpers import spy_solver

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


@pytest.fixture
def prob(tmp_path):
    def write(name, text):
        p = tmp_path / name
        p.write_text(text)
        return str(p)
    return write


FLAT_XY = """
[chart]
n = 2
m = 1
kind = connection
[connection]
v1 = x2
v2 = x1
"""

NONFLAT = """
[chart]
n = 2
m = 1
kind = connection
[connection]
v1 = v1
v2 = x1*v1
"""

CONSTS = """
[chart]
n = 2
m = 2
kind = fc
[symmetry]
f1 = 1
f2 = 0
g1 = 0
g2 = 1
"""

MIURA = """
[chart]
n = 2
m = 1
kind = evolution
params = lam
[equation]
f1 = u[3] + 6*u[0]*u[1]
[flatrep]
fibers = 1
a1 = lam + u[0] + y1^2
a2 = u[2] + 2*u[0]^2 - 2*lam*u[0] - 4*lam^2 + 2*u[1]*y1 + y1^2*(2*u[0] - 4*lam)
"""


def _json_report(capsys):
    out = capsys.readouterr().out.strip().splitlines()[-1]
    return json.loads(out)


def test_check_flat_pass(prob, capsys):
    code = run(["check-flat", prob("flat.prob", FLAT_XY), "--json"])
    rep = _json_report(capsys)
    assert code == 0
    assert rep["verdict"] == "pass"
    assert rep["residuals"] == ["0"]


def test_check_flat_fail_renders_residual(prob, capsys):
    code = run(["check-flat", prob("bent.prob", NONFLAT), "--json"])
    rep = _json_report(capsys)
    assert code == 1
    assert rep["verdict"] == "fail"
    assert rep["residuals"] == ["v1"]


def test_bracket_of_constants(prob, capsys):
    code = run(["bracket", prob("consts.prob", CONSTS), "--json"])
    rep = _json_report(capsys)
    assert code == 0
    assert rep["witness"] == {"h1": "0", "h2": "0"}


def test_kdv_lift_witness(prob, capsys):
    code = run(["kdv-lift", "x-translation", "--json"])
    rep = _json_report(capsys)
    assert code == 0
    assert rep["verdict"] == "witness"
    assert rep["witness"] == {"a": "lam + u[0] + y1^2"}


def test_kdv_lift_galilean_bounded_no(prob, capsys):
    code = run(["kdv-lift", "galilean", "--lambda", "1", "--json"])
    rep = _json_report(capsys)
    assert code == 1
    assert rep["verdict"] == "bounded-no"


@pytest.mark.parametrize("argv, code, solve", [
    # Pin propagation alone finds the bounded-no: nothing reaches elimination.
    (["galilean", "--lambda", "1"], 1,
     {"basis": 330, "unknowns": 154, "rows": 934, "nnz": 1719, "left": None, "none": True}),
    (["x-translation"], 0,
     {"basis": 495, "unknowns": 27, "rows": 160, "nnz": 262, "left": (11, 3), "none": False}),
])
def test_kdv_lift_solver_counts(monkeypatch, argv, code, solve):
    # The ansatz each lift declares, and the blocks of its system that hold
    # the target's rows, counted at the solver: a change to how the block is
    # assembled must leave every count as it is.
    log = spy_solver(monkeypatch)
    assert run(["kdv-lift"] + argv + ["--json"]) == code
    assert log == [solve]


def test_kdv_verify(prob, capsys):
    assert run(["kdv-verify", "--json"]) == 0
    assert _json_report(capsys)["verdict"] == "pass"


def test_kdv_deformation(prob, capsys):
    assert run(["kdv-deformation", "--json"]) == 0
    rep = _json_report(capsys)
    assert rep["witness"]["c1"] == "1"
    assert rep["witness"]["c2"] == "-8*lam - 2*u[0] - 4*y1^2"


def test_exactness_bounded_no(prob, capsys):
    text = MIURA + """
[cochain]
c1 = 1
c2 = -8*lam - 2*u[0] - 4*y1^2
[ansatz]
degree = 4
symbols = x1, x2, y1, u[0], u[1], u[2]
"""
    code = run(["exactness", prob("exact.prob", text), "--json"])
    rep = _json_report(capsys)
    assert code == 1
    assert rep["verdict"] == "bounded-no"
    assert rep["witness"]["bound_degree"] == "4"


def test_lift_task_from_file(prob, capsys):
    text = MIURA + """
[symmetry]
phi1 = u[1]
[ansatz]
degree = 4
symbols = x1, x2, y1, u[0], u[1], u[2], u[3], lam
"""
    code = run(["lift", prob("lift.prob", text), "--json"])
    rep = _json_report(capsys)
    assert code == 0
    assert rep["witness"] == {"a1": "lam + u[0] + y1^2"}


FC_RECOVER = """
[chart]
n = 2
m = 2
kind = fc
[symmetry]
phi1_1 = -x1*v[1;1;2] - v1*v2*v[1;1;1] + v1*v[2;1;] + v2*v[1;1;] + 2*v2*v[1;1;2]
phi1_2 = 1 - x1*v[2;1;2] - v1*v2*v[2;1;1] + 2*v2*v[2;1;2] - 2*v[2;1;]
phi2_1 = -x1*v[1;2;2] - v1*v2*v[1;2;1] + v1*v[2;2;] + v2*v[1;2;] + 2*v2*v[1;2;2]
phi2_2 = -x1*v[2;2;2] - v1*v2*v[2;2;1] + 2*v2*v[2;2;2] - 2*v[2;2;]
"""


def test_file_bounds_apply_without_symbols(prob, capsys):
    # An [ansatz] without a symbols line still bounds the default pool: the
    # witness f1 = v1*v2 has degree 2, and a1 = lam + u[0] + y1^2 too.
    recover = prob("rec.prob", FC_RECOVER + "[ansatz]\ndegree = 0\n")
    assert run(["recover-f", recover, "--json"]) == 1
    rep = _json_report(capsys)
    assert rep["verdict"] == "bounded-no" and rep["witness"]["bound_degree"] == "0"
    lift = prob("lift.prob", MIURA + "[symmetry]\nphi1 = u[1]\n"
                "[ansatz]\ndegree = 0\norder = 0\n")
    assert run(["lift", lift, "--json"]) == 1
    rep = _json_report(capsys)
    assert rep["verdict"] == "bounded-no" and rep["witness"]["bound_degree"] == "0"
    syms = rep["witness"]["bound_symbols"].split(", ")
    assert [s for s in syms if s.startswith("u[")] == ["u[0]"]
    # the flags still override the file
    assert run(["recover-f", recover, "--degree", "2", "--json"]) == 0
    assert _json_report(capsys)["witness"] == {"f1": "v1*v2", "f2": "x1 - 2*v2"}
    assert run(["lift", lift, "--degree", "2", "--json"]) == 0
    assert _json_report(capsys)["witness"] == {"a1": "lam + u[0] + y1^2"}
    assert run(["lift", lift, "--order", "2", "--json"]) == 1
    syms = _json_report(capsys)["witness"]["bound_symbols"].split(", ")
    assert [s for s in syms if s.startswith("u[")] == ["u[0]", "u[1]", "u[2]"]


KDV_LIFT = MIURA + "[symmetry]\nphi1 = u[1]\n"  # perfbench/problems/kdv_lift.prob


def test_file_symbols_apply_without_degree(prob, capsys):
    # The declared pool holds without a degree; the degree then comes from
    # the default ansatz.  The witness a1 = lam + u[0] + y1^2 lies outside it.
    path = prob("lift.prob", KDV_LIFT + "[ansatz]\nsymbols = x1, y1\n")
    assert run(["lift", path, "--json"]) == 1
    rep = _json_report(capsys)
    assert rep["verdict"] == "bounded-no"
    assert rep["witness"] == {"bound_degree": "4", "bound_symbols": "x1, y1"}
    assert run(["lift", path, "--degree", "2", "--json"]) == 1
    assert _json_report(capsys)["witness"]["bound_symbols"] == "x1, y1"


def test_order_bound_cuts_explicit_pool(prob, capsys):
    pool = "[ansatz]\ndegree = 4\nsymbols = x1, x2, y1, u[0], u[1], u[2], u[3], lam\n"
    path = prob("lift.prob", KDV_LIFT + pool)
    assert run(["lift", path, "--order", "0", "--degree", "1", "--json"]) == 1
    rep = _json_report(capsys)
    assert rep["witness"] == {"bound_degree": "1", "bound_symbols": "lam, x1, x2, u[0], y1"}
    path = prob("lift1.prob", KDV_LIFT + pool + "order = 1\n")
    assert run(["lift", path, "--json"]) == 0  # a1 = lam + u[0] + y1^2 needs no u[1]
    assert _json_report(capsys)["witness"] == {"a1": "lam + u[0] + y1^2"}
    assert run(["lift", path, "--order", "0", "--degree", "1", "--json"]) == 1
    syms = _json_report(capsys)["witness"]["bound_symbols"].split(", ")
    assert [s for s in syms if s.startswith("u[")] == ["u[0]"]


def test_order_flag_on_a_chart_without_jets_exits_2(prob, capsys):
    # recover-f takes no --order, its chart having no jets: argparse refuses it.
    capsys.readouterr()
    assert run(["recover-f", prob("rec.prob", FC_RECOVER), "--order", "1", "--json"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "unrecognized arguments: --order 1" in err
    assert run(["check-flat", prob("flat.prob", FLAT_XY), "--order", "0"]) == 2
    assert run(["recover-f", prob("rec.prob", FC_RECOVER), "--json"]) == 0


def test_flags_a_task_does_not_read_exit_2(prob, capsys):
    # Each task takes only the flags its handler reads; argparse refuses the
    # others, so `lift --lambda 1` cannot answer with the symbolic-lambda
    # witness as if the value had been used.
    lift = prob("kdv_lift.prob", KDV_LIFT)
    miura = prob("miura.prob", MIURA)
    for argv, flag in [
        (["lift", lift], ["--lambda", "1"]),
        (["check-flatrep", miura], ["--degree", "3"]),
        (["sdym-expand"], ["--order", "1"]),
    ]:
        capsys.readouterr()
        assert run(argv + flag + ["--json"]) == 2, flag
        out, err = capsys.readouterr()
        assert out == "", flag
        assert "unrecognized arguments: %s" % " ".join(flag) in err, (flag, err)
        assert run(argv + ["--json"]) == 0, argv
    assert _json_report(capsys)["task"] == "sdym-expand"


def test_pullback_task(prob, capsys):
    text = MIURA + """
[task]
name = pullback
expr = v[1;1;1]
"""
    code = run(["pullback", prob("pb.prob", text), "--json"])
    rep = _json_report(capsys)
    assert code == 0
    assert rep["witness"] == {"pullback": "2*y1"}


def test_deformation_task(prob, capsys):
    code = run(["deformation", prob("def.prob", MIURA), "--json"])
    rep = _json_report(capsys)
    assert code == 0
    assert rep["witness"]["c2_3"] == "-8*lam - 2*u[0] - 4*y1^2"


def test_check_flatrep_task(prob, capsys):
    assert run(["check-flatrep", prob("m.prob", MIURA), "--json"]) == 0
    assert _json_report(capsys)["verdict"] == "pass"


def test_sdym_tasks(capsys):
    assert run(["sdym-expand", "--k", "1", "--json"]) == 0
    rep = _json_report(capsys)
    assert rep["witness"]["lambda0_11"].startswith("-u[")
    assert run(["sdym-flatrep", "--k", "1", "--lambda", "0", "--json"]) == 0
    assert run(["sdym-ugh", "--k", "1", "--json"]) == 0


def test_input_errors_exit_2(prob, capsys):
    assert run(["check-flat", "/nonexistent/x.prob"]) == 2
    assert run(["check-flat", prob("bad.prob", "[chart]\nn = 2\n")]) == 2
    assert run(["kdv-lift", "unknown-name"]) == 2
    assert run(["frobnicate"]) == 2
    bad = FLAT_XY + "[task]\nname = dfc\n"
    # declared task must match invocation; dfc also needs an fc chart
    assert run(["check-flat", prob("mismatch.prob", bad)]) == 2
    # a jet-order bound on a chart without jets
    capsys.readouterr()
    assert run(["recover-f", prob("rec.prob", FC_RECOVER + "[ansatz]\norder = 1\n")]) == 2
    assert capsys.readouterr().err == (
        "error: line 12:0: order bounds jet orders, and a fc chart has none\n")
    # argparse makes a usage error of a flag's ValueError, not of Fraction's
    # ZeroDivisionError, which used to escape run
    miura = prob("miura.prob", MIURA)
    for argv in (["kdv-lift", "x-translation"], ["kdv-deformation"], ["deformation", miura],
                 ["sdym-flatrep", "--k", "1"]):
        for value in ("1/0", "abc"):
            assert run(argv + ["--lambda", value, "--json"]) == 2, (argv, value)
            out, err = capsys.readouterr()
            assert out == "", (argv, value)
            assert err.endswith("error: argument --lambda: invalid Fraction value: %r\n"
                                % value), err


def test_negative_order_exits_2(prob, capsys):
    # A negative jet-order bound used to answer bounded-no over a pool with
    # no jets; it is bad input, as [ansatz] order = -1 and --degree -1 are.
    exact = MIURA + "[cochain]\nc1 = 1\nc2 = -8*lam - 2*u[0] - 4*y1^2\n"
    for argv in (["kdv-lift", "x-translation", "--order", "-1"],
                 ["lift", prob("lift.prob", KDV_LIFT), "--order", "-1"],
                 ["exactness", prob("exact.prob", exact), "--order", "-2"]):
        capsys.readouterr()
        assert run(argv + ["--json"]) == 2, argv
        out, err = capsys.readouterr()
        assert (out, err) == ("", "error: jet-order bound must be nonnegative\n"), argv
    with pytest.raises(ValueError, match="jet-order bound must be nonnegative"):
        flatrep.default_ansatz(build_kdv().miura, order=-1)


def test_huge_ansatz_exits_2(prob, capsys):
    # The size is refused by arithmetic before any monomial is built:
    # C(206, 6) = 98,619,368,491 monomials on one fiber.
    text = MIURA + """
[cochain]
c1 = 1
c2 = -8*lam - 2*u[0] - 4*y1^2
[ansatz]
degree = 200
symbols = x1, x2, y1, u[0], u[1], u[2]
"""
    capsys.readouterr()
    assert run(["exactness", prob("huge.prob", text), "--json"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ansatz too large: 98619368491 unknowns ("), err


def test_check_reads_the_verdict_from_the_residuals():
    # One rule for every check: pass when each printed residual is "0".  A
    # report built by hand cannot claim a pass its residuals deny.
    from flatconn.reports import PASS, Report, check

    with pytest.raises(ValueError, match="pass verdict with nonzero residuals"):
        Report("t", PASS, ["x1"])
    assert check("t", []).verdict == "pass"
    assert check("t", ["0"]).verdict == "pass"
    rep = check("t", ["0", "x1"], {"w": "1"})
    assert (rep.task, rep.verdict, rep.residuals, rep.witness) == (
        "t", "fail", ["0", "x1"], {"w": "1"})


def test_internal_faults_exit_3(monkeypatch, capsys):
    # A failed self-check is an internal fault, not a verdict: one line on
    # stderr, nothing on stdout, exit 3.  The checks are made to fail by
    # feeding them a wrong value, not by changing them.  The models are
    # shared within a process, so the test starts from none built.
    from flatconn import kdv, reports, sdym

    monkeypatch.setattr(kdv, "_BUNDLE", None)
    monkeypatch.setattr(sdym, "_FAMILIES", {})
    expand = sdym.lambda_expand

    def bent(k):
        # a third-order jet in the lambda^2 coefficient: the rule on d3 A4
        # no longer lowers the rank
        m0, m1, m2 = expand(k)
        return m0, m1, sdym.mat_add(m2, sdym.matrix(k, 4, (1, 1, 4)))

    monkeypatch.setattr(sdym, "lambda_expand", bent)
    monkeypatch.setattr(kdv, "is_symmetry_evolution",
                        lambda scheme, phi: reports.Report("is-symmetry", reports.FAIL, ["1"]))
    for argv, msg in ((["sdym-ugh", "--k", "1", "--json"], "does not lower the rank"),
                      (["kdv-verify"], "is not a KdV symmetry")):
        capsys.readouterr()
        assert run(argv) == 3, argv
        out, err = capsys.readouterr()
        assert out == "", argv
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("internal error: "), (argv, err)
        assert msg in lines[0], (argv, err)


def test_any_other_exception_is_an_internal_fault(monkeypatch, capsys):
    # An exception the handlers do not raise on purpose is no verdict either:
    # it used to escape run(), and under main() exit 1, the fail code.
    from flatconn import cli

    for exc in (TypeError("bad operand"), KeyError("u9")):
        def broken(args, exc=exc):
            raise exc

        monkeypatch.setitem(cli._TASKS, "kdv-verify", (broken, ()))
        capsys.readouterr()
        assert run(["kdv-verify", "--json"]) == 3, exc
        out, err = capsys.readouterr()
        assert out == "", exc
        assert err == "internal error: %s: %s\n" % (type(exc).__name__, exc)


def test_fc_tasks_build_one_chart(monkeypatch, prob, capsys):
    # recover-f and dfc on a phi file build the chart once and put phi on it,
    # instead of building a second chart and checking phi again on it.
    from flatconn import fce

    built = []
    init = fce.FcChart.__init__

    def spy(self, n, m):
        built.append((n, m))
        init(self, n, m)

    monkeypatch.setattr(fce.FcChart, "__init__", spy)
    path = prob("rec.prob", FC_RECOVER)
    for task, code in (("recover-f", 0), ("dfc", 0)):
        built.clear()
        assert run([task, path, "--json"]) == code, task
        assert built == [(2, 2)], task
    assert _json_report(capsys)["witness"] == {"result": "0"}  # phi is a cocycle


def test_nonflat_representation_exits_2(prob, capsys):
    # The library refuses a non-flat representation (and lift_symmetry a phi
    # that is no symmetry) with a ValueError; the exactness and lift tasks
    # report it as one error line and exit 2.
    bent = MIURA.replace("a2 = u[2]", "a2 = y1 + u[2]")
    tasks = {
        "exactness": "[cochain]\nc1 = 1\nc2 = 0\n",
        "lift": "[symmetry]\nphi1 = u[1]\n",
    }
    for task, extra in tasks.items():
        capsys.readouterr()
        assert run([task, prob(task + ".prob", bent + extra), "--json"]) == 2, task
        out, err = capsys.readouterr()
        assert out == "", task
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), (task, err)
        assert "flat" in lines[0], (task, err)
    # lift_symmetry checks phi itself: u[0] is not a KdV symmetry
    path = prob("nosym.prob", MIURA + "[symmetry]\nphi1 = u[0]\n")
    assert run(["lift", path, "--json"]) == 2
    assert capsys.readouterr().err.startswith("error: phi is not a symmetry")


def test_json_reports_deterministic(prob, capsys):
    path = prob("flat.prob", FLAT_XY)
    run(["check-flat", path, "--json"])
    a = _json_report(capsys)
    run(["check-flat", path, "--json"])
    b = _json_report(capsys)
    a.pop("ms"), b.pop("ms")
    assert json.dumps(a) == json.dumps(b)


def test_human_format_lines(prob, capsys):
    assert run(["check-flat", prob("flat.prob", FLAT_XY)]) == 0
    out = capsys.readouterr().out
    assert "task: check-flat" in out
    assert "verdict: pass" in out


def test_cli_mix_matches_golden_transcript():
    # Replays the benchmark's cli-mix invocations from its own files, so any
    # drift in rendering or exit codes fails here as well as in the benchmark.
    # The KdV and SDYM models are shared within a process, so the replay runs
    # twice, the second time in reverse order: no invocation may leave state
    # that changes another's output.
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    golden = json.loads(workloads.GOLDEN.read_text(encoding="utf-8"))
    invocations = workloads.CLI_INVOCATIONS
    for order in (invocations, invocations[::-1]):
        for inv in order:
            label = workloads.cli_label(inv)
            want = golden[label]
            assert workloads.cli_invoke(inv) == (want["exit"], want["stdout"]), label


# Replays the cli-mix transcript and two refusals that each name one of two
# foreign symbols, in a process whose heap was first shifted by argv[1]
# allocations and holes; prints the outputs as one JSON line.
_REPLAY = r"""
import importlib.util, json, sys
junk = [(i,) * (i % 9) for i in range(int(sys.argv[1]))]
del junk[::3]
spec = importlib.util.spec_from_file_location("perfbench_workloads", sys.argv[2])
workloads = importlib.util.module_from_spec(spec)
spec.loader.exec_module(workloads)
from flatconn.expr import x, y
from flatconn.fce import FcChart, cochain0
out = {workloads.cli_label(inv): workloads.cli_invoke(inv) for inv in workloads.CLI_INVOCATIONS}
out["refusals"] = []
for e in (x(3) + y(1), y(1) + x(3)):
    try:
        cochain0(FcChart(2, 1), [e])
    except ValueError as exc:
        out["refusals"].append(str(exc))
print(json.dumps(out, sort_keys=True))
"""


def test_outputs_do_not_depend_on_heap_layout_or_hash_seed():
    # Symbols hash by identity, so a set of them iterates in address order;
    # no output may follow it.  Two processes with different heaps and hash
    # seeds must print the same bytes, and the golden transcript.
    root = WORKLOADS.parents[1]
    runs = []
    for allocations, seed in [(0, "0"), (100003, "4242")]:
        env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED=seed)
        done = subprocess.run([sys.executable, "-c", _REPLAY, str(allocations), str(WORKLOADS)],
                              cwd=root, env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        runs.append(done.stdout)
    assert runs[0] == runs[1]
    out = json.loads(runs[0])
    # equal Exprs are refused alike, by the first foreign symbol in key order
    assert out.pop("refusals") == ["independent x3 outside chart"] * 2
    golden = json.loads((root / "perfbench" / "golden" / "cli-mix.json").read_text("utf-8"))
    assert out == {label: [want["exit"], want["stdout"]] for label, want in golden.items()}


def test_module_runs_as_a_command(capsys):
    # python -m flatconn.cli used to import the module, do nothing and exit 0.
    root = WORKLOADS.parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))

    def command(*argv):
        return subprocess.run([sys.executable, "-m", "flatconn.cli", *argv], cwd=root,
                              env=env, capture_output=True, text=True, timeout=300)

    done = command("kdv-verify", "--json")
    assert done.returncode == 0, done.stderr
    capsys.readouterr()
    assert run(["kdv-verify", "--json"]) == 0
    ms = re.compile(r'"ms": \d+')
    assert ms.sub("", done.stdout) == ms.sub("", capsys.readouterr().out)
    done = command("kdv-deformation", "--lambda", "1/0")
    assert (done.returncode, done.stdout) == (2, ""), done.stderr
    assert "Traceback" not in done.stderr
    assert "argument --lambda: invalid Fraction value: '1/0'" in done.stderr


def test_file_refusals_exit_2_with_their_line(prob, capsys):
    # lift used to ignore a [task] option it does not read and exit 0; an
    # error in pullback's expr was reported at line 0, as was a missing
    # section, and deformation's at and param and pullback's missing expr
    # with no line.
    lift = MIURA + "[symmetry]\nphi1 = u[1]\n[task]\nname = lift\nat = 1\n"
    pullback = MIURA + "[task]\nname = pullback\nexpr = v[1;1;1] + q\n"
    deformation = MIURA + "[task]\nname = deformation\nat = x\n"
    for task, text, line, why in [
        ("lift", lift, "at = 1", ":0: task lift reads no option 'at'"),
        ("pullback", pullback, "expr = v[1;1;1] + q", ":12: undeclared variable 'q'"),
        ("lift", MIURA, "[chart]", ":0: task lift requires a [symmetry] section"),
        ("pullback", MIURA + "[task]\nname = pullback\n", "[task]",
         ":0: pullback needs an 'expr' option in [task]"),
        ("pullback", MIURA, "[chart]", ":0: pullback needs an 'expr' option in [task]"),
        ("deformation", deformation, "at = x", ":0: at must be a rational number, got 'x'"),
    ]:
        capsys.readouterr()
        assert run([task, prob(task + ".prob", text), "--json"]) == 2, task
        out, err = capsys.readouterr()
        assert out == "", task
        assert err == "error: line %d%s\n" % (text.split("\n").index(line) + 1, why)


def test_symmetry_components_a_handler_reads_are_refused_with_exit_2(prob, capsys):
    # A bracket file without g, and a dfc file with neither f nor phi.
    for task, text, why in [
        ("bracket", CONSTS.replace("g1 = 0\ng2 = 1\n", ""), "[symmetry] must bind g1..g2"),
        ("dfc", CONSTS.replace("f1 = 1\nf2 = 0\n", ""),
         "[symmetry] must bind phi<i>_<a> components"),
    ]:
        capsys.readouterr()
        assert run([task, prob(task + ".prob", text), "--json"]) == 2, task
        assert capsys.readouterr() == ("", "error: %s\n" % why)


def test_only_file_tasks_take_a_problem_file(prob, capsys):
    from flatconn import cli, problems

    assert set(problems.TASKS) < set(cli._TASKS)
    assert run(["kdv-verify", prob("flat.prob", FLAT_XY), "--json"]) == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert run(["check-flat", "--json"]) == 2
    assert cli._build_parser() is cli._build_parser()  # built once per process
