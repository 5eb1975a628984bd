"""The three benchmark workloads: seeded inputs, one timed verdict per call.

Each workload is a pair of functions.  ``setup(seed)`` imports flatconn and
builds every fixed input; its cost is the ``setup_s`` metric.  ``op(state,
i)`` runs the i-th verdict of the workload's batch (0 <= i < ``BATCH``),
checks it and returns None when it is right or a one-line reason when it is
not.  Every batch of a run does the same verdicts on the same inputs, from a
state built afresh by ``setup``.  Per-object memos (``FcChart._total_memo``,
``scheme._dsigma``, ...) are left as the program fills them: nothing is
pre-filled, so each batch pays for filling them as a real invocation would.

The reasons for choosing each workload are in README.md and BENCHMARK.json.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
import re
from pathlib import Path

HERE = Path(__file__).resolve().parent
PROBLEMS = HERE / "problems"
GOLDEN = HERE / "golden" / "cli-mix.json"


# ---------------------------------------------------------------------------
# seeded generators
# ---------------------------------------------------------------------------

def fc_symbols(n, m, max_i, max_a):
    """Every special coordinate v_I^{a,A} with 1 <= |I| <= max_i, |A| <= max_a."""
    from flatconn.expr import fc

    out = []
    dirs = tuple(range(1, n + 1))
    fibs = tuple(range(1, m + 1))
    for alpha in fibs:
        for k in range(1, max_i + 1):
            for ii in itertools.combinations_with_replacement(dirs, k):
                for l in range(0, max_a + 1):
                    for aa in itertools.combinations_with_replacement(fibs, l):
                        out.append(fc(alpha, ii, aa))
    return out


def fc_pool(n, m, max_i=1, max_a=1):
    from flatconn.expr import v, x

    return [x(i) for i in range(1, n + 1)] + [v(a) for a in range(1, m + 1)] + \
        fc_symbols(n, m, max_i, max_a)


# ---------------------------------------------------------------------------
# fce-bracket
# ---------------------------------------------------------------------------

# The pool symbol of every component is drawn once, with this seed, for all
# runs; the run's seed draws the coefficients.
SHAPE_SEED = 0


def seeded_components(rng, pool, count, terms=1):
    """``count`` sums of ``terms`` distinct pool symbols with nonzero
    coefficients.  The cost of a bracket or a round trip depends on which
    symbols meet in it, so that random symbols, as in the tests' recipe
    rand_expr(pool, degree=2, terms=2), made the cost of a batch move by
    20-40% with the seed.  Here every choice of symbols is used the same
    number of times (up to one), in an order that is the same for every
    seed, and ``rng`` draws the coefficients: runs with different seeds do
    the same amount of work."""
    from flatconn.expr import const

    shapes = list(itertools.combinations(pool, terms))
    shapes = (shapes * (count // len(shapes) + 1))[:count]
    random.Random(SHAPE_SEED).shuffle(shapes)
    out = []
    for shape in shapes:
        e = const(0)
        for sym in shape:
            e = e + const(rng.choice((-3, -2, -1, 1, 2, 3))) * sym
        out.append(e)
    return out


def setup_fce_bracket(seed):
    from flatconn import fce
    from flatconn.expr import Expr, v

    chart = fce.FcChart(2, 2)
    pool = fc_pool(2, 2, max_i=1, max_a=1)
    # v1, v2 and the 60 coordinates with |I| <= 2, |A| <= 2.
    targets = [Expr.wrap(s) for s in [v(1), v(2)] + fc_symbols(2, 2, 2, 2)]
    comps = iter(seeded_components(random.Random(seed), pool, 6 * len(targets)))
    triples = [
        tuple(fce.cochain0(chart, [next(comps), next(comps)]) for _ in range(3))
        for _ in range(len(targets))
    ]
    return {"chart": chart, "targets": targets, "triples": triples}


def op_fce_bracket(state, i):
    """Antisymmetry and Jacobi on the i-th triple, then the commutator oracle
    S_[f,g] = [S_f, S_g] on the i-th target, so that a batch of 62
    operations covers the whole oracle."""
    from flatconn import fce

    ch = state["chart"]
    f, g, h = state["triples"][i]
    if not fce.bracket0(ch, f, f).is_zero():
        return "[f, f] != 0"
    fg, gf = fce.bracket0(ch, f, g), fce.bracket0(ch, g, f)
    if not all((a + b).is_zero() for a, b in zip(fg.data, gf.data)):
        return "antisymmetry fails"
    jac = [
        fce.bracket0(ch, f, fce.bracket0(ch, g, h)),
        fce.bracket0(ch, g, fce.bracket0(ch, h, f)),
        fce.bracket0(ch, h, fce.bracket0(ch, f, g)),
    ]
    if not all((a + b + c).is_zero() for a, b, c in zip(*[t.data for t in jac])):
        return "Jacobi fails"
    s = state["targets"][i]
    lhs = fce.symmetry_action(ch, fg, s)
    rhs = fce.symmetry_action(ch, f, fce.symmetry_action(ch, g, s)) - \
        fce.symmetry_action(ch, g, fce.symmetry_action(ch, f, s))
    return None if lhs == rhs else "commutator oracle fails on target %d" % i


# ---------------------------------------------------------------------------
# fce-recover
# ---------------------------------------------------------------------------

# Round-trip pairs per batch.
RECOVER_TRIPS = 50


def setup_fce_recover(seed):
    from flatconn import fce

    rng = random.Random(seed)
    charts = [fce.FcChart(2, 1), fce.FcChart(2, 2)]
    fs = []
    for ch in charts:
        pool = fc_pool(ch.n, ch.m, max_i=1, max_a=1)
        comps = iter(seeded_components(rng, pool, ch.m * RECOVER_TRIPS, terms=2))
        fs.append([fce.cochain0(ch, [next(comps) for _ in range(ch.m)])
                   for _ in range(RECOVER_TRIPS)])
    return {"charts": charts, "pairs": list(zip(*fs))}


def op_fce_recover(state, i):
    """Two round trips f -> symmetry_from_f -> is_symmetry -> recover_f, one
    on the (2,1) chart and one on the (2,2) chart.  A (2,2) trip costs about
    seven times a (2,1) trip, so one operation holds one of each: with one
    trip per operation the median would fall in the gap between the two."""
    from flatconn import fce

    for ch, f in zip(state["charts"], state["pairs"][i]):
        phi = fce.symmetry_from_f(ch, f)
        if fce.is_symmetry(ch, phi).verdict != "pass":
            return "symmetry_from_f(f) is not a symmetry on (%d,%d)" % (ch.n, ch.m)
        got = fce.recover_f(ch, phi)
        if got is None:
            return "recover_f answered bounded-no on (%d,%d)" % (ch.n, ch.m)
        if got != f:
            return "recover_f returned another f on (%d,%d)" % (ch.n, ch.m)
    return None


# ---------------------------------------------------------------------------
# cli-mix
# ---------------------------------------------------------------------------

# Every built-in task, then every file task, as argv without "--json".  The
# problem texts come from the problem-file demo and the CLI tests' fixtures,
# plus an fc chart pair for dfc, symmetry-from-f, bracket and recover-f.
CLI_INVOCATIONS = (
    ("kdv-verify",),
    ("kdv-lift", "x-translation"),
    ("kdv-lift", "t-translation"),
    ("kdv-lift", "galilean"),
    ("kdv-lift", "scaling"),
    ("kdv-lift", "galilean", "--lambda", "1"),
    ("kdv-lift", "scaling", "--lambda", "1"),
    ("kdv-lift", "scaling", "--lambda", "0"),
    ("kdv-deformation",),
    ("sdym-expand",),
    ("sdym-flatrep",),
    ("sdym-ugh", "--h", "a1"),
    ("sdym-ugh", "--h", "const"),
    ("check-flat", "flat_xy.prob"),
    ("check-flat", "nonflat.prob"),
    ("dfc", "fc_f.prob"),
    ("symmetry-from-f", "fc_f.prob"),
    ("recover-f", "fc_recover.prob"),
    ("bracket", "consts.prob"),
    ("bracket", "fc_pair.prob"),
    ("check-flatrep", "miura.prob"),
    ("pullback", "miura_pullback.prob"),
    ("deformation", "miura.prob"),
    ("exactness", "miura_exact.prob"),
    ("lift", "miura_lift.prob"),
    ("lift", "kdv_lift.prob"),
)

_MS_FIELD = re.compile(r', "ms": \d+\}$')


def cli_label(inv):
    return " ".join(inv)


def cli_argv(inv):
    argv = [a if not a.endswith(".prob") else str(PROBLEMS / a) for a in inv]
    return argv + ["--json"]


def cli_invoke(inv):
    """Run one invocation in-process; (exit code, stdout without ``ms``)."""
    from flatconn import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(cli_argv(inv))
    return code, _MS_FIELD.sub("}", out.getvalue().rstrip("\n"))


def setup_cli_mix(seed):
    import flatconn.cli  # noqa: F401 - imported here so set-up pays for it

    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    missing = [cli_label(inv) for inv in CLI_INVOCATIONS if cli_label(inv) not in golden]
    if missing:
        raise SystemExit("golden transcript lacks %s" % ", ".join(missing))
    # One batch runs every invocation once, in an order drawn from the seed.
    order = random.Random(seed).sample(CLI_INVOCATIONS, len(CLI_INVOCATIONS))
    return {"golden": golden, "order": order}


def op_cli_mix(state, i):
    """One in-process invocation, checked against the golden transcript."""
    inv = state["order"][i]
    code, out = cli_invoke(inv)
    want = state["golden"][cli_label(inv)]
    if code != want["exit"]:
        return "%s: exit %d, golden %d" % (cli_label(inv), code, want["exit"])
    if out != want["stdout"]:
        return "%s: output differs from the golden transcript" % cli_label(inv)
    return None


WORKLOADS = {
    "fce-bracket": (setup_fce_bracket, op_fce_bracket),
    "fce-recover": (setup_fce_recover, op_fce_recover),
    "cli-mix": (setup_cli_mix, op_cli_mix),
}

# Verdicts per batch: the 62 oracle targets, the round-trip pairs, or every
# cli invocation once.  A traced run runs one batch.
BATCH = {"fce-bracket": 62, "fce-recover": RECOVER_TRIPS, "cli-mix": len(CLI_INVOCATIONS)}
