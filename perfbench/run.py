#!/usr/bin/env python3
"""Run one flatconn benchmark workload and print its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; the library is imported from ``src/``.  The
load is a closed loop with one caller: the next verdict starts when the
previous one has been checked.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` measures for ``--seconds`` seconds and reports the end-to-end
metrics of ``BENCHMARK.json``.  ``--trace 1`` runs the workload's fixed
traced batch twice from a fresh set-up, once plain and once with a span
around every call into a flatconn layer (see ``tracer.py``), and reports the
per-layer metrics; the batch has a fixed size so that every count repeats
exactly between two traced runs with the same seed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

sys.path.insert(0, str(HERE))
sys.path.insert(0, str(SRC))
import workloads  # noqa: E402

# An untraced run sets up before each batch; a run with fewer batches sets
# up again after the last one, so that setup_s is a median of at least this
# many set-ups.
MIN_SETUPS = 5

# Machine speed.  The benchmark was written on 2 vCPUs of an Intel Xeon
# shared with other virtual machines, whose speed drifted by up to 1.8x over
# seconds to many minutes, for wall and CPU time alike and with no steal
# time: plain times of the same batch differed by up to 50% between runs.
# So every timed set-up and verdict is divided by the time of a fixed
# pure-Python reference loop run just before and just after it, and setup_s
# and wall_s are these ratios times REF_S: seconds on a machine on which one
# pass of the loop takes REF_S, about its fastest pass on that machine.  A
# pass between two verdicts is a single one; at the ends of a batch, where
# set-ups sit, it is the fastest of REF_PASSES.
REF_S = 0.0025
REF_PASSES = 10

# The end-to-end metrics of the result object, as BENCHMARK.json lists them.
# op_p50_ms and op_tail_ms are printed but left out: they are plain times,
# and these workloads mix verdicts of very different cost (62 oracle
# targets, 26 cli tasks), so the median of such a mix sits in a gap between
# them; they moved by 20-35% between runs.
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"))

# Function spans reported by name with their calls and self time.
FUNCTIONS = (
    "expr.mul", "expr.add", "expr.sub", "expr.neg", "expr.pow", "expr.partial",
    "expr.subs", "expr.render",
    "fce.fc_total", "fce.fc_vertical", "fce.dfc", "fce.symmetry_action",
    "fce.bracket0", "fce.recover_f", "fce.flatness_residual",
    "jets.total_derivative", "jets.d_sigma", "jets.evolutionary_apply",
    "jets.is_symmetry_evolution",
    "flatrep.du_vertical", "flatrep.du_cochain1", "flatrep.check_flat_rep",
    "flatrep.exactness_test", "flatrep.lift_symmetry",
    "flatrep.infinitesimal_deformation", "flatrep.pullback",
    "linsolve.monomials", "linsolve.solve_by_superposition", "linsolve.solve_linear",
    "vforms.bracket", "vforms.apply", "vforms.nijenhuis",
    "kdv.build_kdv", "kdv.miura_at",
    "sdym.build_flatrep", "sdym.normalize", "sdym.lambda_expand", "sdym.verify_ugh",
    "problems.parse_problem", "cli.run", "reports.emit_report",
)
LAYERS = ("expr", "fce", "jets", "flatrep", "linsolve", "vforms", "kdv", "sdym",
          "problems", "cli", "reports")
COUNTS = ("expr.mul.term_products", "linsolve.solves", "linsolve.unknowns",
          "linsolve.rows", "linsolve.nnz", "linsolve.trivial_rows",
          "linsolve.witness", "linsolve.bounded_no")


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    """HEAD of the checkout, read from .git without starting git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _load():
    return "%.2f %.2f %.2f" % os.getloadavg()


def reference_s(passes=1):
    """Fastest of ``passes`` passes of a fixed pure-Python loop shaped like an
    Expr product (dict of tuple monomials, Fraction coefficients).  It runs
    no flatconn code, so it tracks only how fast the machine runs."""
    a = {((i, 1), (j, 2)): Fraction(i - j, 1 + (i * j) % 3)
         for i in range(12) for j in range(6)}
    b = {((k, 1),): Fraction(k + 1, 2) for k in range(12)}
    best = None
    for _ in range(passes):
        t0 = time.perf_counter()
        out = {}
        for ma, ca in a.items():
            for mb, cb in b.items():
                m = tuple(sorted(ma + mb))
                out[m] = out.get(m, 0) + ca * cb
        took = time.perf_counter() - t0
        best = took if best is None else min(best, took)
    return best


def print_header(args):
    print("# flatconn benchmark: workload %s, seed %d, trace %d, seconds %d"
          % (args.workload, args.seed, args.trace, args.seconds))
    print("# python %s (%s)" % (platform.python_version(), sys.executable))
    print("# cpu %s; nproc %d; usable cpus %d"
          % (_cpu_model(), os.cpu_count() or 0, len(os.sched_getaffinity(0))))
    print("# load average at start %s" % _load())
    print("# commit %s" % _git_commit())
    sys.stdout.flush()


# ---------------------------------------------------------------------------
# set-up and the closed loop
# ---------------------------------------------------------------------------

def timed_setup(name, seed):
    """Import flatconn from this checkout and build the inputs; (state, s).
    The flatconn modules of an earlier set-up are dropped first, so that every
    set-up imports the library afresh, as a new process would."""
    for mod in [m for m in sys.modules if m.split(".")[0] == "flatconn"]:
        del sys.modules[mod]
    t0 = time.perf_counter()
    import flatconn

    if Path(flatconn.__file__).resolve().parent != SRC / "flatconn":
        raise SystemExit("flatconn was imported from %s, not from %s"
                         % (flatconn.__file__, SRC))
    state = workloads.WORKLOADS[name][0](seed)
    return state, time.perf_counter() - t0


class Outcome:
    """Latencies and failures of a run of operations."""

    def __init__(self):
        self.lat = []
        self.failures = []

    def run_op(self, op, state, i):
        t0 = time.perf_counter()
        try:
            why = op(state, i)
        except Exception as exc:  # a raising verdict is a failed operation
            why = "raised %s: %s" % (type(exc).__name__, exc)
        self.lat.append(time.perf_counter() - t0)
        if why is not None:
            self.failures.append("op %d: %s" % (i, why))

    @property
    def attempted(self):
        return len(self.lat)


def closed_loop(name, seed, op, seconds, out):
    """Run complete batches one after another for ``seconds``; (set-ups,
    batches).  A set-up is (seconds, ratio to the reference loop); a batch is
    (verdict seconds, verdict ratios).  Each batch starts from its own
    set-up, so that every batch runs the same verdicts on the same inputs and
    fills the per-object memos afresh.  The run stops rather than start a
    batch expected, from the mean so far, to end past the deadline; it
    always completes one batch and MIN_SETUPS set-ups."""
    batch = workloads.BATCH[name]
    setups, batches = [], []

    def setup():
        state, took = timed_setup(name, seed)
        after = reference_s(REF_PASSES)
        setups.append((took, took / ((before + after) / 2)))
        return state, after

    start = time.perf_counter()
    before = reference_s(REF_PASSES)
    while True:
        state, before = setup()
        lat, ratios = [], []
        for k in range(batch):
            out.run_op(op, state, k)
            after = reference_s(REF_PASSES if k == batch - 1 else 1)
            lat.append(out.lat[-1])
            ratios.append(out.lat[-1] / ((before + after) / 2))
            before = after
        batches.append((lat, ratios))
        elapsed = time.perf_counter() - start
        if elapsed * (len(batches) + 1) / len(batches) > seconds:
            break
    while len(setups) < MIN_SETUPS:
        before = setup()[1]
    return setups, batches


def tail(lat):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(lat)
    if n < 20:
        return None
    ordered = sorted(lat)
    return 100.0 * (n - 10) / n, ordered[n - 11]


def run_untraced(name, seed, seconds, op=None):
    out = Outcome()
    setups, batches = closed_loop(name, seed, op or workloads.WORKLOADS[name][1],
                                  seconds, out)
    n = len(batches[0][0])
    # Each verdict at its best over the run's identical batches: it needs one
    # moment in the run where the verdict and the passes around it ran alike.
    best_ratio = [min(b[1][k] for b in batches) for k in range(n)]
    best_plain = [min(b[0][k] for b in batches) for k in range(n)]
    metrics = {
        "setup_s": statistics.median(r for _, r in setups) * REF_S,
        "wall_s": sum(best_ratio) * REF_S,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    lines = [
        "setup_s     %.4f s   scaled to a %.2f ms reference pass; median of %d "
        "set-ups; plain %.4f s" % (metrics["setup_s"], 1000 * REF_S, len(setups),
                                   statistics.median(t for t, _ in setups)),
        "wall_s      %.4f s   scaled to a %.2f ms reference pass; batch of %d "
        "verdicts, each at its best over %d batches; plain %.4f s"
        % (metrics["wall_s"], 1000 * REF_S, n, len(batches), sum(best_plain)),
        "batch_p50_s %.4f s   plain median time of the %d batches"
        % (statistics.median(sum(b[0]) for b in batches), len(batches)),
        "op_p50_ms   %.3f ms  plain, over %d verdicts" % (
            1000 * statistics.median(out.lat), out.attempted),
    ]
    t = tail(out.lat)
    if t is None:
        lines.append("op_tail_ms  n/a       %d verdicts; the tail needs at least 20"
                     % out.attempted)
    else:
        lines.append("op_tail_ms  %.3f ms  plain, p%.2f over %d verdicts, 10 beyond it"
                     % (1000 * t[1], t[0], out.attempted))
    lines.append("peak_rss_mb %.1f MB" % metrics["peak_rss_mb"])
    units = dict(END_TO_END)
    return out, {k: (v, units[k]) for k, v in metrics.items()}, lines


# ---------------------------------------------------------------------------
# the traced run
# ---------------------------------------------------------------------------

def run_traced(name, seed, ops=None, op=None):
    from tracer import OP_SPAN, Tracer

    ops = ops or workloads.BATCH[name]
    op = op or workloads.WORKLOADS[name][1]
    out = Outcome()

    state, _ = timed_setup(name, seed)
    for i in range(ops):
        out.run_op(op, state, i)
    plain = sum(out.lat)

    state, _ = timed_setup(name, seed)
    tr = Tracer()
    tr.install()
    traced_op = tr.span(OP_SPAN, out.run_op)
    origin = time.perf_counter()
    try:
        for i in range(ops):
            traced_op(op, state, i)
    finally:
        tr.uninstall()
    traced = sum(out.lat[ops:])
    tr.write(HERE / "out" / ("trace-%s-seed%d.tsv" % (name, seed)), origin)

    self_s = dict(tr.self_s)
    bench = self_s.get(OP_SPAN, 0.0) + self_s.get("bench.count", 0.0)
    layer_s = {layer: sum((v for k, v in self_s.items() if k.startswith(layer + ".")), 0.0)
               for layer in LAYERS}
    accounted = sum(layer_s.values()) + bench
    rows = tr.counts.get("linsolve.rows", 0)
    trivial_frac = tr.counts.get("linsolve.trivial_rows", 0) / rows if rows else 0.0

    def pct(seconds):
        return 100.0 * seconds / traced

    # Self times go into the result as shares of the traced time: a layer a
    # workload never enters then reads 0 %, not a time of 0 s.
    metrics = {}
    for fn in FUNCTIONS:
        metrics[fn + ".calls"] = (tr.calls.get(fn, 0), "count")
        metrics[fn + ".self_pct"] = (pct(self_s.get(fn, 0.0)), "%")
    for layer in LAYERS:
        metrics[layer + ".self_pct"] = (pct(layer_s[layer]), "%")
    metrics["bench.self_pct"] = (pct(bench), "%")
    for c in COUNTS:
        metrics[c] = (tr.counts.get(c, 0), "count")
    metrics["linsolve.trivial_row_frac"] = (trivial_frac, "ratio")
    metrics["expr.self_s"] = (layer_s["expr"], "s")
    metrics["bench.self_s"] = (bench, "s")
    metrics["trace.wall_s"] = (traced, "s")
    metrics["trace.plain_wall_s"] = (plain, "s")
    metrics["trace.overhead_ratio"] = ((traced - plain) / plain, "ratio")

    lines = ["traced batch: %d verdicts; plain %.4f s, traced %.4f s; tracing overhead "
             "%.4f s, %.3f of the plain %.4f s"
             % (ops, plain, traced, traced - plain, (traced - plain) / plain, plain)]
    lines.append("%-44s %10s %10s %7s" % ("span", "calls", "self_s", "share"))
    for k in sorted(self_s, key=lambda k: -self_s[k]):
        lines.append("%-44s %10d %10.4f %6.1f%%"
                     % (k + ".self_s", tr.calls.get(k, 0), self_s[k], pct(self_s[k])))
    for layer in LAYERS:
        lines.append("%-44s %10s %10.4f %6.1f%%"
                     % (layer + ".self_s", "", layer_s[layer], pct(layer_s[layer])))
    for alias, fn in (("linsolve.assembly_s", "linsolve.solve_by_superposition"),
                      ("linsolve.eliminate_s", "linsolve.solve_linear")):
        got = self_s.get(fn, 0.0)
        lines.append("%-44s %10s %10.4f %6.1f%%" % (alias, "", got, pct(got)))
    lines.append("%-44s %10s %10.4f %6.1f%%" % ("bench.self_s", "", bench, pct(bench)))
    lines.append("layers + benchmark account for %.4f s of the traced %.4f s; residual %.6f s"
                 % (accounted, traced, traced - accounted))
    for c in COUNTS:
        lines.append("%-44s %10d" % (c, tr.counts.get(c, 0)))
    lines.append("linsolve.trivial_row_frac %.4f of %d rows" % (trivial_frac, rows))
    lines.append("spans kept: %d (Expr operations aggregated)" % len(tr.spans))
    return out, metrics, lines


# ---------------------------------------------------------------------------

def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "flatconn" / "__init__.py").is_file():
        print("error: no flatconn sources under %s" % SRC, file=sys.stderr)
        return 2

    print_header(args)
    if args.trace:
        result = run_traced(args.workload, args.seed)
    else:
        result = run_untraced(args.workload, args.seed, args.seconds)
    report(*result)
    return 0


def report(out, metrics, lines):
    """Print the metric lines, the failures and the result line; return the
    result object."""
    for line in lines:
        print(line)
    print("fail_frac   %.4f     %d failed of %d attempted"
          % (len(out.failures) / out.attempted, len(out.failures), out.attempted))
    for f in out.failures[:10]:
        print("failed: %s" % f)
    print("# load average at end %s" % _load())
    result = {
        "correct": not out.failures,
        "attempted": out.attempted,
        "failed": len(out.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return result


if __name__ == "__main__":
    sys.exit(main())
