"""Command line front end: bind problem files to library operations.

Exit codes: 0 for pass/witness verdicts, 1 for fail/bounded-no, 2 for input
errors (bad flags, unreadable files, parse or validation failures).

This module owns the command line.  ``_TASKS`` maps each task to its handler
and the flags of ``_FLAGS`` it reads; the tasks of ``problems.TASKS``, and
only those, take a problem file, which ``problems`` validates for the task.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time
from fractions import Fraction
from typing import Dict, List

from .expr import Expr, KIND_JET, ZERO, param, render
from .jets import is_symmetry_evolution
from .linsolve import AnsatzSpec
from . import fce, flatrep, problems, sdym
from .kdv import build_kdv, miura_at
from .reports import BOUNDED_NO, FAIL, PASS, Report, WITNESS, emit_report

__all__ = ["run", "main"]

_FLAGS = {
    "name": dict(help="symmetry name (x-translation, t-translation, galilean, scaling)"),
    "--degree": dict(type=int, help="ansatz total-degree bound override"),
    "--order": dict(type=int, help="ansatz jet-order bound override"),
    "--lambda": dict(dest="lam", type=Fraction,
                     help="rational parameter value (symbolic when omitted)"),
    "--k": dict(type=int, default=2, help="matrix size for sdym tasks"),
    "--h": dict(default="a1", choices=("a1", "const"), help="gauge generator choice"),
}


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    # The docstring's last paragraph is for readers of this module.
    p = argparse.ArgumentParser(prog="flatconn", description=__doc__.rsplit("\n\n", 1)[0])
    sub = p.add_subparsers(dest="task", required=True)
    for name, (_, flags) in _TASKS.items():
        sp = sub.add_parser(name)
        if name in problems.TASKS:
            sp.add_argument("problem", help="problem file path")
        fmt = sp.add_mutually_exclusive_group()
        fmt.add_argument("--json", action="store_true", help="JSON report")
        fmt.add_argument("--human", action="store_true", help="line-oriented report (default)")
        for flag in flags:
            sp.add_argument(flag, **_FLAGS[flag])
    return p


def _sym_components(pf: problems.ProblemFile, fam: str) -> List[Expr]:
    bucket = pf.symmetry.get(fam)
    if not bucket:
        raise ValueError("[symmetry] must bind %s1..%s%d" % (fam, fam, pf.m))
    return [bucket.get((a,), ZERO) for a in range(1, pf.m + 1)]


def _fc_cochain1(pf: problems.ProblemFile) -> fce.Cochain:
    bucket = pf.symmetry.get("phi")
    if not bucket:
        raise ValueError("[symmetry] must bind phi<i>_<a> components")
    chart = pf.fc_chart()
    return fce.cochain1(chart, {((i,), a): e for (i, a), e in bucket.items()})


def _cochain_witness(c: fce.Cochain, m: int) -> Dict[str, str]:
    out: Dict[str, str] = {}
    for (dirs, alpha), e in sorted(c.items()):
        tag = "".join(str(i) for i in dirs)
        key = ("phi%s" % tag) if m == 1 else "phi%s_%d" % (tag, alpha)
        if c.degree == 0:
            key = "f%d" % alpha
        out[key] = render(e)
    if not out:
        out["result"] = "0"
    return out


def _ansatz(pf, args, default) -> AnsatzSpec:
    """The ansatz of a file task.  The pool is the file's symbols, else that
    of ``default(order)``, the task's default ansatz; the degree is the
    flag's, else the file's, else the default's.  The jet order, the flag's
    or else the file's, cuts the pool either way."""
    if args.order is not None and pf.kind != "evolution":
        raise ValueError("--order bounds jet orders, and a %s chart has none" % pf.kind)
    order = args.order if args.order is not None else pf.ansatz_order
    fallback = default(order)
    symbols = fallback.symbols if pf.ansatz_symbols is None else pf.ansatz_symbols
    if order is not None:
        symbols = [s for s in symbols if s.kind != KIND_JET or len(s.sigma) <= order]
    degree = next(d for d in (args.degree, pf.ansatz_degree, fallback.degree) if d is not None)
    return AnsatzSpec(symbols=tuple(symbols), degree=degree)


def _bounded(args, ansatz: AnsatzSpec, answer, witness) -> Report:
    """The verdict of a bounded search: bounded-no, with the bound searched,
    when ``answer`` is None, else a witness, ``witness(answer)``."""
    if answer is None:
        return Report(args.task, BOUNDED_NO, [], {
            "bound_degree": str(ansatz.degree),
            "bound_symbols": ", ".join(render(s) for s in ansatz.symbols),
        })
    return Report(args.task, WITNESS, [], witness(answer))


# ---------------------------------------------------------------------------
# task handlers
# ---------------------------------------------------------------------------

def _t_check_flat(pf, args) -> Report:
    rs = fce.flatness_residual(pf.connection_spec())
    ok = all(r.is_zero() for r in rs)
    return Report("check-flat", PASS if ok else FAIL, [render(r) for r in rs])


def _t_dfc(pf, args) -> Report:
    chart = pf.fc_chart()
    if "f" in pf.symmetry:
        c = fce.cochain0(chart, _sym_components(pf, "f"))
    else:
        c = _fc_cochain1(pf)
    image = fce.dfc(c)
    return Report("dfc", PASS, [], _cochain_witness(image, pf.m))


def _t_symmetry_from_f(pf, args) -> Report:
    chart = pf.fc_chart()
    f = fce.cochain0(chart, _sym_components(pf, "f"))
    phi = fce.symmetry_from_f(chart, f)
    return Report("symmetry-from-f", PASS, [], _cochain_witness(phi, pf.m))


def _t_recover_f(pf, args) -> Report:
    chart = pf.fc_chart()
    phi = _fc_cochain1(pf)
    ansatz = _ansatz(pf, args, lambda order: fce.default_recover_ansatz(chart, phi))
    return _bounded(args, ansatz, fce.recover_f(chart, phi, ansatz),
                    lambda f: {"f%d" % a: render(e) for a, e in enumerate(f.data, 1)})


def _t_bracket(pf, args) -> Report:
    chart = pf.fc_chart()
    f = fce.cochain0(chart, _sym_components(pf, "f"))
    g = fce.cochain0(chart, _sym_components(pf, "g"))
    h = fce.bracket0(chart, f, g)
    return Report("bracket", PASS, [],
                  {"h%d" % a: render(e) for a, e in enumerate(h.data, 1)})


def _t_check_flatrep(pf, args) -> Report:
    return flatrep.check_flat_rep(pf.flat_representation())


def _t_pullback(pf, args) -> Report:
    if pf.pullback_expr is None:
        raise ValueError("pullback needs an 'expr' option in [task]")
    image = flatrep.pullback(pf.flat_representation(), pf.pullback_expr)
    return Report("pullback", PASS, [], {"pullback": render(image)})


def _t_deformation(pf, args) -> Report:
    spec = pf.flat_representation()
    at = pf.deformation_at if args.lam is None else args.lam
    res = flatrep.infinitesimal_deformation(spec, param(pf.deformation_param), at)
    witness = {
        "c%d_%d" % (i, d): render(e) for (i, d), e in sorted(res.cocycle.items())
    }
    return Report("deformation", PASS, res.report.residuals, witness)


def _t_exactness(pf, args) -> Report:
    spec = pf.flat_representation()
    shift = spec.scheme.base.ndirs
    c = {(i, shift + b): e for (i, b), e in pf.cochain.items()}
    ansatz = _ansatz(pf, args, lambda order: flatrep.default_ansatz(
        spec, list(c.values()), order=order))
    return _bounded(args, ansatz, flatrep.exactness_test(spec, c, ansatz),
                    lambda b: {"b%d" % (d - shift): render(e) for d, e in sorted(b.items())})


def _t_lift(pf, args) -> Report:
    spec = pf.flat_representation()
    shift = spec.scheme.base.ndirs
    phi = _sym_components(pf, "phi")
    ansatz = _ansatz(pf, args, lambda order: flatrep.default_ansatz(spec, phi, order=order))
    return _bounded(args, ansatz, flatrep.lift_symmetry(spec, phi, ansatz),
                    lambda a: {"a%d" % (d - shift): render(e) for d, e in sorted(a.items())})


def _t_kdv_verify(args) -> Report:
    bundle = build_kdv()
    residuals = list(flatrep.check_flat_rep(bundle.miura).residuals)
    for name in sorted(bundle.symmetries):
        residuals.extend(is_symmetry_evolution(bundle.scheme, [bundle.symmetries[name]]).residuals)
    ok = all(r == "0" for r in residuals)
    return Report("kdv-verify", PASS if ok else FAIL, residuals)


def _t_kdv_lift(args) -> Report:
    bundle = build_kdv()
    if args.name not in bundle.symmetries:
        raise ValueError("unknown KdV symmetry %r (have: %s)"
                         % (args.name, ", ".join(sorted(bundle.symmetries))))
    phi = bundle.symmetries[args.name]
    spec = bundle.miura if args.lam is None else miura_at(bundle, args.lam)
    ansatz = flatrep.default_ansatz(spec, [phi], degree=args.degree, order=args.order)
    return _bounded(args, ansatz, flatrep.lift_symmetry(spec, [phi], ansatz),
                    lambda lift: {"a": render(lift[3])})


def _t_kdv_deformation(args) -> Report:
    bundle = build_kdv()
    res = flatrep.infinitesimal_deformation(bundle.miura, bundle.lam, args.lam)
    witness = {"c%d" % i: render(e) for (i, _), e in sorted(res.cocycle.items())}
    return Report("kdv-deformation", PASS, res.report.residuals, witness)


def _t_sdym_expand(args) -> Report:
    ms = sdym.lambda_expand(args.k)
    witness = {}
    for deg, m in enumerate(ms):
        for p, row in enumerate(m, 1):
            for q, e in enumerate(row, 1):
                witness["lambda%d_%d%d" % (deg, p, q)] = render(e)
    return Report("sdym-expand", PASS, [], witness)


def _t_sdym_flatrep(args) -> Report:
    rep = sdym.build_flatrep(args.k, args.lam)
    out = flatrep.check_flat_rep(rep.spec)
    out.task = "sdym-flatrep"
    return out


def _t_sdym_ugh(args) -> Report:
    return sdym.verify_ugh(args.k, args.h)


# Each task: its handler and the arguments of _FLAGS it reads; argparse refuses
# the others.  A task of problems.TASKS also takes a problem file, and its
# handler gets it parsed, as (pf, args).  recover-f reads --order only to
# refuse it: its chart has no jets.
_TASKS = {
    "check-flat": (_t_check_flat, ()),
    "dfc": (_t_dfc, ()),
    "symmetry-from-f": (_t_symmetry_from_f, ()),
    "recover-f": (_t_recover_f, ("--degree", "--order")),
    "bracket": (_t_bracket, ()),
    "check-flatrep": (_t_check_flatrep, ()),
    "pullback": (_t_pullback, ()),
    "deformation": (_t_deformation, ("--lambda",)),
    "exactness": (_t_exactness, ("--degree", "--order")),
    "lift": (_t_lift, ("--degree", "--order")),
    "kdv-verify": (_t_kdv_verify, ()),
    "kdv-lift": (_t_kdv_lift, ("name", "--degree", "--order", "--lambda")),
    "kdv-deformation": (_t_kdv_deformation, ("--lambda",)),
    "sdym-expand": (_t_sdym_expand, ("--k",)),
    "sdym-flatrep": (_t_sdym_flatrep, ("--lambda", "--k")),
    "sdym-ugh": (_t_sdym_ugh, ("--k", "--h")),
}


def run(argv: List[str]) -> int:
    """Execute one task; report to stdout, diagnostics to stderr."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 2
    t0 = time.monotonic()
    try:
        handler = _TASKS[args.task][0]
        if args.task in problems.TASKS:
            with open(args.problem, "r", encoding="utf-8") as fh:
                text = fh.read()
            report = handler(problems.parse_problem(text, args.task), args)
        else:
            report = handler(args)
    except (problems.ParseError, ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    report.ms = int((time.monotonic() - t0) * 1000)
    print(emit_report(report, "json" if args.json else "human"))
    return 0 if report.ok else 1


def main() -> None:  # pragma: no cover - thin wrapper
    sys.exit(run(sys.argv[1:]))
