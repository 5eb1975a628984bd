#!/usr/bin/env python3
"""Tiny-size self-check of the benchmark itself.

    python3 perfbench/selfcheck.py

1. Runs cli-mix for two seconds with two deliberately wrong expectations (a
   wrong exit code for one invocation, a wrong golden output for another)
   and checks that every such verdict is counted in ``failed`` and
   ``fail_frac`` and that the result is marked incorrect.
2. Checks that the untraced result carries exactly the end-to-end metrics of
   BENCHMARK.json, and that a short traced run carries exactly its per-layer
   metrics, each with the unit BENCHMARK.json gives it.

Exits 0 and prints ``selfcheck: ok`` when every check holds.
"""

import contextlib
import io
import json
import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
WRONG_EXIT = "kdv-verify"
WRONG_OUTPUT = "check-flat flat_xy.prob"


# Every metric the untraced run prints, each of which must read as a number.
PRINTED = ("setup_s", "wall_s", "op_p50_ms", "op_tail_ms", "peak_rss_mb", "fail_frac")

SEEN = []


def wrong_expectations(state, i):
    """The cli-mix operation, checked against a deliberately wrong golden."""
    SEEN.append(workloads.cli_label(state["order"][i]))
    golden = state["golden"]
    golden[WRONG_EXIT] = dict(golden[WRONG_EXIT], exit=1)
    golden[WRONG_OUTPUT] = dict(golden[WRONG_OUTPUT], stdout="{}")
    return workloads.op_cli_mix(state, i)


def quiet(fn):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        result = fn()
    return result, buf.getvalue()


def check(cond, what):
    if not cond:
        raise SystemExit("selfcheck FAILED: %s" % what)
    print("selfcheck: %s" % what)


def check_metrics(result, listed, mode):
    want = {m["name"]: m["unit"] for m in listed}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    check(got == want, "%s result has exactly the %d metrics of BENCHMARK.json, "
                       "with their units" % (mode, len(want)))
    check(all(isinstance(v["value"], (int, float)) for v in result["metrics"].values()),
          "%s metric values are numbers" % mode)


def main():
    seconds = 2
    result, text = quiet(lambda: run.report(*run.run_untraced(
        "cli-mix", 1, seconds, op=wrong_expectations)))
    attempted, failed = result["attempted"], result["failed"]
    check(attempted == len(SEEN), "cli-mix ran %d invocations" % attempted)
    expected = sum(1 for label in SEEN if label in (WRONG_EXIT, WRONG_OUTPUT))
    check(failed == expected and failed >= 1,
          "%d of %d verdicts checked against a wrong expectation, %d counted failed"
          % (expected, attempted, failed))
    check(not result["correct"], "the result is marked incorrect")
    check("fail_frac   %.4f" % (failed / attempted) in text,
          "fail_frac %.4f is printed" % (failed / attempted))
    check_metrics(result, SPEC["end_to_end"], "untraced")
    for name in PRINTED:
        check(re.search(r"^%s\s+\d+\.\d+ " % name, text, re.M) is not None,
              "%s is printed with a value" % name)

    result, text = quiet(lambda: run.report(*run.run_traced("fce-recover", 1, ops=2)))
    check(result["correct"] and result["failed"] == 0, "traced fce-recover verdicts pass")
    check_metrics(result, SPEC["per_layer"], "traced")
    check("residual" in text and "tracing overhead" in text,
          "traced run prints its residual and tracing overhead")
    print("selfcheck: ok")


if __name__ == "__main__":
    main()
