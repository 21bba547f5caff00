#!/usr/bin/env python3
"""Smoke check of the benchmark; not a timing gate.

    python3 perfbench/smoke.py

Runs a tiny version of every workload (small n, few replicates, one pass)
untraced and traced, and requires a correct result with every metric present.
Then it feeds the oracle deliberately wrong answers (a perturbed estimate, a
perturbed test statistic, a perturbed simulated value, a perturbed harness
row and a wrong headline) and requires each to be caught. Exits 0 when all of
that holds.
"""
from __future__ import annotations

import json
import shutil
import sys

import run  # pins BLAS threads before numpy loads


def expect(cond: bool, what: str, failures: list[str]) -> None:
    print(f"{'ok  ' if cond else 'FAIL'} {what}")
    if not cond:
        failures.append(what)


def tiny_runs(failures: list[str]) -> None:
    layer = set(run.per_layer_units())
    for name in run.WORKLOADS:
        for trace in (False, True):
            result, record = run.bench(name, seed=3, seconds=0, trace=trace, tiny=True)
            want = layer if trace else set(run.END_TO_END)
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] > 0
                   and set(result["metrics"]) == want,
                   f"{name} trace={int(trace)} runs clean: {record['errors'][:3]}", failures)


def wrong_cli_answers(failures: list[str]) -> None:
    work = run.OUT / "work" / "smoke_cli"
    work.mkdir(parents=True, exist_ok=True)
    wl = run.CliFit(seed=5, work=work, n=600)
    sessions = [s for i in range(len(run.KERNELS)) for s in wl.inputs(i)]
    res = wl.run_pass(sessions, in_process=True)
    wl.check(sessions, res)
    expect(res.failed == 0, "cli oracle accepts the program's own answers", failures)
    for key, field, scale in (("est", "theta_hat", 1 + 1e-7), ("test", "statistic", 1 + 1e-6)):
        s = sessions[0]
        with open(s[key], encoding="utf-8") as fh:
            obj = json.load(fh)
        good = obj[field]
        obj[field] = [v * scale for v in good] if isinstance(good, list) else good * scale
        with open(s[key], "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        res = run.PassResult()
        wl.check(sessions, res)
        expect(res.failed == 1, f"cli oracle catches {field} off by {scale - 1:g}", failures)
        obj[field] = good
        with open(s[key], "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
    s = sessions[2]
    with open(s["csv"], encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    t, x = lines[300].split(",")
    lines[300] = f"{t},{float(x) * (1 + 1e-7)!r}"
    with open(s["csv"], "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    res = run.PassResult()
    wl.check(sessions, res)
    expect(any(e.startswith("simulate:") for e in res.errors),
           "cli oracle catches a simulated value off by 1e-7", failures)


def wrong_mc_answers(failures: list[str]) -> None:
    work = run.OUT / "work" / "smoke_mc"
    wl = run.MonteCarlo("mc_fgn", seed=5, work=work, tiny=True)
    inputs = wl.inputs(0)
    res = wl.run_pass(inputs)
    wl.check(inputs, res)
    wl.check_rows(inputs, res)
    expect(res.failed == 0 and not res.errors,
           f"mc oracle accepts the harness: {res.errors[:2]}", failures)

    stems = [stem for stem, _, _ in inputs]
    report = res.outputs[stems.index("test_size_fgn07")]
    row = next(r for r in report.rows if r["replicate"] == 1)
    good = row["statistic"]
    row["statistic"] = good * (1 + 1e-8)
    res = run.PassResult(outputs=res.outputs)
    wl.check(inputs, res)
    wl.check_rows(inputs, res)
    expect(res.failed == 1, "mc oracle catches a harness statistic off by 1e-8", failures)
    row["statistic"] = good

    report.per_n[max(report.per_n)]["rejection_rate"] = 0.9
    res = run.PassResult(outputs=res.outputs)
    wl.check(inputs, res)
    expect(res.failed == report.config["replicates"],
           "mc headline check catches a wrong rejection rate", failures)


def main() -> int:
    problem = run.prepare()
    if problem:
        print(problem, file=sys.stderr)
        return 2
    failures: list[str] = []
    try:
        tiny_runs(failures)
        wrong_cli_answers(failures)
        wrong_mc_answers(failures)
    finally:
        for stem in ("smoke_cli", "smoke_mc"):
            shutil.rmtree(run.OUT / "work" / stem, ignore_errors=True)
    print("smoke: " + ("ok" if not failures else f"{len(failures)} failed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
