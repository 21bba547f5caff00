#!/usr/bin/env python3
"""Run the Monte Carlo verification battery and summarize the outcomes.

Each JSON file in the config directory describes one experiment; reports are
written to <out>/<config-name>/ as report.json, raw.csv and curves.csv. One
summary line per experiment is printed at the end, with the headline number
of that experiment (consistency slope, covariance error, rejection rates,
trace ratio, envelope share, remainder trend).

The full battery at the shipped settings takes about 2.5-3.5 s on one core,
about half of it in the clt config. The two fGn configs take about 0.03-0.04
CPU-s each: a run walks the Durbin-Levinson filter once and simulates each
block by one band solve of the state recursion.
--jobs maps the blocks of replicates of each config (up to 64 replicates per
block, and at least --jobs blocks where there are as many replicates) over
that many worker processes, which does not change any output.
"""
import argparse
import json
import sys
import time
from pathlib import Path

from armle import ExperimentConfig, run_experiment

HERE = Path(__file__).resolve().parent


def _num(value, spec: str) -> str:
    """``value`` formatted by ``spec``, or n/a when the report has none."""
    return "n/a" if value is None else format(value, spec)


def headline(report) -> str:
    s = report.summary
    per_n = report.per_n
    last = per_n[max(per_n)] if per_n else {}
    if report.experiment == "consistency":
        return f"log-log slope {_num(s['slope'], '.4f')} (target about -0.5)"
    if report.experiment == "clt":
        return f"covariance rel error {_num(s['rel_error_max'], '.4f')} vs inverse information"
    if report.experiment in ("test_size", "test_power"):
        rate = last.get("rejection_rate")
        msg = f"rejection rate {_num(rate, '.4f')}"
        if report.experiment == "test_power":
            msg += f" vs predicted {_num(s['predicted_power'], '.4f')}"
        else:
            msg += f" at level {s['alpha']}"
        return msg
    if report.experiment == "qsl":
        return f"median trace ratio {_num(last.get('median_trace_ratio'), '.4f')} (target 1)"
    if report.experiment == "lil":
        return (
            f"share within 2x envelope {_num(last.get('within_share'), '.2f')}, "
            f"majority {s['majority_within']}"
        )
    if report.experiment == "lan_remainder":
        return (
            f"median |remainder| {_num(last.get('median_abs_remainder'), '.2e')} at the "
            f"largest n, monotone {s['medians_monotone_decreasing']}"
        )
    return "done"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--configs",
        type=Path,
        default=HERE / "configs",
        help="directory of experiment config JSON files",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=Path("verification_out"),
        help="output directory (one subdirectory per experiment)",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, help="worker processes over blocks of replicates"
    )
    parser.add_argument(
        "--only",
        nargs="*",
        default=None,
        help="run only the named configs (stem of the JSON file)",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress per-replicate progress"
    )
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error(f"--jobs must be at least 1, got {args.jobs}")

    paths = sorted(args.configs.glob("*.json"))
    if args.only:
        wanted = set(args.only)
        paths = [p for p in paths if p.stem in wanted]
        missing = wanted - {p.stem for p in paths}
        if missing:
            parser.error(f"no config named {sorted(missing)} in {args.configs}")
    if not paths:
        parser.error(f"no config files in {args.configs}")

    progress = None if args.quiet else lambda line: print(line, file=sys.stderr)
    lines = []
    all_passed = True
    t0 = time.perf_counter()
    for path in paths:
        with open(path, encoding="utf-8-sig") as fh:
            cfg = ExperimentConfig.from_json_dict(json.load(fh))
        report = run_experiment(cfg, jobs=args.jobs, progress=progress)
        report.write(args.out / path.stem)
        all_passed &= report.passed
        status = "ok" if report.passed else f"FAILED ({report.failures} bad rows)"
        lines.append(
            f"{path.stem:<14} {status:<8} {report.runtime_seconds:7.1f}s  "
            + headline(report)
        )
    total = time.perf_counter() - t0

    print()
    print(f"verification battery: {len(paths)} experiments in {total:.1f}s")
    for line in lines:
        print("  " + line)
    print(f"reports written under {args.out}/")
    return 0 if all_passed else 1


if __name__ == "__main__":
    sys.exit(main())
