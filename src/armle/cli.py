"""Command-line front door.

Subcommands: simulate, filter, estimate, test, lan, experiment,
validate-kernel.  Tabular output is UTF-8 CSV with a header row and `.`
decimals; structured output is JSON with full double-precision round-trip
numbers and no NaN (non-finite results are an error instead).

Exit codes: 0 success, 2 usage, 3 data or format error (a size numpy cannot
allocate included), 4 numeric degeneracy (unstable parameters, singular Gram,
filter breakdown).  The outcome of a hypothesis test never affects the exit
code.  Every run echoes its arguments to stderr as JSON, options left unset
omitted and the ``experiment`` config file resolved to its full config; set
ARMLE_QUIET=1 to suppress the echo and progress lines.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import os
import sys

import numpy as np

from .ar import simulate_series
from .exceptions import NotPositiveDefinite, SingularGram, Unstable
from .experiments import ExperimentConfig, _json_text, run_experiment
from .filtering import pacf_and_variances
from .inference import lan_decomposition, lr_test, mle
from .noise import kernel_from_json, validate_kernel
from .state import filter_observations, log_likelihood

_DEGENERATE = (NotPositiveDefinite, SingularGram, Unstable)


class _CliError(Exception):
    """Error with an explicit exit code, reported as a one-line message."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _quiet() -> bool:
    return os.environ.get("ARMLE_QUIET", "").strip().lower() in ("1", "true", "yes")


def _note(text: str) -> None:
    if not _quiet():
        print(text, file=sys.stderr)


def _echo_config(args, **resolved) -> None:
    """Echo the arguments given, unset options omitted, ``resolved`` overriding them."""
    given = {
        "in" if k == "input" else k: v
        for k, v in vars(args).items()
        if k != "func" and v is not None
    }
    text = json.dumps(given | resolved, sort_keys=True, default=lambda o: o.to_json_dict())
    _note("config: " + text)


def _vector_arg(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(tok) for tok in text.split(","))
        if not all(map(math.isfinite, values)):
            raise ValueError
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated finite reals, got {text!r}"
        ) from None
    return values


def _kernel_arg(text: str):
    try:
        return kernel_from_json(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad kernel JSON: {exc}") from None


def _alpha_arg(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a real, got {text!r}") from None
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError("alpha must lie in (0, 1)")
    return value


def _int_at_least(low: int):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}")
        return value

    return parse


@contextlib.contextmanager
def _output(path: str):
    """Yield stdout for ``-``, else the file at ``path``, closed afterwards."""
    if path == "-":
        yield sys.stdout
        return
    try:
        fh = open(path, "w", encoding="utf-8", newline="")
    except OSError as exc:
        raise _CliError(3, f"cannot open {path!r} for writing: {exc}") from exc
    with fh:
        yield fh


def _emit_csv(header: str, lines, out: str) -> None:
    with _output(out) as fh:
        fh.write(header + "\n")
        fh.writelines(lines)


def _emit_json(obj: dict, out: str) -> None:
    try:
        text = _json_text(obj)
    except ValueError as exc:
        raise _CliError(4, f"refusing to emit non-finite numbers: {exc}") from exc
    with _output(out) as fh:
        fh.write(text)


def _read_series(path: str) -> np.ndarray:
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, [])
            if "x" not in header:
                raise _CliError(3, f"{path!r}: input CSV must have a column named 'x'")
            if header.count("x") > 1:
                raise _CliError(3, f"{path!r}: input CSV names the column 'x' more than once")
            col = header.index("x")
            values = []
            for row in reader:
                if not row:  # a blank line
                    continue
                cell = row[col] if col < len(row) else ""
                if cell == "":
                    raise _CliError(
                        3, f"{path!r}:{reader.line_num}: missing value in column 'x'"
                    )
                try:
                    values.append(float(cell))
                except ValueError:
                    raise _CliError(
                        3, f"{path!r}:{reader.line_num}: cannot parse {cell!r} as a real"
                    ) from None
    except OSError as exc:
        raise _CliError(3, f"cannot read {path!r}: {exc}") from exc
    if not values:
        raise _CliError(3, f"{path!r}: no data rows")
    return np.array(values)


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_simulate(args) -> int:
    _echo_config(args)
    x = simulate_series(args.theta, args.kernel, args.n, args.seed)
    rows = (f"{t},{v!r}\n" for t, v in enumerate(x.tolist(), start=1))
    _emit_csv("t,x", rows, args.out)
    return 0


def _cmd_filter(args) -> int:
    _echo_config(args)
    beta, sigma2 = pacf_and_variances(args.kernel, args.n)
    rows = (
        f"{m},{b!r},{s!r}\n"
        for m, b, s in zip(range(1, args.n + 1), beta.tolist(), sigma2.tolist())
    )
    _emit_csv("n,beta,sigma2", rows, args.out)
    return 0


def _series_path(args, p: int):
    """Echo the arguments, read ``--in`` and filter it for an AR(p) fit."""
    _echo_config(args)
    return filter_observations(_read_series(args.input), args.kernel, p)


def _cmd_estimate(args) -> int:
    path = _series_path(args, args.p)
    result = mle(path)
    fields = ("theta_hat", "stderr", "gram_over_n", "cond", "n", "p")
    out = {name: getattr(result, name) for name in fields}
    _emit_json(out | {"log_likelihood": log_likelihood(path, result.theta_hat)}, args.out)
    return 0


def _cmd_test(args) -> int:
    path = _series_path(args, len(args.theta0))
    result = lr_test(path, args.theta0, args.alpha)
    _emit_json(vars(result) | {"n": path.n, "p": path.p}, args.out)
    return 0


def _cmd_lan(args) -> int:
    if len(args.u) != len(args.theta0):
        raise _CliError(2, f"--u has length {len(args.u)} but --theta0 has length "
                           f"{len(args.theta0)}")
    path = _series_path(args, len(args.theta0))
    terms = lan_decomposition(path, args.theta0, args.u)
    out = dict(zip(("score_term", "info_term", "remainder"), terms)) | {
        "delta_loglik": terms[0] + terms[1] + terms[2],
        "theta0": args.theta0, "u": args.u, "n": path.n, "p": path.p,
    }
    _emit_json(out, args.out)
    return 0


def _cmd_experiment(args) -> int:
    try:
        with open(args.config, "r", encoding="utf-8-sig") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise _CliError(3, f"cannot read {args.config!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise _CliError(3, f"{args.config!r}: bad JSON: {exc}") from exc
    try:
        cfg = ExperimentConfig.from_json_dict(obj)
        cfg.validate()
    except _DEGENERATE as exc:
        raise _CliError(4, f"{args.config!r}: {exc}") from exc
    except (ValueError, TypeError) as exc:
        raise _CliError(3, f"{args.config!r}: {exc}") from exc
    _echo_config(args, config=cfg.to_json_dict())
    progress = None if _quiet() else lambda line: print(line, file=sys.stderr)
    try:
        report = run_experiment(cfg, jobs=args.jobs, progress=progress)
    except NotPositiveDefinite as exc:  # the run's one walk is the kernel's check
        raise _CliError(4, f"{args.config!r}: {exc}") from exc
    report.write(args.out_dir)
    _emit_json(report.to_json_dict(), "-")
    return 0


def _cmd_validate_kernel(args) -> int:
    _echo_config(args)
    report = validate_kernel(args.kernel, args.horizon)
    _emit_json(report.to_json_dict(), args.out)
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="armle",
        description=(
            "Exact Gaussian likelihood tools for AR(p) processes with "
            "stationary dependent noise."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    kernel_help = 'noise kernel as JSON, e.g. \'{"family": "ar1", "params": {"a": 0.5}}\''

    sim = sub.add_parser("simulate", help="simulate an AR(p) series")
    sim.add_argument("--theta", type=_vector_arg, required=True,
                     help="AR coefficients, comma-separated")
    sim.add_argument("--kernel", type=_kernel_arg, required=True, help=kernel_help)
    sim.add_argument("--n", type=_int_at_least(1), required=True,
                     help="sample size (runtime grows as n^2 for fgn noise, as n for "
                          "white and ar1; n <= 20000 recommended for fgn)")
    sim.add_argument("--seed", type=_int_at_least(0), default=0, help="RNG seed")
    sim.add_argument("--out", default="-", help="output CSV path, - for stdout")
    sim.set_defaults(func=_cmd_simulate)

    flt = sub.add_parser("filter", help="dump PACF and innovation variances")
    flt.add_argument("--kernel", type=_kernel_arg, required=True, help=kernel_help)
    flt.add_argument("--n", type=_int_at_least(1), required=True, help="horizon")
    flt.add_argument("--out", default="-", help="output CSV path, - for stdout")
    flt.set_defaults(func=_cmd_filter)

    est = sub.add_parser("estimate", help="maximum-likelihood estimate from a series")
    est.add_argument("--in", dest="input", required=True, help="input CSV with column x")
    est.add_argument("--p", type=_int_at_least(1), required=True, help="AR order")
    est.add_argument("--kernel", type=_kernel_arg, required=True, help=kernel_help)
    est.add_argument("--out", default="-", help="output JSON path, - for stdout")
    est.set_defaults(func=_cmd_estimate)

    tst = sub.add_parser("test", help="likelihood-ratio test of theta = theta0")
    tst.add_argument("--in", dest="input", required=True, help="input CSV with column x")
    tst.add_argument("--kernel", type=_kernel_arg, required=True, help=kernel_help)
    tst.add_argument("--theta0", type=_vector_arg, required=True,
                     help="null hypothesis coefficients, comma-separated")
    tst.add_argument("--alpha", type=_alpha_arg, default=0.05, help="test level")
    tst.add_argument("--out", default="-", help="output JSON path, - for stdout")
    tst.set_defaults(func=_cmd_test)

    lan = sub.add_parser("lan", help="local likelihood expansion around theta0")
    lan.add_argument("--in", dest="input", required=True, help="input CSV with column x")
    lan.add_argument("--kernel", type=_kernel_arg, required=True, help=kernel_help)
    lan.add_argument("--theta0", type=_vector_arg, required=True,
                     help="expansion point, comma-separated")
    lan.add_argument("--u", type=_vector_arg, required=True,
                     help="local direction, comma-separated")
    lan.add_argument("--out", default="-", help="output JSON path, - for stdout")
    lan.set_defaults(func=_cmd_lan)

    exp = sub.add_parser("experiment", help="run a Monte Carlo experiment")
    exp.add_argument("--config", required=True, help="experiment config JSON file")
    exp.add_argument("--out-dir", required=True,
                     help="directory for report.json, raw.csv, curves.csv")
    exp.add_argument("--jobs", type=_int_at_least(1), default=1,
                     help="worker processes over blocks of up to 64 replicates; "
                          "results independent of job count")
    exp.set_defaults(func=_cmd_experiment)

    vk = sub.add_parser("validate-kernel", help="check a kernel's positive definiteness")
    vk.add_argument("--kernel", type=_kernel_arg, required=True, help=kernel_help)
    vk.add_argument("--horizon", type=_int_at_least(1), default=512,
                    help="number of lags to check")
    vk.add_argument("--out", default="-", help="output JSON path, - for stdout")
    vk.set_defaults(func=_cmd_validate_kernel)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except _CliError as exc:
        print(f"armle: error: {exc}", file=sys.stderr)
        return exc.code
    except _DEGENERATE as exc:
        print(f"armle: numeric degeneracy: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"armle: i/o error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"armle: data error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"armle: cannot allocate: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())
