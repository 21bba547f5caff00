#!/usr/bin/env python3
"""Benchmark of armle: CLI fit latency and Monte Carlo throughput.

    python3 perfbench/run.py --workload cli_fit --seed 1 --seconds 20 --trace 0

Workloads (closed loop, one client, one process, BLAS pinned to one thread):

``cli_fit``
    Analyst sessions through the ``armle`` CLI as subprocesses: ``simulate``
    an n = 16000 series, then ``estimate`` and ``test`` on the CSV it wrote.
    One pass is one session; sessions cycle through the kernels (white,
    ar1(0.5), fgn(0.7)) and each session fits at p = 1 and p = 3.
``mc_markov`` / ``mc_fgn``
    ``armle.run_experiment`` in process over a frozen config set (white/ar1
    noise, or fGn noise), reports written to disk. One pass runs every config.

Passes repeat until ``--seconds`` of measured wall time have elapsed; the
reported timings are CPU seconds (see END_TO_END). With
``--trace 0`` the end-to-end metrics are printed; with ``--trace 1`` untraced
and traced passes alternate over the same inputs and the per-layer metrics
come from spans recorded around armle's public functions (see spans.py). Every
output is checked against an independent oracle (see oracle.py); a mismatch
counts as a failed operation. The last stdout line is the result JSON; the
line before it is the machine record, also written under perfbench/out/.
"""
from __future__ import annotations

import os

THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREADS)  # before numpy is imported

import argparse
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

import oracle
from spans import Tracer, metric_names

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Timings are CPU seconds (user + system) of the process doing the work,
# scaled to the reference speed by the Gauge: the host is shared, its wall clock
# also counts time given to other tenants, and its CPU speed moves with their
# load.
END_TO_END = {
    "latency_cpu_p50_s": "s",
    "ops_per_cpu_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
SETUP_REPEATS = 3
FAMILIES = ("white", "ar1", "fgn")
EXP_SIZES = (4000, 16000)


def per_layer_units() -> dict[str, str]:
    units = {m: ("count" if m.endswith(".calls") else "s") for m in metric_names()}
    for fn in ("state.filter_observations", "noise.sample_noise", "filtering.pacf_and_variances"):
        units.update({f"{fn}.n_exp.{fam}": "n-exponent" for fam in FAMILIES})
    units.update({"cli.import_s": "s", "experiments.failed_rows": "count", "trace.overhead_s": "s"})
    return units


# ---------------------------------------------------------------------------
# Speed gauge
# ---------------------------------------------------------------------------

GAUGE_ITERS = 20000
#: CPU seconds of ``gauge_loop`` at the reference speed: its typical reading in
#: the fast phases of the machine the bounds were set on (see README.md).
GAUGE_S = 0.03
_GAUGE_X = np.random.default_rng(0).standard_normal(1200)


def gauge_loop() -> float:
    """CPU seconds of a fixed loop of small numpy dot products and Python
    arithmetic, the shape of armle's inner loops."""
    x, acc = _GAUGE_X, 0.0
    c0 = time.process_time()
    for i in range(GAUGE_ITERS):
        k = 64 + i % 512
        acc += float(x[:k] @ x[k:2 * k]) + 0.5 * i
    return time.process_time() - c0


#: How strongly a child process's CPU time follows the gauge's: the slope of
#: log CPU time on log gauge reading over the CLI calls of ten cli_fit runs on
#: the machine the bounds were set on (0.54, correlation 0.78). A child is
#: mostly interpreter start and imports, which slow down less than the gauge
#: loop when the core is contended. In-process Monte Carlo work follows the
#: gauge one to one.
CHILD_EXPONENT = 0.6


class Gauge:
    """Scales CPU seconds to the reference speed.

    On a shared host the CPU time of the same work moves by up to a factor 2
    within minutes, as other tenants load the physical core. The gauge loop
    runs right before and right after each timed operation, on the same core
    (see ``pin_cpu``), and the operation's CPU time is multiplied by
    (GAUGE_S / mean of the two readings) ** exponent.
    """

    def __init__(self):
        self.ops: list[tuple[float, float]] = []  # (CPU seconds, mean reading)

    def measure(self, op, exponent: float = 1.0):
        """Runs ``op() -> (result, cpu_seconds)``; returns the result and the
        scaled CPU seconds."""
        before = gauge_loop()
        result, cpu = op()
        reading = (before + gauge_loop()) / 2
        self.ops.append((cpu, reading))
        return result, cpu * (GAUGE_S / reading) ** exponent


def pin_cpu() -> None:
    """Pins this process, and the children it starts, to one CPU, so that the
    gauge reads the core the timed work runs on."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def derive_seed(*keys: int) -> int:
    return int(np.random.SeedSequence([int(k) for k in keys]).generate_state(1)[0])


def child_env() -> dict:
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return dict(os.environ, **THREADS, ARMLE_QUIET="1", PYTHONPATH=path)


# Runs ``python -m armle ARGS`` and reports the child's own peak RSS on stderr.
# VmHWM is read because ru_maxrss of a child also counts the parent pages it
# held between fork and exec.
CLI_LAUNCHER = """\
import atexit, runpy, sys
def _peak():
    with open("/proc/self/status") as fh:
        kb = next(line.split()[1] for line in fh if line.startswith("VmHWM"))
    sys.stderr.write(f"\\nvmhwm_kb {kb}\\n")
atexit.register(_peak)
sys.argv[0] = "armle"
runpy.run_module("armle", run_name="__main__", alter_sys=True)
"""


def children_cpu() -> float:
    use = resource.getrusage(resource.RUSAGE_CHILDREN)
    return use.ru_utime + use.ru_stime


def timed_subprocess(argv: list[str], cwd: Path) -> tuple[float, float, subprocess.CompletedProcess]:
    """Wall and CPU seconds of one child run to completion, and its outcome."""
    c0, t0 = children_cpu(), time.perf_counter()
    proc = subprocess.run([sys.executable, *argv], cwd=cwd, env=child_env(),
                          capture_output=True, text=True, timeout=150)
    return time.perf_counter() - t0, children_cpu() - c0, proc


def child_peak_kb(stderr: str) -> int:
    marks = [line.split()[1] for line in stderr.splitlines() if line.startswith("vmhwm_kb ")]
    return int(marks[-1]) if marks else 0


@dataclass
class PassResult:
    """Wall seconds as measured; CPU seconds gauged (see Gauge)."""
    wall: float = 0.0
    cpu_total: float = 0.0
    ops: int = 0
    failed: int = 0
    latencies: list[float] = field(default_factory=list)
    cpu: list[float] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    outputs: list = field(default_factory=list)
    bad: dict[str, set] = field(default_factory=dict)
    peak_kb: int = 0


# ---------------------------------------------------------------------------
# cli_fit
# ---------------------------------------------------------------------------

KERNELS = (
    {"family": "white", "params": {}},
    {"family": "ar1", "params": {"a": 0.5}},
    {"family": "fgn", "params": {"H": 0.7}},
)
THETAS = {1: (0.3,), 3: (0.3, -0.2, 0.1)}
ALPHA = 0.05


def _csv(values) -> str:
    return ",".join(repr(float(v)) for v in values)


class CliFit:
    """Sessions simulate -> estimate -> test through the CLI."""

    def __init__(self, seed: int, work: Path, n: int = 16000):
        self.seed, self.work, self.n = seed, work, n
        self.gauge = Gauge()

    def inputs(self, i: int) -> list[dict]:
        """Pass i is one session: kernel i % 3 of cycle i // 3."""
        cycle, k = divmod(i, len(KERNELS))
        kernel = KERNELS[k]
        p = 1 if (cycle + k) % 2 == 0 else 3  # each cycle fits p = 1 and 3 per kernel
        q = 4 - p
        theta = THETAS[p]
        stem = self.work / f"c{cycle}k{k}"
        kjson = json.dumps(kernel)
        s = {"kernel": kernel, "theta": theta, "p": p,
             "theta0": (theta + (0.0,) * 3)[:q],
             "seed": derive_seed(self.seed, cycle, k),
             "csv": f"{stem}.csv", "est": f"{stem}.est.json", "test": f"{stem}.test.json"}
        s["argv"] = {
            "simulate": ["simulate", "--theta", _csv(theta), "--kernel", kjson,
                         "--n", str(self.n), "--seed", str(s["seed"]), "--out", s["csv"]],
            "estimate": ["estimate", "--in", s["csv"], "--p", str(p), "--kernel", kjson,
                         "--out", s["est"]],
            "test": ["test", "--in", s["csv"], "--kernel", kjson, "--theta0",
                     _csv(s["theta0"]), "--alpha", str(ALPHA), "--out", s["test"]],
        }
        return [s]

    def warm_up(self) -> None:
        timed_subprocess(["-c", CLI_LAUNCHER, "simulate", "--theta", "0.3", "--kernel",
                          json.dumps(KERNELS[0]), "--n", "64", "--out", "-"], self.work)

    def run_pass(self, sessions: list[dict], in_process: bool) -> PassResult:
        """One pass. Latencies are the estimate/test calls; simulate counts as an op."""
        import armle.cli

        def in_proc(argv):
            c0, t0 = time.process_time(), time.perf_counter()
            try:
                code = armle.cli.main(argv)
            except Exception as exc:  # counted as a failed call, the run goes on
                code = -1
                res.errors.append(f"{cmd} raised {exc!r}")
            return (code, time.perf_counter() - t0), time.process_time() - c0

        def child(argv):
            dt, cpu, proc = timed_subprocess(["-c", CLI_LAUNCHER, *argv], self.work)
            res.peak_kb = max(res.peak_kb, child_peak_kb(proc.stderr))
            if proc.returncode:
                res.errors.append(f"{cmd} exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
            return (proc.returncode, dt), cpu

        call, exponent = (in_proc, 1.0) if in_process else (child, CHILD_EXPONENT)
        res = PassResult()
        for s in sessions:
            s["codes"] = {}
            for cmd in ("simulate", "estimate", "test"):
                (code, dt), cpu = self.gauge.measure(lambda: call(s["argv"][cmd]), exponent)
                s["codes"][cmd] = code
                res.wall += dt
                res.cpu_total += cpu
                res.ops += 1
                if cmd != "simulate":
                    res.latencies.append(dt)
                    res.cpu.append(cpu)
        return res

    def check(self, sessions: list[dict], res: PassResult) -> None:
        """Oracle check of every call of the pass; one failure per bad call."""
        for s in sessions:
            try:
                x = np.loadtxt(s["csv"], delimiter=",", skiprows=1, usecols=1, ndmin=1)
                est = dict(_load(s["est"]), _p=s["p"])
                test = dict(_load(s["test"]), _theta0=s["theta0"], _alpha=ALPHA)
                errs = oracle.check_session(s["kernel"], x, s, est, test)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                errs = {cmd: [f"{cmd}: unreadable output: {exc!r}"] for cmd in s["codes"]}
            for cmd, code in s["codes"].items():
                if code != 0 or errs[cmd]:
                    res.failed += 1
                    res.errors += errs[cmd]


def _load(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# mc_markov / mc_fgn
# ---------------------------------------------------------------------------


class MonteCarlo:
    """One pass runs every frozen config of the workload through run_experiment."""

    def __init__(self, name: str, seed: int, work: Path, tiny: bool = False):
        self.seed, self.work = seed, work
        self.gauge = Gauge()
        self.configs = {}
        for path in sorted((HERE / "configs" / name).glob("*.json")):
            obj = json.loads(path.read_text(encoding="utf-8"))
            if tiny:
                obj["replicates"] = min(obj["replicates"], 20)
                obj["sample_sizes"] = [max(n // 20, 25) for n in obj["sample_sizes"]]
            self.configs[path.stem] = obj

    def inputs(self, i: int) -> list[tuple[str, dict, object]]:
        """Pass i's configs; the workload seed overrides the frozen seeds."""
        import armle

        out = []
        for c, (stem, obj) in enumerate(self.configs.items()):
            obj = dict(obj, seed=derive_seed(self.seed, i, c))
            out.append((stem, obj, armle.ExperimentConfig.from_json_dict(obj)))
        return out

    def warm_up(self) -> None:
        import armle

        for stem, obj in self.configs.items():
            cfg = armle.ExperimentConfig.from_json_dict(dict(obj, replicates=2))
            armle.run_experiment(cfg, jobs=1).write(str(self.work / "warm" / stem))

    def run_pass(self, inputs, in_process: bool = True) -> PassResult:
        """One pass; always in process (``in_process`` matches CliFit's signature)."""
        import armle

        def one(stem, cfg):
            c0, t0 = time.process_time(), time.perf_counter()
            try:
                report = armle.run_experiment(cfg, jobs=1)
                report.write(str(self.work / stem))
            except Exception as exc:  # counted as failed replicates, the run goes on
                report = exc
            return (report, time.perf_counter() - t0), time.process_time() - c0

        res = PassResult()
        for stem, obj, cfg in inputs:  # gauged per config: a pass lasts seconds
            (report, dt), cpu = self.gauge.measure(lambda: one(stem, cfg))
            res.outputs.append(report)
            res.ops += obj["replicates"]
            res.wall += dt
            res.cpu_total += cpu
        res.latencies.append(res.wall)
        res.cpu.append(res.cpu_total)
        res.peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return res

    def check(self, inputs, res: PassResult) -> None:
        """Headline of every report against its Monte Carlo standard error;
        rows with ok = 0 fail."""
        for (stem, obj, cfg), report in zip(inputs, res.outputs):
            if isinstance(report, Exception):
                res.bad[stem] = set(range(obj["replicates"]))
                res.errors.append(f"{stem}: {report!r}")
                continue
            res.bad[stem] = {r["replicate"] for r in report.rows if not r["ok"]}
            try:
                text, z = oracle.headline_z(obj, report.to_json_dict(), report.rows,
                                            derive_seed(self.seed, 7))
            except (ValueError, KeyError, ZeroDivisionError, TypeError) as exc:
                text, z = f"headline not computable: {exc!r}", math.inf
            if not abs(z) <= oracle.Z_MAX:
                res.errors.append(f"{stem}: {text}, z = {z:.2f}")
                res.bad[stem] = set(range(obj["replicates"]))
        res.failed = sum(len(b) for b in res.bad.values())

    def check_rows(self, inputs, res: PassResult) -> None:
        """Rows of the checked replicates of every report against the oracle."""
        for (stem, obj, cfg), report in zip(inputs, res.outputs):
            if isinstance(report, Exception):
                continue
            for rep, msg in oracle.check_rows(obj, report.rows):
                res.errors.append(f"{stem}: {msg}")
                res.bad[stem].add(rep)
        res.failed = sum(len(b) for b in res.bad.values())


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

WORKLOADS = ("cli_fit", "mc_markov", "mc_fgn")


def import_time(module: str, work: Path) -> tuple[float, float]:
    """Wall and CPU seconds of ``import module`` in a fresh interpreter."""
    dt, cpu, proc = timed_subprocess(["-c", f"import {module}"], work)
    if proc.returncode:
        raise RuntimeError(f"cannot import {module}: {proc.stderr.strip()[-300:]}")
    return dt, cpu


def untraced(workload, seconds: float, work: Path):
    cli = isinstance(workload, CliFit)
    workload.warm_up()

    def setup():
        c0 = time.process_time()
        workload.inputs(0)
        return None, time.process_time() - c0 + import_time("armle", work)[1]

    setups = [workload.gauge.measure(setup, CHILD_EXPONENT)[1] for _ in range(SETUP_REPEATS)]
    passes = []
    while not passes or sum(r.wall for _, r in passes) < seconds:
        inputs = workload.inputs(len(passes))
        res = workload.run_pass(inputs, in_process=not cli)
        workload.check(inputs, res)
        if passes and not cli:
            res.outputs = []  # keep only the first pass's reports, so memory stays flat
        passes.append((inputs, res))
    if not cli:
        workload.check_rows(*passes[0])
    results = [r for _, r in passes]
    cpu = [x for r in results for x in r.cpu]
    ops = sum(r.ops for r in results)
    metrics = {
        "latency_cpu_p50_s": statistics.median(cpu),
        "ops_per_cpu_s": ops / sum(r.cpu_total for r in results),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max(r.peak_kb for r in results) / 1024.0,
    }
    samples = {"latency_cpu_p50_s": len(cpu), "ops_per_cpu_s": ops, "setup_s": len(setups),
               "peak_rss_mb": ops if cli else len(results), "passes": len(results)}
    return metrics, samples, results


def best_time(fn) -> float:
    """Fastest of repeated calls, repeating until 0.1 s are spent."""
    times = []
    while sum(times) < 0.1:
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def size_exponents(seed: int, sizes) -> dict[str, float]:
    """Fitted exponent of call time in n between the two sizes, per kernel family."""
    import armle

    x = np.random.default_rng(seed).standard_normal(max(sizes))
    out = {}
    for fam, kjson in zip(FAMILIES, KERNELS):
        k = armle.kernel_from_json(kjson)
        calls = {
            "state.filter_observations": lambda n: armle.filter_observations(x[:n], k, 1),
            "noise.sample_noise": lambda n: armle.sample_noise(k, n, seed),
            "filtering.pacf_and_variances": lambda n: armle.pacf_and_variances(k, n),
        }
        for name, fn in calls.items():
            lo, hi = (best_time(lambda: fn(n)) for n in sizes)
            out[f"{name}.n_exp.{fam}"] = math.log(hi / lo) / math.log(sizes[1] / sizes[0])
    return out


def traced(workload, seconds: float, work: Path, seed: int, sizes):
    """Untraced and traced passes alternate over the same inputs; per-layer
    numbers are means per traced pass."""
    workload.warm_up()
    tracer = Tracer()
    pairs, rollups, results = [], [], []
    while not pairs or sum(a.wall + b.wall for a, b in pairs) < seconds:
        inputs = workload.inputs(len(pairs))
        plain = workload.run_pass(inputs, in_process=True)
        workload.check(inputs, plain)
        if not pairs and isinstance(workload, MonteCarlo):
            workload.check_rows(inputs, plain)
        tracer.spans.clear()
        tracer.install()
        try:
            traced_res = workload.run_pass(inputs, in_process=True)
        finally:
            tracer.uninstall()
        workload.check(inputs, traced_res)
        rollup = tracer.rollup()
        rollup["experiments.failed_rows"] = sum(
            sum(1 for r in rep.rows if not r["ok"])
            for rep in traced_res.outputs if not isinstance(rep, Exception))
        rollups.append(rollup)
        pairs.append((plain, traced_res))
        results += [plain, traced_res]
        plain.outputs = traced_res.outputs = []
    metrics = {k: statistics.fmean(r[k] for r in rollups) for k in rollups[0]}
    metrics["trace.overhead_s"] = statistics.fmean(b.wall - a.wall for a, b in pairs)
    metrics["cli.import_s"] = import_time("armle.cli", work)[0]
    metrics.update(size_exponents(seed, sizes))
    samples = {"traced_passes": len(pairs), "cli.import_s": 1}
    return metrics, samples, results, tracer.spans


def machine(load_start) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    scipy_blas = scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": f"{blas.get('name')} {blas.get('version')}",
        "scipy_blas": f"{scipy_blas.get('name')} {scipy_blas.get('version')}",
        "blas_threads": {k: os.environ.get(k) for k in THREADS},
        "loadavg_start": load_start,
        "loadavg_end": list(os.getloadavg()),
    }


def bench(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False):
    """Run one workload; returns (result line object, machine record)."""
    load_start = list(os.getloadavg())
    work = OUT / "work" / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    if name == "cli_fit":
        workload = CliFit(seed, work, n=600 if tiny else 16000)
    else:
        workload = MonteCarlo(name, seed, work, tiny=tiny)
    spans = None
    if trace:
        sizes = (400, 1600) if tiny else EXP_SIZES
        metrics, samples, results, spans = traced(workload, seconds, work, seed, sizes)
        units = per_layer_units()
    else:
        metrics, samples, results = untraced(workload, seconds, work)
        units = END_TO_END
    attempted = sum(r.ops for r in results)
    failed = sum(r.failed for r in results)
    errors = [e for r in results for e in r.errors]
    result = {
        "correct": failed == 0 and not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": u} for k, u in units.items()},
    }
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "failed_share": failed / attempted, "samples": samples,
              "latencies_wall_s": [[round(x, 4) for x in r.latencies] for r in results],
              "latencies_cpu_s": [[round(x, 4) for x in r.cpu] for r in results],
              "wall_s": sum(r.wall for r in results),
              "cpu_scaled_s": sum(r.cpu_total for r in results),
              "gauge_ops": [[round(c, 5), round(g, 5)] for c, g in workload.gauge.ops],
              "errors": errors[:20], "machine": machine(load_start)}
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{name}-seed{seed}-trace{int(trace)}"
    stem.with_suffix(".record.json").write_text(json.dumps(record, indent=1) + "\n")
    if spans is not None:
        with open(stem.with_suffix(".spans.json"), "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": spans}, fh)
    shutil.rmtree(work, ignore_errors=True)
    return result, record


def prepare() -> str | None:
    """Make the checkout's armle importable; returns a problem message or None."""
    if not (SRC / "armle" / "__init__.py").is_file():
        return f"run.py: no armle package under {SRC}"
    sys.path.insert(0, str(SRC))
    os.environ["ARMLE_QUIET"] = "1"
    try:
        import armle.cli  # noqa: F401  (the tracer patches modules already loaded)
    except ImportError as exc:
        return f"run.py: cannot import armle: {exc}"
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    problem = prepare()
    if problem:
        print(problem, file=sys.stderr)
        return 2
    pin_cpu()
    result, record = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    print("record: " + json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
