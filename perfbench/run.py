"""End-to-end and per-layer benchmark of the qselftest command line.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload small-sampled --seed 0 --seconds 30 --trace 0

Each workload is a list of `qselftest` commands built from --seed (see
workloads.py). After set-up, the list runs in rounds through
`qselftest.cli.main(argv)` in this process with stdout captured, until
--seconds is spent (see measure); every command writes its --out report and
every report is checked. With --trace 0 the end-to-end metrics are printed;
with --trace 1 a traced pass follows the untraced ones and the per-layer
metrics are printed. The last stdout line is one JSON object: correct,
attempted, failed, metrics.

End-to-end times are stated at a reference machine speed. A fixed probe,
which runs no qselftest code, is timed right before every command run; a
command's time is PROBE_REF_S times the median, over its runs, of its
latency over the probe next to it (see command_times). Set-up time is
scaled likewise, by a NumPy import timed beside each qselftest import (see
measure_setup). The detail line keeps the times as measured. Per-layer times
are as measured.

BLAS is held to one thread. With OpenBLAS's default of one thread per core,
the n=8 ladder rung ran slower and varied far more from run to run on a
2-core machine, so its timings would track the scheduler, not the program.
The environment stamp reports the cap in force.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any  # noqa: E402

import numpy as np  # noqa: E402
import tracer as tr  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
PINS = HERE / "pinned.json"

SETUP_REPEATS = 15
# about the fastest `import numpy` in a fresh interpreter on the same host
# as PROBE_REF_S
NUMPY_IMPORT_REF_S = 0.075
# about the fastest machine_probe() ran on the 2-vCPU Xeon host (Python 3.11,
# NumPy 2.4, one BLAS thread) the benchmark was tuned on; only ratios matter
PROBE_REF_S = 9.0e-3
MIN_PASSES = 2
REPORT = "report.json"
_IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import {}; "
    "print(time.perf_counter() - t)"
)

# unit of every end-to-end metric, in report order
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MiB"}


@dataclass
class PassResult:
    """Runs of commands, each by its position in the workload's list."""

    index: list[int] = field(default_factory=list)
    latencies: list[float] = field(default_factory=list)
    probes: list[float] = field(default_factory=list)  # each just before its run
    failures: list[tuple[str, str]] = field(default_factory=list)
    records: int = 0
    report_bytes: int = 0
    byte_misses: int = 0  # sampled reports whose bytes differ from the pin
    digest: Any = field(default_factory=hashlib.sha256)  # of the reports

    @property
    def wall(self) -> float:
        return sum(self.latencies)


def machine_probe() -> float:
    """Seconds a fixed mix of interpreter and small NumPy work takes now.

    It runs no qselftest code, so no change to the package can move it.
    """
    mat = np.eye(4, dtype=np.complex128)
    vec = np.ones(1024, dtype=np.complex128)
    table = {}
    acc = 0
    start = time.perf_counter()
    for i in range(60000):
        acc += i * i
        table[i & 255] = acc
    for _ in range(600):
        vec = (mat @ vec.reshape(4, -1)).reshape(-1)
    return time.perf_counter() - start


def import_time(module: str) -> float:
    """Seconds a fresh interpreter takes to import module."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE.format(module)],
                         env=env, check=True, capture_output=True, text=True,
                         timeout=60)
    return float(out.stdout)


def measure_setup() -> tuple[float, float, float]:
    """Set-up time at the reference speed, and the median import times of
    qselftest.cli and of NumPy as measured.

    Each qselftest import is paired with a NumPy import next to it, in
    alternating order. The host's slow phases move the medians of both by up
    to 1.8 times over a few minutes, but their ratio by a few percent, so
    set-up is stated as NUMPY_IMPORT_REF_S times the median ratio. A change
    to qselftest's import work moves the ratio; NumPy's import is the same
    for every commit.
    """
    # the first import may compile bytecode; users pay that only once
    import_time("qselftest.cli")
    own, numpy, ratios = [], [], []
    for k in range(SETUP_REPEATS):
        pair = ("qselftest.cli", "numpy")
        times = {m: import_time(m) for m in (pair if k % 2 else pair[::-1])}
        own.append(times["qselftest.cli"])
        numpy.append(times["numpy"])
        ratios.append(times["qselftest.cli"] / times["numpy"])
    return (NUMPY_IMPORT_REF_S * statistics.median(ratios),
            statistics.median(own), statistics.median(numpy))


def run_command(cli, argv) -> tuple[float, int | None, str | None]:
    """(latency in s, exit code, error) of one in-process CLI invocation."""
    sink = io.StringIO()
    rc, error = None, None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink):
            rc = cli.main(list(argv) + ["--out", REPORT])
    except SystemExit as exc:  # argparse rejects its input this way
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a crash is a failed command, not a dead pass
        error = f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - start, rc, error


def run_one(cli, cmds, i, pins, out: PassResult) -> None:
    """Run and check command i; its work is counted whatever the check says."""
    cmd = cmds[i]
    out.probes.append(machine_probe())
    latency, rc, error = run_command(cli, cmd.argv)
    out.index.append(i)
    out.latencies.append(latency)
    data = report = None
    if os.path.exists(REPORT):
        with open(REPORT, "rb") as fh:
            data = fh.read()
        os.remove(REPORT)
        out.report_bytes += len(data)
        out.digest.update(data)
        if workloads.byte_identical(cmd, data, pins) is False:
            out.byte_misses += 1
        try:
            report = json.loads(data)
        except ValueError as exc:
            error = error or f"report is not JSON: {exc}"
        else:
            out.records += workloads.records_in(cmd, report)
    if error is None:
        error = workloads.check(cmd, rc, data, report, pins)
    if error is not None:
        out.failures.append((cmd.key, error))


def run_pass(cli, cmds, pins) -> PassResult:
    out = PassResult()
    for i in range(len(cmds)):
        run_one(cli, cmds, i, pins, out)
    return out


def best_latencies(n: int, runs: list[PassResult]) -> list[float]:
    """Each of n commands' fastest latency over the runs."""
    best = [math.inf] * n
    for r in runs:
        for i, t in zip(r.index, r.latencies):
            best[i] = min(best[i], t)
    return best


def command_times(n: int, runs: list[PassResult]) -> tuple[list[float], list[float]]:
    """Each of n commands' time at the reference speed, and as measured.

    The first is PROBE_REF_S times the median over the command's runs of
    latency / probe, the probe timed just before the run; the second is the
    median latency. A shared host runs everything up to 1.5 times slower
    for minutes on end, longer than a run, and also in bursts shorter than
    a command. Both move a probe next to the run as much as the run, so the
    ratio cancels them; a change to the program does not move the probe, so
    the ratio keeps that. Over 30 s windows of one seed, the coefficient of
    variation of the summed ratios was 0.03 (small-sampled), 0.05
    (ladder-exact) and 0.02-0.03 (certify), against 0.15, 0.07 and
    0.16-0.19 for the summed fastest latencies.
    """
    ratios = [[] for _ in range(n)]
    latencies = [[] for _ in range(n)]
    for r in runs:
        for i, t, probe in zip(r.index, r.latencies, r.probes):
            ratios[i].append(t / probe)
            latencies[i].append(t)
    return ([PROBE_REF_S * statistics.median(v) for v in ratios],
            [statistics.median(v) for v in latencies])


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail(latencies: list[float]) -> dict | None:
    """Highest whole percentile above the median with ten commands beyond it."""
    n = len(latencies)
    for q in range(99, 50, -1):
        if n - math.ceil(q / 100.0 * n) >= 10:
            return {"value": percentile(latencies, q) * 1e3, "unit": "ms",
                    "percentile": q, "samples": n}
    return None


def blas_threads() -> int | None:
    """Thread cap of the OpenBLAS that NumPy loaded, read from the library."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_sha() -> str:
    """HEAD of the checkout, or 'unknown' outside a git work tree."""
    try:
        # the ceiling keeps git from answering for a repository above ROOT
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment() -> dict:
    import qselftest

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "backend": getattr(qselftest, "BACKEND", "numpy"),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
    }


def measure(cli, cmds, pins, budget: float, min_passes: int
            ) -> tuple[list[PassResult], PassResult]:
    """Untraced runs of the command list until the budget is spent.

    After min_passes whole passes, rounds over the list go on, and a command
    is skipped once its fastest run so far would overrun the budget. So the
    time a long command leaves over, such as the n=8 ladder rung's, buys the
    shorter ones more runs. Returns the whole passes and the further runs.
    """
    start = time.perf_counter()
    passes = [run_pass(cli, cmds, pins) for _ in range(min_passes)]
    more = PassResult()
    best = best_latencies(len(cmds), passes)
    i = skipped = 0
    while skipped < len(cmds):
        if best[i] <= budget - (time.perf_counter() - start):
            run_one(cli, cmds, i, pins, more)
            best[i] = min(best[i], more.latencies[-1])
            skipped = 0
        else:
            skipped += 1
        i = (i + 1) % len(cmds)
    return passes, more


def run(workload: str, seed: int, seconds: float, trace: bool,
        tiny: bool = False, edit=None) -> dict:
    """Set up, measure and check one workload; the result and its detail.

    edit, if given, maps the built command list to the one that runs; the
    self-check uses it to plant a wrong expectation.
    """
    setup = None if trace else measure_setup()
    import qselftest.cli as cli

    pins = json.loads(PINS.read_text(encoding="utf-8"))
    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=WORK)
    home = os.getcwd()
    os.chdir(workdir)
    try:
        cmds = workloads.build(workload, seed, tiny)
        if edit is not None:
            cmds = edit(cmds)
        run_command(cli, cmds[0].argv)  # warm-up, not measured
        if os.path.exists(REPORT):
            os.remove(REPORT)
        budget = seconds / 2 if trace else seconds
        passes, more = measure(cli, cmds, pins, budget,
                                       1 if trace else MIN_PASSES)
        traced = None
        if trace:
            tracer = tr.Tracer()
            tracer.install()
            try:
                traced = run_pass(cli, cmds, pins)
            finally:
                tracer.uninstall()
    finally:
        os.chdir(home)
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only if no other run is using it

    untraced = passes + [more]
    runs = untraced + ([traced] if traced else [])
    failures = [f for p in runs for f in p.failures]
    attempted = sum(len(p.latencies) for p in runs)
    times, measured = command_times(len(cmds), untraced)
    wall, wall_measured = sum(times), sum(measured)
    latencies = [PROBE_REF_S * t / probe for p in untraced
                 for t, probe in zip(p.latencies, p.probes)]
    detail = {
        "workload": workload,
        "seed": seed,
        "passes": len(passes),
        "further_runs": len(more.latencies),
        "commands_per_pass": len(cmds),
        # of the reports of the last whole pass; it changes only if outputs do
        "reports_sha256": (traced or passes[-1]).digest.hexdigest(),
        "fail_share": {"value": len(failures) / attempted, "unit": "1"},
        "byte_identity_misses": sum(p.byte_misses for p in runs),
        "env": environment(),
        "speed": {"passes": wall / wall_measured},
        "measured": {"wall_s": wall_measured,
                     "cmd_p50_ms": statistics.median(measured) * 1e3},
        "cmd_p50_ms": {"value": statistics.median(times) * 1e3, "unit": "ms"},
    }
    cmd_tail = tail(latencies)
    if cmd_tail is not None:
        detail["cmd_tail_ms"] = cmd_tail
    if passes[0].records:
        detail["records_per_s"] = {"value": passes[0].records / wall,
                                   "unit": "1/s"}
    if trace:
        metrics = tracer.metrics()
        metrics["cli.report_bytes"] = traced.report_bytes
        metrics["trace.overhead_s"] = traced.wall - wall_measured
        units = tr.PER_LAYER
    else:
        detail["measured"]["setup_s"] = setup[1]
        detail["measured"]["numpy_import_s"] = setup[2]
        metrics = {
            "setup_s": setup[0],
            "wall_s": wall,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return {"result": result, "detail": detail, "failures": failures}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qselftest" / "cli.py").is_file():
        print(f"error: no qselftest sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for key, error in out["failures"][:20]:
        print(f"FAILED {key}: {error}")
    misses = out["detail"]["byte_identity_misses"]
    if misses:
        print(f"note: {misses} sampled reports differ in bytes from their pins; "
              "they pass their checks (see workloads.byte_identical)")
    print("detail " + json.dumps(out["detail"], sort_keys=True))
    for name, metric in out["detail"].items():
        if isinstance(metric, dict) and "unit" in metric:
            print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    for name, metric in out["result"]["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
