"""Benchmark of the impactseries command line.

Runs the CLI from this checkout's ``src/`` the way a user does: one
single-process child interpreter per command, in a closed loop with one
client, so no command starts before the previous one has exited.  Every
child runs with ``OPENBLAS_NUM_THREADS=1``; the package does no BLAS work.

    python3 bench/run.py --workload simulate-large --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seconds 10

``--trace 0`` repeats the workload's command sequence for ``--seconds`` and
reports the end-to-end metrics: ``setup_s`` (median spawn-to-exit time of a
fresh interpreter that imports ``impactseries.cli`` and builds its parser),
and per sequence the median ``wall_s`` (spawn to exit, summed over the
commands), ``cpu_s`` (user plus system time of the children, from
``os.wait4``) and ``peak_rss_mb`` (largest child max-RSS).  ``--trace 1``
instead runs ``traced.py``, which calls ``cli.main`` in process with spans
around every public function, and reports the per-layer metrics.
``--workload all`` runs every workload both ways.

Every invocation's exit code and output are checked; an invocation fails on
a wrong exit code or a failed check, and the failures are counted against the
invocations attempted.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The lines before it give
each metric with its unit and sample count, and a record of what ran.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import io
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
WORK = Path(".bench_work")  # relative to ROOT, where every child runs

CHILD_ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "OPENBLAS_NUM_THREADS": "1"}
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: A child still running after this many seconds is killed and counts as failed.
CHILD_TIMEOUT_S = 150
#: Sequences measured at least, however short ``--seconds`` is.
MIN_SEQUENCES = 3
#: Fresh interpreters timed for ``setup_s``, after one untimed warm-up.
SETUP_PROBES = 15

DEFAULT_SEED = 0
#: SHA-256 of simulate-large's CSV at ``--seed`` DEFAULT_SEED.  Speed must
#: never change a count, so this digest is never re-pinned for a speed-up.
SIMULATE_SHA256 = "4075afff637254da4425f1e9bdcd66a9f66722de80009b3b87e625a458d1c40b"

#: The frozen output schema of the CLI (README, "Output schema").
COLUMNS = (
    "command model ordering subensemble axis angle alpha beta gamma events seed "
    "accepted rejected acceptance_rate r_pp r_pm r_mp r_mm "
    "joint_pp joint_pm joint_mp joint_mm "
    "p1_plus_analytic p1_minus_analytic p2_plus_analytic p2_minus_analytic "
    "p1_plus_mc p1_minus_mc p2_plus_mc p2_minus_mc "
    "e_value e_std_error e_analytic_qm e_analytic_causal"
).split()

SIM_EVENTS = 100_000_000
SCAN_POINTS = 1001
SCAN_EVENTS = 1000
#: Largest per-row |z| a correct scan-fine output may show.  Given a row's
#: accepted count n, its side-1 "+" count is Binomial(n, p); summed over the
#: 2,002 rows, the exact binomial tails beyond 6 sigma come to below 1e-5
#: for any n from 300 up, so a correct program trips this bound less than
#: once in 10^4 seeds.
SCAN_Z_BOUND = 6.0
PREDICT_PHASES = (0.3, 0.2, 1.1)


class BenchError(Exception):
    """The benchmark itself cannot run here; no result is printed."""


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    exit_code: int
    check: Callable[[str, bytes | None], list[str]]
    out: Path | None = None


def command_seed(workload: str, seed: int, index: int) -> int:
    """The ``--seed`` of command ``index``: 64 bits derived from the workload seed."""
    digest = hashlib.sha256(f"{workload}/{seed}/{index}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


# ---------------------------------------------------------------- checks


def check_simulate(digest: str | None, stdout: str, data: bytes | None) -> list[str]:
    rows = list(csv.reader(io.StringIO(data.decode("utf-8"))))
    if len(rows) != 2 or rows[0] != COLUMNS:
        return ["simulate CSV is not one row under the frozen header"]
    row = dict(zip(COLUMNS, rows[1]))
    events, accepted, rejected = (int(row[k]) for k in ("events", "accepted", "rejected"))
    counts = [int(row[k]) for k in ("r_pp", "r_pm", "r_mp", "r_mm")]
    problems = []
    if events != SIM_EVENTS or accepted + rejected != events or sum(counts) != accepted:
        problems.append(f"inconsistent totals {events}/{accepted}/{rejected}/{counts}")
    rate_sigma = math.sqrt(0.375 * 0.625 / SIM_EVENTS)
    if abs(accepted / events - 0.375) > 5 * rate_sigma:
        problems.append(f"acceptance {accepted / events} is over 5 sigma from 3/8")
    e_value, e_error, e_qm = (
        float(row[k]) for k in ("e_value", "e_std_error", "e_analytic_qm")
    )
    if abs(e_qm - 2 / 3) > 1e-6:
        problems.append(f"e_analytic_qm {e_qm} is not 2/3 at alpha+beta=0")
    if not e_error > 0 or abs(abs(e_value) - e_qm) > 5 * e_error:
        problems.append(f"|E|={abs(e_value)} is over 5 std errors ({e_error}) from {e_qm}")
    if digest is not None and hashlib.sha256(data).hexdigest() != digest:
        problems.append("CSV digest differs from the one pinned for the default seed")
    return problems


def check_scan(stdout: str, data: bytes | None) -> list[str]:
    rows = json.loads(data)["rows"]
    if len(rows) != 2 * SCAN_POINTS:
        return [f"{len(rows)} rows, expected {2 * SCAN_POINTS}"]
    problems = []
    worst_z = 0.0
    for k, row in enumerate(rows):
        qm = k < SCAN_POINTS
        angle = (k % SCAN_POINTS) * 2 * math.pi / (SCAN_POINTS - 1)
        if list(row) != COLUMNS:
            problems.append(f"row {k}: keys differ from the frozen column order")
            break
        if row["model"] != ("qm" if qm else "rnl") or abs(row["angle"] - angle) > 1e-5:
            problems.append(f"row {k}: model {row['model']} angle {row['angle']}")
            break
        n = row["accepted"]
        plus = row["r_pp"] + row["r_pm"]
        if n < 1 or n + row["rejected"] != SCAN_EVENTS:
            problems.append(f"row {k}: accepted {n}, rejected {row['rejected']}")
            break
        if abs(row["e_value"] - (2 * plus / n - 1)) > 1e-5:
            problems.append(f"row {k}: e_value {row['e_value']} disagrees with the counters")
            break
        # Side-1 "+" law at beta = 0: 1/2 - cos(alpha)/3 for qm, 1/2 for rnl.
        p = 0.5 - math.cos(angle) / 3 if qm else 0.5
        worst_z = max(worst_z, abs(plus - n * p) / math.sqrt(n * p * (1 - p)))
    if worst_z >= SCAN_Z_BOUND:
        problems.append(f"largest |z| of E against its anchor is {worst_z:.2f}")
    return problems


def _close_to_6_digits(printed: float, exact: float) -> bool:
    if exact == 0:
        return printed == 0
    half_unit = 0.5 * 10 ** (math.floor(math.log10(abs(exact))) - 5)
    return abs(printed - exact) <= half_unit * (1 + 1e-9)


def check_predict(model: str, stdout: str, data: bytes | None) -> list[str]:
    alpha, beta, gamma = PREDICT_PHASES
    side2 = 0.5 + math.cos(beta - gamma) / 3
    expected = {
        "qm": (0.5 - math.cos(alpha + beta) / 3, side2),
        "causal": (None, side2),
        "rnl": (0.5, side2),
    }[model]
    problems = []
    for side, p_plus in zip(("side1", "side2"), expected):
        line = next((l for l in stdout.splitlines() if l.startswith(side + ":")), "")
        if p_plus is None:
            if "undefined" not in line:
                problems.append(f"{model} {side} should be undefined: {line!r}")
            continue
        match = re.match(rf"{side}: p\(\+\)=(\S+) p\(-\)=(\S+)", line)
        if not match or not (
            _close_to_6_digits(float(match[1]), p_plus)
            and _close_to_6_digits(float(match[2]), 1 - p_plus)
        ):
            problems.append(f"{model} {side} is not {p_plus:.6g}: {line!r}")
    return problems


def check_oracle(verdict: str, stdout: str, data: bytes | None) -> list[str]:
    last = stdout.rstrip().rpartition("\n")[2]
    return [] if last.startswith(f"oracle validation: {verdict}") else [f"oracle said {last!r}"]


# ------------------------------------------------------------- workloads


def simulate_large(seed: int, work: Path) -> list[Command]:
    out = work / "simulate.csv"
    argv = (
        "simulate", "--model", "qm", "--events", str(SIM_EVENTS),
        "--alpha", "0.5", "--beta", "-0.5", "--gamma", "1.0",
        "--seed", str(command_seed("simulate-large", seed, 0)), "--out", str(out),
    )
    digest = SIMULATE_SHA256 if seed == DEFAULT_SEED else None
    return [Command(argv, 0, functools.partial(check_simulate, digest), out)]


def scan_fine(seed: int, work: Path) -> list[Command]:
    out = work / "scan.json"
    argv = (
        "compare", "--grid", f"0:{2 * math.pi!r}:{SCAN_POINTS}",
        "--events", str(SCAN_EVENTS), "--seed", str(command_seed("scan-fine", seed, 0)),
        "--format", "json", "--out", str(out),
    )
    return [Command(argv, 0, check_scan, out)]


def analytic_short(seed: int, work: Path) -> list[Command]:
    alpha, beta, gamma = PREDICT_PHASES
    phases = ("--alpha", str(alpha), "--beta", str(beta), "--gamma", str(gamma))
    return [
        Command(("predict", "--model", "qm", *phases), 0, functools.partial(check_predict, "qm")),
        Command(("predict", "--model", "causal", "--ordering", "1", *phases), 0,
                functools.partial(check_predict, "causal")),
        Command(("predict", "--model", "rnl", *phases), 0, functools.partial(check_predict, "rnl")),
        Command(("validate-oracle",), 0, functools.partial(check_oracle, "PASS")),
        Command(("validate-oracle", "--geometry", "geometries/crossed-stage2.geom"), 3,
                functools.partial(check_oracle, "FAIL")),
    ]


# Why each workload: see BENCHMARK.json.  simulate-large spends its time in
# montecarlo.block_tallies over 1,526 blocks; scan-fine makes 2,002 one-block
# runs, so per-run overhead dominates; analytic-short is interpreter start,
# import and the oracle, with no sampling at all.
WORKLOADS = {
    "simulate-large": simulate_large,
    "scan-fine": scan_fine,
    "analytic-short": analytic_short,
}
#: Units of work per sequence, for the rates in the report.
RATES = {
    "simulate-large": ("events_per_s", SIM_EVENTS),
    "scan-fine": ("points_per_s", 2 * SCAN_POINTS),
}


# ---------------------------------------------------------- child processes


@dataclass(frozen=True)
class Child:
    exit_code: int
    wall_s: float
    cpu_s: float
    rss_mb: float


def spawn(argv: list[str], stdout: Path, stderr: Path, timeout: float = CHILD_TIMEOUT_S) -> Child:
    """Run ``python argv`` from ROOT to completion and return its resource use."""
    with open(ROOT / stdout, "wb") as out, open(ROOT / stderr, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *argv], cwd=ROOT, env=CHILD_ENV, stdout=out, stderr=err
        )
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024)


def probe_setup(work: Path) -> tuple[list[float], list[dict]]:
    """Spawn-to-exit times and stage reports of SETUP_PROBES fresh interpreters."""
    walls, reports = [], []
    for index in range(SETUP_PROBES + 1):
        child = spawn([str(BENCH / "probe.py")], work / "probe.out", work / "probe.err")
        if child.exit_code != 0:
            raise BenchError(
                "cannot import impactseries.cli: "
                + (ROOT / work / "probe.err").read_text(encoding="utf-8").strip()
            )
        report = json.loads((ROOT / work / "probe.out").read_text(encoding="utf-8"))
        if not Path(report["package_file"]).resolve().is_relative_to(ROOT / "src"):
            raise BenchError(f"imported {report['package_file']}, not this checkout's src/")
        if index:  # the first probe warms the file cache and writes bytecode
            walls.append(child.wall_s)
            reports.append(report)
    return walls, reports


def verify(command: Command, exit_code: int, stdout: Path, reference: dict) -> list[str]:
    """Problems with one invocation's exit code and output; empty if it passed."""
    if exit_code != command.exit_code:
        return [f"exit code {exit_code}, expected {command.exit_code}"]
    try:
        text = (ROOT / stdout).read_text(encoding="utf-8")
        data = (ROOT / command.out).read_bytes() if command.out else None
        if reference.setdefault(command.argv, (text, data)) != (text, data):
            return ["output differs from the first invocation of the same command"]
        return command.check(text, data)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable output: {exc!r}"]


# ------------------------------------------------------------------ runs

#: Units of the metrics printed in the report but not listed in BENCHMARK.json.
REPORT_UNITS = {
    "events_per_s": "1/s",
    "points_per_s": "1/s",
}


@dataclass
class Result:
    """One run: invocations attempted and failed, and metric -> (value, samples)."""

    attempted: int
    failed: int
    problems: list[str]
    metrics: dict[str, tuple[float, int]]
    samples: dict[str, list[float]] = field(default_factory=dict)

    def line(self, names: list[str], units: dict[str, str]) -> dict:
        """The result line: the metrics named, each with its value and unit."""
        missing = [name for name in names if name not in self.metrics]
        if missing:
            raise BenchError(f"metrics not measured: {missing}")
        return {
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": self.metrics[name][0], "unit": units[name]} for name in names
            },
        }


def median_of(values: list[float]) -> tuple[float, int]:
    return statistics.median(values), len(values)


def measure(workload: str, seed: int, seconds: int, work: Path, setup: tuple) -> Result:
    """End-to-end metrics: the command sequence in a closed loop, as subprocesses."""
    setup_walls, _ = setup
    commands = WORKLOADS[workload](seed, work)
    reference: dict = {}
    walls, cpus, rsss = [], [], []
    attempted = failed = 0
    problems = []
    deadline = time.perf_counter() + seconds
    while len(walls) < MIN_SEQUENCES or time.perf_counter() < deadline:
        children = []
        for index, command in enumerate(commands):
            stdout = work / f"{index}.out"
            if command.out:
                (ROOT / command.out).unlink(missing_ok=True)
            child = spawn(["-m", "impactseries.cli", *command.argv], stdout, work / f"{index}.err")
            children.append(child)
            attempted += 1
            found = verify(command, child.exit_code, stdout, reference)
            if found:
                failed += 1
                problems.extend(f"{command.argv[0]}: {p}" for p in found)
        walls.append(sum(c.wall_s for c in children))
        cpus.append(sum(c.cpu_s for c in children))
        rsss.append(max(c.rss_mb for c in children))
    metrics = {
        "setup_s": median_of(setup_walls),
        "wall_s": median_of(walls),
        "cpu_s": median_of(cpus),
        "peak_rss_mb": median_of(rsss),
    }
    if workload in RATES:
        name, work_done = RATES[workload]
        metrics[name] = median_of([work_done / wall for wall in walls])
    samples = {"setup_s": setup_walls, "wall_s": walls, "cpu_s": cpus}
    return Result(attempted, failed, problems, metrics, samples)


def measure_traced(workload: str, seed: int, seconds: int, work: Path, setup: tuple) -> Result:
    """Per-layer metrics from ``traced.py``, plus the import stages of set-up."""
    _, probes = setup
    commands = WORKLOADS[workload](seed, work)
    stdouts = [work / f"{index}.out" for index in range(len(commands))]
    spec = {
        "argv": [list(c.argv) for c in commands],
        "stdout": [str(p) for p in stdouts],
        "spans": str(work / "spans.jsonl"),
        "seconds": seconds,
    }
    (ROOT / work / "trace.json").write_text(json.dumps(spec), encoding="utf-8")
    child = spawn([str(BENCH / "traced.py"), str(work / "trace.json")],
                  work / "trace.out", work / "trace.err", seconds + CHILD_TIMEOUT_S)
    if child.exit_code != 0:
        raise BenchError("traced run failed: "
                         + (ROOT / work / "trace.err").read_text(encoding="utf-8").strip())
    report = json.loads((ROOT / work / "trace.out").read_text(encoding="utf-8").splitlines()[-1])

    failed = report["mismatched"]
    problems = [f"{failed} in-process invocations differ from the first pass"] if failed else []
    for command, exit_code, stdout in zip(commands, report["exit_codes"], stdouts):
        found = verify(command, exit_code, stdout, {})
        if found:
            failed += 1
            problems.extend(f"{command.argv[0]}: {p}" for p in found)

    metrics = {
        f"setup.{stage}": median_of([p[stage] for p in probes])
        for stage in ("import_numpy_s", "import_package_s", "build_parser_s")
    }
    for name, value in report["layers"].items():
        metrics[name] = (value, report["passes"])
    return Result(report["attempted"], failed, problems, metrics)


def git_sha() -> str | None:
    """HEAD of the checkout, or None when it is not a git repository."""
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except OSError:
        return None
    return done.stdout.strip() or None


def run_record(workload: str, seed: int, work: Path, probe: dict) -> dict:
    """What ran, on what: metadata that goes beside the metrics, not in them."""
    return {
        "workload": workload,
        "seed": seed,
        "commands": [" ".join(c.argv) for c in WORKLOADS[workload](seed, work)],
        "git_sha": git_sha(),
        "python": probe["python"],
        "numpy": probe["numpy"],
        "nproc": os.cpu_count(),
        "child_threads": {name: CHILD_ENV.get(name) for name in THREAD_VARIABLES},
        "src_lines": sum(
            len(path.read_bytes().splitlines()) for path in (ROOT / "src").rglob("*.py")
        ),
        "public_names": probe["public_names"],
    }


def print_report(title: str, result: Result, units: dict[str, str]) -> None:
    error_rate = result.failed / result.attempted
    print(f"{title}: {result.failed} of {result.attempted} invocations failed")
    print(f"  {'error_rate':<44} {error_rate:>14.6g} {'ratio':<6} over {result.attempted} invocations")
    order = list(units)  # BENCHMARK.json order: the RNG floor sits next to block_tallies
    for name, (value, samples) in sorted(result.metrics.items(), key=lambda m: order.index(m[0])):
        print(f"  {name:<44} {value:>14.6g} {units[name]:<6} median of {samples}")
    for name, values in result.samples.items():
        print(f"  {name} samples: " + " ".join(f"{v:.4f}" for v in values))
    for problem in result.problems[:20]:
        print(f"  FAILED {problem}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        runs = [(workload, trace) for workload in WORKLOADS for trace in (0, 1)]
    else:
        runs = [(args.workload, args.trace)]

    lines = {}
    try:
        if not (ROOT / "src" / "impactseries" / "cli.py").is_file():
            raise BenchError(f"no impactseries sources under {ROOT / 'src'}")
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
        units.update(REPORT_UNITS)
        for workload, trace in runs:
            work = WORK / workload
            shutil.rmtree(ROOT / work, ignore_errors=True)
            (ROOT / work).mkdir(parents=True)
            setup = probe_setup(work)
            print("record: " + json.dumps(run_record(workload, args.seed, work, setup[1][0])))
            result = (measure_traced if trace else measure)(
                workload, args.seed, args.seconds, work, setup
            )
            print_report(f"{workload} seed={args.seed} trace={trace}", result, units)
            names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
            lines[f"{workload}.trace{trace}"] = result.line(names, units)
    except BenchError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 1

    if len(lines) == 1:
        (line,) = lines.values()
    else:
        line = {
            "correct": all(l["correct"] for l in lines.values()),
            "attempted": sum(l["attempted"] for l in lines.values()),
            "failed": sum(l["failed"] for l in lines.values()),
            "metrics": {
                f"{key}.{name}": metric
                for key, l in lines.items()
                for name, metric in l["metrics"].items()
            },
        }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
