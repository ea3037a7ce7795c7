"""Traced in-process run of one benchmark workload.

``run.py`` starts this script in a fresh interpreter with the path of a JSON
spec: the CLI argument lists of the workload's command sequence, the files
that receive each command's captured standard output, where to write the
spans, and how many seconds to run.  The script calls ``cli.main(argv)`` for
each command, alternating an untraced pass and a traced pass over the whole
sequence until the time is up (at least two of each).  Every pass must
reproduce the first pass's exit codes, standard output and ``--out`` bytes.

The traced pass wraps every public function of the package's modules and
records one span per call: name, start, end and the index of the calling
span, kept in memory and written out when the run ends.  A span's self time
is its duration minus the durations of its direct children.  Every wrapped
call happens inside ``cli.main``, so the self times of one pass add up to the
time spent in ``cli.main`` exactly (integer nanoseconds).

The last line of standard output is a JSON object with the per-layer metrics
(median over the traced passes) and the run's pass/mismatch counts.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import statistics
import sys
import time
import types
from collections import Counter
from pathlib import Path

#: Events per block of the determinism contract; the RNG floor uses one block.
FLOOR_BLOCK = 65536
FLOOR_BLOCKS = 64
FLOOR_SEED = 12345


def _count_blocks(counts: Counter, tallies) -> None:
    """Counts taken where the work happens: blocks, events and accepted events."""
    counts["blocks"] += len(tallies)
    counts["events"] += sum(tally.accepted + tally.rejected for tally in tallies)
    counts["accepted"] += sum(tally.accepted for tally in tallies)


class Tracer:
    """Spans around every public function defined in ``modules``.

    ``from .theories import qm_joint`` copies the function into the importing
    module, and a module-level dict such as a dispatch table holds its own
    reference, so each of those bindings is swapped for the wrapper, not only
    the defining module's.
    """

    def __init__(self, modules) -> None:
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        wrappers = {}
        for module in modules:
            short = module.__name__.rpartition(".")[2]
            for name, value in vars(module).items():
                if (
                    isinstance(value, types.FunctionType)
                    and value.__module__ == module.__name__
                    and not name.startswith("_")
                ):
                    wrappers[value] = self._wrap(f"{short}.{name}", value)
        self._bindings = []
        for module in modules:
            namespaces = [vars(module)] + [
                value
                for name, value in vars(module).items()
                if isinstance(value, dict) and not name.startswith("__")
            ]
            for namespace in namespaces:
                for key, value in namespace.items():
                    if isinstance(value, types.FunctionType) and value in wrappers:
                        self._bindings.append((namespace, key, value, wrappers[value]))

    def _wrap(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        observe = _count_blocks if name == "montecarlo.block_tallies" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index] = (name, start, time.perf_counter_ns(), parent)
                stack.pop()
            if observe is not None:
                observe(counts, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Trace calls made inside the block; spans and counts start empty."""
        self.spans.clear()
        self.counts.clear()
        for namespace, key, _, wrapper in self._bindings:
            namespace[key] = wrapper
        try:
            yield
        finally:
            for namespace, key, original, _ in self._bindings:
                namespace[key] = original


def layer_metrics(spans: list, counts: Counter) -> dict[str, float]:
    """Per-layer metrics of one traced pass over the command sequence."""
    child_ns = [0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    calls: Counter = Counter()
    total_ns: Counter = Counter()
    self_ns: Counter = Counter()
    module_self_ns: Counter = Counter()
    for index, (name, start, end, _) in enumerate(spans):
        own = end - start - child_ns[index]
        calls[name] += 1
        total_ns[name] += end - start
        self_ns[name] += own
        module_self_ns[name.partition(".")[0]] += own
    if sum(module_self_ns.values()) != total_ns["cli.main"]:
        raise RuntimeError("self times do not add up to cli.main: a span lies outside it")

    def per_call(name: str, unit_ns: float) -> float:
        return total_ns[name] / calls[name] / unit_ns if calls[name] else 0.0

    def calls_with_prefix(prefix: str) -> int:
        return sum(count for name, count in calls.items() if name.startswith(prefix))

    events = counts["events"]
    metrics = {"cli.main_s": total_ns["cli.main"] * 1e-9}
    for module in ("cli", "montecarlo", "theories", "amplitudes", "pathspace", "bsnetwork"):
        metrics[f"{module}.self_s"] = module_self_ns[module] * 1e-9
    metrics.update(
        {
            "montecarlo.block_tallies.self_s": self_ns["montecarlo.block_tallies"] * 1e-9,
            "montecarlo.block_tallies.ns_per_event": (
                self_ns["montecarlo.block_tallies"] / events if events else 0.0
            ),
            "montecarlo.blocks": counts["blocks"],
            "montecarlo.accepted_fraction": counts["accepted"] / events if events else 0.0,
            "montecarlo.merge_tallies_s": total_ns["montecarlo.merge_tallies"] * 1e-9,
            "montecarlo.scan_phases.self_s": self_ns["montecarlo.scan_phases"] * 1e-9,
            "montecarlo.outcome_distribution.calls": calls["montecarlo.outcome_distribution"],
            "theories.qm_joint.calls": calls["theories.qm_joint"],
            "theories.qm_joint.us_per_call": per_call("theories.qm_joint", 1e3),
            "theories.predict.calls": calls["theories.predict"],
            "theories.predict.us_per_call": per_call("theories.predict", 1e3),
            "amplitudes.amp_joint.calls": calls_with_prefix("amplitudes.amp_joint"),
            "amplitudes.amp_single.calls": calls["amplitudes.amp_single"],
            "pathspace.classify.calls": calls["pathspace.classify"],
            "pathspace.members.calls": calls["pathspace.members"],
            "bsnetwork.derive_tables.calls": calls["bsnetwork.derive_tables"],
            "bsnetwork.derive_tables.ms_per_call": per_call("bsnetwork.derive_tables", 1e6),
            "bsnetwork.validate_against_reference.self_s": (
                self_ns["bsnetwork.validate_against_reference"] * 1e-9
            ),
        }
    )
    return metrics


def rng_floor(np) -> dict[str, float]:
    """Cost of the draws the determinism contract prescribes, alone.

    Block ``j`` seeds ``PCG64(SeedSequence(seed, spawn_key=(j,)))`` and takes
    two uniform doubles per event; one ``random(2 * size)`` call yields the
    same stream as the class draw followed by the outcome draw.
    """
    seed_ns, draw_ns = [], []
    for j in range(FLOOR_BLOCKS):
        start = time.perf_counter_ns()
        rng = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(FLOOR_SEED, spawn_key=(j,)))
        )
        seeded = time.perf_counter_ns()
        rng.random(2 * FLOOR_BLOCK)
        drawn = time.perf_counter_ns()
        seed_ns.append(seeded - start)
        draw_ns.append(drawn - seeded)
    return {
        "montecarlo.floor.draw_ns_per_event": statistics.median(draw_ns) / FLOOR_BLOCK,
        "montecarlo.floor.seed_us_per_block": statistics.median(seed_ns) / 1e3,
    }


def rows_emitted(argvs: list[list[str]], results: list[tuple]) -> int:
    """Data rows in the ``--out`` files of one pass (CSV has one header line)."""
    rows = 0
    for argv, (_, _, _, out) in zip(argvs, results):
        if out is None:
            continue
        if "--format" in argv and argv[argv.index("--format") + 1] == "json":
            rows += len(json.loads(out)["rows"])
        else:
            rows += out.count(b"\n") - 1
    return rows


def run_sequence(cli, argvs: list[list[str]]) -> tuple[int, list[tuple]]:
    """Run the commands in order; returns the summed ``cli.main`` wall time in
    nanoseconds and, per command, (exit code, stdout, stderr, --out bytes)."""
    elapsed = 0
    results = []
    for argv in argvs:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            start = time.perf_counter_ns()
            code = cli.main(list(argv))
            elapsed += time.perf_counter_ns() - start
        out = Path(argv[argv.index("--out") + 1]).read_bytes() if "--out" in argv else None
        results.append((code, stdout.getvalue(), stderr.getvalue(), out))
    return elapsed, results


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    argvs = spec["argv"]

    import numpy as np

    from impactseries import amplitudes, bsnetwork, cli, montecarlo, pathspace, theories

    tracer = Tracer((pathspace, amplitudes, theories, montecarlo, bsnetwork, cli))
    reference = None
    attempted = mismatched = 0
    untraced_ns, traced_ns, samples = [], [], []
    deadline = time.perf_counter() + spec["seconds"]
    while len(traced_ns) < 2 or time.perf_counter() < deadline:
        for tracing in (False, True):
            with tracer.installed() if tracing else contextlib.nullcontext():
                elapsed, results = run_sequence(cli, argvs)
            if reference is None:
                reference = results
            attempted += len(results)
            mismatched += sum(got != want for got, want in zip(results, reference))
            if tracing:
                traced_ns.append(elapsed)
                samples.append(layer_metrics(tracer.spans, tracer.counts))
                samples[-1]["cli.rows_emitted"] = rows_emitted(argvs, results)
            else:
                untraced_ns.append(elapsed)

    for path, (_, stdout, _, _) in zip(spec["stdout"], results):
        Path(path).write_text(stdout, encoding="utf-8")
    with open(spec["spans"], "w", encoding="utf-8") as handle:
        for span in tracer.spans:
            handle.write(json.dumps(span) + "\n")

    layers = {name: statistics.median(s[name] for s in samples) for name in samples[0]}
    layers.update(rng_floor(np))
    layers["trace.overhead_ratio"] = statistics.median(traced_ns) / statistics.median(untraced_ns)
    report = {
        "attempted": attempted,
        "mismatched": mismatched,
        "exit_codes": [code for code, _, _, _ in results],
        "passes": len(traced_ns),
        "layers": layers,
    }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
