"""Monte Carlo engine: determinism, partition independence, statistics."""

import concurrent.futures
import dataclasses
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import impactseries
from impactseries import montecarlo
from impactseries.amplitudes import PhaseSettings
from impactseries.cli import _run_columns
from impactseries.montecarlo import (
    BLOCK_SIZE,
    SUBENSEMBLE_ORDER,
    SUBENSEMBLE_WEIGHTS,
    CoincidenceTally,
    RunConfig,
    block_tallies,
    derive_point_seed,
    estimate_E,
    run,
    scan_phases,
    _BLOCKS_PER_WORKER,
    _CLASS_EDGES,
    _accepted_counts,
    _sampled_law,
    _worker_count,
)
from impactseries.pathspace import OUTCOMES, Outcome, Subensemble, TimeOrdering
from impactseries.theories import Law, TheoryKind, TheoryModel, marginals, predict

from closed_forms import causal_singles_side2_closed_form

QM = TheoryModel(TheoryKind.QM)
RNL = TheoryModel(TheoryKind.RNL)
CAUSAL_1 = TheoryModel(TheoryKind.CAUSAL, TimeOrdering.PHOTON2_FIRST)
CAUSAL_2 = TheoryModel(TheoryKind.CAUSAL, TimeOrdering.PHOTON1_FIRST)

ZERO = PhaseSettings()


def tally(pp, pm, mp, mm, rejected=0) -> CoincidenceTally:
    return CoincidenceTally(r=(pp, pm, mp, mm), rejected=rejected)


def assert_same_law(got: Law, want: Law) -> None:
    """Every field is None in both laws or equal bit for bit, shape included."""
    for name, a, b in zip(Law._fields, got, want):
        assert (a is None) == (b is None), name
        assert a is None or np.array_equal(a, b), name


def law_of(config: RunConfig) -> Law:
    """The law ``config`` samples, as the grid of one that ``run`` computes."""
    return predict(config.model, [config.phases], config.target_sub)


def tallies_of(config: RunConfig) -> list[CoincidenceTally]:
    """``block_tallies`` of the one run ``config``."""
    return block_tallies([law_of(config)], [config.seed], config.events, config.target_sub)


def summed(tallies: list[CoincidenceTally]) -> tuple[int, ...]:
    """The counters of a run, the sums of its blocks' counters."""
    return tuple(map(sum, zip(*(tally.r for tally in tallies))))


def searchsorted_block_tallies(config: RunConfig) -> list[CoincidenceTally]:
    """Reference sampler: two draws per block, inverse CDF by searchsorted, bincount."""
    outcome_cum = np.cumsum(_sampled_law(law_of(config))[0])
    outcome_cum[-1] = 1.0
    class_cum = np.cumsum(SUBENSEMBLE_WEIGHTS)
    target_index = SUBENSEMBLE_ORDER.index(config.target_sub)
    full, remainder = divmod(config.events, BLOCK_SIZE)
    sizes = [BLOCK_SIZE] * full + ([remainder] if remainder else [])
    tallies = []
    for j, size in enumerate(sizes):
        rng = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(config.seed, spawn_key=(j,)))
        )
        u_class = rng.random(size)
        u_outcome = rng.random(size)
        class_index = np.searchsorted(class_cum, u_class, side="right")
        outcome_index = np.searchsorted(
            outcome_cum, u_outcome[class_index == target_index], side="right"
        )
        counts = tuple(np.bincount(outcome_index, minlength=len(OUTCOMES)).tolist())
        tallies.append(CoincidenceTally(r=counts, rejected=size - len(outcome_index)))
    return tallies


# (+,-) has probability ~3e-33 in the difference-L class here, below the
# rounding of its cumulative edge, so two outcome edges tie
TIED = PhaseSettings(0.0, math.pi / 3, 2 * math.pi / 3)


class TestDeterminism:
    def test_identical_configs_yield_identical_tallies(self):
        config = RunConfig(model=QM, phases=ZERO, events=300_000, seed=42)
        assert run(config) == run(config)

    def test_frozen_reference_tally(self):
        # pinned output of the documented sampling contract (PCG64 blocks,
        # two uniforms per event, inverse CDF in canonical category order)
        config = RunConfig(model=QM, phases=ZERO, events=1000, seed=1)
        result = run(config)
        assert result.r == (32, 31, 295, 28)
        assert result.accepted == 386
        assert result.rejected == 614

    def test_frozen_multi_block_tally(self):
        # pinned from the two-draw searchsorted sampler: three full blocks
        # and a partial one
        config = RunConfig(model=QM, phases=ZERO, events=3 * BLOCK_SIZE + 17, seed=5)
        assert run(config) == tally(6316, 6225, 55249, 6147, rejected=122688)

    @pytest.mark.parametrize(
        "model, phases, target",
        [
            (QM, ZERO, Subensemble.LONG),
            (QM, PhaseSettings(0.9, -0.2, 1.4), Subensemble.SHORT),
            (QM, TIED, Subensemble.LONG),
            (RNL, PhaseSettings(0.3, 1.0, -0.5), Subensemble.LONG),
            (CAUSAL_1, PhaseSettings(-1.2, 0.4, 2.5), Subensemble.LONG),
        ],
    )
    @pytest.mark.parametrize("events", [1, 17, BLOCK_SIZE, 3 * BLOCK_SIZE + 17])
    def test_block_tallies_match_the_searchsorted_reference(
        self, model, phases, target, events
    ):
        config = RunConfig(
            model=model, phases=phases, events=events, seed=2024, target_sub=target
        )
        assert tallies_of(config) == searchsorted_block_tallies(config)

    @pytest.mark.parametrize("events", [3 * BLOCK_SIZE + 17, BLOCK_SIZE + 1])
    def test_short_block_after_full_ones_reads_no_stale_bits(self, events):
        # one in-process call reuses its draw, mask and scratch buffers
        # between the full blocks and the short last one
        config = RunConfig(model=QM, phases=ZERO, events=events, seed=2024)
        assert _worker_count(events) == 1
        assert tallies_of(config) == searchsorted_block_tallies(config)

    def test_tied_outcome_edge_is_never_drawn(self):
        cum = np.cumsum(_sampled_law(predict(QM, [TIED]))[0])
        assert cum[0] == cum[1]
        config = RunConfig(model=QM, phases=TIED, events=3 * BLOCK_SIZE + 17, seed=5)
        result = run(config)
        assert result.r[1] == 0 and min(result.r[0], result.r[2], result.r[3]) > 0

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**64 - 1),
        events=st.integers(min_value=1, max_value=3000),
    )
    def test_determinism_for_arbitrary_seeds(self, seed, events):
        config = RunConfig(model=RNL, phases=PhaseSettings(0.3, 1.0, -0.5),
                           events=events, seed=seed)
        assert run(config) == run(config)

    def test_merged_blocks_are_partition_order_independent(self):
        config = RunConfig(model=QM, phases=ZERO, events=3 * BLOCK_SIZE + 17, seed=5)
        blocks = tallies_of(config)
        assert [t.events for t in blocks] == [BLOCK_SIZE, BLOCK_SIZE, BLOCK_SIZE, 17]
        shuffled = list(blocks)
        random.Random(0).shuffle(shuffled)
        # every grouping of the shuffled blocks into consecutive groups
        for i in range(len(shuffled) + 1):
            for j in range(i, len(shuffled) + 1):
                groups = [shuffled[:i], shuffled[i:j], shuffled[j:]]
                partial = [summed(group) for group in groups if group]
                assert tuple(map(sum, zip(*partial))) == run(config).r
        assert sum(t.rejected for t in shuffled) == run(config).rejected


class TestWorkers:
    """The fan-out over worker processes returns the serial run's bits."""

    @pytest.fixture
    def cpus(self, monkeypatch):
        """Let every block fan out, over as many workers as the CPUs it is given."""
        monkeypatch.setattr(montecarlo, "_BLOCKS_PER_WORKER", 1)

        def set_cpus(n):
            monkeypatch.setattr(
                os, "sched_getaffinity", lambda pid: set(range(n)), raising=False
            )

        return set_cpus

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("events", [BLOCK_SIZE, 3 * BLOCK_SIZE + 17])
    def test_block_tallies_do_not_depend_on_the_worker_count(self, cpus, workers, events):
        cpus(workers)
        config = RunConfig(model=QM, phases=ZERO, events=events, seed=5)
        n_blocks = -(-events // BLOCK_SIZE)
        assert _worker_count(events) == min(workers, n_blocks)
        assert tallies_of(config) == searchsorted_block_tallies(config)

    def test_pooled_run_gives_the_frozen_tally(self, cpus):
        cpus(2)
        config = RunConfig(model=QM, phases=ZERO, events=3 * BLOCK_SIZE + 17, seed=5)
        assert run(config) == tally(6316, 6225, 55249, 6147, rejected=122688)

    def test_worker_error_reaches_the_parent(self, cpus, monkeypatch):
        cpus(2)
        parent = os.getpid()

        def counts_outside_the_parent(*args):
            if os.getpid() != parent:
                raise ZeroDivisionError("raised in a worker")
            return _accepted_counts(*args)

        # forked workers inherit the patched module
        monkeypatch.setattr(montecarlo, "_accepted_counts", counts_outside_the_parent)
        config = RunConfig(model=QM, phases=ZERO, events=2 * BLOCK_SIZE, seed=5)
        with pytest.raises(ZeroDivisionError, match="raised in a worker"):
            tallies_of(config)

    def test_worker_count(self, monkeypatch):
        # the rule counts full blocks of events, so a partial block adds no worker
        per = _BLOCKS_PER_WORKER * BLOCK_SIZE
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        assert _worker_count(1) == 1
        assert _worker_count(2 * per - 1) == 1
        assert _worker_count(2 * per) == 2
        assert _worker_count(3 * per) == 3
        assert _worker_count(100 * per) == 3
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert _worker_count(100 * per) == 1
        monkeypatch.delattr(os, "sched_getaffinity")
        assert _worker_count(100 * per) == 1

    def test_a_scan_starts_one_pool(self, cpus, monkeypatch):
        # two blocks per point and a worker per block of events: each point
        # would fan out alone; the two models' scans are one sampler call,
        # split over one pool into pieces of whole streams
        cpus(2)
        pools = []

        class CountedPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(kwargs["max_workers"])
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountedPool)
        scans = scan_phases([QM, RNL], "alpha", [0.0, 0.4, 2.0], ZERO, BLOCK_SIZE + 17, seed=3)
        assert pools == [2]
        for _, configs, counts in scans:
            for config, r in zip(configs, counts.tolist()):
                assert tuple(r) == run(config).r
                assert tuple(r) == summed(searchsorted_block_tallies(config))

    @staticmethod
    def record_pieces(monkeypatch) -> list:
        """Record the stream ranges of every pool's pieces from here on."""
        pieces = []

        class RecordedPool(concurrent.futures.ProcessPoolExecutor):
            def map(self, fn, *iterables, **kwargs):
                pieces.append(list(iterables[0]))
                return super().map(fn, *iterables, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordedPool)
        return pieces

    def test_a_pool_piece_can_end_inside_a_run(self, cpus, monkeypatch):
        # one config's 3 full blocks are 3 streams of one seed; 2 workers cut them
        cpus(2)
        pieces = self.record_pieces(monkeypatch)
        config = RunConfig(model=RNL, phases=ZERO, events=3 * BLOCK_SIZE, seed=8)
        assert tallies_of(config) == searchsorted_block_tallies(config)
        assert pieces == [[range(0, 1), range(1, 3)]]

    def test_a_pool_piece_can_cut_a_chunk_of_short_streams(self, cpus, monkeypatch):
        # 8 one-block points of 20,000 events: a serial chunk holds 3 streams,
        # and 2 workers take 4 each, so a piece ends inside the second chunk
        assert BLOCK_SIZE // 20_000 == 3
        grid = [0.3 * k for k in range(8)]
        cpus(1)
        serial = scan_phases([QM, RNL], "alpha", grid, ZERO, 20_000, seed=4)
        cpus(2)
        pieces = self.record_pieces(monkeypatch)
        scans = scan_phases([QM, RNL], "alpha", grid, ZERO, 20_000, seed=4)
        assert pieces == [[range(0, 4), range(4, 8)]]
        assert len(scans) == len(serial) == 2
        for (_, configs, counts), (_, serial_configs, serial_counts) in zip(scans, serial):
            assert configs == serial_configs
            assert np.array_equal(counts, serial_counts)
            for config, r in zip(configs, counts.tolist()):
                assert tuple(r) == run(config).r

    def test_law_rows_must_match_the_seeds(self):
        config = RunConfig(model=QM, phases=ZERO, events=10, seed=0)
        with pytest.raises(ValueError, match=r"law rows \(1\) must match seeds \(2\)"):
            block_tallies([law_of(config)], [0, 1], 10)
        with pytest.raises(ValueError, match=r"law rows \(2\) must match seeds \(1\)"):
            block_tallies([predict(RNL, [ZERO, ZERO])], [0], 10)
        # every law is checked, not only the first
        with pytest.raises(ValueError, match=r"law rows \(1\) must match seeds \(2\)"):
            block_tallies([predict(RNL, [ZERO, ZERO]), law_of(config)], [0, 1], 10)
        # a bare Law is a tuple of fields, not a sequence of laws
        with pytest.raises(TypeError, match=r"pass one law as \[law\]"):
            block_tallies(law_of(config), [0], 10)
        with pytest.raises(TypeError, match=r"pass one law as \[law\]"):
            block_tallies(predict(QM, []), [], 10)
        # every law reads every seed: two laws of one row share one seed's run
        other = dataclasses.replace(config, model=RNL)
        assert block_tallies([law_of(config), law_of(other)], [0], 10) == (
            searchsorted_block_tallies(config) + searchsorted_block_tallies(other)
        )

    @pytest.mark.parametrize("model", [QM, RNL, CAUSAL_1, CAUSAL_2])
    def test_no_law_or_no_seed_samples_nothing(self, model, monkeypatch):
        # returned before any buffer is allocated or a worker count decided
        monkeypatch.setattr(montecarlo, "_worker_count", lambda *args: pytest.fail("fan-out"))
        monkeypatch.setattr(montecarlo, "_sample_streams", lambda *args: pytest.fail("sampled"))
        assert block_tallies([predict(model, [])], [], 10) == []
        assert block_tallies([], [0, 1], 10) == []
        assert block_tallies([], [], 10) == []

    def test_in_process_run_imports_no_pool(self):
        # the pool modules cost memory at import; work below the pool
        # threshold (a one-block run, a two-model scan of 1,001 one-block
        # points, as scan-fine samples, a predict) must not load them
        script = (
            "import sys, impactseries.cli\n"
            "from impactseries.amplitudes import PhaseSettings\n"
            "from impactseries.montecarlo import RunConfig, run, scan_phases\n"
            "from impactseries.theories import TheoryKind, TheoryModel\n"
            "run(RunConfig(model=TheoryModel(TheoryKind.QM), phases=PhaseSettings(),"
            " events=1000, seed=1))\n"
            "scan_phases([TheoryModel(TheoryKind.QM), TheoryModel(TheoryKind.RNL)], 'alpha',"
            " [k / 100 for k in range(1001)], PhaseSettings(), 1000, seed=1)\n"
            "print(sorted(m for m in sys.modules"
            " if m.startswith(('multiprocessing', 'concurrent.futures'))))\n"
        )
        src = str(Path(impactseries.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        result = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True,
            timeout=60, check=True,
        )
        assert result.stdout == "[]\n"


class TestSharedStreams:
    """Blocks with the same seed, index and size read one stream, drawn once."""

    @settings(max_examples=25, deadline=None)
    @given(
        events=st.sampled_from(
            [1, BLOCK_SIZE - 1, BLOCK_SIZE, BLOCK_SIZE + 1, 2 * BLOCK_SIZE + 17]
        ),
        models=st.lists(st.sampled_from([QM, RNL, CAUSAL_1, CAUSAL_2]), min_size=1, max_size=3),
        points=st.lists(
            st.tuples(
                st.sampled_from([ZERO, TIED, PhaseSettings(0.9, -0.2, 1.4)]),
                st.sampled_from([0, 1, 2**64 - 1]),  # few seeds, so seeds repeat
            ),
            min_size=1,
            max_size=4,
        ),
        short=st.booleans(),
    )
    # seed 0 appears twice, and one chunk holds all three streams of 1,000 events
    @example(events=1000, models=[QM, RNL], points=[(ZERO, 0), (TIED, 1), (ZERO, 0)], short=False)
    def test_block_tallies_equal_the_concatenated_reference(self, events, models, points, short):
        # the causal rules and RNL are defined on the difference-L class only
        qm_only = all(model is QM for model in models)
        target = Subensemble.SHORT if short and qm_only else Subensemble.LONG
        expected = [
            t
            for model in models
            for phases, seed in points
            for t in searchsorted_block_tallies(RunConfig(model, phases, events, seed, target))
        ]
        laws = [predict(model, [phases for phases, _ in points], target) for model in models]
        assert block_tallies(laws, [seed for _, seed in points], events, target) == expected

    @staticmethod
    def count_streams(monkeypatch) -> list:
        """Record the seed of every PCG64 stream built from here on."""
        built = []
        pcg64 = np.random.PCG64

        def counted(seed_sequence):
            built.append((seed_sequence.entropy, seed_sequence.spawn_key))
            return pcg64(seed_sequence)

        monkeypatch.setattr(np.random, "PCG64", counted)
        return built

    def test_a_two_model_scan_draws_each_stream_once(self, monkeypatch):
        # 3 points of two blocks each: 6 streams, which the two models share
        # (12 when each model drew its own)
        built = self.count_streams(monkeypatch)
        grid = [0.0, 0.4, 2.0]
        scans = scan_phases([QM, RNL], "alpha", grid, ZERO, BLOCK_SIZE + 17, seed=3)
        assert len(built) == 6 and len(set(built)) == 6
        for law, configs, counts in scans:
            assert len(configs) == len(grid)
            assert counts.dtype == np.int64 and counts.shape == (len(grid), len(OUTCOMES))
            for config, r in zip(configs, counts.tolist()):
                assert tuple(r) == run(config).r

    @pytest.mark.parametrize(
        "events, seeds, message",
        [
            (0, [0], "at least 1"),
            (2.5, [0], "must be an int"),
            (True, [0], "must be an int"),
            (1000, [0, -1], "unsigned 64-bit"),
            (1000, [0, 2**64], "unsigned 64-bit"),
            (1000, [0, True], "must be an int"),
        ],
    )
    def test_bad_events_and_seeds_are_rejected_before_any_draw(
        self, events, seeds, message, monkeypatch
    ):
        # checked as a RunConfig checks them, before a stream is built
        built = self.count_streams(monkeypatch)
        with pytest.raises(ValueError, match=message):
            block_tallies([predict(QM, [ZERO] * len(seeds))], seeds, events)
        assert built == []


def accepted_counts(u_class, u_outcome, lo, hi, cumulative):
    """``_accepted_counts`` of one row of draws, with fresh mask and scratch buffers."""
    edges = np.array([[lo, hi, *cumulative[:-1]]])
    buffers = [np.empty((1, len(u_class)), dtype=bool) for _ in range(2)]
    [counts] = _accepted_counts(u_class[None], u_outcome[None], edges, *buffers)
    return counts


class TestThresholdCounts:
    @settings(max_examples=200, deadline=None)
    @given(
        weights=st.lists(
            st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1.0)),
            min_size=4,
            max_size=4,
        ).filter(lambda w: sum(w) > 0),
        uniforms=st.lists(
            st.floats(min_value=0.0, max_value=1.0, exclude_max=True), max_size=200
        ),
    )
    def test_equals_searchsorted_then_bincount(self, weights, uniforms):
        cum = np.cumsum(np.array(weights) / sum(weights))
        cum[-1] = 1.0
        # uniforms landing exactly on an edge must go to the category above it
        u = np.array(uniforms + [c for c in cum.tolist() if c < 1.0], dtype=float)
        expected = np.bincount(np.searchsorted(cum, u, side="right"), minlength=4)
        assert accepted_counts(np.zeros(len(u)), u, 0.0, 1.0, cum) == tuple(expected.tolist())

    @settings(max_examples=200, deadline=None)
    @given(
        weights=st.lists(
            st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1.0)),
            min_size=4,
            max_size=4,
        ).filter(lambda w: sum(w) > 0),
        target=st.integers(min_value=0, max_value=len(SUBENSEMBLE_ORDER) - 1),
        draws=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
                st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
            ),
            max_size=200,
        ),
    )
    def test_masked_counts_equal_the_gather_reference(self, weights, target, draws):
        # a leading zero weight gives cum[0] == 0.0, an inner one a tied edge
        cum = np.cumsum(np.array(weights) / sum(weights))
        cum[-1] = 1.0
        lo, hi = _CLASS_EDGES[target : target + 2]
        class_values = [v for v in (lo, hi, np.nextafter(lo, 0.0), np.nextafter(hi, 0.0))
                        if 0.0 <= v < 1.0]
        outcome_values = [c for c in cum.tolist() if c < 1.0] + [0.0]
        # every class value meets every outcome value, edges included
        pairs = draws + [(c, o) for c in class_values for o in outcome_values]
        u_class = np.array([c for c, _ in pairs], dtype=float)
        u_out = np.array([o for _, o in pairs], dtype=float)
        expected = np.bincount(
            np.searchsorted(cum, u_out[(u_class >= lo) & (u_class < hi)], side="right"),
            minlength=4,
        )
        assert accepted_counts(u_class, u_out, lo, hi, cum) == tuple(expected.tolist())

    @settings(max_examples=50, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=len(SUBENSEMBLE_ORDER) - 1),
                st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=4, max_size=4)
                .filter(lambda w: sum(w) > 0),
            ),
            min_size=1,
            max_size=6,
        ),
        size=st.integers(min_value=0, max_value=300),
        seed=st.integers(min_value=0, max_value=2**32),
    )
    def test_rows_are_counted_against_their_own_edges(self, rows, size, seed):
        # a chunk counts each row of draws with the row's class interval and
        # outcome edges, as if the row were counted alone (one row compares
        # with Python floats, more rows with a column of thresholds)
        u = np.random.default_rng(seed).random((len(rows), 2 * size))
        edges = []
        for target, weights in rows:
            cum = np.cumsum(np.array(weights) / sum(weights))
            edges.append([*_CLASS_EDGES[target : target + 2], *cum[:-1]])
        buffers = [np.empty((len(rows), size), dtype=bool) for _ in range(2)]
        together = _accepted_counts(u[:, :size], u[:, size:], np.array(edges), *buffers)
        for row, row_edges, counts in zip(u, edges, together):
            lo, hi, *cum = row_edges
            assert counts == accepted_counts(row[:size], row[size:], lo, hi, [*cum, 1.0])


def product_reference(law: Law) -> list[list[float]]:
    """The sampled law of a model with no joint law, point by point in Python floats:
    the products of the two sides' singles in outcome order, an undefined side at 1/2."""
    points = len(law.side1 if law.side1 is not None else law.side2)
    side1, side2 = ([[0.5, 0.5]] * points if s is None else s.tolist() for s in (law.side1, law.side2))
    return [[p1 * p2 for p1 in s1 for p2 in s2] for s1, s2 in zip(side1, side2)]


class TestOutcomeDistribution:
    def test_qm_uses_the_superposed_joint_law(self):
        ph = PhaseSettings(0.9, -0.2, 1.4)
        law = predict(QM, [ph], Subensemble.LONG)
        assert np.array_equal(_sampled_law(law), law.joint)

    def test_rnl_is_a_product_of_its_singles(self):
        distribution = _sampled_law(predict(RNL, [ZERO], Subensemble.LONG))[0]
        assert distribution == pytest.approx(
            (5 / 12, 1 / 12, 5 / 12, 1 / 12), abs=1e-12
        )

    def test_causal_uniform_completion_of_the_undefined_side(self):
        ordering_one = _sampled_law(predict(CAUSAL_1, [ZERO], Subensemble.LONG))[0]
        assert ordering_one == pytest.approx(
            (5 / 12, 1 / 12, 5 / 12, 1 / 12), abs=1e-12
        )
        ordering_two = _sampled_law(predict(CAUSAL_2, [ZERO], Subensemble.LONG))[0]
        assert ordering_two == pytest.approx((0.25,) * 4, abs=1e-12)

    @pytest.mark.parametrize("model", [RNL, CAUSAL_1, CAUSAL_2])
    def test_product_law_equals_the_python_products(self, model):
        # the scan-fine alpha grid, as compare builds it, and the tied setting
        grid = [PhaseSettings(alpha=float(a)) for a in np.linspace(0.0, 2 * math.pi, 1001)]
        law = predict(model, grid + [TIED])
        assert _sampled_law(law).tolist() == product_reference(law)

    @pytest.mark.parametrize("model", [RNL, CAUSAL_1, CAUSAL_2])
    @pytest.mark.parametrize("target", [Subensemble.SHORT, Subensemble.SATELLITE_LONG])
    def test_causal_rules_reject_targets_other_than_difference_L(self, model, target):
        # the causal singles law is built from the difference-L class's paths
        with pytest.raises(ValueError, match="difference-L class only"):
            run(RunConfig(model=model, phases=ZERO, events=10, seed=0, target_sub=target))

    def test_qm_rejects_satellite_targets(self):
        with pytest.raises(ValueError):
            run(
                RunConfig(
                    model=QM,
                    phases=ZERO,
                    events=10,
                    seed=0,
                    target_sub=Subensemble.SATELLITE_LONG,
                )
            )


class TestAcceptanceRate:
    four_sigma = 4.0 * math.sqrt(0.375 * 0.625 / 200_000)

    @pytest.mark.parametrize("model", [QM, RNL, CAUSAL_1, CAUSAL_2])
    def test_three_eighths_of_events_survive_selection(self, model):
        result = run(RunConfig(model=model, phases=ZERO, events=200_000, seed=11))
        assert result.accepted / result.events == pytest.approx(
            0.375, abs=self.four_sigma
        )

    def test_weights_are_the_documented_constants(self):
        assert SUBENSEMBLE_WEIGHTS == (0.125, 0.375, 0.375, 0.125)
        assert SUBENSEMBLE_ORDER.index(Subensemble.LONG) == 1

    def test_short_class_can_be_targeted(self):
        config = RunConfig(
            model=QM, phases=ZERO, events=200_000, seed=3, target_sub=Subensemble.SHORT
        )
        result = run(config)
        assert result.accepted / result.events == pytest.approx(
            0.375, abs=self.four_sigma
        )
        side1, _ = marginals(result.r, result.accepted)
        assert side1[0] == pytest.approx(5 / 6, abs=0.01)


class TestEstimator:
    def test_counter_asymmetry_and_binomial_error(self):
        t = tally(10, 20, 30, 40)
        value, std_error = estimate_E(t.r)
        assert value == pytest.approx((10 + 20 - 30 - 40) / 100)
        p = 30 / 100
        assert std_error == pytest.approx(2 * math.sqrt(p * (1 - p) / 100))

    def test_single_count_edge_case(self):
        # all events on one side-1 detector: the z = 1 Wilson score
        # half-width on the E scale, 1/(n+1), not a zero error
        assert estimate_E(tally(1, 0, 0, 0).r) == (1.0, 0.5)
        assert estimate_E(tally(0, 0, 3, 1).r) == (-1.0, 1 / 5)

    def test_empty_tally_is_rejected(self):
        with pytest.raises(ValueError):
            estimate_E(tally(0, 0, 0, 0, rejected=5).r)
        with pytest.raises(ValueError):
            estimate_E([tally(1, 0, 0, 0).r, (0, 0, 0, 0)])

    def test_qm_run_at_aligned_phases_reaches_minus_two_thirds(self):
        config = RunConfig(model=QM, phases=ZERO, events=1_000_000, seed=42)
        result = run(config)
        value, _ = estimate_E(result.r)
        # side-1 plus is the rarer outcome here, so the signed value is negative
        assert value == pytest.approx(-2 / 3, abs=0.01)
        row = _run_columns("simulate", law_of(config), [config], np.array([result.r]))
        assert abs(value) == pytest.approx(row["e_analytic_qm"][0], abs=0.01)
        # the dominant counter holds 3/4 of the accepted events
        assert result.r[OUTCOMES.index(Outcome.MINUS_PLUS)] / result.accepted == pytest.approx(
            0.75, abs=0.003
        )
        assert result.accepted / result.events == pytest.approx(0.375, abs=0.002)

    def test_rnl_run_is_consistent_with_zero(self):
        result = run(RunConfig(model=RNL, phases=ZERO, events=1_000_000, seed=42))
        value, std_error = estimate_E(result.r)
        assert abs(value) <= 4.0 * std_error

    @pytest.mark.parametrize(
        "model, phases",
        [(QM, ZERO), (QM, PhaseSettings(0.9, -0.2, 1.4)), (RNL, PhaseSettings(0.3, 1.0, -0.5))],
    )
    def test_std_error_is_calibrated(self, model, phases):
        # the error bar is a one-sigma bar: over 400 seeds, |z| < 1 against
        # the signed law for 68.27% of the runs, within 5 binomial sigma
        runs, coverage = 400, 0.6827
        side1 = predict(model, [phases]).side1
        signed = side1[0, 0] - side1[0, 1]
        inside = 0
        for seed in range(runs):
            value, std_error = estimate_E(
                run(RunConfig(model=model, phases=phases, events=10_000, seed=seed)).r
            )
            inside += abs(value - signed) < std_error
        bound = 5 * math.sqrt(coverage * (1 - coverage) / runs)
        assert abs(inside / runs - coverage) <= bound, f"share {inside / runs}"

    @settings(max_examples=50)
    @given(counts=st.tuples(*[st.integers(min_value=0, max_value=1000)] * 4))
    def test_value_stays_in_the_unit_interval(self, counts):
        if sum(counts) == 0:
            return
        value, std_error = estimate_E(tally(*counts).r)
        assert -1.0 <= value <= 1.0
        assert std_error > 0.0


class TestStatisticalConsistency:
    """Estimated marginals track the analytic singles for every model."""

    # about 1e5 accepted events per point
    EVENTS = 266_667

    def _phases(self, k: int) -> PhaseSettings:
        return PhaseSettings(
            alpha=2 * math.pi * k / 12.0, beta=0.9 + 0.5 * k, gamma=0.4 - 0.3 * k
        )

    def _sigma(self, p: float, n: int) -> float:
        return math.sqrt(max(p * (1 - p), 1e-12) / n)

    @pytest.mark.parametrize(
        "model, seed", [(QM, 101), (RNL, 202), (CAUSAL_1, 303), (CAUSAL_2, 404)]
    )
    def test_marginals_within_four_sigma_on_a_twelve_point_grid(self, model, seed):
        for k in range(12):
            ph = self._phases(k)
            result = run(
                RunConfig(model=model, phases=ph, events=self.EVENTS, seed=seed + k)
            )
            side1, side2 = marginals(result.r, result.accepted)
            n = result.accepted

            if model.kind is TheoryKind.QM:
                joint = predict(QM, [ph], Subensemble.LONG).joint[0]
                side1_law, side2_law = marginals(joint)
                expected1 = side1_law[0]
                expected2 = side2_law[0]
            else:
                expected1 = 0.5 if model is not CAUSAL_1 else None
                expected2 = (
                    causal_singles_side2_closed_form(ph)[0]
                    if model is not CAUSAL_2
                    else None
                )

            if expected1 is not None:
                assert abs(side1[0] - expected1) <= 4 * self._sigma(expected1, n)
            if expected2 is not None:
                assert abs(side2[0] - expected2) <= 4 * self._sigma(expected2, n)

    def test_contrast_between_the_two_theories(self):
        qm_result = run(RunConfig(model=QM, phases=ZERO, events=1_000_000, seed=77))
        rnl_result = run(RunConfig(model=RNL, phases=ZERO, events=1_000_000, seed=78))
        qm_value, qm_error = estimate_E(qm_result.r)
        rnl_value, rnl_error = estimate_E(rnl_result.r)
        contrast = abs(qm_value) - abs(rnl_value)
        combined = 4.0 * math.hypot(qm_error, rnl_error)
        assert contrast == pytest.approx(2 / 3, abs=combined)


def chi2_survival_3dof(x: float) -> float:
    """P(X > x) for a chi-square variable with 3 degrees of freedom."""
    return math.erfc(math.sqrt(x / 2)) + math.sqrt(2 * x / math.pi) * math.exp(-x / 2)


class TestJointLaw:
    """Pearson chi-square (3 dof) of the four counters against the sampled law,
    so the correlations between the two sides are tested, not only the singles."""

    GRID = [
        PhaseSettings(0.0, 0.0, 0.0),
        PhaseSettings(0.5, -0.5, 1.0),
        PhaseSettings(1.3, 0.4, -0.9),
        PhaseSettings(2.2, 1.7, 0.3),
        PhaseSettings(-1.1, 2.9, 2.0),
        PhaseSettings(3.0, -2.4, -1.6),
    ]

    def test_survival_function_matches_tabulated_quantiles(self):
        assert chi2_survival_3dof(0.0) == pytest.approx(1.0)
        assert chi2_survival_3dof(7.8147) == pytest.approx(0.05, abs=1e-5)
        assert chi2_survival_3dof(11.3449) == pytest.approx(0.01, abs=1e-6)

    @pytest.mark.parametrize("model, seed", [(QM, 505), (RNL, 606)])
    def test_counters_follow_the_outcome_distribution(self, model, seed):
        for k, ph in enumerate(self.GRID):
            result = run(RunConfig(model=model, phases=ph, events=200_000, seed=seed + k))
            law = _sampled_law(predict(model, [ph], Subensemble.LONG))[0].tolist()
            expected = [result.accepted * p for p in law]
            chi2 = sum((n - e) ** 2 / e for n, e in zip(result.r, expected))
            assert chi2_survival_3dof(chi2) >= 1e-4, f"point {k}: chi2 = {chi2:.2f}"


class TestScan:
    GRID = [0.0, math.pi / 2, math.pi]

    def test_analytic_side1_follows_the_fringe(self):
        [(law, _, _)] = scan_phases([QM], "alpha", self.GRID, ZERO, 20_000, seed=9)
        assert law.side1[:, 0].tolist() == pytest.approx([1 / 6, 0.5, 5 / 6], abs=1e-12)

    def test_causal_side1_is_flat(self):
        [(law, _, _)] = scan_phases([CAUSAL_2], "alpha", self.GRID, ZERO, 20_000, seed=9)
        assert law.side1[:, 0].tolist() == [0.5, 0.5, 0.5]
        assert law.side2 is None

    def test_single_point_grid(self):
        [(law, configs, counts)] = scan_phases([RNL], "beta", [0.25], ZERO, 5_000, seed=4)
        assert len(configs) == 1 and len(law.side1) == 1 and counts.shape == (1, len(OUTCOMES))
        assert configs[0].phases == PhaseSettings(beta=0.25)

    def test_each_point_is_replayable_from_its_provenance(self):
        [(_, configs, counts)] = scan_phases([QM], "gamma", self.GRID, ZERO, 30_000, seed=123)
        for point_config, r in zip(configs, counts.tolist()):
            config = RunConfig(
                model=QM,
                phases=point_config.phases,
                events=point_config.events,
                seed=point_config.seed,
            )
            assert run(config).r == tuple(r)

    def test_point_seeds_are_stable(self):
        assert derive_point_seed(9, 0) == 5941392204501240012
        assert derive_point_seed(9, 1) != derive_point_seed(9, 0)

    @pytest.mark.parametrize(
        "seed, index, message",
        [(2**64, 0, "unsigned 64-bit"), (2**70, 0, "unsigned 64-bit"), (-1, 0, "unsigned 64-bit"),
         (0, True, "must be an int"), (0, 1.0, "must be an int"), (0, -1, "must not be negative")],
    )
    def test_point_seed_inputs_are_checked(self, seed, index, message):
        # numpy would take 2**64 and 2**70 as seeds, and True as index 1
        with pytest.raises(ValueError, match=message):
            derive_point_seed(seed, index)

    def test_bad_axis_and_empty_grid_are_rejected(self):
        with pytest.raises(ValueError):
            scan_phases([QM], "delta", self.GRID, ZERO, 100, seed=0)
        with pytest.raises(ValueError):
            scan_phases([QM], "alpha", [], ZERO, 100, seed=0)

    @pytest.mark.parametrize("model", [QM, RNL, CAUSAL_1, CAUSAL_2])
    def test_point_configs_equal_run_configs_built_point_by_point(self, model):
        # the analytic law comes from one grid call; each point must equal
        # the RunConfig built alone, with row k of the grid law equal to the
        # law run computes for it
        base = PhaseSettings(0.0, math.pi / 3, 2 * math.pi / 3)  # TIED at alpha = 0
        grid = [0.0, 0.4, math.pi / 2, -2.9, 2 * math.pi]
        [(law, configs, counts)] = scan_phases([model], "alpha", grid, base, 500, seed=21)
        for k, (angle, point_config, r) in enumerate(zip(grid, configs, counts.tolist())):
            config = RunConfig(
                model=model,
                phases=PhaseSettings(angle, base.beta, base.gamma),
                events=500,
                seed=derive_point_seed(21, k),
            )
            assert point_config == config
            assert_same_law(Law(*(f if f is None else f[k : k + 1] for f in law)), law_of(config))
            assert tuple(r) == run(config).r

    @pytest.mark.parametrize(
        "events, message",
        [(0, "at least 1"), (-5, "at least 1"), (True, "must be an int"), (2.5, "must be an int")],
    )
    def test_point_configs_check_their_event_count(self, events, message, monkeypatch):
        monkeypatch.setattr(montecarlo, "block_tallies", lambda *args: pytest.fail("a point ran"))
        with pytest.raises(ValueError, match=message):
            scan_phases([QM, RNL], "alpha", self.GRID, ZERO, events, seed=0)

    @pytest.mark.parametrize(
        "seed, message",
        [(-1, "unsigned 64-bit"), (2**64, "unsigned 64-bit"), (2**70, "unsigned 64-bit"),
         (1.0, "must be an int"), (True, "must be an int")],
    )
    def test_scan_seed_is_range_checked_before_any_point_runs(self, seed, message, monkeypatch):
        # point seeds are derived, so without the check 2**70 would run
        monkeypatch.setattr(montecarlo, "block_tallies", lambda *args: pytest.fail("a point ran"))
        with pytest.raises(ValueError, match=message):
            scan_phases([QM, RNL], "alpha", self.GRID, ZERO, 100, seed=seed)


class TestValueValidation:
    def test_run_config_bounds(self):
        with pytest.raises(ValueError):
            RunConfig(model=QM, phases=ZERO, events=0, seed=0)
        with pytest.raises(ValueError):
            RunConfig(model=QM, phases=ZERO, events=10, seed=-1)
        with pytest.raises(ValueError):
            RunConfig(model=QM, phases=ZERO, events=10, seed=2**64)
        for events, seed in ((True, 0), (2.5, 0), (10.0, 0), (10, True), (10, 1.0)):
            with pytest.raises(ValueError, match="must be an int"):
                RunConfig(model=QM, phases=ZERO, events=events, seed=seed)

    def test_run_config_is_provenance_only(self):
        assert [f.name for f in dataclasses.fields(RunConfig)] == [
            "model", "phases", "events", "seed", "target_sub"
        ]

    def test_a_target_outside_the_domain_fails_before_sampling(self, monkeypatch):
        # the config holds provenance only; run's predict call rejects the
        # target before any block is drawn
        monkeypatch.setattr(montecarlo, "block_tallies", lambda *args: pytest.fail("sampled"))
        config = RunConfig(model=RNL, phases=ZERO, events=10, seed=0, target_sub=Subensemble.SHORT)
        with pytest.raises(ValueError, match="difference-L class only"):
            run(config)

    def test_tally_consistency_checks(self):
        with pytest.raises(ValueError):
            CoincidenceTally(r=(1, 2, 3, 4), rejected=-1)
        with pytest.raises(ValueError):
            CoincidenceTally(r=(1,), rejected=0)
