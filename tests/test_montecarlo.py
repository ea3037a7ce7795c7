"""Monte Carlo engine: determinism, partition independence, statistics."""

import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import impactseries
from impactseries import montecarlo
from impactseries.amplitudes import PhaseSettings
from impactseries.cli import _run_row
from impactseries.montecarlo import (
    BLOCK_SIZE,
    SUBENSEMBLE_ORDER,
    SUBENSEMBLE_WEIGHTS,
    CoincidenceTally,
    RunConfig,
    block_tallies,
    derive_point_seed,
    estimate_E,
    merge_tallies,
    outcome_distribution,
    run,
    scan_phases,
    tally_marginals,
    _BLOCKS_PER_WORKER,
    _CLASS_EDGES,
    _accepted_counts,
    _sample_blocks,
    _worker_count,
)
from impactseries.pathspace import OUTCOMES, Outcome, Subensemble, TimeOrdering
from impactseries.theories import (
    TheoryKind,
    TheoryModel,
    marginals,
    predict,
    qm_joint,
)

from closed_forms import causal_singles_side2_closed_form

QM = TheoryModel(TheoryKind.QM)
RNL = TheoryModel(TheoryKind.RNL)
CAUSAL_1 = TheoryModel(TheoryKind.CAUSAL, TimeOrdering.PHOTON2_FIRST)
CAUSAL_2 = TheoryModel(TheoryKind.CAUSAL, TimeOrdering.PHOTON1_FIRST)

ZERO = PhaseSettings()


def tally(pp, pm, mp, mm, rejected=0) -> CoincidenceTally:
    return CoincidenceTally(r=(pp, pm, mp, mm), rejected=rejected)


def searchsorted_block_tallies(config: RunConfig) -> list[CoincidenceTally]:
    """Reference sampler: two draws per block, inverse CDF by searchsorted, bincount."""
    outcome_cum = np.cumsum(outcome_distribution(config.prediction).p)
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
        assert block_tallies(config) == searchsorted_block_tallies(config)

    @pytest.mark.parametrize("events", [3 * BLOCK_SIZE + 17, BLOCK_SIZE + 1])
    def test_short_block_after_full_ones_reads_no_stale_bits(self, events):
        # one call reuses its mask and scratch buffers from the full blocks
        # for the short last one
        config = RunConfig(model=QM, phases=ZERO, events=events, seed=2024)
        n_blocks = -(-events // BLOCK_SIZE)
        assert _sample_blocks(config, range(n_blocks)) == searchsorted_block_tallies(config)

    def test_tied_outcome_edge_is_never_drawn(self):
        cum = np.cumsum(outcome_distribution(predict(QM, TIED)).p)
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
        blocks = block_tallies(config)
        assert [t.events for t in blocks] == [BLOCK_SIZE, BLOCK_SIZE, BLOCK_SIZE, 17]
        shuffled = list(blocks)
        random.Random(0).shuffle(shuffled)
        grouped = [merge_tallies(shuffled[:2]), merge_tallies(shuffled[2:])]
        assert merge_tallies(shuffled) == run(config)
        assert merge_tallies(grouped) == run(config)


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
        assert _worker_count(n_blocks) == min(workers, n_blocks)
        assert block_tallies(config) == searchsorted_block_tallies(config)

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
            block_tallies(config)

    def test_worker_count(self, monkeypatch):
        per = _BLOCKS_PER_WORKER
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

    def test_in_process_run_imports_no_pool(self):
        # the pool modules cost memory at import; runs below the pool
        # threshold (a one-block scan point, a predict) must not load them
        script = (
            "import sys, impactseries.cli\n"
            "from impactseries.amplitudes import PhaseSettings\n"
            "from impactseries.montecarlo import RunConfig, run\n"
            "from impactseries.theories import TheoryKind, TheoryModel\n"
            "run(RunConfig(model=TheoryModel(TheoryKind.QM), phases=PhaseSettings(),"
            " events=1000, seed=1))\n"
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


def accepted_counts(u_class, u_outcome, lo, hi, cumulative):
    """``_accepted_counts`` with fresh mask and scratch buffers."""
    buffers = [np.empty(len(u_class), dtype=bool) for _ in range(2)]
    return _accepted_counts(u_class, u_outcome, lo, hi, cumulative, *buffers)


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


class TestOutcomeDistribution:
    def test_qm_uses_the_superposed_joint_law(self):
        ph = PhaseSettings(0.9, -0.2, 1.4)
        assert outcome_distribution(predict(QM, ph, Subensemble.LONG)) == qm_joint(
            Subensemble.LONG, ph
        )

    def test_rnl_is_a_product_of_its_singles(self):
        distribution = outcome_distribution(predict(RNL, ZERO, Subensemble.LONG))
        assert distribution.p == pytest.approx(
            (5 / 12, 1 / 12, 5 / 12, 1 / 12), abs=1e-12
        )

    def test_causal_uniform_completion_of_the_undefined_side(self):
        ordering_one = outcome_distribution(predict(CAUSAL_1, ZERO, Subensemble.LONG))
        assert ordering_one.p == pytest.approx(
            (5 / 12, 1 / 12, 5 / 12, 1 / 12), abs=1e-12
        )
        ordering_two = outcome_distribution(predict(CAUSAL_2, ZERO, Subensemble.LONG))
        assert ordering_two.p == pytest.approx((0.25,) * 4, abs=1e-12)

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
        side1, _ = tally_marginals(result)
        assert side1.p_plus == pytest.approx(5 / 6, abs=0.01)


class TestEstimator:
    def test_counter_asymmetry_and_binomial_error(self):
        t = tally(10, 20, 30, 40)
        value, std_error = estimate_E(t)
        assert value == pytest.approx((10 + 20 - 30 - 40) / 100)
        p = 30 / 100
        assert std_error == pytest.approx(2 * math.sqrt(p * (1 - p) / 100))

    def test_single_count_edge_case(self):
        # all events on one side-1 detector: the z = 1 Wilson score
        # half-width on the E scale, 1/(n+1), not a zero error
        assert estimate_E(tally(1, 0, 0, 0)) == (1.0, 0.5)
        assert estimate_E(tally(0, 0, 3, 1)) == (-1.0, 1 / 5)

    def test_empty_tally_is_rejected(self):
        with pytest.raises(ValueError):
            estimate_E(tally(0, 0, 0, 0, rejected=5))

    def test_qm_run_at_aligned_phases_reaches_minus_two_thirds(self):
        config = RunConfig(model=QM, phases=ZERO, events=1_000_000, seed=42)
        result = run(config)
        value, _ = estimate_E(result)
        # side-1 plus is the rarer outcome here, so the signed value is negative
        assert value == pytest.approx(-2 / 3, abs=0.01)
        assert abs(value) == pytest.approx(
            _run_row("simulate", config, result)["e_analytic_qm"], abs=0.01
        )
        # the dominant counter holds 3/4 of the accepted events
        assert result.r[OUTCOMES.index(Outcome.MINUS_PLUS)] / result.accepted == pytest.approx(
            0.75, abs=0.003
        )
        assert result.accepted / result.events == pytest.approx(0.375, abs=0.002)

    def test_rnl_run_is_consistent_with_zero(self):
        result = run(RunConfig(model=RNL, phases=ZERO, events=1_000_000, seed=42))
        value, std_error = estimate_E(result)
        assert abs(value) <= 4.0 * std_error

    @settings(max_examples=50)
    @given(counts=st.tuples(*[st.integers(min_value=0, max_value=1000)] * 4))
    def test_value_stays_in_the_unit_interval(self, counts):
        if sum(counts) == 0:
            return
        value, std_error = estimate_E(tally(*counts))
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
            side1, side2 = tally_marginals(result)
            n = result.accepted

            if model.kind is TheoryKind.QM:
                joint = qm_joint(Subensemble.LONG, ph)
                side1_law, side2_law = marginals(joint.p)
                expected1 = side1_law.p_plus
                expected2 = side2_law.p_plus
            else:
                expected1 = 0.5 if model is not CAUSAL_1 else None
                expected2 = (
                    causal_singles_side2_closed_form(ph).p_plus
                    if model is not CAUSAL_2
                    else None
                )

            if expected1 is not None:
                assert abs(side1.p_plus - expected1) <= 4 * self._sigma(expected1, n)
            if expected2 is not None:
                assert abs(side2.p_plus - expected2) <= 4 * self._sigma(expected2, n)

    def test_contrast_between_the_two_theories(self):
        qm_result = run(RunConfig(model=QM, phases=ZERO, events=1_000_000, seed=77))
        rnl_result = run(RunConfig(model=RNL, phases=ZERO, events=1_000_000, seed=78))
        qm_value, qm_error = estimate_E(qm_result)
        rnl_value, rnl_error = estimate_E(rnl_result)
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
            law = outcome_distribution(predict(model, ph, Subensemble.LONG)).p
            expected = [result.accepted * p for p in law]
            chi2 = sum((n - e) ** 2 / e for n, e in zip(result.r, expected))
            assert chi2_survival_3dof(chi2) >= 1e-4, f"point {k}: chi2 = {chi2:.2f}"


class TestScan:
    GRID = [0.0, math.pi / 2, math.pi]

    def test_analytic_side1_follows_the_fringe(self):
        points = scan_phases(QM, "alpha", self.GRID, ZERO, 20_000, seed=9)
        values = [config.prediction.side1.p_plus for config, _ in points]
        assert values == pytest.approx([1 / 6, 0.5, 5 / 6], abs=1e-12)

    def test_causal_side1_is_flat(self):
        points = scan_phases(CAUSAL_2, "alpha", self.GRID, ZERO, 20_000, seed=9)
        assert [config.prediction.side1.p_plus for config, _ in points] == [0.5, 0.5, 0.5]
        assert all(config.prediction.side2 is None for config, _ in points)

    def test_single_point_grid(self):
        points = scan_phases(RNL, "beta", [0.25], ZERO, 5_000, seed=4)
        assert len(points) == 1
        assert points[0][0].phases == PhaseSettings(beta=0.25)

    def test_each_point_is_replayable_from_its_provenance(self):
        points = scan_phases(QM, "gamma", self.GRID, ZERO, 30_000, seed=123)
        for point_config, point_tally in points:
            config = RunConfig(
                model=QM,
                phases=point_config.phases,
                events=point_config.events,
                seed=point_config.seed,
            )
            assert run(config) == point_tally

    def test_point_seeds_are_stable(self):
        assert derive_point_seed(9, 0) == 5941392204501240012
        assert derive_point_seed(9, 1) != derive_point_seed(9, 0)

    def test_bad_axis_and_empty_grid_are_rejected(self):
        with pytest.raises(ValueError):
            scan_phases(QM, "delta", self.GRID, ZERO, 100, seed=0)
        with pytest.raises(ValueError):
            scan_phases(QM, "alpha", [], ZERO, 100, seed=0)

    @pytest.mark.parametrize("model", [QM, RNL, CAUSAL_1, CAUSAL_2])
    def test_point_configs_equal_run_configs_built_point_by_point(self, model):
        # the analytic law comes from one grid call; each config must equal
        # the RunConfig that computes its own prediction, prediction included
        base = PhaseSettings(0.0, math.pi / 3, 2 * math.pi / 3)  # TIED at alpha = 0
        grid = [0.0, 0.4, math.pi / 2, -2.9, 2 * math.pi]
        points = scan_phases(model, "alpha", grid, base, 500, seed=21)
        for k, (angle, (point_config, point_tally)) in enumerate(zip(grid, points)):
            config = RunConfig(
                model=model,
                phases=PhaseSettings(angle, base.beta, base.gamma),
                events=500,
                seed=derive_point_seed(21, k),
            )
            assert point_config == config
            assert point_config.prediction == config.prediction
            assert point_tally == run(config)

    @pytest.mark.parametrize(
        "events, message",
        [(0, "at least 1"), (-5, "at least 1"), (True, "must be an int"), (2.5, "must be an int")],
    )
    def test_point_configs_check_their_event_count(self, events, message, monkeypatch):
        monkeypatch.setattr(montecarlo, "run", lambda config: pytest.fail("a point ran"))
        with pytest.raises(ValueError, match=message):
            scan_phases(QM, "alpha", self.GRID, ZERO, events, seed=0)

    @pytest.mark.parametrize(
        "seed, message",
        [(-1, "unsigned 64-bit"), (2**64, "unsigned 64-bit"), (2**70, "unsigned 64-bit"),
         (1.0, "must be an int"), (True, "must be an int")],
    )
    def test_scan_seed_is_range_checked_before_any_point_runs(self, seed, message, monkeypatch):
        # point seeds are derived, so without the check 2**70 would run
        monkeypatch.setattr(montecarlo, "run", lambda config: pytest.fail("a point ran"))
        with pytest.raises(ValueError, match=message):
            scan_phases(QM, "alpha", self.GRID, ZERO, 100, seed=seed)


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

    def test_run_config_carries_its_prediction(self):
        config = RunConfig(model=RNL, phases=PhaseSettings(0.3, 1.0, -0.5), events=10, seed=0)
        assert config.prediction == predict(RNL, PhaseSettings(0.3, 1.0, -0.5))
        with pytest.raises(ValueError, match="difference-L class only"):
            RunConfig(model=RNL, phases=ZERO, events=10, seed=0, target_sub=Subensemble.SHORT)

    def test_tally_consistency_checks(self):
        with pytest.raises(ValueError):
            CoincidenceTally(r=(1, 2, 3, 4), rejected=-1)
        with pytest.raises(ValueError):
            CoincidenceTally(r=(1,), rejected=0)

    def test_merge_preserves_totals(self):
        first = tally(1, 2, 3, 4, rejected=10)
        second = tally(5, 6, 7, 8, rejected=20)
        merged = merge_tallies([first, second])
        assert merged.r == (6, 8, 10, 12)
        assert merged.accepted == 36
        assert merged.rejected == 30
