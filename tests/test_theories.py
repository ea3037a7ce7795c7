"""Prediction rules: frozen values, route equivalence, model contracts."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from impactseries import theories
from impactseries.amplitudes import PhaseSettings
from impactseries.pathspace import Subensemble, TimeOrdering
from impactseries.theories import (
    JointDistribution,
    Prediction,
    SinglesPair,
    TheoryKind,
    TheoryModel,
    causal_singles_side1,
    causal_singles_side2,
    marginals,
    predict,
    qm_joint,
)

from closed_forms import Side, causal_singles_side2_closed_form, qm_singles_closed_form

angle_strategy = st.floats(min_value=-8 * math.pi, max_value=8 * math.pi)


def joint(pp, pm, mp, mm) -> JointDistribution:
    return JointDistribution((pp, pm, mp, mm))


def phase_grid(n: int = 5):
    values = np.linspace(0.0, 2.0 * math.pi, n)
    return [PhaseSettings(a, b, g) for a, b, g in itertools.product(values, repeat=3)]


class TestQmJoint:
    def test_long_class_distribution_at_zero_phases(self):
        # brute-force sum of the three tabulated amplitudes per outcome
        distribution = qm_joint(Subensemble.LONG, PhaseSettings())
        expected = (1 / 12, 1 / 12, 3 / 4, 1 / 12)
        assert distribution.p == pytest.approx(expected, abs=1e-12)

    def test_entries_sum_to_one_for_both_classes(self):
        for sub in (Subensemble.LONG, Subensemble.SHORT):
            for ph in phase_grid():
                assert sum(qm_joint(sub, ph).p) == pytest.approx(1.0, abs=1e-9)

    def test_short_class_side1_marginal_at_aligned_phases(self):
        distribution = qm_joint(Subensemble.SHORT, PhaseSettings(0.0, 0.0, 1.7))
        assert marginals(distribution.p)[0].p_plus == pytest.approx(5 / 6, abs=1e-12)

    @pytest.mark.parametrize(
        "sub", [Subensemble.SATELLITE_LONG, Subensemble.SATELLITE_SHORT]
    )
    def test_satellite_classes_are_rejected(self, sub):
        with pytest.raises(ValueError):
            qm_joint(sub, PhaseSettings())


class TestMarginals:
    def test_side2_of_the_zero_phase_distribution(self):
        _, pair = marginals(joint(1 / 12, 1 / 12, 3 / 4, 1 / 12).p)
        assert (pair.p_plus, pair.p_minus) == pytest.approx((5 / 6, 1 / 6), abs=1e-12)

    def test_side1_of_the_zero_phase_distribution(self):
        pair, _ = marginals(joint(1 / 12, 1 / 12, 3 / 4, 1 / 12).p)
        assert (pair.p_plus, pair.p_minus) == pytest.approx((1 / 6, 5 / 6), abs=1e-12)

    def test_counts_are_divided_by_the_total(self):
        side1, side2 = marginals((1, 2, 3, 4), 10)
        assert (side1.p_plus, side1.p_minus) == (3 / 10, 7 / 10)
        assert (side2.p_plus, side2.p_minus) == (4 / 10, 6 / 10)

    def test_uniform_and_degenerate_distributions(self):
        uniform = joint(0.25, 0.25, 0.25, 0.25)
        assert marginals(uniform.p)[0].p_plus == pytest.approx(0.5)
        assert marginals(uniform.p)[1].p_plus == pytest.approx(0.5)
        assert marginals(joint(1.0, 0.0, 0.0, 0.0).p)[1].p_plus == pytest.approx(1.0)
        assert marginals(joint(0.0, 0.0, 0.5, 0.5).p)[0].p_plus == pytest.approx(0.0)


class TestClosedForms:
    def test_spot_values(self):
        aligned = qm_singles_closed_form(Subensemble.LONG, Side.SIDE2, PhaseSettings())
        assert (aligned.p_plus, aligned.p_minus) == pytest.approx((5 / 6, 1 / 6), abs=1e-12)

        quarter = qm_singles_closed_form(
            Subensemble.LONG, Side.SIDE1, PhaseSettings(alpha=math.pi / 2)
        )
        assert quarter.p_plus == pytest.approx(0.5, abs=1e-12)

        opposed = qm_singles_closed_form(
            Subensemble.SHORT, Side.SIDE1, PhaseSettings(alpha=math.pi)
        )
        assert (opposed.p_plus, opposed.p_minus) == pytest.approx((1 / 6, 5 / 6), abs=1e-12)

    def test_short_class_side2_has_no_closed_form(self):
        with pytest.raises(ValueError):
            qm_singles_closed_form(Subensemble.SHORT, Side.SIDE2, PhaseSettings())

    def test_satellites_have_no_closed_form(self):
        with pytest.raises(ValueError):
            qm_singles_closed_form(Subensemble.SATELLITE_LONG, Side.SIDE1, PhaseSettings())


class TestRouteEquivalence:
    """The amplitude-summation route must agree with every closed form."""

    def test_long_class_side2(self):
        for ph in phase_grid():
            _, by_amplitudes = marginals(qm_joint(Subensemble.LONG, ph).p)
            closed = qm_singles_closed_form(Subensemble.LONG, Side.SIDE2, ph)
            assert by_amplitudes.p_plus == pytest.approx(closed.p_plus, abs=1e-9)

    def test_long_class_side1(self):
        for ph in phase_grid():
            by_amplitudes, _ = marginals(qm_joint(Subensemble.LONG, ph).p)
            closed = qm_singles_closed_form(Subensemble.LONG, Side.SIDE1, ph)
            assert by_amplitudes.p_plus == pytest.approx(closed.p_plus, abs=1e-9)

    def test_short_class_side1(self):
        for ph in phase_grid():
            by_amplitudes, _ = marginals(qm_joint(Subensemble.SHORT, ph).p)
            closed = qm_singles_closed_form(Subensemble.SHORT, Side.SIDE1, ph)
            assert by_amplitudes.p_plus == pytest.approx(closed.p_plus, abs=1e-9)

    def test_sequential_impact_singles(self):
        for ph in phase_grid():
            by_amplitudes = causal_singles_side2(ph)
            closed = causal_singles_side2_closed_form(ph)
            assert by_amplitudes.p_plus == pytest.approx(closed.p_plus, abs=1e-9)
            assert by_amplitudes.p_minus == pytest.approx(closed.p_minus, abs=1e-9)


class TestCausalRules:
    def test_side2_spot_values(self):
        # 1/6 from the lone path plus |two interfering paths|^2 = 4/6
        aligned = causal_singles_side2(PhaseSettings())
        assert (aligned.p_plus, aligned.p_minus) == pytest.approx((5 / 6, 1 / 6), abs=1e-12)
        vanishing = causal_singles_side2(PhaseSettings(beta=math.pi / 2))
        assert vanishing.p_plus == pytest.approx(0.5, abs=1e-12)
        opposed = causal_singles_side2(PhaseSettings(beta=math.pi))
        assert (opposed.p_plus, opposed.p_minus) == pytest.approx((1 / 6, 5 / 6), abs=1e-12)

    def test_side1_is_exactly_even_and_phase_free(self):
        pair = causal_singles_side1()
        assert pair.p_plus == 0.5
        assert pair.p_minus == 0.5

    def test_side2_agrees_with_the_superposition_rule(self):
        for ph in phase_grid():
            causal = causal_singles_side2(ph)
            qm = qm_singles_closed_form(Subensemble.LONG, Side.SIDE2, ph)
            assert causal.p_plus == pytest.approx(qm.p_plus, abs=1e-9)

    def test_side1_conflict_with_the_superposition_rule(self):
        # at alpha + beta = 0 the two rules differ by exactly 1/3
        for alpha in (0.0, 1.1, -2.5):
            ph = PhaseSettings(alpha=alpha, beta=-alpha)
            qm = qm_singles_closed_form(Subensemble.LONG, Side.SIDE1, ph)
            gap = abs(qm.p_plus - causal_singles_side1().p_plus)
            assert gap == pytest.approx(1 / 3, abs=1e-12)


@settings(max_examples=80)
@given(alpha=angle_strategy, beta=angle_strategy, gamma=angle_strategy)
def test_no_signalling_average_of_side1_across_classes(alpha, beta, gamma):
    # watching side 1 alone cannot reveal the selected class
    ph = PhaseSettings(alpha, beta, gamma)
    long_side1 = qm_singles_closed_form(Subensemble.LONG, Side.SIDE1, ph)
    short_side1 = qm_singles_closed_form(Subensemble.SHORT, Side.SIDE1, ph)
    assert (long_side1.p_plus + short_side1.p_plus) / 2 == pytest.approx(0.5, abs=1e-12)


@settings(max_examples=80)
@given(alpha=angle_strategy, beta=angle_strategy, gamma=angle_strategy)
def test_probability_outputs_are_well_formed(alpha, beta, gamma):
    ph = PhaseSettings(alpha, beta, gamma)
    for sub in (Subensemble.LONG, Subensemble.SHORT):
        distribution = qm_joint(sub, ph)
        assert all(0.0 <= p <= 1.0 + 1e-12 for p in distribution.p)
        for pair in marginals(distribution.p):
            assert pair.p_plus + pair.p_minus == pytest.approx(1.0, abs=1e-9)


class TestPredict:
    def test_qm_gives_joint_and_both_marginals(self):
        prediction = predict(TheoryModel(TheoryKind.QM), PhaseSettings())
        assert prediction.joint is not None
        assert (prediction.side1.p_plus, prediction.side1.p_minus) == pytest.approx(
            (1 / 6, 5 / 6), abs=1e-12
        )
        assert (prediction.side2.p_plus, prediction.side2.p_minus) == pytest.approx(
            (5 / 6, 1 / 6), abs=1e-12
        )

    def test_qm_is_time_ordering_insensitive(self):
        ph = PhaseSettings(0.4, 1.9, -0.8)
        predictions = [
            predict(TheoryModel(TheoryKind.QM, ordering), ph) for ordering in TimeOrdering
        ]
        assert all(p == predictions[0] for p in predictions)

    def test_causal_ordering_one_defines_only_side2(self):
        prediction = predict(
            TheoryModel(TheoryKind.CAUSAL, TimeOrdering.PHOTON2_FIRST), PhaseSettings()
        )
        assert prediction.side1 is None
        assert prediction.joint is None
        assert prediction.side2.p_plus == pytest.approx(5 / 6, abs=1e-12)

    def test_causal_ordering_two_defines_only_side1(self):
        for ph in (PhaseSettings(), PhaseSettings(2.2, -0.9, 0.3)):
            prediction = predict(
                TheoryModel(TheoryKind.CAUSAL, TimeOrdering.PHOTON1_FIRST), ph
            )
            assert prediction.side2 is None
            assert prediction.joint is None
            assert (prediction.side1.p_plus, prediction.side1.p_minus) == (0.5, 0.5)

    def test_rnl_defines_both_singles_for_any_ordering(self):
        ph = PhaseSettings(beta=0.6, gamma=0.6)
        for ordering in TimeOrdering:
            prediction = predict(TheoryModel(TheoryKind.RNL, ordering), ph)
            assert prediction.joint is None
            assert (prediction.side1.p_plus, prediction.side1.p_minus) == (0.5, 0.5)
            assert prediction.side2.p_plus == pytest.approx(5 / 6, abs=1e-12)

    def test_qm_predicts_either_central_class(self):
        ph = PhaseSettings(0.0, 0.0, 1.7)
        short = predict(TheoryModel(TheoryKind.QM), ph, Subensemble.SHORT)
        assert short.joint == qm_joint(Subensemble.SHORT, ph)
        assert short.side1.p_plus == pytest.approx(5 / 6, abs=1e-12)
        assert predict(TheoryModel(TheoryKind.QM), ph) == predict(
            TheoryModel(TheoryKind.QM), ph, Subensemble.LONG
        )

    @pytest.mark.parametrize(
        "model",
        [
            TheoryModel(TheoryKind.RNL),
            TheoryModel(TheoryKind.CAUSAL, TimeOrdering.PHOTON2_FIRST),
            TheoryModel(TheoryKind.CAUSAL, TimeOrdering.PHOTON1_FIRST),
        ],
    )
    def test_causal_rules_are_defined_for_the_difference_L_class_only(self, model):
        # the single-path table has no row for ll, a photon-2 path of the l class
        for target in (
            Subensemble.SHORT, Subensemble.SATELLITE_LONG, Subensemble.SATELLITE_SHORT
        ):
            with pytest.raises(ValueError, match="difference-L class only"):
                predict(model, PhaseSettings(), target)

    def test_causal_model_rejects_spacelike_ordering(self):
        with pytest.raises(ValueError):
            TheoryModel(TheoryKind.CAUSAL, TimeOrdering.SPACELIKE)
        with pytest.raises(ValueError):
            TheoryModel(TheoryKind.CAUSAL)  # the default ordering is spacelike


class TestPredictGrid:
    """A grid of settings is one ``predict`` call that equals the point-by-point calls."""

    IN_DOMAIN = [
        pytest.param(TheoryModel(TheoryKind.QM), Subensemble.LONG, id="qm-L"),
        pytest.param(TheoryModel(TheoryKind.QM), Subensemble.SHORT, id="qm-l"),
        pytest.param(TheoryModel(TheoryKind.RNL), Subensemble.LONG, id="rnl"),
        pytest.param(
            TheoryModel(TheoryKind.CAUSAL, TimeOrdering.PHOTON2_FIRST), Subensemble.LONG,
            id="causal-1",
        ),
        pytest.param(
            TheoryModel(TheoryKind.CAUSAL, TimeOrdering.PHOTON1_FIRST), Subensemble.LONG,
            id="causal-2",
        ),
    ]
    # the scan-fine benchmark's alpha grid, as compare builds it
    SCAN_FINE = [
        PhaseSettings(alpha=float(a)) for a in np.linspace(0.0, 2 * math.pi, 1001)
    ]
    # (+,-) has probability ~3e-33 in the difference-L class here
    TIED = PhaseSettings(0.0, math.pi / 3, 2 * math.pi / 3)

    @pytest.mark.parametrize("model, target", IN_DOMAIN)
    def test_scan_fine_grid_equals_point_by_point(self, model, target):
        grid = self.SCAN_FINE + [self.TIED]
        assert predict(model, grid, target) == [predict(model, ph, target) for ph in grid]

    @pytest.mark.parametrize("model, target", IN_DOMAIN)
    def test_tied_setting_as_a_grid_of_one(self, model, target):
        assert predict(model, [self.TIED], target) == [predict(model, self.TIED, target)]
        assert isinstance(predict(model, self.TIED, target), Prediction)

    @settings(max_examples=60)
    @given(
        case=st.sampled_from([param.values for param in IN_DOMAIN]),
        angles=st.lists(st.tuples(angle_strategy, angle_strategy, angle_strategy), max_size=12),
    )
    def test_drawn_grid_equals_point_by_point(self, case, angles):
        model, target = case
        grid = [PhaseSettings(*triple) for triple in angles]
        assert predict(model, grid, target) == [predict(model, ph, target) for ph in grid]

    @pytest.mark.parametrize(
        "model, table",
        [
            (TheoryModel(TheoryKind.QM), "joint_amplitudes"),
            (TheoryModel(TheoryKind.RNL), "single_amplitudes"),
            (TheoryModel(TheoryKind.CAUSAL, TimeOrdering.PHOTON2_FIRST), "single_amplitudes"),
        ],
    )
    def test_a_grid_is_one_table_evaluation(self, model, table, monkeypatch):
        calls = []
        original = getattr(theories, table)
        monkeypatch.setattr(theories, table, lambda phases: calls.append(1) or original(phases))
        assert len(predict(model, self.SCAN_FINE)) == len(self.SCAN_FINE)
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "model, target",
        [
            (TheoryModel(TheoryKind.QM), Subensemble.SATELLITE_LONG),
            (TheoryModel(TheoryKind.QM), Subensemble.SATELLITE_SHORT),
            (TheoryModel(TheoryKind.RNL), Subensemble.SHORT),
            (TheoryModel(TheoryKind.CAUSAL, TimeOrdering.PHOTON2_FIRST), Subensemble.SHORT),
            (
                TheoryModel(TheoryKind.CAUSAL, TimeOrdering.PHOTON1_FIRST),
                Subensemble.SATELLITE_LONG,
            ),
        ],
    )
    def test_grid_outside_the_domain_fails_as_a_point_does(self, model, target, monkeypatch):
        with pytest.raises(ValueError) as point_error:
            predict(model, PhaseSettings(), target)
        # the domain is checked before any table is evaluated
        for table in ("joint_amplitudes", "single_amplitudes"):
            monkeypatch.setattr(theories, table, lambda phases: pytest.fail("table evaluated"))
        with pytest.raises(ValueError) as grid_error:
            predict(model, self.SCAN_FINE[:3], target)
        assert str(grid_error.value) == str(point_error.value)


class TestValueValidation:
    def test_singles_pair_must_sum_to_one(self):
        with pytest.raises(ValueError):
            SinglesPair(0.7, 0.7)
        with pytest.raises(ValueError):
            SinglesPair(-0.2, 1.2)

    def test_joint_distribution_validation(self):
        with pytest.raises(ValueError):
            joint(0.5, 0.5, 0.5, 0.5)
        with pytest.raises(ValueError):
            joint(1.5, -0.5, 0.0, 0.0)
        with pytest.raises(ValueError):
            JointDistribution((1.0,))
