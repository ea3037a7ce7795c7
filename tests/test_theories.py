"""The three rules' laws: frozen values, route equivalence, model contracts."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from impactseries import montecarlo, theories
from impactseries.amplitudes import CLASS_ROWS, PhaseSettings, interference_law, joint_amplitudes
from impactseries.pathspace import Subensemble, TimeOrdering
from impactseries.theories import Law, TheoryKind, TheoryModel, marginals, predict

from closed_forms import Side, causal_singles_side2_closed_form, qm_singles_closed_form

angle_strategy = st.floats(min_value=-8 * math.pi, max_value=8 * math.pi)

QM = TheoryModel(TheoryKind.QM)
RNL = TheoryModel(TheoryKind.RNL)
CAUSAL_1 = TheoryModel(TheoryKind.CAUSAL, TimeOrdering.PHOTON2_FIRST)
CAUSAL_2 = TheoryModel(TheoryKind.CAUSAL, TimeOrdering.PHOTON1_FIRST)
LONG = Subensemble.LONG
#: A law's array fields, in record order; its class follows them.
ARRAYS = Law._fields[:3]


def joint(pp, pm, mp, mm) -> np.ndarray:
    """One validated joint row, as ``predict`` returns it for a grid of one."""
    return Law(np.array([(pp, pm, mp, mm)]), None, None, LONG).validated().joint[0]


def joint_at(sub: Subensemble, ph: PhaseSettings) -> np.ndarray:
    """The superposition rule's joint law of class ``sub`` at one setting."""
    return predict(QM, [ph], sub).joint[0]


def assert_same_law(got: Law, want: Law) -> None:
    """Both laws have one class, and every array field is None in both or
    equal bit for bit, shape included."""
    assert got.target is want.target
    for name, a, b in zip(ARRAYS, got, want):
        assert (a is None) == (b is None), name
        assert a is None or np.array_equal(a, b), name


def assert_grid_equals_point_by_point(model, grid, target):
    law = predict(model, grid, target)
    assert all(field is None or len(field) == len(grid) for field in law[:3])
    for k, ph in enumerate(grid):
        row = law._replace(
            **{name: field[k : k + 1] for name, field in zip(ARRAYS, law) if field is not None}
        )
        assert_same_law(row, predict(model, [ph], target))


def phase_grid(n: int = 5):
    values = np.linspace(0.0, 2.0 * math.pi, n)
    return [PhaseSettings(a, b, g) for a, b, g in itertools.product(values, repeat=3)]


class TestQmJoint:
    def test_long_class_distribution_at_zero_phases(self):
        # brute-force sum of the three tabulated amplitudes per outcome
        distribution = joint_at(Subensemble.LONG, PhaseSettings())
        expected = (1 / 12, 1 / 12, 3 / 4, 1 / 12)
        assert distribution == pytest.approx(expected, abs=1e-12)

    def test_entries_sum_to_one_for_both_classes(self):
        for sub in (Subensemble.LONG, Subensemble.SHORT):
            for ph in phase_grid():
                assert sum(joint_at(sub, ph).tolist()) == pytest.approx(1.0, abs=1e-9)

    def test_short_class_side1_marginal_at_aligned_phases(self):
        distribution = joint_at(Subensemble.SHORT, PhaseSettings(0.0, 0.0, 1.7))
        assert marginals(distribution)[0][0] == pytest.approx(5 / 6, abs=1e-12)

    @pytest.mark.parametrize(
        "sub", [Subensemble.SATELLITE_LONG, Subensemble.SATELLITE_SHORT]
    )
    def test_satellite_classes_are_rejected(self, sub):
        with pytest.raises(ValueError):
            joint_at(sub, PhaseSettings())


class TestMarginals:
    def test_side2_of_the_zero_phase_distribution(self):
        _, pair = marginals(joint(1 / 12, 1 / 12, 3 / 4, 1 / 12))
        assert pair == pytest.approx((5 / 6, 1 / 6), abs=1e-12)

    def test_side1_of_the_zero_phase_distribution(self):
        pair, _ = marginals(joint(1 / 12, 1 / 12, 3 / 4, 1 / 12))
        assert pair == pytest.approx((1 / 6, 5 / 6), abs=1e-12)

    def test_counts_are_divided_by_the_total(self):
        side1, side2 = marginals((1, 2, 3, 4), 10)
        assert side1.tolist() == [3 / 10, 7 / 10]
        assert side2.tolist() == [4 / 10, 6 / 10]

    def test_a_grid_folds_row_by_row(self):
        # the same additions as in Python floats, bit for bit
        rows = [(1 / 12, 1 / 12, 3 / 4, 1 / 12), (0.1, 0.2, 0.3, 0.4)]
        side1, side2 = marginals(np.array(rows))
        assert side1.tolist() == [[pp + pm, mp + mm] for pp, pm, mp, mm in rows]
        assert side2.tolist() == [[pp + mp, pm + mm] for pp, pm, mp, mm in rows]

    def test_uniform_and_degenerate_distributions(self):
        uniform = joint(0.25, 0.25, 0.25, 0.25)
        assert marginals(uniform)[0][0] == pytest.approx(0.5)
        assert marginals(uniform)[1][0] == pytest.approx(0.5)
        assert marginals(joint(1.0, 0.0, 0.0, 0.0))[1][0] == pytest.approx(1.0)
        assert marginals(joint(0.0, 0.0, 0.5, 0.5))[0][0] == pytest.approx(0.0)


class TestClosedForms:
    def test_spot_values(self):
        aligned = qm_singles_closed_form(Subensemble.LONG, Side.SIDE2, PhaseSettings())
        assert aligned == pytest.approx((5 / 6, 1 / 6), abs=1e-12)

        quarter = qm_singles_closed_form(
            Subensemble.LONG, Side.SIDE1, PhaseSettings(alpha=math.pi / 2)
        )
        assert quarter[0] == pytest.approx(0.5, abs=1e-12)

        opposed = qm_singles_closed_form(
            Subensemble.SHORT, Side.SIDE1, PhaseSettings(alpha=math.pi)
        )
        assert opposed == pytest.approx((1 / 6, 5 / 6), abs=1e-12)

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
            _, by_amplitudes = marginals(joint_at(Subensemble.LONG, ph))
            closed = qm_singles_closed_form(Subensemble.LONG, Side.SIDE2, ph)
            assert by_amplitudes[0] == pytest.approx(closed[0], abs=1e-9)

    def test_long_class_side1(self):
        for ph in phase_grid():
            by_amplitudes, _ = marginals(joint_at(Subensemble.LONG, ph))
            closed = qm_singles_closed_form(Subensemble.LONG, Side.SIDE1, ph)
            assert by_amplitudes[0] == pytest.approx(closed[0], abs=1e-9)

    def test_short_class_side1(self):
        for ph in phase_grid():
            by_amplitudes, _ = marginals(joint_at(Subensemble.SHORT, ph))
            closed = qm_singles_closed_form(Subensemble.SHORT, Side.SIDE1, ph)
            assert by_amplitudes[0] == pytest.approx(closed[0], abs=1e-9)

    def test_sequential_impact_singles(self):
        for ph in phase_grid():
            by_amplitudes = predict(CAUSAL_1, [ph]).side2[0]
            closed = causal_singles_side2_closed_form(ph)
            assert by_amplitudes[0] == pytest.approx(closed[0], abs=1e-9)
            assert by_amplitudes[1] == pytest.approx(closed[1], abs=1e-9)


class TestCausalRules:
    def test_side2_spot_values(self):
        # 1/6 from the lone path plus |two interfering paths|^2 = 4/6
        grid = [PhaseSettings(), PhaseSettings(beta=math.pi / 2), PhaseSettings(beta=math.pi)]
        aligned, vanishing, opposed = predict(CAUSAL_1, grid).side2
        assert aligned == pytest.approx((5 / 6, 1 / 6), abs=1e-12)
        assert vanishing[0] == pytest.approx(0.5, abs=1e-12)
        assert opposed == pytest.approx((1 / 6, 5 / 6), abs=1e-12)

    def test_side1_is_exactly_even_and_phase_free(self):
        side1 = predict(CAUSAL_2, phase_grid()).side1
        assert side1.shape == (len(phase_grid()), 2)
        assert (side1 == 0.5).all()

    def test_side2_agrees_with_the_superposition_rule(self):
        for ph in phase_grid():
            causal = predict(CAUSAL_1, [ph]).side2[0]
            qm = qm_singles_closed_form(Subensemble.LONG, Side.SIDE2, ph)
            assert causal[0] == pytest.approx(qm[0], abs=1e-9)

    def test_side1_conflict_with_the_superposition_rule(self):
        # at alpha + beta = 0 the two rules differ by exactly 1/3
        for alpha in (0.0, 1.1, -2.5):
            ph = PhaseSettings(alpha=alpha, beta=-alpha)
            qm = qm_singles_closed_form(Subensemble.LONG, Side.SIDE1, ph)
            gap = abs(qm[0] - predict(CAUSAL_2, [ph]).side1[0, 0])
            assert gap == pytest.approx(1 / 3, abs=1e-12)


@settings(max_examples=80)
@given(alpha=angle_strategy, beta=angle_strategy, gamma=angle_strategy)
def test_no_signalling_average_of_side1_across_classes(alpha, beta, gamma):
    # watching side 1 alone cannot reveal the selected class
    ph = PhaseSettings(alpha, beta, gamma)
    long_side1 = qm_singles_closed_form(Subensemble.LONG, Side.SIDE1, ph)
    short_side1 = qm_singles_closed_form(Subensemble.SHORT, Side.SIDE1, ph)
    assert (long_side1[0] + short_side1[0]) / 2 == pytest.approx(0.5, abs=1e-12)


@settings(max_examples=80)
@given(alpha=angle_strategy, beta=angle_strategy, gamma=angle_strategy)
def test_probability_outputs_are_well_formed(alpha, beta, gamma):
    ph = PhaseSettings(alpha, beta, gamma)
    for sub in (Subensemble.LONG, Subensemble.SHORT):
        distribution = joint_at(sub, ph)
        assert all(0.0 <= p <= 1.0 + 1e-12 for p in distribution.tolist())
        for pair in marginals(distribution):
            assert pair[0] + pair[1] == pytest.approx(1.0, abs=1e-9)


class TestPredict:
    def test_qm_gives_joint_and_both_marginals(self):
        law = predict(QM, [PhaseSettings()])
        assert law.joint is not None
        assert law.side1[0] == pytest.approx((1 / 6, 5 / 6), abs=1e-12)
        assert law.side2[0] == pytest.approx((5 / 6, 1 / 6), abs=1e-12)

    def test_qm_is_time_ordering_insensitive(self):
        ph = PhaseSettings(0.4, 1.9, -0.8)
        laws = [predict(TheoryModel(TheoryKind.QM, ordering), [ph]) for ordering in TimeOrdering]
        for law in laws:
            assert_same_law(law, laws[0])

    def test_causal_ordering_one_defines_only_side2(self):
        law = predict(CAUSAL_1, [PhaseSettings()])
        assert law.side1 is None
        assert law.joint is None
        assert law.side2[0, 0] == pytest.approx(5 / 6, abs=1e-12)

    def test_causal_ordering_two_defines_only_side1(self):
        for ph in (PhaseSettings(), PhaseSettings(2.2, -0.9, 0.3)):
            law = predict(CAUSAL_2, [ph])
            assert law.side2 is None
            assert law.joint is None
            assert law.side1[0].tolist() == [0.5, 0.5]

    def test_rnl_defines_both_singles_for_any_ordering(self):
        ph = PhaseSettings(beta=0.6, gamma=0.6)
        for ordering in TimeOrdering:
            law = predict(TheoryModel(TheoryKind.RNL, ordering), [ph])
            assert law.joint is None
            assert law.side1[0].tolist() == [0.5, 0.5]
            assert law.side2[0, 0] == pytest.approx(5 / 6, abs=1e-12)

    def test_qm_predicts_either_central_class(self):
        ph = PhaseSettings(0.0, 0.0, 1.7)
        short = predict(QM, [ph], Subensemble.SHORT)
        # the superposed law of the difference-l class's three path pairs
        rows = (CLASS_ROWS[Subensemble.SHORT],)
        assert np.array_equal(short.joint, interference_law(joint_amplitudes([ph]), rows))
        assert short.side1[0, 0] == pytest.approx(5 / 6, abs=1e-12)
        assert_same_law(predict(QM, [ph]), predict(QM, [ph], Subensemble.LONG))

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
                predict(model, [PhaseSettings()], target)

    def test_causal_model_rejects_spacelike_ordering(self, monkeypatch):
        # the model is a plain record; predict rejects it before any table is
        # evaluated (a non-finite phase, any target), and sample before any draw
        for name in ("_seed_words", "_pieces", "_sample_streams"):
            monkeypatch.setattr(montecarlo, name, lambda *args, name=name: pytest.fail(name))
        message = "causal predictions are defined only for time orderings 1 and 2"
        # the default ordering is spacelike
        for model in (TheoryModel(TheoryKind.CAUSAL, TimeOrdering.SPACELIKE),
                      TheoryModel(TheoryKind.CAUSAL)):
            for target in Subensemble:
                with pytest.raises(ValueError, match=message):
                    predict(model, [PhaseSettings(math.nan)], target)
            with pytest.raises(ValueError, match=message):
                montecarlo.sample([model], [PhaseSettings()], [0], 10)


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
        assert_grid_equals_point_by_point(model, grid, target)
        # a list of settings and a (points, 3) array are the same grid
        assert_same_law(predict(model, np.asarray(grid), target), predict(model, grid, target))

    @pytest.mark.parametrize("model, target", IN_DOMAIN)
    def test_tied_setting_as_a_grid_of_one(self, model, target):
        law = predict(model, [self.TIED], target)
        assert isinstance(law, Law)
        assert law.target is target
        for field, width in zip(law, (4, 2, 2)):
            assert field is None or field.shape == (1, width)
        assert_grid_equals_point_by_point(model, [self.TIED, self.TIED], target)

    @settings(max_examples=60)
    @given(
        case=st.sampled_from([param.values for param in IN_DOMAIN]),
        angles=st.lists(st.tuples(angle_strategy, angle_strategy, angle_strategy), max_size=12),
    )
    def test_drawn_grid_equals_point_by_point(self, case, angles):
        model, target = case
        grid = [PhaseSettings(*triple) for triple in angles]
        assert_grid_equals_point_by_point(model, grid, target)

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
        law = predict(model, self.SCAN_FINE)
        assert all(field is None or len(field) == len(self.SCAN_FINE) for field in law[:3])
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
            predict(model, [PhaseSettings()], target)
        # the domain is checked before any table is evaluated
        for table in ("joint_amplitudes", "single_amplitudes"):
            monkeypatch.setattr(theories, table, lambda phases: pytest.fail("table evaluated"))
        with pytest.raises(ValueError) as grid_error:
            predict(model, self.SCAN_FINE[:3], target)
        assert str(grid_error.value) == str(point_error.value)

    @pytest.mark.parametrize("model, target", IN_DOMAIN)
    def test_a_bare_setting_is_not_a_grid(self, model, target):
        # the tables take grids only, so every rule fails the same way
        with pytest.raises(TypeError):
            predict(model, PhaseSettings(0.3, 1.0, -0.5), target)

    @pytest.mark.parametrize(
        "grid", [["nonsense", None], [(math.inf, 0, 0)]], ids=["not-phases", "infinite"]
    )
    def test_a_rule_without_a_table_still_reads_its_grid(self, grid):
        # causal ordering 2's law is the constant 1/2, yet its grid is checked
        with pytest.raises(ValueError):
            predict(CAUSAL_2, grid)


class TestValueValidation:
    def test_singles_pair_must_sum_to_one(self):
        with pytest.raises(ValueError, match="singles probabilities must sum to 1"):
            Law(None, np.array([(0.7, 0.7)]), None, LONG).validated()
        with pytest.raises(ValueError, match=r"probability -0.2 outside \[0, 1\]"):
            Law(None, None, np.array([(-0.2, 1.2)]), LONG).validated()
        with pytest.raises(ValueError, match="singles must cover the . and . detectors"):
            Law(None, np.array([(0.5, 0.25, 0.25)]), None, LONG).validated()

    def test_joint_distribution_validation(self):
        with pytest.raises(ValueError, match="joint probabilities must sum to 1"):
            joint(0.5, 0.5, 0.5, 0.5)
        with pytest.raises(ValueError, match="joint probabilities must sum to 1"):
            joint(0.25, 0.25, 0.25, 0.25 + 1e-7)
        with pytest.raises(ValueError, match=r"probability 1.5 outside \[0, 1\]"):
            joint(1.5, -0.5, 0.0, 0.0)
        with pytest.raises(ValueError, match="must cover the four outcomes"):
            Law(np.array([(1.0,)]), None, None, LONG).validated()

    def test_nan_is_outside_the_unit_interval(self):
        with pytest.raises(ValueError, match=r"probability nan outside \[0, 1\]"):
            Law(None, np.array([(math.nan, 0.5)]), None, LONG).validated()

    BAD_ROWS = [
        pytest.param(QM, (1.5, 0.0, 0.0, 0.0), r"probability 1.5 outside \[0, 1\]", id="qm-entry"),
        pytest.param(QM, (0.3, 0.3, 0.3, 0.3), "joint probabilities must sum to 1", id="qm-sum"),
        pytest.param(RNL, (0.7, 0.7), "singles probabilities must sum to 1", id="rnl-sum"),
        pytest.param(CAUSAL_1, (0.7, 0.7), "singles probabilities must sum to 1", id="causal-sum"),
        pytest.param(RNL, (1.5, -0.5), r"probability 1.5 outside \[0, 1\]", id="rnl-entry"),
    ]

    @pytest.mark.parametrize("model, bad_row, message", BAD_ROWS)
    def test_every_grid_point_is_checked(self, model, bad_row, message, monkeypatch):
        # only the last point of the grid is bad, so a check of row 0 alone passes
        original = theories.interference_law

        def bad_at_point_2(amplitudes, groups):
            law = original(amplitudes, groups)
            law[2] = bad_row
            return law

        monkeypatch.setattr(theories, "interference_law", bad_at_point_2)
        with pytest.raises(ValueError, match=message):
            predict(model, [PhaseSettings(), PhaseSettings(0.3), PhaseSettings(0.6)])
