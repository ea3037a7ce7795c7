"""Amplitude tables: tabulated values, sign relations, normalization."""

import cmath
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from impactseries.amplitudes import (
    JOINT_MAGNITUDE,
    JOINT_PAIRS,
    SINGLE_MAGNITUDE,
    SINGLE_PATHS,
    PhaseSettings,
    joint_amplitudes,
    single_amplitudes,
)
from impactseries.pathspace import (
    OUTCOMES,
    Arm,
    Arm2Path,
    Outcome,
    PathPair,
    Sign,
    Subensemble,
    members,
)

TOL = 1e-12

C = JOINT_MAGNITUDE  # 1/(2*sqrt(3))
S = SINGLE_MAGNITUDE  # 1/sqrt(6)

phases_strategy = st.floats(min_value=-8 * math.pi, max_value=8 * math.pi)


def pair(label1: str, label2: str) -> PathPair:
    return PathPair(Arm(label1), Arm2Path(label2))


def joint_entry(p: PathPair, outcome: Outcome, ph: PhaseSettings) -> complex:
    return complex(joint_amplitudes(ph)[JOINT_PAIRS.index(p), OUTCOMES.index(outcome)])


def single_entry(path: Arm2Path, sign: Sign, ph: PhaseSettings) -> complex:
    return complex(single_amplitudes(ph)[SINGLE_PATHS.index(path), list(Sign).index(sign)])


def phase_grid(n: int = 5):
    values = np.linspace(0.0, 2.0 * math.pi, n)
    return [
        PhaseSettings(a, b, g) for a, b, g in itertools.product(values, repeat=3)
    ]


class TestTabulatedValues:
    def test_long_class_spot_values(self):
        zero = PhaseSettings()
        assert joint_entry(pair("l", "Ll"), Outcome.PLUS_PLUS, zero) == pytest.approx(
            -C, abs=TOL
        )
        assert joint_entry(pair("L", "LL"), Outcome.PLUS_PLUS, zero) == pytest.approx(
            C, abs=TOL
        )
        # the +i coefficient rotated by gamma = pi/2 lands on the negative real axis
        quarter = PhaseSettings(gamma=math.pi / 2)
        assert joint_entry(
            pair("l", "lL"), Outcome.PLUS_MINUS, quarter
        ) == pytest.approx(-C, abs=TOL)

    def test_short_class_spot_values(self):
        for ph in (PhaseSettings(), PhaseSettings(1.3, -0.4, 2.9)):
            assert joint_entry(
                pair("l", "ll"), Outcome.PLUS_PLUS, ph
            ) == pytest.approx(C, abs=TOL)
        assert joint_entry(
            pair("L", "Ll"), Outcome.PLUS_MINUS, PhaseSettings(gamma=0.8)
        ) == pytest.approx(1j * C, abs=TOL)
        assert joint_entry(
            pair("L", "lL"), Outcome.MINUS_MINUS, PhaseSettings(beta=1.1)
        ) == pytest.approx(-C, abs=TOL)

    def test_single_path_spot_values(self):
        zero = PhaseSettings()
        assert single_entry(Arm2Path.LONG_SHORT, Sign.PLUS, zero) == pytest.approx(
            -S, abs=TOL
        )
        assert single_entry(Arm2Path.LONG_LONG, Sign.PLUS, zero) == pytest.approx(
            -S, abs=TOL
        )
        quarter = PhaseSettings(gamma=math.pi / 2)
        assert single_entry(Arm2Path.SHORT_LONG, Sign.MINUS, quarter) == pytest.approx(
            -S, abs=TOL
        )

    def test_phase_exponents(self):
        ph = PhaseSettings(0.7, -1.2, 2.1)
        assert joint_entry(pair("l", "Ll"), Outcome.PLUS_PLUS, ph) == pytest.approx(
            -C * cmath.exp(1j * ph.beta), abs=TOL
        )
        assert joint_entry(pair("L", "LL"), Outcome.PLUS_PLUS, ph) == pytest.approx(
            C * cmath.exp(1j * (ph.alpha + ph.beta + ph.gamma)), abs=TOL
        )
        assert joint_entry(pair("L", "lL"), Outcome.PLUS_PLUS, ph) == pytest.approx(
            C * cmath.exp(1j * (ph.alpha + ph.gamma)), abs=TOL
        )
        assert single_entry(Arm2Path.LONG_LONG, Sign.MINUS, ph) == pytest.approx(
            1j * S * cmath.exp(1j * (ph.beta + ph.gamma)), abs=TOL
        )


class TestSignRelations:
    # (pair, equal outcome pairs, opposite outcome pairs)
    CASES = [
        (("l", "Ll"),
         [(Outcome.PLUS_MINUS, Outcome.MINUS_PLUS)],
         [(Outcome.PLUS_PLUS, Outcome.MINUS_MINUS)]),
        (("l", "lL"),
         [(Outcome.PLUS_PLUS, Outcome.MINUS_MINUS)],
         [(Outcome.PLUS_MINUS, Outcome.MINUS_PLUS)]),
        (("L", "LL"),
         [(Outcome.PLUS_MINUS, Outcome.MINUS_PLUS)],
         [(Outcome.PLUS_PLUS, Outcome.MINUS_MINUS)]),
        (("l", "ll"),
         [(Outcome.PLUS_MINUS, Outcome.MINUS_PLUS)],
         [(Outcome.PLUS_PLUS, Outcome.MINUS_MINUS)]),
        (("L", "lL"),
         [(Outcome.PLUS_MINUS, Outcome.MINUS_PLUS)],
         [(Outcome.PLUS_PLUS, Outcome.MINUS_MINUS)]),
        (("L", "Ll"),
         [(Outcome.PLUS_PLUS, Outcome.MINUS_MINUS)],
         [(Outcome.PLUS_MINUS, Outcome.MINUS_PLUS)]),
    ]

    @pytest.mark.parametrize("labels, equal, opposite", CASES)
    def test_relations_hold_over_dense_grid(self, labels, equal, opposite):
        p = pair(*labels)
        for ph in phase_grid():
            for first, second in equal:
                assert joint_entry(p, first, ph) == pytest.approx(
                    joint_entry(p, second, ph), abs=TOL
                )
            for first, second in opposite:
                assert joint_entry(p, first, ph) == pytest.approx(
                    -joint_entry(p, second, ph), abs=TOL
                )


class TestNormalization:
    @pytest.mark.parametrize("sub", [Subensemble.LONG, Subensemble.SHORT])
    def test_superposed_class_probability_is_one(self, sub):
        for ph in phase_grid():
            total = sum(
                abs(sum(joint_entry(p, outcome, ph) for p in members(sub))) ** 2
                for outcome in OUTCOMES
            )
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_single_table_squares_sum_to_one(self):
        for ph in phase_grid():
            total = sum(
                abs(single_entry(path, sign, ph)) ** 2
                for path in (Arm2Path.LONG_SHORT, Arm2Path.SHORT_LONG, Arm2Path.LONG_LONG)
                for sign in Sign
            )
            assert total == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=60)
@given(alpha=phases_strategy, beta=phases_strategy, gamma=phases_strategy)
def test_magnitudes_are_phase_independent(alpha, beta, gamma):
    ph = PhaseSettings(alpha, beta, gamma)
    for sub in (Subensemble.LONG, Subensemble.SHORT):
        for p in members(sub):
            for outcome in OUTCOMES:
                assert abs(joint_entry(p, outcome, ph)) == pytest.approx(C, abs=TOL)
    for path in (Arm2Path.LONG_SHORT, Arm2Path.SHORT_LONG, Arm2Path.LONG_LONG):
        for sign in Sign:
            assert abs(single_entry(path, sign, ph)) == pytest.approx(S, abs=TOL)


@settings(max_examples=60)
@given(
    alpha=phases_strategy,
    beta=phases_strategy,
    gamma=phases_strategy,
    shifted=st.sampled_from(["alpha", "beta", "gamma"]),
)
def test_two_pi_periodicity_in_each_phase(alpha, beta, gamma, shifted):
    base = PhaseSettings(alpha, beta, gamma)
    bumped = PhaseSettings(
        **{
            name: getattr(base, name) + (2 * math.pi if name == shifted else 0.0)
            for name in ("alpha", "beta", "gamma")
        }
    )
    p = pair("L", "LL")
    assert joint_entry(p, Outcome.MINUS_PLUS, bumped) == pytest.approx(
        joint_entry(p, Outcome.MINUS_PLUS, base), abs=1e-12
    )
    assert single_entry(Arm2Path.LONG_LONG, Sign.MINUS, bumped) == pytest.approx(
        single_entry(Arm2Path.LONG_LONG, Sign.MINUS, base), abs=1e-12
    )


class TestContracts:
    @pytest.mark.parametrize("labels", [("l", "LL"), ("L", "ll")])
    def test_joint_table_rejects_the_satellite_pairs(self, labels):
        assert pair(*labels) not in JOINT_PAIRS

    def test_single_table_rejects_the_double_short_path(self):
        assert Arm2Path.SHORT_SHORT not in SINGLE_PATHS

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_phases_must_be_finite(self, bad):
        with pytest.raises(ValueError):
            PhaseSettings(alpha=bad)

    @pytest.mark.parametrize(
        "phases", [(1e308, 1e308, 0.0), (0.0, -1e308, 1e308), (6e307, 6e307, -6e307)]
    )
    def test_phase_magnitudes_must_have_a_finite_sum(self, phases):
        # every phase is finite, but a sum the tables form may overflow
        with pytest.raises(ValueError, match="alpha.*beta.*gamma"):
            PhaseSettings(*phases)
        PhaseSettings(*(phase / 2 for phase in phases))
