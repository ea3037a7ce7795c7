"""Rival prediction rules for the impact-series experiment.

Three models are implemented.

* ``QM``: amplitudes of the three indistinguishable path pairs of a
  subensemble are summed before squaring, for any time ordering.
* ``Causal``: the photon impacting first must act on local information only.
  Under ordering 1 (photon 2 first) its two recombining paths interfere at
  first order while the path distinguishable at impact time adds as a
  probability; under ordering 2 (photon 1 first) the arm taken remains
  knowable, so photon 1's counts split 50/50.  The later photon's singles are
  left undefined (they depend on the particular causal completion).
* ``RNL``: singles depend on local information under every time ordering, so
  the causal sum-of-probabilities rules apply even for spacelike impacts.

Every printed closed form has a second, independent route through the
amplitude tables; the two routes are cross-checked in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum, unique
from typing import Mapping

from .amplitudes import (
    CLASS_ROWS,
    SEQUENTIAL_GROUPS,
    PhaseSettings,
    interference_law,
    joint_amplitudes,
    single_amplitudes,
)
from .pathspace import OUTCOMES, Outcome, Subensemble, TimeOrdering

_PROBABILITY_TOL = 1e-9


@unique
class Side(Enum):
    """Which side of the setup a singles probability refers to."""

    SIDE1 = 1
    SIDE2 = 2


@dataclass(frozen=True)
class SinglesPair:
    """Marginal detection probabilities for one side's two detectors."""

    p_plus: float
    p_minus: float
    side: Side

    def __post_init__(self) -> None:
        for value in (self.p_plus, self.p_minus):
            if not -_PROBABILITY_TOL <= value <= 1.0 + _PROBABILITY_TOL:
                raise ValueError(f"probability {value} outside [0, 1]")
        if abs(self.p_plus + self.p_minus - 1.0) > _PROBABILITY_TOL:
            raise ValueError("singles probabilities must sum to 1")


@dataclass(frozen=True)
class JointDistribution:
    """Probabilities of the four joint outcomes; entries sum to 1."""

    p: Mapping[Outcome, float]

    def __post_init__(self) -> None:
        if set(self.p) != set(OUTCOMES):
            raise ValueError("joint distribution must cover the four outcomes")
        for value in self.p.values():
            if not -_PROBABILITY_TOL <= value <= 1.0 + _PROBABILITY_TOL:
                raise ValueError(f"probability {value} outside [0, 1]")
        if abs(sum(self.p.values()) - 1.0) > _PROBABILITY_TOL:
            raise ValueError("joint probabilities must sum to 1")

    def as_tuple(self) -> tuple[float, float, float, float]:
        """Entries in canonical outcome order (++, +-, -+, --)."""
        return tuple(self.p[outcome] for outcome in OUTCOMES)


@unique
class TheoryKind(Enum):
    QM = "qm"
    CAUSAL = "causal"
    RNL = "rnl"


@dataclass(frozen=True)
class TheoryModel:
    """A prediction rule together with the time ordering it is applied to."""

    kind: TheoryKind
    ordering: TimeOrdering = TimeOrdering.SPACELIKE

    def __post_init__(self) -> None:
        if self.kind is TheoryKind.CAUSAL and self.ordering is TimeOrdering.SPACELIKE:
            raise ValueError(
                "causal predictions are defined only for time orderings 1 and 2"
            )


@dataclass(frozen=True)
class Prediction:
    """Analytic output of a model; fields the model leaves open are None."""

    side1: SinglesPair | None
    side2: SinglesPair | None
    joint: JointDistribution | None


def qm_joint(sub: Subensemble, phases: PhaseSettings) -> JointDistribution:
    """Joint outcome distribution from superposed path-pair amplitudes.

    Available for the difference-L and difference-l classes only; the
    satellite classes have a single member and no amplitude table.
    """
    if sub not in CLASS_ROWS:
        raise ValueError(f"no amplitude table for satellite class {sub.value}")
    p = interference_law(joint_amplitudes(phases), (CLASS_ROWS[sub],))
    return JointDistribution(dict(zip(OUTCOMES, p.tolist())))


def marginal_side1(joint: JointDistribution) -> SinglesPair:
    """Photon 1's singles from a joint distribution."""
    p_plus = joint.p[Outcome.PLUS_PLUS] + joint.p[Outcome.PLUS_MINUS]
    p_minus = joint.p[Outcome.MINUS_PLUS] + joint.p[Outcome.MINUS_MINUS]
    return SinglesPair(p_plus, p_minus, Side.SIDE1)


def marginal_side2(joint: JointDistribution) -> SinglesPair:
    """Photon 2's singles from a joint distribution."""
    p_plus = joint.p[Outcome.PLUS_PLUS] + joint.p[Outcome.MINUS_PLUS]
    p_minus = joint.p[Outcome.PLUS_MINUS] + joint.p[Outcome.MINUS_MINUS]
    return SinglesPair(p_plus, p_minus, Side.SIDE2)


def qm_singles_closed_form(
    sub: Subensemble, side: Side, phases: PhaseSettings
) -> SinglesPair:
    """Cosine-fringe closed forms for the superposition-rule singles.

    Covers (difference-L, side 2), (difference-L, side 1) and
    (difference-l, side 1).  The fourth combination has no closed form here;
    compute it through :func:`qm_joint` and a marginal instead.
    """
    if sub is Subensemble.LONG and side is Side.SIDE2:
        shift = math.cos(phases.beta - phases.gamma) / 3.0
        return SinglesPair(0.5 + shift, 0.5 - shift, Side.SIDE2)
    if sub is Subensemble.LONG and side is Side.SIDE1:
        shift = math.cos(phases.alpha + phases.beta) / 3.0
        return SinglesPair(0.5 - shift, 0.5 + shift, Side.SIDE1)
    if sub is Subensemble.SHORT and side is Side.SIDE1:
        shift = math.cos(phases.alpha + phases.beta) / 3.0
        return SinglesPair(0.5 + shift, 0.5 - shift, Side.SIDE1)
    raise ValueError(
        f"no closed form for ({sub.value}, side {side.value}); use qm_joint + marginal"
    )


def causal_singles_side2(phases: PhaseSettings) -> SinglesPair:
    """Photon 2's singles under the causal rule, from the single-path table.

    Applies when photon 2 impacts first: the paths Ll and lL stay mutually
    indistinguishable and interfere, while LL is distinguishable at impact
    time and contributes as a plain probability.
    """
    p_plus, p_minus = interference_law(single_amplitudes(phases), SEQUENTIAL_GROUPS).tolist()
    return SinglesPair(p_plus, p_minus, Side.SIDE2)


def causal_singles_side2_closed_form(phases: PhaseSettings) -> SinglesPair:
    """Cosine closed form equivalent to :func:`causal_singles_side2`."""
    shift = math.cos(phases.beta - phases.gamma) / 3.0
    return SinglesPair(0.5 + shift, 0.5 - shift, Side.SIDE2)


def causal_singles_side1() -> SinglesPair:
    """Photon 1's singles under the causal rule when it impacts first.

    The arm photon 1 took remains knowable afterwards, so the alternatives
    add as probabilities and the counts split evenly, independent of every
    phase setting.
    """
    return SinglesPair(0.5, 0.5, Side.SIDE1)


def predict(
    model: TheoryModel, phases: PhaseSettings, target: Subensemble = Subensemble.LONG
) -> Prediction:
    """Analytic prediction of ``model`` for the ``target`` arrival-time class.

    QM yields the joint distribution and both marginals for either central
    class.  The causal rule yields only the first-impacting photon's singles
    and leaves the rest undefined.  RNL yields both singles (causal rules
    under every ordering) but no joint distribution.  The causal rules are
    built from the difference-L class's paths, so any other target is a
    ``ValueError``.
    """
    if model.kind is TheoryKind.QM:
        joint = qm_joint(target, phases)
        return Prediction(
            side1=marginal_side1(joint), side2=marginal_side2(joint), joint=joint
        )
    if target is not Subensemble.LONG:
        raise ValueError(
            f"the {model.kind.value} rule is defined for the difference-L class only, "
            f"not {target.value}"
        )
    if model.kind is TheoryKind.CAUSAL:
        if model.ordering is TimeOrdering.PHOTON2_FIRST:
            return Prediction(side1=None, side2=causal_singles_side2(phases), joint=None)
        return Prediction(side1=causal_singles_side1(), side2=None, joint=None)
    # RNL applies the causal singles rules under any time ordering.
    return Prediction(
        side1=causal_singles_side1(),
        side2=causal_singles_side2(phases),
        joint=None,
    )
