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

Every four-outcome quantity (a joint law, or counts of the four outcomes) is
a 4-tuple in ``OUTCOMES`` order (++, +-, -+, --); :func:`marginals` folds one
into the two sides' singles.  Every law here is computed through the amplitude
tables.  The cosine closed forms that the CLI's rule labels state are written
out in the test suite (``tests/closed_forms.py``) as a second, independent
route, and the tests cross-check the two.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, unique
from typing import Sequence

from .amplitudes import (
    CLASS_ROWS,
    SEQUENTIAL_GROUPS,
    Phases,
    PhaseSettings,
    interference_law,
    joint_amplitudes,
    single_amplitudes,
)
from .pathspace import OUTCOMES, Subensemble, TimeOrdering

_PROBABILITY_TOL = 1e-9


@dataclass(frozen=True)
class SinglesPair:
    """Marginal detection probabilities for one side's two detectors."""

    p_plus: float
    p_minus: float

    def __post_init__(self) -> None:
        for value in (self.p_plus, self.p_minus):
            if not -_PROBABILITY_TOL <= value <= 1.0 + _PROBABILITY_TOL:
                raise ValueError(f"probability {value} outside [0, 1]")
        if abs(self.p_plus + self.p_minus - 1.0) > _PROBABILITY_TOL:
            raise ValueError("singles probabilities must sum to 1")


@dataclass(frozen=True)
class JointDistribution:
    """Probabilities of the four joint outcomes in ``OUTCOMES`` order; they sum to 1."""

    p: tuple[float, float, float, float]

    def __post_init__(self) -> None:
        if len(self.p) != len(OUTCOMES):
            raise ValueError("joint distribution must cover the four outcomes")
        for value in self.p:
            if not -_PROBABILITY_TOL <= value <= 1.0 + _PROBABILITY_TOL:
                raise ValueError(f"probability {value} outside [0, 1]")
        if abs(sum(self.p) - 1.0) > _PROBABILITY_TOL:
            raise ValueError("joint probabilities must sum to 1")


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


def qm_joint(sub: Subensemble, phases: Phases) -> JointDistribution | list[JointDistribution]:
    """Joint outcome distribution from superposed path-pair amplitudes.

    Available for the difference-L and difference-l classes only; the
    satellite classes have a single member and no amplitude table.  A grid of
    settings gives one distribution per point from one table evaluation.
    """
    if sub not in CLASS_ROWS:
        raise ValueError(f"no amplitude table for satellite class {sub.value}")
    law = interference_law(joint_amplitudes(phases), (CLASS_ROWS[sub],)).tolist()
    if isinstance(phases, PhaseSettings):
        return JointDistribution(tuple(law))
    return [JointDistribution(tuple(p)) for p in law]


def marginals(
    weights: Sequence[float], total: float = 1
) -> tuple[SinglesPair, SinglesPair]:
    """Side-1 and side-2 singles of four ``OUTCOMES``-ordered weights.

    Each side's sums are divided by ``total``: 1 for a joint law, the
    accepted count for a tally's counters.
    """
    pp, pm, mp, mm = weights
    return (
        SinglesPair((pp + pm) / total, (mp + mm) / total),
        SinglesPair((pp + mp) / total, (pm + mm) / total),
    )


def causal_singles_side2(phases: Phases) -> SinglesPair | list[SinglesPair]:
    """Photon 2's singles under the causal rule, from the single-path table.

    Applies when photon 2 impacts first: the paths Ll and lL stay mutually
    indistinguishable and interfere, while LL is distinguishable at impact
    time and contributes as a plain probability.  A grid of settings gives
    one pair per point from one table evaluation.
    """
    law = interference_law(single_amplitudes(phases), SEQUENTIAL_GROUPS).tolist()
    if isinstance(phases, PhaseSettings):
        return SinglesPair(*law)
    return [SinglesPair(*p) for p in law]


def causal_singles_side1() -> SinglesPair:
    """Photon 1's singles under the causal rule when it impacts first.

    The arm photon 1 took remains knowable afterwards, so the alternatives
    add as probabilities and the counts split evenly, independent of every
    phase setting.
    """
    return SinglesPair(0.5, 0.5)


def predict(
    model: TheoryModel, phases: Phases, target: Subensemble = Subensemble.LONG
) -> Prediction | list[Prediction]:
    """Analytic prediction of ``model`` for the ``target`` arrival-time class.

    QM yields the joint distribution and both marginals for either central
    class.  The causal rule yields only the first-impacting photon's singles
    and leaves the rest undefined.  RNL yields both singles (causal rules
    under every ordering) but no joint distribution.  The causal rules are
    built from the difference-L class's paths, so any other target is a
    ``ValueError``, raised before any table is evaluated.  A grid (a sequence
    of settings) gives a list with one prediction per point, from one table
    evaluation for the whole grid; a setting is a grid of one.
    """
    grid = [phases] if isinstance(phases, PhaseSettings) else list(phases)
    if model.kind is TheoryKind.QM:
        predictions = [Prediction(*marginals(j.p), joint=j) for j in qm_joint(target, grid)]
    elif target is not Subensemble.LONG:
        raise ValueError(
            f"the {model.kind.value} rule is defined for the difference-L class only, "
            f"not {target.value}"
        )
    else:
        # the causal rule defines only the first-impacting photon's singles; RNL
        # applies the causal rules to both photons under any time ordering
        first = model.ordering if model.kind is TheoryKind.CAUSAL else None
        side1 = None if first is TimeOrdering.PHOTON2_FIRST else causal_singles_side1()
        side2 = (
            [None] * len(grid) if first is TimeOrdering.PHOTON1_FIRST else causal_singles_side2(grid)
        )
        predictions = [Prediction(side1=side1, side2=s2, joint=None) for s2 in side2]
    return predictions[0] if isinstance(phases, PhaseSettings) else predictions
