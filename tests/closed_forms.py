"""Cosine closed forms of the singles, as a second route to the laws.

:mod:`impactseries.theories` computes every law through the amplitude tables;
the closed forms here are written out by hand from the fringe formulas, so the
tests can check the two routes against each other.
"""

import math
from enum import Enum, unique

from impactseries.amplitudes import PhaseSettings
from impactseries.pathspace import Subensemble
from impactseries.theories import SinglesPair


@unique
class Side(Enum):
    """Which side's closed form :func:`qm_singles_closed_form` returns."""

    SIDE1 = 1
    SIDE2 = 2


def qm_singles_closed_form(
    sub: Subensemble, side: Side, phases: PhaseSettings
) -> SinglesPair:
    """Cosine-fringe closed forms for the superposition-rule singles.

    Covers (difference-L, side 2), (difference-L, side 1) and
    (difference-l, side 1).  The fourth combination has no closed form here;
    compute it through :func:`qm_joint` and :func:`marginals` instead.
    """
    if sub is Subensemble.LONG and side is Side.SIDE2:
        shift = math.cos(phases.beta - phases.gamma) / 3.0
        return SinglesPair(0.5 + shift, 0.5 - shift)
    if sub is Subensemble.LONG and side is Side.SIDE1:
        shift = math.cos(phases.alpha + phases.beta) / 3.0
        return SinglesPair(0.5 - shift, 0.5 + shift)
    if sub is Subensemble.SHORT and side is Side.SIDE1:
        shift = math.cos(phases.alpha + phases.beta) / 3.0
        return SinglesPair(0.5 + shift, 0.5 - shift)
    raise ValueError(
        f"no closed form for ({sub.value}, side {side.value}); use qm_joint + marginals"
    )


def causal_singles_side2_closed_form(phases: PhaseSettings) -> SinglesPair:
    """Cosine closed form equivalent to :func:`causal_singles_side2`."""
    shift = math.cos(phases.beta - phases.gamma) / 3.0
    return SinglesPair(0.5 + shift, 0.5 - shift)
