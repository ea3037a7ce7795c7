"""Cosine closed forms of the singles, as a second route to the laws.

:mod:`impactseries.theories` computes every law through the amplitude tables;
the closed forms here are written out by hand from the fringe formulas, so the
tests can check the two routes against each other.
"""

import math
from enum import Enum, unique

from impactseries.amplitudes import PhaseSettings
from impactseries.pathspace import Subensemble


@unique
class Side(Enum):
    """Which side's closed form :func:`qm_singles_closed_form` returns."""

    SIDE1 = 1
    SIDE2 = 2


def qm_singles_closed_form(
    sub: Subensemble, side: Side, phases: PhaseSettings
) -> tuple[float, float]:
    """Cosine-fringe closed forms for the superposition-rule singles, as ``(p_plus, p_minus)``.

    Covers (difference-L, side 2), (difference-L, side 1) and
    (difference-l, side 1).  The fourth combination has no closed form here;
    compute it through :func:`predict` instead.
    """
    if sub is Subensemble.LONG and side is Side.SIDE2:
        shift = math.cos(phases.beta - phases.gamma) / 3.0
        return (0.5 + shift, 0.5 - shift)
    if sub is Subensemble.LONG and side is Side.SIDE1:
        shift = math.cos(phases.alpha + phases.beta) / 3.0
        return (0.5 - shift, 0.5 + shift)
    if sub is Subensemble.SHORT and side is Side.SIDE1:
        shift = math.cos(phases.alpha + phases.beta) / 3.0
        return (0.5 + shift, 0.5 - shift)
    raise ValueError(
        f"no closed form for ({sub.value}, side {side.value}); use predict"
    )


def causal_singles_side2_closed_form(phases: PhaseSettings) -> tuple[float, float]:
    """Cosine closed form of the causal rule's side-2 singles, as ``(p_plus, p_minus)``."""
    shift = math.cos(phases.beta - phases.gamma) / 3.0
    return (0.5 + shift, 0.5 - shift)
