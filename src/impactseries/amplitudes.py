"""Closed-form probability amplitudes for the in-scope paths.

Joint amplitudes are tabulated for the six path pairs of the two central
arrival-time classes (difference ``L`` and difference ``l``); each class is
normalized to its own three pairs, which fixes every entry's magnitude at
``1/(2*sqrt(3))``.  Single-path amplitudes cover photon 2's three paths
``Ll``, ``lL`` and ``LL`` as if the setup carried only those paths, which
fixes their magnitude at ``1/sqrt(6)``.  The two satellite pairs ``(l,LL)``
and ``(L,ll)`` have no row; nothing in scope needs them.

Phase bookkeeping: ``alpha`` sits on photon 1's long arm, ``beta`` on the long
arm of photon 2's first interferometer, ``gamma`` on the second one.  Each
table is a pair of arrays: unit coefficients ``C[row, column]`` and integer
phase exponents ``K[row, (alpha, beta, gamma)]``, so entry ``(row, column)``
is ``magnitude * C[row, column] * exp(i * K[row] . phases)``.  The tables
take a grid of :class:`PhaseSettings` and add a leading point axis.  The
network derivation in :mod:`impactseries.bsnetwork` reproduces both tables
independently, in the same coefficient/exponent form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .pathspace import Arm2Path, PathPair, Subensemble, members

#: The three adjustable phases, in the column order of the exponent arrays.
PHASE_NAMES = ("alpha", "beta", "gamma")

#: Magnitude shared by every joint-table entry.
JOINT_MAGNITUDE = 1.0 / (2.0 * math.sqrt(3.0))

#: Magnitude shared by every single-path-table entry.
SINGLE_MAGNITUDE = 1.0 / math.sqrt(6.0)


@dataclass(frozen=True)
class PhaseSettings:
    """The three adjustable phases, in radians, on the long arms."""

    alpha: float = 0.0
    beta: float = 0.0
    gamma: float = 0.0

    def __post_init__(self) -> None:
        # rounding is monotonic, so this bounds every phase sum the tables form
        if not math.isfinite(abs(self.alpha) + abs(self.beta) + abs(self.gamma)):
            raise ValueError(
                f"phases alpha={self.alpha:g} beta={self.beta:g} gamma={self.gamma:g}: "
                "|alpha| + |beta| + |gamma| must be finite"
            )


#: Rows of the joint table: the difference-L class, then the difference-l class.
JOINT_PAIRS: tuple[PathPair, ...] = members(Subensemble.LONG) + members(Subensemble.SHORT)

#: Joint-table rows of each central class.
CLASS_ROWS: dict[Subensemble, tuple[int, ...]] = {
    Subensemble.LONG: (0, 1, 2),
    Subensemble.SHORT: (3, 4, 5),
}

# Columns in outcome order ++, +-, -+, --.
_JOINT_COEFFICIENTS = np.array(
    [
        [-1, 1j, -1j, -1],  # (l,lL)
        [-1, -1j, -1j, 1],  # (l,Ll)
        [1, -1j, -1j, -1],  # (L,LL)
        [1, 1j, 1j, -1],  # (l,ll)
        [1, -1j, -1j, -1],  # (L,lL)
        [1, 1j, -1j, 1],  # (L,Ll)
    ]
)
_JOINT_EXPONENTS = np.array(
    [[0, 0, 1], [0, 1, 0], [1, 1, 1], [0, 0, 0], [1, 0, 1], [1, 1, 0]]
)

#: Rows of the single-path table for photon 2.
SINGLE_PATHS = (Arm2Path.LONG_SHORT, Arm2Path.SHORT_LONG, Arm2Path.LONG_LONG)

#: Single-path rows that still interfere when photon 2 impacts first: Ll and
#: lL recombine, while LL is distinguishable at impact time.
SEQUENTIAL_GROUPS = ((0, 1), (2,))

# Columns in detector order +, -.
_SINGLE_COEFFICIENTS = np.array([[-1, -1j], [-1, 1j], [-1, 1j]])
_SINGLE_EXPONENTS = np.array([[0, 1, 0], [0, 0, 1], [0, 1, 1]])

def evaluate(
    coefficients: np.ndarray, exponents: np.ndarray, phases: Sequence[PhaseSettings]
) -> np.ndarray:
    """Entry ``(point, row, column)`` is ``coefficients[row, column] * exp(i *
    exponents[row] . phases[point])``.

    The exponent sum runs over an outer axis, term by term in phase order, so
    a grid's tables and grids of one agree bit for bit.
    """
    values = (value for p in phases for value in (p.alpha, p.beta, p.gamma))
    phi = np.fromiter(values, float, len(phases) * len(PHASE_NAMES)).reshape(-1, len(PHASE_NAMES))
    angle = (phi.T[:, :, None] * exponents.T[:, None, :]).sum(axis=0)
    return coefficients * np.exp(1j * angle)[..., None]


def joint_amplitudes(phases: Sequence[PhaseSettings]) -> np.ndarray:
    """The joint table at each point of ``phases``: rows :data:`JOINT_PAIRS`, columns outcomes."""
    return evaluate(_JOINT_COEFFICIENTS * JOINT_MAGNITUDE, _JOINT_EXPONENTS, phases)


def single_amplitudes(phases: Sequence[PhaseSettings]) -> np.ndarray:
    """The single-path table at each point of ``phases``: rows :data:`SINGLE_PATHS`, signs +, -."""
    return evaluate(_SINGLE_COEFFICIENTS * SINGLE_MAGNITUDE, _SINGLE_EXPONENTS, phases)


def interference_law(
    amplitudes: np.ndarray, groups: Sequence[Sequence[int]]
) -> np.ndarray:
    """Per column, the sum over ``groups`` of ``|sum of the group's rows|^2``.

    Rows within a group are indistinguishable and add as amplitudes; distinct
    groups are distinguishable and add as probabilities.  Rows are the
    second-to-last axis, so a grid of tables gives one law per point.
    """
    return sum(np.abs(amplitudes[..., list(group), :].sum(axis=-2)) ** 2 for group in groups)

