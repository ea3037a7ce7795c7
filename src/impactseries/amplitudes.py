"""Closed-form probability amplitudes for the in-scope paths.

Joint amplitudes cover the six path pairs of the two central arrival-time
classes, each class normalized to its own three pairs; single-path
amplitudes cover photon 2's paths ``Ll``, ``lL`` and ``LL`` as if the setup
carried only those.  The satellite pairs ``(l,LL)`` and ``(L,ll)`` have no
row; nothing in scope needs them.  Each table is unit coefficients
``C[row, column]`` and integer phase exponents ``K[row, (alpha, beta,
gamma)]``: entry ``(row, column)`` is ``magnitude * C[row, column] * exp(i *
K[row] . phases)``, with a leading point axis for the grid's points.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from .pathspace import Arm2Path, PathPair, Subensemble, members

#: The three adjustable phases, in the column order of the exponent arrays.
PHASE_NAMES = ("alpha", "beta", "gamma")

#: Magnitude shared by every joint-table entry.
JOINT_MAGNITUDE = 1.0 / (2.0 * math.sqrt(3.0))

#: Magnitude shared by every single-path-table entry.
SINGLE_MAGNITUDE = 1.0 / math.sqrt(6.0)


class PhaseSettings(NamedTuple):
    """The three adjustable phases, in radians, on the long arms."""

    alpha: float = 0.0
    beta: float = 0.0
    gamma: float = 0.0


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

    ``phases``, settings or a ``(points, 3)`` array, is checked here: a grid
    that is not numbers is a ``ValueError``, a bare setting or any other shape
    a ``TypeError``, and a point whose ``|alpha| + |beta| + |gamma|`` is not
    finite a ``ValueError``.  The exponent sum runs over an outer axis, term by
    term in phase order, so a grid's tables and grids of one agree bit for bit.
    """
    try:
        phi = np.asarray(phases, dtype=float)
    except (TypeError, ValueError):
        raise ValueError("phases must be a grid of (alpha, beta, gamma) numbers") from None
    if phi.shape[1:] != (len(PHASE_NAMES),) and phi.shape != (0,):
        raise TypeError("phases must be a grid of settings; pass one setting as [phases]")
    phi = phi.reshape(-1, len(PHASE_NAMES))
    # rounding is monotonic, so this bounds every phase sum the tables form
    with np.errstate(over="ignore"):
        bad = ~np.isfinite(np.abs(phi).sum(axis=1))
    if bad.any():
        alpha, beta, gamma = phi[bad.argmax()].tolist()
        message = f"phases alpha={alpha:g} beta={beta:g} gamma={gamma:g}: "
        raise ValueError(message + "|alpha| + |beta| + |gamma| must be finite")
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

