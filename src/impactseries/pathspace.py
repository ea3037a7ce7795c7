"""Discrete path and outcome vocabulary for the two-photon impact-series setup
(README "The setup in brief").

Arm lengths stay symbolic throughout: only the ordering
``2l-L < l < L < 2L-l`` of the path differences that name the arrival-time
classes matters here, never metric lengths.
"""

from __future__ import annotations

from enum import Enum, unique
from typing import NamedTuple


@unique
class Arm(Enum):
    """One arm of an unbalanced interferometer."""

    SHORT = "l"
    LONG = "L"


@unique
class Arm2Path(Enum):
    """Photon 2's two-segment path through the interferometer series."""

    SHORT_SHORT = "ll"
    SHORT_LONG = "lL"
    LONG_SHORT = "Ll"
    LONG_LONG = "LL"

    @property
    def first(self) -> Arm:
        return Arm(self.value[0])

    @property
    def second(self) -> Arm:
        return Arm(self.value[1])


class PathPair(NamedTuple):
    """Joint path label: photon 1's arm plus photon 2's two-segment path."""

    photon1: Arm
    photon2: Arm2Path

    @property
    def label(self) -> str:
        return f"({self.photon1.value},{self.photon2.value})"


@unique
class Sign(Enum):
    """Detector label on one side of the setup."""

    PLUS = "+"
    MINUS = "-"


@unique
class Outcome(Enum):
    """Joint detector outcome (photon 1 sign, photon 2 sign)."""

    PLUS_PLUS = "++"
    PLUS_MINUS = "+-"
    MINUS_PLUS = "-+"
    MINUS_MINUS = "--"


#: Canonical outcome order used for tuples, counters and output columns.
OUTCOMES: tuple[Outcome, ...] = tuple(Outcome)


@unique
class Subensemble(Enum):
    """Arrival-time class of a path pair, labelled by its path difference."""

    SATELLITE_LONG = "2L-l"
    LONG = "L"
    SHORT = "l"
    SATELLITE_SHORT = "2l-L"


@unique
class TimeOrdering(Enum):
    """Relative timing of the splitter impacts, fixed by delay lines.

    ``PHOTON2_FIRST``: photon 2's final impact precedes photon 1's impact.
    ``PHOTON1_FIRST``: photon 1's impact precedes photon 2's first impact.
    ``SPACELIKE``: no impact lies in the other's light cone.
    """

    PHOTON2_FIRST = "1"
    PHOTON1_FIRST = "2"
    SPACELIKE = "spacelike"


#: All 8 path pairs in canonical order: photon 1 varies slowest (l before L);
#: photon 2 runs ll, lL, Ll, LL.
_PATH_PAIRS = tuple(PathPair(arm, path) for arm in Arm for path in Arm2Path)


def _difference_coefficients(pair: PathPair) -> tuple[int, int]:
    # Photon 2's total length minus photon 1's, as integer multiples of (L, l).
    n_long_2 = sum(1 for seg in (pair.photon2.first, pair.photon2.second) if seg is Arm.LONG)
    n_long_1 = 1 if pair.photon1 is Arm.LONG else 0
    coeff_long = n_long_2 - n_long_1
    coeff_short = (2 - n_long_2) - (1 - n_long_1)
    return coeff_long, coeff_short


_CLASS_BY_COEFFICIENTS = {
    (2, -1): Subensemble.SATELLITE_LONG,
    (1, 0): Subensemble.LONG,
    (0, 1): Subensemble.SHORT,
    (-1, 2): Subensemble.SATELLITE_SHORT,
}


def classify(pair: PathPair) -> Subensemble:
    """Arrival-time class of ``pair``, from the symbolic length difference."""
    return _CLASS_BY_COEFFICIENTS[_difference_coefficients(pair)]


_MEMBERS = {
    sub: tuple(pair for pair in _PATH_PAIRS if classify(pair) is sub)
    for sub in Subensemble
}


def members(sub: Subensemble) -> tuple[PathPair, ...]:
    """Path pairs belonging to ``sub``, in canonical order."""
    return _MEMBERS[sub]
