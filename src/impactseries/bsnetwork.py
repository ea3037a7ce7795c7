"""First-principles derivation of the amplitude tables from splitter cascades.

Every path amplitude is a splitter factor times integer phase exponents:
the product of the complex transmission or reflection coefficient at each
splitter it passes, times ``exp(i * k . (alpha, beta, gamma))`` where ``k``
counts each named phase on its arms.  That is the coefficient/exponent form
of the hand-coded tables in :mod:`impactseries.amplitudes`, so the cascade
is walked once per derivation and evaluated at one phase setting or over a
whole grid.  The wiring of the cascade is data, described by a small
plain-text format, so alternative readings of the optical layout can be
tried against the hand-coded tables.

Network model. Each photon crosses a chain of two-port splitters with ports
``a`` and ``b``; consecutive splitters are connected by a short and a long
arm (one stage), and the long arm may carry one of the named phases.  Photon
1 has one stage; photon 2 has two, with the middle splitter shared between
them, which is the default reading of the layout (it reproduces the reference
tables; a chain with a separate exit and entrance splitter in the middle does
not).  Detectors sit on the two output ports of the last splitter.

Geometry file format (``#`` starts a comment)::

    photon1.source = a              # port the photon enters the first splitter on
    photon1.stage1.short = a->a     # leaves splitter 1 on out-port a, enters splitter 2 on in-port a
    photon1.stage1.long  = b->b phase=alpha
    photon1.detector.plus  = a      # out-port of the last splitter
    photon1.detector.minus = b
    photon2.source = a
    photon2.stage1.short = a->a
    photon2.stage1.long  = b->b phase=beta
    photon2.stage2.short = a->a
    photon2.stage2.long  = b->b phase=gamma
    photon2.detector.plus  = a
    photon2.detector.minus = b

Derived tables are compared with the reference ones on magnitudes, on
within-class amplitude ratios and on probabilities only, over the whole phase
grid in one array pass; absolute phases are unphysical and are never
asserted.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from itertools import product
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .amplitudes import (
    CLASS_ROWS,
    JOINT_MAGNITUDE,
    JOINT_PAIRS,
    PHASE_NAMES,
    SEQUENTIAL_GROUPS,
    SINGLE_MAGNITUDE,
    SINGLE_PATHS,
    Phases,
    PhaseSettings,
    evaluate,
    interference_law,
    joint_amplitudes,
    single_amplitudes,
)
from .pathspace import OUTCOMES, Arm, Sign

_UNITARITY_TOL = 1e-12
_INV_SQRT2 = 1.0 / math.sqrt(2.0)

PORTS = ("a", "b")


@dataclass(frozen=True)
class SplitterConvention:
    """Transmission/reflection amplitudes of the (identical) splitters."""

    t: complex = complex(_INV_SQRT2, 0.0)
    r: complex = complex(0.0, _INV_SQRT2)

    def require_unitary(self) -> None:
        norm = abs(abs(self.t) ** 2 + abs(self.r) ** 2 - 1.0)
        cross = abs(self.t * self.r.conjugate() + self.r * self.t.conjugate())
        if not (norm <= _UNITARITY_TOL and cross <= _UNITARITY_TOL):
            raise ValueError(
                "splitter convention is not unitary: need |t|^2+|r|^2 = 1 "
                "and t*conj(r) + r*conj(t) = 0"
            )


@dataclass(frozen=True)
class ArmWiring:
    """One arm: out-port it leaves on, in-port it arrives on, optional phase."""

    out_port: str
    in_port: str
    phase: str | None = None

    def __post_init__(self) -> None:
        if self.out_port not in PORTS or self.in_port not in PORTS:
            raise ValueError(f"ports must be one of {PORTS}")
        if self.phase is not None and self.phase not in PHASE_NAMES:
            raise ValueError(f"phase must be one of {PHASE_NAMES}")


@dataclass(frozen=True)
class Stage:
    short: ArmWiring
    long: ArmWiring

    def __post_init__(self) -> None:
        if self.short.out_port == self.long.out_port:
            raise ValueError(
                f"both arms leave on out-port {self.short.out_port}; "
                f"the other out-port dangles"
            )
        if self.short.in_port == self.long.in_port:
            raise ValueError(
                f"both arms arrive on in-port {self.short.in_port}; "
                f"the other in-port dangles"
            )


@dataclass(frozen=True)
class PhotonWiring:
    """A photon's splitter cascade: source port, stages, detector ports."""

    source_port: str
    stages: tuple[Stage, ...]
    detector_plus: str
    detector_minus: str

    def __post_init__(self) -> None:
        if self.source_port not in PORTS:
            raise ValueError(f"source port must be one of {PORTS}")
        if not self.stages:
            raise ValueError("a cascade needs at least one stage")
        if self.detector_plus not in PORTS or self.detector_minus not in PORTS:
            raise ValueError(f"detector ports must be one of {PORTS}")
        if self.detector_plus == self.detector_minus:
            raise ValueError("both detectors on one out-port; the other dangles")


@dataclass(frozen=True)
class Geometry:
    photon1: PhotonWiring
    photon2: PhotonWiring


def default_geometry() -> Geometry:
    """Straight wiring with the middle splitter of photon 2's chain shared."""

    def straight(*phases: str) -> PhotonWiring:
        stages = tuple(Stage(ArmWiring("a", "a"), ArmWiring("b", "b", phase)) for phase in phases)
        return PhotonWiring(source_port="a", stages=stages, detector_plus="a", detector_minus="b")

    return Geometry(photon1=straight("alpha"), photon2=straight("beta", "gamma"))


_ARM_PATTERN = re.compile(
    r"^(?P<out>[ab])\s*->\s*(?P<in>[ab])(?:\s+phase=(?P<phase>\w+))?$"
)


def parse_geometry(text: str) -> Geometry:
    """Parse the plain-text wiring format documented in the module docstring."""
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in entries:
            raise ValueError(f"line {lineno}: duplicate key {key!r}")
        entries[key] = value

    def take(key: str) -> str:
        if key not in entries:
            raise ValueError(f"missing geometry entry {key!r}")
        return entries.pop(key)

    def arm(key: str) -> ArmWiring:
        value = take(key)
        match = _ARM_PATTERN.match(value)
        if match is None:
            raise ValueError(f"{key}: cannot parse arm wiring {value!r}")
        return ArmWiring(match["out"], match["in"], match["phase"])

    def photon(prefix: str) -> PhotonWiring:
        source = take(f"{prefix}.source")
        stages = []
        index = 1
        while f"{prefix}.stage{index}.short" in entries or f"{prefix}.stage{index}.long" in entries:
            stages.append(
                Stage(arm(f"{prefix}.stage{index}.short"), arm(f"{prefix}.stage{index}.long"))
            )
            index += 1
        return PhotonWiring(
            source_port=source,
            stages=tuple(stages),
            detector_plus=take(f"{prefix}.detector.plus"),
            detector_minus=take(f"{prefix}.detector.minus"),
        )

    geometry = Geometry(photon1=photon("photon1"), photon2=photon("photon2"))
    if entries:
        raise ValueError(f"unrecognized geometry entries: {sorted(entries)}")
    return geometry


def load_geometry(path: str | Path) -> Geometry:
    return parse_geometry(Path(path).read_text(encoding="utf-8"))


def walk_path(
    wiring: PhotonWiring,
    arms: Sequence[Arm],
    detector: Sign,
    convention: SplitterConvention,
) -> tuple[complex, tuple[int, ...]]:
    """Splitter factor and phase exponents of one choice of arms ending at one detector.

    The factor multiplies ``t`` at each splitter the photon leaves on the
    port it arrived on and ``r`` at each other one; the exponents count each
    of :data:`PHASE_NAMES` on the chosen arms.  The path's amplitude is
    ``factor * exp(i * exponents . phases)``.
    """
    if len(arms) != len(wiring.stages):
        raise ValueError("one arm choice is needed per stage")
    factor = complex(1.0, 0.0)
    exponents = [0] * len(PHASE_NAMES)
    port = wiring.source_port
    for stage, arm in zip(wiring.stages, arms):
        chosen = stage.short if arm is Arm.SHORT else stage.long
        factor *= convention.t if chosen.out_port == port else convention.r
        if chosen.phase is not None:
            exponents[PHASE_NAMES.index(chosen.phase)] += 1
        port = chosen.in_port
    detector_port = wiring.detector_plus if detector is Sign.PLUS else wiring.detector_minus
    factor *= convention.t if detector_port == port else convention.r
    return factor, tuple(exponents)


def _renormalized(coefficients: np.ndarray) -> np.ndarray:
    total = float(np.sum(np.abs(coefficients) ** 2))
    if total <= 0.0:
        raise ValueError("cascade yields zero total probability; cannot renormalize")
    return coefficients * (1.0 / math.sqrt(total))


def _walks(
    wiring: PhotonWiring, arm_choices: Sequence[Sequence[Arm]], convention: SplitterConvention
) -> tuple[np.ndarray, np.ndarray]:
    """Factors ``[choice, sign]`` and exponents ``[choice, phase]`` of one photon's paths."""
    # Phases sit on arms, not on detectors: both signs walk the same exponents.
    walks = [[walk_path(wiring, arms, sign, convention) for sign in Sign] for arms in arm_choices]
    factors = np.array([[factor for factor, _ in row] for row in walks])
    return factors, np.array([row[0][1] for row in walks])


def derive_tables(
    geometry: Geometry,
    convention: SplitterConvention,
    phases: Phases,
) -> tuple[np.ndarray, np.ndarray]:
    """Path-by-path amplitudes of the cascade at one phase setting or over a grid.

    Returns the joint and single-path tables in the shapes of
    :func:`~impactseries.amplitudes.joint_amplitudes` and
    :func:`~impactseries.amplitudes.single_amplitudes`: joint rows are
    renormalized within each arrival-time class, single-path rows over
    photon 2's paths Ll, lL, LL.  The cascade is walked once into
    coefficients and exponents; every phase factor has modulus 1, so one
    renormalization of the coefficients serves every phase setting.
    """
    convention.require_unitary()
    if len(geometry.photon1.stages) != 1 or len(geometry.photon2.stages) != 2:
        raise ValueError(
            "reference tables need one stage for photon 1 and two for photon 2"
        )
    arms1 = [(pair.photon1,) for pair in JOINT_PAIRS]
    arms2 = [(pair.photon2.first, pair.photon2.second) for pair in JOINT_PAIRS]
    factors1, exponents1 = _walks(geometry.photon1, arms1, convention)
    factors2, exponents2 = _walks(geometry.photon2, arms2, convention)
    # Outcome columns ++, +-, -+, --: photon 1's sign, then photon 2's.
    joint = (factors1[:, :, None] * factors2[:, None, :]).reshape(len(JOINT_PAIRS), len(OUTCOMES))
    for rows in CLASS_ROWS.values():
        joint[list(rows)] = _renormalized(joint[list(rows)])
    single_arms = [(path.first, path.second) for path in SINGLE_PATHS]
    single, single_exponents = _walks(geometry.photon2, single_arms, convention)
    return (
        evaluate(joint, exponents1 + exponents2, phases),
        evaluate(_renormalized(single), single_exponents, phases),
    )


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one validation check, aggregated over a phase grid."""

    name: str
    max_deviation: float
    tolerance: float
    passed: bool
    first_mismatch: str | None = None


@dataclass(frozen=True)
class OracleReport:
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)


#: Largest deviation a check passes with, in every check.
_TOLERANCE = 1e-9

# Grid intentionally mixes symmetric and incommensurate angles.
_DEFAULT_GRID_VALUES = (0.0, 0.7, 1.9, math.pi, 4.4)


def default_phase_grid() -> tuple[PhaseSettings, ...]:
    """Every combination of the grid values, alpha-major, then beta, then gamma."""
    return tuple(PhaseSettings(*point) for point in product(_DEFAULT_GRID_VALUES, repeat=3))


@dataclass(frozen=True)
class _Group:
    """Rows of one table that are checked together.

    ``rows`` are compared on magnitudes and on ratios to their first row;
    ``law_groups`` are the interfering row groups of the probability law.
    """

    names: tuple[str, ...]  # magnitude, ratio and law check names
    table: int  # 0: joint table, 1: single-path table
    rows: tuple[int, ...]
    law_groups: tuple[tuple[int, ...], ...]
    magnitude: float
    row_labels: tuple[str, ...]
    column_labels: tuple[str, ...]


_GROUPS = tuple(
    _Group(
        names=tuple(
            f"joint {check}, difference-{sub.value} class"
            for check in ("magnitudes", "amplitude ratios", "probabilities")
        ),
        table=0,
        rows=rows,
        law_groups=(rows,),
        magnitude=JOINT_MAGNITUDE,
        row_labels=tuple(JOINT_PAIRS[row].label for row in rows),
        column_labels=tuple(outcome.value for outcome in OUTCOMES),
    )
    for sub, rows in CLASS_ROWS.items()
) + (
    _Group(
        names=("single-path magnitudes", "single-path amplitude ratios",
               "sequential-impact singles probabilities"),
        table=1,
        rows=tuple(range(len(SINGLE_PATHS))),
        law_groups=SEQUENTIAL_GROUPS,
        magnitude=SINGLE_MAGNITUDE,
        row_labels=tuple(f"({path.value})" for path in SINGLE_PATHS),
        column_labels=tuple(sign.value for sign in Sign),
    ),
)


def _check(
    name: str,
    deviations: np.ndarray,
    grid: Sequence[PhaseSettings],
    describe: Callable[[int, int, int], str],
) -> CheckResult:
    """Aggregate a ``(point, row, column)`` array of deviations.

    The first mismatch is the first entry past tolerance in point-major,
    then row, then column order.
    """
    failed = deviations > _TOLERANCE
    first_mismatch = None
    if failed.any():
        point, row, column = np.unravel_index(np.argmax(failed), failed.shape)
        at = " ".join(f"{phase}={getattr(grid[point], phase):.6g}" for phase in PHASE_NAMES)
        first_mismatch = f"{describe(point, row, column)} at {at}"
    max_deviation = float(deviations.max(initial=0.0))
    return CheckResult(name, max_deviation, _TOLERANCE, first_mismatch is None, first_mismatch)


def validate_against_reference(
    geometry: Geometry,
    convention: SplitterConvention,
    phase_grid: Sequence[PhaseSettings] | None = None,
) -> OracleReport:
    """Compare the cascade-derived tables against the hand-coded ones.

    Three row groups are checked the same way: the difference-L class and
    the difference-l class of the joint table, and the single-path table.
    Per group: entry magnitudes, amplitude ratios relative to the group's
    first row, and the probability law that superposes the group's
    interfering rows (the sequential-impact law for the single-path table).
    Ratios and probabilities are global-phase-free, so a cascade matching
    them reproduces the tables in every physical respect.  Each check is
    one array comparison over the whole phase grid.
    """
    grid = default_phase_grid() if phase_grid is None else tuple(phase_grid)
    derived_tables = derive_tables(geometry, convention, grid)
    reference_tables = (joint_amplitudes(grid), single_amplitudes(grid))
    checks = []
    for group in _GROUPS:
        rows, columns = group.row_labels, group.column_labels
        derived = derived_tables[group.table][:, list(group.rows)]
        reference = reference_tables[group.table][:, list(group.rows)]
        magnitudes = np.abs(derived)
        derived_ratio = derived[:, 1:] / derived[:, :1]
        reference_ratio = reference[:, 1:] / reference[:, :1]
        derived_p = interference_law(derived_tables[group.table], group.law_groups)
        reference_p = interference_law(reference_tables[group.table], group.law_groups)
        magnitude_name, ratio_name, law_name = group.names
        checks += (
            _check(
                magnitude_name, np.abs(magnitudes - group.magnitude), grid,
                lambda p, i, j: f"|A{columns[j]}{rows[i]}| = {magnitudes[p, i, j]:.12g}, "
                f"expected {group.magnitude:.12g}",
            ),
            _check(
                ratio_name, np.abs(derived_ratio - reference_ratio), grid,
                lambda p, i, j: f"A{columns[j]}{rows[i + 1]}/A{columns[j]}{rows[0]}: "
                f"derived {derived_ratio[p, i, j]:.9g}, "
                f"reference {reference_ratio[p, i, j]:.9g}",
            ),
            _check(
                law_name, np.abs(derived_p - reference_p)[:, None, :], grid,
                lambda p, _, j: f"P({columns[j]}): derived {derived_p[p, j]:.12g}, "
                f"reference {reference_p[p, j]:.12g}",
            ),
        )
    return OracleReport(checks=tuple(checks))
