"""First-principles derivation of the amplitude tables from splitter cascades.

Every path amplitude is a product of elementary factors: a complex
transmission or reflection coefficient at each splitter and ``exp(i*phase)``
on each phased arm.  The wiring of the cascade is data, described by a small
plain-text format, so alternative readings of the optical layout can be tried
against the hand-coded tables in :mod:`impactseries.amplitudes`.

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
within-class amplitude ratios and on probabilities only; absolute phases are
unphysical and are never asserted.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from enum import Enum, unique
from pathlib import Path
from typing import Callable, Sequence, Union

import numpy as np

from .amplitudes import (
    CLASS_ROWS,
    JOINT_MAGNITUDE,
    JOINT_PAIRS,
    PHASE_NAMES,
    SEQUENTIAL_GROUPS,
    SINGLE_MAGNITUDE,
    SINGLE_PATHS,
    PhaseSettings,
    interference_law,
    joint_amplitudes,
    single_amplitudes,
)
from .pathspace import OUTCOMES, Arm, Arm2Path, Sign, Subensemble

_UNITARITY_TOL = 1e-12
_INV_SQRT2 = 1.0 / math.sqrt(2.0)

PORTS = ("a", "b")


@dataclass(frozen=True)
class SplitterConvention:
    """Transmission/reflection amplitudes of the (identical) splitters."""

    t: complex = complex(_INV_SQRT2, 0.0)
    r: complex = complex(0.0, _INV_SQRT2)

    def is_unitary(self, tol: float = _UNITARITY_TOL) -> bool:
        norm = abs(abs(self.t) ** 2 + abs(self.r) ** 2 - 1.0)
        cross = abs(self.t * self.r.conjugate() + self.r * self.t.conjugate())
        return norm <= tol and cross <= tol

    def require_unitary(self) -> None:
        if not self.is_unitary():
            raise ValueError(
                "splitter convention is not unitary: need |t|^2+|r|^2 = 1 "
                "and t*conj(r) + r*conj(t) = 0"
            )


@unique
class SplitterAction(Enum):
    TRANSMIT = "t"
    REFLECT = "r"


@dataclass(frozen=True)
class PhaseShift:
    angle: float


Segment = Union[SplitterAction, PhaseShift]
PathTrace = tuple[Segment, ...]


def trace_amplitude(trace: PathTrace, convention: SplitterConvention) -> complex:
    """Product of the per-element factors along one path."""
    amplitude = complex(1.0, 0.0)
    for segment in trace:
        if segment is SplitterAction.TRANSMIT:
            amplitude *= convention.t
        elif segment is SplitterAction.REFLECT:
            amplitude *= convention.r
        else:
            amplitude *= complex(math.cos(segment.angle), math.sin(segment.angle))
    return amplitude


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
    straight_short = ArmWiring("a", "a")
    return Geometry(
        photon1=PhotonWiring(
            source_port="a",
            stages=(Stage(straight_short, ArmWiring("b", "b", "alpha")),),
            detector_plus="a",
            detector_minus="b",
        ),
        photon2=PhotonWiring(
            source_port="a",
            stages=(
                Stage(straight_short, ArmWiring("b", "b", "beta")),
                Stage(straight_short, ArmWiring("b", "b", "gamma")),
            ),
            detector_plus="a",
            detector_minus="b",
        ),
    )


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


def path_trace(
    wiring: PhotonWiring,
    arms: Sequence[Arm],
    detector: Sign,
    phases: PhaseSettings,
) -> PathTrace:
    """Element sequence for one choice of arms ending at one detector."""
    if len(arms) != len(wiring.stages):
        raise ValueError("one arm choice is needed per stage")
    segments: list[Segment] = []
    port = wiring.source_port
    for stage, arm in zip(wiring.stages, arms):
        chosen = stage.short if arm is Arm.SHORT else stage.long
        segments.append(
            SplitterAction.TRANSMIT if chosen.out_port == port else SplitterAction.REFLECT
        )
        if chosen.phase is not None:
            segments.append(PhaseShift(getattr(phases, chosen.phase)))
        port = chosen.in_port
    detector_port = wiring.detector_plus if detector is Sign.PLUS else wiring.detector_minus
    segments.append(
        SplitterAction.TRANSMIT if detector_port == port else SplitterAction.REFLECT
    )
    return tuple(segments)


def _renormalized(table: np.ndarray) -> np.ndarray:
    total = float(np.sum(np.abs(table) ** 2))
    if total <= 0.0:
        raise ValueError("cascade yields zero total probability; cannot renormalize")
    return table * (1.0 / math.sqrt(total))


def derive_tables(
    geometry: Geometry,
    convention: SplitterConvention,
    phases: PhaseSettings,
) -> tuple[np.ndarray, np.ndarray]:
    """Path-by-path amplitudes of the cascade at the given phase settings.

    Returns the joint and single-path tables in the shapes of
    :func:`~impactseries.amplitudes.joint_amplitudes` and
    :func:`~impactseries.amplitudes.single_amplitudes`: joint rows are
    renormalized within each arrival-time class, single-path rows over
    photon 2's paths Ll, lL, LL.
    """
    convention.require_unitary()
    if len(geometry.photon1.stages) != 1 or len(geometry.photon2.stages) != 2:
        raise ValueError(
            "reference tables need one stage for photon 1 and two for photon 2"
        )

    def amplitude(wiring: PhotonWiring, arms: Sequence[Arm], sign: Sign) -> complex:
        return trace_amplitude(path_trace(wiring, arms, sign, phases), convention)

    amp1 = {
        (arm, sign): amplitude(geometry.photon1, (arm,), sign) for arm in Arm for sign in Sign
    }
    amp2 = {
        (path, sign): amplitude(geometry.photon2, (path.first, path.second), sign)
        for path in Arm2Path
        for sign in Sign
    }
    joint = np.array(
        [
            [amp1[pair.photon1, outcome.sigma] * amp2[pair.photon2, outcome.omega]
             for outcome in OUTCOMES]
            for pair in JOINT_PAIRS
        ]
    )
    for rows in CLASS_ROWS.values():
        joint[list(rows)] = _renormalized(joint[list(rows)])
    single = np.array([[amp2[path, sign] for sign in Sign] for path in SINGLE_PATHS])
    return joint, _renormalized(single)


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


# Grid intentionally mixes symmetric and incommensurate angles.
_DEFAULT_GRID_VALUES = (0.0, 0.7, 1.9, math.pi, 4.4)


def default_phase_grid() -> tuple[PhaseSettings, ...]:
    return tuple(
        PhaseSettings(a, b, g)
        for a in _DEFAULT_GRID_VALUES
        for b in _DEFAULT_GRID_VALUES
        for g in _DEFAULT_GRID_VALUES
    )


class _Check:
    """Accumulates deviations and remembers the first point past tolerance."""

    def __init__(self, name: str, tolerance: float) -> None:
        self.name = name
        self.tolerance = tolerance
        self.max_deviation = 0.0
        self.first_mismatch: str | None = None

    def record(
        self, deviations: np.ndarray, describe: Callable[[int, int], str]
    ) -> None:
        """Fold in a (row, column) array of deviations."""
        self.max_deviation = max(self.max_deviation, float(deviations.max()))
        failed = deviations > self.tolerance
        if self.first_mismatch is None and failed.any():
            row, column = np.unravel_index(np.argmax(failed), failed.shape)
            self.first_mismatch = describe(row, column)

    def result(self) -> CheckResult:
        return CheckResult(
            name=self.name,
            max_deviation=self.max_deviation,
            tolerance=self.tolerance,
            passed=self.max_deviation <= self.tolerance,
            first_mismatch=self.first_mismatch,
        )


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


def _class_group(sub: Subensemble) -> _Group:
    names = tuple(
        f"joint {check}, difference-{sub.value} class"
        for check in ("magnitudes", "amplitude ratios", "probabilities")
    )
    rows = CLASS_ROWS[sub]
    labels = tuple(JOINT_PAIRS[row].label for row in rows)
    return _Group(
        names, 0, rows, (rows,), JOINT_MAGNITUDE, labels, tuple(o.value for o in OUTCOMES)
    )


_GROUPS = (
    _class_group(Subensemble.LONG),
    _class_group(Subensemble.SHORT),
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


def _phase_label(phases: PhaseSettings) -> str:
    return f"alpha={phases.alpha:.6g} beta={phases.beta:.6g} gamma={phases.gamma:.6g}"


def validate_against_reference(
    geometry: Geometry,
    convention: SplitterConvention,
    phase_grid: Sequence[PhaseSettings] | None = None,
    tolerance: float = 1e-9,
) -> OracleReport:
    """Compare the cascade-derived tables against the hand-coded ones.

    Three row groups are checked the same way: the difference-L class and
    the difference-l class of the joint table, and the single-path table.
    Per group: entry magnitudes, amplitude ratios relative to the group's
    first row, and the probability law that superposes the group's
    interfering rows (the sequential-impact law for the single-path table).
    Ratios and probabilities are global-phase-free, so a cascade matching
    them reproduces the tables in every physical respect.
    """
    if phase_grid is None:
        phase_grid = default_phase_grid()
    checks = {name: _Check(name, tolerance) for group in _GROUPS for name in group.names}

    for phases in phase_grid:
        derived_tables = derive_tables(geometry, convention, phases)
        reference_tables = (joint_amplitudes(phases), single_amplitudes(phases))
        at = _phase_label(phases)
        for group in _GROUPS:
            rows, columns = group.row_labels, group.column_labels
            derived = derived_tables[group.table][list(group.rows)]
            reference = reference_tables[group.table][list(group.rows)]
            magnitudes, ratios, law = (checks[name] for name in group.names)

            magnitudes.record(
                np.abs(np.abs(derived) - group.magnitude),
                lambda i, j: f"|A{columns[j]}{rows[i]}| = {abs(derived[i, j]):.12g}, "
                f"expected {group.magnitude:.12g} at {at}",
            )
            derived_ratio = derived[1:] / derived[0]
            reference_ratio = reference[1:] / reference[0]
            ratios.record(
                np.abs(derived_ratio - reference_ratio),
                lambda i, j: f"A{columns[j]}{rows[i + 1]}/A{columns[j]}{rows[0]}: "
                f"derived {derived_ratio[i, j]:.9g}, reference {reference_ratio[i, j]:.9g} "
                f"at {at}",
            )
            derived_p = interference_law(derived_tables[group.table], group.law_groups)
            reference_p = interference_law(reference_tables[group.table], group.law_groups)
            law.record(
                np.abs(derived_p - reference_p)[None, :],
                lambda _, j: f"P({columns[j]}): derived {derived_p[j]:.12g}, "
                f"reference {reference_p[j]:.12g} at {at}",
            )

    return OracleReport(checks=tuple(check.result() for check in checks.values()))
