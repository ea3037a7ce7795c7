"""First-principles derivation of the amplitude tables from splitter cascades.

The cascade is walked once per derivation into splitter factors and integer
phase exponents, the coefficient/exponent form of the hand-coded tables in
:mod:`impactseries.amplitudes`, and both are evaluated over a whole phase grid
and compared (README "Oracle geometry files").  The wiring is data, in the
format documented in ``geometries/default.geom``.
"""

from __future__ import annotations

import math
import re
from itertools import product
from typing import Callable, NamedTuple, Sequence

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
    evaluate,
    interference_law,
    joint_amplitudes,
    single_amplitudes,
)
from .pathspace import OUTCOMES, Arm, Sign

_UNITARITY_TOL = 1e-12
_INV_SQRT2 = 1.0 / math.sqrt(2.0)

_PORTS = ("a", "b")


class SplitterConvention(NamedTuple):
    """Transmission/reflection amplitudes of the (identical) splitters."""

    t: complex = complex(_INV_SQRT2, 0.0)
    r: complex = complex(0.0, _INV_SQRT2)

    def require_unitary(self) -> None:
        norm = abs((self.t * self.t.conjugate() + self.r * self.r.conjugate()).real - 1.0)
        cross = abs(self.t * self.r.conjugate() + self.r * self.t.conjugate())
        if not (norm <= _UNITARITY_TOL and cross <= _UNITARITY_TOL):
            raise ValueError(
                "splitter convention is not unitary: need |t|^2+|r|^2 = 1 "
                "and t*conj(r) + r*conj(t) = 0"
            )


class ArmWiring(NamedTuple):
    """One arm: out-port it leaves on, in-port it arrives on, optional phase."""

    out_port: str
    in_port: str
    phase: str | None = None


class Stage(NamedTuple):
    short: ArmWiring
    long: ArmWiring


class PhotonWiring(NamedTuple):
    """A photon's splitter cascade: source port, stages, detector ports."""

    source_port: str
    stages: tuple[Stage, ...]
    detector_plus: str
    detector_minus: str


class Geometry(NamedTuple):
    photon1: PhotonWiring
    photon2: PhotonWiring


def _check_wiring(geometry: Geometry) -> None:
    """Raise ``ValueError`` at the first wiring fault of ``geometry``: photon
    by photon, each stage's arms, then the stage, then the source and detector
    ports; the stage counts, which the reference tables fix, come last."""
    for photon in geometry:
        for short, long in photon.stages:
            for arm in (short, long):
                if arm.out_port not in _PORTS or arm.in_port not in _PORTS:
                    raise ValueError(f"ports must be one of {_PORTS}")
                if arm.phase is not None and arm.phase not in PHASE_NAMES:
                    raise ValueError(f"phase must be one of {PHASE_NAMES}")
            if short.out_port == long.out_port:
                raise ValueError(
                    f"both arms leave on out-port {short.out_port}; the other out-port dangles"
                )
            if short.in_port == long.in_port:
                raise ValueError(
                    f"both arms arrive on in-port {short.in_port}; the other in-port dangles"
                )
        if photon.source_port not in _PORTS:
            raise ValueError(f"source port must be one of {_PORTS}")
        if photon.detector_plus not in _PORTS or photon.detector_minus not in _PORTS:
            raise ValueError(f"detector ports must be one of {_PORTS}")
        if photon.detector_plus == photon.detector_minus:
            raise ValueError("both detectors on one out-port; the other dangles")
    if [len(photon.stages) for photon in geometry] != [1, 2]:
        raise ValueError("reference tables need one stage for photon 1 and two for photon 2")


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
    """Parse the wiring format documented in ``geometries/default.geom``; a
    line, entry or wiring fault is a ``ValueError``."""
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
    _check_wiring(geometry)
    if entries:
        raise ValueError(f"unrecognized geometry entries: {sorted(entries)}")
    return geometry


def _renormalized(coefficients: np.ndarray) -> np.ndarray:
    total = float(np.sum(np.abs(coefficients) ** 2))
    if total <= 0.0:
        raise ValueError("cascade yields zero total probability; cannot renormalize")
    return coefficients * (1.0 / math.sqrt(total))


def _walks(
    wiring: PhotonWiring, arm_choices: Sequence[Sequence[Arm]], convention: SplitterConvention
) -> tuple[np.ndarray, np.ndarray]:
    """Factors ``[choice, sign]`` and exponents ``[choice, phase]`` of one
    photon's paths, one choice of arms per path and one arm per stage.

    A factor multiplies ``t`` at each splitter the photon leaves on the port
    it arrived on and ``r`` at each other one, the last splitter, where the
    sign's detector sits, included; the exponents count each of
    :data:`PHASE_NAMES` on the chosen arms.  A path's amplitude is ``factor * exp(i * exponents .
    phases)``.  A phase sits on an arm, not on a detector, so both signs share
    the choice's exponents.
    """
    factors, exponents = [], []
    for arms in arm_choices:
        factor = complex(1.0, 0.0)
        counts = [0] * len(PHASE_NAMES)
        port = wiring.source_port
        for stage, arm in zip(wiring.stages, arms, strict=True):
            chosen = stage.short if arm is Arm.SHORT else stage.long
            factor *= convention.t if chosen.out_port == port else convention.r
            if chosen.phase is not None:
                counts[PHASE_NAMES.index(chosen.phase)] += 1
            port = chosen.in_port
        factors.append([
            factor * (convention.t if detector == port else convention.r)
            for detector in (wiring.detector_plus, wiring.detector_minus)
        ])
        exponents.append(counts)
    return np.array(factors), np.array(exponents)


def derive_tables(
    geometry: Geometry,
    convention: SplitterConvention,
    phases: Sequence[PhaseSettings],
) -> tuple[np.ndarray, np.ndarray]:
    """Path-by-path amplitudes of the cascade over the phase grid ``phases``,
    as the joint and single-path tables in the shapes of
    :func:`~impactseries.amplitudes.joint_amplitudes` and
    :func:`~impactseries.amplitudes.single_amplitudes`: joint rows
    renormalized within each arrival-time class, single-path rows over
    photon 2's paths Ll, lL, LL.  A non-unitary convention, a wiring fault or
    a cascade of zero total is a ``ValueError``.
    """
    convention.require_unitary()
    _check_wiring(geometry)
    arms1 = [(pair.photon1,) for pair in JOINT_PAIRS]
    arms2 = [(pair.photon2.first, pair.photon2.second) for pair in JOINT_PAIRS]
    factors1, exponents1 = _walks(geometry.photon1, arms1, convention)
    factors2, exponents2 = _walks(geometry.photon2, arms2, convention)
    # every phase factor has modulus 1, so one renormalization of the
    # coefficients serves every phase setting
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


class CheckResult(NamedTuple):
    """Outcome of one validation check, aggregated over a phase grid."""

    name: str
    max_deviation: float
    tolerance: float
    passed: bool
    first_mismatch: str | None = None


#: Largest deviation a check passes with, in every check.
_TOLERANCE = 1e-9

#: Every combination of values that mix symmetric and incommensurate angles,
#: alpha-major, then beta, then gamma.
_DEFAULT_GRID = tuple(product((0.0, 0.7, 1.9, math.pi, 4.4), repeat=3))


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
        at = " ".join(f"{phase}={value:.6g}" for phase, value in zip(PHASE_NAMES, grid[point]))
        first_mismatch = f"{describe(point, row, column)} at {at}"
    max_deviation = float(deviations.max(initial=0.0))
    return CheckResult(name, max_deviation, _TOLERANCE, first_mismatch is None, first_mismatch)


def _group_checks(
    names: Sequence[str],
    derived: np.ndarray,
    reference: np.ndarray,
    law_groups: Sequence[Sequence[int]],
    magnitude: float,
    rows: Sequence[str],
    columns: Sequence[str],
    grid: Sequence[PhaseSettings],
) -> tuple[CheckResult, ...]:
    """The magnitude, amplitude-ratio and law checks, named ``names``, of one
    row group: ``(point, row, column)`` tables ``derived`` and ``reference``
    on ``grid``, labelled ``rows`` and ``columns``.  Every entry should have
    ``magnitude``, ratios are to the first row, and the law's interfering
    groups are ``law_groups`` of the group's rows."""
    magnitudes = np.abs(derived)
    derived_ratio = derived[:, 1:] / derived[:, :1]
    reference_ratio = reference[:, 1:] / reference[:, :1]
    derived_p = interference_law(derived, law_groups)
    reference_p = interference_law(reference, law_groups)
    magnitude_name, ratio_name, law_name = names
    return (
        _check(
            magnitude_name, np.abs(magnitudes - magnitude), grid,
            lambda p, i, j: f"|A{columns[j]}{rows[i]}| = {magnitudes[p, i, j]:.12g}, "
            f"expected {magnitude:.12g}",
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


def validate_against_reference(
    geometry: Geometry,
    convention: SplitterConvention,
    phase_grid: Sequence[PhaseSettings] | None = None,
) -> tuple[CheckResult, ...]:
    """Compare the cascade-derived tables against the hand-coded ones, one
    :class:`CheckResult` per check; the tables agree where every check passed.

    Each of three row groups, the difference-L and difference-l classes of
    the joint table and the single-path table, is checked on its entry
    magnitudes, its amplitude ratios to the group's first row, and the
    probability law of its interfering rows, over the whole ``phase_grid``
    (a default grid if None).  An empty grid is a ``ValueError``, and so is
    what :func:`derive_tables` rejects.
    """
    grid = _DEFAULT_GRID if phase_grid is None else tuple(phase_grid)
    if not grid:
        raise ValueError("grid must not be empty")
    derived_joint, derived_single = derive_tables(geometry, convention, grid)
    reference_joint = joint_amplitudes(grid)
    outcomes = tuple(outcome.value for outcome in OUTCOMES)
    checks = []
    for sub, rows in CLASS_ROWS.items():
        checks += _group_checks(
            [f"joint {check}, difference-{sub.value} class"
             for check in ("magnitudes", "amplitude ratios", "probabilities")],
            derived_joint[:, list(rows)], reference_joint[:, list(rows)], (range(len(rows)),),
            JOINT_MAGNITUDE, [JOINT_PAIRS[row].label for row in rows], outcomes, grid,
        )
    return (*checks, *_group_checks(
        ["single-path magnitudes", "single-path amplitude ratios",
         "sequential-impact singles probabilities"],
        derived_single, single_amplitudes(grid), SEQUENTIAL_GROUPS, SINGLE_MAGNITUDE,
        [f"({path.value})" for path in SINGLE_PATHS], [sign.value for sign in Sign], grid,
    ))
