"""Splitter-network oracle: path walks, wiring, table reproduction."""

import cmath
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from impactseries.amplitudes import (
    JOINT_MAGNITUDE,
    JOINT_PAIRS,
    SINGLE_MAGNITUDE,
    PhaseSettings,
    interference_law,
    joint_amplitudes,
    single_amplitudes,
)
from impactseries.bsnetwork import (
    ArmWiring,
    Geometry,
    PhotonWiring,
    SplitterConvention,
    Stage,
    default_geometry,
    derive_tables,
    parse_geometry,
    validate_against_reference,
    _DEFAULT_GRID,
    _walks,
)
from impactseries.pathspace import Arm, Arm2Path, Sign, Subensemble, members

DEFAULT = SplitterConvention()

GEOMETRIES = Path(__file__).resolve().parent.parent / "geometries"

#: Every 16th point of the default 125-point grid, for the property tests.
SPARSE_GRID = _DEFAULT_GRID[::16]

DEFAULT_GEOM = (
    "photon1.source = a\n"
    "photon1.stage1.short = a->a\n"
    "photon1.stage1.long  = b->b phase=alpha\n"
    "photon1.detector.plus  = a\n"
    "photon1.detector.minus = b\n"
    "photon2.source = a\n"
    "photon2.stage1.short = a->a\n"
    "photon2.stage1.long  = b->b phase=beta\n"
    "photon2.stage2.short = a->a\n"
    "photon2.stage2.long  = b->b phase=gamma\n"
    "photon2.detector.plus  = a\n"
    "photon2.detector.minus = b\n"
)

CROSSED_STAGE2 = """
photon1.source = a
photon1.stage1.short = a->a
photon1.stage1.long  = b->b phase=alpha
photon1.detector.plus  = a
photon1.detector.minus = b
photon2.source = a
photon2.stage1.short = a->a
photon2.stage1.long  = b->b phase=beta
photon2.stage2.short = a->b
photon2.stage2.long  = b->a phase=gamma
photon2.detector.plus  = a
photon2.detector.minus = b
"""


def walk_path(wiring, arms, sign: Sign) -> tuple[complex, tuple[int, ...]]:
    """Splitter factor and phase exponents of one choice of arms ending at the
    detector of ``sign``, under the default convention."""
    factors, exponents = _walks(wiring, [arms], DEFAULT)
    return factors[0, list(Sign).index(sign)], tuple(exponents[0].tolist())


def passed(checks) -> bool:
    return all(check.passed for check in checks)


class TestWalkPath:
    def test_two_transmissions(self):
        factor, exponents = walk_path(default_geometry().photon1, (Arm.SHORT,), Sign.PLUS)
        assert factor == pytest.approx(0.5, abs=1e-12)
        assert exponents == (0, 0, 0)

    def test_transmit_then_reflect(self):
        factor, exponents = walk_path(
            default_geometry().photon1, (Arm.SHORT,), Sign.MINUS
        )
        assert factor == pytest.approx(0.5j, abs=1e-12)
        assert exponents == (0, 0, 0)

    def test_phase_is_an_exponent_not_a_factor(self):
        # long arm: reflect out of port a, phase alpha, arrive on b;
        # detector minus on b: transmit
        factor, exponents = walk_path(
            default_geometry().photon1, (Arm.LONG,), Sign.MINUS
        )
        assert factor == pytest.approx(0.5j, abs=1e-12)
        assert exponents == (1, 0, 0)


class TestConvention:
    def test_default_is_unitary(self):
        DEFAULT.require_unitary()

    def test_fully_transparent_convention_is_unitary(self):
        SplitterConvention(t=1.0, r=0.0).require_unitary()

    @pytest.mark.parametrize(
        "t, r",
        [
            (1.0, 1.0),
            (1 / math.sqrt(2), 1 / math.sqrt(2)),  # balanced but not orthogonal
            (0.9, 0.1j),
            (1e308, DEFAULT.r),  # squared, above the largest float
            (complex(1.7e308, 1.7e308), DEFAULT.r),  # its absolute value too
        ],
    )
    def test_non_unitary_conventions_are_rejected(self, t, r):
        with pytest.raises(ValueError):
            SplitterConvention(t=t, r=r).require_unitary()


class TestDefaultGeometry:
    def test_reproduces_the_joint_tables_exactly(self):
        # the default layout happens to match including the global phase
        for ph in (PhaseSettings(), PhaseSettings(0.7, -1.1, 2.3)):
            joint, _ = derive_tables(default_geometry(), DEFAULT, [ph])
            assert np.abs(joint - joint_amplitudes([ph])).max() <= 1e-12
        # a grid call is the stack of the grid-of-one calls, bit for bit
        joints, singles = derive_tables(default_geometry(), DEFAULT, SPARSE_GRID)
        reference_joints = joint_amplitudes(SPARSE_GRID)
        reference_singles = single_amplitudes(SPARSE_GRID)
        assert joints.shape == (len(SPARSE_GRID), 6, 4)
        assert singles.shape == (len(SPARSE_GRID), 3, 2)
        for k, ph in enumerate(SPARSE_GRID):
            joint, single = derive_tables(default_geometry(), DEFAULT, [ph])
            assert np.array_equal(joints[k], joint[0])
            assert np.array_equal(singles[k], single[0])
            assert np.array_equal(reference_joints[k], joint_amplitudes([ph])[0])
            assert np.array_equal(reference_singles[k], single_amplitudes([ph])[0])
        assert np.abs(joints - reference_joints).max() <= 1e-12

    def test_reproduces_the_single_path_table_exactly(self):
        ph = PhaseSettings(0.2, 1.9, -0.4)
        _, single = derive_tables(default_geometry(), DEFAULT, [ph])
        assert np.abs(single - single_amplitudes([ph])).max() <= 1e-12

    def test_renormalized_magnitudes(self):
        joint, single = derive_tables(default_geometry(), DEFAULT, [PhaseSettings(1.0, 2.0, 3.0)])
        assert joint.shape == (1, 6, 4) and single.shape == (1, 3, 2)
        assert np.abs(np.abs(joint) - JOINT_MAGNITUDE).max() <= 1e-12
        assert np.abs(np.abs(single) - SINGLE_MAGNITUDE).max() <= 1e-12

    def test_sign_relation_between_outcomes_survives_derivation(self):
        ph = PhaseSettings(0.3, 0.8, -1.6)
        joint = derive_tables(default_geometry(), DEFAULT, [ph])[0][0]
        pair = next(p for p in members(Subensemble.LONG) if p.photon2 is Arm2Path.SHORT_LONG)
        row = JOINT_PAIRS.index(pair)
        assert joint[row, 0] == pytest.approx(joint[row, 3], abs=1e-12)

    def test_validation_report_passes(self):
        checks = validate_against_reference(default_geometry(), DEFAULT)
        assert passed(checks)
        assert all(check.max_deviation < 1e-12 for check in checks)
        assert {check.name for check in checks} >= {
            "joint probabilities, difference-L class",
            "joint amplitude ratios, difference-l class",
            "single-path amplitude ratios",
        }

    def test_passes_under_a_globally_rephased_convention(self):
        # a common phase on t and r is unobservable in ratios and probabilities
        spin = cmath.exp(0.3j)
        convention = SplitterConvention(t=DEFAULT.t * spin, r=DEFAULT.r * spin)
        assert passed(validate_against_reference(default_geometry(), convention))

    def test_an_empty_phase_grid_is_rejected(self):
        # a report over no point would pass every check with deviation 0
        with pytest.raises(ValueError, match="grid must not be empty"):
            validate_against_reference(default_geometry(), DEFAULT, [])

    def test_the_documented_file_is_the_built_in_layout(self):
        # README points to this file as the documented format
        text = (GEOMETRIES / "default.geom").read_text(encoding="utf-8")
        assert parse_geometry(text) == default_geometry()


class TestMiswiredGeometry:
    def test_crossed_second_stage_fails_with_a_named_mismatch(self):
        checks = validate_against_reference(parse_geometry(CROSSED_STAGE2), DEFAULT)
        assert not passed(checks)
        failing = [check for check in checks if not check.passed]
        assert failing
        ratio_failures = [
            check for check in failing if "amplitude ratios" in check.name
        ]
        assert ratio_failures
        assert ratio_failures[0].first_mismatch is not None
        assert "derived" in ratio_failures[0].first_mismatch

    def test_first_mismatch_is_the_first_failing_grid_point(self):
        # alpha moved onto the first stage of photon 1's long arm as beta:
        # every magnitude and the single-path table stay right, while the
        # joint table is wrong wherever beta is not 0
        text = DEFAULT_GEOM.replace("b->b phase=alpha", "b->b phase=beta")
        geometry = parse_geometry(text)
        grid = _DEFAULT_GRID
        by_name = {check.name: check for check in validate_against_reference(geometry, DEFAULT)}
        failing = {
            f"joint {check}, difference-{sub} class"
            for check in ("amplitude ratios", "probabilities")
            for sub in ("L", "l")
        }
        assert {name for name, check in by_name.items() if not check.passed} == failing
        assert grid[5] == PhaseSettings(0.0, 0.7, 0.0)
        for name in failing:
            assert by_name[name].first_mismatch.endswith("at alpha=0 beta=0.7 gamma=0")

        def joint_law_deviation(ph: PhaseSettings) -> float:
            joint, _ = derive_tables(geometry, DEFAULT, [ph])
            return max(
                np.abs(
                    interference_law(joint, (rows,))
                    - interference_law(joint_amplitudes([ph]), (rows,))
                ).max()
                for rows in ((0, 1, 2), (3, 4, 5))
            )

        first = next(k for k, ph in enumerate(grid) if joint_law_deviation(ph) > 1e-9)
        assert first == 5
        assert joint_law_deviation(grid[0]) <= 1e-12

    def test_unbalanced_convention_fails_magnitude_checks(self):
        convention = SplitterConvention(t=0.8, r=0.6j)
        convention.require_unitary()
        assert not passed(validate_against_reference(default_geometry(), convention))


class TestGeometryParsing:
    def test_file_matches_the_builtin_default(self, tmp_path):
        assert parse_geometry(DEFAULT_GEOM) == default_geometry()
        path = tmp_path / "layout.geom"
        path.write_text(DEFAULT_GEOM)
        assert parse_geometry(path.read_text(encoding="utf-8")) == default_geometry()

    def test_comments_and_blank_lines_are_ignored(self):
        assert parse_geometry(CROSSED_STAGE2 + "\n# trailing comment\n")

    @pytest.mark.parametrize(
        "mutation, message",
        [
            ("photon1.stage1.short = a->a\nphoton1.stage1.short = b->b", "duplicate"),
            ("photon1.stage1.short = c->a", "cannot parse arm"),
            ("photon1.stage1.long = b->b phase=delta", "cannot parse arm|phase"),
            ("photon1.detector.plus = q", "ports must be"),
            ("unknown.key = 1", "unrecognized|missing"),
        ],
    )
    def test_malformed_entries_are_rejected(self, mutation, message):
        base = {
            line.split("=")[0].strip(): line
            for line in CROSSED_STAGE2.strip().splitlines()
        }
        key = mutation.split("=")[0].strip().split("\n")[-1].strip()
        base[key] = mutation
        text = "\n".join(base.values())
        with pytest.raises(ValueError, match=message):
            parse_geometry(text)

    def test_missing_entry_is_rejected(self):
        text = "\n".join(
            line
            for line in CROSSED_STAGE2.strip().splitlines()
            if not line.startswith("photon2.detector.minus")
        )
        with pytest.raises(ValueError, match="missing"):
            parse_geometry(text)


DEFAULT_WIRING = default_geometry()
#: Photon 1's usual stage, and two stages of one fault each.
STRAIGHT = DEFAULT_WIRING.photon1.stages[0]
DANGLING = Stage(ArmWiring("a", "a"), ArmWiring("a", "b"))
BAD_PHASE = Stage(ArmWiring("a", "a"), ArmWiring("b", "b", "delta"))


def photon1_with(**fields) -> Geometry:
    """The default geometry, with ``fields`` of photon 1's wiring replaced."""
    return DEFAULT_WIRING._replace(photon1=DEFAULT_WIRING.photon1._replace(**fields))


def geometry_text(geometry: Geometry) -> str:
    """``geometry`` written in the wiring file format."""
    lines = []
    for name, photon in zip(Geometry._fields, geometry):
        lines.append(f"{name}.source = {photon.source_port}")
        for k, stage in enumerate(photon.stages, start=1):
            for arm_name, arm in zip(Stage._fields, stage):
                phase = "" if arm.phase is None else f" phase={arm.phase}"
                lines.append(f"{name}.stage{k}.{arm_name} = {arm.out_port}->{arm.in_port}{phase}")
        lines.append(f"{name}.detector.plus = {photon.detector_plus}")
        lines.append(f"{name}.detector.minus = {photon.detector_minus}")
    return "\n".join(lines)


def assert_wiring_rejected(geometry: Geometry, message: str) -> None:
    """``derive_tables`` rejects the hand-built ``geometry`` with ``message``,
    and ``parse_geometry`` the file that writes it out."""
    with pytest.raises(ValueError, match=message):
        derive_tables(geometry, DEFAULT, [PhaseSettings()])
    with pytest.raises(ValueError, match=message):
        parse_geometry(geometry_text(geometry))


class TestWiringValidation:
    def test_the_file_writer_round_trips(self):
        assert geometry_text(DEFAULT_WIRING) == DEFAULT_GEOM.replace("  =", " =").strip()

    def test_dangling_output_port(self):
        geometry = photon1_with(stages=(DANGLING,))
        assert_wiring_rejected(
            geometry, "^both arms leave on out-port a; the other out-port dangles$"
        )

    def test_dangling_input_port(self):
        geometry = photon1_with(stages=(Stage(ArmWiring("a", "b"), ArmWiring("b", "b")),))
        assert_wiring_rejected(
            geometry, "^both arms arrive on in-port b; the other in-port dangles$"
        )

    def test_detectors_on_distinct_ports(self):
        geometry = photon1_with(detector_plus="a", detector_minus="a")
        assert_wiring_rejected(geometry, "^both detectors on one out-port; the other dangles$")

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"stages": (Stage(ArmWiring("a", "c"), ArmWiring("b", "b")),)}, "ports must be"),
            ({"source_port": "c"}, "source port must be"),
            ({"detector_minus": "c"}, "detector ports must be"),
        ],
    )
    def test_a_hand_built_port_fault_is_rejected(self, fields, message):
        with pytest.raises(ValueError, match=rf"^{message} one of \('a', 'b'\)$"):
            derive_tables(photon1_with(**fields), DEFAULT, [PhaseSettings()])

    def test_a_hand_built_phase_fault_is_rejected(self):
        message = r"^phase must be one of \('alpha', 'beta', 'gamma'\)$"
        with pytest.raises(ValueError, match=message):
            derive_tables(photon1_with(stages=(BAD_PHASE,)), DEFAULT, [PhaseSettings()])

    @pytest.mark.parametrize(
        "geometry, message",
        [
            # within a photon, stage by stage: each arm, then the stage
            (photon1_with(stages=(DANGLING, BAD_PHASE)), "out-port dangles"),
            (photon1_with(stages=(BAD_PHASE, DANGLING)), "phase must be"),
            # then the source port and the detectors
            (photon1_with(stages=(DANGLING,), source_port="c"), "out-port dangles"),
            (photon1_with(source_port="c", detector_plus="c"), "source port"),
            (photon1_with(detector_plus="c", detector_minus="c"), "detector ports"),
            # the stage counts come last, after both photons
            (photon1_with(stages=(), detector_minus="a"), "detectors on one"),
            (
                photon1_with(stages=(STRAIGHT, STRAIGHT))._replace(
                    photon2=DEFAULT_WIRING.photon2._replace(detector_plus="b")
                ),
                "detectors on one",
            ),
        ],
    )
    def test_the_first_fault_is_reported(self, geometry, message):
        assert_wiring_rejected(geometry, message)

    def test_zero_stages_get_the_stage_count_message(self):
        geometry = photon1_with(stages=())
        assert_wiring_rejected(
            geometry, "^reference tables need one stage for photon 1 and two for photon 2$"
        )

    def test_stage_counts_required_for_table_derivation(self):
        one_stage = PhotonWiring(
            source_port="a",
            stages=(Stage(ArmWiring("a", "a"), ArmWiring("b", "b")),),
            detector_plus="a",
            detector_minus="b",
        )
        geometry = Geometry(photon1=one_stage, photon2=one_stage)
        with pytest.raises(ValueError, match="two for photon 2"):
            derive_tables(geometry, DEFAULT, [PhaseSettings()])

    def test_path_walk_needs_one_arm_per_stage(self):
        with pytest.raises(ValueError):
            walk_path(default_geometry().photon2, (Arm.SHORT,), Sign.PLUS)

    def test_path_walk_matches_hand_wiring(self):
        factor, exponents = walk_path(
            default_geometry().photon2, (Arm.LONG, Arm.SHORT), Sign.PLUS
        )
        # long arm: reflect out, phase beta; arrive on b, leave on a: reflect;
        # arrive on a, detector plus on a: transmit
        assert factor == pytest.approx(DEFAULT.r * DEFAULT.r * DEFAULT.t, abs=1e-12)
        assert exponents == (0, 1, 0)


@st.composite
def wirings(draw) -> str:
    """Wiring files over the documented grammar, one in ten choices off the
    usual layout: dangling ports and missing or extra stages."""

    def mostly(usual, unusual):
        return draw(unusual if draw(st.integers(0, 9)) == 0 else usual)

    def port_pair() -> str:
        return mostly(st.sampled_from(["ab", "ba"]), st.sampled_from(["aa", "bb"]))

    phase = st.sampled_from(["", " phase=alpha", " phase=beta", " phase=gamma"])
    lines = []
    for photon, usual_stages in (("photon1", 1), ("photon2", 2)):
        lines.append(f"{photon}.source = {draw(st.sampled_from('ab'))}")
        stages = mostly(st.just(usual_stages), st.integers(min_value=0, max_value=3))
        for k in range(1, stages + 1):
            out_ports, in_ports = port_pair(), port_pair()
            for index, arm in enumerate(("short", "long")):
                lines.append(
                    f"{photon}.stage{k}.{arm} = "
                    f"{out_ports[index]}->{in_ports[index]}{draw(phase)}"
                )
        detectors = port_pair()
        lines.append(f"{photon}.detector.plus = {detectors[0]}")
        lines.append(f"{photon}.detector.minus = {detectors[1]}")
    return "\n".join(lines)


class TestOracleProperties:
    """The oracle's verdict over families of conventions and wirings."""

    @settings(max_examples=30, deadline=None)
    @given(a=st.floats(min_value=-math.pi, max_value=math.pi), sign=st.sampled_from([1, -1]))
    def test_every_unitary_balanced_convention_passes(self, a, sign):
        # t = e^{ia}/sqrt(2), r = +-i e^{ia}/sqrt(2) spans the 50/50 conventions
        # up to the global phase, which the oracle never observes
        spin = cmath.exp(1j * a)
        convention = SplitterConvention(t=spin / math.sqrt(2), r=sign * 1j * spin / math.sqrt(2))
        convention.require_unitary()
        assert passed(validate_against_reference(default_geometry(), convention, SPARSE_GRID))

    @settings(max_examples=30, deadline=None)
    @given(
        theta=st.one_of(
            st.floats(min_value=0.05, max_value=math.pi / 4 - 0.05),
            st.floats(min_value=math.pi / 4 + 0.05, max_value=math.pi / 2 - 0.05),
        ),
        a=st.floats(min_value=-math.pi, max_value=math.pi),
        sign=st.sampled_from([1, -1]),
    )
    def test_unbalanced_unitary_conventions_fail_every_magnitude_check(self, theta, a, sign):
        spin = cmath.exp(1j * a)
        convention = SplitterConvention(
            t=math.cos(theta) * spin, r=sign * 1j * math.sin(theta) * spin
        )
        convention.require_unitary()
        checks = validate_against_reference(default_geometry(), convention, SPARSE_GRID)
        magnitude_checks = [check for check in checks if "magnitudes" in check.name]
        assert len(magnitude_checks) == 3
        assert not any(check.passed for check in magnitude_checks)
        assert all(check.first_mismatch for check in magnitude_checks)

    @settings(max_examples=150, deadline=None)
    @given(text=wirings())
    def test_random_wirings_validate_or_raise_value_error(self, text):
        try:
            checks = validate_against_reference(parse_geometry(text), DEFAULT, SPARSE_GRID)
        except ValueError:
            return
        assert len(checks) == 9
        # a check passes exactly when no deviation exceeds its tolerance
        for check in checks:
            assert check.passed == (check.max_deviation <= check.tolerance)
            assert check.passed == (check.first_mismatch is None)
