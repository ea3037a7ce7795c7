"""Acceptance gate: every shipped guarantee, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import math
import time

import numpy as np

from impactseries.amplitudes import PhaseSettings
from impactseries.bsnetwork import (
    SplitterConvention,
    default_geometry,
    validate_against_reference,
)
from impactseries.cli import main
from impactseries.montecarlo import estimate_E, sample
from impactseries.pathspace import Subensemble, TimeOrdering
from impactseries.theories import TheoryKind, TheoryModel, marginals, predict

from closed_forms import Side, causal_singles_side2_closed_form, qm_singles_closed_form

CAUSAL_1 = TheoryModel(TheoryKind.CAUSAL, TimeOrdering.PHOTON2_FIRST)
CAUSAL_2 = TheoryModel(TheoryKind.CAUSAL, TimeOrdering.PHOTON1_FIRST)
BETA = 0.37  # fixed offset so all three phases vary across the grid


def grid_13x13():
    """169 settings covering (alpha+beta, beta-gamma) over a full period."""
    sums = np.linspace(0.0, 2.0 * math.pi, 13)
    diffs = np.linspace(0.0, 2.0 * math.pi, 13)
    return [
        (s, d, PhaseSettings(alpha=s - BETA, beta=BETA, gamma=BETA - d))
        for s in sums
        for d in diffs
    ]


def joint_at(sub: Subensemble, ph: PhaseSettings):
    return predict(TheoryModel(TheoryKind.QM), [ph], sub).joint[0]


def report(number: int, description: str, passed: bool) -> None:
    print(f"{'PASS' if passed else 'FAIL'} criterion {number}: {description}")
    assert passed, f"criterion {number} failed: {description}"


def test_criterion_1_closed_form_reproduction():
    start = time.perf_counter()
    worst = 0.0
    for s, d, ph in grid_13x13():
        worst = max(
            worst,
            abs(qm_singles_closed_form(Subensemble.LONG, Side.SIDE2, ph)[0]
                - (0.5 + math.cos(d) / 3.0)),
            abs(qm_singles_closed_form(Subensemble.LONG, Side.SIDE1, ph)[0]
                - (0.5 - math.cos(s) / 3.0)),
            abs(qm_singles_closed_form(Subensemble.SHORT, Side.SIDE1, ph)[0]
                - (0.5 + math.cos(s) / 3.0)),
            abs(causal_singles_side2_closed_form(ph)[0] - (0.5 + math.cos(d) / 3.0)),
            abs(predict(CAUSAL_2, [ph]).side1[0, 0] - 0.5),
        )
    aligned = PhaseSettings()
    spots_ok = (
        abs(qm_singles_closed_form(Subensemble.LONG, Side.SIDE2, aligned)[0] - 5 / 6) < 1e-12
        and abs(qm_singles_closed_form(Subensemble.LONG, Side.SIDE1, aligned)[0] - 1 / 6) < 1e-12
        and abs(qm_singles_closed_form(Subensemble.LONG, Side.SIDE1,
                                       PhaseSettings(alpha=math.pi / 2))[0] - 0.5) < 1e-12
        and abs(qm_singles_closed_form(Subensemble.SHORT, Side.SIDE1,
                                       PhaseSettings(alpha=math.pi))[0] - 1 / 6) < 1e-12
        and abs(causal_singles_side2_closed_form(PhaseSettings(beta=math.pi))[0] - 1 / 6) < 1e-12
    )
    elapsed = time.perf_counter() - start
    report(
        1,
        f"closed-form singles reproduce the cosine laws on a 13x13 grid "
        f"(max dev {worst:.2e}, tol 1e-12, {elapsed:.2f}s)",
        worst <= 1e-12 and spots_ok and elapsed < 1.0,
    )


def test_criterion_2_route_equivalence():
    start = time.perf_counter()
    worst = 0.0
    for _, _, ph in grid_13x13():
        long_joint = joint_at(Subensemble.LONG, ph)
        short_joint = joint_at(Subensemble.SHORT, ph)
        worst = max(
            worst,
            abs(marginals(long_joint)[1][0]
                - qm_singles_closed_form(Subensemble.LONG, Side.SIDE2, ph)[0]),
            abs(marginals(long_joint)[0][0]
                - qm_singles_closed_form(Subensemble.LONG, Side.SIDE1, ph)[0]),
            abs(marginals(short_joint)[0][0]
                - qm_singles_closed_form(Subensemble.SHORT, Side.SIDE1, ph)[0]),
            abs(predict(CAUSAL_1, [ph]).side2[0, 0]
                - causal_singles_side2_closed_form(ph)[0]),
        )
    elapsed = time.perf_counter() - start
    report(
        2,
        f"amplitude-sum route equals every closed form "
        f"(max dev {worst:.2e}, tol 1e-9, {elapsed:.2f}s)",
        worst <= 1e-9 and elapsed < 1.0,
    )


def test_criterion_3_joint_normalization():
    worst = 0.0
    for _, _, ph in grid_13x13():
        for sub in (Subensemble.LONG, Subensemble.SHORT):
            worst = max(worst, abs(sum(joint_at(sub, ph).tolist()) - 1.0))
    report(
        3,
        f"joint distributions sum to 1 for both central classes "
        f"(max dev {worst:.2e}, tol 1e-9)",
        worst <= 1e-9,
    )


def test_criterion_4_no_retro_signalling_average():
    worst = 0.0
    for _, _, ph in grid_13x13():
        average = (
            qm_singles_closed_form(Subensemble.LONG, Side.SIDE1, ph)[0]
            + qm_singles_closed_form(Subensemble.SHORT, Side.SIDE1, ph)[0]
        ) / 2.0
        worst = max(worst, abs(average - 0.5))
    report(
        4,
        f"class-averaged side-1 singles stay at 1/2 (max dev {worst:.2e}, tol 1e-12)",
        worst <= 1e-12,
    )


def test_criterion_5_headline_discriminator():
    start = time.perf_counter()
    aligned = PhaseSettings()  # alpha + beta = 0
    qm_model = TheoryModel(TheoryKind.QM)
    rnl_model = TheoryModel(TheoryKind.RNL)

    _, counts = sample([qm_model, rnl_model], [aligned], [42], 1_000_000)
    (qm_value, rnl_value), (_, rnl_error) = estimate_E(counts[:, 0])
    elapsed = time.perf_counter() - start
    qm_ok = abs(abs(qm_value) - 2 / 3) <= 0.01
    rnl_ok = abs(rnl_value) <= 4.0 * rnl_error
    report(
        5,
        f"|E| = {abs(qm_value):.4f} (superposition rule, target 2/3 +/- 0.01) "
        f"and |E| = {abs(rnl_value):.4f} (RNL, within 4 sigma of 0) "
        f"at 1e6 pairs ({elapsed:.2f}s)",
        qm_ok and rnl_ok and elapsed < 10.0,
    )


def test_criterion_6_acceptance_rate_for_every_model():
    models = [
        TheoryModel(TheoryKind.QM),
        TheoryModel(TheoryKind.CAUSAL, TimeOrdering.PHOTON2_FIRST),
        TheoryModel(TheoryKind.CAUSAL, TimeOrdering.PHOTON1_FIRST),
        TheoryModel(TheoryKind.RNL),
    ]
    four_sigma = 4.0 * math.sqrt(0.375 * 0.625 / 1_000_000)
    rates = []
    for index, model in enumerate(models):
        _, counts = sample([model], [PhaseSettings()], [1234 + index], 1_000_000)
        rates.append(counts.sum() / 1_000_000)
    worst = max(abs(rate - 0.375) for rate in rates)
    report(
        6,
        f"accepted/emitted = 3/8 within 4 sigma ({four_sigma:.2e}) for all models "
        f"(max dev {worst:.2e})",
        worst <= four_sigma,
    )


def test_criterion_7_oracle_equivalence():
    grid = [ph for _, _, ph in grid_13x13()[::13]] + [
        PhaseSettings(0.3, 1.1, -2.2),
        PhaseSettings(-0.7, 2.9, 0.8),
    ]
    checks = validate_against_reference(default_geometry(), SplitterConvention(), phase_grid=grid)
    worst = max(check.max_deviation for check in checks)
    report(
        7,
        f"network-derived tables match the hand-coded ones on probabilities and "
        f"within-class ratios (max dev {worst:.2e}, tol 1e-9)",
        all(check.passed for check in checks),
    )


def test_criterion_8_simulate_is_byte_deterministic(tmp_path, capsys):
    flags = ["simulate", "--model", "qm", "--events", "100000", "--seed", "7",
             "--alpha", "0.5", "--beta", "-0.5", "--gamma", "1.0"]
    first = tmp_path / "first.csv"
    second = tmp_path / "second.csv"
    assert main(flags + ["--out", str(first)]) == 0
    assert main(flags + ["--out", str(second)]) == 0
    capsys.readouterr()
    identical = first.read_bytes() == second.read_bytes()
    report(8, "repeated simulate invocations write byte-identical files", identical)
