"""Command-line surface: analytic prediction, simulation, model comparison,
and validation of the amplitude tables against the splitter-network oracle.

All data emissions share one frozen column set (see ``COLUMNS``); CSV and
JSON files carry the same values, floats rounded to 6 significant digits.
Every row embeds the provenance needed to replay it (model, phases, seed,
events).  A ``compare`` scan evaluates each model's analytic law for its whole
grid in one call.  Exit codes: 0 success, 2 argument or contract error, 3
validation failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from .amplitudes import PHASE_NAMES, PhaseSettings
from .bsnetwork import (
    SplitterConvention,
    default_geometry,
    load_geometry,
    validate_against_reference,
)
from .montecarlo import (
    CoincidenceTally,
    RunConfig,
    estimate_E,
    run,
    scan_phases,
    tally_marginals,
)
from .pathspace import OUTCOMES, Subensemble, TimeOrdering
from .theories import Prediction, SinglesPair, TheoryKind, TheoryModel, predict

#: Frozen column order shared by every CSV/JSON emission.
COLUMNS = (
    "command",
    "model",
    "ordering",
    "subensemble",
    "axis",
    "angle",
    "alpha",
    "beta",
    "gamma",
    "events",
    "seed",
    "accepted",
    "rejected",
    "acceptance_rate",
    "r_pp",
    "r_pm",
    "r_mp",
    "r_mm",
    "joint_pp",
    "joint_pm",
    "joint_mp",
    "joint_mm",
    "p1_plus_analytic",
    "p1_minus_analytic",
    "p2_plus_analytic",
    "p2_minus_analytic",
    "p1_plus_mc",
    "p1_minus_mc",
    "p2_plus_mc",
    "p2_minus_mc",
    "e_value",
    "e_std_error",
    "e_analytic_qm",
    "e_analytic_causal",
)


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


#: Each column's key line inside a ``json.dumps(..., indent=2)`` row object.
_JSON_KEYS = tuple(f"      {encode_basestring_ascii(column)}: " for column in COLUMNS)
_JSON_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_cell(value) -> str:
    """``value`` as ``json.dumps`` writes it, floats rounded to 6 significant digits."""
    if isinstance(value, float):
        text = f"{value:.6g}"
        return _JSON_NON_FINITE.get(text) or float.__repr__(float(text))
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    return "null" if value is None else int.__repr__(value)


def _analytic_row(
    command: str,
    model: TheoryModel,
    target: Subensemble,
    phases: PhaseSettings,
    prediction: Prediction,
) -> dict:
    """A row with its provenance, phases and analytic columns; the rest are None."""
    row = dict.fromkeys(COLUMNS)
    row.update(
        command=command,
        model=model.kind.value,
        ordering=model.ordering.value,
        subensemble=target.value,
        alpha=phases.alpha,
        beta=phases.beta,
        gamma=phases.gamma,
    )
    if prediction.side1 is not None:
        row["p1_plus_analytic"] = prediction.side1.p_plus
        row["p1_minus_analytic"] = prediction.side1.p_minus
    if prediction.side2 is not None:
        row["p2_plus_analytic"] = prediction.side2.p_plus
        row["p2_minus_analytic"] = prediction.side2.p_minus
    if prediction.joint is not None:
        row["joint_pp"], row["joint_pm"], row["joint_mp"], row["joint_mm"] = prediction.joint.p
    return row


def _run_row(
    command: str, config: RunConfig, tally: CoincidenceTally, axis: str | None = None
) -> dict:
    """The analytic row of ``config`` plus its run's counters, singles and E.

    ``axis`` names the phase a scan sweeps; the row's ``angle`` is its value.
    Beside the Monte Carlo E go the two rules' anchors: the superposition
    rule's magnitude (2/3)|cos(alpha+beta)| and the causal rules' 0.
    """
    phases = config.phases
    row = _analytic_row(command, config.model, config.target_sub, phases, config.prediction)
    e_value, e_std_error = estimate_E(tally)
    side1, side2 = tally_marginals(tally)
    row.update(
        axis=axis,
        angle=None if axis is None else getattr(phases, axis),
        events=config.events,
        seed=config.seed,
        accepted=tally.accepted,
        rejected=tally.rejected,
        acceptance_rate=tally.accepted / tally.events,
        p1_plus_mc=side1.p_plus,
        p1_minus_mc=side1.p_minus,
        p2_plus_mc=side2.p_plus,
        p2_minus_mc=side2.p_minus,
        e_value=e_value,
        e_std_error=e_std_error,
        e_analytic_qm=(2.0 / 3.0) * abs(math.cos(phases.alpha + phases.beta)),
        e_analytic_causal=0.0,  # the causal rules split side 1 evenly at any phase
    )
    row["r_pp"], row["r_pm"], row["r_mp"], row["r_mm"] = tally.r
    return row


def _fields(row: dict, *names: str) -> str:
    return " ".join(f"{name}={_format_cell(row[name])}" for name in names)


def _emit(rows: list[dict], fmt: str, out_path: str) -> None:
    if fmt == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(COLUMNS)
        for row in rows:
            writer.writerow([_format_cell(row[column]) for column in COLUMNS])
        text = buffer.getvalue()
    else:
        # json.dumps({"rows": rows}, indent=2) + "\n", byte for byte, written
        # straight into its fixed layout
        objects = (
            ",\n".join([key + _json_cell(row[c]) for key, c in zip(_JSON_KEYS, COLUMNS)])
            for row in rows
        )
        text = '{\n  "rows": [\n    {\n' + "\n    },\n    {\n".join(objects) + "\n    }\n  ]\n}\n"
    try:
        Path(out_path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot write --out file: {exc}") from None


def _parse_model(args: argparse.Namespace) -> TheoryModel:
    return TheoryModel(
        kind=TheoryKind(args.model), ordering=TimeOrdering(args.ordering)
    )


def _phases_from(args: argparse.Namespace) -> PhaseSettings:
    scale = math.pi / 180.0 if args.degrees else 1.0
    return PhaseSettings(args.alpha * scale, args.beta * scale, args.gamma * scale)


def _parse_grid(text: str, degrees: bool) -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError("grid must look like start:stop:count")
    try:
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ValueError(f"cannot parse grid {text!r}: {exc}") from None
    if count < 1:
        raise ValueError("grid count must be at least 1")
    # checked before any array is built, so numpy has no overflow to warn of
    radians = (start * math.pi / 180.0, stop * math.pi / 180.0) if degrees else ()
    if not all(map(math.isfinite, (start, stop, stop - start, *radians))):
        raise ValueError(f"grid {text!r}: start, stop and stop - start must be finite radians")
    grid = np.linspace(start, stop, count)
    if degrees:
        grid = grid * math.pi / 180.0
    return grid


def _singles_line(name: str, pair: SinglesPair | None, rule: str | None) -> str:
    if pair is None:
        return f"{name}: undefined for this model (depends on the causal completion)"
    line = f"{name}: p(+)={_format_cell(pair.p_plus)} p(-)={_format_cell(pair.p_minus)}"
    if rule:
        line += f"  [p(+) = {rule}]"
    return line


def _rule_labels(model: TheoryModel, target: Subensemble) -> tuple[str | None, str | None]:
    cos_sum = "cos(alpha+beta)"
    cos_diff = "cos(beta-gamma)"
    if model.kind is TheoryKind.QM:
        if target is Subensemble.LONG:
            return f"1/2 - {cos_sum}/3", f"1/2 + {cos_diff}/3"
        return f"1/2 + {cos_sum}/3", "marginal of the three-path interference law"
    if model.kind is TheoryKind.CAUSAL:
        if model.ordering is TimeOrdering.PHOTON2_FIRST:
            return None, f"1/2 + {cos_diff}/3"
        return "1/2 exactly", None
    return "1/2 exactly", f"1/2 + {cos_diff}/3"


def cmd_predict(args: argparse.Namespace) -> int:
    model = _parse_model(args)
    phases = _phases_from(args)
    target = Subensemble(args.subensemble)
    prediction = predict(model, phases, target)
    row = _analytic_row("predict", model, target, phases, prediction)
    if args.out:
        _emit([row], args.format, args.out)

    rule1, rule2 = _rule_labels(model, target)
    print(_fields(row, "model", "ordering", "subensemble", *PHASE_NAMES))
    if prediction.joint is not None:
        cells = " ".join(
            f"p({outcome.value})={_format_cell(p)}"
            for outcome, p in zip(OUTCOMES, prediction.joint.p)
        )
        print(f"joint: {cells}")
    else:
        print("joint: undefined for this model (singles only)")
    print(_singles_line("side1", prediction.side1, rule1))
    print(_singles_line("side2", prediction.side2, rule2))
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    config = RunConfig(
        model=_parse_model(args),
        phases=_phases_from(args),
        events=args.events,
        seed=args.seed,
        target_sub=Subensemble(args.subensemble),
    )
    row = _run_row("simulate", config, run(config))
    if args.out:
        _emit([row], args.format, args.out)

    print(_fields(row, "model", "ordering", "subensemble", *PHASE_NAMES, "events", "seed"))
    print(
        f"counts: R(++)={row['r_pp']} R(+-)={row['r_pm']} R(-+)={row['r_mp']} "
        f"R(--)={row['r_mm']} {_fields(row, 'accepted', 'rejected')}"
    )
    print(_fields(row, "acceptance_rate"))
    print(
        f"E={_format_cell(row['e_value'])} std_error={_format_cell(row['e_std_error'])} "
        f"[analytic: qm {_format_cell(row['e_analytic_qm'])}, "
        f"causal {_format_cell(row['e_analytic_causal'])}]"
    )
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    phases = _phases_from(args)
    grid = _parse_grid(args.grid, args.degrees)
    rows = [
        _run_row("compare", config, tally, axis=args.axis)
        for kind in (TheoryKind.QM, TheoryKind.RNL)
        for config, tally in scan_phases(
            TheoryModel(kind=kind, ordering=TimeOrdering(args.ordering)),
            args.axis,
            grid,
            phases,
            args.events,
            args.seed,
        )
    ]
    if args.out:
        _emit(rows, args.format, args.out)

    print(
        f"compare axis={args.axis} points={len(grid)} events_per_point={args.events} "
        f"seed={args.seed} base {_fields(vars(phases), *PHASE_NAMES)}"
    )
    for row in rows:
        analytic1 = row["p1_plus_analytic"]
        print(
            f"{_fields(row, 'model', 'angle')} "
            f"p1_plus analytic={'n/a' if analytic1 is None else _format_cell(analytic1)} "
            f"mc={_format_cell(row['p1_plus_mc'])} "
            f"E={_format_cell(row['e_value'])}±{_format_cell(row['e_std_error'])}"
        )
    return 0


def cmd_validate_oracle(args: argparse.Namespace) -> int:
    convention = SplitterConvention(t=args.splitter_t, r=args.splitter_r)
    if args.geometry:
        try:
            geometry = load_geometry(args.geometry)
        except OSError as exc:
            raise ValueError(f"cannot read geometry file: {exc}") from None
    else:
        geometry = default_geometry()

    report = validate_against_reference(geometry, convention)
    for result in report.checks:
        status = "PASS" if result.passed else "FAIL"
        print(
            f"{status} {result.name}: max deviation {result.max_deviation:.3g} "
            f"(tol {result.tolerance:.3g})"
        )
        if result.first_mismatch:
            print(f"     first mismatch: {result.first_mismatch}")
    if report.passed:
        print(f"oracle validation: PASS ({len(report.checks)} checks)")
        return 0
    print("oracle validation: FAIL")
    return 3


def _add_phase_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--alpha", type=float, default=0.0, help="phase on photon 1's long arm")
    parser.add_argument("--beta", type=float, default=0.0, help="phase on photon 2's first long arm")
    parser.add_argument("--gamma", type=float, default=0.0, help="phase on photon 2's second long arm")
    parser.add_argument("--degrees", action="store_true", help="angles given in degrees instead of radians")


def _add_ordering_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--ordering",
        choices=[o.value for o in TimeOrdering],
        default=TimeOrdering.SPACELIKE.value,
        help="impact time ordering: 1 (photon 2 first), 2 (photon 1 first), spacelike",
    )


def _add_model_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--model", required=True, choices=[k.value for k in TheoryKind])
    _add_ordering_argument(parser)


def _add_output_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=["csv", "json"], default="csv")
    parser.add_argument("--out", help="write machine-readable rows to this path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="impactseries",
        description="Predictions and Monte Carlo runs for the two-photon impact-series interferometer",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("predict", help="analytic singles/joint probabilities")
    _add_model_arguments(p)
    _add_phase_arguments(p)
    p.add_argument("--subensemble", choices=["L", "l"], default="L")
    _add_output_arguments(p)
    p.set_defaults(handler=cmd_predict)

    p = sub.add_parser("simulate", help="Monte Carlo coincidence run")
    _add_model_arguments(p)
    _add_phase_arguments(p)
    p.add_argument("--subensemble", choices=["L", "l"], default="L")
    p.add_argument("--events", type=int, default=100_000, help="photon pairs to emit")
    p.add_argument("--seed", type=int, default=0, help="64-bit run seed")
    _add_output_arguments(p)
    p.set_defaults(handler=cmd_simulate)

    p = sub.add_parser("compare", help="QM vs RNL phase scan, analytic and Monte Carlo")
    _add_ordering_argument(p)
    _add_phase_arguments(p)
    p.add_argument("--axis", choices=PHASE_NAMES, default="alpha")
    p.add_argument(
        "--grid",
        default=f"0:{2 * math.pi}:13",
        help="swept angle as start:stop:count (inclusive endpoints)",
    )
    p.add_argument("--events", type=int, default=100_000, help="pairs emitted per grid point")
    p.add_argument("--seed", type=int, default=0)
    _add_output_arguments(p)
    p.set_defaults(handler=cmd_compare)

    p = sub.add_parser("validate-oracle", help="check amplitude tables against the splitter-network derivation")
    p.add_argument("--geometry", help="wiring description file (defaults to the built-in layout)")
    default_convention = SplitterConvention()
    p.add_argument(
        "--splitter-t",
        type=complex,
        default=default_convention.t,
        help="complex transmission amplitude, e.g. 0.7071067811865476",
    )
    p.add_argument(
        "--splitter-r",
        type=complex,
        default=default_convention.r,
        help="complex reflection amplitude, e.g. 0.7071067811865476j",
    )
    p.set_defaults(handler=cmd_validate_oracle)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
