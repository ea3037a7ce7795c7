"""Command-line surface: analytic prediction, simulation, model comparison,
and validation of the amplitude tables against the splitter-network oracle.

README states the commands, exit codes and output schema.  Each command
computes each model's law once for its whole grid, and builds its rows column
by column, one array per column, written a batch of rows at a time.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import Iterator, Sequence

import numpy as np

from .amplitudes import CLASS_ROWS, PHASE_NAMES, PhaseSettings, joint_amplitudes
from .pathspace import OUTCOMES, Subensemble, TimeOrdering
from .theories import Law, TheoryKind, TheoryModel, marginals, predict

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


def _shown(value) -> str:
    """A cell as printed to standard output; an empty cell reads ``n/a``."""
    return "n/a" if value is None else _format_cell(value)


_JSON_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_cell(value) -> str:
    """``value`` as ``json.dumps`` writes it, floats rounded to 6 significant digits."""
    if isinstance(value, float):
        text = f"{value:.6g}"
        if "e" in text or "n" in text:
            # an exponent (subnormals included), NaN or an infinity
            return _JSON_NON_FINITE.get(text) or float.__repr__(float(text))
        # a positional text of at most 6 digits is its float's shortest repr,
        # less the ".0" of a whole number
        return text if "." in text else text + ".0"
    if isinstance(value, str):
        from json.encoder import encode_basestring_ascii

        return encode_basestring_ascii(value)
    return "null" if value is None else int.__repr__(value)


def _analytic_columns(
    command: str, model: TheoryModel, settings: Sequence[PhaseSettings], law: Law
) -> dict:
    """Rows with their provenance, phases and analytic columns (``law``, the law
    on the grid ``settings``, and its class), one row per setting.  A column is
    an array (or a list) of one cell per row, or the one cell of every row; a
    column left out is empty on every row."""
    columns = {
        "command": command,
        "model": model.kind.value,
        "ordering": model.ordering.value,
        "subensemble": law.target.value,
    }
    columns.update(zip(PHASE_NAMES, np.asarray(settings, dtype=float).T))
    for names, field in (
        (("p1_plus_analytic", "p1_minus_analytic"), law.side1),
        (("p2_plus_analytic", "p2_minus_analytic"), law.side2),
        (("joint_pp", "joint_pm", "joint_mp", "joint_mm"), law.joint),
    ):
        if field is not None:
            columns.update(zip(names, field.T))
    return columns


def _run_columns(
    command: str,
    model: TheoryModel,
    law: Law,
    counts: np.ndarray,
    settings: Sequence[PhaseSettings],
    events: int,
    seeds: list[int],
    axis: str | None = None,
) -> dict:
    """The analytic columns of the runs of ``model`` at ``settings``, which
    sampled the rows of ``law``, plus each run's provenance (``events`` events
    from ``seeds[k]``), its counters, row ``k`` of the ``(runs, 4)``
    ``counts``, its singles and E, and the two rules' E anchors (README,
    "Output schema").  ``axis`` names the phase a scan sweeps; a row's
    ``angle`` is its value.  A run with no accepted event leaves its Monte
    Carlo cells None, in object arrays.
    """
    from .montecarlo import estimate_E

    columns = _analytic_columns(command, model, settings, law)
    accepted = counts.sum(axis=1)
    n = len(accepted)
    sums = (columns["alpha"] + columns["beta"]).tolist()
    columns.update(
        axis=axis,
        angle=columns.get(axis),
        events=events,
        seed=seeds,
        accepted=accepted,
        rejected=events - accepted,
        acceptance_rate=accepted / events,
        e_analytic_qm=np.fromiter(((2.0 / 3.0) * abs(math.cos(s)) for s in sums), float, n),
        e_analytic_causal=0.0,  # the causal rules split side 1 evenly at any phase
    )
    columns.update(zip(("r_pp", "r_pm", "r_mp", "r_mm"), counts.T))
    seen = accepted > 0
    side1, side2 = marginals(counts[seen], accepted[seen, None])
    mc = np.stack((*side1.T, *side2.T, *estimate_E(counts[seen])))
    if not seen.all():
        found, mc = mc, np.full((len(mc), n), None, dtype=object)
        mc[:, seen] = found
    names = ("p1_plus_mc", "p1_minus_mc", "p2_plus_mc", "p2_minus_mc", "e_value", "e_std_error")
    columns.update(zip(names, mc))
    return columns


#: Rows converted, formatted and written at a time.
_BATCH_ROWS = 256


def _batches(parts: list[dict], names: tuple[str, ...] = COLUMNS) -> Iterator[list[Sequence]]:
    """The rows of ``parts`` (see :func:`_analytic_columns`), one part after
    the other, ``_BATCH_ROWS`` at a time: per batch, each ``names`` column's
    cells as a list of Python values, or a tuple of its value on every row.
    A part has as many rows as ``alpha``."""
    for columns in parts:
        n = len(columns["alpha"])
        for start in range(0, n, _BATCH_ROWS):
            stop = min(n, start + _BATCH_ROWS)
            yield [
                values[start:stop].tolist() if isinstance(values, np.ndarray)
                else values[start:stop] if isinstance(values, list)
                else (values,) * (stop - start)
                for values in map(columns.get, names)
            ]


def _first_row(columns: dict) -> dict:
    return {name: cells[0] for name, cells in zip(COLUMNS, next(_batches([columns])))}


def _fields(row: dict, *names: str) -> str:
    return " ".join(f"{name}={_format_cell(row[name])}" for name in names)


def _column_texts(values: Sequence, cell, prefix: str) -> list[str]:
    """``prefix + cell(value)`` for each of ``values``, one column's cells of
    one batch; a tuple's one value is formatted once."""
    if type(values) is tuple:
        return [prefix + cell(values[0])] * len(values)
    return [prefix + cell(value) for value in values]


def _emit(parts: list[dict], fmt: str, out_path: str) -> None:
    """Write the rows of ``parts`` (see :func:`_batches`) to ``out_path`` as
    CSV or JSON, a batch at a time.  The JSON text is ``json.dumps({"rows":
    rows}, indent=2) + "\\n"``, byte for byte, written straight into its
    fixed layout."""
    if fmt == "csv":
        cell, prefixes = _format_cell, [""] * len(COLUMNS)
    else:
        # each column's key line inside a ``json.dumps(..., indent=2)`` row object
        cell, prefixes = _json_cell, [f"      {_json_cell(column)}: " for column in COLUMNS]
    rows = (
        row
        for batch in _batches(parts)
        for row in zip(*map(_column_texts, batch, [cell] * len(COLUMNS), prefixes))
    )
    try:
        with open(out_path, "w", encoding="utf-8") as handle:
            if fmt == "csv":
                import csv

                writer = csv.writer(handle, lineterminator="\n")
                writer.writerow(COLUMNS)
                writer.writerows(rows)
            else:
                separator = '{\n  "rows": [\n    {\n'
                for row in rows:
                    handle.write(separator + ",\n".join(row))
                    separator = "\n    },\n    {\n"
                handle.write("\n    }\n  ]\n}\n")
    except OSError as exc:
        raise ValueError(f"cannot write --out file: {exc}") from None


def _check_out(path: str) -> None:
    """Fail before any draw if ``--out`` is empty, a folder or in a missing one."""
    if not path:
        raise ValueError("cannot write --out file: '' is empty")
    if os.path.isdir(path):
        raise ValueError(f"cannot write --out file: {path!r} is a folder")
    if not os.path.isdir(os.path.dirname(path) or "."):
        raise ValueError(f"cannot write --out file: {path!r} is in a missing folder")


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
    if not 1 <= count <= 2**32:
        raise ValueError("grid count must be from 1 to 2**32: point indices are 32-bit spawn keys")
    # checked before any array is built, so numpy has no overflow to warn of
    radians = (start * math.pi / 180.0, stop * math.pi / 180.0) if degrees else ()
    if not all(map(math.isfinite, (start, stop, stop - start, *radians))):
        raise ValueError(f"grid {text!r}: start, stop and stop - start must be finite radians")
    grid = np.linspace(start, stop, count)
    if degrees:
        grid = grid * math.pi / 180.0
    return grid


def _singles_line(row: dict, side: int, rule: str | None) -> str:
    plus, minus = row[f"p{side}_plus_analytic"], row[f"p{side}_minus_analytic"]
    if plus is None:
        return f"side{side}: undefined for this model (depends on the causal completion)"
    line = f"side{side}: p(+)={_format_cell(plus)} p(-)={_format_cell(minus)}"
    if rule:
        line += f"  [p(+) = {rule}]"
    return line


def _rule_labels(law: Law) -> tuple[str | None, str | None]:
    """Each side's ``p(+)`` rule in ``law``, None where the side is undefined."""
    cos_sum = "cos(alpha+beta)"
    cos_diff = "cos(beta-gamma)"
    if law.joint is not None:
        if law.target is Subensemble.SHORT:
            return f"1/2 + {cos_sum}/3", "marginal of the three-path interference law"
        return f"1/2 - {cos_sum}/3", f"1/2 + {cos_diff}/3"
    # the causal rules: photon 1 splits evenly, photon 2's Ll and lL interfere
    return (
        None if law.side1 is None else "1/2 exactly",
        None if law.side2 is None else f"1/2 + {cos_diff}/3",
    )


def _cmd_predict(args: argparse.Namespace) -> int:
    model = TheoryModel(TheoryKind(args.model), TimeOrdering(args.ordering))
    phases = _phases_from(args)
    law = predict(model, [phases], Subensemble(args.subensemble))
    columns = _analytic_columns("predict", model, [phases], law)
    if args.out is not None:
        _emit([columns], args.format, args.out)
    row = _first_row(columns)

    rule1, rule2 = _rule_labels(law)
    print(_fields(row, "model", "ordering", "subensemble", *PHASE_NAMES))
    if law.joint is not None:
        cells = " ".join(
            f"p({outcome.value})={_format_cell(p)}"
            for outcome, p in zip(OUTCOMES, law.joint[0].tolist())
        )
        print(f"joint: {cells}")
    else:
        print("joint: undefined for this model (singles only)")
    print(_singles_line(row, 1, rule1))
    print(_singles_line(row, 2, rule2))
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from .montecarlo import sample

    model = TheoryModel(TheoryKind(args.model), TimeOrdering(args.ordering))
    phases = _phases_from(args)
    target = Subensemble(args.subensemble)
    [law], [counts] = sample([model], [phases], [args.seed], args.events, target)
    columns = _run_columns("simulate", model, law, counts, [phases], args.events, [args.seed])
    if args.out is not None:
        _emit([columns], args.format, args.out)
    row = _first_row(columns)

    print(_fields(row, "model", "ordering", "subensemble", *PHASE_NAMES, "events", "seed"))
    print(
        f"counts: R(++)={row['r_pp']} R(+-)={row['r_pm']} R(-+)={row['r_mp']} "
        f"R(--)={row['r_mm']} {_fields(row, 'accepted', 'rejected')}"
    )
    print(_fields(row, "acceptance_rate"))
    print(
        f"E={_shown(row['e_value'])} std_error={_shown(row['e_std_error'])} "
        f"[analytic: qm {_format_cell(row['e_analytic_qm'])}, "
        f"causal {_format_cell(row['e_analytic_causal'])}]"
    )
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from .montecarlo import point_seeds, sample

    phases = _phases_from(args)
    joint_amplitudes([phases])  # checks the base point, the swept phase's value included
    grid = _parse_grid(args.grid, args.degrees)
    ordering = TimeOrdering(args.ordering)
    models = [TheoryModel(kind, ordering) for kind in (TheoryKind.QM, TheoryKind.RNL)]
    settings = np.tile(phases, (len(grid), 1))
    settings[:, PHASE_NAMES.index(args.axis)] = grid
    seeds = point_seeds(args.seed, len(grid))
    laws, counts = sample(models, settings, seeds, args.events)
    parts = [
        _run_columns("compare", model, law, model_counts, settings, args.events, seeds, args.axis)
        for model, law, model_counts in zip(models, laws, counts)
    ]
    if args.out is not None:
        _emit(parts, args.format, args.out)

    print(
        f"compare axis={args.axis} points={len(grid)} events_per_point={args.events} "
        f"seed={args.seed} base {_fields(phases._asdict(), *PHASE_NAMES)}"
    )
    shown = ("model", "angle", "p1_plus_analytic", "p1_plus_mc", "e_value", "e_std_error")
    for batch in _batches(parts, shown):
        print("\n".join(
            f"model={model} angle={_format_cell(angle)} p1_plus analytic={_shown(analytic)} "
            f"mc={_shown(mc)} E={_shown(value)}±{_shown(error)}"
            for model, angle, analytic, mc, value, error in zip(*batch)
        ))
    return 0


def _cmd_validate_oracle(args: argparse.Namespace) -> int:
    # imported here: the other commands never load the oracle
    from .bsnetwork import (
        SplitterConvention,
        default_geometry,
        parse_geometry,
        validate_against_reference,
    )

    default = SplitterConvention()
    convention = SplitterConvention(
        t=default.t if args.splitter_t is None else args.splitter_t,
        r=default.r if args.splitter_r is None else args.splitter_r,
    )
    if args.geometry:
        try:
            with open(args.geometry, encoding="utf-8") as handle:
                geometry = parse_geometry(handle.read())
        except OSError as exc:
            raise ValueError(f"cannot read geometry file: {exc}") from None
    else:
        geometry = default_geometry()

    checks = validate_against_reference(geometry, convention)
    for result in checks:
        status = "PASS" if result.passed else "FAIL"
        print(
            f"{status} {result.name}: max deviation {result.max_deviation:.3g} "
            f"(tol {result.tolerance:.3g})"
        )
        if result.first_mismatch:
            print(f"     first mismatch: {result.first_mismatch}")
    if all(result.passed for result in checks):
        print(f"oracle validation: PASS ({len(checks)} checks)")
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
    # the classes with an amplitude table
    parser.add_argument("--subensemble", choices=[sub.value for sub in CLASS_ROWS], default="L")


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
    _add_output_arguments(p)
    p.set_defaults(handler=_cmd_predict)

    p = sub.add_parser("simulate", help="Monte Carlo coincidence run")
    _add_model_arguments(p)
    _add_phase_arguments(p)
    p.add_argument("--events", type=int, default=100_000, help="photon pairs to emit")
    p.add_argument("--seed", type=int, default=0, help="64-bit run seed")
    _add_output_arguments(p)
    p.set_defaults(handler=_cmd_simulate)

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
    p.add_argument(
        "--seed", type=int, default=0,
        help="64-bit scan seed; point k runs with point_seeds(seed, points)[k]",
    )
    _add_output_arguments(p)
    p.set_defaults(handler=_cmd_compare)

    p = sub.add_parser("validate-oracle", help="check amplitude tables against the splitter-network derivation")
    p.add_argument("--geometry", help="wiring description file (defaults to the built-in layout)")
    p.add_argument(
        "--splitter-t",
        type=complex,
        help="complex transmission amplitude, e.g. 0.7071067811865476",
    )
    p.add_argument(
        "--splitter-r",
        type=complex,
        help="complex reflection amplitude, e.g. 0.7071067811865476j",
    )
    p.set_defaults(handler=_cmd_validate_oracle)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if getattr(args, "out", None) is not None:
            _check_out(args.out)
        return args.handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    try:
        code = main()
        sys.stdout.flush()  # inside the try, so a closed reader fails here
    except BrokenPipeError:
        # standard output was closed early (``| head``): as Python's SIGPIPE
        # note advises, the exit's flush goes to devnull, so no traceback
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":
    entrypoint()
