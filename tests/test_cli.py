"""Command-line surface: exit codes, output schema, reproducibility."""

import ast
import contextlib
import csv
import hashlib
import io
import itertools
import json
import math
import os
import resource
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import impactseries
from impactseries import montecarlo
from impactseries.amplitudes import PhaseSettings
from impactseries.cli import (
    _BATCH_ROWS, COLUMNS, _emit, _first_row, _format_cell, _rule_labels, _run_columns, main
)
from impactseries.montecarlo import sample
from impactseries.pathspace import Subensemble, TimeOrdering
from impactseries.theories import TheoryKind, TheoryModel, marginals, predict


GEOMETRIES = Path(__file__).resolve().parent.parent / "geometries"


def read_csv(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def read_json(path):
    with open(path) as handle:
        return json.load(handle)["rows"]


def child_env():
    """The environment of a CLI child process: this package on its path, and
    standard output block-buffered, as it is by default, whatever
    ``PYTHONUNBUFFERED`` the tests run with."""
    src = str(Path(impactseries.__file__).resolve().parents[1])
    env = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
    return {**env, "PYTHONPATH": src}


def capped_run(*argv):
    """``python -m impactseries.cli argv`` in a child capped at 512 MiB of
    address space, so a command that allocates without bound fails there
    with a ``MemoryError`` and does not fill the host."""
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))

    return subprocess.run(
        [sys.executable, "-m", "impactseries.cli", *argv],
        env={**child_env(), "OPENBLAS_NUM_THREADS": "1"}, capture_output=True, timeout=60,
        preexec_fn=cap,
    )


class TestPredict:
    def test_qm_at_zero_phases(self, capsys):
        code = main(["predict", "--model", "qm", "--alpha", "0", "--beta", "0", "--gamma", "0"])
        out = capsys.readouterr().out
        assert code == 0
        assert "side1: p(+)=0.166667 p(-)=0.833333" in out
        assert "side2: p(+)=0.833333 p(-)=0.166667" in out
        assert "p(-+)=0.75" in out

    def test_rnl_spacelike(self, capsys):
        code = main(["predict", "--model", "rnl", "--ordering", "spacelike",
                     "--beta", "0", "--gamma", "0"])
        out = capsys.readouterr().out
        assert code == 0
        assert "side1: p(+)=0.5 p(-)=0.5" in out
        assert "side2: p(+)=0.833333 p(-)=0.166667" in out

    def test_causal_spacelike_is_a_contract_error(self, capsys):
        code = main(["predict", "--model", "causal", "--ordering", "spacelike"])
        captured = capsys.readouterr()
        assert code == 2
        assert "time orderings 1 and 2" in captured.err

    def test_causal_ordering_two_leaves_side2_open(self, capsys):
        code = main(["predict", "--model", "causal", "--ordering", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "side1: p(+)=0.5 p(-)=0.5" in out
        assert "side2: undefined" in out

    def test_degrees_flag(self, capsys):
        code = main(["predict", "--model", "qm", "--alpha", "180", "--degrees"])
        out = capsys.readouterr().out
        assert code == 0
        assert "side1: p(+)=0.833333" in out

    def test_short_class_prediction(self, capsys):
        code = main(["predict", "--model", "qm", "--subensemble", "l"])
        out = capsys.readouterr().out
        assert code == 0
        assert "side1: p(+)=0.833333" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ["predict", "--model", "rnl", "--subensemble", "l"],
            ["predict", "--model", "causal", "--ordering", "1", "--subensemble", "l"],
            ["simulate", "--model", "rnl", "--subensemble", "l", "--events", "1000"],
        ],
    )
    def test_causal_rules_outside_their_domain_are_contract_errors(self, argv, capsys):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert "difference-L class only" in captured.err
        assert captured.out == ""

    def test_row_emission(self, tmp_path, capsys):
        out_file = tmp_path / "predict.json"
        code = main(["predict", "--model", "qm", "--format", "json", "--out", str(out_file)])
        capsys.readouterr()
        assert code == 0
        rows = read_json(out_file)
        assert len(rows) == 1
        assert rows[0]["p1_plus_analytic"] == pytest.approx(0.166667)
        assert rows[0]["events"] is None
        assert list(rows[0]) == list(COLUMNS)

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_a_failed_write_of_the_out_file_is_an_argument_error(self, capsys):
        # /dev/full passes the --out checks; its write fails with ENOSPC
        code = main(["predict", "--model", "qm", "--out", "/dev/full"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == (
            "error: cannot write --out file: [Errno 28] No space left on device\n"
        )


class TestRuleLabels:
    """The printed ``p(+) = ...`` labels state the law that computed the number."""

    IN_DOMAIN = [
        *[(TheoryKind.QM, ordering, sub) for ordering in TimeOrdering
          for sub in (Subensemble.LONG, Subensemble.SHORT)],
        *[(TheoryKind.CAUSAL, ordering, Subensemble.LONG)
          for ordering in (TimeOrdering.PHOTON2_FIRST, TimeOrdering.PHOTON1_FIRST)],
        *[(TheoryKind.RNL, ordering, Subensemble.LONG) for ordering in TimeOrdering],
    ]
    GRID = [
        PhaseSettings(*angles)
        for angles in itertools.product((0.0, 0.7, -1.3, 2.9), repeat=3)
    ]

    @pytest.mark.parametrize("kind, ordering, target", IN_DOMAIN)
    def test_labels_evaluate_to_the_predicted_singles(self, kind, ordering, target):
        model = TheoryModel(kind, ordering)
        for ph in self.GRID:
            law = predict(model, [ph], target)
            labels = _rule_labels(law)
            pairs = (law.side1, law.side2)
            for side, (label, pair) in enumerate(zip(labels, pairs)):
                assert (label is None) == (pair is None)
                if label is None:
                    continue
                if label == "1/2 exactly":
                    assert pair[0, 0] == 0.5
                elif "cos" in label:
                    phases = {"alpha": ph.alpha, "beta": ph.beta, "gamma": ph.gamma}
                    value = eval(label, {"__builtins__": {}, "cos": math.cos}, phases)
                    assert value == pytest.approx(pair[0, 0], abs=1e-12)
                else:
                    # a label without a formula only where the side is the joint's marginal
                    assert law.joint is not None
                    assert np.array_equal(pair, marginals(law.joint)[side])


class TestRunRow:
    def test_analytic_anchors(self):
        counts = np.array([[1, 1, 1, 1]])
        model = TheoryModel(TheoryKind.QM)
        for alpha, anchor in ((0.0, 2 / 3), (math.pi / 2, 0.0)):
            settings = [PhaseSettings(alpha=alpha)]
            law = predict(model, settings)
            row = _first_row(
                _run_columns("simulate", model, law, counts, settings, 4, [0])
            )
            assert row["e_analytic_qm"] == pytest.approx(anchor, abs=1e-12)
            assert row["e_analytic_causal"] == 0.0


@pytest.mark.parametrize(
    "argv, kinds",
    [
        (["simulate", "--model", "qm", "--events", "1000"], ["qm"]),
        (["compare", "--grid", "0:1:3", "--events", "1000"], ["qm", "rnl"]),
        (["predict", "--model", "rnl"], ["rnl"]),
    ],
)
def test_each_command_predicts_each_model_once(argv, kinds, monkeypatch, capsys):
    # a model's law covers the command's whole grid, so it is predicted once
    made = []

    def counted(model, *args, **kwargs):
        made.append(model.kind.value)
        return predict(model, *args, **kwargs)

    # every module that holds the function calls the counted one
    for name, module in list(sys.modules.items()):
        if name.startswith("impactseries") and getattr(module, "predict", None) is predict:
            monkeypatch.setattr(module, "predict", counted)
    assert main(argv) == 0
    capsys.readouterr()
    assert made == kinds


class TestSimulate:
    ARGS = ["simulate", "--model", "qm", "--events", "200000", "--seed", "42",
            "--alpha", "0", "--beta", "0", "--gamma", "0"]

    def test_headline_statistic(self, capsys):
        code = main(self.ARGS)
        out = capsys.readouterr().out
        assert code == 0
        line = next(l for l in out.splitlines() if l.startswith("E="))
        value = float(line.split()[0].split("=")[1])
        assert abs(abs(value) - 2 / 3) < 0.01

    def test_rnl_is_consistent_with_zero(self, capsys):
        code = main(["simulate", "--model", "rnl", "--events", "200000", "--seed", "42"])
        out = capsys.readouterr().out
        assert code == 0
        line = next(l for l in out.splitlines() if l.startswith("E="))
        value = float(line.split()[0].split("=")[1])
        sigma = float(line.split()[1].split("=")[1])
        assert abs(value) <= 4 * sigma

    def test_byte_identical_repeat_runs(self, tmp_path, capsys):
        first = tmp_path / "first.csv"
        second = tmp_path / "second.csv"
        assert main(self.ARGS + ["--out", str(first)]) == 0
        assert main(self.ARGS + ["--out", str(second)]) == 0
        capsys.readouterr()
        assert first.read_bytes() == second.read_bytes()

    def test_csv_and_json_carry_identical_numbers(self, tmp_path, capsys):
        csv_path = tmp_path / "run.csv"
        json_path = tmp_path / "run.json"
        assert main(self.ARGS + ["--out", str(csv_path)]) == 0
        assert main(self.ARGS + ["--format", "json", "--out", str(json_path)]) == 0
        capsys.readouterr()
        csv_row = read_csv(csv_path)[0]
        json_row = read_json(json_path)[0]
        assert set(csv_row) == set(json_row) == set(COLUMNS)
        for column in COLUMNS:
            text, value = csv_row[column], json_row[column]
            if value is None:
                assert text == ""
            elif isinstance(value, str):
                assert text == value
            else:
                assert float(text) == pytest.approx(float(value), rel=1e-12)

    def test_row_carries_full_provenance(self, tmp_path, capsys):
        out_file = tmp_path / "run.csv"
        assert main(self.ARGS + ["--out", str(out_file)]) == 0
        capsys.readouterr()
        row = read_csv(out_file)[0]
        assert row["model"] == "qm"
        assert row["seed"] == "42"
        assert row["events"] == "200000"
        assert row["subensemble"] == "L"
        assert int(row["accepted"]) + int(row["rejected"]) == 200000

    def test_invalid_events_is_an_argument_error(self, capsys):
        code = main(["simulate", "--model", "qm", "--events", "0"])
        captured = capsys.readouterr()
        assert code == 2
        assert "error" in captured.err.lower()

    MC_COLUMNS = ("p1_plus_mc", "p1_minus_mc", "p2_plus_mc", "p2_minus_mc", "e_value",
                  "e_std_error")

    @pytest.mark.parametrize("seed", range(5))
    def test_run_with_no_accepted_event_leaves_its_estimates_empty(self, seed, tmp_path, capsys):
        # one pair, rejected by the coincidence window at each of these seeds
        argv = ["simulate", "--model", "qm", "--events", "1", "--seed", str(seed)]
        assert main(argv + ["--out", str(tmp_path / "run.csv")]) == 0
        assert main(argv + ["--format", "json", "--out", str(tmp_path / "run.json")]) == 0
        out = capsys.readouterr().out
        assert "accepted=0 rejected=1" in out
        assert "E=n/a std_error=n/a " in out
        csv_row, json_row = read_csv(tmp_path / "run.csv")[0], read_json(tmp_path / "run.json")[0]
        assert csv_row["accepted"] == "0" and json_row["accepted"] == 0
        for column in self.MC_COLUMNS:
            assert csv_row[column] == ""
            assert json_row[column] is None
        assert json_row["p1_plus_analytic"] == pytest.approx(1 / 6, abs=1e-6)

    def test_unknown_model_is_an_argument_error(self, capsys):
        code = main(["simulate", "--model", "pilotwave"])
        capsys.readouterr()
        assert code == 2


class TestCompare:
    def test_fringe_against_flat_line(self, tmp_path, capsys):
        out_file = tmp_path / "scan.csv"
        code = main([
            "compare", "--axis", "alpha", "--grid", f"0:{2 * math.pi}:13",
            "--events", "20000", "--seed", "3", "--out", str(out_file),
        ])
        capsys.readouterr()
        assert code == 0
        rows = read_csv(out_file)
        assert len(rows) == 26
        qm_values = [float(r["p1_plus_analytic"]) for r in rows if r["model"] == "qm"]
        rnl_values = [float(r["p1_plus_analytic"]) for r in rows if r["model"] == "rnl"]
        assert max(qm_values) == pytest.approx(5 / 6, abs=1e-4)
        assert min(qm_values) == pytest.approx(1 / 6, abs=1e-4)
        assert (max(qm_values) - min(qm_values)) / 2 == pytest.approx(1 / 3, abs=1e-4)
        assert rnl_values == [pytest.approx(0.5)] * 13
        # the causal rules' E anchor is 0 on every row, whichever model ran
        assert {r["e_analytic_causal"] for r in rows} == {"0"}

    def test_rows_replay_from_embedded_provenance(self, tmp_path, capsys):
        # a row prints its phases to 6 significant digits, so it is only sure to
        # replay where that rounding is exact: 0, 1.5 and 3 are, most grids' points not
        out_file = tmp_path / "scan.csv"
        assert main([
            "compare", "--axis", "beta", "--grid", "0:3:3",
            "--events", "10000", "--seed", "8", "--out", str(out_file),
        ]) == 0
        capsys.readouterr()
        for row in read_csv(out_file):
            model = TheoryModel(TheoryKind(row["model"]), TimeOrdering(row["ordering"]))
            phases = PhaseSettings(float(row["alpha"]), float(row["beta"]), float(row["gamma"]))
            _, replayed = sample([model], [phases], [int(row["seed"])], int(row["events"]))
            assert replayed.tolist() == [[
                [int(row["r_pp"]), int(row["r_pm"]), int(row["r_mp"]), int(row["r_mm"])]
            ]]

    def test_points_with_no_accepted_event_do_not_abort_the_scan(self, tmp_path, capsys):
        out_file = tmp_path / "scan.csv"
        code = main(["compare", "--events", "2", "--grid", "0:1:5", "--seed", "0",
                     "--out", str(out_file)])
        out = capsys.readouterr().out
        assert code == 0
        rows = read_csv(out_file)
        assert len(rows) == 10
        empty = [row for row in rows if row["accepted"] == "0"]
        assert empty and all(row["e_value"] == row["p1_plus_mc"] == "" for row in empty)
        assert out.count("mc=n/a E=n/a±n/a") == len(empty)

    def test_single_point_grid(self, tmp_path, capsys):
        out_file = tmp_path / "one.csv"
        code = main(["compare", "--axis", "beta", "--grid", "1.2:1.2:1", "--events", "5000",
                     "--alpha", "0.5", "--out", str(out_file)])
        capsys.readouterr()
        assert code == 0
        rows = read_csv(out_file)
        assert len(rows) == 2  # one qm row, one rnl row
        # the swept phase takes the grid angle, the others keep their base values
        assert {(r["axis"], r["angle"], r["alpha"], r["beta"], r["gamma"]) for r in rows} == {
            ("beta", "1.2", "0.5", "1.2", "0")
        }

    @pytest.mark.parametrize("flag, value", [("--axis", "delta"), ("--grid", "0:1:0")])
    def test_bad_axis_and_empty_grid_are_argument_errors(self, flag, value, capsys):
        assert main(["compare", flag, value, "--events", "100"]) == 2
        assert capsys.readouterr().out == ""

    def test_grid_count_above_2_to_the_32_is_rejected_before_any_array(
        self, monkeypatch, capsys
    ):
        # point indices are 32-bit spawn keys; numpy would first be asked for
        # the grid's 2**32 + 1 doubles, 32 GiB
        monkeypatch.setattr(np, "linspace", lambda *args: pytest.fail("grid built"))
        code = main(["compare", "--grid", f"0:1:{2**32 + 1}", "--events", "100"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: grid count must be from 1 to 2**32")

    def test_degrees_grid_is_written_in_radians(self, tmp_path, capsys):
        out_file = tmp_path / "scan.csv"
        code = main(["compare", "--degrees", "--grid", "0:180:3", "--events", "100",
                     "--out", str(out_file)])
        capsys.readouterr()
        assert code == 0
        assert [row["angle"] for row in read_csv(out_file)] == ["0", "1.5708", "3.14159"] * 2

    def test_malformed_grid(self, capsys):
        code = main(["compare", "--grid", "0:1"])
        captured = capsys.readouterr()
        assert code == 2
        assert "grid" in captured.err

    def test_grid_that_is_not_numbers_names_the_bad_part(self, capsys):
        code = main(["compare", "--grid", "a:1:3"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (
            "error: cannot parse grid 'a:1:3': could not convert string to float: 'a'\n"
        )

    @pytest.mark.parametrize(
        "grid, flags",
        [
            ("inf:1:3", []),
            ("-inf:1:3", []),
            ("nan:1:3", []),
            ("0:1e309:2", []),
            ("-1e308:1e308:3", []),  # finite ends, but stop - start overflows
            ("0:1e308:3", ["--degrees"]),  # overflows on conversion to radians
        ],
    )
    def test_non_finite_grid_is_one_error_line(self, grid, flags, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy overflow warning fails the test
            code = main(["compare", f"--grid={grid}", *flags, "--events", "100"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith(f"error: grid {grid!r}: ")
        assert captured.err.count("\n") == 1 and captured.err.endswith("\n")

    # 2**48 + 1 events would need block spawn key 2**32
    @pytest.mark.parametrize(
        "flag, value", [("--events", "0"), ("--events", str(2**48 + 1)), ("--seed", "-1")]
    )
    def test_contract_error_prints_nothing_to_stdout(self, flag, value, capsys):
        code = main(["compare", "--grid", "0:1:2", flag, value])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: ")
        assert captured.out == ""

    @pytest.mark.parametrize("seed", ["-1", str(2**64), str(2**70)])
    def test_seed_outside_64_bits_is_an_argument_error(self, seed, monkeypatch, capsys):
        monkeypatch.setattr(montecarlo, "_sample_streams", lambda *args: pytest.fail("drawn"))
        code = main(["compare", "--grid", "0:1:2", "--events", "100", "--seed", seed])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == "error: seed must fit in an unsigned 64-bit integer\n"
        assert captured.out == ""

    def test_a_closed_standard_output_is_exit_1_without_a_traceback(self):
        # 6,000 rows (~480 KB) outgrow the 64 KB pipe buffer, so once the
        # reader has taken one line and closed the pipe a print fails (EPIPE)
        child = subprocess.Popen(
            [sys.executable, "-m", "impactseries.cli", "compare", "--grid", "0:6:3000",
             "--events", "100"],
            env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        assert child.stdout.readline().startswith(b"compare axis=alpha points=3000 ")
        child.stdout.close()
        _, err = child.communicate(timeout=60)
        assert child.returncode == 1
        assert err == b""


@pytest.mark.parametrize(
    "argv",
    [
        ["predict", "--model", "qm", "--alpha", "1e308", "--beta", "1e308"],
        ["simulate", "--model", "qm", "--alpha", "1e308", "--beta", "1e308", "--events", "100"],
        # the base phases pass; the last grid point's alpha + beta does not
        ["compare", "--grid", "0:1e308:3", "--beta", "1e308", "--events", "100"],
        # every grid point passes, but the base point, swept phase included, does not
        ["compare", "--alpha", "1e308", "--beta", "1e308", "--grid", "0:1:3", "--events", "100"],
    ],
)
def test_phase_sum_overflow_is_one_error_line(argv, capsys):
    # each phase is finite, but alpha + beta overflows to inf
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: phases ")
    assert "alpha" in captured.err and "beta" in captured.err
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")


@pytest.mark.parametrize(
    "target, reason",
    [("no-such-dir/rows.csv", "is in a missing folder"), (".", "is a folder"), (None, "is empty")],
    ids=["missing-folder", "folder", "empty"],
)
@pytest.mark.parametrize(
    "argv",
    [
        ["predict", "--model", "qm"],
        ["simulate", "--model", "qm", "--events", "100000000"],
        ["compare", "--grid", "0:1:2", "--events", "1000"],
    ],
)
def test_unwritable_out_file_is_an_argument_error(argv, target, reason, tmp_path, monkeypatch,
                                                  capsys):
    # main returns instead of raising, so no traceback reaches the user; the
    # target is checked before any draw, so a long run cannot end in this error;
    # an empty --out names no file, and is not a request to write none
    monkeypatch.setattr(montecarlo, "sample", lambda *args: pytest.fail("sampled"))
    out = "" if target is None else str(tmp_path / target)
    code = main(argv + ["--out", out])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == f"error: cannot write --out file: {out!r} {reason}\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["predict", "--model", "rnl", "--subensemble", "l"],
        ["simulate", "--model", "causal"],
        ["simulate", "--model", "qm", "--events", "0"],
        ["compare", "--grid", "0:1:0"],
    ],
)
def test_argument_or_domain_error_makes_no_out_file(argv, tmp_path, capsys):
    out_file = tmp_path / "rows.csv"
    assert main(argv + ["--out", str(out_file)]) == 2
    assert capsys.readouterr().out == ""
    assert not out_file.exists()


def json_dumps_rows(rows):
    """Reference for the JSON ``--out`` text: ``json.dumps`` of the rows, floats at 6
    significant digits."""
    payload = [
        {c: float(f"{row[c]:.6g}") if isinstance(row[c], float) else row[c] for c in COLUMNS}
        for row in rows
    ]
    return json.dumps({"rows": payload}, indent=2) + "\n"


#: The writer takes a column as a list or as an array of its cells.
COLUMN_TYPES = [list, lambda cells: np.array(cells, dtype=object)]
COLUMN_KINDS = pytest.mark.parametrize("column", COLUMN_TYPES, ids=["list", "array"])


class TestJsonWriter:
    """The fixed-layout JSON writer against ``json.dumps(..., indent=2)``, token for token."""

    VALUES = [
        None, "qm", "L", 'quote " back \\ tab \t \u00e9 \u2603', "", 0, 7, -3, 2**70,
        0.0, -0.0, 4.08216e-17, 1.2246467991473532e-16, 1e-05, 1e16, 123456.7, 0.1666666666,
        -2.5e-300, 1.7976931348623157e308, math.nan, math.inf, -math.inf,
        # the ends of .6g's positional range, and the subnormals
        5e-324, 2.2250738585072014e-308, 1e-4, 9.99999e-05, 999999.0, 999999.5, 1e6,
        -123456.0,
    ]

    @staticmethod
    def written(rows, tmp_path, fmt="json", column=list):
        out_file = tmp_path / f"rows.{fmt}"
        _emit([{c: column([row[c] for row in rows]) for c in COLUMNS}], fmt, str(out_file))
        # bytes as written: reading as text would turn a cell's "\r" into "\n"
        return out_file.read_bytes().decode("utf-8")

    @COLUMN_KINDS
    @pytest.mark.parametrize("count", [1, 2, len(VALUES)])
    def test_equals_json_dumps(self, count, column, tmp_path):
        # every column meets every value across the rows
        rows = [
            {c: self.VALUES[(i + k) % len(self.VALUES)] for i, c in enumerate(COLUMNS)}
            for k in range(count)
        ]
        assert self.written(rows, tmp_path, column=column) == json_dumps_rows(rows)

    @settings(max_examples=60)
    @given(
        values=st.lists(
            st.lists(
                st.one_of(
                    st.none(), st.text(), st.integers(), st.floats(),
                    # text the CSV writer must quote
                    st.sampled_from(["a,b", 'say "hi"', "two\nlines", "cr\r\nlf", " ,\""]),
                ),
                min_size=len(COLUMNS),
                max_size=len(COLUMNS),
            ),
            min_size=1,
            max_size=3,
        )
    )
    def test_equals_json_dumps_on_drawn_rows(self, values, tmp_path_factory):
        # and, written as CSV, the csv module's writer over the formatted cells
        rows = [dict(zip(COLUMNS, row)) for row in values]
        expected = io.StringIO()
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow(COLUMNS)
        writer.writerows([_format_cell(row[c]) for c in COLUMNS] for row in rows)
        for column in COLUMN_TYPES:
            written = self.written(rows, tmp_path_factory.mktemp("rows"), column=column)
            assert written == json_dumps_rows(rows)
            written = self.written(rows, tmp_path_factory.mktemp("rows"), "csv", column)
            assert written == expected.getvalue()

    # a column meets each of these again and again, across the batches the
    # writer formats at a time: equal keys that print apart (0.0 and -0.0,
    # 1 and 1.0) and NaN, which equals nothing, must never share a cell text
    REPEATED = [0.0, -0.0, -0.0, 0.0, math.nan, math.nan, 1, 1.0, 1.0, 1, "1", None,
                math.inf, -math.inf, 2.5, 2.5, 1e-05, 0.1666666666, 2**70]

    def repeated_rows(self):
        count = 2 * _BATCH_ROWS + 7
        return [
            {c: self.REPEATED[(3 * i + k) % len(self.REPEATED)] for i, c in enumerate(COLUMNS)}
            for k in range(count)
        ]

    @COLUMN_KINDS
    def test_repeated_cells_equal_json_dumps(self, column, tmp_path):
        rows = self.repeated_rows()
        assert self.written(rows, tmp_path, column=column) == json_dumps_rows(rows)

    @COLUMN_KINDS
    def test_repeated_cells_equal_the_csv_writer(self, column, tmp_path):
        rows = self.repeated_rows()
        expected = io.StringIO()
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow(COLUMNS)
        writer.writerows([_format_cell(row[c]) for c in COLUMNS] for row in rows)
        assert self.written(rows, tmp_path, "csv", column) == expected.getvalue()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_numeric_arrays_equal_their_lists(self, fmt, tmp_path):
        # float64 and int64 columns, signed zeros and NaN across the batches,
        # beside one value and a left-out column standing for every row
        count = 2 * _BATCH_ROWS + 7
        zeros = np.tile([0.0, -0.0, math.nan, 1.0, 2.5], count)[:count]
        arrays = {
            c: zeros if k % 2 else np.arange(count) % 3 for k, c in enumerate(COLUMNS)
        }
        arrays.update(command="compare", axis=None)
        listed = {c: [v] * count if v is None or isinstance(v, str) else v.tolist()
                  for c, v in arrays.items()}
        written = []
        for columns in (arrays, listed):
            out_file = tmp_path / f"rows-{len(written)}.{fmt}"
            _emit([columns], fmt, str(out_file))
            written.append(out_file.read_bytes())
        assert written[0] == written[1]
        assert b"-0" in written[0] and (b"NaN" if fmt == "json" else b"nan") in written[0]

    @pytest.mark.parametrize("as_list", [True, False], ids=["list", "array"])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_memory_does_not_grow_with_the_rows(self, fmt, as_list, tmp_path):
        # distinct floats in six columns, the others left out: ten times the
        # rows must not take more memory to write than a few batches do
        def peak(batches):
            rng = np.random.default_rng(batches)
            rows = batches * _BATCH_ROWS
            distinct = ("alpha", "beta", "gamma", "e_value", "e_std_error", "e_analytic_qm")
            columns = {c: rng.random(rows) for c in distinct}
            if as_list:
                columns = {c: values.tolist() for c, values in columns.items()}
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                _emit([columns], fmt, str(tmp_path / f"rows-{batches}.{fmt}"))
                return tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()

        assert peak(40) <= 1.5 * peak(4)


class TestFrozenOutput:
    """Exact ``--out`` and stdout bytes of fixed runs; a refactor of the row code must keep them."""

    PHASES = ["--alpha", "0.3", "--beta", "1.1", "--gamma", "-0.4"]
    RUN = ["--events", "5000", "--seed", "7"]
    # the default 13-point grid: rows at alpha ~ pi/2 and 3*pi/2 carry
    # e_analytic_qm = 4.08216e-17 and 1.22465e-16, not 0
    COMPARE = ["compare", "--grid", "0:6.283185307179586:13", "--events", "2000", "--seed", "3"]
    # 3 blocks per point, the last of 8,928 events
    MULTI_BLOCK = ["compare", "--grid", "0:3:4", "--events", "140000", "--seed", "11",
                   "--format", "json"]
    CASES = [
        pytest.param(
            COMPARE, "89729fbedabff4cc3c5fd6655c681f1c2692b763649938ffd1c1dfa92fa065ec",
            id="compare-csv",
        ),
        pytest.param(
            COMPARE + ["--format", "json"],
            "5aa3ec245fae92696651e4f675c897422a3a036254db430f06bbe21a18cf618d",
            id="compare-json",
        ),
        pytest.param(
            ["simulate", "--model", "rnl", "--events", "5000", "--seed", "7", "--format", "json"],
            "2af74946432bffef601915f3ef1ac99a7d428f5db39fe95ac39ffa17d53120b9",
            id="simulate-rnl-json",
        ),
        pytest.param(
            ["simulate", "--model", "qm", "--subensemble", "l", "--events", "5000", "--seed", "7",
             "--alpha", "0.4"],
            "b6cb086ca5ff3480fa9344e798a73020912a389ed702be362ce90405aac153f7",
            id="simulate-qm-short-csv",
        ),
        pytest.param(
            ["predict", "--model", "qm", *PHASES, "--format", "json"],
            "2347e80ebf98f727a9fb36131b8ddb6d1ddf0233e1898a49e3fcbe3019c6f5af",
            id="predict-qm-json",
        ),
        pytest.param(
            ["predict", "--model", "causal", "--ordering", "1", *PHASES, "--format", "json"],
            "bbf86af03e819e1b9ab53dd4b2d5057f17ba680cb08ca3c068875e2e73fb6ff4",
            id="predict-causal1-json",
        ),
        pytest.param(
            ["predict", "--model", "causal", "--ordering", "2", *PHASES, "--format", "json"],
            "2376ddd2ba74f093895095763e7fc9602237ba37db3157d403143b904d4332ad",
            id="predict-causal2-json",
        ),
        pytest.param(
            ["predict", "--model", "rnl", *PHASES, "--format", "json"],
            "0980d20a7b9db892c8d44fcf4f5972a1a6fc3b77bf4d3685db182a2bfe6cc678",
            id="predict-rnl-json",
        ),
        pytest.param(
            ["compare", "--grid", "0:6.283185307179586:1001", "--events", "1000",
             "--seed", "123", "--format", "json"],
            "9358e654c29e6d19aa725bb0c98637ab88fcc0b94b04ca9fcafcbb0db96373cf",
            id="compare-1001-json",
        ),
        pytest.param(
            MULTI_BLOCK, "83c9c5f48a3077a3e77ef7c4a581f26e6698f4b4e6faae29f8e595e65cde8070",
            id="compare-multi-block-json",
        ),
        # the undefined side's Monte Carlo cells come from filler draws at 1/2:
        # side 1's and E under ordering 1, side 2's under ordering 2
        pytest.param(
            ["simulate", "--model", "causal", "--ordering", "1", *RUN],
            "0e562cc77150faa0f2ff420f25b843d92d04b415833cb3442182fd1dbd67c658",
            id="simulate-causal1-csv",
        ),
        pytest.param(
            ["simulate", "--model", "causal", "--ordering", "2", *RUN],
            "d419810e324b5bde916d5906f5e039951ea71b79ede3ecf70100569936c420c7",
            id="simulate-causal2-csv",
        ),
    ]

    @pytest.mark.parametrize("argv, digest", CASES)
    def test_out_file_bytes(self, argv, digest, tmp_path, capsys):
        out_file = tmp_path / "rows"
        assert main(argv + ["--out", str(out_file)]) == 0
        capsys.readouterr()
        assert hashlib.sha256(out_file.read_bytes()).hexdigest() == digest

    STDOUT_CASES = [
        pytest.param(
            COMPARE, 0, "f30c8f723cd56da245a9a205237343a2bda4046063134e664eaad5b9352cb3b8",
            id="compare",
        ),
        pytest.param(
            MULTI_BLOCK, 0, "e094e0347f2a639c620afe6504f7f39e85f8098957a1d7b8ac8132dbdd5a733d",
            id="compare-multi-block",
        ),
        pytest.param(
            ["simulate", "--model", "qm", *RUN], 0,
            "378e7f1a32babdb80f28a0f50125170e4f90a564da3c4efd6956bd5782f71610",
            id="simulate-qm",
        ),
        pytest.param(
            # prints "analytic: qm 4.08216e-17", the closed form's rounding
            ["simulate", "--model", "qm", "--alpha", "1.5707963267948966", *RUN], 0,
            "6e48d776fbc5051be4c7789a2c99a3f07b36eb0f05e9a48fde500bd222c8cb8f",
            id="simulate-qm-quarter",
        ),
        pytest.param(
            ["simulate", "--model", "rnl", *RUN], 0,
            "485a46471cbeb3f11d6cfea583cb9329bf45abd76f69d9ab3953a77321bc8924",
            id="simulate-rnl",
        ),
        pytest.param(
            # E comes from side 1's filler draws
            ["simulate", "--model", "causal", "--ordering", "1", *RUN], 0,
            "7bb7c49fb93f056a79c26a6e375dd68a55474a3398a4177b325556608953a576",
            id="simulate-causal1",
        ),
        pytest.param(
            ["simulate", "--model", "causal", "--ordering", "2", *RUN], 0,
            "9d9cb31e2c879844029ee55aa5f2236e9ad7a1051367aab1071f0609636d7f84",
            id="simulate-causal2",
        ),
        pytest.param(
            ["simulate", "--model", "qm", "--subensemble", "l", *RUN], 0,
            "e6618527251bbef61e6977a453073d13d0f84b34a5ddbdf28f864f3debddeabd",
            id="simulate-qm-short",
        ),
        pytest.param(
            ["predict", "--model", "qm", *PHASES], 0,
            "4705fff9bdf9488e860c36833106bf3d3c3f3490f6eac3ac5d62582a9f5ff174",
            id="predict-qm",
        ),
        pytest.param(
            ["predict", "--model", "qm", "--subensemble", "l", *PHASES], 0,
            "f222d3d676e7560e9ff258f668d4b6898bb8f4dbd4780229a539f8850bcbd9cd",
            id="predict-qm-short",
        ),
        pytest.param(
            ["predict", "--model", "causal", "--ordering", "1", *PHASES], 0,
            "3bec6c93e9e29faf02c6e82b098eae77db497221b874c46d48da80cba1104eb1",
            id="predict-causal1",
        ),
        pytest.param(
            ["predict", "--model", "causal", "--ordering", "2", *PHASES], 0,
            "5875cc242a5f026ff5c772790587783c9f54c2a149d14234fe383a58c84e0ae9",
            id="predict-causal2",
        ),
        pytest.param(
            ["predict", "--model", "rnl", *PHASES], 0,
            "3f3380dba46ddf275eb4ab505489f0755da85898a5c688b4dc124de4fc49b536",
            id="predict-rnl",
        ),
        pytest.param(
            ["validate-oracle"], 0,
            "894116d0784339cf36a8b152a2b1695c7e94af13aecefa686bc2b84cef2dbfb0",
            id="validate-oracle-default",
        ),
        pytest.param(
            ["validate-oracle", "--geometry", str(GEOMETRIES / "crossed-stage2.geom")], 3,
            "910396cbde9b688774a311db1818035e41df2323f3b6a182b2e5f0f3da9ad096",
            id="validate-oracle-crossed",
        ),
    ]

    @pytest.mark.parametrize("argv, code, digest", STDOUT_CASES)
    def test_stdout_bytes(self, argv, code, digest, capsys):
        assert main(argv) == code
        stdout = capsys.readouterr().out.encode()
        assert hashlib.sha256(stdout).hexdigest() == digest


class TestValidateOracle:
    def test_default_layout_passes(self, capsys):
        code = main(["validate-oracle"])
        out = capsys.readouterr().out
        assert code == 0
        assert "oracle validation: PASS" in out
        assert "FAIL" not in out

    def test_miswired_layout_fails_naming_the_entry(self, tmp_path, capsys):
        layout = tmp_path / "crossed.geom"
        layout.write_text(
            "photon1.source = a\n"
            "photon1.stage1.short = a->a\n"
            "photon1.stage1.long  = b->b phase=alpha\n"
            "photon1.detector.plus  = a\n"
            "photon1.detector.minus = b\n"
            "photon2.source = a\n"
            "photon2.stage1.short = a->a\n"
            "photon2.stage1.long  = b->b phase=beta\n"
            "photon2.stage2.short = a->b\n"
            "photon2.stage2.long  = b->a phase=gamma\n"
            "photon2.detector.plus  = a\n"
            "photon2.detector.minus = b\n"
        )
        code = main(["validate-oracle", "--geometry", str(layout)])
        out = capsys.readouterr().out
        assert code == 3
        assert "oracle validation: FAIL" in out
        assert "first mismatch" in out

    # the second convention is unitary to within ~2e-5 only
    @pytest.mark.parametrize("t, r", [("1", "1"), ("0.7071", "0.7071j")])
    def test_non_unitary_convention_is_rejected_before_derivation(self, t, r, capsys):
        code = main(["validate-oracle", "--splitter-t", t, "--splitter-r", r])
        captured = capsys.readouterr()
        assert code == 2
        assert "splitter convention is not unitary" in captured.err

    # a float power of such an amplitude overflows, where a product is inf;
    # the absolute value of the last one is above the largest float
    @pytest.mark.parametrize(
        "option, value",
        [("--splitter-t", "1e308"), ("--splitter-r", "1e200j"), ("--splitter-t", "1.7e308+1.7e308j")],
    )
    def test_a_huge_amplitude_is_not_unitary(self, option, value, capsys):
        code = main(["validate-oracle", option, value])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (
            "error: splitter convention is not unitary: need |t|^2+|r|^2 = 1 "
            "and t*conj(r) + r*conj(t) = 0\n"
        )

    def test_a_cascade_of_zero_total_is_an_error_without_a_traceback(self, capsys):
        # unitary, but every amplitude of the difference-L class is zero
        code = main(["validate-oracle", "--splitter-t", "0", "--splitter-r", "1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (
            "error: cascade yields zero total probability; cannot renormalize\n"
        )

    def test_an_amplitude_left_out_keeps_its_default(self, capsys):
        # t = 1 beside the default r = i/sqrt(2) is not unitary
        code = main(["validate-oracle", "--splitter-t", "1"])
        captured = capsys.readouterr()
        assert code == 2
        assert "unitary" in captured.err

    def test_the_documented_default_file_reports_as_the_built_in_layout(self, capsys):
        code = main(["validate-oracle"])
        built_in = capsys.readouterr().out
        assert code == 0
        code = main(["validate-oracle", "--geometry", str(GEOMETRIES / "default.geom")])
        assert code == 0
        assert capsys.readouterr().out == built_in

    def test_unreadable_geometry_file(self, capsys):
        code = main(["validate-oracle", "--geometry", "/no/such/file.geom"])
        captured = capsys.readouterr()
        assert code == 2
        assert "geometry" in captured.err

    def test_a_geometry_file_of_64_kib_is_read_and_one_byte_more_is_not(self, tmp_path, capsys):
        main(["validate-oracle"])
        built_in = capsys.readouterr().out
        layout = (GEOMETRIES / "default.geom").read_bytes()
        padded = tmp_path / "padded.geom"
        padded.write_bytes(b"#" * (64 * 1024 - len(layout) - 1) + b"\n" + layout)
        assert main(["validate-oracle", "--geometry", str(padded)]) == 0
        assert capsys.readouterr().out == built_in
        padded.write_bytes(b" " + padded.read_bytes())
        code = main(["validate-oracle", "--geometry", str(padded)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: geometry file is longer than 65536 bytes\n"

    @pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="needs /dev/zero")
    def test_an_endless_geometry_file_is_one_error_line(self):
        # capped: an unbounded read would fail with the cap's MemoryError
        result = capped_run("validate-oracle", "--geometry", "/dev/zero")
        assert result.returncode == 2
        assert result.stdout == b""
        assert result.stderr == b"error: geometry file is longer than 65536 bytes\n"

    def test_a_geometry_line_without_equals_names_its_line(self, tmp_path, capsys):
        layout = tmp_path / "bad.geom"
        layout.write_text("photon1.source a\n")
        code = main(["validate-oracle", "--geometry", str(layout)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (
            "error: line 1: expected 'key = value', got 'photon1.source a'\n"
        )


class TestEntrypoint:
    """The exit code and streams of ``python -m impactseries.cli``, run as a process."""

    @pytest.mark.parametrize(
        "argv",
        [
            # every line waits in standard output's buffer until entrypoint's flush
            ["predict", "--model", "qm"],
            # 2,000 rows (~160 KB) outgrow the 64 KB pipe buffer
            ["compare", "--grid", "0:6:1000", "--events", "100"],
            ["validate-oracle", "--geometry", str(GEOMETRIES / "crossed-stage2.geom")],
            ["predict", "--model", "causal"],
        ],
        ids=["predict", "long-compare", "oracle-fail", "contract-error"],
    )
    def test_the_process_writes_and_exits_as_main_does(self, argv, capsys):
        # the process leaves through os._exit, which flushes nothing itself
        result = subprocess.run(
            [sys.executable, "-m", "impactseries.cli", *argv],
            env={**child_env(), "PYTHONIOENCODING": "utf-8"}, capture_output=True, timeout=60,
        )
        code = main(argv)
        captured = capsys.readouterr()
        assert result.returncode == code
        assert result.stdout == captured.out.encode("utf-8")
        assert result.stderr == captured.err.encode("utf-8")

    def test_a_reader_closed_before_the_start_is_exit_1_without_a_traceback(self):
        # predict's lines fit in standard output's buffer, so the first write
        # to the pipe is entrypoint's flush after main returns
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            result = subprocess.run(
                [sys.executable, "-m", "impactseries.cli", "predict", "--model", "qm"],
                env=child_env(), stdout=write_end, stderr=subprocess.PIPE, timeout=60,
            )
        finally:
            os.close(write_end)
        assert result.returncode == 1
        assert result.stderr == b""

    # inside README's bounds, but past the cap: the grid's 763 MiB of points,
    # and 128 MiB arrays of seed words for 2**24 blocks.  Never run them
    # uncapped: the second would go on to draw 2**40 events.
    @pytest.mark.skipif(not hasattr(resource, "RLIMIT_AS"), reason="needs RLIMIT_AS")
    @pytest.mark.parametrize(
        "argv",
        [
            ["compare", "--grid", "0:1:100000000", "--events", "1"],
            ["simulate", "--model", "qm", "--events", str(2**40)],
        ],
        ids=["grid", "events"],
    )
    def test_a_request_memory_cannot_hold_is_one_error_line(self, argv, tmp_path):
        out = tmp_path / "rows.csv"
        result = capped_run(*argv, "--out", str(out))
        assert result.returncode == 2
        assert result.stdout == b""
        assert result.stderr.startswith(b"error: ")
        assert result.stderr.count(b"\n") == 1
        assert not out.exists()

    @pytest.mark.skipif(not hasattr(resource, "RLIMIT_AS"), reason="needs RLIMIT_AS")
    def test_a_command_runs_under_the_memory_cap(self, tmp_path):
        out = tmp_path / "rows.csv"
        result = capped_run("predict", "--model", "qm", "--out", str(out))
        assert result.returncode == 0
        assert result.stdout.startswith(b"model=qm ")
        assert out.read_text().startswith("command,")


#: Values for the argv property test, valid and hostile.  Every valid value is
#: small: at most 1,000 events and grids of at most 5 points.
NUMBERS = ["0", "1.5", "-0", "1e-320", "1e308", "-1e308", "nan", "inf", "-inf", "", "x"]
EVENTS = ["1", "1000", "0", "-1", str(2**48 + 1), "1e3", "nan", "", "x"]
SEEDS = ["0", "7", str(2**64 - 1), str(2**64), "-1", "1.5", "", "x"]
GRIDS = [
    "0:1:3", "0:6.283185307179586:5", "1:0:2", "0:1:1", "0:1:0", "0:1:-1", "0:1:2.5",
    "0:1e308:3", "-1e308:1e308:2", "0:nan:3", "0:inf:2", "0:1:4294967297", "0:1", "", "x:y:z",
]
AMPLITUDES = [
    "0.7071067811865476", "0.7071067811865476j", "1", "0", "-0", "1e-320", "1e308",
    "1e200j", "1.7e308+1.7e308j", "nan", "infj", "", "x",
]


def option_values(out_dir):
    """The value pool of each option: ``--out`` and ``--geometry`` paths under
    ``out_dir``, and ``/dev/full`` and ``/dev/zero``, whose reads never end
    (a write to ``/dev/full`` fails)."""
    paths = ["", str(out_dir), str(out_dir / "missing" / "rows")]
    paths += [path for path in ("/dev/full", "/dev/zero") if os.path.exists(path)]
    outs = [str(out_dir / "rows"), *paths]
    return {
        "--ordering": ["1", "2", "spacelike", "3", ""],
        "--subensemble": ["L", "l", "2L-l", "x"],
        "--alpha": NUMBERS, "--beta": NUMBERS, "--gamma": NUMBERS,
        "--format": ["csv", "json", "xml"],
        "--out": outs,
        "--events": EVENTS,
        "--seed": SEEDS,
        "--axis": ["alpha", "beta", "gamma", "delta"],
        "--grid": GRIDS,
        "--geometry": [
            str(GEOMETRIES / "default.geom"), str(GEOMETRIES / "crossed-stage2.geom"), *paths
        ],
        "--splitter-t": AMPLITUDES,
        "--splitter-r": AMPLITUDES,
    }


#: Each command's options, less ``--model`` and ``--degrees``.
PREDICT_OPTIONS = ["--ordering", "--subensemble", "--alpha", "--beta", "--gamma", "--format", "--out"]
COMMAND_OPTIONS = {
    "predict": PREDICT_OPTIONS,
    "simulate": [*PREDICT_OPTIONS, "--events", "--seed"],
    "compare": [
        "--ordering", "--alpha", "--beta", "--gamma", "--axis", "--grid", "--events", "--seed",
        "--format", "--out",
    ],
    "validate-oracle": ["--geometry", "--splitter-t", "--splitter-r"],
}
ALL_OPTIONS = sorted({option for options in COMMAND_OPTIONS.values() for option in options})


@st.composite
def argvs(draw, out_dir):
    """A subcommand, ``--model`` where it takes one, up to five options (one
    in four drawn from every command's options) and ``--degrees``."""
    values = option_values(out_dir)
    command = draw(st.sampled_from(sorted(COMMAND_OPTIONS)))
    argv = [command]
    if command in ("predict", "simulate"):
        argv += ["--model", draw(st.sampled_from(["qm", "causal", "rnl", "x"]))]
    own, other = st.sampled_from(COMMAND_OPTIONS[command]), st.sampled_from(ALL_OPTIONS)
    for option in draw(st.lists(st.one_of(own, own, own, other), max_size=5)):
        argv += [option, draw(st.sampled_from(values[option]))]
    if draw(st.booleans()):
        argv.append("--degrees")
    return argv


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("argv")


@settings(max_examples=250, deadline=None)
@given(data=st.data())
def test_any_argv_exits_0_2_or_3_and_a_2_writes_only_its_error(data, out_dir):
    # README's exit-code contract over argv: a command never raises out of
    # main, and one that exits 2 prints nothing to stdout and no traceback
    argv = data.draw(argvs(out_dir), label="argv")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3)
    if code == 2:
        assert out.getvalue() == ""
        assert "Traceback" not in err.getvalue()


#: The modules whose loading ``test_each_command_loads_only_the_code_it_runs`` checks.
WATCHED_MODULES = (
    "impactseries.montecarlo", "impactseries.bsnetwork", "csv", "json.encoder", "dataclasses"
)


def test_each_command_loads_only_the_code_it_runs(tmp_path):
    # the analytic commands load no sampler, only validate-oracle loads the
    # oracle, and a writer's module loads only for an --out file in its format.
    # Each command runs in its own fork of a child that has imported numpy
    # and nothing else; what numpy loads differs between numpy 1 and 2, so the
    # child reports which watched modules that import left loaded.
    out = str(tmp_path / "rows")
    simulate = ["simulate", "--model", "qm", "--events", "1000"]
    compare = ["compare", "--grid", "0:1:3", "--events", "1000"]
    sampler = "impactseries.montecarlo"
    loads = [
        (["predict", "--model", "qm"], set()),
        (["validate-oracle"], {"impactseries.bsnetwork"}),
        (simulate, {sampler}),
        (compare, {sampler}),
        (["predict", "--model", "qm", "--format", "json", "--out", out], {"json.encoder"}),
        (["predict", "--model", "qm", "--format", "csv", "--out", out], {"csv"}),
        (simulate + ["--format", "json", "--out", out], {sampler, "json.encoder"}),
        (simulate + ["--format", "csv", "--out", out], {sampler, "csv"}),
        (compare + ["--format", "json", "--out", out], {sampler, "json.encoder"}),
        (compare + ["--format", "csv", "--out", out], {sampler, "csv"}),
    ]
    script = f"""
import os, sys, traceback
import numpy

baseline = set(sys.modules)
watched = {WATCHED_MODULES!r}
print(sorted(baseline.intersection(watched)), flush=True)

def run(argv):
    import contextlib, io
    from impactseries.cli import main
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    return code, sorted(set(sys.modules).difference(baseline).intersection(watched))

for argv in {[argv for argv, _ in loads]!r}:
    if os.fork() == 0:
        try:
            print(run(argv), flush=True)
        except Exception:
            traceback.print_exc()
        finally:
            os._exit(0)
    os.wait()
"""
    result = subprocess.run(
        [sys.executable, "-c", script], env=child_env(),
        capture_output=True, text=True, timeout=60, check=True,
    )
    first, *lines = result.stdout.splitlines()
    preloaded = set(ast.literal_eval(first))
    assert [ast.literal_eval(line) for line in lines] == [
        (0, sorted(modules - preloaded)) for _, modules in loads
    ], result.stderr
