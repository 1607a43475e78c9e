import contextlib
import io
import itertools
import json
import os
import pathlib
import random
import re
import subprocess
import sys
import tempfile
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from signelim import __version__, boolean_gate, dumps_gate, expand, load_gate, parse_experiment_csv
from signelim import cli, counting, covers, gates, selftest, sensitivity
from signelim.backend import backend_name
from signelim.cli import main
from signelim.gates import rational_string
from signelim.sensitivity import Certificate
from signelim.signvec import UNDETERMINED, canonical_sign_vectors, sign_string

import oracles
from conftest import FIXTURE_PATH, REPO_ROOT, fail_if_called


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


@pytest.fixture()
def and_gate_path(tmp_path):
    path = tmp_path / "and_gate.json"
    path.write_text(dumps_gate(boolean_gate([0, 0, 0, 1], 2)))
    return path


@pytest.fixture()
def first_gate_path(tmp_path):
    path = tmp_path / "first_gate.json"
    path.write_text(dumps_gate(boolean_gate([0, 0, 1, 1], 2)))
    return path


@pytest.fixture()
def two_output_gate_path(tmp_path):
    path = tmp_path / "two_output_gate.json"
    outputs = {(0, 0): ["1", "0"], (0, 1): ["1", "0"], (1, 0): ["1", "0"]}
    entries = [
        {"index": [a, b], "output": outputs.get((a, b), ["0", "1"])}
        for a in range(2)
        for b in range(2)
    ]
    path.write_text(
        json.dumps({"arities": [2, 2], "output_dim": 2, "entries": entries})
    )
    return path


@pytest.fixture()
def projection_csv(tmp_path):
    path = tmp_path / "records.csv"
    path.write_text(
        "b1_0,b1_1,b2_0,b2_1,y1\n"
        "3/4,1/4,3/4,1/4,1/4\n"
        "3/4,1/4,1/4,3/4,1/4\n"
        "1/2,1/2,3/4,1/4,1/2\n"
        "1/2,1/2,1/4,3/4,1/2\n"
    )
    return path


class TestEnumerationCommands:
    def test_zs(self, capsys):
        code, payload, _ = run_json(capsys, "zs", "--n", "2")
        assert code == 0
        assert payload == ["0+", "+0", "++", "+-"]

    @pytest.mark.parametrize("k", range(1, 9))
    def test_zs_prints_the_enumeration(self, capsys, k):
        code, payload, _ = run_json(capsys, "zs", "--n", str(k))
        assert code == 0
        assert payload == [sign_string(v) for v in canonical_sign_vectors(k)]

    def test_zs_rejects_a_length_out_of_range(self, capsys, monkeypatch):
        monkeypatch.setenv("SIGNELIM_MAX_N", "4")
        for n, message in (
            ("0", "vector length must be a positive int, got 0"),
            ("5", "length 5 exceeds the cap 4; set SIGNELIM_MAX_N to raise it"),
        ):
            assert run(capsys, "zs", "--n", n) == (1, "", f"error: {message}\n")

    def test_ze_single(self, capsys):
        code, payload, _ = run_json(capsys, "ze", "--t", "++")
        assert code == 0
        assert payload == ["0+", "+0", "++"]

    def test_ze_multiple_eliminators(self, capsys):
        code, payload, _ = run_json(capsys, "ze", "--t", "+u", "--t", "0+")
        assert code == 0
        assert payload == ["0+", "+0", "++", "+-"]

    def test_ze_length_mismatch(self, capsys):
        code, _, err = run(capsys, "ze", "--t", "++", "--t", "+++")
        assert code == 1
        assert "length" in err

    def test_ze_explicit_length_check(self, capsys):
        code, _, err = run(capsys, "ze", "--t", "++", "--n", "3")
        assert code == 1

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (("ze", "--t=--"), "--t"),
            (("count", "oracle", "--x=--"), "--x"),
            (("count", "pair", "--x=++", "--y=--"), "--y"),
        ],
    )
    def test_dropped_double_minus_names_the_flag_and_the_way_round(
        self, capsys, argv, flag
    ):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: {flag}: empty sign string (")
        assert "literal '--'" in err and "'++'" in err

    def test_a_sign_that_starts_with_minus_takes_the_equals_form(self, capsys):
        assert run(capsys, "ze", "--t=-u") == (0, '[\n  "+0"\n]\n', "")
        assert run(capsys, "count", "oracle", "--x=-+", "--x", "+0") == (0, "4\n", "")
        # a separate value that starts with - is read as an option
        for argv in (("ze", "--t", "-u"), ("count", "oracle", "--x", "-+")):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (1, "") and "expected one argument" in err


class TestCountCommands:
    @pytest.mark.parametrize("command, flags", [("single", 1), ("intersect", 1), ("set", 1), ("pair", 2)])
    def test_help_names_the_canonical_rule(self, capsys, command, flags):
        code, out, err = run(capsys, "count", command, "--help")
        assert (code, err) == (0, "")
        rule = "canonical sign string over +0- (first nonzero entry +, so none starts with -)"
        assert " ".join(out.split()).count(rule) == flags

    def test_single_plain(self, capsys):
        code, out, _ = run(capsys, "count", "single", "--x", "++0")
        assert code == 0
        assert out.strip() == "9"

    def test_single_verified(self, capsys):
        code, payload, _ = run_json(
            capsys, "count", "single", "--x", "++0", "--verify"
        )
        assert code == 0
        assert payload == {"value": 9, "oracle": 9, "match": True}

    def test_intersect(self, capsys):
        code, out, _ = run(
            capsys, "count", "intersect", "--x", "++", "--x", "+-", "--verify"
        )
        assert code == 0
        assert json.loads(out)["value"] == 2

    def test_set_union(self, capsys):
        code, out, _ = run(
            capsys, "count", "set", "--x", "+00", "--x", "0+0", "--verify"
        )
        assert code == 0
        assert json.loads(out) == {"value": 12, "oracle": 12, "match": True}

    def test_set_union_of_a_row_past_255_columns(self, capsys):
        code, out, _ = run(capsys, "count", "set", "--x", "+" * 128)
        assert code == 0
        assert json.loads(out) == 2**128 - 1

    def test_pair(self, capsys):
        code, payload, _ = run_json(
            capsys, "count", "pair", "--x", "+0", "--y", "0+", "--verify"
        )
        assert code == 0
        assert payload["profile"] == {
            "agree": 0,
            "oppose": 0,
            "first_only": 1,
            "second_only": 1,
            "zero": 0,
        }
        assert payload["intersection"] == 2
        assert payload["union"] == 4
        assert payload["match"] is True

    def test_intersect_deduplicates_rows(self, capsys):
        code, out, _ = run(capsys, "count", "intersect", "--x", "+0", "--x", "+0")
        assert (code, out.strip()) == (0, "3")
        code, payload, _ = run_json(
            capsys, "count", "intersect", "--x", "+0", "--x", "+0", "--verify"
        )
        assert code == 0
        assert payload == {"value": 3, "oracle": 3, "match": True}

    def test_intersect_checks_its_rows_once(self, capsys, monkeypatch):
        calls = []
        check = counting.sign_rows

        def counted(rows, *args, **kwargs):
            calls.append(rows)
            return check(rows, *args, **kwargs)

        monkeypatch.setattr(counting, "sign_rows", counted)
        monkeypatch.setattr(cli, "sign_rows", counted)
        argv = ["--x", "0+", "--x", "+0", "--x", "0+", "--x", "++"]
        code, payload, _ = run_json(capsys, "count", "intersect", *argv, "--verify")
        assert code == 0
        assert payload == {"value": 1, "oracle": 1, "match": True}
        assert calls == [((0, 1), (1, 0), (1, 1))]
        for bad, message in (("-+", "not canonical"), ("+00", "expected length 2")):
            code, out, err = run(capsys, "count", "intersect", "--x=+0", f"--x={bad}")
            assert (code, out) == (1, "")
            assert message in err

    def test_pair_needs_two_distinct_rows(self, capsys):
        code, out, err = run(capsys, "count", "pair", "--x", "+0", "--y", "+0")
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")

    def test_intersect_caps_its_row_count(self, capsys, monkeypatch):
        monkeypatch.setenv("SIGNELIM_MAX_N", "3")
        rows = ["--x=+0", "--x=0+", "--x=++", "--x=+-"]
        code, out, err = run(capsys, "count", "intersect", *rows)
        assert code == 1
        assert out == ""
        assert err.startswith("error: intersection row count 4 ")
        assert "SIGNELIM_MAX_N" in err

    def test_set_union_caps_its_row_count_at_twelve(self, capsys, monkeypatch):
        # 13 rows are minutes of inclusion-exclusion; the default cap rejects
        # them before any subset is counted
        monkeypatch.setattr(counting, "_union_counts", fail_if_called)
        rows = [f"--x={sign_string(v)}" for v in canonical_sign_vectors(3)]
        assert len(rows) == 13
        code, out, err = run(capsys, "count", "set", *rows)
        assert (code, out) == (1, "")
        assert err == (
            "error: union row count 13 exceeds the cap 12; set SIGNELIM_SUBSET_CAP to raise it\n"
        )

    def test_oracle(self, capsys):
        code, out, _ = run(capsys, "count", "oracle", "--x", "+u0")
        assert code == 0
        assert out.strip() == "3"

    def test_verify_mismatch_exits_three(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "count_eliminated_oracle", lambda X, n: -1)
        code, out, err = run(capsys, "count", "single", "--x", "++", "--verify")
        assert code == 3
        assert json.loads(out)["match"] is False
        assert "disagrees" in err

    def test_malformed_sign_string(self, capsys):
        code, _, err = run(capsys, "count", "single", "--x", "+2")
        assert code == 1
        assert "error" in err

    def test_single_rejects_a_non_canonical_vector(self, capsys):
        code, out, err = run(capsys, "count", "single", "--x=-+")
        assert (code, out) == (1, "")
        assert err == "error: (-1, 1) is not canonical (first nonzero entry must be +1)\n"

    def test_single_rejects_a_second_vector(self, capsys):
        code, out, err = run(
            capsys, "count", "single", "--x", "+0", "--x", "++", "--verify"
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")


class TestCoversCommand:
    def test_dimension_two_search(self, capsys):
        code, payload, _ = run_json(capsys, "covers", "--n", "2", "--max-size", "2")
        assert code == 0
        assert payload["n"] == 2
        covers = payload["covers"]
        assert len(covers) == 6
        assert all(c["is_minimal"] for c in covers)
        assert all(c["column_rank"] == 2 for c in covers)
        members = {frozenset(c["members"]) for c in covers}
        assert frozenset(("+0", "0+")) in members

    def test_covers_and_zs_reject_a_zero_length_alike(self, capsys):
        message = "error: vector length must be a positive int, got 0\n"
        assert run(capsys, "covers", "--n", "0", "--max-size", "1") == (1, "", message)
        assert run(capsys, "zs", "--n", "0") == (1, "", message)

    def test_cap_violation_exits_one(self, capsys, monkeypatch):
        monkeypatch.setenv("SIGNELIM_SEARCH_CAP", "5")
        code, _, err = run(capsys, "covers", "--n", "3", "--max-size", "3")
        assert code == 1
        assert "cap" in err

    def test_cap_exits_one_before_any_bitmask(self, capsys, monkeypatch):
        monkeypatch.setattr(covers.backend, "row_mask_bits", fail_if_called)
        code, out, err = run(capsys, "covers", "--n", "9", "--max-size", "2")
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")
        assert "SIGNELIM_SEARCH_CAP" in err


    @pytest.mark.parametrize(
        "n, max_size, name",
        [("20", "5000", "SIGNELIM_MAX_N"), ("16", "3000", "SIGNELIM_SEARCH_CAP")],
    )
    def test_oversized_search_exits_one_at_once(self, capsys, n, max_size, name):
        started = time.perf_counter()
        code, out, err = run(capsys, "covers", "--n", n, "--max-size", max_size)
        assert time.perf_counter() - started < 1
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")
        assert err.count("\n") == 1 and len(err) < 200
        assert name in err


class TestGateCommands:
    def test_expand(self, capsys):
        code, payload, _ = run_json(capsys, "gate", "expand", str(FIXTURE_PATH))
        assert code == 0
        assert payload["arities"] == [2, 2, 2]
        assert payload["reduced_dimension"] == 3
        coeffs = {tuple(c["index"]): c["value"] for c in payload["coefficients"]}
        assert coeffs[(0, 0, 0)] == ["1", "0", "0", "0"]
        assert coeffs[(1, 1, 1)] == ["0", "1/3", "1/3", "1/3"]

    def test_analyze_fixture(self, capsys):
        code, payload, _ = run_json(capsys, "gate", "analyze", str(FIXTURE_PATH))
        assert code == 0
        assert payload["cs_lower"] == {
            "value": 27,
            "log3": "3.000000000000",
            "base_point": [0, 0, 0],
        }
        assert payload["counting_crosscheck"]["failed"] == 0
        assert payload["certificate"] is not None
        assert payload["data_upper"] is None
        assert len(payload["reports"]) == 8
        origin = payload["reports"][0]
        assert origin["base_point"] == [0, 0, 0]
        assert origin["sens_lower_size"] == 13
        assert len(origin["witnesses"]) == 40

    def test_analyze_is_deterministic_apart_from_timing(self, capsys):
        _, first, _ = run_json(capsys, "gate", "analyze", str(FIXTURE_PATH))
        _, second, _ = run_json(capsys, "gate", "analyze", str(FIXTURE_PATH))
        first.pop("timing_seconds")
        second.pop("timing_seconds")
        assert first == second

    def test_analyze_with_data(self, capsys, first_gate_path, projection_csv):
        code, payload, _ = run_json(
            capsys,
            "gate",
            "analyze",
            str(first_gate_path),
            "--data",
            str(projection_csv),
        )
        assert code == 0
        assert payload["cs_lower"]["value"] == 3
        assert payload["data_upper"]["value"] == 3
        assert payload["data_upper"]["log3"] == "1.000000000000"
        assert payload["data_upper"]["heuristic"] is False
        assert all(r["data_upper"] is not None for r in payload["reports"])

    def test_failed_crosscheck_exits_three(self, capsys, monkeypatch):
        union = cli._union_counts
        monkeypatch.setattr(cli, "_union_counts", lambda sides: [c + 1 for c in union(sides)])
        code, out, err = run(capsys, "gate", "analyze", str(FIXTURE_PATH))
        assert code == 3
        assert "counting cross-check failed" in err
        crosscheck = json.loads(out)["counting_crosscheck"]
        assert crosscheck["failed"] == crosscheck["checked"] > 0
        assert crosscheck["passed"] == 0

    def test_crosscheck_counts_both_sides_of_a_shared_mask(
        self, capsys, monkeypatch, first_gate_path
    ):
        # The four reports share one mask of three vectors; its one-vector
        # complement is the side the closed form now gets wrong.
        union = cli._union_counts
        monkeypatch.setattr(
            cli,
            "_union_counts",
            lambda sides: [c + (len(X) == 1) for c, X in zip(union(sides), sides)],
        )
        code, out, _ = run(capsys, "gate", "analyze", str(first_gate_path))
        assert code == 3
        assert json.loads(out)["counting_crosscheck"] == {
            "checked": 8,
            "passed": 4,
            "failed": 4,
            "skipped": 0,
        }

    def test_the_document_does_each_masks_work_once(self, monkeypatch):
        # AND of three bits: eight reports over five distinct masks, which
        # mark 0, 1, 1, 1 and 7 of the 13 sign vectors of length 3
        inverted = []

        class Spy(np.ndarray):
            def __invert__(self):
                inverted.append(self.size - np.count_nonzero(self))
                return np.logical_not(self)

        gate = boolean_gate([0] * 7 + [1], 3)
        analysis = sensitivity.analyze_gate(expand(gate))
        family = sensitivity.default_family(1)
        plain, _ = cli._analysis_document(analysis, gate, family, 0.0)
        # the bool mask of each set, as the document unpacks it
        spies, unpacked = [], cli.unpacked
        monkeypatch.setattr(cli, "unpacked", lambda *args: spies.append(unpacked(*args).view(Spy)) or spies[-1])
        checked = []
        union = cli._union_counts
        monkeypatch.setattr(cli, "_union_counts", lambda sides: checked.extend(sides) or union(sides))
        document, ok = cli._analysis_document(analysis, gate, family, 0.0)
        sizes = sorted(int(np.count_nonzero(m)) for m in spies)
        assert (len(analysis.reports), sizes) == (8, [0, 1, 1, 1, 7])
        # the one complement of 1 to 6 rows is the only one built, and each
        # distinct subset of 1 to 6 rows is cross-checked once
        assert inverted == [6]
        assert sorted(map(len, checked)) == [1, 1, 1, 6]
        # every report still adds its two outcomes
        lower = [r.mask.sum() for r in analysis.reports]
        expected = sum(1 <= k <= 6 for k in lower) + sum(1 <= 13 - k <= 6 for k in lower)
        assert ok
        assert document["counting_crosscheck"] == {
            "checked": expected,
            "passed": expected,
            "failed": 0,
            "skipped": 16 - expected,
        }
        assert {**document, "timing_seconds": 0} == {**plain, "timing_seconds": 0}

    def test_a_flipped_oracle_bit_fails_one_check(self, capsys, monkeypatch, and_gate_path):
        scan = cli.eliminated_any_masks

        def flipped(rows, sides):
            masks = scan(rows, sides)
            masks[0, 0] ^= 0x80  # the first side's oracle count is off by one
            return masks

        monkeypatch.setattr(cli, "eliminated_any_masks", flipped)
        code, out, err = run(capsys, "gate", "analyze", str(and_gate_path))
        assert code == 3
        assert err == "counting cross-check failed\n"
        assert json.loads(out)["counting_crosscheck"] == {
            "checked": 7,
            "passed": 6,
            "failed": 1,
            "skipped": 1,
        }

    def test_one_oracle_scan_per_document(self, monkeypatch):
        # AND of three bits: its four distinct sides of 1 to 6 rows (three
        # one-row lower sets and one six-row complement) share one scan
        scans = []
        scan = cli.eliminated_any_masks
        monkeypatch.setattr(
            cli, "eliminated_any_masks", lambda rows, sides: scans.append(len(sides)) or scan(rows, sides)
        )
        monkeypatch.setattr(cli, "count_eliminated_oracle", fail_if_called)
        gate = boolean_gate([0] * 7 + [1], 3)
        analysis = sensitivity.analyze_gate(expand(gate))
        document, ok = cli._analysis_document(analysis, gate, sensitivity.default_family(1), 0.0)
        assert ok
        assert scans == [4]
        assert document["counting_crosscheck"]["failed"] == 0

    @pytest.mark.parametrize(
        "variable, value, gate",
        [
            ("SIGNELIM_SUBSET_CAP", "2", FIXTURE_PATH),
            ("SIGNELIM_MAX_N", "3", REPO_ROOT / "tests" / "golden" / "random_gate.json"),
        ],
    )
    def test_no_user_cap_fires_inside_the_crosscheck(self, capsys, monkeypatch, variable, value, gate):
        # the sides' 1 to 6 rows are the cross-check's own bound; a lower
        # union row cap used to stop the analysis after its work was done
        code, out, err = run(capsys, "gate", "analyze", str(gate))
        assert (code, err) == (0, "")
        assert max(len(r["sens_lower"]) for r in json.loads(out)["reports"]) > int(value)
        monkeypatch.setenv(variable, value)
        capped = run(capsys, "gate", "analyze", str(gate))
        timing = re.compile(r'"timing_seconds": [-+.e0-9]+')
        assert (capped[0], capped[2]) == (0, "")
        assert timing.sub("", capped[1]) == timing.sub("", out)

    def test_certify_fixture(self, capsys):
        code, payload, _ = run_json(capsys, "gate", "certify", str(FIXTURE_PATH))
        assert code == 0
        assert payload["verified"] is True
        cert = payload["certificate"]
        assert cert["base_point"] == [0, 0, 0]
        assert cert["n_reduced"] == 3
        assert 1 <= len(cert["witnesses"]) <= 40

    def test_certify_with_explicit_functionals(self, capsys, tmp_path):
        family = tmp_path / "family.json"
        family.write_text(
            json.dumps(
                [
                    [0, 1, -1, -1],
                    [0, 1, 1, 1],
                    [0, 1, -1, 1],
                    [0, 1, 1, -1],
                ]
            )
        )
        code, payload, _ = run_json(
            capsys,
            "gate",
            "certify",
            str(FIXTURE_PATH),
            "--functionals",
            str(family),
        )
        assert code == 0
        assert len(payload["certificate"]["witnesses"]) == 4

    def test_float_functional_exits_one(self, capsys, tmp_path, two_output_gate_path):
        family = tmp_path / "family.json"
        family.write_text("[[0.5, 1], [1, 0]]")
        code, out, err = run(
            capsys,
            "gate",
            "analyze",
            str(two_output_gate_path),
            "--functionals",
            str(family),
        )
        assert code == 1
        assert out == ""
        assert "floats are inexact" in err
        assert f"{family}: functional 0: " in err

    def test_empty_functionals_file_names_the_file(self, capsys, tmp_path, two_output_gate_path):
        family = tmp_path / "family.json"
        family.write_text("[]")
        code, out, err = run(capsys, "gate", "analyze", str(two_output_gate_path), "--functionals", str(family))
        assert (code, out) == (1, "")
        assert err == f"error: {family}: a projection family must be nonempty\n"

    def test_zero_functional_names_the_file_and_its_position(self, capsys, tmp_path, two_output_gate_path):
        family = tmp_path / "family.json"
        family.write_text("[[1, 0], [0, 0]]")
        code, out, err = run(capsys, "gate", "certify", str(two_output_gate_path), "--functionals", str(family))
        assert (code, out) == (1, "")
        assert err == f"error: {family}: functional 1: must be nonzero\n"

    def test_wrong_length_functional_exits_one(self, capsys, tmp_path, first_gate_path):
        family = tmp_path / "family.json"
        family.write_text('[["1/2", 1], [1, 0]]')
        code, out, err = run(
            capsys,
            "gate",
            "analyze",
            str(first_gate_path),
            "--functionals",
            str(family),
        )
        assert code == 1
        assert out == ""
        assert err == f"error: {family}: functional 0: expected 1 components, got 2\n"
        assert "Fraction(" not in err

    def test_float_gate_entry_exits_one(self, capsys, tmp_path):
        gate = json.loads(dumps_gate(boolean_gate([0, 0, 0, 1], 2)))
        gate["entries"][1]["output"] = [0.5]
        path = tmp_path / "float_gate.json"
        path.write_text(json.dumps(gate))
        code, out, err = run(capsys, "gate", "analyze", str(path))
        assert code == 1
        assert out == ""
        assert "floats are inexact" in err
        assert f"{path}: entry 1: " in err

    def test_rational_string_functional_is_accepted(
        self, capsys, tmp_path, two_output_gate_path
    ):
        family = tmp_path / "family.json"
        family.write_text('[["1/2", 1], [1, 0]]')
        code, payload, _ = run_json(
            capsys,
            "gate",
            "analyze",
            str(two_output_gate_path),
            "--functionals",
            str(family),
        )
        assert code == 0
        assert payload["family"] == [["1/2", "1"], ["1", "0"]]

    def test_certify_failure_exits_two(self, capsys, and_gate_path):
        code, payload, _ = run_json(capsys, "gate", "certify", str(and_gate_path))
        assert code == 2
        assert payload["certificate"] is None
        assert "no base point" in payload["reason"]

    def test_missing_gate_file_exits_one(self, capsys, tmp_path):
        code, _, err = run(capsys, "gate", "expand", str(tmp_path / "nope.json"))
        assert code == 1
        assert "error" in err

    def test_non_list_output_label_exits_one(self, capsys, tmp_path):
        gate = json.loads(dumps_gate(boolean_gate([0, 0, 0, 1], 2)))
        gate["output_labels"] = [{"output": 5, "label": "x"}]
        path = tmp_path / "label_gate.json"
        path.write_text(json.dumps(gate))
        code, out, err = run(capsys, "gate", "expand", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")
        assert f"{path}: output_labels[0]: output must be a list" in err

    @pytest.mark.parametrize(
        "labels, message",
        [
            ({"input_labels": [["a", {"x": 1}], ["c", "d"]]}, "input_labels must be a list of lists of strings"),
            ({"input_labels": [["a", "b"], ["c", 4]]}, "input_labels must be a list of lists of strings"),
            ({"output_labels": [{"output": ["1"], "label": 5}]}, "output_labels[0]: label must be a string"),
            (
                {"output_labels": [{"output": ["0"], "label": "off"}, {"output": ["1"], "label": None}]},
                "output_labels[1]: label must be a string",
            ),
            # one output vector, two labels: 2/2 is 1
            (
                {"output_labels": [{"output": ["1"], "label": "on"}, {"output": ["2/2"], "label": "one"}]},
                "output label 'one': its output is labelled 'on' already",
            ),
            (
                {"output_labels": [{"output": ["0"], "label": "off"}, {"output": [0], "label": "off"}]},
                "output label 'off': its output is labelled 'off' already",
            ),
        ],
    )
    def test_a_label_that_is_not_one_string_per_output_exits_one(self, capsys, tmp_path, labels, message):
        gate = json.loads(dumps_gate(boolean_gate([0, 0, 0, 1], 2)))
        gate.update(labels)
        path = tmp_path / "label_gate.json"
        path.write_text(json.dumps(gate))
        code, out, err = run(capsys, "gate", "expand", str(path))
        assert (code, out) == (1, "")
        assert err == f"error: {path}: {message}\n"

    def test_boolean_output_dim_exits_one(self, capsys, tmp_path):
        gate = json.loads(dumps_gate(boolean_gate([0, 0, 0, 1], 2)))
        gate["output_dim"] = True
        path = tmp_path / "bool_gate.json"
        path.write_text(json.dumps(gate))
        for command in ("expand", "analyze"):
            code, out, err = run(capsys, "gate", command, str(path))
            assert code == 1
            assert out == ""
            assert err.startswith("error: ")
            assert "output_dim must be an int >= 1, got True" in err


@pytest.fixture()
def four_block_inputs(tmp_path):
    """A one-output gate with N = 4 and 16 base points, and colliding records."""
    gate_path = tmp_path / "four_blocks.json"
    gate_path.write_text(dumps_gate(boolean_gate([0] * 16, 4)))
    csv_path = tmp_path / "four_blocks.csv"
    header = [f"b{i}_{j}" for i in range(1, 5) for j in range(2)] + ["y1"]
    csv_path.write_text(
        ",".join(header) + "\n"
        + ",".join(["1/2"] * 8 + ["0"]) + "\n"
        + ",".join(["1/4", "3/4"] * 4 + ["0"]) + "\n"
    )
    return gate_path, csv_path


@pytest.mark.parametrize(
    "name, value", [("SIGNELIM_MAX_N", "3"), ("SIGNELIM_BASE_POINT_CAP", "8")]
)
@pytest.mark.parametrize("command", ["analyze", "certify", "bound"])
def test_caps_exit_one_before_any_output(
    capsys, monkeypatch, four_block_inputs, command, name, value
):
    gate_path, csv_path = four_block_inputs
    argv = ["gate", command, str(gate_path)]
    if command == "bound":
        argv = ["data", "bound", str(gate_path), str(csv_path)]
    code, out, err = run(capsys, *argv)
    assert code == (2 if command == "certify" else 0)
    monkeypatch.setenv(name, value)
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")
    assert name in err


class TestDataCommands:
    def test_bound(self, capsys, first_gate_path, projection_csv):
        code, payload, _ = run_json(
            capsys, "data", "bound", str(first_gate_path), str(projection_csv)
        )
        assert code == 0
        assert payload["bound"] == {"value": 3, "log3": "1.000000000000"}
        assert payload["collisions"] == 2
        assert payload["records"] == 4
        assert payload["heuristic"] is False

    def test_bound_without_collisions(self, capsys, first_gate_path, tmp_path):
        csv_path = tmp_path / "none.csv"
        csv_path.write_text(
            "b1_0,b1_1,b2_0,b2_1,y1\n"
            "3/4,1/4,1/2,1/2,1/4\n"
            "1/2,1/2,1/2,1/2,1/2\n"
        )
        code, payload, _ = run_json(
            capsys, "data", "bound", str(first_gate_path), str(csv_path)
        )
        assert code == 0
        assert payload == {"bound": None, "collisions": 0, "records": 2}

    def test_bound_leaves_numpy_ma_unimported(self, tmp_path):
        # numpy imports numpy.ma (about 1 MB) on the first np.unique call;
        # every command runs the record checks, the collision window and the
        # pair signs
        golden = REPO_ROOT / "tests" / "golden"
        gate = str(golden / "additive_gate.json")
        records = tmp_path / "records.csv"
        # the golden records, plus one that collides with the first within 1/1000
        lines = (golden / "additive_records.csv").read_text().splitlines()
        records.write_text("\n".join(lines + ["1/4,1/2,1/4,3/4,1/4,7/6,7/6,3253/3000"]) + "\n")
        commands = [
            ["data", "bound", gate, str(records), "--eps", "1/12"],
            ["data", "bound", gate, str(records), "--eps", "1/1000"],
            ["gate", "analyze", gate, "--data", str(records), "--eps", "1/12"],
        ]
        script = (
            "import contextlib, io, json, sys\n"
            "from signelim.cli import main\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        code = main(argv)\n"
            "    print(code, 'numpy.ma' in sys.modules)\n"
        )
        path = [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH", "")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
        result = subprocess.run(
            [sys.executable, "-c", script, json.dumps(commands)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert result.stdout.split() == ["0", "False"] * len(commands), result.stderr

    @pytest.mark.parametrize("flag", ["--eps", "--delta"])
    @pytest.mark.parametrize("value", ["1/0", "abc", "0.1.2"])
    @pytest.mark.parametrize("command", ["bound", "analyze"])
    def test_bad_rational_flag_exits_one(
        self, capsys, first_gate_path, projection_csv, command, flag, value
    ):
        argv = ["data", "bound", str(first_gate_path), str(projection_csv)]
        if command == "analyze":
            argv = ["gate", "analyze", str(first_gate_path), "--data", str(projection_csv)]
        code, out, err = run(capsys, *argv, flag, value)
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: {flag}: cannot parse rational from {value!r}")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("flag", ["--eps", "--delta"])
    def test_a_bad_flag_is_reported_before_a_missing_file(
        self, capsys, first_gate_path, tmp_path, flag
    ):
        missing = str(tmp_path / "missing.csv")
        gate = str(first_gate_path)
        bound = run(capsys, "data", "bound", gate, missing, flag, "x")
        analyze = run(capsys, "gate", "analyze", gate, "--data", missing, flag, "x")
        assert bound == analyze
        assert bound[:2] == (1, "")
        assert bound[2].startswith(f"error: {flag}: cannot parse rational from 'x'")
        assert bound[2].count("\n") == 1
        # without --data the flag is still parsed
        assert run(capsys, "gate", "analyze", gate, flag, "x") == bound

    @pytest.mark.parametrize(
        "row, message",
        [
            ("3/4,1/2,1/4,3/4,1/4", "record 2: block 1 coordinates must sum to 1"),
            ("3/4,1/4,-1/4,5/4,1/4", "not strictly interior"),
            ("3/4,1/4,0,1,1/4", "not strictly interior"),
        ],
        ids=["bad-sum", "negative", "zero"],
    )
    @pytest.mark.parametrize("command", ["bound", "analyze"])
    def test_bad_block_exits_one_naming_file_and_record(
        self, capsys, first_gate_path, tmp_path, command, row, message
    ):
        csv_path = tmp_path / "records.csv"
        csv_path.write_text("b1_0,b1_1,b2_0,b2_1,y1\n3/4,1/4,3/4,1/4,1/4\n" + row + "\n")
        argv = ["data", "bound", str(first_gate_path), str(csv_path)]
        if command == "analyze":
            argv = ["gate", "analyze", str(first_gate_path), "--data", str(csv_path)]
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: {csv_path}: ")
        assert message in err
        if "interior" in message:
            assert "positions [2]" in err
        assert err.count("\n") == 1

    def test_bad_csv_exits_one(self, capsys, first_gate_path, tmp_path):
        csv_path = tmp_path / "bad.csv"
        csv_path.write_text("b1_0,b1_1\n")
        code, _, err = run(
            capsys, "data", "bound", str(first_gate_path), str(csv_path)
        )
        assert code == 1
        assert "header" in err


GOLDEN = REPO_ROOT / "tests" / "golden"
GOLDEN_GATE = str(GOLDEN / "additive_gate.json")
GOLDEN_RECORDS = GOLDEN / "additive_records.csv"


def masked_run(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, re.sub(r'"timing_seconds": [^\n,}]+', '"timing_seconds": 0', out), err


def data_commands(records):
    return [
        ["data", "bound", GOLDEN_GATE, str(records), "--eps", "1/12"],
        ["gate", "analyze", GOLDEN_GATE, "--data", str(records), "--eps", "1/12"],
    ]


class TestExperimentCsvInput:
    def test_a_byte_order_mark_changes_nothing(self, capsys, tmp_path):
        # spreadsheets save "CSV UTF-8" with a leading byte order mark
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + GOLDEN_RECORDS.read_bytes())
        for plain, bom in zip(data_commands(GOLDEN_RECORDS), data_commands(marked)):
            code, out, err = masked_run(capsys, *plain)
            assert (code, err) == (0, "")
            assert masked_run(capsys, *bom) == (code, out, err)
        gate = load_gate(GOLDEN_GATE)
        assert parse_experiment_csv(marked, gate) == parse_experiment_csv(
            GOLDEN_RECORDS, gate
        )

    def test_each_distinct_cell_text_is_parsed_once(self, capsys, monkeypatch):
        texts = {
            cell
            for line in GOLDEN_RECORDS.read_text().splitlines()[1:]
            for cell in line.split(",")
        }
        parsed = []

        class Counted(gates._ValueIds):
            # the memo parses a text where it misses
            def __missing__(self, text):
                parsed.append(text)
                return super().__missing__(text)

        monkeypatch.setattr(sensitivity, "_ValueIds", Counted)
        built = []
        init = sensitivity.ExperimentRecord.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(sensitivity.ExperimentRecord, "__init__", counting_init)
        for argv in data_commands(GOLDEN_RECORDS):
            parsed.clear()
            code, _, err = run(capsys, *argv)
            assert (code, err) == (0, "")
            assert sorted(parsed) == sorted(texts)
        assert built == []


class TestJsonInput:
    def test_a_byte_order_mark_changes_nothing(self, capsys, tmp_path):
        # editors on Windows save "UTF-8 with BOM"; gate and functionals
        # files read like experiment CSVs
        names = ("additive_gate.json", "additive_functionals.json")
        for name in names:
            (tmp_path / name).write_bytes(b"\xef\xbb\xbf" + (GOLDEN / name).read_bytes())

        def commands(folder):
            gate, family = (str(folder / name) for name in names)
            return [
                ["gate", "expand", gate],
                ["gate", "analyze", gate],
                ["gate", "analyze", GOLDEN_GATE, "--functionals", family],
                ["gate", "certify", gate],
                ["gate", "certify", GOLDEN_GATE, "--functionals", family],
                ["data", "bound", gate, str(GOLDEN_RECORDS), "--eps", "1/12"],
            ]

        for argv, marked in zip(commands(GOLDEN), commands(tmp_path)):
            code, out, err = masked_run(capsys, *argv)
            assert (code, err) == (0, "")
            assert masked_run(capsys, *marked) == (code, out, err)


class TestSelftestCommand:
    def test_quick_run_passes(self, capsys):
        code, out, err = run(capsys, "selftest", "--quick", "--seed", "7")
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] is True
        assert payload["quick"] is True
        assert payload["seed"] == 7
        assert len(payload["checks"]) == 6
        assert all(c["ok"] for c in payload["checks"])

    @pytest.mark.parametrize(
        "check",
        [
            lambda: selftest._check_exhaustive(2),
            lambda: selftest._check_random(random.Random(0), 50, 4),
        ],
        ids=["exhaustive", "random"],
    )
    @pytest.mark.parametrize(
        "name, form, off_by_one",
        [
            ("count_pair", "pair", lambda p: (counting.count_pair(p)[0], counting.count_pair(p)[1] + 1)),
            ("count_eliminated_single", "single", lambda x: counting.count_eliminated_single(x) + 1),
        ],
    )
    def test_both_instance_checks_compare_every_closed_form(
        self, monkeypatch, check, name, form, off_by_one
    ):
        monkeypatch.setattr(selftest, name, off_by_one)
        result = check()
        assert not result.ok
        assert f": {form} (" in result.detail


class TestParsing:
    def test_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_cached_parser_keeps_no_values_between_calls(self, capsys):
        code, out, _ = run(capsys, "count", "intersect", "--x", "+0", "--x", "0+")
        assert (code, out) == (0, "2\n")
        # a leaked --x would give single two vectors, which it rejects
        code, out, _ = run(capsys, "count", "single", "--x", "++")
        assert (code, out) == (0, "3\n")
        code, payload, _ = run_json(capsys, "ze", "--t", "+0")
        assert (code, payload) == (0, ["+0", "++", "+-"])
        code, payload, _ = run_json(capsys, "ze", "--t", "0+")
        assert (code, payload) == (0, ["0+", "++", "+-"])

    def test_version(self, capsys):
        code, out, _ = run(capsys, "--version")
        assert code == 0
        assert out.startswith("signelim ")

    def test_unknown_command_exits_one(self, capsys):
        code, _, err = run(capsys, "frobnicate")
        assert code == 1

    def test_missing_required_argument_exits_one(self, capsys):
        code, _, err = run(capsys, "zs")
        assert code == 1

    def test_no_arguments_exits_one(self, capsys):
        code, _, _ = run(capsys)
        assert code == 1


json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(10**40), max_value=10**40),
    st.floats(),
    st.sampled_from([-0.0, 1e300, -1e-300, float("nan"), float("inf"), -float("inf")]),
    st.text(),
    st.sampled_from(['"', "\\", "\x00\x1f\n\t", "caf\u00e9", "\u2028", "\U0001f600", ""]),
)
json_values = st.recursive(
    json_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(st.text(max_size=5), children, max_size=5),
    ),
    max_leaves=40,
)


@st.composite
def documents_with_shared_lists(draw):
    """A value holding one list of scalars at three depths, as the analysis
    document holds each functional's strings in every report."""
    shared = draw(st.lists(json_scalars, max_size=4))
    return {
        "value": draw(json_values),
        "shared": shared,
        "nested": [shared, {"again": shared, "tuple": (shared, shared)}],
    }


rationals = st.one_of(
    st.sampled_from([Fraction(-1, 3), Fraction(0), Fraction(7, 2), Fraction(2**64 + 1, 3), Fraction(-(2**70))]),
    st.builds(
        Fraction,
        st.integers(min_value=-(10**30), max_value=10**30),
        st.integers(min_value=1, max_value=60),
    ),
)


@st.composite
def witness_documents(draw):
    """A document holding witness lists as cli's texts, and the same
    document with plain [{"w", "total_sign"}] lists.

    The family's strings are those of rationals up to 10**30, past int64.
    Each report's witnesses come in family order, from one _witness_lists
    call over all reports, whose matrices repeat (equal matrices share a
    list); each certificate's, and one more call over every report, picks a
    subset in any order, possibly empty. Total signs have length N = 1-6 and
    all four codes. The document sits inside up to three wrappers, each a
    dict or a dict around a list, and every text is rendered for its depth.
    """
    dim = draw(st.integers(min_value=1, max_value=5))
    n = draw(st.integers(min_value=1, max_value=6))
    family = draw(st.lists(st.tuples(*[rationals] * dim), min_size=1, max_size=6))
    strings = tuple(tuple(map(rational_string, w)) for w in family)
    matrix = st.lists(
        st.lists(st.sampled_from([1, 0, -1, UNDETERMINED]), min_size=n, max_size=n),
        min_size=len(family),
        max_size=len(family),
    )
    distinct = draw(st.lists(matrix, min_size=1, max_size=3))
    matrices = draw(st.lists(st.sampled_from(distinct), min_size=1, max_size=5))
    wraps = draw(st.lists(st.booleans(), max_size=3))  # True: {"inner": [x]}
    depth = sum(2 if inner else 1 for inner in wraps)
    subset = st.lists(st.sampled_from(range(len(family))), unique=True)
    signs = np.array(matrices, dtype=np.int8)
    texts = cli._witness_lists(strings, range(len(family)), signs, depth + 3)

    def plain(witnesses):
        return [
            {"w": [rational_string(v) for v in w], "total_sign": sign_string(ts)}
            for w, ts in witnesses
        ]

    pairs = []
    for text, rows in zip(texts, matrices):
        report = tuple((w, tuple(ts)) for w, ts in zip(family, rows))
        chosen = draw(subset)
        cert = Certificate((0,), tuple(report[f] for f in chosen), n, tuple(chosen))
        pairs.append(
            (
                {
                    "witnesses": cli._Text((text,)),
                    "certificate": cli._certificate_json(cert, strings, depth + 3),
                },
                {
                    "witnesses": plain(report),
                    "certificate": {"base_point": [0], "n_reduced": n, "witnesses": plain(cert.witnesses)},
                },
            )
        )
    chosen = draw(subset)
    picked = cli._witness_lists(strings, chosen, signs[:, chosen], depth + 2)
    fast = {
        "family": cli._Text((cli._list_text(cli._functional_lists(strings, depth + 2), depth + 1),)),
        "reports": [p[0] for p in pairs],
        "picked": [cli._Text((text,)) for text in picked],
        "none": cli._Text(cli._witness_lists(strings, (), np.zeros((1, 0, n), dtype=np.int8), depth + 1)),
    }
    slow = {
        "family": [[rational_string(v) for v in w] for w in family],
        "reports": [p[1] for p in pairs],
        "picked": [plain([(family[f], rows[f]) for f in chosen]) for rows in matrices],
        "none": [],
    }
    for inner in reversed(wraps):
        fast, slow = ({"inner": [fast]}, {"inner": [slow]}) if inner else ({"again": fast}, {"again": slow})
    return fast, slow


class TestWitnessLists:
    def test_a_second_document_builds_no_text_of_the_family(self, capsys, monkeypatch):
        argv = ("gate", "analyze", str(FIXTURE_PATH))
        first = masked_run(capsys, *argv)
        assert first[0] == 0 and '"certificate": {' in first[1]  # report and analysis certificates
        calls = []
        for module in (cli, sensitivity):
            monkeypatch.setattr(module, "rational_string", lambda value: calls.append(value) or str(value))
        built = cli._witness_heads.cache_info().misses, cli._functional_lists.cache_info().misses
        assert masked_run(capsys, *argv) == first
        assert calls == []
        assert (cli._witness_heads.cache_info().misses, cli._functional_lists.cache_info().misses) == built

    def test_reports_with_one_matrix_render_one_list(self, capsys, monkeypatch, tmp_path):
        rng = random.Random(0)
        outputs = {idx: [str(rng.randint(0, 3)) + "/3" for _ in range(2)] for idx in itertools.product(range(2), repeat=5)}
        entries = [{"index": list(idx), "output": value} for idx, value in outputs.items()]
        path = tmp_path / "random_gate.json"
        path.write_text(json.dumps({"arities": [2] * 5, "output_dim": 2, "entries": entries}))
        analysis = sensitivity.analyze_gate(expand(load_gate(path)))
        assert all((r._signs == UNDETERMINED).all() for r in analysis.reports)  # every total sign is "u"
        rendered, render = [], cli._witness_lists
        monkeypatch.setattr(cli, "_witness_lists", lambda *args: rendered.append(args[2].shape[0]) or render(*args))
        code, out, _ = run(capsys, "gate", "analyze", str(path))
        assert code == 0
        assert rendered == [1]
        assert len(json.loads(out)["reports"]) == 32

    def test_report_signs_are_the_read_only_witness_signs(self, color_gate):
        gates = [expand(color_gate), expand(boolean_gate([0, 1, 1, 0, 1, 0, 0, 1], 3))]
        for expansion in gates:
            for report in sensitivity.analyze_gate(expansion).reports:
                assert report._signs.dtype == np.int8
                assert not report._signs.flags.writeable
                assert report._signs.tolist() == [list(ts) for _, ts in report.witnesses]
                with pytest.raises(ValueError):
                    report._signs[0, 0] = 0


class TestIndentedJson:
    @settings(max_examples=300, deadline=None)
    @given(witness_documents())
    def test_witness_lists_render_as_their_plain_lists(self, documents):
        fast, slow = documents
        assert cli._indented_json(fast) == json.dumps(slow, indent=2)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(json_values, documents_with_shared_lists()))
    def test_matches_json_dumps(self, value):
        assert cli._indented_json(value) == json.dumps(value, indent=2)

    @pytest.mark.parametrize(
        "value", [{}, [], (), [[]], {"a": {}}, [{}, []], "", 0, None]
    )
    def test_empty_containers_and_bare_scalars(self, value):
        assert cli._indented_json(value) == json.dumps(value, indent=2)

    @pytest.mark.parametrize(
        "value",
        [
            {"a": Fraction(1, 2)},
            [1, Fraction(1, 2)],
            Fraction(1, 2),
            {1: "int key"},
            {"a": [{2: "nested int key"}]},
        ],
    )
    def test_other_types_and_non_str_keys_raise(self, value):
        with pytest.raises(TypeError):
            cli._indented_json(value)


THIRDS = [Fraction(k, 3) for k in range(4)]


@st.composite
def analysis_cases(draw):
    """(arities, table, family, records, eps) for `gate analyze`: N <= 6; a
    random, additive or constant table; the default family (None) or a custom
    one with negated and duplicate members; and no records (None) or a few at
    distinct interior points, with outputs that often collide."""
    blocks = draw(st.lists(st.integers(min_value=2, max_value=4), min_size=1, max_size=6))
    arities = tuple(a for k, a in enumerate(blocks) if sum(blocks[: k + 1]) - k - 1 <= 6)
    dim = draw(st.integers(min_value=1, max_value=3))
    indices = list(itertools.product(*(range(a) for a in arities)))
    outputs = st.tuples(*[st.sampled_from(THIRDS)] * dim)
    kind = draw(st.sampled_from(["random", "additive", "constant"]))
    if kind == "random":
        table = {idx: draw(outputs) for idx in indices}
    elif kind == "additive":
        parts = [[draw(outputs) for _ in range(a)] for a in arities]
        table = {
            idx: tuple(sum(parts[i][j][c] for i, j in enumerate(idx)) for c in range(dim))
            for idx in indices
        }
    else:
        table = dict.fromkeys(indices, draw(outputs))
    family = None
    if draw(st.booleans()):
        entries = st.integers(min_value=-2, max_value=2)
        base = draw(
            st.lists(st.tuples(*[entries] * dim).filter(any), min_size=1, max_size=3)
        )
        extra = [tuple(-c for c in draw(st.sampled_from(base))), draw(st.sampled_from(base))]
        family = draw(st.permutations(base + extra))
    records, eps = None, Fraction(0)
    if draw(st.booleans()):
        coordinates = st.tuples(
            *[
                st.lists(st.integers(min_value=1, max_value=3), min_size=a, max_size=a).map(
                    lambda w: tuple(Fraction(x, sum(w)) for x in w)
                )
                for a in arities
            ]
        )
        points = draw(st.lists(coordinates, min_size=2, max_size=8, unique=True))
        values = st.tuples(*[st.sampled_from([Fraction(0), Fraction(1, 12), Fraction(1)])] * dim)
        records = [(point, draw(values)) for point in points]
        eps = draw(st.sampled_from([Fraction(0), Fraction(1, 12)]))
    return arities, table, family, records, eps


def analyze_text(arities, table, family, records, eps):
    """Exit code and stdout of `gate analyze` on the case, timing masked, and
    the reference document's text."""
    dim = len(next(iter(table.values())))
    with tempfile.TemporaryDirectory() as directory:
        gate_path = pathlib.Path(directory) / "gate.json"
        entries = [{"index": list(i), "output": [str(v) for v in table[i]]} for i in sorted(table)]
        gate_path.write_text(json.dumps({"arities": list(arities), "output_dim": dim, "entries": entries}))
        argv = ["gate", "analyze", str(gate_path)]
        if family is not None:
            family_path = pathlib.Path(directory) / "family.json"
            family_path.write_text(json.dumps([[str(c) for c in w] for w in family]))
            argv += ["--functionals", str(family_path)]
        if records is not None:
            csv_path = pathlib.Path(directory) / "records.csv"
            header = [f"b{i + 1}_{j}" for i, a in enumerate(arities) for j in range(a)]
            header += [f"y{c + 1}" for c in range(dim)]
            rows = [[str(v) for block in point for v in block] + [str(v) for v in out] for point, out in records]
            csv_path.write_text("\n".join(",".join(r) for r in [header] + rows) + "\n")
            argv += ["--data", str(csv_path), "--eps", str(eps)]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
    functionals = oracles.normalized_family(family or oracles.canonical_vectors(dim))
    header = {"tool": "signelim", "version": __version__, "backend": backend_name()}
    reference = oracles.analysis_document(arities, table, functionals, header, records, eps)
    masked = re.sub(r'"timing_seconds": [^\n,}]+', '"timing_seconds": 0', out.getvalue())
    return code, masked, json.dumps(reference, indent=2) + "\n"


def golden_additive_case():
    """The golden additive gate with its records at eps 1/12, as a case."""
    golden = REPO_ROOT / "tests" / "golden"
    gate = json.loads((golden / "additive_gate.json").read_text())
    table = {tuple(e["index"]): tuple(map(Fraction, e["output"])) for e in gate["entries"]}
    rows = oracles.read_experiment_csv(golden / "additive_records.csv", gate["arities"], gate["output_dim"])
    records = [(point, output) for _, point, output in rows]
    return tuple(gate["arities"]), table, None, records, Fraction(1, 12)


class TestAnalysisDocument:
    """The analysis document's text against json.dumps of a reference
    document built from the definitions (tests/oracles.py)."""

    @settings(max_examples=60, deadline=None)
    @given(analysis_cases())
    def test_the_text_is_the_reference_documents(self, case):
        code, text, expected = analyze_text(*case)
        assert code == 0
        assert text == expected

    @pytest.mark.parametrize(
        "case, present",
        [
            # the additive golden gate and records: certificates, full lower
            # sets, data_upper objects
            (golden_additive_case(), ['"certificate": {', '"data_upper": {', '"sens_lower_size": 13']),
            # random, a custom family with a negated and a duplicate member:
            # no certificate, some lower sets neither empty nor full
            (
                (
                    (2, 2, 2),
                    {i: (Fraction(sum(i) % 2), Fraction(i[0] * i[2], 3)) for i in itertools.product(range(2), repeat=3)},
                    [(1, -1), (-1, 1), (0, 2), (1, -1)],
                    None,
                    Fraction(0),
                ),
                ['"certificate": null,\n  "counting', '"data_upper": null'],
            ),
            # constant: every lower set empty, records that collide nowhere
            (
                (
                    (2, 3),
                    dict.fromkeys(itertools.product(range(2), range(3)), (Fraction(1, 3),)),
                    None,
                    [(((Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3))), (Fraction(0),))],
                    Fraction(0),
                ),
                ['"sens_lower": []', '"data_upper": null'],
            ),
        ],
    )
    def test_fixed_cases_cover_each_kind_of_value(self, case, present):
        code, text, expected = analyze_text(*case)
        assert code == 0
        assert text == expected
        for piece in present:
            assert piece in text


class _RawWrites(io.RawIOBase):
    """A raw stream that keeps each write it is given."""

    def __init__(self):
        self.writes = []

    def writable(self):
        return True

    def write(self, data):
        self.writes.append(bytes(data))
        return len(data)


EMIT_ARGVS = [
    ["gate", "analyze", str(FIXTURE_PATH)],
    ["gate", "certify", str(FIXTURE_PATH)],
    ["zs", "--n", "4"],
]


class TestStreamedEmit:
    @staticmethod
    def masked(text):
        return re.sub(r'"timing_seconds": [^\n,}]+', '"timing_seconds": 0', text)

    @staticmethod
    def emitted_pieces(monkeypatch):
        emitted = []
        json_pieces = cli._json_pieces
        # _emit's call is the last: the document's texts are rendered first
        monkeypatch.setattr(cli, "_json_pieces", lambda *a: emitted.append(json_pieces(*a)) or emitted[-1])
        return emitted

    @pytest.mark.parametrize("argv", EMIT_ARGVS)
    def test_the_writers_pieces_go_to_one_writelines_call(self, capsys, monkeypatch, argv):
        code, expected, _ = run(capsys, *argv)
        calls = []
        emitted = self.emitted_pieces(monkeypatch)
        monkeypatch.setattr(sys, "stdout", type("Writes", (), {"writelines": staticmethod(calls.append)})())
        assert main(argv) == code
        pieces = emitted[-1]
        assert pieces[-1] == "\n"
        assert len(calls) == 1 and calls[0] is pieces
        assert self.masked("".join(pieces)) == self.masked(expected)
        assert len(pieces) > 1

    @pytest.mark.parametrize("argv", EMIT_ARGVS)
    @pytest.mark.parametrize("bound", [1, 3])
    def test_small_bounds_write_the_same_bytes_in_bounded_writes(
        self, capsys, monkeypatch, argv, bound
    ):
        # a text stream whose chunk and buffer hold ``bound`` bytes passes
        # the writer's pieces on as they come: no write is the document
        code, expected, _ = run(capsys, *argv)
        emitted = self.emitted_pieces(monkeypatch)
        raw = _RawWrites()
        stream = io.TextIOWrapper(io.BufferedWriter(raw, buffer_size=bound), encoding="utf-8")
        stream._CHUNK_SIZE = bound
        monkeypatch.setattr(sys, "stdout", stream)
        assert main(argv) == code
        stream.flush()
        sizes = [len(piece.encode()) for piece in emitted[-1]]
        writes = raw.writes
        assert self.masked(b"".join(writes).decode()) == self.masked(expected)
        assert set(itertools.accumulate(map(len, writes))) <= set(itertools.accumulate(sizes))
        assert max(map(len, writes)) < bound + max(sizes)
        assert len(writes) > 1
