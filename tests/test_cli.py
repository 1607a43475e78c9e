import json
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from signelim import boolean_gate, dumps_gate
from signelim import cli, covers
from signelim.cli import main

from conftest import FIXTURE_PATH, fail_if_called


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


class TestCountCommands:
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

    def test_cap_violation_exits_one(self, capsys, monkeypatch):
        monkeypatch.setenv("SIGNELIM_SEARCH_CAP", "5")
        code, _, err = run(capsys, "covers", "--n", "3", "--max-size", "3")
        assert code == 1
        assert "cap" in err

    def test_cap_exits_one_before_any_bitmask(self, capsys, monkeypatch):
        monkeypatch.setattr(covers, "_member_masks", fail_if_called)
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
        union = cli.count_eliminated_union
        monkeypatch.setattr(cli, "count_eliminated_union", lambda X: union(X) + 1)
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
        union = cli.count_eliminated_union
        monkeypatch.setattr(
            cli, "count_eliminated_union", lambda X: union(X) + (len(X) == 1)
        )
        code, out, _ = run(capsys, "gate", "analyze", str(first_gate_path))
        assert code == 3
        assert json.loads(out)["counting_crosscheck"] == {
            "checked": 8,
            "passed": 4,
            "failed": 4,
            "skipped": 0,
        }

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
        assert "functional ['1/2', '1'] must have 1 components" in err
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


class TestIndentedJson:
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
