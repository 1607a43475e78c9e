import json

import pytest

from signelim import boolean_gate, dumps_gate
from signelim import cli
from signelim.cli import main

from conftest import FIXTURE_PATH


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
