import ast
import copy
import json
import pickle
import time
from dataclasses import replace
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from signelim import (
    DomainError,
    Gate,
    MultilinearExpansion,
    ValidationError,
    apply_functional,
    base_points,
    boolean_gate,
    dumps_gate,
    evaluate,
    expand,
    gate_from_json,
    gate_to_json,
    load_gate,
    parse_rational,
    rational_string,
    reduced_dimension,
    reduced_partial,
    validate_base_point,
)
from signelim import gates

import oracles
from conftest import FIXTURE_PATH

F = Fraction

AND = boolean_gate([0, 0, 0, 1], 2)
XOR = boolean_gate([0, 1, 1, 0], 2)
NOT_A_RATIONAL = "cannot parse rational from 'x'"


def minimal_payload():
    return {
        "arities": [2, 2],
        "output_dim": 1,
        "entries": [
            {"index": [0, 0], "output": ["0"]},
            {"index": [0, 1], "output": ["0"]},
            {"index": [1, 0], "output": ["0"]},
            {"index": [1, 1], "output": ["1"]},
        ],
    }


class TestRationalParsing:
    def test_accepts_ints_and_strings(self):
        assert parse_rational(3) == 3
        assert parse_rational("1/3") == F(1, 3)
        assert parse_rational("0.25") == F(1, 4)

    def test_rejects_floats_and_bools(self):
        with pytest.raises(ValidationError):
            parse_rational(0.1)
        with pytest.raises(ValidationError):
            parse_rational(True)
        with pytest.raises(ValidationError):
            parse_rational("one third")

    def test_exact_numbers_pass_unchanged(self):
        half = F(1, 2)
        assert parse_rational(half) is half
        assert type(parse_rational(7)) is F and parse_rational(7) == 7

    def test_rendering_round_trips(self):
        for text in ("0", "1", "-2", "1/3", "-7/12"):
            assert rational_string(parse_rational(text)) == text

    @pytest.mark.parametrize(
        "value, text",
        [
            (0, "0"),
            (5, "5"),
            (-3, "-3"),
            ("6/4", "3/2"),
            ("-2/6", "-1/3"),
            ("4/2", "2"),
            (F(-7, 12), "-7/12"),
            (F(9, 3), "3"),
            (F(0), "0"),
        ],
    )
    def test_renders_ints_strings_and_fractions(self, value, text):
        assert rational_string(value) == text


    def test_a_file_parses_each_distinct_text_once(self, monkeypatch):
        texts = ("1/3", "2/3", "1")
        entries = [
            {"index": list(idx), "output": [texts[k % 3]]}
            for k, idx in enumerate(product(range(2), repeat=6))
        ]
        payload = {"arities": [2] * 6, "output_dim": 1, "entries": entries}
        parsed = []

        class Counted(F):
            def __new__(cls, value=0, denominator=None):
                if isinstance(value, str):
                    parsed.append(value)
                return F(value) if denominator is None else F(value, denominator)

        monkeypatch.setattr(gates, "Fraction", Counted)
        gate = gate_from_json(payload)
        assert sorted(parsed) == sorted(texts)
        assert [gate.table[tuple(e["index"])] for e in entries] == [
            (F(e["output"][0]),) for e in entries
        ]
        # no cache outlives the file
        parsed.clear()
        gate_from_json(payload)
        assert len(parsed) == 3

    @pytest.mark.parametrize("bad", ["x", "1/0", "", 0.5, True, None, [1]])
    def test_a_shared_text_keeps_every_error_message(self, bad):
        try:
            parse_rational(bad)
        except ValidationError as exc:
            expected = f"entry 3: {exc}"
        entries = [{"index": [j], "output": ["1/2"]} for j in range(3)]
        entries.append({"index": [3], "output": [bad]})
        payload = {"arities": [4], "output_dim": 1, "entries": entries}
        with pytest.raises(ValidationError) as raised:
            gate_from_json(payload)
        assert str(raised.value) == expected


class TestGateValidation:
    def test_accepts_a_complete_table(self):
        gate = gate_from_json(minimal_payload())
        assert gate.arities == (2, 2)
        assert gate.table[(1, 1)] == (F(1),)

    def test_rejects_missing_entries(self):
        payload = minimal_payload()
        del payload["entries"][0]
        with pytest.raises(ValidationError, match="missing"):
            gate_from_json(payload)

    def test_missing_entries_are_listed_in_lexicographic_order(self):
        # the count and the first eight, as the set difference sorted gives them
        arities = (2, 3, 2)
        every = list(product(*map(range, arities)))
        for present in (every[::3], every[5:], every[:-1], [every[4]]):
            missing = sorted(set(every) - set(present))
            with pytest.raises(ValidationError) as exc:
                Gate(arities, 1, {idx: (F(0),) for idx in present})
            assert str(exc.value) == f"table is missing {len(missing)} entries, e.g. {missing[:8]}"

    def test_a_short_table_of_a_huge_gate_is_rejected_by_its_entry_count(self, tmp_path):
        # two entries of a 2,000,000-valued block: no index set is enumerated
        path = tmp_path / "huge.json"
        entries = [{"index": [k], "output": [str(k)]} for k in (0, 1)]
        path.write_text(json.dumps({"arities": [2_000_000], "output_dim": 1, "entries": entries}))
        started = time.perf_counter()
        with pytest.raises(ValidationError) as exc:
            load_gate(path)
        assert time.perf_counter() - started < 0.5
        shown = [(k,) for k in range(2, 10)]
        assert str(exc.value) == f"{path}: table is missing 1999998 entries, e.g. {shown}"

    def test_rejects_duplicate_indices(self):
        payload = minimal_payload()
        payload["entries"].append({"index": [0, 0], "output": ["1"]})
        with pytest.raises(ValidationError, match="duplicate"):
            gate_from_json(payload)

    def test_rejects_out_of_range_indices(self):
        payload = minimal_payload()
        payload["entries"][0]["index"] = [0, 2]
        with pytest.raises(ValidationError):
            gate_from_json(payload)

    def test_rejects_unknown_keys(self):
        payload = minimal_payload()
        payload["comment"] = "hello"
        with pytest.raises(ValidationError, match="unknown"):
            gate_from_json(payload)

    def test_rejects_non_integer_indices(self):
        payload = minimal_payload()
        payload["entries"][0]["index"] = [0, True]
        with pytest.raises(ValidationError):
            gate_from_json(payload)

    @pytest.mark.parametrize(
        "position, index, message",
        [
            (0, [0, True], "entry 0: index must be a list of ints"),
            (2, [0, 1.0], "entry 2: index must be a list of ints"),
            (1, [[0], 1], "entry 1: index must be a list of ints"),
            (3, "01", "entry 3: index must be a list of ints"),
            (3, None, "entry 3: index must be a list of ints"),
            (1, [0, 2], "table index (0, 2) out of range for arities (2, 2)"),
            (2, [-1, 0], "table index (-1, 0) out of range for arities (2, 2)"),
            (0, [0], "table index (0,) out of range for arities (2, 2)"),
            (3, [1, 1, 0], "table index (1, 1, 0) out of range for arities (2, 2)"),
            (0, [2**70, 0], f"table index ({2**70}, 0) out of range for arities (2, 2)"),
        ],
    )
    def test_each_index_fault_keeps_its_message(self, position, index, message):
        payload = minimal_payload()
        payload["entries"][position]["index"] = index
        with pytest.raises(ValidationError) as exc:
            gate_from_json(payload)
        assert str(exc.value) == message

    def test_the_first_faulty_entry_is_named(self):
        # the indices are checked all at once, but an error still names the
        # first faulty entry, whatever its fault
        payload = minimal_payload()
        payload["entries"][1]["output"] = "0"
        payload["entries"][2]["index"] = [1, False]
        with pytest.raises(ValidationError, match="^entry 1: output must be a list$"):
            gate_from_json(payload)
        payload = minimal_payload()
        payload["entries"][1]["index"] = [0, 0.5]
        payload["entries"][3]["index"] = [True, 1]
        with pytest.raises(ValidationError, match="^entry 1: index must be a list of ints$"):
            gate_from_json(payload)
        payload = minimal_payload()
        payload["entries"][1]["output"] = ["x"]
        payload["entries"][2]["index"] = [1, 7]
        with pytest.raises(ValidationError, match=r"^entry 1: .*'x'"):
            gate_from_json(payload)

    @pytest.mark.parametrize(
        "table, message",
        [
            ({(0, 0): (1,), (0, True): (0,)}, "table index (0, True) out of range for arities (2, 2)"),
            ({(0, 0): (1,), (1.0, 0): (0,)}, "table index (1.0, 0) out of range for arities (2, 2)"),
            ({(0, 0): (0.5,), (0, 3): (0,)}, "entry (0, 0): floats are inexact"),
            ({(0, 3): (0.5,), (0, 0): (0,)}, "table index (0, 3) out of range for arities (2, 2)"),
        ],
    )
    def test_a_python_table_names_its_first_faulty_key(self, table, message):
        with pytest.raises(ValidationError) as exc:
            Gate(arities=(2, 2), output_dim=1, table=table)
        assert str(exc.value).startswith(message)

    @pytest.mark.parametrize(
        "faults, message",
        [
            # a file's entries are read in order, and a JSON-level fault
            # (shape, duplicate, text) raises while reading
            ({1: {"index": [0, 0]}, 2: {"output": ["x"]}}, "entry 1: duplicate index (0, 0)"),
            ({1: {"output": ["x"]}, 2: {"index": [0, 0]}}, f"entry 1: {NOT_A_RATIONAL}"),
            ({0: {"index": [0, 5]}, 2: {"output": ["x"]}}, f"entry 2: {NOT_A_RATIONAL}"),
            ({1: {"output": [1]}, 2: {"output": [True]}}, "entry 2: expected a rational, got boolean True"),
            # the table's faults are named in entry order, the index first
            ({1: {"index": [0, 5]}, 2: {"output": ["0", "0"]}}, "table index (0, 5) out of range for arities (2, 2)"),
            ({1: {"output": ["0", "0"]}, 2: {"index": [0, 5]}}, "entry (0, 1): expected 1 components, got 2"),
            ({1: {"index": [0, 5], "output": ["0", "0"]}}, "table index (0, 5) out of range for arities (2, 2)"),
            # the arities are checked before the table, after the file is read
            ({"arities": [1, 2], 2: {"output": ["x"]}}, f"entry 2: {NOT_A_RATIONAL}"),
            ({"arities": [1, 2], 2: {"index": [0, 5]}}, "arity of block 0 must be an int >= 2"),
            # a missing entry is found after every other fault
            ({3: None, 1: {"output": ["x"]}}, f"entry 1: {NOT_A_RATIONAL}"),
            ({3: None, 1: {"index": [0, 5]}}, "table index (0, 5) out of range for arities (2, 2)"),
            ({3: None, 1: {"output": ["0", "0"]}}, "entry (0, 1): expected 1 components, got 2"),
            ({3: None, 0: {"output": [1]}, 1: {"output": [1]}}, "table is missing 1 entries, e.g. [(1, 1)]"),
        ],
    )
    def test_a_file_with_two_faults_names_the_one_found_first(self, faults, message):
        payload = minimal_payload()
        payload["arities"] = faults.pop("arities", payload["arities"])
        for position in sorted(faults, reverse=True):
            if faults[position] is None:
                del payload["entries"][position]
            else:
                payload["entries"][position].update(faults[position])
        with pytest.raises(ValidationError) as exc:
            gate_from_json(payload)
        assert str(exc.value).startswith(message)

    @pytest.mark.parametrize(
        "arities, table, message",
        [
            ((2,), {(0,): (0,), (1,): ("x",), (5,): (0,)}, f"entry (1,): {NOT_A_RATIONAL}"),
            ((2,), {(0,): (0,), (5,): (0,), (1,): ("x",)}, "table index (5,) out of range for arities (2,)"),
            ((2,), {(5,): (0,), (1,): (0, 0)}, "table index (5,) out of range for arities (2,)"),
            ((2,), {(1,): (0, 0), (5,): (0,)}, "entry (1,): expected 1 components, got 2"),
            ((2,), {(1,): ("x", 0)}, f"entry (1,): {NOT_A_RATIONAL}"),
            ((1, 2), {(0, 0): ("x",)}, "arity of block 0 must be an int >= 2"),
            ((2,), {(0,): ("x",)}, f"entry (0,): {NOT_A_RATIONAL}"),
            ((2,), {(1,): (7, 0)}, "entry (1,): expected 1 components, got 2"),
            ((2,), {(0,): (1,), (1,): (True,)}, "entry (1,): expected a rational, got boolean True"),
            ((2,), {(0,): (True,), (1,): (1,)}, "entry (0,): expected a rational, got boolean True"),
        ],
    )
    def test_a_python_table_with_two_faults_names_the_one_found_first(self, arities, table, message):
        with pytest.raises(ValidationError) as exc:
            Gate(arities, 1, table)
        assert str(exc.value).startswith(message)

    def test_rejects_arity_below_two(self):
        with pytest.raises(ValidationError):
            Gate(arities=(1, 2), output_dim=1, table={})

    def test_rejects_wrong_output_width(self):
        payload = minimal_payload()
        payload["entries"][0]["output"] = ["0", "0"]
        with pytest.raises(ValidationError):
            gate_from_json(payload)

    @pytest.mark.parametrize("bad", [0.1, 0.5, True, "x"])
    def test_table_and_label_entries_must_be_exact(self, bad):
        with pytest.raises(ValidationError, match=r"entry \(1,\)"):
            Gate(arities=(2,), output_dim=1, table={(0,): (F(1, 2),), (1,): (bad,)})
        with pytest.raises(ValidationError, match="output label 'x'"):
            Gate(
                arities=(2,), output_dim=1, table={(0,): (0,), (1,): (1,)},
                output_labels={(bad,): "x"},
            )
        with pytest.raises(ValidationError, match=r"entry \(0,\)"):
            MultilinearExpansion(arities=(2,), output_dim=1, coefficients={(0,): (bad,), (1,): (1,)})

    def test_parsed_entries_are_kept_not_copied(self):
        gate = gate_from_json(minimal_payload())
        assert all(
            a is b
            for idx, vec in gate.table.items()
            for a, b in zip(vec, expand(gate).coefficients[idx])
        )

    def test_an_output_has_at_most_one_label(self):
        table = {(0,): (0,), (1,): (1,)}
        assert Gate((2,), 1, table, output_labels={(0,): "off", (1,): "on"}).output_labels == {
            (F(0),): "off", (F(1),): "on"
        }
        with pytest.raises(ValidationError) as exc:
            Gate((2,), 1, table, output_labels={(1,): "on", ("2/2",): "one"})
        assert str(exc.value) == "output label 'one': its output is labelled 'on' already"

    def test_input_labels_must_match_arities(self):
        payload = minimal_payload()
        payload["input_labels"] = [["a", "b"], ["c"]]
        with pytest.raises(ValidationError):
            gate_from_json(payload)


class TestSerialization:
    def test_fixture_round_trip_is_byte_stable(self, color_gate):
        original = FIXTURE_PATH.read_text(encoding="utf-8")
        assert dumps_gate(color_gate) == original

    def test_to_json_orders_entries(self):
        gate = gate_from_json(minimal_payload())
        indices = [entry["index"] for entry in gate_to_json(gate)["entries"]]
        assert indices == sorted(indices)

    def test_load_gate_reports_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ValidationError, match="invalid JSON"):
            load_gate(path)

    def test_output_labels_round_trip(self, color_gate):
        obj = gate_to_json(color_gate)
        again = gate_from_json(json.loads(json.dumps(obj)))
        assert again.output_labels == color_gate.output_labels
        assert again == color_gate


class TestExpansion:
    def test_coefficients_are_the_table(self, color_gate):
        expansion = expand(color_gate)
        assert expansion.coefficients == dict(color_gate.table)
        assert expansion.arities == (2, 2, 2)
        assert reduced_dimension(expansion) == 3

    def test_vertex_evaluation_reproduces_the_table(self, color_gate):
        expansion = expand(color_gate)
        for idx, out in color_gate.table.items():
            point = [
                tuple(F(1) if j == idx[i] else F(0) for j in range(2))
                for i in range(3)
            ]
            assert evaluate(expansion, point) == out

    def test_frozen_center_value(self, color_gate):
        expansion = expand(color_gate)
        center = [(F(1, 2), F(1, 2))] * 3
        assert evaluate(expansion, center) == (
            F(1, 8),
            F(7, 24),
            F(7, 24),
            F(7, 24),
        )

    def test_outputs_stay_on_the_simplex(self, color_gate, rng):
        expansion = expand(color_gate)
        for _ in range(50):
            point = []
            for _ in range(3):
                a = F(rng.randint(0, 16), 16)
                point.append((a, 1 - a))
            value = evaluate(expansion, point)
            assert sum(value) == 1
            assert all(c >= 0 for c in value)

    def test_matches_the_reference_interpolation(self, color_gate, rng):
        expansion = expand(color_gate)
        for _ in range(25):
            point = []
            for _ in range(3):
                a = F(rng.randint(0, 8), 8)
                point.append((a, 1 - a))
            assert evaluate(expansion, point) == oracles.evaluate_table(
                color_gate.arities, color_gate.table, point
            )

    def test_rejects_points_off_the_simplex(self, color_gate):
        expansion = expand(color_gate)
        with pytest.raises(DomainError):
            evaluate(expansion, [(F(1), F(1))] * 3)
        with pytest.raises(DomainError):
            evaluate(expansion, [(F(3, 2), F(-1, 2))] * 3)
        with pytest.raises(DomainError):
            evaluate(expansion, [(F(1), F(0))] * 2)

    def test_expansion_requires_complete_coefficients(self):
        with pytest.raises(ValidationError):
            MultilinearExpansion(
                arities=(2,), output_dim=1, coefficients={(0,): (F(0),)}
            )

    @pytest.mark.parametrize(
        "arities, output_dim, entries, message",
        [
            ((2, 2), True, None, "output_dim must be an int >= 1, got True"),
            ((2, 2), 0, None, "output_dim must be an int >= 1, got 0"),
            ((2, 2), "1", None, "output_dim must be an int >= 1"),
            ((2, 1), 1, None, "arity of block 1 must be an int >= 2"),
            ((2, 2), 1, {(0, 2): (F(0),)}, r"index \(0, 2\) out of range"),
            ((2, 2), 1, {(0, 0): (F(0),)}, "is missing 3 entries"),
            ((2, 2), 1, {(0, 0): (F(0), F(1))}, "expected 1 components, got 2"),
            ((2, 2), 1, {(True, 0): (F(0),)}, r"index \(True, 0\) out of range"),
            ((2, 2), 1, {(1.0, 0): (F(0),)}, r"index \(1.0, 0\) out of range"),
        ],
    )
    def test_gates_and_expansions_share_one_rule(self, arities, output_dim, entries, message):
        if entries is None:
            entries = {idx: (F(0),) for idx in product(range(2), repeat=2)}
        with pytest.raises(ValidationError, match=message):
            Gate(arities, output_dim, entries)
        with pytest.raises(ValidationError, match=message):
            MultilinearExpansion(arities, output_dim, entries)

    def test_an_accepted_table_round_trips_through_json(self):
        # a gate takes only int indices, so its JSON reads back as the gate
        gate = Gate((2, 3), 2, {idx: (F(idx[0], 2), F(-idx[1], 3)) for idx in product(range(2), range(3))})
        text = dumps_gate(gate)
        assert gate_from_json(json.loads(text)) == gate
        assert all(type(j) is int for entry in json.loads(text)["entries"] for j in entry["index"])


class TestOneRepresentation:
    def test_a_gate_is_checked_once_and_is_its_expansion(self, monkeypatch):
        calls = []
        check = gates._checked

        def counted(*args):
            calls.append(args)
            return check(*args)

        monkeypatch.setattr(gates, "_checked", counted)
        gate = gate_from_json(minimal_payload())
        assert expand(gate) is expand(gate)
        assert expand(gate).coefficients is gate.table
        assert len(calls) == 1

    def test_the_tensor_is_the_scaled_table(self):
        gate = Gate((2, 3), 2, {idx: (F(idx[0], 2), F(-idx[1], 3)) for idx in product(range(2), range(3))})
        expansion = expand(gate)
        assert expansion.scale == 6
        assert expansion.tensor.shape == (2, 3, 2)
        assert not expansion.tensor.flags.writeable
        for idx, vec in gate.table.items():
            assert [type(v) for v in expansion.tensor[idx]] == [int, int]
            assert tuple(F(v, 6) for v in expansion.tensor[idx]) == vec

    def test_only_gates_and_the_expand_command_read_coefficients(self):
        # the dict views, built on access: a gate's table is its coefficients
        sites = set()
        for path in sorted(Path(gates.__file__).parent.glob("*.py")):
            for top in ast.parse(path.read_text(encoding="utf-8")).body:
                for node in ast.walk(top):
                    if isinstance(node, ast.Attribute) and node.attr in ("coefficients", "table"):
                        sites.add((path.name, getattr(top, "name", None)))
        outside = {site for site in sites if site[0] != "gates.py"}
        assert outside == {("cli.py", "_cmd_gate_expand")}

    def test_the_dict_views_are_built_on_access_and_read_only(self):
        gate = gate_from_json(minimal_payload())
        expansion = expand(gate)
        assert "coefficients" not in vars(expansion)
        assert gate.table is expansion.coefficients is expansion.coefficients
        assert gate.table == {(0, 0): (F(0),), (0, 1): (F(0),), (1, 0): (F(0),), (1, 1): (F(1),)}
        with pytest.raises(TypeError):
            gate.table[(0, 0)] = (F(1),)
        # the view is left out of a copy, which builds its own
        for again in (copy.deepcopy(gate), pickle.loads(pickle.dumps(gate))):
            assert again == gate and again.table == gate.table and again.table is not gate.table

    def test_equal_tables_in_any_spelling_are_one_expansion(self):
        # the scale is the lcm of the reduced denominators, so the tensor is canonical
        halves = Gate((2,), 1, {(0,): ("1/2",), (1,): (F(3, 2),)})
        again = Gate((2,), 1, {(0,): ("2/4",), (1,): ("1.5",)})
        assert (expand(halves).scale, expand(halves).tensor.tolist()) == (2, [[1], [3]])
        assert halves == again and hash(halves) == hash(again)
        assert expand(halves) != expand(Gate((2,), 1, {(0,): (F(1, 2),), (1,): (F(1, 2),)}))
        # a partial keeps its scale canonical too
        assert reduced_partial(expand(halves), (0,), 0, 1).scale == 1

    def test_replace_rebuilds_through_the_checked_constructor(self):
        labels = (("lo", "hi"), ("off", "on"))
        named = replace(AND, table=AND.table, input_labels=labels)
        assert named.input_labels == labels and named.table == AND.table and named != AND
        assert replace(named, table=named.table, input_labels=None) == AND
        expansion = replace(expand(AND), coefficients=expand(AND).coefficients)
        assert expansion == expand(AND) and expansion.scale == 1
        # the stored forms are derived, not arguments; the table is one
        for value, field in ((AND, "table"), (expand(AND), "coefficients")):
            with pytest.raises(TypeError, match=f"missing 1 required positional argument: '{field}'"):
                replace(value)
        with pytest.raises(ValidationError, match="expected 1 components"):
            replace(AND, table={idx: (0, 1) for idx in AND.table})
        for value in (named, expansion):
            assert copy.deepcopy(value) == value == pickle.loads(pickle.dumps(value))


class TestHashing:
    def test_equal_gates_hash_equal_and_are_one_set_member(self):
        first, second = boolean_gate([0, 0, 0, 1], 2), boolean_gate([0, 0, 0, 1], 2)
        assert first == second and first is not second
        assert hash(first) == hash(second)
        assert len({first, second, XOR}) == 2
        assert hash(expand(first)) == hash(expand(second))
        assert len({expand(first), expand(second), expand(XOR)}) == 2

    def test_gates_and_expansions_are_dict_keys(self):
        keys = {AND: "gate", expand(AND): "expansion"}
        again = boolean_gate([0, 0, 0, 1], 2)
        assert keys[again] == "gate"
        assert keys[expand(again)] == "expansion"

    def test_the_hash_reads_what_equality_reads(self):
        labelled = Gate(AND.arities, AND.output_dim, AND.table, output_labels={(0,): "off"})
        assert labelled == AND and hash(labelled) == hash(AND)
        named = Gate(AND.arities, AND.output_dim, AND.table, input_labels=(("a", "b"), ("c", "d")))
        assert named != AND
        assert {named: 1, AND: 2}[named] == 1


class TestBasePoints:
    def test_lexicographic_order(self):
        gate = boolean_gate([0] * 8, 3)
        assert list(base_points(expand(gate))) == sorted(
            product(range(2), repeat=3)
        )

    def test_validation(self):
        expansion = expand(AND)
        assert validate_base_point(expansion, (1, 0)) == (1, 0)
        with pytest.raises(DomainError):
            validate_base_point(expansion, (1,))
        with pytest.raises(DomainError):
            validate_base_point(expansion, (2, 0))


class TestReducedPartial:
    def test_conjunction_slices(self):
        expansion = expand(AND)
        form = reduced_partial(expansion, (0, 0), 0, 1)
        assert form.arities == (2,)
        assert form.coefficients == {(0,): (F(0),), (1,): (F(1),)}
        form = reduced_partial(expansion, (1, 1), 0, 0)
        assert form.coefficients == {(0,): (F(0),), (1,): (F(-1),)}

    def test_base_coordinate_is_excluded(self):
        with pytest.raises(DomainError):
            reduced_partial(expand(AND), (0, 0), 0, 0)

    def test_is_the_exact_directional_difference(self, color_gate):
        # Moving h of mass from the base coordinate to coordinate j changes
        # the value by exactly h times the reduced partial.
        expansion = expand(color_gate)
        h = F(1, 7)
        z = (0, 1, 0)
        rest_point = [(F(2, 5), F(3, 5)), (F(1, 3), F(2, 3))]
        for block in range(3):
            j = 1 - z[block]
            form = reduced_partial(expansion, z, block, j)
            base_block = tuple(
                F(1) - h if k == z[block] else h for k in range(2)
            )
            anchor_block = tuple(F(1) if k == z[block] else F(0) for k in range(2))
            moved = list(rest_point)
            moved.insert(block, base_block)
            anchored = list(rest_point)
            anchored.insert(block, anchor_block)
            difference = [
                a - b
                for a, b in zip(
                    evaluate(expansion, moved), evaluate(expansion, anchored)
                )
            ]
            assert difference == [h * c for c in evaluate(form, rest_point)]


class TestApplyFunctional:
    def test_scalar_projection(self, color_gate):
        expansion = expand(color_gate)
        scalar = apply_functional(expansion, (F(0), F(1), F(-1), F(-1)))
        assert scalar.output_dim == 1
        assert scalar.coefficients[(1, 0, 0)] == (F(1),)
        assert scalar.coefficients[(1, 1, 1)] == (F(-1, 3),)
        assert scalar.coefficients[(0, 0, 0)] == (F(0),)

    def test_wrong_width_is_rejected(self, color_gate):
        with pytest.raises(DomainError):
            apply_functional(expand(color_gate), (F(1),))

    @settings(max_examples=30, deadline=None)
    @given(
        st.tuples(*(st.integers(-3, 3) for _ in range(4))),
        st.integers(0, 6),
        st.integers(0, 6),
        st.integers(0, 6),
    )
    def test_commutes_with_evaluation(self, w, a, b, c):
        expansion = expand(load_gate(FIXTURE_PATH))
        point = [
            (F(a, 7), 1 - F(a, 7)),
            (F(b, 7), 1 - F(b, 7)),
            (F(c, 7), 1 - F(c, 7)),
        ]
        scalar = apply_functional(expansion, w)
        direct = sum(
            F(wi) * vi for wi, vi in zip(w, evaluate(expansion, point))
        )
        assert evaluate(scalar, point) == (direct,)


class TestBooleanGate:
    def test_truth_table_order_uses_block_zero_as_msb(self):
        gate = boolean_gate([0, 1, 1, 1], 2)
        assert gate.table[(0, 0)] == (F(0),)
        assert gate.table[(0, 1)] == (F(1),)
        assert gate.table[(1, 0)] == (F(1),)
        assert gate.table[(1, 1)] == (F(1),)

    def test_xor_expansion_coefficients(self):
        assert expand(XOR).coefficients == {
            (0, 0): (F(0),),
            (0, 1): (F(1),),
            (1, 0): (F(1),),
            (1, 1): (F(0),),
        }

    def test_rejects_bad_shapes(self):
        with pytest.raises(DomainError):
            boolean_gate([0, 1], 2)
        with pytest.raises(DomainError):
            boolean_gate([0, 1, 2, 0], 2)

    @pytest.mark.parametrize("inputs", [1.0, True, "1", 0])
    def test_inputs_must_be_an_int_of_at_least_one(self, inputs):
        with pytest.raises(DomainError, match="^inputs must be >= 1$"):
            boolean_gate([0, 1], inputs)

    @pytest.mark.parametrize("outputs, bad", [([False, True], False), ([0, 1.0], 1.0), ([0, F(1)], F(1))])
    def test_outputs_must_be_the_ints_zero_and_one(self, outputs, bad):
        with pytest.raises(DomainError) as exc:
            boolean_gate(outputs, 1)
        assert str(exc.value) == f"outputs must be 0/1, got {bad!r}"
