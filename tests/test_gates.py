import json
from fractions import Fraction
from itertools import product

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

import oracles
from conftest import FIXTURE_PATH

F = Fraction

AND = boolean_gate([0, 0, 0, 1], 2)
XOR = boolean_gate([0, 1, 1, 0], 2)


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

    def test_rendering_round_trips(self):
        for text in ("0", "1", "-2", "1/3", "-7/12"):
            assert rational_string(parse_rational(text)) == text


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

    def test_rejects_arity_below_two(self):
        with pytest.raises(ValidationError):
            Gate(arities=(1, 2), output_dim=1, table={})

    def test_rejects_wrong_output_width(self):
        payload = minimal_payload()
        payload["entries"][0]["output"] = ["0", "0"]
        with pytest.raises(ValidationError):
            gate_from_json(payload)

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
