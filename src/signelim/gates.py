"""Finite multi-valued gates and their multilinear extensions.

A gate maps k discrete inputs (input i ranging over arity_i >= 2 truth
values) to vectors in Q**output_dim. Its multilinear extension lives on the
product of probability simplices, one per input block: the value at mixed
inputs is the multilinear interpolation of the table, so the coefficient
tensor in the homogeneous monomial basis is the table itself.

All arithmetic is exact over fractions.Fraction.

Gate JSON format::

    {
      "arities": [2, 2, 2],
      "output_dim": 4,
      "entries": [
        {"index": [0, 0, 0], "output": ["1", "0", "0", "0"]},
        ...
      ],
      "input_labels": [["r0", "r1"], ...],          # optional
      "output_labels": [                            # optional
        {"output": ["1", "0", "0", "0"], "label": "black"},
        ...
      ]
    }

Rational values are JSON strings ("1/3", "0.5", "-2") or JSON integers.
JSON floats are rejected because they are inexact.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from typing import Iterable, Mapping, Optional, Sequence

from .errors import DomainError, ValidationError

__all__ = [
    "Gate",
    "MultilinearExpansion",
    "parse_rational",
    "parse_rational_vector",
    "rational_string",
    "gate_from_json",
    "gate_to_json",
    "load_gate",
    "dumps_gate",
    "expand",
    "evaluate",
    "reduced_dimension",
    "base_points",
    "validate_base_point",
    "reduced_partial",
    "apply_functional",
    "boolean_gate",
]

Index = tuple[int, ...]
Vector = tuple[Fraction, ...]


def parse_rational(value) -> Fraction:
    """Parse an exact rational from a JSON-ish value."""
    if isinstance(value, bool):
        raise ValidationError(f"expected a rational, got boolean {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise ValidationError(
            f"floats are inexact; write {value!r} as a string like '1/3' or '0.5'"
        )
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError(f"cannot parse rational from {value!r}: {exc}")
    raise ValidationError(f"cannot parse rational from {value!r}")


def parse_rational_vector(values: Sequence, where: str) -> Vector:
    """Parse every entry with parse_rational; errors name `where`."""
    try:
        return tuple(parse_rational(v) for v in values)
    except ValidationError as exc:
        raise ValidationError(f"{where}: {exc}")


def rational_string(value) -> str:
    """Canonical string form of a rational ("p/q", integers without /q)."""
    return str(Fraction(value))


def _validate_arities(arities: Sequence[int]) -> tuple[int, ...]:
    out = tuple(arities)
    if not out:
        raise ValidationError("a gate needs at least one input block")
    for i, a in enumerate(out):
        if not isinstance(a, int) or a < 2:
            raise ValidationError(
                f"arity of block {i} must be an int >= 2, got {a!r} "
                "(single-valued inputs carry no information)"
            )
    return out


def _validate_vector(values: Sequence, dim: int, where: str) -> Vector:
    vec = tuple(Fraction(v) for v in values)
    if len(vec) != dim:
        raise ValidationError(f"{where}: expected {dim} components, got {len(vec)}")
    return vec


@dataclass(frozen=True, eq=True)
class Gate:
    """A total table from discrete inputs to rational output vectors."""

    arities: tuple[int, ...]
    output_dim: int
    table: Mapping[Index, Vector]
    input_labels: Optional[tuple[tuple[str, ...], ...]] = None
    output_labels: Optional[Mapping[Vector, str]] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        arities = _validate_arities(self.arities)
        object.__setattr__(self, "arities", arities)
        # type(), not isinstance: a JSON true is a bool, which subclasses int
        if type(self.output_dim) is not int or self.output_dim < 1:
            raise ValidationError(f"output_dim must be an int >= 1, got {self.output_dim!r}")
        expected = set(product(*(range(a) for a in arities)))
        table = {}
        for idx, out in self.table.items():
            key = tuple(idx)
            if key not in expected:
                raise ValidationError(f"table index {key!r} out of range for arities {arities}")
            table[key] = _validate_vector(out, self.output_dim, f"entry {key!r}")
        missing = expected - set(table)
        if missing:
            shown = sorted(missing)[:8]
            raise ValidationError(
                f"table is missing {len(missing)} entries, e.g. {shown}"
            )
        object.__setattr__(self, "table", table)
        if self.input_labels is not None:
            labels = tuple(tuple(block) for block in self.input_labels)
            if len(labels) != len(arities):
                raise ValidationError("input_labels must name every input block")
            for i, block in enumerate(labels):
                if len(block) != arities[i]:
                    raise ValidationError(
                        f"input_labels[{i}] must have {arities[i]} names, got {len(block)}"
                    )
            object.__setattr__(self, "input_labels", labels)
        if self.output_labels is not None:
            normalized = {}
            for vec, name in self.output_labels.items():
                normalized[_validate_vector(vec, self.output_dim, f"output label {name!r}")] = str(name)
            object.__setattr__(self, "output_labels", normalized)

    @property
    def block_count(self) -> int:
        return len(self.arities)


@dataclass(frozen=True, eq=True)
class MultilinearExpansion:
    """Coefficient tensor of a multilinear form on a product of simplices.

    coefficients maps each index tuple (one truth value per remaining block)
    to a rational output vector. For a gate's expansion the coefficients are
    exactly the table entries, which the sensitivity analysis reads as one
    dense integer tensor. reduced_partial returns a difference of slices as an
    expansion over fewer blocks; an expansion over zero blocks has the single
    key () and represents a constant.
    """

    arities: tuple[int, ...]
    output_dim: int
    coefficients: Mapping[Index, Vector]

    def __post_init__(self) -> None:
        arities = tuple(self.arities)
        for i, a in enumerate(arities):
            if not isinstance(a, int) or a < 2:
                raise ValidationError(f"arity of block {i} must be >= 2, got {a!r}")
        object.__setattr__(self, "arities", arities)
        expected = set(product(*(range(a) for a in arities)))
        coeffs = {}
        for idx, vec in self.coefficients.items():
            key = tuple(idx)
            if key not in expected:
                raise ValidationError(f"coefficient index {key!r} out of range")
            coeffs[key] = _validate_vector(vec, self.output_dim, f"coefficient {key!r}")
        if set(coeffs) != expected:
            raise ValidationError("coefficient tensor must be complete")
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def block_count(self) -> int:
        return len(self.arities)


def expand(gate: Gate) -> MultilinearExpansion:
    """Multilinear extension of a gate; coefficients are the table entries."""
    return MultilinearExpansion(
        arities=gate.arities,
        output_dim=gate.output_dim,
        coefficients=dict(gate.table),
    )


def _validate_point(
    expansion: MultilinearExpansion, point: Sequence[Sequence]
) -> tuple[tuple[Fraction, ...], ...]:
    if len(point) != expansion.block_count:
        raise DomainError(
            f"point must have {expansion.block_count} blocks, got {len(point)}"
        )
    blocks = []
    for i, block in enumerate(point):
        coords = tuple(Fraction(c) for c in block)
        if len(coords) != expansion.arities[i]:
            raise DomainError(
                f"block {i} must have {expansion.arities[i]} coordinates, got {len(coords)}"
            )
        if any(c < 0 for c in coords):
            raise DomainError(f"block {i} has a negative coordinate")
        if sum(coords) != 1:
            raise DomainError(f"block {i} coordinates must sum to 1")
        blocks.append(coords)
    return tuple(blocks)


def evaluate(expansion: MultilinearExpansion, point: Sequence[Sequence]) -> Vector:
    """Exact value of the expansion at a point of the simplex product."""
    blocks = _validate_point(expansion, point)
    total = [Fraction(0)] * expansion.output_dim
    for idx, vec in expansion.coefficients.items():
        weight = Fraction(1)
        for block, j in zip(blocks, idx):
            weight *= block[j]
            if weight == 0:
                break
        if weight == 0:
            continue
        for c in range(expansion.output_dim):
            total[c] += weight * vec[c]
    return tuple(total)


def reduced_dimension(expansion: MultilinearExpansion) -> int:
    """Number of free coordinates after fixing one coordinate per block."""
    return sum(a - 1 for a in expansion.arities)


def base_points(expansion: MultilinearExpansion) -> Iterable[Index]:
    """All base points (one truth value per block), in lexicographic order."""
    return product(*(range(a) for a in expansion.arities))


def validate_base_point(expansion: MultilinearExpansion, z: Sequence[int]) -> Index:
    point = tuple(z)
    if len(point) != expansion.block_count:
        raise DomainError(
            f"base point must have {expansion.block_count} entries, got {len(point)}"
        )
    for i, j in enumerate(point):
        if not isinstance(j, int) or not 0 <= j < expansion.arities[i]:
            raise DomainError(
                f"base point entry {j!r} out of range for block {i} "
                f"(arity {expansion.arities[i]})"
            )
    return point


def reduced_partial(
    expansion: MultilinearExpansion, z: Sequence[int], block: int, coord: int
) -> MultilinearExpansion:
    """Difference of slices: block fixed at coord minus block fixed at z[block].

    This is the exact partial derivative of the expansion with respect to the
    reduced coordinate (block, coord) once the dependent coordinate z[block]
    absorbs the simplex constraint. The result is an expansion over the
    remaining blocks (original order, block removed).
    """
    base = validate_base_point(expansion, z)
    if not 0 <= block < expansion.block_count:
        raise DomainError(f"block {block} out of range")
    if not 0 <= coord < expansion.arities[block]:
        raise DomainError(f"coordinate {coord} out of range for block {block}")
    if coord == base[block]:
        raise DomainError(
            f"coordinate {coord} is the base coordinate of block {block}; "
            "reduced coordinates exclude it"
        )
    rest_arities = expansion.arities[:block] + expansion.arities[block + 1 :]
    coeffs = {}
    for idx in product(*(range(a) for a in rest_arities)):
        plus = idx[:block] + (coord,) + idx[block:]
        minus = idx[:block] + (base[block],) + idx[block:]
        plus_vec = expansion.coefficients[plus]
        minus_vec = expansion.coefficients[minus]
        coeffs[idx] = tuple(p - m for p, m in zip(plus_vec, minus_vec))
    return MultilinearExpansion(
        arities=rest_arities, output_dim=expansion.output_dim, coefficients=coeffs
    )


def apply_functional(expansion: MultilinearExpansion, w: Sequence) -> MultilinearExpansion:
    """Compose with a linear functional on the output space (output_dim 1)."""
    weights = tuple(Fraction(v) for v in w)
    if len(weights) != expansion.output_dim:
        raise DomainError(
            f"functional must have {expansion.output_dim} components, got {len(weights)}"
        )
    coeffs = {
        idx: (sum((wi * vi for wi, vi in zip(weights, vec)), Fraction(0)),)
        for idx, vec in expansion.coefficients.items()
    }
    return MultilinearExpansion(
        arities=expansion.arities, output_dim=1, coefficients=coeffs
    )


# ---------------------------------------------------------------------------
# JSON round trip
# ---------------------------------------------------------------------------


def gate_from_json(obj) -> Gate:
    if not isinstance(obj, dict):
        raise ValidationError("gate JSON must be an object")
    for key in ("arities", "output_dim", "entries"):
        if key not in obj:
            raise ValidationError(f"gate JSON is missing {key!r}")
    unknown = set(obj) - {"arities", "output_dim", "entries", "input_labels", "output_labels"}
    if unknown:
        raise ValidationError(f"gate JSON has unknown keys {sorted(unknown)}")
    arities = obj["arities"]
    if not isinstance(arities, list):
        raise ValidationError("arities must be a list")
    output_dim = obj["output_dim"]
    entries = obj["entries"]
    if not isinstance(entries, list):
        raise ValidationError("entries must be a list")
    table: dict[Index, Vector] = {}
    for pos, entry in enumerate(entries):
        if not isinstance(entry, dict) or "index" not in entry or "output" not in entry:
            raise ValidationError(f"entry {pos} must be an object with index and output")
        idx = entry["index"]
        if not isinstance(idx, list) or not all(isinstance(j, int) and not isinstance(j, bool) for j in idx):
            raise ValidationError(f"entry {pos}: index must be a list of ints")
        key = tuple(idx)
        if key in table:
            raise ValidationError(f"entry {pos}: duplicate index {key!r}")
        out = entry["output"]
        if not isinstance(out, list):
            raise ValidationError(f"entry {pos}: output must be a list")
        table[key] = parse_rational_vector(out, f"entry {pos}")
    input_labels = None
    if "input_labels" in obj and obj["input_labels"] is not None:
        raw = obj["input_labels"]
        if not isinstance(raw, list) or not all(isinstance(b, list) for b in raw):
            raise ValidationError("input_labels must be a list of lists of strings")
        input_labels = tuple(tuple(str(s) for s in block) for block in raw)
    output_labels = None
    if "output_labels" in obj and obj["output_labels"] is not None:
        raw = obj["output_labels"]
        if not isinstance(raw, list):
            raise ValidationError("output_labels must be a list of objects")
        output_labels = {}
        for pos, item in enumerate(raw):
            if not isinstance(item, dict) or "output" not in item or "label" not in item:
                raise ValidationError(
                    f"output_labels[{pos}] must be an object with output and label"
                )
            if not isinstance(item["output"], list):
                raise ValidationError(f"output_labels[{pos}]: output must be a list")
            vec = parse_rational_vector(item["output"], f"output_labels[{pos}]")
            output_labels[vec] = str(item["label"])
    return Gate(
        arities=tuple(arities),
        output_dim=output_dim,
        table=table,
        input_labels=input_labels,
        output_labels=output_labels,
    )


def gate_to_json(gate: Gate) -> dict:
    obj: dict = {
        "arities": list(gate.arities),
        "output_dim": gate.output_dim,
        "entries": [
            {
                "index": list(idx),
                "output": [rational_string(v) for v in gate.table[idx]],
            }
            for idx in sorted(gate.table)
        ],
    }
    if gate.input_labels is not None:
        obj["input_labels"] = [list(block) for block in gate.input_labels]
    if gate.output_labels is not None:
        obj["output_labels"] = [
            {"output": [rational_string(v) for v in vec], "label": name}
            for vec, name in sorted(
                gate.output_labels.items(), key=lambda kv: kv[0]
            )
        ]
    return obj


def dumps_gate(gate: Gate) -> str:
    """Canonical serialized form: parse -> dumps is byte stable."""
    return json.dumps(gate_to_json(gate), indent=2) + "\n"


def load_gate(path) -> Gate:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return gate_from_json(json.load(handle))
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}: invalid JSON: {exc}")
        except ValidationError as exc:
            raise ValidationError(f"{path}: {exc}")


def boolean_gate(outputs: Sequence[int], inputs: int) -> Gate:
    """Gate with `inputs` two-valued blocks and scalar 0/1 outputs.

    outputs lists the truth table with input block 0 as the most significant
    bit: entry for index (j_0, ..., j_{k-1}) sits at position
    sum(j_i * 2**(k-1-i)).
    """
    if inputs < 1:
        raise DomainError("inputs must be >= 1")
    if len(outputs) != 2**inputs:
        raise DomainError(f"need {2 ** inputs} outputs, got {len(outputs)}")
    table = {}
    for idx in product(range(2), repeat=inputs):
        pos = sum(j << (inputs - 1 - i) for i, j in enumerate(idx))
        bit = outputs[pos]
        if bit not in (0, 1):
            raise DomainError(f"outputs must be 0/1, got {bit!r}")
        table[idx] = (Fraction(bit),)
    return Gate(arities=(2,) * inputs, output_dim=1, table=table)
