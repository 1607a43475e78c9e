"""Finite multi-valued gates and their multilinear extensions.

A gate maps k discrete inputs (input i ranging over arity_i >= 2 truth
values) to vectors in Q**output_dim. Its multilinear extension lives on the
product of probability simplices, one per input block: the value at mixed
inputs is the multilinear interpolation of the table, so the coefficient
tensor in the homogeneous monomial basis is the table itself. So a gate is
its expansion, checked once, and every form function reads the expansion's
dense integer tensor. All arithmetic is exact.

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
import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice, product
from numbers import Rational
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

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
    """Parse an exact rational (not a float or bool); a Fraction passes unchanged."""
    # Fraction and str before the Rational check, a slow ABC check
    if type(value) is Fraction:
        return value
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError(f"cannot parse rational from {value!r}: {exc}")
    if isinstance(value, bool):
        raise ValidationError(f"expected a rational, got boolean {value!r}")
    if isinstance(value, Rational):
        return Fraction(value)
    if isinstance(value, float):
        raise ValidationError(
            f"floats are inexact; write {value!r} as a string like '1/3' or '0.5'"
        )
    raise ValidationError(f"cannot parse rational from {value!r}")


def _cleared(rows: Sequence[Sequence[Fraction]]) -> tuple[list[list[int]], int]:
    """Rows times the lcm of all their denominators, as Python ints, and the lcm.

    This is the one scaling rule for exact values. The positive scale keeps
    every sign and every comparison, and a row sums to 1 exactly when its
    ints sum to the lcm.
    """
    scale = math.lcm(*(v.denominator for row in rows for v in row))
    return [[v.numerator * (scale // v.denominator) for v in row] for row in rows], scale


def parse_rational_vector(values: Sequence, where: str, parse=parse_rational) -> Vector:
    """Parse every entry with ``parse`` (parse_rational or a _TextMemo);
    errors name `where`."""
    try:
        return tuple(map(parse, values))
    except ValidationError as exc:
        raise ValidationError(f"{where}: {exc}")


class _TextMemo(dict):
    """Text -> Fraction for one input: each distinct text is parsed once.
    Called on a value, it parses it as parse_rational does."""

    def __missing__(self, text: str) -> Fraction:
        self[text] = value = parse_rational(text)
        return value

    def __call__(self, value) -> Fraction:
        return self[value] if type(value) is str else parse_rational(value)


def rational_string(value) -> str:
    """Canonical string form of a rational ("p/q", integers without /q)."""
    if type(value) is Fraction:
        return str(value)
    return str(Fraction(value))


def _validate_vector(values: Sequence, dim: int, where: str) -> Vector:
    vec = parse_rational_vector(values, where)
    if len(vec) != dim:
        raise ValidationError(f"{where}: expected {dim} components, got {len(vec)}")
    return vec


def _validate_tensor(
    arities: tuple[int, ...], output_dim: int, entries: Mapping
) -> dict[Index, Vector]:
    """A gate's table, which is its expansion's coefficients, checked.

    Every arity is an int >= 2, output_dim an int >= 1, every index a tuple
    of ints in range, every entry a vector of output_dim rationals, and no
    index is missing: the table size minus the entries, so no index set of a
    huge gate is built.
    """
    for i, a in enumerate(arities):
        if not isinstance(a, int) or a < 2:
            raise ValidationError(
                f"arity of block {i} must be an int >= 2, got {a!r} "
                "(single-valued inputs carry no information)"
            )
    # type(), not isinstance: a JSON true is a bool, which subclasses int
    if type(output_dim) is not int or output_dim < 1:
        raise ValidationError(f"output_dim must be an int >= 1, got {output_dim!r}")
    out = {}
    for idx, vec in entries.items():
        key = tuple(idx)
        # type(): True and 1.0 are in range(2), but would not round-trip as JSON
        if len(key) != len(arities) or not all(type(k) is int and 0 <= k < a for k, a in zip(key, arities)):
            raise ValidationError(f"table index {key!r} out of range for arities {arities}")
        if type(vec) is tuple and len(vec) == output_dim and all(type(v) is Fraction for v in vec):
            out[key] = vec  # parsed already, as gate_from_json does
        else:
            out[key] = _validate_vector(vec, output_dim, f"entry {key!r}")
    size = math.prod(arities)
    if len(out) < size:
        # the first eight missing indices, in lexicographic order, one at a time
        strides = [math.prod(arities[i + 1 :]) for i in range(len(arities))]
        keys = (tuple(k // d % a for d, a in zip(strides, arities)) for k in range(size))
        shown = list(islice((key for key in keys if key not in out), 8))
        raise ValidationError(f"table is missing {size - len(out)} entries, e.g. {shown}")
    return out


@dataclass(frozen=True, eq=True)
class Gate:
    """A total table from discrete inputs to rational output vectors: the
    coefficients of its expansion, which checks the table once."""

    arities: tuple[int, ...]
    output_dim: int
    table: Mapping[Index, Vector]
    input_labels: Optional[tuple[tuple[str, ...], ...]] = None
    output_labels: Optional[Mapping[Vector, str]] = field(default=None, compare=False)
    _expansion: MultilinearExpansion = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not tuple(self.arities):
            raise ValidationError("a gate needs at least one input block")
        expansion = MultilinearExpansion(self.arities, self.output_dim, self.table)
        arities = expansion.arities
        object.__setattr__(self, "arities", arities)
        object.__setattr__(self, "table", expansion.coefficients)
        object.__setattr__(self, "_expansion", expansion)
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

    def __hash__(self) -> int:
        # equal gates have equal tables, so equal expansions
        return hash((self._expansion, self.input_labels))

    @property
    def block_count(self) -> int:
        return len(self.arities)


@dataclass(frozen=True, eq=True)
class MultilinearExpansion:
    """Coefficient tensor of a multilinear form on a product of simplices.

    coefficients maps each index tuple (one truth value per remaining block)
    to a rational output vector; an expansion over zero blocks has the single
    key () and represents a constant. They are checked once, on construction,
    which also derives ``tensor``, the one dense form every function reads:
    the coefficients times ``scale`` (by _cleared), as a read-only object
    array of Python ints shaped arities + (output_dim,).
    """

    arities: tuple[int, ...]
    output_dim: int
    coefficients: Mapping[Index, Vector]
    tensor: np.ndarray = field(init=False, compare=False, repr=False)
    scale: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        arities = tuple(self.arities)
        coeffs = _validate_tensor(arities, self.output_dim, self.coefficients)
        ints, scale = _cleared([coeffs[idx] for idx in product(*map(range, arities))])
        tensor = np.array(ints, dtype=object).reshape(arities + (self.output_dim,))
        tensor.setflags(write=False)
        object.__setattr__(self, "arities", arities)
        object.__setattr__(self, "coefficients", coeffs)
        object.__setattr__(self, "tensor", tensor)
        object.__setattr__(self, "scale", scale)

    def __hash__(self) -> int:
        return hash((self.arities, self.output_dim, frozenset(self.coefficients.items())))

    @property
    def block_count(self) -> int:
        return len(self.arities)


def _from_tensor(values: np.ndarray, scale: int) -> MultilinearExpansion:
    """The expansion with coefficients values / scale; values is shaped like a tensor."""
    *arities, dim = values.shape
    rows = values.reshape(-1, dim).tolist()
    cells = product(*map(range, arities))
    coeffs = {idx: tuple(Fraction(v, scale) for v in row) for idx, row in zip(cells, rows)}
    return MultilinearExpansion(arities=tuple(arities), output_dim=dim, coefficients=coeffs)


def expand(gate: Gate) -> MultilinearExpansion:
    """Multilinear extension of a gate: the expansion the gate was checked by."""
    return gate._expansion


def _validate_point(
    expansion: MultilinearExpansion, point: Sequence[Sequence]
) -> tuple[tuple[Fraction, ...], ...]:
    if len(point) != expansion.block_count:
        raise DomainError(
            f"point must have {expansion.block_count} blocks, got {len(point)}"
        )
    blocks = []
    for i, block in enumerate(point):
        coords = parse_rational_vector(block, f"point block {i}")
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
    values = expansion.tensor
    for block in _validate_point(expansion, point):
        values = np.array(block, dtype=object) @ values.reshape(len(block), -1)
    return tuple(Fraction(v, expansion.scale) for v in values.reshape(-1))


def reduced_dimension(expansion: MultilinearExpansion) -> int:
    """Number of free coordinates after fixing one coordinate per block."""
    return sum(a - 1 for a in expansion.arities)


def base_points(expansion: MultilinearExpansion) -> Iterable[Index]:
    """All base points (one truth value per block), in lexicographic order."""
    return product(*(range(a) for a in expansion.arities))


def _base_point(arities: Sequence[int], z: Sequence[int]) -> Index:
    """z as a tuple, checked as a base point of blocks of these arities (ints >= 2)."""
    point = tuple(z)
    if len(point) != len(arities):
        raise DomainError(f"base point must have {len(arities)} entries, got {len(point)}")
    for i, (j, arity) in enumerate(zip(point, arities)):
        if type(arity) is not int or arity < 2:
            raise DomainError(f"arity of block {i} must be an int >= 2, got {arity!r}")
        # type(), not isinstance: a bool would index arrays as a mask
        if type(j) is not int or not 0 <= j < arity:
            raise DomainError(
                f"base point entry {j!r} out of range for block {i} (arity {arity})"
            )
    return point


def validate_base_point(expansion: MultilinearExpansion, z: Sequence[int]) -> Index:
    return _base_point(expansion.arities, z)


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
    if type(block) is not int or not 0 <= block < expansion.block_count:
        raise DomainError(f"block {block} out of range")
    if type(coord) is not int or not 0 <= coord < expansion.arities[block]:
        raise DomainError(f"coordinate {coord} out of range for block {block}")
    if coord == base[block]:
        raise DomainError(
            f"coordinate {coord} is the base coordinate of block {block}; "
            "reduced coordinates exclude it"
        )
    t = expansion.tensor
    difference = np.take(t, coord, axis=block) - np.take(t, base[block], axis=block)
    return _from_tensor(difference, expansion.scale)


def apply_functional(expansion: MultilinearExpansion, w: Sequence) -> MultilinearExpansion:
    """Compose with a linear functional on the output space (output_dim 1)."""
    weights = parse_rational_vector(w, "w")
    if len(weights) != expansion.output_dim:
        raise DomainError(
            f"functional must have {expansion.output_dim} components, got {len(weights)}"
        )
    values = expansion.tensor @ np.array(weights, dtype=object)[:, None]
    return _from_tensor(values, expansion.scale)


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
    parse = _TextMemo()  # this file's texts only
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
        table[key] = parse_rational_vector(out, f"entry {pos}", parse)
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
            vec = parse_rational_vector(item["output"], f"output_labels[{pos}]", parse)
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
    with open(path, "r", encoding="utf-8-sig") as handle:
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
        table[idx] = (bit,)
    return Gate(arities=(2,) * inputs, output_dim=1, table=table)
