"""Finite multi-valued gates and their multilinear extensions.

A gate maps k discrete inputs (input i ranging over arity_i >= 2 truth
values) to vectors in Q**output_dim. Its multilinear extension lives on the
product of probability simplices, one per input block: the value at mixed
inputs is the multilinear interpolation of the table, so the coefficient
tensor in the homogeneous monomial basis is the table itself. So a gate is
its expansion, checked once, and its dense integer tensor is the one stored
form, which every form function reads; the dict of Fractions is a view built
on access. All arithmetic is exact.

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
from functools import cached_property
from itertools import chain, compress, islice, product, repeat
from numbers import Rational
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

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
        raise ValidationError(f"floats are inexact; write {value!r} as a string like '1/3' or '0.5'")
    raise ValidationError(f"cannot parse rational from {value!r}")


def _cleared(rows: Sequence[Sequence[Fraction]]) -> tuple[list[list[int]], int]:
    """Rows times the lcm of all their denominators, as Python ints, and the lcm.

    This is the one scaling rule for exact values. The positive scale keeps
    every sign and every comparison, and a row sums to 1 exactly when its
    ints sum to the lcm.
    """
    scale = math.lcm(*(v.denominator for row in rows for v in row))
    return [[v.numerator * (scale // v.denominator) for v in row] for row in rows], scale


def parse_rational_vector(values: Sequence, where: str) -> Vector:
    """Parse every entry with parse_rational; errors name `where`."""
    try:
        return tuple(map(parse_rational, values))
    except ValidationError as exc:
        raise ValidationError(f"{where}: {exc}")


class _ValueIds(dict):
    """Value -> value id, for one input: each distinct text is parsed once, by
    parse_rational, and equal values share one id (1/2, 2/4 and 0.5 one);
    ``values`` maps each distinct value to its id, in first-seen order. Only
    texts are kept: any other value is parsed at each lookup, so a JSON true
    is rejected, not taken for the 1 it equals as a dict key.
    """

    def __init__(self) -> None:
        super().__init__()
        self.values: dict[Fraction, int] = {}

    def __missing__(self, value) -> int:
        code = self.values.setdefault(parse_rational(value), len(self.values))
        if type(value) is str:
            self[value] = code
        return code

    def row(self, values: Sequence) -> list[int]:
        """The ids of a sequence of values; the first inexact one raises."""
        try:
            return list(map(self.__getitem__, values))
        except TypeError:  # an unhashable value: parse_rational names it
            list(map(parse_rational, values))
            raise


def _scaled(values: Sequence[Fraction], ids: np.ndarray, *extra: Fraction):
    """The values under ``ids``, scaled by _cleared together with ``extra``,
    gathered into an object matrix of Python ints, and the scale."""
    present = np.flatnonzero(np.bincount(ids.ravel(), minlength=len(values))).tolist()
    (used, _), scale = _cleared([[values[k] for k in present], extra])
    ints = np.zeros(len(values), dtype=object)
    ints[present] = used
    return ints[ids], scale


def rational_string(value) -> str:
    """Canonical string form of a rational ("p/q", integers without /q)."""
    return str(value if type(value) is Fraction else Fraction(value))


class _Entries(NamedTuple):
    """A table read into value ids: ``table`` maps each index tuple, in entry
    order, to its output's ids into ``values``, the distinct values by id;
    ``fault`` is the index whose output did not parse, and its error."""

    table: dict[Index, list[int]]
    values: list[Fraction]
    fault: Optional[tuple[Index, ValidationError]] = None


def _read(table: Mapping) -> _Entries:
    """A library table read into value ids, up to its first inexact value."""
    ids, rows = _ValueIds(), {}
    for idx, vec in table.items():
        key = tuple(idx)
        try:
            rows[key] = ids.row(vec)
        except ValidationError as exc:
            return _Entries(rows, list(ids.values), (key, ValidationError(f"entry {key!r}: {exc}")))
    return _Entries(rows, list(ids.values))


def _checked(arities: tuple[int, ...], output_dim: int, entries: _Entries) -> tuple[np.ndarray, int]:
    """A table, checked: its tensor, shaped arities + (output_dim,), and scale.

    Every arity is an int >= 2 and output_dim an int >= 1. Then the first
    faulty entry raises, in entry order: an index that is not a tuple of
    ints in range, an output that is not output_dim values, or the entries'
    fault. Then no index may be missing: the table size minus the entries,
    so no index set of a huge gate is built. One _scaled gather builds the
    tensor from the ids.
    """
    for i, a in enumerate(arities):
        if not isinstance(a, int) or a < 2:
            detail = "single-valued inputs carry no information"
            raise ValidationError(f"arity of block {i} must be an int >= 2, got {a!r} ({detail})")
    # type(), not isinstance: a JSON true is a bool, which subclasses int
    if type(output_dim) is not int or output_dim < 1:
        raise ValidationError(f"output_dim must be an int >= 1, got {output_dim!r}")
    table, blocks = entries.table, len(arities)
    keys = list(table)
    if entries.fault is not None:
        keys.append(entries.fault[0])
    bad_index = np.fromiter(map(len, keys), np.intp, len(keys)) != blocks
    flat = list(chain.from_iterable(compress(keys, ~bad_index)))
    index = np.fromiter(flat, object, len(flat)).reshape(len(keys) - int(bad_index.sum()), blocks)
    # type(): True and 1.0 are in range(2), but would not round-trip as JSON
    if not set(map(type, flat)) <= {int}:
        index[np.fromiter(map(type, flat), object, len(flat)).reshape(index.shape) != int] = -1
    bad_index[~bad_index] = ((index < 0) | (index >= np.array(arities, dtype=object))).any(axis=1)
    widths = np.fromiter(map(len, table.values()), np.intp, len(table))
    bad = bad_index.copy()
    bad[: len(table)] |= widths != output_dim
    if bad.any():
        k = int(bad.argmax())
        if bad_index[k]:
            raise ValidationError(f"table index {keys[k]!r} out of range for arities {arities}")
        raise ValidationError(f"entry {keys[k]!r}: expected {output_dim} components, got {widths[k]}")
    if entries.fault is not None:
        raise entries.fault[1]
    size = math.prod(arities)
    if len(table) < size:
        # the first eight missing indices, in lexicographic order, one at a time
        shown = list(islice((key for key in product(*map(range, arities)) if key not in table), 8))
        raise ValidationError(f"table is missing {size - len(table)} entries, e.g. {shown}")
    ids = np.empty((size, output_dim), dtype=np.intp)
    rows = np.fromiter(chain.from_iterable(table.values()), np.intp, size * output_dim)
    ids[np.ravel_multi_index(index.astype(np.intp).T, arities)] = rows.reshape(size, output_dim)
    tensor, scale = _scaled(entries.values, ids)
    return tensor.reshape(arities + (output_dim,)), scale


def _table(values: np.ndarray, scale: int) -> dict[Index, Vector]:
    """values / scale as a dict by index, in lexicographic order, for values shaped like a tensor."""
    rows = values.reshape(-1, values.shape[-1]).tolist()
    cells = product(*map(range, values.shape[:-1]))
    return {idx: tuple(Fraction(v, scale) for v in r) for idx, r in zip(cells, rows)}


@dataclass(frozen=True, init=False)
class MultilinearExpansion:
    """Coefficient tensor of a multilinear form on a product of simplices.

    coefficients maps each index tuple (one truth value per remaining block)
    to a rational output vector; an expansion over zero blocks has the single
    key () and represents a constant. They are checked once, by _checked,
    into ``tensor``, the one stored form every function reads: the
    coefficients times ``scale``, the lcm of their reduced denominators, as a
    read-only object array of Python ints shaped arities + (output_dim,).
    Equality and hashing read the scale and the tensor's values, which are
    canonical; ``coefficients`` is a read-only dict built on first access.
    """

    arities: tuple[int, ...]
    output_dim: int
    tensor: np.ndarray = field(init=False, compare=False, repr=False)
    scale: int = field(init=False, repr=False)
    _values: tuple[int, ...] = field(init=False, repr=False)

    def __init__(self, arities: Sequence[int], output_dim: int, coefficients: Mapping[Index, Vector]) -> None:
        entries = coefficients if type(coefficients) is _Entries else _read(coefficients)
        tensor, scale = _checked(tuple(arities), output_dim, entries)
        tensor.setflags(write=False)
        self.__dict__.update(arities=tensor.shape[:-1], output_dim=tensor.shape[-1], tensor=tensor, scale=scale,
                             _values=tuple(tensor.ravel().tolist()))

    def __getstate__(self) -> dict:
        # the dict view is built again on access, and a mappingproxy does not pickle
        return {key: value for key, value in vars(self).items() if key != "coefficients"}

    @cached_property
    def coefficients(self) -> Mapping[Index, Vector]:
        return MappingProxyType(_table(self.tensor, self.scale))

    @property
    def block_count(self) -> int:
        return len(self.arities)


@dataclass(frozen=True, init=False)
class Gate:
    """A total table from discrete inputs to rational output vectors: the
    coefficients of its expansion, which checks and holds it, so ``table``
    is the expansion's coefficients. output_labels may also be (output,
    label) pairs, as a file lists them; an output has at most one label."""

    arities: tuple[int, ...]
    output_dim: int
    input_labels: Optional[tuple[tuple[str, ...], ...]]
    output_labels: Optional[Mapping[Vector, str]] = field(compare=False)
    _expansion: MultilinearExpansion = field(init=False, repr=False)

    def __init__(self, arities: Sequence[int], output_dim: int, table: Mapping[Index, Vector],
                 input_labels: Optional[Sequence[Sequence[str]]] = None, output_labels=None) -> None:
        if not tuple(arities):
            raise ValidationError("a gate needs at least one input block")
        expansion = MultilinearExpansion(arities, output_dim, table)
        arities, output_dim = expansion.arities, expansion.output_dim
        if input_labels is not None:
            input_labels = tuple(map(tuple, input_labels))
            if len(input_labels) != len(arities):
                raise ValidationError("input_labels must name every input block")
            for i, (block, arity) in enumerate(zip(input_labels, arities)):
                if len(block) != arity:
                    raise ValidationError(f"input_labels[{i}] must have {arity} names, got {len(block)}")
        if output_labels is not None:
            pairs = output_labels.items() if isinstance(output_labels, Mapping) else output_labels
            output_labels = {}
            for vec, name in pairs:
                vec = parse_rational_vector(vec, f"output label {name!r}")
                if len(vec) != output_dim:
                    got = len(vec)
                    raise ValidationError(f"output label {name!r}: expected {output_dim} components, got {got}")
                if vec in output_labels:
                    other = output_labels[vec]
                    raise ValidationError(f"output label {name!r}: its output is labelled {other!r} already")
                output_labels[vec] = str(name)
        self.__dict__.update(arities=arities, output_dim=output_dim, input_labels=input_labels,
                             output_labels=output_labels, _expansion=expansion)

    @property
    def table(self) -> Mapping[Index, Vector]:
        return self._expansion.coefficients

    @property
    def block_count(self) -> int:
        return len(self.arities)


def expand(gate: Gate) -> MultilinearExpansion:
    """Multilinear extension of a gate: the expansion the gate was checked by."""
    return gate._expansion


def evaluate(expansion: MultilinearExpansion, point: Sequence[Sequence]) -> Vector:
    """Exact value of the expansion at a point of the simplex product."""
    if len(point) != expansion.block_count:
        raise DomainError(f"point must have {expansion.block_count} blocks, got {len(point)}")
    values = expansion.tensor
    for i, block in enumerate(point):
        coords = parse_rational_vector(block, f"point block {i}")
        if len(coords) != expansion.arities[i]:
            raise DomainError(f"block {i} must have {expansion.arities[i]} coordinates, got {len(coords)}")
        if any(c < 0 for c in coords):
            raise DomainError(f"block {i} has a negative coordinate")
        if sum(coords) != 1:
            raise DomainError(f"block {i} coordinates must sum to 1")
        values = np.array(coords, dtype=object) @ values.reshape(len(coords), -1)
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
            raise DomainError(f"base point entry {j!r} out of range for block {i} (arity {arity})")
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
        reason = "reduced coordinates exclude it"
        raise DomainError(f"coordinate {coord} is the base coordinate of block {block}; {reason}")
    t = expansion.tensor
    difference = np.take(t, coord, axis=block) - np.take(t, base[block], axis=block)
    return MultilinearExpansion(difference.shape[:-1], difference.shape[-1], _table(difference, expansion.scale))


def apply_functional(expansion: MultilinearExpansion, w: Sequence) -> MultilinearExpansion:
    """Compose with a linear functional on the output space (output_dim 1)."""
    weights = parse_rational_vector(w, "w")
    if len(weights) != expansion.output_dim:
        raise DomainError(f"functional must have {expansion.output_dim} components, got {len(weights)}")
    (ints,), scale = _cleared([weights])
    values = expansion.tensor @ np.array(ints, dtype=object)[:, None]
    return MultilinearExpansion(values.shape[:-1], values.shape[-1], _table(values, expansion.scale * scale))


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
    output_dim, entries = obj["output_dim"], obj["entries"]
    if not isinstance(entries, list):
        raise ValidationError("entries must be a list")
    ids, table = _ValueIds(), {}  # this file's texts only
    for pos, entry in enumerate(entries):
        if not isinstance(entry, dict) or "index" not in entry or "output" not in entry:
            raise ValidationError(f"entry {pos} must be an object with index and output")
        idx = entry["index"]
        ints = isinstance(idx, list) and all(map(isinstance, idx, repeat(int)))
        if not ints or any(map(isinstance, idx, repeat(bool))):
            raise ValidationError(f"entry {pos}: index must be a list of ints")
        key = tuple(idx)
        if key in table:
            raise ValidationError(f"entry {pos}: duplicate index {key!r}")
        out = entry["output"]
        if not isinstance(out, list):
            raise ValidationError(f"entry {pos}: output must be a list")
        try:
            table[key] = ids.row(out)
        except ValidationError as exc:
            raise ValidationError(f"entry {pos}: {exc}")
    input_labels = obj.get("input_labels")
    if input_labels is not None and not (
        isinstance(input_labels, list)
        and all(isinstance(block, list) and all(isinstance(s, str) for s in block) for block in input_labels)
    ):
        raise ValidationError("input_labels must be a list of lists of strings")
    output_labels = raw = obj.get("output_labels")
    if raw is not None:
        if not isinstance(raw, list):
            raise ValidationError("output_labels must be a list of objects")
        output_labels = []  # (output, label) pairs, so a repeated output reaches Gate
        for pos, item in enumerate(raw):
            if not isinstance(item, dict) or "output" not in item or "label" not in item:
                raise ValidationError(f"output_labels[{pos}] must be an object with output and label")
            if not isinstance(item["output"], list):
                raise ValidationError(f"output_labels[{pos}]: output must be a list")
            if not isinstance(item["label"], str):
                raise ValidationError(f"output_labels[{pos}]: label must be a string")
            vec = parse_rational_vector(item["output"], f"output_labels[{pos}]")
            output_labels.append((vec, item["label"]))
    return Gate(tuple(arities), output_dim, _Entries(table, list(ids.values)), input_labels, output_labels)


def gate_to_json(gate: Gate) -> dict:
    obj: dict = {
        "arities": list(gate.arities),
        "output_dim": gate.output_dim,
        # the table lists its indices in lexicographic order
        "entries": [{"index": list(i), "output": list(map(rational_string, v))} for i, v in gate.table.items()],
    }
    if gate.input_labels is not None:
        obj["input_labels"] = [list(block) for block in gate.input_labels]
    if gate.output_labels is not None:
        labels = sorted(gate.output_labels.items())
        obj["output_labels"] = [{"output": list(map(rational_string, v)), "label": name} for v, name in labels]
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
    sum(j_i * 2**(k-1-i)). inputs and every output are ints, by the
    package's rule ``type(x) is int``.
    """
    if type(inputs) is not int or inputs < 1:
        raise DomainError("inputs must be >= 1")
    if len(outputs) != 2**inputs:
        raise DomainError(f"need {2 ** inputs} outputs, got {len(outputs)}")
    for bit in outputs:
        if type(bit) is not int or bit not in (0, 1):
            raise DomainError(f"outputs must be 0/1, got {bit!r}")
    table = {idx: (bit,) for idx, bit in zip(product(range(2), repeat=inputs), outputs)}
    return Gate(arities=(2,) * inputs, output_dim=1, table=table)
