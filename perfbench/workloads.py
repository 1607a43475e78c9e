"""Seeded inputs for the signelim benchmark.

A workload is a fixed list of slots. A slot is one kind of operation on one
kind of input: a CLI subcommand, gate arities, output dimension and table
shape. Every slot has VARIANTS concrete inputs, each generated from a string
seed that names the workload, slot and variant, so the input files are the
same on every machine and commit. The expected result of every variant is
recorded once, at the commit that defined the benchmark, in expected.json.

A full run times variants 0 to `variants - 1` of every slot once each, one
pass per variant; variant `variants` is the traced pass's input and variant
`variants + 1` the warm-up's. The `--seed` of a run sets the order: which
variant each pass takes per slot, and the slot order within a pass. Every
full run therefore times the same ops, whatever the seed or the program's
speed, so a change is timed on the same inputs as its parent.

This module imports nothing from signelim: inputs must not depend on the
code under test, so gate tables and experiment records are computed here
with exact fractions.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path
from typing import Optional

#: Concrete inputs per slot with a recorded expected result.
VARIANTS = 16

# Entries of random tables and per-block vectors of additive tables.
_THIRDS = tuple(Fraction(k, 3) for k in range(4))


@dataclass(frozen=True)
class Slot:
    """One kind of operation; `table` is random, additive or perturbed."""

    name: str
    command: str  # "analyze", "certify" or "bound"
    arities: tuple[int, ...]
    output_dim: int
    table: str
    perturbed_entries: int = 0
    # data bound only: blocks the gate output depends on, the grid
    # denominator of every block, and the collision tolerance
    relevant: tuple[int, ...] = ()
    grid: tuple[int, ...] = ()
    eps: str = "0"
    records: int = 0


@dataclass(frozen=True)
class Workload:
    name: str
    slots: tuple[Slot, ...]
    smoke: tuple[str, ...]  # cheap slots for the reduced-size test run
    # Passes of a full run, one variant each; sized so that they fill
    # BENCHMARK.json's run_seconds at `pass_seconds` each.
    variants: int
    # Cost of one pass at the commit that defined the benchmark (2-core
    # x86-64 host). It turns --seconds into a pass count without timing the
    # program, so a faster program runs the same passes as its parent.
    pass_seconds: float

    @property
    def traced_variant(self) -> int:
        return self.variants

    @property
    def warm_up_variant(self) -> int:
        return self.variants + 1

    def passes(self, seconds: float) -> int:
        """Passes for a run of `seconds`: at least one, at most `variants`."""
        return max(1, min(self.variants, round(seconds / self.pass_seconds)))


# analyze_deep: reduced dimension N = 5-6 with output dim 1-2. Random tables
# give all-`u` total signs and an empty lower set, so the score eliminates
# the whole (3**N - 1) / 2 complement against the enumeration table: this is
# the elimination kernel's workload. Additive and perturbed tables, a third
# of the mix, keep the determined-sign path and a large JSON document in it.
# Slot costs spread evenly from 0.1 to 2 s, so the median and tail ops fall
# inside runs of similar cost rather than in a gap between two.
# N = 7-8 are left out: one op costs 17-260 s with the scan kernel.
ANALYZE_DEEP = Workload(
    name="analyze_deep",
    slots=(
        Slot("b2x6-d2-random", "analyze", (2,) * 6, 2, "random"),
        Slot("b3x3-d2-random", "analyze", (3, 3, 3), 2, "random"),
        Slot("b3x3-d1-random", "analyze", (3, 3, 3), 1, "random"),
        Slot("b3322-d2-random", "analyze", (3, 3, 2, 2), 2, "random"),
        Slot("b4x2-d2-random", "analyze", (4, 4), 2, "random"),
        Slot("b2x5-d2-random", "analyze", (2,) * 5, 2, "random"),
        Slot("b3x3-d2-perturbed", "analyze", (3, 3, 3), 2, "perturbed", 2),
        Slot("b3322-d1-perturbed", "analyze", (3, 3, 2, 2), 1, "perturbed", 2),
        Slot("b4x2-d1-additive", "analyze", (4, 4), 1, "additive"),
        Slot("b2x5-d1-additive", "analyze", (2,) * 5, 1, "additive"),
    ),
    smoke=("b2x5-d1-additive",),
    variants=4,
    pass_seconds=6.0,
)

# analyze_wide: N = 3-4 with output dim 4-5, so the default family has 40-121
# functionals while the enumeration table has at most 40 rows. Kernel work is
# negligible (the bypass case for kernel changes); the time goes to total
# signs, the counting cross-check and the JSON document. Most tables are
# additive or perturbed additive, because a certificate needs determined
# signs; random tables feed the counting cross-check. The greedy certificate
# search calls the kernel once per functional at every certified base point
# (about 12% of such an op), so random tables, where the kernel takes 2-4%,
# are close to half the mix to keep kernel time well under a tenth.
# Certify slots use additive gates drawn so that base point 0 admits a
# certificate, so every certify op returns one after sweeping all base points.
ANALYZE_WIDE = Workload(
    name="analyze_wide",
    slots=(
        Slot("b2x3-d5-random", "analyze", (2, 2, 2), 5, "random"),
        Slot("b2x3-d4-random", "analyze", (2, 2, 2), 4, "random"),
        Slot("b3x2-d4-random", "analyze", (3, 3), 4, "random"),
        Slot("b322-d4-random", "analyze", (3, 2, 2), 4, "random"),
        Slot("b322-d5-random", "analyze", (3, 2, 2), 5, "random"),
        Slot("b2x4-d5-random", "analyze", (2, 2, 2, 2), 5, "random"),
        Slot("b2x3-d5-additive", "analyze", (2, 2, 2), 5, "additive"),
        Slot("b3x2-d5-perturbed", "analyze", (3, 3), 5, "perturbed", 1),
        Slot("b2x4-d4-additive", "analyze", (2, 2, 2, 2), 4, "additive"),
        Slot("b2x4-d4-perturbed", "analyze", (2, 2, 2, 2), 4, "perturbed", 2),
        Slot("b2x3-d5-certify", "certify", (2, 2, 2), 5, "additive"),
        Slot("b2x4-d4-certify", "certify", (2, 2, 2, 2), 4, "additive"),
        Slot("b322-d4-certify", "certify", (3, 2, 2), 4, "additive"),
    ),
    smoke=("b3x2-d4-random", "b322-d4-certify"),
    variants=6,
    pass_seconds=4.0,
)

# data_bound: N = 4-6 with 300 records, each the exact gate value at an
# interior grid point. The gate output depends only on the `relevant` blocks
# and separates their grid points, so records collide exactly when they agree
# there. Records spread evenly over the relevant grid, which fixes the number
# of collision pairs (about R**2 / 2 over the relevant grid size) and keeps op
# cost close across variants. The time goes to the
# O(R**2) pair scan and to canonicalizing pair differences at every base
# point; the kernel sees a small, varied eliminator set (the scan side of a
# scan/transform dispatch). Two slots use eps > 0, the tolerance path.
DATA_BOUND = Workload(
    name="data_bound",
    slots=(
        Slot("b2x4-rel2", "bound", (2,) * 4, 2, "random",
             relevant=(0, 1), grid=(6, 6, 9, 9), records=300),
        Slot("b3x2-rel1", "bound", (3, 3), 2, "random",
             relevant=(0,), grid=(7, 9), records=300),
        Slot("b322-rel2", "bound", (3, 2, 2), 3, "additive",
             relevant=(0, 1), grid=(5, 5, 9), records=300),
        Slot("b2x5-rel3", "bound", (2,) * 5, 2, "random",
             relevant=(0, 2, 4), grid=(5, 9, 5, 9, 5), records=300),
        Slot("b332-rel2", "bound", (3, 3, 2), 2, "random",
             relevant=(0, 2), grid=(6, 9, 5), records=300),
        Slot("b2x6-rel3", "bound", (2,) * 6, 2, "random",
             relevant=(1, 3, 5), grid=(9, 6, 9, 6, 9, 6), records=300),
        Slot("b333-rel2", "bound", (3, 3, 3), 2, "random",
             relevant=(0, 1), grid=(6, 5, 9), records=300),
        Slot("b2x4-rel2-eps", "bound", (2,) * 4, 2, "random",
             relevant=(0, 1), grid=(6, 6, 9, 9), eps="1/1000", records=300),
        Slot("b43-rel1-eps", "bound", (4, 3), 2, "random",
             relevant=(1,), grid=(9, 8), eps="1/1000", records=300),
    ),
    smoke=("b3x2-rel1",),
    variants=4,
    pass_seconds=6.0,
)

WORKLOADS = {w.name: w for w in (ANALYZE_DEEP, ANALYZE_WIDE, DATA_BOUND)}


@dataclass(frozen=True)
class Op:
    """One CLI call of a run; files are written before it is timed."""

    slot: Slot
    variant: int
    argv: tuple[str, ...]
    gate_path: Path


def schedule(workload: Workload, seed: int, passes: int, slots=None):
    """The passes of a run: lists of (slot, variant), seeded.

    Each slot takes its variants in a seeded order, one per pass; the slot
    order within a pass is shuffled.
    """
    rng = random.Random(seed)
    chosen = list(slots if slots is not None else workload.slots)
    orders = {s.name: rng.sample(range(workload.variants), workload.variants) for s in chosen}
    out = []
    for p in range(passes):
        items = [(s, orders[s.name][p % workload.variants]) for s in chosen]
        rng.shuffle(items)
        out.append(items)
    return out


def traced_pass(workload: Workload, seed: int):
    """The traced pass: every slot once on its traced variant, seeded order."""
    items = [(s, workload.traced_variant) for s in workload.slots]
    random.Random(seed).shuffle(items)
    return items


def _indices(arities):
    return product(*(range(a) for a in arities))


def _random_table(rng, arities, dim):
    return {idx: tuple(rng.choice(_THIRDS) for _ in range(dim)) for idx in _indices(arities)}


def _block_vectors(rng, arities, dim):
    return [[tuple(rng.choice(_THIRDS) for _ in range(dim)) for _ in range(a)] for a in arities]


def _additive_table(vectors, arities, dim):
    return {
        idx: tuple(sum((vectors[i][j][c] for i, j in enumerate(idx)), Fraction(0)) for c in range(dim))
        for idx in _indices(arities)
    }


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def _certifies_at_origin(vectors, dim) -> bool:
    """Whether the default functionals eliminate every sign vector at z = 0.

    For an additive gate the reduced partial along (block i, coord j) is the
    constant v_i[j] - v_i[0], so total signs at base point 0 are the signs of
    w . (v_i[j] - v_i[0]), all determined. t eliminates s when some index of
    supp(s) has t nonzero and all products t_k * s_k there agree.
    """
    diffs = [
        tuple(a - b for a, b in zip(block[j], block[0]))
        for block in vectors
        for j in range(1, len(block))
    ]
    totals = {
        tuple(_sign(sum(wc * xc for wc, xc in zip(w, x))) for x in diffs)
        for w in product((-1, 0, 1), repeat=dim)
    }
    for s in product((-1, 0, 1), repeat=len(diffs)):
        if not any(s):
            continue
        if not any(
            len({t_k * s_k for t_k, s_k in zip(t, s) if t_k and s_k}) == 1
            for t in totals
        ):
            return False
    return True


def gate_table(slot: Slot, rng: random.Random) -> dict:
    """Table of the slot's gate: index tuple -> tuple of Fractions."""
    if slot.command == "bound":
        return _data_gate_table(slot, rng)
    if slot.table == "random":
        return _random_table(rng, slot.arities, slot.output_dim)
    while True:
        vectors = _block_vectors(rng, slot.arities, slot.output_dim)
        if slot.command != "certify" or _certifies_at_origin(vectors, slot.output_dim):
            break
    table = _additive_table(vectors, slot.arities, slot.output_dim)
    if slot.table == "perturbed":
        for idx in rng.sample(sorted(table), slot.perturbed_entries):
            c = rng.randrange(slot.output_dim)
            bump = Fraction(rng.choice((-1, 1)), 3)
            table[idx] = tuple(v + bump if k == c else v for k, v in enumerate(table[idx]))
    return table


def _grid(arity: int, m: int) -> list[tuple[Fraction, ...]]:
    """Interior grid points of one simplex block: compositions of m, over m."""
    return [
        tuple(Fraction(b - a, m) for a, b in zip((0,) + cuts, cuts + (m,)))
        for cuts in combinations(range(1, m), arity - 1)
    ]


def _relevant_grid(slot: Slot) -> list:
    return list(product(*(_grid(slot.arities[i], slot.grid[i]) for i in slot.relevant)))


def _data_gate_table(slot: Slot, rng: random.Random) -> dict:
    # The relevant part is redrawn until its outputs on the relevant grid
    # differ pairwise by more than eps, so every collision comes from the
    # ignored blocks and the record allocation fixes how many there are.
    twelfths = tuple(Fraction(k, 12) for k in range(13))
    eps = Fraction(slot.eps)
    dim = slot.output_dim
    rel_arities = [slot.arities[i] for i in slot.relevant]
    points = _relevant_grid(slot)
    while True:
        if slot.table == "additive":
            blocks = [[tuple(rng.choice(twelfths) for _ in range(dim)) for _ in range(a)] for a in rel_arities]
            rel = _additive_table(blocks, rel_arities, dim)
        else:
            rel = {idx: tuple(rng.choice(twelfths) for _ in range(dim)) for idx in _indices(rel_arities)}
        outs = [_evaluate(rel, rel_arities, dim, p) for p in points]
        if all(max(abs(a - b) for a, b in zip(x, y)) > eps for x, y in combinations(outs, 2)):
            break
    return {idx: rel[tuple(idx[i] for i in slot.relevant)] for idx in _indices(slot.arities)}


def _grid_point(rng, arity, m):
    """Uniform composition of m into `arity` positive parts, over m."""
    cuts = sorted(rng.sample(range(1, m), arity - 1))
    return tuple(Fraction(b - a, m) for a, b in zip([0] + cuts, cuts + [m]))


def _evaluate(table, arities, dim, point):
    """Exact multilinear extension value at a point of the simplex product."""
    total = [Fraction(0)] * dim
    for idx in _indices(arities):
        weight = Fraction(1)
        for block, j in zip(point, idx):
            weight *= block[j]
        for c in range(dim):
            total[c] += weight * table[idx][c]
    return total


def experiment_rows(slot: Slot, table: dict, rng: random.Random) -> list[list[str]]:
    """Header plus one row per record: grid-interior point, exact output.

    Records spread evenly over the relevant grid, in random order, with
    uniform random coordinates in the ignored blocks.
    """
    header = [f"b{i + 1}_{j}" for i, a in enumerate(slot.arities) for j in range(a)]
    header += [f"y{c + 1}" for c in range(slot.output_dim)]
    rel_arities = [slot.arities[i] for i in slot.relevant]
    rel_table = {
        tuple(idx[i] for i in slot.relevant): out for idx, out in table.items()
    }
    points = _relevant_grid(slot)
    counts = [slot.records // len(points)] * len(points)
    for k in rng.sample(range(len(points)), slot.records % len(points)):
        counts[k] += 1
    order = [k for k, c in enumerate(counts) for _ in range(c)]
    rng.shuffle(order)
    rows = [header]
    for k in order:
        relevant = dict(zip(slot.relevant, points[k]))
        point = [
            relevant[i] if i in relevant else _grid_point(rng, a, m)
            for i, (a, m) in enumerate(zip(slot.arities, slot.grid))
        ]
        # Ignored blocks carry weights summing to 1, so they drop out.
        out = _evaluate(rel_table, rel_arities, slot.output_dim, points[k])
        rows.append([str(c) for block in point for c in block] + [str(v) for v in out])
    return rows


def gate_json(slot: Slot, table: dict) -> str:
    entries = [
        {"index": list(idx), "output": [str(v) for v in table[idx]]}
        for idx in sorted(table)
    ]
    doc = {"arities": list(slot.arities), "output_dim": slot.output_dim, "entries": entries}
    return json.dumps(doc, indent=1) + "\n"


def write_inputs(workload: Workload, slot: Slot, variant: int, directory: Path) -> Op:
    """Write the variant's input files into `directory` and return its op."""
    rng = random.Random(f"{workload.name}/{slot.name}/{variant}")
    table = gate_table(slot, rng)
    stem = directory / f"{slot.name}-{variant}"
    gate_path = stem.with_suffix(".gate.json")
    gate_path.write_text(gate_json(slot, table), encoding="utf-8")
    if slot.command == "analyze":
        argv = ("gate", "analyze", str(gate_path))
    elif slot.command == "certify":
        argv = ("gate", "certify", str(gate_path))
    else:
        csv_path = stem.with_suffix(".records.csv")
        rows = experiment_rows(slot, table, rng)
        csv_path.write_text("".join(",".join(r) + "\n" for r in rows), encoding="utf-8")
        argv = ("data", "bound", str(gate_path), str(csv_path), "--eps", slot.eps)
    return Op(slot=slot, variant=variant, argv=argv, gate_path=gate_path)


def slot_named(workload: Workload, name: str) -> Optional[Slot]:
    return next((s for s in workload.slots if s.name == name), None)
