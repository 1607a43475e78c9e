import math
import random
import re
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from itertools import chain, combinations, product

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from signelim import (
    Certificate,
    DomainError,
    ExperimentRecord,
    Gate,
    MultilinearExpansion,
    ProjectionFamily,
    ScorePair,
    UNDETERMINED,
    ValidationError,
    analyze_gate,
    apply_functional,
    base_points,
    boolean_gate,
    boolean_sensitivity,
    canonical_sign_vectors,
    data_upper_bound,
    default_family,
    evaluate,
    expand,
    experiment_header,
    format_log3,
    log3_value,
    parse_experiment_csv,
    reduced_coordinates,
    reduced_dimension,
    reduced_partial,
    reversibility_certificate,
    sensitivity_lower_set,
    sensitivity_score,
    sign_over_region,
    total_sign,
    validate_base_point,
    verify_certificate,
    witness_signs,
)
from signelim import backend, sensitivity
from signelim.backend import sign_vector_table
from signelim.signvec import eliminated_mask, jointly_eliminated_count, table, vector_count
from signelim.errors import ResourceLimitError

import oracles
from conftest import closed_form_union, fail_if_called, random_total_sign
from test_metamorphic import gates as metamorphic_gates

F = Fraction

AND = boolean_gate([0, 0, 0, 1], 2)
XOR = boolean_gate([0, 1, 1, 0], 2)
CONST = boolean_gate([0, 0, 0, 0], 2)
FIRST = boolean_gate([0, 0, 1, 1], 2)  # ignores its second input

# Certified at base points (0, 1) and (1, 0) but not at the origin.
OFF_ORIGIN = Gate(
    arities=(2, 2),
    output_dim=2,
    table={
        (0, 0): (F(1, 3), F(1)),
        (0, 1): (F(1, 3), F(0)),
        (1, 0): (F(1), F(1, 3)),
        (1, 1): (F(2, 3), F(0)),
    },
)


def seeded_gate(seed, arities, output_dim, kind, perturbed=0):
    """A random table, or an additive one (a sum of per-block vectors) with
    ``perturbed`` entries moved by +-1/3 in one output."""
    rng = random.Random(seed)
    thirds = [F(k, 3) for k in range(4)]
    cells = list(product(*(range(a) for a in arities)))
    if kind == "random":
        table = {
            idx: tuple(rng.choice(thirds) for _ in range(output_dim))
            for idx in cells
        }
    else:
        vectors = [
            [tuple(rng.choice(thirds) for _ in range(output_dim)) for _ in range(a)]
            for a in arities
        ]
        table = {
            idx: tuple(
                sum(vectors[i][j][c] for i, j in enumerate(idx))
                for c in range(output_dim)
            )
            for idx in cells
        }
        for idx in rng.sample(cells, perturbed):
            c, bump = rng.randrange(output_dim), F(rng.choice((-1, 1)), 3)
            table[idx] = tuple(v + bump if k == c else v for k, v in enumerate(table[idx]))
    return Gate(arities=arities, output_dim=output_dim, table=table)


SWEEP_GATES = [
    seeded_gate(1, (2, 3), 1, "random"),
    seeded_gate(2, (3, 2), 2, "additive"),
    seeded_gate(3, (2, 2, 2), 3, "additive"),
    seeded_gate(4, (3, 3), 2, "random"),
    seeded_gate(5, (2, 2, 2), 2, "random"),
    seeded_gate(6, (2, 3), 3, "additive"),
    AND,
    XOR,
    CONST,
    OFF_ORIGIN,
]


def seeded_records(seed, gate, count=12):
    """Interior records with outputs in multiples of 1/4, so some collide."""
    rng = random.Random(seed)
    records = []
    for _ in range(count):
        point = []
        for a in gate.arities:
            weights = [rng.randint(1, 4) for _ in range(a)]
            point.append(tuple(F(k, sum(weights)) for k in weights))
        output = tuple(F(rng.randint(0, 4), 4) for _ in range(gate.output_dim))
        records.append(ExperimentRecord(point=tuple(point), output=output))
    return records


# Few points, so identical points recur; outputs with mixed denominators and
# signs, many of them exactly 1/12, 1/6, 1/4 or 1/2 apart.
PAIR_POINTS = [
    ((F(1, 2), F(1, 2)), (F(1, 4), F(3, 4))),
    ((F(1, 3), F(2, 3)), (F(1, 4), F(3, 4))),
    ((F(1, 2), F(1, 2)), (F(2, 3), F(1, 3))),
]
PAIR_OUTPUTS = [F(-1, 2), F(-1, 3), F(-1, 4), F(0), F(1, 6), F(1, 4), F(1, 3), F(1, 2)]


@st.composite
def record_sets(draw):
    dim = draw(st.integers(1, 3))
    output = st.tuples(*[st.sampled_from(PAIR_OUTPUTS)] * dim)
    record = st.builds(ExperimentRecord, st.sampled_from(PAIR_POINTS), output)
    return draw(st.lists(record, max_size=12))


# The four mixing-gate projections that jointly certify reversibility,
# with their frozen total signs at base point (0, 0, 0).
COLOR_WITNESSES = [
    ((0, 1, -1, -1), (1, -1, -1)),
    ((0, 1, 1, 1), (1, 1, 1)),
    ((0, 1, -1, 1), (1, -1, 1)),
    ((0, 1, 1, -1), (1, 1, -1)),
]


def region_points(form, base, rng, samples=200):
    """Exact rational points of the region anchored at `base`.

    The region fixes nothing: each block ranges over its whole simplex, the
    anchor only names which vertex carries the constant coefficient. Points
    returned include every vertex, the barycenter, and random rational
    interior points.
    """
    points = []
    for idx in product(*(range(a) for a in form.arities)):
        points.append(
            [
                tuple(F(1) if j == idx[i] else F(0) for j in range(a))
                for i, a in enumerate(form.arities)
            ]
        )
    points.append([tuple(F(1, a) for _ in range(a)) for a in form.arities])
    for _ in range(samples):
        point = []
        for a in form.arities:
            cuts = sorted(rng.randint(0, 64) for _ in range(a - 1))
            weights = []
            prev = 0
            for c in cuts:
                weights.append(F(c - prev, 64))
                prev = c
            weights.append(F(64 - prev, 64))
            point.append(tuple(weights))
        points.append(point)
    return points


def oracle_partial(gate, w, z, block, coord):
    """The reduced partial of w composed with the gate along (block, coord)
    at base point z, by oracles.project and oracles.reduced_partial, as a
    scalar expansion over the other blocks (original order)."""
    scalar = oracles.project(gate.table, w)
    form = oracles.reduced_partial(gate.arities, scalar, z, block, coord)
    rest = gate.arities[:block] + gate.arities[block + 1 :]
    return MultilinearExpansion(rest, 1, {idx: (v,) for idx, v in form.items()})


def assert_verdict_holds(verdict, values):
    """A region sign against exact values of its form on its region."""
    if verdict == 0:
        assert all(v == 0 for v in values)
    elif verdict == 1:
        assert all(v >= 0 for v in values)
        assert any(v > 0 for v in values)
    elif verdict == -1:
        assert all(v <= 0 for v in values)
        assert any(v < 0 for v in values)


def assert_sound_by_sampling(gate, functionals, rng):
    """Every total_sign entry of every functional at every base point against
    exact values of its reduced partial, built by the oracles, at sampled
    points of its region."""
    expansion = expand(gate)
    for w in functionals:
        for z in base_points(expansion):
            signs = total_sign(expansion, z, w)
            for verdict, (block, j) in zip(signs, reduced_coordinates(gate.arities, z)):
                form = oracle_partial(gate, w, z, block, j)
                rest_base = z[:block] + z[block + 1 :]
                values = [
                    evaluate(form, p)[0]
                    for p in region_points(form, rest_base, rng, samples=8)
                ]
                assert_verdict_holds(verdict, values)


class TestSignOverRegion:
    def test_zero_form(self):
        form = reduced_partial(expand(CONST), (0, 0), 0, 1)
        assert sign_over_region(form, (0,)) == 0

    def test_strictly_one_signed_forms(self):
        or_gate = boolean_gate([0, 1, 1, 1], 2)
        form = reduced_partial(expand(or_gate), (0, 0), 0, 1)
        assert sign_over_region(form, (0,)) == 1
        form = reduced_partial(expand(AND), (1, 1), 0, 0)
        assert sign_over_region(form, (1,)) == -1

    def test_zero_anchor_blocks_a_strict_verdict(self):
        # The region contains its anchor vertex, where the form value equals
        # the anchor coefficient; a nonnegative form vanishing there is not
        # strictly positive over the region.
        or_gate = boolean_gate([0, 1, 1, 1], 2)
        form = reduced_partial(expand(or_gate), (0, 1), 0, 1)
        assert form.coefficients == {(0,): (F(1),), (1,): (F(0),)}
        assert sign_over_region(form, (1,)) == UNDETERMINED

    def test_mixed_forms_are_undetermined(self):
        form = reduced_partial(expand(XOR), (0, 0), 0, 1)
        assert sign_over_region(form, (0,)) == UNDETERMINED

    def test_zero_anchor_with_positive_coefficients_is_undetermined(self):
        form = reduced_partial(expand(AND), (0, 0), 0, 1)
        assert sign_over_region(form, (0,)) == UNDETERMINED

    def test_rejects_vector_valued_forms(self, color_gate):
        form = reduced_partial(expand(color_gate), (0, 0, 0), 0, 1)
        with pytest.raises(DomainError):
            sign_over_region(form, (0, 0))

    def test_sound_against_exact_sampling(self, color_gate, rng):
        expansion = expand(color_gate)
        for w, _ in COLOR_WITNESSES:
            scalar = apply_functional(expansion, w)
            for z in product(range(2), repeat=3):
                for block in range(3):
                    j = 1 - z[block]
                    form = reduced_partial(scalar, z, block, j)
                    rest_base = z[:block] + z[block + 1 :]
                    verdict = sign_over_region(form, rest_base)
                    values = [
                        evaluate(form, p)[0]
                        for p in region_points(form, rest_base, rng, samples=8)
                    ]
                    assert_verdict_holds(verdict, values)

    def test_positive_verdicts_are_strict_on_the_anchored_region(self, rng):
        # The region anchored at base point z is where every block gives its
        # base coordinate positive weight; a +1 verdict promises a strictly
        # positive form value everywhere on it.
        or_gate = boolean_gate([0, 1, 1, 1], 2)
        form = reduced_partial(expand(or_gate), (0, 0), 0, 1)
        assert sign_over_region(form, (0,)) == 1
        anchored = [
            p
            for p in region_points(form, (0,), rng, samples=200)
            if all(block[0] > 0 for block in p)
        ]
        assert anchored
        assert all(evaluate(form, p)[0] > 0 for p in anchored)


class TestTotalSign:
    def test_frozen_mixing_gate_values(self, color_gate):
        expansion = expand(color_gate)
        for w, expected in COLOR_WITNESSES:
            assert total_sign(expansion, (0, 0, 0), w) == expected

    def test_conjunction_values(self):
        expansion = expand(AND)
        assert total_sign(expansion, (1, 1), (1,)) == (-1, -1)
        assert total_sign(expansion, (0, 0), (1,)) == (
            UNDETERMINED,
            UNDETERMINED,
        )
        assert total_sign(expansion, (0, 1), (1,)) == (1, UNDETERMINED)

    def test_order_follows_reduced_coordinates(self):
        gate = boolean_gate([0] * 8, 3)
        expansion = expand(gate)
        assert reduced_coordinates(expansion.arities, (0, 1, 0)) == [
            (0, 1),
            (1, 0),
            (2, 1),
        ]
        assert len(total_sign(expansion, (0, 1, 0), (1,))) == 3

    @pytest.mark.parametrize(
        "z, message",
        [
            ((5, 0), "base point entry 5 out of range for block 0 (arity 2)"),
            ((True, 0), "base point entry True out of range for block 0 (arity 2)"),
            ((0,), "base point must have 2 entries, got 1"),
        ],
    )
    def test_reduced_coordinates_check_the_base_point(self, z, message):
        with pytest.raises(DomainError) as caught:
            reduced_coordinates((2, 2), z)
        assert str(caught.value) == message
        with pytest.raises(DomainError) as same:
            validate_base_point(expand(AND), z)
        assert str(same.value) == message

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.integers(2, 4), max_size=5).flatmap(
            lambda arities: st.tuples(
                st.just(arities), st.tuples(*(st.integers(0, a - 1) for a in arities))
            )
        )
    )
    def test_reduced_coordinates_leave_out_the_base_point(self, case):
        arities, z = case
        assert reduced_coordinates(arities, z) == [
            (i, j) for i, a in enumerate(arities) for j in range(a) if j != z[i]
        ]

    @pytest.mark.parametrize("arities", [(2.0,), (1,), (True,), (2, 0), (2, np.int64(2))])
    def test_reduced_coordinates_check_the_arities(self, arities):
        # a float arity once gave float coordinates, and arity 1 or True none
        i, bad = next((i, a) for i, a in enumerate(arities) if type(a) is not int or a < 2)
        message = f"arity of block {i} must be an int >= 2, got {bad!r}"
        with pytest.raises(DomainError) as caught:
            reduced_coordinates(arities, (0,) * len(arities))
        assert str(caught.value) == message

    def test_witness_signs_follow_family_order(self, color_gate):
        expansion = expand(color_gate)
        family = ProjectionFamily.from_vectors(
            [w for w, _ in COLOR_WITNESSES], 4
        )
        signs = witness_signs(expansion, (0, 0, 0), family)
        assert [ts for _, ts in signs] == [ts for _, ts in COLOR_WITNESSES]

    @pytest.mark.parametrize(
        "call",
        [
            lambda e, f: witness_signs(e, (0, 0, 0), f),
            lambda e, f: sensitivity_lower_set(e, (0, 0, 0), f),
            analyze_gate,
            reversibility_certificate,
        ],
        ids=["witness_signs", "sensitivity_lower_set", "analyze_gate", "reversibility_certificate"],
    )
    def test_a_wrong_dimension_family_raises_the_total_signs_error(self, color_gate, call):
        family = ProjectionFamily.from_vectors([(1,)], 1)
        with pytest.raises(DomainError, match=r"^functional must have 4 components, got 1$"):
            call(expand(color_gate), family)

    def test_sound_against_exact_sampling(self, color_gate, rng):
        assert_sound_by_sampling(color_gate, [w for w, _ in COLOR_WITNESSES], rng)

    def test_sound_against_exact_sampling_at_arity_three(self, rng):
        # a block of arity 3 has two free coordinates: on either side of the
        # base coordinate, or both after it
        gate = seeded_gate(2, (3, 2), 2, "additive", perturbed=2)
        assert_sound_by_sampling(gate, [(1, 0), (0, 1), (1, -1)], rng)

    def test_functional_width_must_match(self, color_gate):
        with pytest.raises(DomainError):
            total_sign(expand(color_gate), (0, 0, 0), (1,))

    def test_zero_block_expansions_raise_the_sweep_s_error(self):
        constant = MultilinearExpansion((), 1, {(): (F(1),)})
        assert constant.arities == ()
        with pytest.raises(DomainError) as sweep:
            analyze_gate(constant)
        family = default_family(1)
        for call in (
            lambda: total_sign(constant, (), (1,)),
            lambda: witness_signs(constant, (), family),
            lambda: sensitivity_lower_set(constant, (), family),
        ):
            with pytest.raises(DomainError, match=f"^{re.escape(str(sweep.value))}$"):
                call()


# Rationals near 10**40 / 10**30 next to small ones: exact scaling must keep
# every comparison between values of one functional.
HUGE = [F(10**40 + 1, 10**30), F(-(10**40), 3), F(10**40, 10**30 + 7), F(1, 10**30)]


def rationals():
    return st.one_of(
        st.fractions(min_value=-2, max_value=2, max_denominator=4),
        st.sampled_from(HUGE),
    )


@st.composite
def gates(draw):
    """Mixed arities, single blocks, constant tables and one-block tables."""
    arities = tuple(draw(st.lists(st.integers(2, 3), min_size=1, max_size=3)))
    dim = draw(st.integers(1, 3))
    cells = list(product(*(range(a) for a in arities)))
    kind = draw(st.sampled_from(["random", "constant", "one block"]))
    if kind == "constant":
        value = tuple(draw(rationals()) for _ in range(dim))
        table = {idx: value for idx in cells}
    elif kind == "one block":
        block = draw(st.integers(0, len(arities) - 1))
        values = [
            tuple(draw(rationals()) for _ in range(dim))
            for _ in range(arities[block])
        ]
        table = {idx: values[idx[block]] for idx in cells}
    else:
        table = {idx: tuple(draw(rationals()) for _ in range(dim)) for idx in cells}
    return Gate(arities=arities, output_dim=dim, table=table)


def functionals(dim):
    """Functionals with zero, negative, fractional and huge parts."""
    entry = st.one_of(st.integers(-2, 2), rationals())
    return st.lists(
        st.lists(entry, min_size=dim, max_size=dim), min_size=1, max_size=4
    )


@st.composite
def wide_gates(draw):
    """Arities 2-5 over at most two blocks, with ties and zeros, and one
    entry (2**64 + 2) / (2**64 + 1), so every nonzero cleared int of the
    table exceeds int64."""
    arities = tuple(draw(st.lists(st.integers(2, 5), min_size=1, max_size=2)))
    dim = draw(st.integers(1, 2))
    cells = list(product(*(range(a) for a in arities)))
    entry = st.one_of(st.sampled_from([F(-1), F(0), F(1)]), st.integers(-2**80, 2**80).map(F))
    table = {idx: tuple(draw(entry) for _ in range(dim)) for idx in cells}
    idx = draw(st.sampled_from(cells))
    table[idx] = (F(2**64 + 2, 2**64 + 1),) + table[idx][1:]
    return Gate(arities=arities, output_dim=dim, table=table)


class TestProjectionFamily:
    @pytest.mark.parametrize("dim", range(1, 6))
    def test_default_family_is_the_canonical_enumeration(self, dim):
        expected = tuple(
            tuple(F(c) for c in v) for v in oracles.canonical_vectors(dim)
        )
        assert default_family(dim).functionals == expected

    def test_default_family_is_built_once_per_output_dim(self):
        assert default_family(3) is default_family(3)
        assert default_family(3) is not default_family(4)
        for bad in (True, 3.0):  # a typed cache: these fail as unbuilt ones do
            with pytest.raises((DomainError, TypeError)):
                default_family(bad)

    @pytest.mark.parametrize("dim", [True, 1.0, "1", 0, -2])
    def test_output_dim_must_be_an_int_of_at_least_one(self, dim):
        with pytest.raises(DomainError) as caught:
            ProjectionFamily(((1,),), dim)
        assert str(caught.value) == f"output_dim must be an int >= 1, got {dim!r}"

    def test_duplicates_keep_their_first_occurrence(self):
        family = ProjectionFamily.from_vectors(
            [(1, -2), (-1, 2), (0, 3), ("2", 1), (0, -3), (1, -2), (-2, -1), (0, 1)],
            2,
        )
        assert family.functionals == ((1, -2), (0, 3), (2, 1), (0, 1))
        assert family.weights.tolist() == [[1, -2], [0, 3], [2, 1], [0, 1]]
        assert not family.weights.flags.writeable
        # one scale for the whole family, so values of one functional compare
        assert ProjectionFamily(((F(1, 2), F(1, 3)), (1, 0)), 2).weights.tolist() == [[3, 2], [6, 0]]


class TestTotalSignsAgainstTheOracle:
    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_every_base_point_and_functional(self, data):
        gate = data.draw(gates())
        expansion = expand(gate)
        for w in data.draw(functionals(gate.output_dim)):
            for z in base_points(expansion):
                assert total_sign(expansion, z, w) == oracles.total_sign(
                    gate.arities, gate.table, z, w
                )

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_sweep_witnesses(self, data):
        gate = data.draw(gates())
        expansion = expand(gate)
        vectors = [
            w for w in data.draw(functionals(gate.output_dim)) if any(w)
        ] or [[1] * gate.output_dim]
        family = ProjectionFamily.from_vectors(vectors, gate.output_dim)
        for report in analyze_gate(expansion, family).reports:
            for w, ts in report.witnesses:
                assert ts == oracles.total_sign(
                    gate.arities, gate.table, report.base_point, w
                )

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_every_entry_at_arities_up_to_five_beyond_int64(self, data):
        gate = data.draw(wide_gates())
        expansion = expand(gate)
        assert expansion.scale > 2**63
        vectors = [w for w in data.draw(functionals(gate.output_dim)) if any(w)]
        family = ProjectionFamily.from_vectors(vectors + [[1] * gate.output_dim], gate.output_dim)
        assert sensitivity._sign_dtype(expansion.tensor, family.weights) is object
        signs = sensitivity._total_signs(expansion, family.weights)
        assert signs.shape == gate.arities + (len(family.functionals), reduced_dimension(expansion))
        for z in base_points(expansion):
            for f, w in enumerate(family.functionals):
                assert tuple(signs[z][f].tolist()) == oracles.total_sign(gate.arities, gate.table, z, w)

    @pytest.mark.parametrize("value, exact", [(2**62 - 1, np.int64), (2**62, object)])
    def test_int64_only_while_twice_the_bound_fits(self, value, exact):
        # every value is +-value and the weight sums are 1, so B = value; the
        # pair differences reach 2 * value, which int64 holds below 2**63
        arities = (2, 2)
        table = {idx: (value if sum(idx) % 2 else -value, 0) for idx in product(range(2), repeat=2)}
        gate = Gate(arities=arities, output_dim=2, table=table)
        expansion = expand(gate)
        family = ProjectionFamily.from_vectors([(1, 0), (0, 1)], 2)
        assert sensitivity._sign_dtype(expansion.tensor, family.weights) is exact
        signs = sensitivity._total_signs(expansion, family.weights)
        for z in base_points(expansion):
            for f, w in enumerate(family.functionals):
                assert tuple(signs[z][f].tolist()) == oracles.total_sign(arities, gate.table, z, w)


@st.composite
def interior_points(draw, arities):
    """A random point of the simplex product with every coordinate positive."""
    point = []
    for a in arities:
        weights = [draw(st.integers(1, 5)) for _ in range(a)]
        point.append(tuple(F(k, sum(weights)) for k in weights))
    return point


class TestFormsReadTheTensor:
    """The form functions against the total signs and the reference table."""

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_total_signs_are_the_region_signs_of_the_forms(self, data):
        gate = data.draw(gates())
        expansion = expand(gate)
        w = data.draw(functionals(gate.output_dim))[0]
        scalar = apply_functional(expansion, w)
        for z in base_points(expansion):
            signs = total_sign(expansion, z, w)
            free = reduced_coordinates(gate.arities, z)
            assert len(signs) == len(free)
            for k, (i, j) in enumerate(free):
                # over zero blocks for a one-block gate
                form = reduced_partial(scalar, z, i, j)
                assert signs[k] == sign_over_region(form, z[:i] + z[i + 1 :])

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_evaluation_matches_the_reference_interpolation(self, data):
        gate = data.draw(gates())
        expansion = expand(gate)
        for idx, out in gate.table.items():
            vertex = [[F(int(j == c)) for c in range(a)] for j, a in zip(idx, gate.arities)]
            assert evaluate(expansion, vertex) == out
        point = data.draw(interior_points(gate.arities))
        assert evaluate(expansion, point) == oracles.evaluate_table(
            gate.arities, gate.table, point
        )
        # the partial along block 0; over zero blocks for a one-block gate
        form = reduced_partial(expansion, (0,) * len(gate.arities), 0, 1)
        rest = point[1:]
        assert evaluate(form, rest) == oracles.evaluate_table(
            form.arities, form.coefficients, rest
        )


class TestBooleanIndices:
    """A bool is an int, but indexes numpy arrays as a mask; it is rejected."""

    def test_form_functions_reject_boolean_indices(self):
        expansion = expand(AND)
        with pytest.raises(DomainError, match="base point entry True"):
            total_sign(expansion, (True, True), [1])
        with pytest.raises(DomainError, match="base point entry True"):
            witness_signs(expansion, (True, False), default_family(1))
        form = reduced_partial(expansion, (0, 0), 0, 1)
        with pytest.raises(DomainError, match="base point entry False"):
            sign_over_region(form, (False,))
        with pytest.raises(DomainError, match="base point entry True"):
            reduced_partial(expansion, (True, 0), 0, 1)
        with pytest.raises(DomainError, match="block False out of range"):
            reduced_partial(expansion, (0, 0), False, 1)
        with pytest.raises(DomainError, match="coordinate True out of range"):
            reduced_partial(expansion, (0, 0), 0, True)

    def test_a_boolean_base_point_does_not_verify(self):
        expansion = expand(OFF_ORIGIN)
        cert = reversibility_certificate(expansion)
        assert cert.base_point == (0, 1) and verify_certificate(expansion, cert)
        flagged = Certificate((False, True), cert.witnesses, cert.n_reduced)
        assert not verify_certificate(expansion, flagged)


class TestSensitivityLower:
    def test_mixing_gate_saturates_at_the_origin(self, color_gate):
        expansion = expand(color_gate)
        sens = sensitivity_lower_set(
            expansion, (0, 0, 0), default_family(4)
        )
        assert sens == frozenset(canonical_sign_vectors(3))

    def test_conjunction_sets(self):
        expansion = expand(AND)
        assert sensitivity_lower_set(expansion, (1, 1), default_family(1)) == {
            (1, 1),
            (1, 0),
            (0, 1),
        }
        assert sensitivity_lower_set(expansion, (0, 0), default_family(1)) == frozenset()


class TestScore:
    def test_extremes(self):
        assert sensitivity_score(2, []).value == 1
        assert sensitivity_score(2, []).log3 == 0.0
        full = canonical_sign_vectors(2)
        assert sensitivity_score(2, full).value == 9
        assert sensitivity_score(2, full).log3 == 2.0

    def test_score_builds_no_table(self, monkeypatch):
        # the length cap and the mask size need no enumeration; above N = 12
        # a table would be built afresh on every call
        monkeypatch.setattr(backend, "sign_vector_table", raise_if_called)
        e1 = (1,) + (0,) * 12
        assert sensitivity_score(13, [e1]).value == 1
        with pytest.raises(DomainError, match="positive int"):
            sensitivity_score(0, [])

    def test_frozen_conjunction_score(self):
        score = sensitivity_score(2, [(1, 1), (1, 0), (0, 1)])
        assert score.value == 3
        assert score.log3 == 1.0

    def test_mixing_gate_score(self):
        score = sensitivity_score(3, canonical_sign_vectors(3))
        assert score.value == 27
        assert format_log3(score.value) == "3.000000000000"

    def test_monotone_under_inclusion(self, rng):
        universe = canonical_sign_vectors(3)
        for _ in range(50):
            small = rng.sample(universe, rng.randint(0, len(universe)))
            extra = rng.sample(universe, rng.randint(0, 3))
            grown = list(dict.fromkeys(small + extra))
            assert (
                sensitivity_score(3, grown).value
                >= sensitivity_score(3, small).value
            )

    def test_log3_snaps_at_powers(self):
        assert log3_value(1) == 0.0
        assert log3_value(3**7) == 7.0
        assert 0.0 < log3_value(5) < 2.0
        with pytest.raises(DomainError):
            log3_value(0)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_the_oracle_on_the_complement(self, n, rng):
        universe = canonical_sign_vectors(n)
        subsets = [[], universe] + [
            rng.sample(universe, rng.randint(0, len(universe))) for _ in range(10)
        ]
        for subset in subsets:
            complement = [v for v in universe if v not in subset]
            eliminated = oracles.eliminated(complement, n)
            assert sensitivity_score(n, subset).value == 3**n - 2 * len(eliminated)

    @pytest.mark.parametrize(
        "member", [(1,) + (0,) * 8, (0,) * 8 + (1,), (1, -1) * 4 + (1,)]
    )
    def test_singleton_and_its_complement_at_nine(self, member):
        universe = oracles.canonical_vectors(9)
        others = [t for t in universe if t != member]
        # E(complement) holds the complement; it holds the member too when
        # some other vector eliminates it
        eliminated = len(others) + any(oracles.eliminates(t, member) for t in others)
        assert sensitivity_score(9, [member]).value == 3**9 - 2 * eliminated
        # every vector but the member: each one's position in the mask counts
        eliminated = len(oracles.eliminated([member], 9))
        assert sensitivity_score(9, others).value == 3**9 - 2 * eliminated

    def test_length_cap_fires_before_the_index(self, monkeypatch):
        monkeypatch.setenv("SIGNELIM_MAX_N", "3")
        with pytest.raises(ResourceLimitError):
            sensitivity_score(4, [])

    def test_rejects_non_canonical_members(self):
        with pytest.raises(DomainError):
            sensitivity_score(2, [(-1, 1)])
        with pytest.raises(DomainError):
            sensitivity_score(2, [(1, 1, 1)])


def witnessed(n, rows):
    """(n, mask over table(n), witnesses) for the set the total signs
    ``rows`` eliminate, as (functional, total sign) pairs."""
    hit = oracles.eliminated(rows, n)
    mask = np.array([s in hit for s in oracles.canonical_vectors(n)])
    return n, mask, [((k,), tuple(t)) for k, t in enumerate(rows)]


@st.composite
def scored_masks(draw):
    """(n, mask over table(n), witnesses or None) for the score routes.

    Masks are empty, full, one vector, a random subset, or the set that one
    to six total signs eliminate, drawn mostly from "u" (the witnesses are
    then returned as (functional, total sign) pairs, dead rows included).
    """
    n = draw(st.integers(1, 4))
    size = len(oracles.canonical_vectors(n))
    kind = draw(st.sampled_from(["empty", "full", "singleton", "random", "witnesses"]))
    if kind == "empty":
        mask = np.zeros(size, dtype=bool)
    elif kind == "full":
        mask = np.ones(size, dtype=bool)
    elif kind == "singleton":
        mask = np.zeros(size, dtype=bool)
        mask[draw(st.integers(0, size - 1))] = True
    elif kind == "random":
        mask = np.array(draw(st.lists(st.booleans(), min_size=size, max_size=size)))
    else:
        u_heavy = st.sampled_from((UNDETERMINED,) * 3 + (-1, 0, 1))
        return witnessed(n, draw(st.lists(st.tuples(*[u_heavy] * n), min_size=1, max_size=6)))
    return n, mask, None


def live_rows(signs, n):
    """The live total signs among ``signs`` (those with a +-1 entry), one
    per row up to sign, as an int8 matrix of n columns.

    Each row is multiplied by the sign of its first +-1 entry ("u" stays
    "u"), and the first of equal rows is kept.
    """
    live = {}
    for ts in signs:
        lead = next((e for e in ts if e in (1, -1)), 0)
        if lead:
            live.setdefault(tuple(e if e == UNDETERMINED else e * lead for e in ts))
    return np.array(list(live), dtype=np.int8).reshape(-1, n)


class TestScoreRoutes:
    @settings(max_examples=300, deadline=None)
    @given(scored_masks())
    @example((3, np.zeros(13, dtype=bool), None))
    @example((3, np.ones(13, dtype=bool), None))
    @example((2, np.array([True, False, False, False]), None))
    @example((3, np.zeros(13, dtype=bool), [((0,), (2, 2, 2)), ((1,), (0, 0, 0))]))
    # with u = UNDETERMINED (2): a common "u" column in three rows; an
    # all-"u" row beside live rows; duplicate and negated rows
    @example(witnessed(3, [(1, 2, 0), (0, 2, -1), (1, 2, 1)]))
    @example(witnessed(3, [(2, 2, 2), (1, -1, 0), (0, 1, 2)]))
    @example(witnessed(3, [(1, 0, -1), (-1, 0, 1), (1, 0, -1), (0, 1, 2), (0, -1, 2)]))
    def test_scores_match_the_complement_route(self, case):
        n, mask, witnesses = case
        members = [s for s, hit in zip(oracles.canonical_vectors(n), mask) if hit]
        expect = oracles.lower_score(members, n)
        bits = np.packbits(mask)
        assert sensitivity._lower_scores(n, [sensitivity._LowerSet(bits, n)])[0].value == expect
        if witnesses is not None:
            rows = live_rows([ts for _, ts in witnesses], n)
            record = sensitivity._LowerSet(bits, n, rows)
            assert sensitivity._lower_scores(n, [record])[0].value == expect

    @pytest.mark.parametrize("n", range(1, 6))
    def test_a_single_live_sign_scores_three_or_one(self, n):
        # every total sign of length n with a +-1 entry, alone and with its
        # negation and a dead row beside it
        for t in product((-1, 0, 1, UNDETERMINED), repeat=n):
            if not any(e in (-1, 1) for e in t):
                continue
            negated = tuple(e if e == UNDETERMINED else -e for e in t)
            hit = oracles.eliminated([t], n)
            mask = np.array([s in hit for s in oracles.canonical_vectors(n)])
            rows = live_rows([t, negated, (UNDETERMINED,) * n], n)
            record = sensitivity._LowerSet(np.packbits(mask), n, rows)
            (score,) = sensitivity._lower_scores(n, [record])
            assert score.value == (1 if UNDETERMINED in t else 3)
            assert score == (ScorePair(1, 0.0) if UNDETERMINED in t else ScorePair(3, 1.0))
            if n <= 3:
                assert score.value == oracles.lower_score(hit, n)

    def test_every_small_set_of_live_rows_scores_as_its_complement_route(self):
        # every set of at most three live total signs of length n <= 3, one
        # per row up to sign (first +-1 entry +1): scored from its rows, by
        # the transform alone, and by the oracle
        for n in (1, 2, 3):
            vectors = oracles.canonical_vectors(n)
            live = [
                t for t in product((1, 0, -1, UNDETERMINED), repeat=n)
                if next((e for e in t if e in (1, -1)), 0) == 1
            ]
            sets = [c for m in range(4) for c in combinations(live, m)]
            hits = [oracles.eliminated(c, n) for c in sets]
            bits = [np.packbits([s in hit for s in vectors]) for hit in hits]
            rows = [np.array(c, dtype=np.int8).reshape(-1, n) for c in sets]
            with_rows = sensitivity._lower_scores(n, [sensitivity._LowerSet(b, n, r) for b, r in zip(bits, rows)])
            without = sensitivity._lower_scores(n, [sensitivity._LowerSet(b, n) for b in bits])
            oracle = {}
            for c, hit, got, transform in zip(sets, hits, with_rows, without):
                if frozenset(hit) not in oracle:
                    oracle[frozenset(hit)] = oracles.lower_score(hit, n)
                assert got == transform, c
                assert got.value == oracle[frozenset(hit)], c

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_analysis_scores_match_the_complement_route(self, data):
        gate = data.draw(gates())
        analysis = analyze_gate(expand(gate))
        for report in analysis.reports:
            assert report.score.value == oracles.lower_score(
                report.sens_lower, analysis.n_reduced
            )

    def test_reports_with_equal_masks_share_one_read_only_array(self):
        # FIRST ignores its second input, so its total signs at (0, z) and
        # (1, z) are one sign vector up to sign: every report has one mask.
        reports = analyze_gate(expand(FIRST)).reports
        assert len(reports) == 4
        assert all(r.mask is reports[0].mask for r in reports)
        assert not reports[0].mask.flags.writeable
        assert reports[0].mask.tolist() == [False, True, True, True]
        assert {r.score.value for r in reports} == {3}

    @settings(max_examples=40, deadline=None)
    @given(metamorphic_gates())
    def test_records_carry_their_live_rows(self, gate):
        analysis = analyze_gate(expand(gate))
        n = analysis.n_reduced
        for report in analysis.reports:
            rows = report._lower.rows
            assert rows.dtype == np.int8 and not rows.flags.writeable
            assert rows.shape[1] == n and np.isin(rows, (1, -1)).any(axis=1).all()
            canonical = live_rows(rows.tolist(), n)
            assert len(canonical) == len(rows)  # distinct up to sign
            assert np.array_equal(backend.eliminated_any_mask(table(n), rows), report._lower.bits)
            # the base point's live rows, up to order and sign
            assert set(map(tuple, canonical.tolist())) == set(map(tuple, live_rows(report._signs.tolist(), n).tolist()))

    def test_reports_with_one_mask_share_one_lower_set(self):
        analysis = analyze_gate(expand(seeded_gate(2, (2,) * 4, 1, "additive")))
        by_mask = {}
        for report in analysis.reports:
            by_mask.setdefault(id(report.mask), []).append(report)
        assert 1 < len(by_mask) < len(analysis.reports)
        rows = sign_vector_table(analysis.n_reduced)
        for shared in by_mask.values():
            lower = shared[0].sens_lower
            assert all(r.sens_lower is lower for r in shared)
            assert lower == frozenset(map(tuple, rows[shared[0].mask].tolist()))
        # a report given another set derives that set's vectors
        report = analysis.reports[0]
        other = replace(report, _lower=sensitivity._LowerSet(np.packbits(~report.mask), analysis.n_reduced))
        assert other.sens_lower == frozenset(map(tuple, rows[~report.mask].tolist()))
        assert replace(report).sens_lower is report.sens_lower

    def test_random_gate_needs_no_score_or_sweep_kernel_call(self, monkeypatch):
        calls = []

        def counted(kernel):
            def wrapper(*args):
                calls.append(kernel.__name__)
                return kernel(*args)

            return wrapper

        for name in ("eliminated_any_mask", "row_mask_bits"):
            monkeypatch.setattr(sensitivity, name, counted(getattr(sensitivity, name)))
        # the sweep hands its empty set to the batched scan, which scans no row
        monkeypatch.setattr(backend, "_row_masks", counted(backend._row_masks))
        gate = seeded_gate(11, (2,) * 6, 2, "random")
        analysis = analyze_gate(expand(gate))
        assert calls == []
        assert len({id(r.mask) for r in analysis.reports}) == 1
        assert not analysis.reports[0].mask.any()
        assert analysis.lower.value == 1
        assert analysis.certificate is None


class TestSetFormat:
    @pytest.mark.parametrize("seed", range(len(SWEEP_GATES)))
    def test_every_swept_set_is_one_read_only_packed_row(self, monkeypatch, seed):
        sweep, seen = sensitivity._sweep, []

        def spy(blocks):
            for z, rows, record in sweep(blocks):
                seen.append(record)
                yield z, rows, record

        monkeypatch.setattr(sensitivity, "_sweep", spy)
        gate = SWEEP_GATES[seed]
        expansion = expand(gate)
        n = reduced_dimension(expansion)
        analysis = analyze_gate(expansion, records=seeded_records(seed, gate, count=64), eps=F(1, 4))
        reversibility_certificate(expansion)
        assert len(seen) > 2 * len(analysis.reports)  # witnesses, collisions and the certificate
        for record in seen:
            bits = record.bits
            assert bits.dtype == np.uint8 and bits.shape == ((vector_count(n) + 7) // 8,)
            assert not bits.flags.writeable
            assert record.size == np.unpackbits(bits).sum()


@st.composite
def covering_witness_rows(draw):
    """(n, total sign rows) that jointly eliminate every vector of length n.

    Rows draw from {-1, 0, +1}, with or without u; every vector the drawn
    rows leave uneliminated is inserted at a drawn position, since a sign
    vector eliminates itself.
    """
    n = draw(st.integers(1, 4))
    alphabet = (-1, 0, 1, 2) if draw(st.booleans()) else (-1, 0, 1)
    rows = draw(
        st.lists(st.tuples(*[st.sampled_from(alphabet)] * n), min_size=1, max_size=12)
    )
    covered = oracles.eliminated(rows, n)
    for s in oracles.canonical_vectors(n):
        if s not in covered:
            rows.insert(draw(st.integers(0, len(rows))), s)
    return n, rows


def raise_if_called(*args, **kwargs):
    raise AssertionError("the kernel of another job ran")


class TestKernelRouting:
    """Eliminator rows always take the scan; a set's complement the transform."""

    @pytest.fixture()
    def no_transform(self, monkeypatch):
        for module in (backend, sensitivity):
            monkeypatch.setattr(module, "_elimination_counts", raise_if_called)

    @pytest.mark.parametrize("seed", range(len(SWEEP_GATES)))
    def test_sweeps_certificates_and_collisions_take_the_scan(self, no_transform, seed):
        gate = SWEEP_GATES[seed]
        expansion = expand(gate)
        family = default_family(gate.output_dim)
        signs = sensitivity._total_signs(expansion, family.weights)
        every = (list(base_points(expansion)), signs.reshape((-1,) + signs.shape[-2:]))
        for _, _, record in sensitivity._sweep([every]):
            assert record.mask.dtype == bool
        certificate = reversibility_certificate(expansion, family)
        if certificate is not None:
            assert verify_certificate(expansion, certificate)
        records = seeded_records(seed, gate, count=64)
        sensitivity._collision_scores(records, expansion, F(1, 4), F(0))

    def test_set_functions_take_the_scan(self, no_transform, rng):
        # many rows: the whole enumeration, its negations and "u" rows
        n = 5
        rows = oracles.canonical_vectors(n)
        rows += [tuple(-e for e in v) for v in rows]
        rows += [random_total_sign(rng, n) for _ in range(20)]
        assert eliminated_mask(rows, n).all()
        assert jointly_eliminated_count(rows[:3], n) == len(
            oracles.jointly_eliminated(rows[:3], n)
        )

    def test_a_mixed_mask_takes_the_transform(self, monkeypatch, rng):
        monkeypatch.setattr(backend, "_row_masks", raise_if_called)
        for module in (backend, sensitivity):
            monkeypatch.setattr(module, "row_mask_bits", raise_if_called)
        for name in ("eliminated_any_mask", "eliminated_any_masks"):
            monkeypatch.setattr(sensitivity, name, raise_if_called)
        n = 4
        vectors = oracles.canonical_vectors(n)
        mask = np.array([rng.random() < 0.5 for _ in vectors])
        mask[:2] = (True, False)
        chosen = [v for v, hit in zip(vectors, mask) if hit]
        (score,) = sensitivity._lower_scores(n, [sensitivity._LowerSet(np.packbits(mask), n)])
        assert score.value == oracles.lower_score(chosen, n)


class TestCertificates:
    @settings(max_examples=200, deadline=None)
    @given(covering_witness_rows())
    @example((2, [(2, 1), (1, 0), (1, 1), (0, 1), (1, 1), (1, -1)]))
    @example(  # the greedy takes rows 0, 4, 8, 1, 3 and pruning drops row 0
        (
            4,
            [
                (1, 0, -1, -1), (1, -1, -1, 0), (2, 0, 1, -1), (1, 1, 0, -1),
                (-1, -1, 0, -1), (1, 1, 1, -1), (1, -1, -1, 1), (2, 0, 0, 1),
                (1, -1, 1, 0), (1, 1, -1, -1), (1, -1, -1, -1),
            ],
        )
    )
    def test_greedy_matches_the_set_oracle(self, case):
        n, rows = case
        signs = tuple(((F(k),), row) for k, row in enumerate(rows))
        functionals = [w for w, _ in signs]
        codes = np.array(rows, dtype=np.int8).reshape(len(rows), n)
        cert = sensitivity._greedy_certificate((0,), functionals, codes, n)
        assert cert.witnesses == tuple(signs[k] for k in oracles.greedy_cover(rows, n))
        assert cert.n_reduced == n

    def test_mixing_gate_is_certified(self, color_gate):
        expansion = expand(color_gate)
        cert = reversibility_certificate(expansion)
        assert cert is not None
        assert cert.base_point == (0, 0, 0)
        assert cert.n_reduced == 3
        assert 1 <= len(cert.witnesses) <= 40
        assert verify_certificate(expansion, cert)

    def test_explicit_witness_family_suffices(self, color_gate):
        expansion = expand(color_gate)
        family = ProjectionFamily.from_vectors(
            [w for w, _ in COLOR_WITNESSES], 4
        )
        cert = reversibility_certificate(expansion, family=family)
        assert cert is not None
        assert len(cert.witnesses) == 4
        assert verify_certificate(expansion, cert)

    def test_tampered_certificates_fail_replay(self, color_gate):
        expansion = expand(color_gate)
        cert = reversibility_certificate(expansion)
        wrong_sign = Certificate(
            base_point=cert.base_point,
            witnesses=tuple(
                (w, tuple(-e if e in (1, -1) else e for e in ts))
                for w, ts in cert.witnesses[:1]
            )
            + cert.witnesses[1:],
            n_reduced=cert.n_reduced,
        )
        assert not verify_certificate(expansion, wrong_sign)
        wrong_dim = Certificate(
            base_point=cert.base_point,
            witnesses=cert.witnesses,
            n_reduced=cert.n_reduced + 1,
        )
        assert not verify_certificate(expansion, wrong_dim)
        wrong_base = Certificate(
            base_point=(0, 0, 5),
            witnesses=cert.witnesses,
            n_reduced=cert.n_reduced,
        )
        assert not verify_certificate(expansion, wrong_base)

    def test_malformed_certificates_return_false(self):
        # a wrong-length witness functional and an out-of-range base point
        # are both a failed replay, not an error
        expansion = expand(OFF_ORIGIN)
        cert = reversibility_certificate(expansion)
        (w, ts), *rest = cert.witnesses
        for malformed in (
            Certificate(cert.base_point, ((w + (F(1),), ts), *rest), cert.n_reduced),
            Certificate(cert.base_point, ((w[:-1], ts), *rest), cert.n_reduced),
            Certificate((0, 2), cert.witnesses, cert.n_reduced),
        ):
            assert verify_certificate(expansion, malformed) is False

    def test_uncertifiable_gates_return_none(self):
        assert reversibility_certificate(expand(AND)) is None
        assert reversibility_certificate(expand(XOR)) is None
        assert reversibility_certificate(expand(CONST)) is None

    def test_partial_coverage_fails_verification(self, color_gate):
        expansion = expand(color_gate)
        cert = reversibility_certificate(expansion)
        for kept in (1, 0):
            short = Certificate(
                base_point=cert.base_point,
                witnesses=cert.witnesses[:kept],
                n_reduced=cert.n_reduced,
            )
            assert not verify_certificate(expansion, short)

    def test_certified_only_away_from_the_origin(self):
        expansion = expand(OFF_ORIGIN)
        analysis = analyze_gate(expansion)
        assert analysis.reports[0].certificate is None
        cert = reversibility_certificate(expansion)
        assert cert.base_point == (0, 1)
        assert verify_certificate(expansion, cert)

    def test_early_exit_scans_only_the_certified_base_point(self, monkeypatch):
        # SWEEP_GATES[5] is certified at base point (0, 0), and other base
        # points have live total signs that base point 0 lacks
        gate = SWEEP_GATES[5]
        expansion = expand(gate)
        family = default_family(gate.output_dim)
        signs = sensitivity._total_signs(expansion, family.weights)
        own = set(map(tuple, signs[0, 0].tolist()))
        assert not own >= set(map(tuple, signs.reshape(-1, signs.shape[-1]).tolist()))
        scanned, row_masks = [], backend._row_masks

        def spy(table, elim):
            scanned.extend(map(tuple, elim.tolist()))
            return row_masks(table, elim)

        monkeypatch.setattr(backend, "_row_masks", spy)
        assert reversibility_certificate(expansion, family).base_point == (0, 0)
        assert scanned and set(scanned) <= own

    @pytest.mark.parametrize("gate", SWEEP_GATES)
    def test_early_exit_matches_the_full_sweep(self, gate):
        expansion = expand(gate)
        family = default_family(gate.output_dim)
        assert reversibility_certificate(expansion, family) == (
            analyze_gate(expansion, family).certificate
        )


class TestAnalyzeGate:
    def test_mixing_gate_summary(self, color_gate):
        analysis = analyze_gate(expand(color_gate))
        assert analysis.n_reduced == 3
        assert len(analysis.reports) == 8
        assert analysis.lower.value == 27
        assert analysis.lower.log3 == 3.0
        assert analysis.lower_base_point == (0, 0, 0)
        assert analysis.certificate is not None
        by_base = {r.base_point: r for r in analysis.reports}
        assert len(by_base[(0, 0, 0)].sens_lower) == 13

    def test_reports_carry_read_only_masks(self, color_gate):
        expansion = expand(color_gate)
        analysis = analyze_gate(expansion)
        again = analyze_gate(expansion)
        # the mask takes no part in equality or hashing
        assert analysis.reports == again.reports
        assert hash(analysis.reports) == hash(again.reports)
        vectors = canonical_sign_vectors(analysis.n_reduced)
        for report in analysis.reports:
            assert not report.mask.flags.writeable
            assert report.sens_lower == frozenset(
                v for v, hit in zip(vectors, report.mask) if hit
            )
            assert report.sens_lower == sensitivity_lower_set(
                expansion, report.base_point, default_family(4)
            )

    def test_conjunction_summary(self):
        analysis = analyze_gate(expand(AND))
        assert analysis.lower.value == 3
        assert analysis.lower.log3 == 1.0
        assert analysis.lower_base_point == (1, 1)
        assert analysis.certificate is None

    def test_scores_never_exceed_the_certified_maximum(self, color_gate):
        analysis = analyze_gate(expand(color_gate))
        for report in analysis.reports:
            assert report.score.value <= analysis.lower.value
            assert len(report.witnesses) == 40

    @pytest.mark.parametrize(
        "arities, output_dim, perturbed", [((2,) * 9, 2, 3), ((3,) * 5, 2, 3), ((2,) * 11, 1, 2)]
    )
    def test_large_n_masks_match_the_closed_form(self, arities, output_dim, perturbed):
        # N = 9-11, where the document's counting cross-check skips every
        # set: each distinct mask of at most 6 live witness rows against
        # the union count of its rows, "u" included
        gate = seeded_gate(7, arities, output_dim, "additive", perturbed)
        analysis = analyze_gate(expand(gate))
        masks = {id(report.mask): report for report in analysis.reports}
        checked = []
        for report in masks.values():
            rows = [signs for _, signs in report.witnesses]
            if len(oracles.live_classes(rows)) <= 6:
                checked.append((int(report.mask.sum()), closed_form_union(rows)))
        assert len(checked) > 200
        assert [count for count, _ in checked] == [union for _, union in checked]

    def test_base_point_cap(self, monkeypatch):
        monkeypatch.setenv("SIGNELIM_BASE_POINT_CAP", "4")
        gate = boolean_gate([0] * 8, 3)
        with pytest.raises(ResourceLimitError):
            analyze_gate(expand(gate))

    @pytest.mark.parametrize("sweep", [analyze_gate, reversibility_certificate])
    def test_base_point_cap_fires_before_the_default_family(self, monkeypatch, sweep):
        monkeypatch.setattr(sensitivity, "default_family", fail_if_called)
        monkeypatch.setenv("SIGNELIM_BASE_POINT_CAP", "4")
        with pytest.raises(ResourceLimitError, match="SIGNELIM_BASE_POINT_CAP"):
            sweep(expand(boolean_gate([0] * 8, 3)))

    def test_records_are_checked_before_the_family_meets_the_gate(self):
        # the total signs, which reject a family of the wrong width, are
        # computed when the sweep is first drawn, after the records
        bad = [ExperimentRecord(((F(1, 2), F(1, 3)), (F(1, 2), F(1, 2))), (F(0),))]
        family = ProjectionFamily(((1, 1),), 2)
        with pytest.raises(ValidationError, match="^record 1: block 1 coordinates must sum to 1$"):
            analyze_gate(expand(AND), family, records=bad)
        with pytest.raises(DomainError, match="functional must have 1 components, got 2"):
            analyze_gate(expand(AND), family)


class TestBooleanSensitivity:
    def test_conjunction(self):
        sens = boolean_sensitivity(AND)
        assert sens.per_point == {
            (0, 0): 0,
            (0, 1): 1,
            (1, 0): 1,
            (1, 1): 2,
        }
        assert sens.value == 2
        assert sens.insensitive[(0, 0)] == {0, 1}
        assert sens.insensitive[(1, 1)] == frozenset()

    def test_parity_is_fully_sensitive(self):
        sens = boolean_sensitivity(XOR)
        assert sens.value == 2
        assert all(v == 2 for v in sens.per_point.values())

    def test_constant_gate(self):
        sens = boolean_sensitivity(CONST)
        assert sens.value == 0

    def test_equal_results_hash_equal_and_are_dict_keys(self):
        first, second = boolean_sensitivity(AND), boolean_sensitivity(boolean_gate([0, 0, 0, 1], 2))
        assert first == second and first is not second
        assert hash(first) == hash(second)
        assert len({first, second, boolean_sensitivity(XOR)}) == 2
        assert {first: "and"}[second] == "and"

    def test_rejects_wide_gates(self, color_gate):
        with pytest.raises(DomainError):
            boolean_sensitivity(color_gate)

    def test_projection_scores_never_exceed_classical_sensitivity(self):
        # The certified lower bound is a lower bound in the classical sense:
        # at every vertex its log3 stays below the number of flips that
        # change the output.
        for bits in range(16):
            gate = boolean_gate(
                [(bits >> k) & 1 for k in range(3, -1, -1)], 2
            )
            classical = boolean_sensitivity(gate)
            analysis = analyze_gate(expand(gate))
            for report in analysis.reports:
                assert report.score.log3 <= classical.per_point[report.base_point]
            assert analysis.lower.log3 <= classical.value


def collision_pairs(records, eps):
    """_collision_pairs on the records' coded matrix, as a list of (a, b)."""
    arities = [len(block) for block in records[0].point] if records else [1]
    dim = len(records[0].output) if records else 1
    coded = sensitivity._coded(records, arities, dim)
    width = sum(arities)
    ranks = coded.ids[:, :width]
    a, b, signs = sensitivity._collision_pairs(ranks, coded.values, coded.ids[:, width:], eps)
    assert a.dtype == b.dtype == np.int64
    assert (a < b).all()
    assert signs.dtype == np.int8
    assert signs.tolist() == np.sign(ranks[b] - ranks[a]).tolist()
    assert signs.any(axis=1).all()
    return list(zip(a.tolist(), b.tolist()))


def projection_records():
    """Interior observations of the first-input projection gate."""
    records = []
    for a, b in product((F(1, 4), F(1, 2)), (F(1, 4), F(3, 4))):
        point = ((1 - a, a), (1 - b, b))
        output = evaluate(expand(FIRST), point)
        records.append(ExperimentRecord(point=point, output=output))
    return records


class TestDataBounds:
    def test_collision_rows_share_the_sweep_s_kernel_calls(self, monkeypatch):
        calls = []

        def counted(table, groups):
            calls.append([len(group) for group in groups])
            return backend.eliminated_any_masks(table, groups)

        monkeypatch.setattr(sensitivity, "eliminated_any_masks", counted)
        # Every pair of these collides on CONST; the pair sign rows are
        # (+, -, +, -) and its negation, so each base point's projected rows
        # are one row up to sign, and the base points fall in two classes.
        # All four base points fit in one block: one scan of two sets.
        records = [
            ExperimentRecord(((p, 1 - p), (p, 1 - p)), (F(0),))
            for p in (F(1, 2), F(3, 4), F(1, 4))
        ]
        scores, _ = sensitivity._collision_scores(records, expand(CONST), F(0), F(0))
        assert calls == [[1, 1]]
        expected = oracles.collision_scores(
            CONST.arities, [(r.point, r.output) for r in records], F(0)
        )
        assert {z: s.value for z, s in scores.items()} == expected == {
            z: 3 for z in product(range(2), repeat=2)
        }
        # Pairs at distinct points never project to all-zero rows (a block's
        # difference has two nonzero coordinates), so the rows are built
        # here: the base point with only zero rows gets an all-false mask
        # from an empty set, which scans no row.
        calls.clear()
        block = np.array([[[0, 0], [0, 0]], [[1, -1], [-1, 1]]], dtype=np.int8)
        masks = [record.mask for _, _, record in sensitivity._sweep([([(0,), (1,)], block)])]
        assert calls == [[0, 1]]
        assert not masks[0].any() and not masks[0].flags.writeable
        assert masks[1].sum() == 3

    @staticmethod
    def distinct_pair_rows(records, gate, eps):
        """The distinct int8 sign rows of the colliding pairs, sorted."""
        width = sum(gate.arities)
        coded = sensitivity._coded(records, gate.arities, gate.output_dim)
        ranks, outputs = coded.ids[:, :width], coded.ids[:, width:]
        signs = sensitivity._collision_pairs(ranks, coded.values, outputs, eps)[2]
        order, first = sensitivity._sorted_rows(signs)
        return signs[order[first]]

    def test_collision_rows_reach_the_sweep_one_base_point_at_a_time(self, monkeypatch):
        # Under a budget that one base point's projected rows fill, the
        # projected rows of all base points are never held at once: the
        # sweep gets an iterator of one-base-point blocks and yields each
        # base point before it draws the next one's rows.
        gate = SWEEP_GATES[2]  # arities (2, 2, 2): N = 3, eight base points
        records = seeded_records(2, gate, count=64)
        # one base point's block: the distinct pair rows on N = 3 coordinates
        cells = self.distinct_pair_rows(records, gate, F(1, 4)).shape[0] * 3
        monkeypatch.setattr(backend, "_BATCH_CELLS", cells)
        sweep, drawn = sensitivity._sweep, []

        def spy(blocks):
            assert iter(blocks) is blocks

            def counted():
                for zs, block in blocks:
                    assert len(zs) == block.shape[0] == 1 and block.shape[2] == 3
                    drawn.extend(zs)
                    yield zs, block

            for z, rows, record in sweep(counted()):
                assert drawn[-1] == z
                yield z, rows, record

        monkeypatch.setattr(sensitivity, "_sweep", spy)
        scores, _ = sensitivity._collision_scores(records, expand(gate), F(1, 4), F(0))
        assert drawn == list(scores) == list(product(range(2), repeat=3))

    @pytest.mark.parametrize("fill", [1, 2, 3, 5, 8])
    def test_no_collision_block_exceeds_the_budget(self, monkeypatch, fill):
        # a budget of ``fill`` base points, plus a part of one more
        gate = SWEEP_GATES[2]
        records = seeded_records(2, gate, count=64)
        distinct = self.distinct_pair_rows(records, gate, F(1, 4))
        cells = distinct.shape[0] * 3
        monkeypatch.setattr(backend, "_BATCH_CELLS", fill * cells + cells // 2)
        expected, _ = sensitivity._collision_scores(records, expand(gate), F(1, 4), F(0))
        sweep, blocks = sensitivity._sweep, []

        def spy(drawn):
            def kept():
                for zs, block in drawn:
                    blocks.append((list(zs), block.copy()))
                    yield zs, block

            return sweep(kept())

        monkeypatch.setattr(sensitivity, "_sweep", spy)
        scores, _ = sensitivity._collision_scores(records, expand(gate), F(1, 4), F(0))
        assert [len(zs) for zs, _ in blocks] == [fill] * (8 // fill) + [8 % fill] * (8 % fill > 0)
        assert all(block.size <= backend._BATCH_CELLS for _, block in blocks)
        assert [z for zs, _ in blocks for z in zs] == list(product(range(2), repeat=3))
        assert scores == expected
        # a base point's rows are the distinct rows on its free coordinates,
        # the columns np.delete leaves
        starts = np.cumsum((0,) + gate.arities[:-1])
        for zs, block in blocks:
            for z, rows in zip(zs, block):
                assert rows.tolist() == np.delete(distinct, starts + z, axis=1).tolist()

    def test_each_matrix_is_sorted_once(self, monkeypatch):
        # eps = 0: one sort of the output ids and one of the pair signs, and
        # no argsort after either
        sorted_rows, sorted_shapes = sensitivity._sorted_rows, []

        def spy(matrix):
            sorted_shapes.append((matrix.dtype, matrix.shape))
            return sorted_rows(matrix)

        def fail(*args, **kwargs):
            raise AssertionError("argsort at eps = 0")

        records = sensitivity._coded(projection_records(), FIRST.arities, 1)
        monkeypatch.setattr(sensitivity, "_sorted_rows", spy)
        monkeypatch.setattr(np, "argsort", fail)
        _, bound = sensitivity._collision_scores(records, expand(FIRST), F(0), F(0))
        assert bound.collisions == 2
        assert sorted_shapes == [(records.ids.dtype, (4, 1)), (np.dtype(np.int8), (2, 4))]

    def test_collision_memory_is_linear_in_the_pairs_with_a_small_constant(self):
        # 300 distinct interior points of a constant (2,)^4 gate: every pair
        # collides. The peak counts the index arrays and the int8 sign rows:
        # no pairs x coordinates int64 array, and the candidate arrays are
        # freed before the signs are formed.
        gate = boolean_gate([0] * 16, 4)
        rng = random.Random(0)
        points = set()
        while len(points) < 300:
            points.add(tuple(F(rng.randrange(1, 1000), 1000) for _ in range(4)))
        records = sensitivity._coded(
            [ExperimentRecord(tuple((1 - p, p) for p in point), (F(0),)) for point in points],
            gate.arities,
            1,
        )
        expansion = expand(gate)
        sensitivity._collision_scores(records, expansion, F(0), F(0))  # warm caches
        tracemalloc.start()
        try:
            _, bound = sensitivity._collision_scores(records, expansion, F(0), F(0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert bound.collisions == 300 * 299 // 2
        assert peak / bound.collisions < 65

    def test_no_collisions_yields_none(self):
        records = [
            ExperimentRecord(
                point=((F(3, 4), F(1, 4)), (F(1, 2), F(1, 2))),
                output=(F(1, 4),),
            ),
            ExperimentRecord(
                point=((F(1, 2), F(1, 2)), (F(1, 2), F(1, 2))),
                output=(F(1, 2),),
            ),
        ]
        assert data_upper_bound(records, expand(FIRST)) is None

    def test_projection_gate_collisions_bound_the_score(self):
        bound = data_upper_bound(projection_records(), expand(FIRST))
        assert bound is not None
        assert bound.score.value == 3
        assert bound.score.log3 == 1.0
        assert not bound.heuristic
        assert bound.collisions == 2

    def test_bound_sandwiches_the_certified_lower_bound(self):
        analysis = analyze_gate(expand(FIRST), records=projection_records())
        assert analysis.lower.value == 3
        assert analysis.data is not None
        assert analysis.data.score.value == 3
        assert analysis.lower.value <= analysis.data.score.value
        for report in analysis.reports:
            assert report.data_upper is not None

    def test_constant_gate_grid_pins_the_bound_to_zero(self):
        expansion = expand(CONST)
        records = []
        for a, b in product((F(1, 4), F(1, 2), F(3, 4)), repeat=2):
            point = ((1 - a, a), (1 - b, b))
            records.append(
                ExperimentRecord(point=point, output=evaluate(expansion, point))
            )
        bound = data_upper_bound(records, expansion)
        assert bound.score.value == 1
        assert bound.score.log3 == 0.0
        # every base point ties; the first one is reported
        assert bound.base_point == (0, 0)

    def test_identical_points_are_not_collisions(self):
        record = projection_records()[0]
        assert data_upper_bound([record, record], expand(FIRST)) is None

    def test_near_collisions_need_a_tolerance(self):
        base = projection_records()
        nudged = ExperimentRecord(
            point=((F(3, 4), F(1, 4)), (F(1, 3), F(2, 3))),
            output=(F(26, 100),),
        )
        records = [base[0], nudged]
        assert data_upper_bound(records, expand(FIRST)) is None
        bound = data_upper_bound(
            records, expand(FIRST), eps=F(1, 50)
        )
        assert bound is not None
        assert bound.heuristic

    @pytest.mark.parametrize("eps", [F(0), F(1, 4)])
    @pytest.mark.parametrize("seed", range(len(SWEEP_GATES)))
    def test_bound_matches_the_analysis(self, seed, eps):
        gate = SWEEP_GATES[seed]
        records = seeded_records(seed, gate)
        expansion = expand(gate)
        bound = data_upper_bound(records, expansion, eps)
        assert bound == analyze_gate(expansion, records=records, eps=eps).data

    @pytest.mark.parametrize("eps", [F(0), F(1, 4)])
    @pytest.mark.parametrize("seed", range(len(SWEEP_GATES)))
    def test_collision_scores_match_the_oracle(self, seed, eps):
        gate = SWEEP_GATES[seed]
        for count in (16, 64):
            records = seeded_records(seed, gate, count=count)
            scores, _ = sensitivity._collision_scores(records, expand(gate), eps, F(0))
            plain = [(r.point, r.output) for r in records]
            expected = oracles.collision_scores(gate.arities, plain, eps)
            assert {z: s.value for z, s in scores.items()} == expected
        # at 64 records many pairs share a sign row, so the deduplication has
        # work to do
        pairs = oracles.collision_pairs(plain, eps)
        rows = {
            tuple((q > p) - (q < p) for p, q in zip(sum(a, ()), sum(b, ())))
            for a, b in ((plain[i][0], plain[j][0]) for i, j in pairs)
        }
        assert len(rows) < len(pairs)

    @pytest.mark.parametrize("eps", [F(0), F(1, 8)])
    def test_shared_blocks_and_negative_leads_match_the_oracle(self, eps):
        gate = Gate(
            arities=(2, 3, 2),
            output_dim=1,
            table={idx: (F(0),) for idx in product(range(2), range(3), range(2))},
        )
        third = (F(1, 3),) * 3
        records = [
            # differs from the next record in block 1 only: the difference
            # vanishes on blocks 0 and 2, and at z_1 = 0 its free part is (-, -)
            ExperimentRecord(((F(1, 2),) * 2, third, (F(1, 4), F(3, 4))), (F(0),)),
            ExperimentRecord(
                ((F(1, 2),) * 2, (F(1, 2), F(1, 4), F(1, 4)), (F(1, 4), F(3, 4))),
                (F(0),),
            ),
            # collides with the others only within eps = 1/8
            ExperimentRecord(((F(3, 4), F(1, 4)), third, (F(1, 2),) * 2), (F(1, 8),)),
        ]
        scores, bound = sensitivity._collision_scores(records, expand(gate), eps, F(0))
        expected = oracles.collision_scores(
            gate.arities, [(r.point, r.output) for r in records], eps
        )
        assert {z: s.value for z, s in scores.items()} == expected
        assert bound.collisions == (1 if eps == 0 else 3)

    @settings(max_examples=200, deadline=None)
    @given(record_sets(), st.sampled_from([F(0), F(1, 12), F(1, 6), F(1, 4), F(1, 2)]))
    @example([], F(0))
    @example(projection_records()[:1], F(1, 4))
    @example(projection_records()[:1] * 2, F(0))
    @example(projection_records()[:1] * 2, F(1, 4))
    def test_collision_pairs_match_the_oracle(self, records, eps):
        pairs = collision_pairs(records, eps)
        expected = oracles.collision_pairs([(r.point, r.output) for r in records], eps)
        assert sorted(pairs) == sorted(expected)

    @pytest.mark.parametrize("component", [0, 1])
    def test_a_difference_of_exactly_eps_collides(self, component):
        point = projection_records()[0].point
        other = projection_records()[1].point
        eps = F(1, 6)
        near = [F(1, 3), F(-1, 2)]
        near[component] += eps
        records = [
            ExperimentRecord(point, (F(1, 3), F(-1, 2))),
            ExperimentRecord(other, tuple(near)),
        ]
        assert collision_pairs(records, eps) == [(0, 1)]
        assert collision_pairs(records, eps - F(1, 1000)) == []
        assert collision_pairs(records, F(0)) == []

    def test_caps_fire_before_any_sign_work(self, monkeypatch):
        def fail(*args):
            raise AssertionError("sign work ran before the caps were checked")

        monkeypatch.setattr(sensitivity, "_collision_pairs", fail)
        monkeypatch.setattr(sensitivity, "_total_signs", fail)
        expansion = expand(boolean_gate([0] * 16, 4))  # N = 4, 16 base points
        records = [
            ExperimentRecord(((F(1, 2),) * 2,) * 4, (F(0),)),
            ExperimentRecord(((F(1, 4), F(3, 4)),) * 4, (F(0),)),
        ]
        for name, value in (("SIGNELIM_MAX_N", "3"), ("SIGNELIM_BASE_POINT_CAP", "8")):
            with monkeypatch.context() as env:
                env.setenv(name, value)
                for call in (
                    lambda: data_upper_bound(records, expansion),
                    lambda: analyze_gate(expansion, records=records),
                    lambda: analyze_gate(expansion),
                    lambda: reversibility_certificate(expansion),
                ):
                    with pytest.raises(ResourceLimitError, match=name):
                        call()

    def test_boundary_records_are_rejected(self):
        bad = ExperimentRecord(
            point=((F(1), F(0)), (F(1, 2), F(1, 2))), output=(F(0),)
        )
        with pytest.raises(ValidationError, match="positions \\[2\\]"):
            data_upper_bound([projection_records()[0], bad], expand(FIRST))

    def test_interior_margin_is_enforced(self):
        # every projection record has a coordinate equal to 1/4: at delta it
        # is accepted, below delta it is rejected
        records = projection_records()
        with pytest.raises(ValidationError):
            data_upper_bound(records, expand(FIRST), delta=F(1, 3))
        assert (
            data_upper_bound(records, expand(FIRST), delta=F(1, 4)) is not None
        )
        message = r"must be > 0 and >= 250001/1000000\): positions \[1, 2, 3, 4\]"
        with pytest.raises(ValidationError, match=message):
            data_upper_bound(records, expand(FIRST), delta=F(1, 4) + F(1, 10**6))

    @pytest.mark.parametrize("bad", [0.5, True, "one half"])
    def test_inexact_record_entries_are_rejected_by_position(self, bad):
        # the first record holds F(1, 2), which equals 0.5 as a dict key: the
        # second record's entry must still be checked
        good = ExperimentRecord(((F(1, 2), F(1, 2)), (F(1, 4), F(3, 4))), (F(0),))
        for bad_record in (
            ExperimentRecord(((bad, F(1, 2)), (F(1, 3), F(2, 3))), (F(1),)),
            ExperimentRecord(((F(1, 3), F(2, 3)), (F(1, 2), F(1, 2))), (bad,)),
        ):
            for call in (data_upper_bound, lambda r, e: analyze_gate(e, records=r)):
                with pytest.raises(ValidationError, match="^record 2: "):
                    call([good, bad_record], expand(FIRST))

    def test_family_entries_must_be_exact(self):
        for bad in (0.1, True):
            with pytest.raises(ValidationError, match="^functional 1: "):
                ProjectionFamily.from_vectors([[1, 0], [bad, 1]], 2)
        half = F(1, 2)
        assert ProjectionFamily.from_vectors([[half, 1]], 2).functionals[0][0] is half

    def test_malformed_records_are_rejected(self):
        with pytest.raises(ValidationError):
            data_upper_bound(
                [
                    ExperimentRecord(
                        point=((F(1, 2), F(1, 2)),), output=(F(0),)
                    )
                ],
                expand(FIRST),
            )
        with pytest.raises(ValidationError):
            data_upper_bound(
                [
                    ExperimentRecord(
                        point=((F(1, 2), F(1, 4)), (F(1, 2), F(1, 2))),
                        output=(F(0),),
                    )
                ],
                expand(FIRST),
            )


# A gate whose blocks have two and three coordinates; the check reads only
# its shape.
CHECKED = Gate(
    arities=(2, 3),
    output_dim=1,
    table={idx: (F(0),) for idx in product(range(2), range(3))},
)
CHECK_COORDINATES = [F(-1, 4), F(0), F(1, 8), F(1, 4), F(1, 3), F(1, 2), F(3, 4), F(1)]
CHECK_DELTAS = [F(0), F(1, 8), F(1, 4), F(1, 3), F(-1, 8)]


@st.composite
def checked_blocks(draw, arity):
    """A block that sums to 1 unless drawn otherwise; zero, negative and
    delta-sized coordinates are common."""
    head = draw(st.lists(st.sampled_from(CHECK_COORDINATES), min_size=arity - 1,
                         max_size=arity - 1))
    if draw(st.booleans()):
        return tuple(head) + (1 - sum(head, F(0)),)
    return tuple(head) + (draw(st.sampled_from(CHECK_COORDINATES)),)


@st.composite
def checked_record_sets(draw):
    block = [checked_blocks(a) for a in CHECKED.arities]
    record = st.builds(ExperimentRecord, st.tuples(*block), st.just((F(0),)))
    return draw(st.lists(record, max_size=8))


def validation_error(records, delta, gate=CHECKED):
    """The error _validate_records raises, as (exception name, message)."""
    try:
        sensitivity._validate_records(records, expand(gate), delta)
    except (DomainError, ValidationError) as exc:
        return type(exc).__name__, str(exc)
    return None


def oracle_validation_error(records, delta, gate=CHECKED):
    plain = [(r.point, r.output) for r in records]
    return oracles.validate_records(plain, gate.arities, gate.output_dim, delta)


def record(*blocks, output=(F(0),)):
    return ExperimentRecord(point=tuple(tuple(map(F, b)) for b in blocks), output=output)


GOOD = record((F(1, 2), F(1, 2)), (F(1, 4), F(1, 4), F(1, 2)))
# block 1 is not interior and block 2 does not sum to 1: the check stops at
# block 1, so the record is rejected, not a sum error
ZERO_THEN_BAD_SUM = record((0, 1), (F(1, 2), F(1, 2), F(1, 2)))


class TestRecordValidation:
    """The array check against the record-by-record oracle."""

    @settings(max_examples=300, deadline=None)
    @given(checked_record_sets(), st.sampled_from(CHECK_DELTAS))
    @example([], F(0))
    @example([], F(-1, 8))
    @example([ZERO_THEN_BAD_SUM], F(0))
    @example([ZERO_THEN_BAD_SUM, record((0, 1), (F(1, 2), F(1, 4), F(1, 4)))], F(0))
    @example([ZERO_THEN_BAD_SUM, record((F(1, 2), F(1, 2)), (1, 1, -1))], F(1, 4))
    @example([GOOD, record((F(3, 4), F(1, 4)), (F(1, 4), F(1, 4), F(1, 2)))], F(1, 4))
    @example([GOOD, ZERO_THEN_BAD_SUM, GOOD, record((F(3, 2), F(-1, 2)), (1, 0, 0))],
             F(0))
    def test_matches_the_oracle(self, records, delta):
        expected = oracle_validation_error(records, delta)
        assert validation_error(records, delta) == expected
        if expected is None:
            coded = sensitivity._validate_records(records, expand(CHECKED), delta)
            assert coded.ids.shape == (len(records), 6)
            flat = [[*chain.from_iterable(r.point), *r.output] for r in records]
            assert [[coded.values[k] for k in row] for row in coded.ids.tolist()] == flat

    def test_a_coordinate_equal_to_delta_is_accepted(self):
        records = [GOOD, record((F(1, 4), F(3, 4)), (F(1, 4), F(1, 4), F(1, 2)))]
        assert validation_error(records, F(1, 4)) is None
        assert validation_error(records, F(1, 4) + F(1, 10**30)) == (
            "ValidationError",
            "records not strictly interior (every coordinate must be > 0 and "
            ">= 250000000000000000000000000001/1000000000000000000000000000000): "
            "positions [1, 2]",
        )

    def test_the_first_faulty_block_decides(self):
        assert validation_error([ZERO_THEN_BAD_SUM, GOOD], F(0)) == (
            "ValidationError",
            "records not strictly interior (every coordinate must be > 0): "
            "positions [1]",
        )
        # a later record's sum fault raises, whatever was rejected before it
        late = record((F(1, 2), F(1, 2)), (F(1, 2), F(1, 2), F(1, 2)))
        assert validation_error([ZERO_THEN_BAD_SUM, late], F(0)) == (
            "ValidationError",
            "record 2: block 2 coordinates must sum to 1",
        )

    @pytest.mark.parametrize("position", [0, 1, 2])
    @pytest.mark.parametrize(
        "bad",
        [
            record((F(1, 2), F(1, 2))),
            record((F(1, 2), F(1, 2)), (F(1, 2), F(1, 2))),
            record((F(1, 2), F(1, 2)), (F(1, 4), F(1, 4), F(1, 2)), output=()),
        ],
    )
    def test_length_faults_match_the_oracle(self, position, bad):
        records = [GOOD, GOOD]
        records.insert(position, bad)
        expected = oracle_validation_error(records, F(0))
        assert expected is not None
        assert validation_error(records, F(0)) == expected

    def test_length_faults_come_before_block_faults(self):
        # The one ordering that differs from a record-by-record check: every
        # length is checked first. CSV rows always have the gate's lengths.
        records = [ZERO_THEN_BAD_SUM, record((1, 0), (1, 0, 0)),
                   record((F(1, 2), F(1, 2)), (F(1, 2),) * 3), record((1, 0))]
        assert validation_error(records, F(0)) == (
            "ValidationError",
            "record 4: expected 2 blocks",
        )
        assert oracle_validation_error(records, F(0)) == (
            "ValidationError",
            "record 3: block 2 coordinates must sum to 1",
        )


# Coordinates and outputs whose denominators multiply past 2**63: every
# point rounds to (1/2, 1/2) blocks as floats, and the scaled ints overflow
# int64. Outputs sit exactly eps apart, or eps plus a sliver.
TINY, SLIVER, EPS = F(1, 3**41), F(1, 11**20), F(1, 7**23)
HALF = F(1, 2)
BIG_POINTS = [
    ((HALF + TINY, HALF - TINY), (HALF, HALF)),
    ((HALF, HALF), (HALF + F(1, 5**28), HALF - F(1, 5**28))),
    ((HALF + TINY, HALF - TINY), (HALF + F(1, 5**28), HALF - F(1, 5**28))),
    ((HALF - TINY, HALF + TINY), (HALF, HALF)),
]
BIG_OUTPUTS = [F(1, 3), F(1, 3) + EPS, F(1, 3) + EPS + SLIVER, F(1, 3) - EPS, F(2, 3)]


@st.composite
def big_record_sets(draw):
    output = st.tuples(*[st.sampled_from(BIG_OUTPUTS)] * 2)
    record = st.builds(ExperimentRecord, st.sampled_from(BIG_POINTS), output)
    return draw(st.lists(record, min_size=2, max_size=10))


@st.composite
def id_matrices(draw):
    """Small int8 or int64 matrices with repeated rows, one column included."""
    dtype = draw(st.sampled_from([np.int8, np.int64]))
    if dtype is np.int8:
        values = st.integers(-2, 2)
    else:
        values = st.sampled_from([-(2**62), -1, 0, 3, 2**62])
    width = draw(st.integers(1, 4))
    row = st.lists(values, min_size=width, max_size=width)
    pool = draw(st.lists(row, min_size=1, max_size=5))
    rows = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=12))
    return np.array(rows, dtype=dtype)


class TestSortedRows:
    @settings(max_examples=200, deadline=None)
    @given(id_matrices())
    @example(np.array([[3], [3], [3]], dtype=np.int8))
    @example(np.array([[1, -1], [0, 2], [1, -1], [0, 1]], dtype=np.int64))
    def test_ids_are_lexicographic_ranks_of_the_distinct_rows(self, matrix):
        order, first = sensitivity._sorted_rows(matrix)
        # each row's rank among the distinct rows, and one row of each rank
        ids = np.empty(order.size, dtype=np.int64)
        ids[order] = np.cumsum(first) - 1
        representatives = order[first]
        rows = [tuple(row) for row in matrix.tolist()]
        distinct = sorted(set(rows))
        assert ids.tolist() == [distinct.index(row) for row in rows]
        assert [rows[k] for k in representatives.tolist()] == distinct
        assert ids[representatives].tolist() == list(range(len(distinct)))


class TestExactCollisions:
    """Collision pairs and scores stay exact past int64 and float precision."""

    def test_the_inputs_overflow_int64(self):
        records = [ExperimentRecord(p, (o, o)) for p, o in zip(BIG_POINTS, BIG_OUTPUTS)]
        coded = sensitivity._coded(records, (2, 2), 2)
        points, scale = sensitivity._scaled(coded.values, coded.ids[:, :4])
        assert scale > 2**63
        assert max(points.ravel()) > 2**63
        assert len({tuple(float(c) for c in p) for p in points.tolist()}) == 1
        assert math.lcm(*(v.denominator for v in BIG_OUTPUTS + [EPS])) > 2**63

    @settings(max_examples=150, deadline=None)
    @given(big_record_sets(), st.sampled_from([F(0), EPS, EPS - SLIVER, EPS + SLIVER]))
    def test_pairs_and_scores_match_the_oracle(self, records, eps):
        plain = [(r.point, r.output) for r in records]
        assert sorted(collision_pairs(records, eps)) == oracles.collision_pairs(plain, eps)
        scores, _ = sensitivity._collision_scores(records, expand(OFF_ORIGIN), eps, F(0))
        expected = oracles.collision_scores(OFF_ORIGIN.arities, plain, eps)
        assert {z: s.value for z, s in scores.items()} == expected

    @pytest.mark.parametrize("eps", [EPS, EPS - SLIVER])
    def test_ties_at_the_window_edge(self, eps):
        # first components V, V, V + EPS, V + EPS, V + EPS + SLIVER: the window
        # of each V ends among tied values
        v = F(1, 3)
        firsts = [v + EPS, v, v + EPS + SLIVER, v + EPS, v]
        records = [
            ExperimentRecord(BIG_POINTS[k % 4], (first, F(2, 3)))
            for k, first in enumerate(firsts)
        ]
        plain = [(r.point, r.output) for r in records]
        pairs = collision_pairs(records, eps)
        assert sorted(pairs) == oracles.collision_pairs(plain, eps)
        assert ((1, 3) in pairs) == (eps == EPS)
        assert (0, 2) in pairs and (1, 4) in pairs and (0, 4) not in pairs

    @pytest.mark.parametrize("eps", [F(0), EPS])
    def test_equal_points_with_equal_outputs_do_not_collide(self, eps):
        out = (F(1, 3), F(1, 3) + EPS)
        records = [
            ExperimentRecord(BIG_POINTS[0], out),
            ExperimentRecord(BIG_POINTS[3], out),
            ExperimentRecord(BIG_POINTS[0], out),
            ExperimentRecord(BIG_POINTS[0], out),
        ]
        assert collision_pairs(records, eps) == [(0, 1), (1, 2), (1, 3)]
        bound = data_upper_bound(records, expand(OFF_ORIGIN), eps)
        assert bound.collisions == 3
        assert data_upper_bound(records[2:], expand(OFF_ORIGIN), eps) is None


class TestExperimentCsv:
    def test_header_layout(self):
        assert experiment_header((2, 3), 2) == [
            "b1_0",
            "b1_1",
            "b2_0",
            "b2_1",
            "b2_2",
            "y1",
            "y2",
        ]

    def test_round_trip(self, tmp_path):
        path = tmp_path / "records.csv"
        path.write_text(
            "b1_0,b1_1,b2_0,b2_1,y1\n"
            "3/4,1/4,1/2,1/2,1/4\n"
            "0.5,0.5,1/3,2/3,0.5\n"
        )
        records = parse_experiment_csv(path, FIRST)
        assert len(records) == 2
        assert records[0].point == ((F(3, 4), F(1, 4)), (F(1, 2), F(1, 2)))
        assert records[1].output == (F(1, 2),)

    def test_rejects_wrong_header(self, tmp_path):
        path = tmp_path / "records.csv"
        path.write_text("a,b,c,d,e\n")
        with pytest.raises(ValidationError, match="header"):
            parse_experiment_csv(path, FIRST)

    def test_rejects_bad_rows_with_line_numbers(self, tmp_path):
        path = tmp_path / "records.csv"
        path.write_text(
            "b1_0,b1_1,b2_0,b2_1,y1\n"
            "3/4,1/4,1/2,1/2\n"
        )
        with pytest.raises(ValidationError, match=":2:"):
            parse_experiment_csv(path, FIRST)
        path.write_text(
            "b1_0,b1_1,b2_0,b2_1,y1\n"
            "3/4,1/2,1/2,1/2,1/4\n"
        )
        with pytest.raises(ValidationError, match="sum to 1"):
            parse_experiment_csv(path, FIRST)
        path.write_text(
            "b1_0,b1_1,b2_0,b2_1,y1\n"
            "3/4,1/4,1/2,oops,1/4\n"
        )
        with pytest.raises(ValidationError, match=":2:"):
            parse_experiment_csv(path, FIRST)

    @pytest.mark.parametrize(
        "rows, fault",
        [
            # the first faulty line is reported; a blank line still counts
            (["1/2,1/2,1/2,1/2,0", "", "3/2,-1/2,1/2,1/2,0", "1/2,1/2,1/2,1/4,0"],
             ":4: block 1 has a negative coordinate"),
            (["1/2,1/2,1/2,1/2,0", "1/2,1/2,1/2,1/4,0", "3/2,-1/2,1/2,1/2,0"],
             ":3: block 2 coordinates must sum to 1"),
            # a block with both faults reports its sum; an earlier block first
            (["1/2,1/2,3/2,-1/4,0"], ":2: block 2 coordinates must sum to 1"),
            (["3/2,-1/2,3/2,-1/4,0"], ":2: block 1 has a negative coordinate"),
            (["1,0,3/2,-1/2,0"], ":2: block 2 has a negative coordinate"),
        ],
    )
    def test_block_faults_name_the_first_line_and_block(self, tmp_path, rows, fault):
        path = tmp_path / "records.csv"
        path.write_text("\n".join(["b1_0,b1_1,b2_0,b2_1,y1"] + rows) + "\n")
        with pytest.raises(ValidationError) as info:
            parse_experiment_csv(path, FIRST)
        assert str(info.value) == f"{path}{fault}"

    def test_field_faults_come_before_block_faults(self, tmp_path):
        # every row is read, and its fields checked, before any block is
        path = tmp_path / "records.csv"
        path.write_text("b1_0,b1_1,b2_0,b2_1,y1\n1/2,1/2,1/2,1/4,0\n1/2,1/2,oops,1/2,0\n")
        with pytest.raises(ValidationError, match=f"^{re.escape(str(path))}:3: "):
            parse_experiment_csv(path, FIRST)

    def test_zero_coordinates_and_no_rows_are_accepted(self, tmp_path):
        path = tmp_path / "records.csv"
        path.write_text("b1_0,b1_1,b2_0,b2_1,y1\n1,0,0,1,1/2\n")
        assert parse_experiment_csv(path, FIRST)[0].point == ((1, 0), (0, 1))
        path.write_text("b1_0,b1_1,b2_0,b2_1,y1\n")
        assert parse_experiment_csv(path, FIRST) == []

    def test_rejects_empty_files(self, tmp_path):
        path = tmp_path / "records.csv"
        path.write_text("")
        with pytest.raises(ValidationError, match="empty"):
            parse_experiment_csv(path, FIRST)


# Cell texts for the reader: equal values spelled differently, padding,
# faulty texts, and blocks that do or do not sum to 1.
CSV_BLOCKS = ["1/2,1/2", "0.5, 2/4", "1/4,3/4", " 0.25,0.75 ", "1,0", "3/2,-1/2",
              "1/2,1/4"]
CSV_OUTPUTS = ["0", "1/3", " 2/6", "-1/2", "1", "0.5"]
CSV_CELLS = ["1/2", "2/4", "oops", "", "1/0", " 1/3 ", "1e-1", "0x1"]
CSV_HEADERS = ["b1_0,b1_1,b2_0,b2_1,y1", " b1_0 ,b1_1,b2_0,b2_1, y1",
               "b1_0,b1_1,b2_0,y1", "b1_1,b1_0,b2_0,b2_1,y1"]


@st.composite
def csv_lines(draw):
    """One CSV line: a row of blocks and an output, a blank line, or a row of
    arbitrary cells and field count."""
    kind = draw(st.sampled_from(["row", "row", "row", "blank", "cells"]))
    if kind == "blank":
        return ""
    if kind == "row":
        blocks = [draw(st.sampled_from(CSV_BLOCKS)) for _ in range(2)]
        return ",".join(blocks + [draw(st.sampled_from(CSV_OUTPUTS))])
    pool = CSV_CELLS + CSV_OUTPUTS
    return ",".join(draw(st.lists(st.sampled_from(pool), min_size=3, max_size=7)))


@st.composite
def csv_texts(draw):
    """A whole CSV file: empty, header only, or a header and lines."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.sampled_from(["", "\ufeff"]))
    bom = draw(st.sampled_from(["", "\ufeff"]))
    header = draw(st.sampled_from(CSV_HEADERS[:1] * 3 + CSV_HEADERS))
    lines = draw(st.lists(csv_lines(), max_size=8))
    return bom + "\n".join([header] + lines) + draw(st.sampled_from(["\n", ""]))


def read_csv(path, gate=FIRST):
    """_read_experiment_csv's rows as (line, point, output), or its error."""
    try:
        coded = sensitivity._read_experiment_csv(path, gate)
    except (DomainError, ValidationError) as exc:
        return type(exc).__name__, str(exc)
    rows = [[coded.values[k] for k in row] for row in coded.ids.tolist()]
    starts = np.cumsum((0,) + gate.arities).tolist()
    return [
        (line, tuple(tuple(r[i:j]) for i, j in zip(starts, starts[1:])), tuple(r[starts[-1]:]))
        for line, r in zip(coded.lines, rows)
    ]


def parsed_csv(path, gate=FIRST):
    """parse_experiment_csv's records as (point, output), or its error."""
    try:
        return [(r.point, r.output) for r in parse_experiment_csv(path, gate)]
    except (DomainError, ValidationError) as exc:
        return type(exc).__name__, str(exc)


class TestCodedExperimentCsv:
    """The coded reader against the row-by-row reference reader."""

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(csv_texts())
    @example("")
    @example("b1_0,b1_1,b2_0,b2_1,y1\n")
    @example("b1_0,b1_1,b2_0,b2_1,y1\n1/2,1/2,1/2\n\n1/2,oops,1/2,1/2,0\n")
    @example("b1_0,b1_1,b2_0,b2_1,y1\n1/2,oops,1/2,1/2\n")
    @example("b1_0,b1_1,b2_0,b2_1,y1\n\n1/2,1/2,3/2,-1/2,0\n1/2,1/2,1/2,1/4,0\n")
    def test_matches_the_reference_reader(self, tmp_path, text):
        path = tmp_path / "records.csv"
        path.write_text(text, encoding="utf-8")
        expected = oracles.read_experiment_csv(path, FIRST.arities, FIRST.output_dim)
        assert read_csv(path) == expected
        expected = oracles.parse_experiment_csv(path, FIRST.arities, FIRST.output_dim)
        if isinstance(expected, list):
            expected = [(point, output) for _, point, output in expected]
        assert parsed_csv(path) == expected

    def test_the_first_faulty_line_decides(self, tmp_path):
        path = tmp_path / "records.csv"
        head = "b1_0,b1_1,b2_0,b2_1,y1\n"
        # a field count fault, then a cell fault on a later line
        path.write_text(head + "1/2,1/2,1/2,1/2\n\n1/2,oops,1/2,1/2,0\n")
        assert read_csv(path) == (
            "ValidationError", f"{path}:2: expected 5 fields, got 4"
        )
        # a cell fault, then a field count fault on a later line
        path.write_text(head + "1/2,oops,1/2,1/2,0\n1/2,1/2\n")
        assert read_csv(path) == (
            "ValidationError", f"{path}:2: cannot parse rational from 'oops': "
            "Invalid literal for Fraction: 'oops'"
        )
        # both on one line: the field count is checked first
        path.write_text(head + "\n1/2,oops,1/2,1/2\n")
        assert read_csv(path) == (
            "ValidationError", f"{path}:3: expected 5 fields, got 4"
        )

    def test_equal_values_share_one_id_in_value_order(self, tmp_path):
        path = tmp_path / "records.csv"
        path.write_text(
            "b1_0,b1_1,b2_0,b2_1,y1\n"
            "1/2,1/2,1/4,3/4,0\n"
            "2/4, 0.5,0.25,0.75,0\n"
            "3/4,1/4,1/2,1/2,-1/3\n"
        )
        coded = sensitivity._read_experiment_csv(path, FIRST)
        assert coded.values == (F(-1, 3), F(0), F(1, 4), F(1, 2), F(3, 4))
        assert coded.ids.tolist() == [[3, 3, 2, 4, 1], [3, 3, 2, 4, 1], [4, 2, 3, 3, 0]]
        assert coded.lines == (2, 3, 4)
        # the first two rows are one point with one output: no collision
        assert data_upper_bound(coded, expand(FIRST)) is None
        assert data_upper_bound(parse_experiment_csv(path, FIRST), expand(FIRST)) is None

    def test_the_point_scale_reads_the_coordinates_only(self, tmp_path):
        path = tmp_path / "records.csv"
        path.write_text("b1_0,b1_1,b2_0,b2_1,y1\n1/2,1/2,1/4,3/4,1/7\n1/3,2/3,1,0,5/9\n")
        coded = sensitivity._read_experiment_csv(path, FIRST)
        points, scale = sensitivity._scaled(coded.values, coded.ids[:, :4])
        assert scale == 12
        assert points.tolist() == [[6, 6, 3, 9], [4, 8, 12, 0]]
        outputs, scale = sensitivity._scaled(coded.values, coded.ids[:, 4:], F(1, 2))
        assert scale == 126
        assert outputs.tolist() == [[18], [70]]

    @settings(max_examples=100, deadline=None)
    @given(record_sets())
    def test_record_ids_are_value_ranks(self, records):
        arities = (2, 2)
        dim = len(records[0].output) if records else 1
        coded = sensitivity._coded(records, arities, dim)
        assert list(coded.values) == sorted(set(coded.values))
        flat = [v for r in records for v in chain(*r.point, r.output)]
        assert [coded.values[k] for k in coded.ids.ravel().tolist()] == flat
        assert len(coded.ids) == len(records)
