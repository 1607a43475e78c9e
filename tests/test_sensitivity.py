import random
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from signelim import (
    Certificate,
    DomainError,
    ExperimentRecord,
    Gate,
    ProjectionFamily,
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
    reduced_partial,
    reversibility_certificate,
    sensitivity_lower_set,
    sensitivity_score,
    sign_over_region,
    total_sign,
    verify_certificate,
    witness_signs,
)
from signelim import sensitivity
from signelim.errors import ResourceLimitError

import oracles
from conftest import fail_if_called

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


def seeded_gate(seed, arities, output_dim, kind):
    """A random table, or an additive one (a sum of per-block vectors)."""
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
                    if verdict == 0:
                        assert all(v == 0 for v in values)
                    elif verdict == 1:
                        assert all(v >= 0 for v in values)
                        assert any(v > 0 for v in values)
                    elif verdict == -1:
                        assert all(v <= 0 for v in values)
                        assert any(v < 0 for v in values)

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

    def test_witness_signs_follow_family_order(self, color_gate):
        expansion = expand(color_gate)
        family = ProjectionFamily.from_vectors(
            [w for w, _ in COLOR_WITNESSES], 4
        )
        signs = witness_signs(expansion, (0, 0, 0), family)
        assert [ts for _, ts in signs] == [ts for _, ts in COLOR_WITNESSES]

    def test_family_dimension_must_match(self, color_gate):
        family = ProjectionFamily.from_vectors([(1,)], 1)
        with pytest.raises(DomainError):
            witness_signs(expand(color_gate), (0, 0, 0), family)

    def test_sweeps_reject_a_wrong_dimension_family(self, color_gate):
        family = ProjectionFamily.from_vectors([(1,)], 1)
        with pytest.raises(DomainError):
            analyze_gate(expand(color_gate), family)
        with pytest.raises(DomainError):
            reversibility_certificate(expand(color_gate), family)

    def test_functional_width_must_match(self, color_gate):
        with pytest.raises(DomainError):
            total_sign(expand(color_gate), (0, 0, 0), (1,))


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

    def test_duplicates_keep_their_first_occurrence(self):
        family = ProjectionFamily.from_vectors(
            [(1, -2), (-1, 2), (0, 3), ("2", 1), (0, -3), (1, -2), (-2, -1), (0, 1)],
            2,
        )
        assert family.functionals == ((1, -2), (0, 3), (2, 1), (0, 1))


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


@st.composite
def scored_masks(draw):
    """(n, mask over table(n), witnesses or None) for the score routes.

    Masks are empty, full, one vector, a random subset, or the set that a
    few total signs eliminate, drawn mostly from "u" (the witnesses are then
    returned as (functional, total sign) pairs, dead rows included).
    """
    n = draw(st.integers(1, 4))
    size = len(oracles.canonical_vectors(n))
    kind = draw(st.sampled_from(["empty", "full", "singleton", "random", "witnesses"]))
    witnesses = None
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
        rows = draw(st.lists(st.tuples(*[u_heavy] * n), min_size=1, max_size=4))
        witnesses = [((k,), t) for k, t in enumerate(rows)]
        hit = oracles.eliminated(rows, n)
        mask = np.array([s in hit for s in oracles.canonical_vectors(n)])
    return n, mask, witnesses


class TestScoreRoutes:
    @settings(max_examples=300, deadline=None)
    @given(scored_masks())
    @example((3, np.zeros(13, dtype=bool), None))
    @example((3, np.ones(13, dtype=bool), None))
    @example((2, np.array([True, False, False, False]), None))
    @example((3, np.zeros(13, dtype=bool), [((0,), (2, 2, 2)), ((1,), (0, 0, 0))]))
    def test_scores_match_the_complement_route(self, case):
        n, mask, witnesses = case
        members = [s for s, hit in zip(oracles.canonical_vectors(n), mask) if hit]
        expect = oracles.lower_score(members, n)
        assert sensitivity._lower_score(n, mask).value == expect
        if witnesses is not None:
            assert sensitivity._witness_score(n, mask, witnesses).value == expect

    @pytest.mark.parametrize("n", range(1, 6))
    def test_one_live_sign_scores_three_or_one(self, n):
        # every total sign of length n with a +-1 entry, alone and with its
        # negation and a dead row beside it
        for t in product((-1, 0, 1, UNDETERMINED), repeat=n):
            if not any(e in (-1, 1) for e in t):
                continue
            negated = tuple(e if e == UNDETERMINED else -e for e in t)
            hit = oracles.eliminated([t], n)
            mask = np.array([s in hit for s in oracles.canonical_vectors(n)])
            witnesses = [((1,), t), ((2,), negated), ((3,), (UNDETERMINED,) * n)]
            score = sensitivity._witness_score(n, mask, witnesses)
            assert score.value == (1 if UNDETERMINED in t else 3)
            if n <= 3:
                assert score.value == oracles.lower_score(hit, n)

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

    def test_random_gate_needs_no_score_or_sweep_kernel_call(self, monkeypatch):
        calls = []

        def counted(kernel):
            def wrapper(*args):
                calls.append(kernel.__name__)
                return kernel(*args)

            return wrapper

        for name in ("eliminated_any_mask", "_row_masks"):
            monkeypatch.setattr(sensitivity, name, counted(getattr(sensitivity, name)))
        gate = seeded_gate(11, (2,) * 6, 2, "random")
        analysis = analyze_gate(expand(gate))
        assert calls == []
        assert len({id(r.mask) for r in analysis.reports}) == 1
        assert not analysis.reports[0].mask.any()
        assert analysis.lower.value == 1
        assert analysis.certificate is None


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
        cert = sensitivity._greedy_certificate((0,), signs, n)
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


def projection_records():
    """Interior observations of the first-input projection gate."""
    records = []
    for a, b in product((F(1, 4), F(1, 2)), (F(1, 4), F(3, 4))):
        point = ((1 - a, a), (1 - b, b))
        output = evaluate(expand(FIRST), point)
        records.append(ExperimentRecord(point=point, output=output))
    return records


class TestDataBounds:
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
        pairs = sensitivity._collision_pairs(records, eps)
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
        assert sensitivity._collision_pairs(records, eps) == [(0, 1)]
        assert sensitivity._collision_pairs(records, eps - F(1, 1000)) == []
        assert sensitivity._collision_pairs(records, F(0)) == []

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

    def test_rejects_empty_files(self, tmp_path):
        path = tmp_path / "records.csv"
        path.write_text("")
        with pytest.raises(ValidationError, match="empty"):
            parse_experiment_csv(path, FIRST)
