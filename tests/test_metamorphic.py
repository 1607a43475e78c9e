"""Metamorphic relations of the gate analysis.

Exact symmetries of the math give a check that needs no oracle, so it holds
at any reduced dimension N; here N <= 8. Each relation runs two analyses, of
a gate and of its transform, and compares every base point:

* permuting the input blocks maps each base point's score, certificate
  presence and lower set over, the lower set's coordinates permuted
  blockwise;
* relabelling the truth values inside each block maps each base point's
  score, certificate presence and lower set over, the lower set's
  coordinates relabelled within each block;
* a positive scale and a constant shift of the outputs, then a permutation
  and negation of the output components, leave each base point's score,
  lower set and certificate presence unchanged under the default family,
  which those output maps permute.
"""

from fractions import Fraction as F
from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st

from signelim import Gate, analyze_gate, expand, reduced_coordinates

VALUES = st.integers(-3, 3).map(F)


@st.composite
def gates(draw):
    """One to four blocks of arity 2 or 3 (so N <= 8), one to three outputs,
    and a random, additive or perturbed additive table."""
    blocks = draw(st.integers(1, 4))
    arities = tuple(draw(st.lists(st.sampled_from([2, 3]), min_size=blocks, max_size=blocks)))
    dim = draw(st.integers(1, 3))
    cells = list(product(*map(range, arities)))
    vector = st.tuples(*[VALUES] * dim)
    kind = draw(st.sampled_from(["random", "additive", "perturbed"]))
    if kind == "random":
        outputs = draw(st.lists(vector, min_size=len(cells), max_size=len(cells)))
        return Gate(arities, dim, dict(zip(cells, outputs)))
    parts = [draw(st.lists(vector, min_size=a, max_size=a)) for a in arities]
    table = {
        idx: tuple(sum(parts[i][j][c] for i, j in enumerate(idx)) for c in range(dim))
        for idx in cells
    }
    if kind == "perturbed":
        for idx in draw(st.lists(st.sampled_from(cells), max_size=3, unique=True)):
            c = draw(st.integers(0, dim - 1))
            bump = draw(st.sampled_from([F(-1, 3), F(1, 3)]))
            table[idx] = tuple(v + bump * (k == c) for k, v in enumerate(table[idx]))
    return Gate(arities, dim, table)


def permutation(n):
    return st.permutations(range(n)).map(tuple)


def by_point(gate):
    return {r.base_point: r for r in analyze_gate(expand(gate)).reports}


def normalized(s):
    """s with its first nonzero entry made +1."""
    return s if next(e for e in s if e) > 0 else tuple(-e for e in s)


def mapped(lower, old_free, new_free, old_of):
    """The vectors of ``lower``, over the coordinates ``old_free``, read over
    ``new_free``, where new coordinate c is old coordinate old_of(c)."""
    where = {c: k for k, c in enumerate(old_free)}
    take = [where[old_of(c)] for c in new_free]
    return {normalized(tuple(s[k] for k in take)) for s in lower}


def assert_maps_over(gate, image, point_of, lower_of=None):
    """Each base point z of gate matches point_of(z) of image: same score and
    certificate presence, and, given lower_of(z, lower set), that lower set."""
    before, after = by_point(gate), by_point(image)
    assert len(before) == len(after)
    for z, report in before.items():
        other = after[point_of(z)]
        assert other.score == report.score
        assert (other.certificate is None) == (report.certificate is None)
        if lower_of is not None:
            assert other.sens_lower == lower_of(z, report.sens_lower)


class TestMetamorphicRelations:
    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_permuting_the_input_blocks(self, data):
        gate = data.draw(gates())
        # new block i is old block p[i]
        p = data.draw(permutation(len(gate.arities)))
        arities = tuple(gate.arities[k] for k in p)
        image = Gate(
            arities,
            gate.output_dim,
            {tuple(x[k] for k in p): y for x, y in gate.table.items()},
        )

        def lower_of(z, lower):
            old = reduced_coordinates(gate.arities, z)
            new = reduced_coordinates(arities, tuple(z[k] for k in p))
            return mapped(lower, old, new, lambda c: (p[c[0]], c[1]))

        assert_maps_over(gate, image, lambda z: tuple(z[k] for k in p), lower_of)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_relabelling_the_truth_values_in_each_block(self, data):
        gate = data.draw(gates())
        # the image reads truth value j of block i as value labels[i][j] of gate
        labels = [data.draw(permutation(a)) for a in gate.arities]
        image = Gate(
            gate.arities,
            gate.output_dim,
            {
                y: gate.table[tuple(labels[i][j] for i, j in enumerate(y))]
                for y in product(*map(range, gate.arities))
            },
        )

        def point_of(z):
            return tuple(labels[i].index(j) for i, j in enumerate(z))

        def lower_of(z, lower):
            old = reduced_coordinates(gate.arities, z)
            new = reduced_coordinates(gate.arities, point_of(z))
            return mapped(lower, old, new, lambda c: (c[0], labels[c[0]][c[1]]))

        assert_maps_over(gate, image, point_of, lower_of)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_scaling_shifting_and_permuting_the_outputs(self, data):
        gate = data.draw(gates())
        dim = gate.output_dim
        scale = data.draw(st.sampled_from([F(1, 2), F(2), F(3), F(5, 3)]))
        shift = data.draw(st.tuples(*[st.sampled_from([F(0), F(1), F(-1, 3)])] * dim))
        p = data.draw(permutation(dim))
        signs = data.draw(st.tuples(*[st.sampled_from([1, -1])] * dim))
        image = Gate(
            gate.arities,
            dim,
            {
                x: tuple(scale * signs[k] * y[p[k]] + shift[k] for k in range(dim))
                for x, y in gate.table.items()
            },
        )
        assert_maps_over(gate, image, lambda z: z, lambda z, lower: lower)
