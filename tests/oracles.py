"""Independent brute-force reference implementations for the test suite.

Everything here is written against the documented definitions only, with
plain itertools and tuples, no numpy and no imports from the package, so the
package's kernels and closed forms can be checked against a second route.
"""

from fractions import Fraction
from itertools import product

UNDET = 2


def all_sign_vectors(n):
    """Every nonzero vector over {-1, 0, +1}**n."""
    return [v for v in product((0, 1, -1), repeat=n) if any(v)]


def canonical(v):
    first = next(e for e in v if e)
    return tuple(v) if first > 0 else tuple(-e for e in v)


def order_key(v):
    return tuple({0: 0, 1: 1, -1: 2}[e] for e in v)


def canonical_vectors(n):
    return sorted({canonical(v) for v in all_sign_vectors(n)}, key=order_key)


def eliminates(t, s):
    pos = neg = False
    for ti, si in zip(t, s):
        if ti == UNDET:
            if si != 0:
                return False
        elif ti and si:
            if ti * si > 0:
                pos = True
            else:
                neg = True
    return pos != neg


def eliminated(X, n):
    members = [tuple(t) for t in X]
    return {
        s for s in canonical_vectors(n) if any(eliminates(t, s) for t in members)
    }


def jointly_eliminated(X, n):
    members = [tuple(t) for t in X]
    return {
        s for s in canonical_vectors(n) if all(eliminates(t, s) for t in members)
    }


def lower_score(S, n):
    """3**n - 2 * |eliminated set of the canonical vectors not in S|.

    The complement route of the score, vector by vector.
    """
    members = {tuple(s) for s in S}
    complement = [s for s in canonical_vectors(n) if s not in members]
    return 3**n - 2 * len(eliminated(complement, n))


def evaluate_table(arities, table, point):
    """Multilinear interpolation of a table, written directly from scratch."""
    total = None
    for idx in product(*(range(a) for a in arities)):
        weight = Fraction(1)
        for block, j in zip(point, idx):
            weight *= Fraction(block[j])
        vec = table[idx]
        term = [weight * Fraction(v) for v in vec]
        total = term if total is None else [a + b for a, b in zip(total, term)]
    return tuple(total)


def reduced_partial(arities, scalar, z, block, coord):
    """Slice of a scalar table at coord minus its slice at z[block].

    `scalar` maps every index tuple to a number; the result maps the index
    tuples of the other blocks (original order) to the differences.
    """
    rest = arities[:block] + arities[block + 1 :]
    out = {}
    for idx in product(*(range(a) for a in rest)):
        plus = idx[:block] + (coord,) + idx[block:]
        minus = idx[:block] + (z[block],) + idx[block:]
        out[idx] = scalar[plus] - scalar[minus]
    return out


def region_sign(form, anchor):
    """Sign of a scalar multilinear form over the region anchored at `anchor`.

    0 when every coefficient is 0, +1 when none is negative and the anchor
    coefficient is positive, -1 symmetrically, UNDET otherwise.
    """
    values = list(form.values())
    if all(v == 0 for v in values):
        return 0
    if all(v >= 0 for v in values) and form[anchor] > 0:
        return 1
    if all(v <= 0 for v in values) and form[anchor] < 0:
        return -1
    return UNDET


def total_sign(arities, table, z, w):
    """Region signs of the reduced partials of w . table at base point z."""
    scalar = {
        idx: sum((Fraction(c) * Fraction(v) for c, v in zip(w, vec)), Fraction(0))
        for idx, vec in table.items()
    }
    return tuple(
        region_sign(reduced_partial(arities, scalar, z, i, j), z[:i] + z[i + 1 :])
        for i, a in enumerate(arities)
        for j in range(a)
        if j != z[i]
    )


def collision_pairs(records, eps):
    """Index pairs (i, j), i < j, of colliding records, by scanning every pair.

    records are (point, output) pairs; two records collide when their points
    differ and every output component differs by at most eps.
    """
    return [
        (i, j)
        for i, a in enumerate(records)
        for j in range(i + 1, len(records))
        if a[0] != records[j][0]
        and all(abs(p - q) <= eps for p, q in zip(a[1], records[j][1]))
    ]


def collision_scores(arities, records, eps):
    """{base point: 3**N - 2 * |eliminated set|} of the collision signs.

    Each pair of collision_pairs contributes the canonical sign of its
    difference on the free coordinates. Empty when nothing collides.
    """
    pairs = [(records[i], records[j]) for i, j in collision_pairs(records, eps)]
    if not pairs:
        return {}
    n = sum(a - 1 for a in arities)
    scores = {}
    for z in product(*(range(a) for a in arities)):
        signs = set()
        for a, b in pairs:
            diff = [
                (q > p) - (q < p)
                for i, arity in enumerate(arities)
                for j in range(arity)
                if j != z[i]
                for p, q in [(a[0][i][j], b[0][i][j])]
            ]
            if any(diff):
                signs.add(canonical(diff))
        scores[z] = 3**n - 2 * len(eliminated(signs, n))
    return scores


def greedy_cover(rows, n):
    """Positions of the pruned greedy cover of canonical_vectors(n) by rows.

    Each step takes the first row whose eliminated set adds the most uncovered
    vectors; pruning then drops, in the order chosen, every row the other
    kept rows still cover without. The rows must cover everything together.
    """
    universe = set(canonical_vectors(n))
    sets = [eliminated([t], n) for t in rows]
    covered, chosen = set(), []
    while covered != universe:
        best = max(range(len(rows)), key=lambda k: len(sets[k] - covered))
        chosen.append(best)
        covered |= sets[best]
    kept = list(chosen)
    for k in chosen:
        trial = [j for j in kept if j != k]
        if trial and set().union(*(sets[j] for j in trial)) == universe:
            kept = trial
    return kept


def column_rank(rows):
    """Rank over the rationals, by Gaussian elimination on Fractions."""
    work = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    for col in range(len(work[0])):
        pivot = next((r for r in range(rank, len(work)) if work[r][col]), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        for r in range(rank + 1, len(work)):
            factor = work[r][col] / work[rank][col]
            work[r] = [a - factor * b for a, b in zip(work[r], work[rank])]
        rank += 1
    return rank
