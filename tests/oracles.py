"""Independent brute-force reference implementations for the test suite.

Everything here is written against the documented definitions only, with
plain itertools and tuples, no numpy and no imports from the package, so the
package's kernels and closed forms can be checked against a second route.
"""

import csv
import math
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product

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


def live_classes(rows):
    """One row per +- class of the rows with a +-1 entry, the first +-1
    made +1 ("u" kept), sorted."""
    out = set()
    for t in rows:
        first = next((e for e in t if e in (-1, 1)), None)
        if first:
            out.add(tuple(e if e == UNDET else first * e for e in t))
    return sorted(out)


def union_count(rows, intersection_count):
    """|eliminated(rows)| for total-sign rows that may contain "u", by
    inclusion-exclusion over live_classes(rows).

    The rows of a subset T eliminate together only vectors that are 0 on W,
    the union of T's "u" positions. Off W the rows are sign vectors, so the
    term is the intersection count of T's rows with W deleted, each negated
    to lead with +1 and repeats dropped, or 0 when a row has no +-1 left.
    ``intersection_count`` takes such distinct canonical rows, as the
    package's closed form does; this function only reduces to it.
    """
    live, total = live_classes(rows), 0
    for size in range(1, len(live) + 1):
        for subset in combinations(live, size):
            w = {j for t in subset for j, e in enumerate(t) if e == UNDET}
            reduced = [tuple(e for j, e in enumerate(t) if j not in w) for t in subset]
            if all(any(t) for t in reduced):
                signed = intersection_count(sorted({canonical(t) for t in reduced}))
                total += signed if size % 2 else -signed
    return total


def aligned_columns(rows, alpha):
    """Positions of the nonzero columns c of the rows with c[i] in {0, alpha[i]}
    for every row i, or c[i] in {0, -alpha[i]} for every row i."""
    out = set()
    for j in range(len(rows[0])):
        col = [row[j] for row in rows]
        if not any(col):
            continue
        if all(c in (0, a) for c, a in zip(col, alpha)) or all(
            c in (0, -a) for c, a in zip(col, alpha)
        ):
            out.add(j)
    return out


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


def project(table, w):
    """The scalar table of w . table: each cell's output dotted with w."""
    return {
        idx: sum((Fraction(c) * Fraction(v) for c, v in zip(w, vec)), Fraction(0))
        for idx, vec in table.items()
    }


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
    scalar = project(table, w)
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


def validate_records(records, arities, output_dim, delta):
    """The first error of the record check, as (exception name, message), or None.

    records are (point, output) pairs. Records are checked in order, and each
    one block by block: a wrong block count or length, a block whose
    coordinates do not sum to 1, or a wrong output length is an error at once;
    a block with a coordinate <= 0 or < delta rejects its record and ends that
    record's block checks. The rejected positions (1-based) are reported
    together after the last record.
    """
    if delta < 0:
        return "DomainError", "delta must be >= 0"
    rejected = []
    for pos, (point, output) in enumerate(records, start=1):
        if len(point) != len(arities):
            return "ValidationError", f"record {pos}: expected {len(arities)} blocks"
        for i, (block, arity) in enumerate(zip(point, arities), start=1):
            if len(block) != arity:
                return (
                    "ValidationError",
                    f"record {pos}: block {i} must have {arity} coordinates",
                )
            if sum(block, Fraction(0)) != 1:
                return (
                    "ValidationError",
                    f"record {pos}: block {i} coordinates must sum to 1",
                )
            if min(block) <= 0 or min(block) < delta:
                rejected.append(pos)
                break
        if len(output) != output_dim:
            return (
                "ValidationError",
                f"record {pos}: output must have {output_dim} components",
            )
    if rejected:
        margin = f" and >= {delta}" if delta > 0 else ""
        return "ValidationError", (
            f"records not strictly interior (every coordinate must be > 0{margin}): "
            f"positions {rejected}"
        )
    return None


def read_experiment_csv(path, arities, output_dim):
    """(line, point, output) per CSV row, or the first error as (exception name,
    message).

    The row-by-row reader: a UTF-8 file, a byte order mark skipped; a header
    of b<block>_<coordinate> then y<component> names, compared after
    stripping; then one row per nonblank line, line numbers counting the
    header and blank lines. Each row is checked in turn, its field count
    before its cells, and each cell is stripped and read as an exact
    rational.
    """
    expected = [f"b{i + 1}_{j}" for i, a in enumerate(arities) for j in range(a)]
    expected += [f"y{c + 1}" for c in range(output_dim)]
    with open(path, "r", encoding="utf-8-sig", newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None:
            return "ValidationError", f"{path}: empty file"
        if [h.strip() for h in header] != expected:
            return "ValidationError", (
                f"{path}: header must be {','.join(expected)}, got {','.join(header)}"
            )
        rows = []
        for line, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(expected):
                return "ValidationError", (
                    f"{path}:{line}: expected {len(expected)} fields, got {len(row)}"
                )
            values = []
            for cell in row:
                text = cell.strip()
                try:
                    values.append(Fraction(text))
                except (ValueError, ZeroDivisionError) as exc:
                    return "ValidationError", (
                        f"{path}:{line}: cannot parse rational from {text!r}: {exc}"
                    )
            blocks, cursor = [], 0
            for arity in arities:
                blocks.append(tuple(values[cursor : cursor + arity]))
                cursor += arity
            rows.append((line, tuple(blocks), tuple(values[cursor:])))
    return rows


def parse_experiment_csv(path, arities, output_dim):
    """read_experiment_csv's rows, or its error, or the first block fault.

    Every row is read before any block is checked; then rows in order, and
    each block in order, must sum to 1 and have no negative coordinate, the
    sum checked first.
    """
    rows = read_experiment_csv(path, arities, output_dim)
    if isinstance(rows, tuple):
        return rows
    for line, point, _ in rows:
        for i, block in enumerate(point, start=1):
            if sum(block, Fraction(0)) != 1:
                return "ValidationError", f"{path}:{line}: block {i} coordinates must sum to 1"
            if min(block) < 0:
                return "ValidationError", f"{path}:{line}: block {i} has a negative coordinate"
    return rows


SIGN_CHARS = {1: "+", 0: "0", -1: "-", UNDET: "u"}


def sign_text(v):
    return "".join(SIGN_CHARS[e] for e in v)


def log3_text(value):
    """The 12-digit decimal base-3 logarithm, exact at powers of 3."""
    power, exponent = 1, 0
    while power < value:
        power, exponent = power * 3, exponent + 1
    return f"{float(exponent) if power == value else math.log(value) / math.log(3):.12f}"


def normalized_family(vectors):
    """One representative per +- class, its first nonzero entry positive,
    first occurrences kept, in order."""
    out = []
    for v in vectors:
        v = tuple(Fraction(c) for c in v)
        lead = next(c for c in v if c)
        v = v if lead > 0 else tuple(-c for c in v)
        if v not in out:
            out.append(v)
    return out


@lru_cache(maxsize=None)
def _elimination_bits(n):
    """canonical_vectors(n) and, per vector, the bitset of those it eliminates."""
    vectors = canonical_vectors(n)
    return vectors, [
        sum(1 << k for k, s in enumerate(vectors) if eliminates(t, s)) for t in vectors
    ]


def analysis_document(arities, table, functionals, header, records=None, eps=Fraction(0)):
    """The `gate analyze` document as plain dicts and lists, with
    "timing_seconds" 0, written base point by base point from the definitions.

    table maps index tuples to output tuples; functionals is the normalized
    family; header holds the leading "tool", "version" and "backend"; records
    are (point, output) pairs or None. Every witness is a {"w", "total_sign"}
    dict and every lower set a list of sign strings in enumeration order; the
    counting cross-check counts, on each side of every report's lower set,
    the sets of 1 to 6 vectors, all as passed.
    """
    n = sum(a - 1 for a in arities)
    vectors, bits = _elimination_bits(n)

    def score(value):
        return {"value": value, "log3": log3_text(value)}

    data = collision_scores(arities, records, eps) if records is not None else {}
    reports, checked = [], 0
    for z in product(*(range(a) for a in arities)):
        signs = [total_sign(arities, table, z, w) for w in functionals]
        marked = [any(eliminates(t, s) for t in signs) for s in vectors]
        lower = [s for s, m in zip(vectors, marked) if m]
        outside = 0
        for k, m in enumerate(marked):
            if not m:
                outside |= bits[k]
        witnesses = [
            {"w": [str(c) for c in w], "total_sign": sign_text(t)}
            for w, t in zip(functionals, signs)
        ]
        certificate = None
        if len(lower) == len(vectors):
            certificate = {
                "base_point": list(z),
                "n_reduced": n,
                "witnesses": [witnesses[k] for k in greedy_cover(signs, n)],
            }
        checked += (1 <= len(lower) <= 6) + (1 <= len(vectors) - len(lower) <= 6)
        reports.append(
            {
                "base_point": list(z),
                "witnesses": witnesses,
                "sens_lower": [sign_text(s) for s in lower],
                "sens_lower_size": len(lower),
                "cs_lower": score(3**n - 2 * bin(outside).count("1")),
                "certificate": certificate,
                "data_upper": score(data[z]) if data else None,
            }
        )
    best = max(reports, key=lambda r: r["cs_lower"]["value"])  # the first maximum
    bound = None
    if data:
        z = max(data, key=data.get)
        bound = {
            **score(data[z]),
            "base_point": list(z),
            "collisions": len(collision_pairs(records, eps)),
            "heuristic": eps > 0,
        }
    return {
        **header,
        "gate": {
            "arities": list(arities),
            "output_dim": len(functionals[0]),
            "reduced_dimension": n,
            "base_point_count": len(reports),
        },
        "family": [[str(c) for c in w] for w in functionals],
        "reports": reports,
        "cs_lower": {**best["cs_lower"], "base_point": best["base_point"]},
        "data_upper": bound,
        "certificate": next((r["certificate"] for r in reports if r["certificate"]), None),
        "counting_crosscheck": {
            "checked": checked,
            "passed": checked,
            "failed": 0,
            "skipped": 2 * len(reports) - checked,
        },
        "timing_seconds": 0,
    }
