"""Command line interface.

Machine-readable JSON goes to stdout; diagnostics go to stderr. Exit codes:
0 success, 1 usage or input error, 2 no certificate found, 3 internal
invariant violation (a closed form disagreed with the oracle).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict
from functools import lru_cache
from json.encoder import encode_basestring_ascii
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .backend import _batches, _kept_up_to_12, backend_name, eliminated_any_masks, unpacked
from .counting import (
    SignMatrix,
    count_eliminated_intersection,
    count_eliminated_oracle,
    count_eliminated_single,
    count_eliminated_union,
    count_intersection_oracle,
    count_pair,
    pair_profile,
    _union_counts,
)
from .covers import cover_reports
from .errors import DomainError, SignElimError, ValidationError
from .gates import (
    expand,
    load_gate,
    parse_rational_vector,
    rational_string,
    reduced_dimension,
)
from .selftest import run_selftest
from .sensitivity import (
    Certificate,
    GateAnalysis,
    ProjectionFamily,
    _read_experiment_csv,
    analyze_gate,
    data_upper_bound,
    default_family,
    format_log3,
    reversibility_certificate,
    verify_certificate,
)
from .signvec import (
    _CHARS,
    eliminated_mask,
    parse_sign_string,
    sign_rows,
    sign_string,
    table,
    table_strings,
    vector_count,
)

USAGE_ERROR = 1
NO_CERTIFICATE = 2
INVARIANT_VIOLATION = 3


class _Parser(argparse.ArgumentParser):
    """argparse maps usage errors to exit code 2; this CLI reserves 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


# Text of each JSON scalar, by exact type: json.dumps renders them the same
# (a float, rare in any document, by json.dumps itself).
_SCALAR_TEXT = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: json.dumps,
    bool: lambda value: "true" if value else "false",
    type(None): lambda value: "null",
}

class _Text(tuple):
    """JSON text rendered for its depth, as str pieces _json_pieces writes as is."""


def _list_text(items: list[str], depth: int) -> str:
    """The JSON list at ``depth`` of the item texts ``items``."""
    if not items:
        return "[]"
    newline = "\n" + "  " * (depth + 1)
    return "[" + newline + ("," + newline).join(items) + "\n" + "  " * depth + "]"


def _json_pieces(payload, depth: int = 0) -> list[str]:
    """The pieces of ``json.dumps(payload, indent=2)``, as written at
    ``depth``, without the standard library's Python encoder.

    With ``indent`` set, the standard library renders through a pure-Python
    generator. This makes one recursive pass that appends pieces to one
    list. A list of scalars is one piece, and a _Text adds its pieces. Other
    types than these and the JSON scalars, and non-str keys, raise TypeError.
    """
    parts = []
    append = parts.append

    def write(value, depth):
        kind = type(value)
        text = _SCALAR_TEXT.get(kind)
        if text is not None:
            append(text(value))
        elif kind is _Text:
            parts.extend(value)
        elif kind is dict:
            if not value:
                append("{}")
                return
            newline = "\n" + "  " * (depth + 1)
            separator = "{" + newline
            for key, item in value.items():
                if type(key) is not str:
                    raise TypeError(f"keys must be str, not {type(key).__name__}")
                append(separator + encode_basestring_ascii(key) + ": ")
                write(item, depth + 1)
                separator = "," + newline
            append("\n" + "  " * depth + "}")
        elif kind is list or kind is tuple:
            try:
                items = [_SCALAR_TEXT[type(item)](item) for item in value]
            except KeyError:
                newline = "\n" + "  " * (depth + 1)
                separator = "[" + newline
                for item in value:
                    append(separator)
                    write(item, depth + 1)
                    separator = "," + newline
                append("\n" + "  " * depth + "]")
            else:
                append(_list_text(items, depth))
        else:
            raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")

    write(payload, depth)
    return parts


def _indented_json(payload, depth: int = 0) -> str:
    """Exactly ``json.dumps(payload, indent=2)``, as written at ``depth``."""
    return "".join(_json_pieces(payload, depth))


def _emit(payload) -> None:
    """Print _indented_json(payload): its pieces go to one writelines call,
    so the document is never one string."""
    pieces = _json_pieces(payload)
    pieces.append("\n")
    sys.stdout.writelines(pieces)


@_kept_up_to_12
def _sign_lines(n: int, depth: int) -> np.ndarray:
    """One uint8 row per row of table(n), filled from table_strings(n) by
    byte writes: its text ``,\\n<indent>"<sign string>"`` in a list at depth."""
    indent = 2 * (depth + 1)
    lines = np.empty((vector_count(n), indent + n + 4), dtype=np.uint8)
    lines[:, :2] = np.frombuffer(b",\n", dtype=np.uint8)
    lines[:, 2 : 2 + indent] = ord(" ")
    lines[:, 2 + indent] = lines[:, -1] = ord('"')
    lines[:, 3 + indent : -1] = table_strings(n).view(np.uint8).reshape(-1, n)
    return lines


def _sign_list(lines: np.ndarray, mask, depth: int) -> tuple[str, ...]:
    """The pieces of the JSON list at ``depth`` of the rows of ``lines =
    _sign_lines(n, depth)`` that the bool ``mask`` selects (all when None)."""
    selected = lines if mask is None else np.compress(mask, lines, axis=0)
    if not len(selected):
        return ("[]",)
    return "[", selected.reshape(-1)[1:].tobytes().decode("ascii"), "\n" + "  " * depth + "]"


def _score_json(value: int) -> dict:
    return {"value": value, "log3": format_log3(value)}


@lru_cache(maxsize=16)  # four families: a document uses four depths of each
def _functional_lists(strings: tuple[tuple[str, ...], ...], depth: int) -> list[str]:
    """The JSON list text at ``depth`` of each functional of a family's ``strings``."""
    return [_list_text(list(map(encode_basestring_ascii, w)), depth) for w in strings]


@lru_cache(maxsize=16)
def _witness_heads(strings: tuple[tuple[str, ...], ...], depth: int) -> list[bytes]:
    """Each functional's witness object at ``depth`` up to its total sign's
    text, ``{"w": [...], "total_sign": "``, as bytes."""
    newline = "\n" + "  " * (depth + 1)
    sign = "," + newline + '"total_sign": "'
    return [("{" + newline + '"w": ' + w + sign).encode() for w in _functional_lists(strings, depth + 1)]


def _witness_lists(strings, picks: Sequence[int], signs: np.ndarray, depth: int) -> list[str]:
    """The JSON list text at ``depth`` of each (len(picks), N) matrix of the
    int8 ``signs``, its row k the total sign of the functional strings[picks[k]].

    One byte template of a list, with an N-byte slot per total sign, is
    copied into a (lists, width) uint8 buffer; every slot is written in one
    assignment, by code mod 4, and the buffer is decoded one list at a time.
    """
    lists, _, n = signs.shape
    if not len(picks):
        return ["[]"] * lists
    heads, item = _witness_heads(strings, depth + 1), "\n" + "  " * (depth + 1)
    parts, between = [("[" + item).encode()], ('"' + item + "}," + item).encode()
    for p in picks:
        parts += heads[p], bytes(n), between
    parts[-1] = ('"' + item + "}\n" + "  " * depth + "]").encode()
    ends = np.cumsum([len(part) for part in parts])  # each head ends where its slot starts
    buffer = np.empty((lists, ends[-1]), dtype=np.uint8)
    buffer[:] = np.frombuffer(b"".join(parts), dtype=np.uint8)
    buffer[:, (ends[1::3, None] + np.arange(n)).ravel()] = _CHARS.view(np.uint8)[signs.reshape(lists, -1) % 4]
    return [str(row.data, "ascii") for row in buffer]


def _certificate_json(cert: Optional[Certificate], strings, depth: int) -> Optional[dict]:
    """The certificate at ``depth``, its witnesses from the family's ``strings``."""
    if cert is None:
        return None
    signs = np.array([ts for _, ts in cert.witnesses], dtype=np.int8).reshape(1, -1, cert.n_reduced)
    return {
        "base_point": list(cert.base_point),
        "n_reduced": cert.n_reduced,
        "witnesses": _Text(_witness_lists(strings, cert._picks, signs, depth + 1)),
    }


def _load_family(path, output_dim) -> ProjectionFamily:
    with open(path, "r", encoding="utf-8-sig") as handle:
        obj = json.load(handle)
    if not isinstance(obj, list):
        raise ValidationError(f"{path}: functionals file must be a JSON list")
    for pos, item in enumerate(obj):
        if not isinstance(item, list):
            raise ValidationError(f"{path}: functional {pos} must be a list")
    with _naming_records(path):
        return ProjectionFamily.from_vectors(obj, output_dim)


def _crosscheck(rows: np.ndarray, sides: dict, count: int) -> list[str]:
    """The ``count`` outcomes of the counting cross-check, two a set (its
    rows, then the rest of ``rows``): "skipped" for a slot without a side in
    ``sides``, else "passed" or "failed", whether the side's closed-form
    union count equals its popcount in the scan. All sides take one
    _union_counts call and one scan, counted in _batches of sides. Their
    size bounds them (at most 2,016 pairs a side), so no user cap applies."""
    outcomes, groups = ["skipped"] * count, list(sides.values())
    if groups:
        cuts = _batches([rows.shape[0]] * len(groups))
        scan = [np.bitwise_count(eliminated_any_masks(rows, groups[lo:hi])).sum(axis=1) for lo, hi in cuts]
        for slot, closed, counted in zip(sides, _union_counts(groups), np.concatenate(scan).tolist()):
            outcomes[slot] = "passed" if closed == counted else "failed"
    return outcomes


# the keys of a report, in order, each as written after the value before it
_REPORT_KEYS = [f',\n      "{key}": ' for key in (
    "base_point witnesses sens_lower sens_lower_size cs_lower certificate data_upper".split()
)]


def _analysis_document(
    analysis: GateAnalysis, gate, family: ProjectionFamily, started: float
) -> tuple[dict, bool]:
    """Assemble the analysis document; returns (document, crosscheck_ok).

    One pass writes the reports list as one _Text of pieces, each report
    through one layout: its _REPORT_KEYS with their values at depth 3. Only
    the base point and a certificate are rendered per report; every other
    value is a text shared by all reports with that value:
    - per set, memoized by the sweep's record that its reports share, from
      its packed row unpacked once: ``sens_lower`` (a _sign_list), its size,
      and the cross-check's sides, its rows and the rest, each kept (and a
      complement built) only with 1 to 6 rows; after the pass, one
      _crosscheck of all sides gives each set's outcomes, which the tally
      counts once per report;
    - per distinct total-sign matrix, keyed by the reports' stored
      ``_sign_bytes``: the witness list, all of them from one _witness_lists
      call before the pass;
    - per score value: ``cs_lower`` and ``data_upper``.
    The family and every witness list are rendered from ``family.strings``.
    ``timing_seconds`` covers this rendering.
    """
    n_reduced, strings = analysis.n_reduced, family.strings
    rows, lines = table(n_reduced), _sign_lines(n_reduced, 3)
    distinct = list(dict.fromkeys(r._sign_bytes for r in analysis.reports))
    matrices = np.frombuffer(b"".join(distinct), dtype=np.int8).reshape(len(distinct), len(strings), n_reduced)
    lists = dict(zip(distinct, _witness_lists(strings, range(len(strings)), matrices, 3)))
    score_text = lru_cache(maxsize=None)(lambda value: _indented_json(_score_json(value), 3))
    sets, sides, pieces = {}, {}, []  # sets: by the record of a shared set; sides: by outcome slot
    keys = _REPORT_KEYS
    # a report's text up to its witnesses, a format of its base point's entries
    head = ",\n    {" + keys[0][1:] + _list_text(["%d"] * len(gate.arities), 3) + keys[1]
    for report in analysis.reports:
        record = report._lower
        if record not in sets:
            mask, size, slot = unpacked(record.bits, rows.shape[0]), record.size, 2 * len(sets)
            sets[record] = keys[2], *_sign_list(lines, mask, 3), keys[3] + str(size) + keys[4]
            if 1 <= size <= 6:
                sides[slot] = rows[mask]
            if 1 <= rows.shape[0] - size <= 6:
                sides[slot + 1] = rows[~mask]
        certificate, data = report.certificate, report.data_upper
        if certificate is not None:
            certificate = _indented_json(_certificate_json(certificate, strings, 3), 3)
        pieces += (
            head % report.base_point, lists[report._sign_bytes], *sets[record],
            score_text(report.score.value), keys[5], certificate or "null",
            keys[6], "null" if data is None else score_text(data.value), "\n    }",
        )
    pieces[0] = "[" + pieces[0][1:]  # the first report has no comma before it
    pieces.append("\n  ]")
    outcomes = _crosscheck(rows, sides, 2 * len(sets))
    checks = {record: outcomes[2 * k : 2 * k + 2] for k, record in enumerate(sets)}
    tally = Counter(outcome for r in analysis.reports for outcome in checks[r._lower])
    document = {
        "tool": "signelim",
        "version": __version__,
        "backend": backend_name(),
        "gate": {
            "arities": list(gate.arities),
            "output_dim": gate.output_dim,
            "reduced_dimension": n_reduced,
            "base_point_count": len(analysis.reports),
        },
        "family": _Text((_list_text(_functional_lists(strings, 2), 1),)),
        "reports": _Text(pieces),
        "cs_lower": {
            **_score_json(analysis.lower.value),
            "base_point": list(analysis.lower_base_point),
        },
        "data_upper": (
            {
                **_score_json(analysis.data.score.value),
                "base_point": list(analysis.data.base_point),
                "collisions": analysis.data.collisions,
                "heuristic": analysis.data.heuristic,
            }
            if analysis.data is not None
            else None
        ),
        "certificate": _certificate_json(analysis.certificate, strings, 1),
        "counting_crosscheck": {
            "checked": tally["passed"] + tally["failed"],
            "passed": tally["passed"],
            "failed": tally["failed"],
            "skipped": tally["skipped"],
        },
        "timing_seconds": time.perf_counter() - started,
    }
    return document, not tally["failed"]


def _flag_signs(text: str, flag: str, *, total: bool = True) -> tuple[int, ...]:
    """parse_sign_string for one value of a sign flag.

    argparse drops a value that is exactly ``--``, so the total sign -- (two
    entries of -1) arrives as an empty string; the error names the flag and
    the way round it.
    """
    if not text:
        raise DomainError(
            f"{flag}: empty sign string (argparse drops a literal '--'; "
            "write its negation '++', which eliminates the same vectors)"
        )
    return parse_sign_string(text, total=total)


def _cmd_zs(args) -> int:
    vector_count(args.n)  # the length cap, checked before the cached rows
    _emit(_Text(_sign_list(_sign_lines(args.n, 0), None, 0)))
    return 0


def _cmd_ze(args) -> int:
    signs = sign_rows((_flag_signs(t, "--t") for t in args.t), args.n, total=True)
    n = len(signs[0])
    mask = eliminated_mask(signs, n)  # checks the length cap before the cached rows
    _emit(_Text(_sign_list(_sign_lines(n, 0), mask, 0)))
    return 0


def _checked(payload: dict, match: bool) -> int:
    """Emit the payload; unless ``match``, say so on stderr and return
    INVARIANT_VIOLATION."""
    _emit(payload)
    if match:
        return 0
    print("closed form disagrees with the oracle", file=sys.stderr)
    return INVARIANT_VIOLATION


def _verified(value: int, oracle: Optional[int], verify: bool) -> int:
    if not verify:
        print(value)
        return 0
    match = value == oracle
    return _checked({"value": value, "oracle": oracle, "match": match}, match)


def _cmd_count_single(args) -> int:
    if len(args.x) != 1:
        raise SignElimError(f"count single takes one --x, got {len(args.x)}")
    x = _flag_signs(args.x[0], "--x", total=False)
    value = count_eliminated_single(x)
    oracle = count_eliminated_oracle([x], len(x)) if args.verify else None
    return _verified(value, oracle, args.verify)


def _cmd_count_intersect(args) -> int:
    # repeated flags count once; SignMatrix makes the one check of the rows
    matrix = SignMatrix.from_rows(dict.fromkeys(_flag_signs(t, "--x", total=False) for t in args.x))
    value = count_eliminated_intersection(matrix)
    oracle = count_intersection_oracle(matrix) if args.verify else None
    return _verified(value, oracle, args.verify)


def _cmd_count_set(args) -> int:
    rows = [_flag_signs(t, "--x", total=False) for t in args.x]
    value = count_eliminated_union(rows)
    oracle = (
        count_eliminated_oracle(rows, len(rows[0])) if args.verify else None
    )
    return _verified(value, oracle, args.verify)


def _cmd_count_pair(args) -> int:
    x = _flag_signs(args.x, "--x", total=False)
    y = _flag_signs(args.y, "--y", total=False)
    matrix = SignMatrix.from_rows([x, y])
    profile = pair_profile(matrix)
    intersection, union = count_pair(profile)
    payload = {
        "profile": asdict(profile),
        "intersection": intersection,
        "union": union,
    }
    if args.verify:
        oracle_inter = count_intersection_oracle(matrix)
        oracle_union = count_eliminated_oracle([x, y], len(x))
        payload["oracle"] = {"intersection": oracle_inter, "union": oracle_union}
        payload["match"] = intersection == oracle_inter and union == oracle_union
    return _checked(payload, payload.get("match", True))


def _cmd_count_oracle(args) -> int:
    signs = sign_rows((_flag_signs(t, "--x") for t in args.x), args.n, total=True)
    print(count_eliminated_oracle(signs, len(signs[0])))
    return 0


def _cmd_covers(args) -> int:
    reports = cover_reports(args.n, args.max_size)
    _emit(
        {
            "n": args.n,
            "max_size": args.max_size,
            "covers": [
                {
                    "members": [sign_string(v) for v in report.members],
                    "size": len(report.members),
                    "is_minimal": report.is_minimal,
                    "column_rank": report.column_rank,
                }
                for report in reports
            ],
        }
    )
    return 0


def _cmd_gate_expand(args) -> int:
    gate = load_gate(args.gate)
    expansion = expand(gate)
    _emit(
        {
            "arities": list(expansion.arities),
            "output_dim": expansion.output_dim,
            "reduced_dimension": reduced_dimension(expansion),
            # in lexicographic order, as the coefficients list them
            "coefficients": [
                {"index": list(idx), "value": list(map(rational_string, vec))}
                for idx, vec in expansion.coefficients.items()
            ],
        }
    )
    return 0


def _gate_and_family(args):
    """The gate, its expansion, and the --functionals family or the default."""
    gate = load_gate(args.gate)
    expansion = expand(gate)
    if args.functionals:
        return gate, expansion, _load_family(args.functionals, gate.output_dim)
    return gate, expansion, default_family(gate.output_dim)


def _data_args(args, gate):
    """The records of --data (None without it), --eps and --delta.

    The flags are parsed first, so a malformed one is reported, naming the
    flag, whether or not the CSV can be read.
    """
    eps, delta = (parse_rational_vector([getattr(args, k)], f"--{k}")[0] for k in ("eps", "delta"))
    records = None if args.data is None else _read_experiment_csv(args.data, gate)
    return records, eps, delta


@contextmanager
def _naming_records(path):
    """Prefix a validation error with the path of the input file it names."""
    try:
        yield
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None


def _cmd_gate_analyze(args) -> int:
    started = time.perf_counter()
    gate, expansion, family = _gate_and_family(args)
    records, eps, delta = _data_args(args, gate)
    if records is None:
        analysis = analyze_gate(expansion, family=family)
    else:
        with _naming_records(args.data):
            analysis = analyze_gate(
                expansion, family=family, records=records, eps=eps, delta=delta
            )
    document, crosscheck_ok = _analysis_document(analysis, gate, family, started)
    _emit(document)
    if not crosscheck_ok:
        print("counting cross-check failed", file=sys.stderr)
        return INVARIANT_VIOLATION
    return 0


def _cmd_gate_certify(args) -> int:
    gate, expansion, family = _gate_and_family(args)
    cert = reversibility_certificate(expansion, family=family)
    if cert is None:
        _emit(
            {
                "certificate": None,
                "reason": "no base point where the witness family "
                "eliminates every sign vector",
            }
        )
        return NO_CERTIFICATE
    if not verify_certificate(expansion, cert):
        print("certificate failed replay verification", file=sys.stderr)
        return INVARIANT_VIOLATION
    _emit({"certificate": _certificate_json(cert, family.strings, 1), "verified": True})
    return 0


def _cmd_data_bound(args) -> int:
    gate = load_gate(args.gate)
    expansion = expand(gate)
    records, eps, delta = _data_args(args, gate)
    with _naming_records(args.data):
        bound = data_upper_bound(records, expansion, eps=eps, delta=delta)
    if bound is None:
        _emit({"bound": None, "collisions": 0, "records": len(records.ids)})
        return 0
    _emit(
        {
            "bound": _score_json(bound.score.value),
            "base_point": list(bound.base_point),
            "collisions": bound.collisions,
            "records": len(records.ids),
            "heuristic": bound.heuristic,
            "reduced_dimension": reduced_dimension(expansion),
        }
    )
    return 0


def _cmd_selftest(args) -> int:
    checks = run_selftest(
        seed=args.seed, quick=args.quick, log=lambda line: print(line, file=sys.stderr)
    )
    ok = all(c.ok for c in checks)
    _emit(
        {
            "backend": backend_name(),
            "seed": args.seed,
            "quick": args.quick,
            "ok": ok,
            "checks": [
                {"name": c.name, "ok": c.ok, "detail": c.detail} for c in checks
            ],
        }
    )
    return 0 if ok else INVARIANT_VIOLATION


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process.

    Building it costs milliseconds of argparse formatter setup per call, and
    ``parse_args`` leaves it unchanged, so in-process callers of ``main``
    share one. The ``set_defaults(func=...)`` handlers are bound at that first
    build: a ``_cmd_*`` function replaced later (say, by a test monkeypatch)
    is not the one the parser dispatches to.
    """
    parser = _Parser(
        prog="signelim",
        description="Exact sign-vector elimination calculus for multi-valued gates.",
    )
    parser.add_argument("--version", action="version", version=f"signelim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_zs = sub.add_parser("zs", help="enumerate canonical sign vectors")
    p_zs.add_argument("--n", type=int, required=True, help="vector length")
    p_zs.set_defaults(func=_cmd_zs)

    p_ze = sub.add_parser("ze", help="eliminated set of total signs")
    p_ze.add_argument("--t", action="append", required=True, metavar="SIGNS",
                      help="total sign string over +0-u (repeatable); write one that starts with - as --t=-u")
    p_ze.add_argument("--n", type=int, default=None, help="expected length (optional)")
    p_ze.set_defaults(func=_cmd_ze)

    p_count = sub.add_parser("count", help="exact counting")
    count_sub = p_count.add_subparsers(dest="count_command", required=True)
    canonical = "canonical sign string over +0- (first nonzero entry +, so none starts with -)"

    p_single = count_sub.add_parser("single", help="|eliminated set| of one vector")
    p_single.add_argument("--x", action="append", required=True, metavar="SIGNS", help=canonical)
    p_single.add_argument("--verify", action="store_true", help="compare with the oracle")
    p_single.set_defaults(func=_cmd_count_single)

    p_inter = count_sub.add_parser("intersect", help="size of the joint eliminated set")
    p_inter.add_argument("--x", action="append", required=True, metavar="SIGNS", help=canonical)
    p_inter.add_argument("--verify", action="store_true")
    p_inter.set_defaults(func=_cmd_count_intersect)

    p_set = count_sub.add_parser("set", help="size of the union by inclusion-exclusion")
    p_set.add_argument("--x", action="append", required=True, metavar="SIGNS", help=canonical)
    p_set.add_argument("--verify", action="store_true")
    p_set.set_defaults(func=_cmd_count_set)

    p_pair = count_sub.add_parser("pair", help="two-row profile and closed forms")
    p_pair.add_argument("--x", required=True, metavar="SIGNS", help=canonical)
    p_pair.add_argument("--y", required=True, metavar="SIGNS", help=canonical)
    p_pair.add_argument("--verify", action="store_true")
    p_pair.set_defaults(func=_cmd_count_pair)

    p_oracle = count_sub.add_parser("oracle", help="brute-force union count")
    p_oracle.add_argument("--x", action="append", required=True, metavar="SIGNS",
                          help="total sign string over +0-u (repeatable); write one that starts with - as --x=-+")
    p_oracle.add_argument("--n", type=int, default=None)
    p_oracle.set_defaults(func=_cmd_count_oracle)

    p_covers = sub.add_parser("covers", help="search eliminating covers")
    p_covers.add_argument("--n", type=int, required=True)
    p_covers.add_argument("--max-size", type=int, required=True, dest="max_size")
    p_covers.set_defaults(func=_cmd_covers)

    p_gate = sub.add_parser("gate", help="gate expansion and sensitivity")
    gate_sub = p_gate.add_subparsers(dest="gate_command", required=True)

    p_expand = gate_sub.add_parser("expand", help="print the coefficient tensor")
    p_expand.add_argument("gate", help="gate JSON file")
    p_expand.set_defaults(func=_cmd_gate_expand)

    p_analyze = gate_sub.add_parser("analyze", help="full base-point sweep")
    p_analyze.add_argument("gate", help="gate JSON file")
    p_analyze.add_argument("--functionals", default=None, help="JSON list of rational vectors")
    p_analyze.add_argument("--data", default=None, help="experiment CSV")
    p_analyze.add_argument("--eps", default="0", help="collision tolerance (rational)")
    p_analyze.add_argument("--delta", default="0", help="interior margin (rational)")
    p_analyze.set_defaults(func=_cmd_gate_analyze)

    p_certify = gate_sub.add_parser("certify", help="find a reversibility certificate")
    p_certify.add_argument("gate", help="gate JSON file")
    p_certify.add_argument("--functionals", default=None)
    p_certify.set_defaults(func=_cmd_gate_certify)

    p_data = sub.add_parser("data", help="experiment data bounds")
    data_sub = p_data.add_subparsers(dest="data_command", required=True)

    p_bound = data_sub.add_parser("bound", help="collision upper bound")
    p_bound.add_argument("gate", help="gate JSON file")
    p_bound.add_argument("data", help="experiment CSV")
    p_bound.add_argument("--eps", default="0")
    p_bound.add_argument("--delta", default="0")
    p_bound.set_defaults(func=_cmd_data_bound)

    p_self = sub.add_parser("selftest", help="oracle equivalence suite")
    p_self.add_argument("--seed", type=int, default=0)
    p_self.add_argument("--quick", action="store_true")
    p_self.set_defaults(func=_cmd_selftest)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    try:
        return args.func(args)
    except (SignElimError, OSError, json.JSONDecodeError, ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
