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
from typing import NamedTuple, Optional, Sequence

import numpy as np

from . import __version__
from .backend import backend_name
from .counting import (
    SignMatrix,
    count_eliminated_intersection,
    count_eliminated_oracle,
    count_eliminated_single,
    count_eliminated_union,
    count_intersection_oracle,
    count_pair,
    pair_profile,
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
    eliminated_mask,
    parse_sign_string,
    sign_rows,
    sign_string,
    table,
    table_strings,
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


class _Witnesses(NamedTuple):
    """A witness list ``[{"w": family[f], "total_sign": sign}, ...]`` as text:
    each functional's strings, each witness's position f and quoted sign."""

    family: list[list[str]]
    positions: list[int]
    signs: list[str]


def _indented_json(payload) -> str:
    """Exactly ``json.dumps(payload, indent=2)``, without its Python encoder.

    With ``indent`` set, the standard library renders through a pure-Python
    generator. This makes one recursive pass that appends pieces to one list
    and joins once. A list of scalars is rendered with one join, and is
    remembered by (id, depth) for the rest of the call: the analysis
    document shares each distinct mask's ``sens_lower`` list among reports.
    A ``_Witnesses`` renders as its list of dicts would, without recursion:
    each witness is its functional's text up to the total sign, built once
    per (functional strings, depth), plus its quoted sign. Other types than
    these and the JSON scalars, and non-str keys, raise TypeError.
    """
    parts = []
    append, extend = parts.append, parts.extend
    flat = {}
    prefixes = {}

    def write(value, depth):
        kind = type(value)
        text = _SCALAR_TEXT.get(kind)
        if text is not None:
            append(text(value))
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
            if not value:
                append("[]")
                return
            key = (id(value), depth)
            cached = flat.get(key)
            if cached is not None:
                append(cached)
                return
            newline = "\n" + "  " * (depth + 1)
            try:
                items = [_SCALAR_TEXT[type(item)](item) for item in value]
            except KeyError:
                separator = "[" + newline
                for item in value:
                    append(separator)
                    write(item, depth + 1)
                    separator = "," + newline
                append("\n" + "  " * depth + "]")
            else:
                cached = flat[key] = (
                    "[" + newline + ("," + newline).join(items)
                    + "\n" + "  " * depth + "]"
                )
                append(cached)
        elif kind is _Witnesses:
            if not value.signs:
                append("[]")
                return
            item = "\n" + "  " * (depth + 1)
            key = (id(value.family), depth)
            if key not in prefixes:
                inner = "\n" + "  " * (depth + 2)
                prefixes[key] = [
                    "{" + inner + '"w": [' + inner + "  "
                    + ("," + inner + "  ").join(map(encode_basestring_ascii, w))
                    + inner + "]," + inner + '"total_sign": '
                    for w in value.family
                ]
            pieces = [item + "}," + item] * (3 * len(value.signs))  # separator, head, sign
            pieces[0] = "[" + item
            pieces[1::3] = map(prefixes[key].__getitem__, value.positions)
            pieces[2::3] = value.signs
            extend(pieces)
            append(item + "}\n" + "  " * depth + "]")
        else:
            raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")

    write(payload, 0)
    return "".join(parts)


def _emit(payload) -> None:
    print(_indented_json(payload))


def _score_json(score) -> dict:
    return {"value": score.value, "log3": format_log3(score.value)}


def _witness_text(functionals):
    """The functionals' strings, and a function from witnesses to a _Witnesses
    that renders each distinct total sign once. A witness's functional must
    be one of these very tuples, as a sweep hands them out."""
    strings = [[rational_string(v) for v in w] for w in functionals]
    position = {id(w): f for f, w in enumerate(functionals)}
    quoted = lru_cache(maxsize=None)(lambda ts: '"' + sign_string(ts) + '"')

    def witnesses_json(witnesses) -> _Witnesses:
        return _Witnesses(
            strings,
            [position[id(w)] for w, _ in witnesses],
            [quoted(ts) for _, ts in witnesses],
        )

    return strings, witnesses_json


def _certificate_json(cert: Optional[Certificate], witnesses_json) -> Optional[dict]:
    if cert is None:
        return None
    return {
        "base_point": list(cert.base_point),
        "n_reduced": cert.n_reduced,
        "witnesses": witnesses_json(cert.witnesses),
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


def _crosscheck(rows: np.ndarray, mask: np.ndarray, negated: bool, size: int, n: int) -> str:
    """The counting cross-check of the ``size`` rows ``mask`` selects, or
    leaves out when negated: "skipped" unless 1 <= size <= 6, else whether the
    closed-form union count equals the oracle's, "passed" or "failed"."""
    if not 1 <= size <= 6:
        return "skipped"
    vectors = rows[~mask if negated else mask].tolist()
    agrees = count_eliminated_union(vectors) == count_eliminated_oracle(vectors, n)
    return "passed" if agrees else "failed"


def _analysis_document(
    analysis: GateAnalysis, gate, family: ProjectionFamily, started: float
) -> tuple[dict, bool]:
    """Assemble the analysis document; returns (document, crosscheck_ok).

    Reports with equal lower sets share one mask over table(N), and one pass
    over the reports does each shared mask's work once, memoized by its id:
    the ``sens_lower`` strings (its entries of the cached ``table_strings(N)``,
    in enumeration order; their count is the set's size) and the _crosscheck
    outcomes of the set and its complement, which is built only when its size,
    the table's minus the set's, is 1 to 6. Every report adds its two
    outcomes to the tally. Each functional is rendered once, into the
    ``family`` strings, which every witness list (_Witnesses) indexes.
    """
    n_reduced = analysis.n_reduced
    rows, strings = table(n_reduced), table_strings(n_reduced)
    family_json, witnesses_json = _witness_text(family.functionals)
    memo: dict[int, tuple[list[str], tuple[str, str]]] = {}  # id of a shared mask
    tally = Counter()
    reports_json = []
    for report in analysis.reports:
        mask = report.mask
        if id(mask) not in memo:
            lower = strings[mask].astype(str).tolist()
            memo[id(mask)] = lower, (
                _crosscheck(rows, mask, False, len(lower), n_reduced),
                _crosscheck(rows, mask, True, mask.size - len(lower), n_reduced),
            )
        lower, outcomes = memo[id(mask)]
        tally.update(outcomes)
        reports_json.append(
            {
                "base_point": list(report.base_point),
                "witnesses": witnesses_json(report.witnesses),
                "sens_lower": lower,
                "sens_lower_size": len(lower),
                "cs_lower": _score_json(report.score),
                "certificate": _certificate_json(report.certificate, witnesses_json),
                "data_upper": (
                    _score_json(report.data_upper)
                    if report.data_upper is not None
                    else None
                ),
            }
        )
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
        "family": family_json,
        "reports": reports_json,
        "cs_lower": {
            **_score_json(analysis.lower),
            "base_point": list(analysis.lower_base_point),
        },
        "data_upper": (
            {
                **_score_json(analysis.data.score),
                "base_point": list(analysis.data.base_point),
                "collisions": analysis.data.collisions,
                "heuristic": analysis.data.heuristic,
            }
            if analysis.data is not None
            else None
        ),
        "certificate": _certificate_json(analysis.certificate, witnesses_json),
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
    _emit(table_strings(args.n).astype(str).tolist())
    return 0


def _cmd_ze(args) -> int:
    signs = sign_rows((_flag_signs(t, "--t") for t in args.t), args.n, total=True)
    n = len(signs[0])
    _emit(table_strings(n)[eliminated_mask(signs, n)].astype(str).tolist())
    return 0


def _verified(value: int, oracle: Optional[int], verify: bool) -> int:
    if not verify:
        print(value)
        return 0
    match = value == oracle
    _emit({"value": value, "oracle": oracle, "match": match})
    if not match:
        print("closed form disagrees with the oracle", file=sys.stderr)
        return INVARIANT_VIOLATION
    return 0


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
    _emit(payload)
    if not payload.get("match", True):
        print("closed form disagrees with the oracle", file=sys.stderr)
        return INVARIANT_VIOLATION
    return 0


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
            "coefficients": [
                {
                    "index": list(idx),
                    "value": [
                        rational_string(v) for v in expansion.coefficients[idx]
                    ],
                }
                for idx in sorted(expansion.coefficients)
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
    witnesses_json = _witness_text([w for w, _ in cert.witnesses])[1]
    _emit({"certificate": _certificate_json(cert, witnesses_json), "verified": True})
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
            "bound": _score_json(bound.score),
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
    p_ze.add_argument(
        "--t",
        action="append",
        required=True,
        metavar="SIGNS",
        help="total sign string over +0-u (repeatable)",
    )
    p_ze.add_argument("--n", type=int, default=None, help="expected length (optional)")
    p_ze.set_defaults(func=_cmd_ze)

    p_count = sub.add_parser("count", help="exact counting")
    count_sub = p_count.add_subparsers(dest="count_command", required=True)

    p_single = count_sub.add_parser("single", help="|eliminated set| of one vector")
    p_single.add_argument("--x", action="append", required=True, metavar="SIGNS")
    p_single.add_argument("--verify", action="store_true", help="compare with the oracle")
    p_single.set_defaults(func=_cmd_count_single)

    p_inter = count_sub.add_parser("intersect", help="size of the joint eliminated set")
    p_inter.add_argument("--x", action="append", required=True, metavar="SIGNS")
    p_inter.add_argument("--verify", action="store_true")
    p_inter.set_defaults(func=_cmd_count_intersect)

    p_set = count_sub.add_parser("set", help="size of the union by inclusion-exclusion")
    p_set.add_argument("--x", action="append", required=True, metavar="SIGNS")
    p_set.add_argument("--verify", action="store_true")
    p_set.set_defaults(func=_cmd_count_set)

    p_pair = count_sub.add_parser("pair", help="two-row profile and closed forms")
    p_pair.add_argument("--x", required=True, metavar="SIGNS")
    p_pair.add_argument("--y", required=True, metavar="SIGNS")
    p_pair.add_argument("--verify", action="store_true")
    p_pair.set_defaults(func=_cmd_count_pair)

    p_oracle = count_sub.add_parser("oracle", help="brute-force union count")
    p_oracle.add_argument("--x", action="append", required=True, metavar="SIGNS")
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
    except SignElimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (OSError, json.JSONDecodeError, ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
