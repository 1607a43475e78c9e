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
from fractions import Fraction
from typing import Optional, Sequence

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
from .errors import SignElimError, ValidationError
from .gates import (
    dumps_gate,
    expand,
    gate_to_json,
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
    analyze_gate,
    data_upper_bound,
    default_family,
    format_log3,
    parse_experiment_csv,
    reversibility_certificate,
    sorted_signs,
    verify_certificate,
)
from .signvec import (
    canonical_sign_vectors,
    eliminated_set,
    parse_sign_string,
    sign_string,
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


def _emit(payload) -> None:
    print(json.dumps(payload, indent=2))


def _score_json(score) -> dict:
    return {"value": score.value, "log3": format_log3(score.value)}


def _witnesses_json(witnesses) -> list[dict]:
    return [
        {"w": [rational_string(v) for v in w], "total_sign": sign_string(ts)}
        for w, ts in witnesses
    ]


def _certificate_json(cert: Optional[Certificate]) -> Optional[dict]:
    if cert is None:
        return None
    return {
        "base_point": list(cert.base_point),
        "n_reduced": cert.n_reduced,
        "witnesses": _witnesses_json(cert.witnesses),
    }


def _load_family(path, output_dim) -> ProjectionFamily:
    with open(path, "r", encoding="utf-8") as handle:
        obj = json.load(handle)
    if not isinstance(obj, list):
        raise ValidationError(f"{path}: functionals file must be a JSON list")
    vectors = []
    for pos, item in enumerate(obj):
        if not isinstance(item, list):
            raise ValidationError(f"{path}: functional {pos} must be a list")
        vectors.append(parse_rational_vector(item, f"{path}: functional {pos}"))
    return ProjectionFamily.from_vectors(vectors, output_dim)


def _analysis_document(
    analysis: GateAnalysis, gate, family: ProjectionFamily, started: float
) -> tuple[dict, bool]:
    """Assemble the analysis document; returns (document, crosscheck_ok)."""
    checked = passed = failed = skipped = 0
    n_reduced = analysis.n_reduced
    for report in analysis.reports:
        for subset in (
            report.sens_lower,
            frozenset(canonical_sign_vectors(n_reduced)) - report.sens_lower,
        ):
            if 1 <= len(subset) <= 6:
                checked += 1
                closed = count_eliminated_union(subset)
                oracle = count_eliminated_oracle(subset, n_reduced)
                if closed == oracle:
                    passed += 1
                else:
                    failed += 1
            else:
                skipped += 1
    reports_json = []
    for report in analysis.reports:
        reports_json.append(
            {
                "base_point": list(report.base_point),
                "witnesses": _witnesses_json(report.witnesses),
                "sens_lower": [
                    sign_string(v) for v in sorted_signs(report.sens_lower)
                ],
                "sens_lower_size": len(report.sens_lower),
                "cs_lower": _score_json(report.score),
                "certificate": _certificate_json(report.certificate),
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
        "family": [[rational_string(v) for v in w] for w in family.functionals],
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
        "certificate": _certificate_json(analysis.certificate),
        "counting_crosscheck": {
            "checked": checked,
            "passed": passed,
            "failed": failed,
            "skipped": skipped,
        },
        "timing_seconds": time.perf_counter() - started,
    }
    return document, failed == 0


def _cmd_zs(args) -> int:
    vectors = canonical_sign_vectors(args.n)
    _emit([sign_string(v) for v in vectors])
    return 0


def _shared_length(signs, expected: Optional[int], what: str) -> int:
    """The one length of `signs`, checked against --n when it is given."""
    lengths = {len(s) for s in signs}
    if len(lengths) != 1:
        raise SignElimError(f"all {what} must share one length")
    n = lengths.pop()
    if expected is not None and expected != n:
        raise SignElimError(f"--n {expected} does not match sign length {n}")
    return n


def _cmd_ze(args) -> int:
    signs = [parse_sign_string(t) for t in args.t]
    n = _shared_length(signs, args.n, "total signs")
    result = eliminated_set(signs, n)
    _emit([sign_string(v) for v in sorted_signs(result)])
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
    x = parse_sign_string(args.x[0], total=False)
    value = count_eliminated_single(x)
    oracle = count_eliminated_oracle([x], len(x)) if args.verify else None
    return _verified(value, oracle, args.verify)


def _cmd_count_intersect(args) -> int:
    rows = [parse_sign_string(t, total=False) for t in args.x]
    matrix = SignMatrix.from_rows(rows)
    value = count_eliminated_intersection(matrix)
    oracle = count_intersection_oracle(matrix) if args.verify else None
    return _verified(value, oracle, args.verify)


def _cmd_count_set(args) -> int:
    rows = [parse_sign_string(t, total=False) for t in args.x]
    value = count_eliminated_union(rows)
    oracle = (
        count_eliminated_oracle(rows, len(rows[0])) if args.verify else None
    )
    return _verified(value, oracle, args.verify)


def _cmd_count_pair(args) -> int:
    x = parse_sign_string(args.x, total=False)
    y = parse_sign_string(args.y, total=False)
    matrix = SignMatrix.from_rows([x, y])
    profile = pair_profile(matrix)
    intersection, union = count_pair(profile)
    payload = {
        "profile": {
            "agree": profile.agree,
            "oppose": profile.oppose,
            "first_only": profile.first_only,
            "second_only": profile.second_only,
            "zero": profile.zero,
        },
        "intersection": intersection,
        "union": union,
    }
    if args.verify:
        oracle_inter = count_intersection_oracle(matrix)
        oracle_union = count_eliminated_oracle([x, y], len(x))
        payload["oracle"] = {"intersection": oracle_inter, "union": oracle_union}
        payload["match"] = (
            intersection == oracle_inter and union == oracle_union
        )
        _emit(payload)
        if not payload["match"]:
            print("closed form disagrees with the oracle", file=sys.stderr)
            return INVARIANT_VIOLATION
        return 0
    _emit(payload)
    return 0


def _cmd_count_oracle(args) -> int:
    signs = [parse_sign_string(t) for t in args.x]
    n = _shared_length(signs, args.n, "vectors")
    print(count_eliminated_oracle(signs, n))
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


def _family_for(args, gate) -> ProjectionFamily:
    if getattr(args, "functionals", None):
        return _load_family(args.functionals, gate.output_dim)
    return default_family(gate.output_dim)


def _cmd_gate_analyze(args) -> int:
    started = time.perf_counter()
    gate = load_gate(args.gate)
    expansion = expand(gate)
    family = _family_for(args, gate)
    records = None
    eps = Fraction(args.eps)
    delta = Fraction(args.delta)
    if args.data is not None:
        records = parse_experiment_csv(args.data, gate)
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
    gate = load_gate(args.gate)
    expansion = expand(gate)
    family = _family_for(args, gate)
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
    _emit({"certificate": _certificate_json(cert), "verified": True})
    return 0


def _cmd_data_bound(args) -> int:
    gate = load_gate(args.gate)
    expansion = expand(gate)
    records = parse_experiment_csv(args.data, gate)
    bound = data_upper_bound(
        records, expansion, eps=Fraction(args.eps), delta=Fraction(args.delta)
    )
    if bound is None:
        _emit({"bound": None, "collisions": 0, "records": len(records)})
        return 0
    _emit(
        {
            "bound": _score_json(bound.score),
            "base_point": list(bound.base_point),
            "collisions": bound.collisions,
            "records": len(records),
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


def build_parser() -> argparse.ArgumentParser:
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
