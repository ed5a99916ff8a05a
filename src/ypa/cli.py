"""Command-line frontend: exact values and verification sweeps.

Exit codes: 0 success/verified, 1 verification failure or a vacuous sweep
(no loops checked), 2 usage error or invalid parameter, 3 parse error (bad
literals or .tng sources).
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from fractions import Fraction

from . import frobenius as fr
from . import heisenberg as hs
from . import sym_oracle as so
from .plancherel import PLANCHEREL, boolean_cumulant, moment
from .tangle import TangleError, evaluate, parse_programs
from .young import LiteralError, format_diagram, parse_diagram, parse_loop, weight

MAX_CLI_LOOP_LENGTH = 8
MAX_CLI_KEROV_WEIGHT = 5


class CliParseError(Exception):
    """A .tng source or program that fails to parse or apply; exit code 3."""


def report_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True)


def emit(report: dict, fmt: str, csv_rows: list[list[str]] | None = None) -> None:
    if fmt == "json":
        print(report_json(report))
    elif fmt == "csv":
        if csv_rows is None:
            raise CliUsage("--format csv is not defined for this command")
        for row in csv_rows:
            print(",".join(row))
    else:
        _emit_text(report)


def _emit_text(report: dict, indent: str = "") -> None:
    for key in sorted(report):
        value = report[key]
        if isinstance(value, dict):
            print(f"{indent}{key}:")
            _emit_text(value, indent + "  ")
        elif isinstance(value, list):
            print(f"{indent}{key}: {json.dumps(value)}")
        else:
            print(f"{indent}{key}: {value}")


class CliUsage(Exception):
    pass


def cmd_character(args) -> int:
    lam = parse_diagram(args.lam)
    pi = parse_diagram(args.pi)
    methods = (
        ["diagram", "oracle", "frobenius"] if args.method == "all" else [args.method]
    )
    if "frobenius" in methods and len(pi) != 1:
        if args.method == "all":
            methods.remove("frobenius")
        else:
            raise CliUsage("--method frobenius needs a single-part partition")
    t0 = time.monotonic()
    values: dict[str, Fraction] = {}
    for m in methods:
        if m == "diagram":
            values[m] = hs.character_diagram(lam, pi)
        elif m == "oracle":
            values[m] = so.normalized_character(lam, pi)
        else:
            values[m] = fr.frobenius_sigma(lam, sum(pi)) if weight(lam) >= sum(pi) else Fraction(0)
    agree = len(set(values.values())) == 1
    report = {
        "command": "character",
        "parameters": {"lambda": args.lam, "pi": args.pi, "method": args.method},
        "results": {m: str(v) for m, v in sorted(values.items())},
        "status": "ok" if agree else "disagree",
        "elapsed_ms": int((time.monotonic() - t0) * 1000),
    }
    csv_rows = [["lambda", "pi", "method", "value"]] + [
        [format_diagram(lam), format_diagram(pi), m, str(v)]
        for m, v in sorted(values.items())
    ]
    emit(report, args.format, csv_rows)
    return 0 if agree else 1


def cmd_verify(args) -> int:
    names = list(hs.RELATION_IDS) if args.relation == "all" else [args.relation]
    for name in names:
        if name not in hs.RELATIONS:
            raise CliUsage(f"unknown relation {name!r}")
    t0 = time.monotonic()
    reports = [hs.verify_relation(n, args.max_weight, args.jobs) for n in names]
    ok = all(r.verified for r in reports)
    if ok:
        status = "verified"
    elif any(r.failures for r in reports):
        status = "failed"
    else:
        status = "vacuous"  # some relation had no loops to check
    report = {
        "command": "verify",
        "parameters": {
            "relation": args.relation,
            "max_weight": args.max_weight,
            "jobs": args.jobs,
        },
        "results": {r.relation: r.to_json_dict() for r in reports},
        "status": status,
        "elapsed_ms": int((time.monotonic() - t0) * 1000),
    }
    emit(report, args.format)
    return 0 if ok else 1


def _moment_values(lam, upto: int, source: str, kind: str):
    values = {}
    ok = True
    for k in range(1, upto + 1):
        entry = {}
        if source in ("series", "both"):
            entry["series"] = (
                moment(lam, k) if kind == "moments" else boolean_cumulant(lam, k)
            )
        if source in ("diagram", "both"):
            if kind == "moments":
                entry["diagram"] = hs.moment_diagram(lam, k)
            elif k >= 2:
                entry["diagram"] = hs.cumulant_diagram(lam, k - 2)
        if len(entry) == 2 and entry["series"] != entry["diagram"]:
            ok = False
        values[k] = {s: str(v) for s, v in entry.items()}
    return values, ok


def cmd_moments(args, kind: str) -> int:
    lam = parse_diagram(args.lam)
    if args.upto < 1:
        raise CliUsage("--upto must be >= 1")
    t0 = time.monotonic()
    values, ok = _moment_values(lam, args.upto, args.source, kind)
    report = {
        "command": kind,
        "parameters": {
            "lambda": args.lam,
            "upto": args.upto,
            "source": args.source,
        },
        "results": {str(k): v for k, v in values.items()},
        "status": "ok" if ok else "disagree",
        "elapsed_ms": int((time.monotonic() - t0) * 1000),
    }
    emit(report, args.format)
    return 0 if ok else 1


def cmd_eval(args) -> int:
    try:
        with open(args.file) as fh:
            text = fh.read()
    except OSError as exc:
        raise CliUsage(str(exc))
    try:
        programs = parse_programs(text, hs.BUILTIN_ELEMENTS, PLANCHEREL)
    except TangleError as exc:
        raise CliParseError(f"{args.file}: {exc}")
    if args.name not in programs:
        raise CliUsage(
            f"no tangle named {args.name!r} in {args.file}; "
            f"found {sorted(programs)}"
        )
    prog = programs[args.name]
    loop = parse_loop(args.loop)
    if len(loop) > MAX_CLI_LOOP_LENGTH:
        raise CliUsage(f"loop length capped at {MAX_CLI_LOOP_LENGTH}")
    t0 = time.monotonic()
    try:
        value = evaluate(prog, loop, PLANCHEREL)
    except TangleError as exc:
        raise CliParseError(str(exc))
    report = {
        "command": "eval",
        "parameters": {"file": args.file, "name": args.name, "loop": args.loop},
        "results": {"value": value.render()},
        "status": "ok",
        "elapsed_ms": int((time.monotonic() - t0) * 1000),
    }
    if args.format == "text":
        print(value.render())
    else:
        emit(report, args.format)
    return 0


def cmd_frobenius(args) -> int:
    lam = parse_diagram(args.lam)
    n = args.n
    checks = (
        ["satellite", "radial", "contours", "lemmas"]
        if args.check == "all"
        else [args.check]
    )
    t0 = time.monotonic()
    results: dict[str, object] = {}
    ok = True
    sigma_n = hs.character_diagram(lam, (n,))
    if "satellite" in checks:
        sat = fr.satellite_I(lam, n)
        frob = fr.frobenius_sigma(lam, n)
        good = (-sat == n * sigma_n) and frob == sigma_n
        ok &= good
        results["satellite"] = {
            "satellite_I": str(sat),
            "frobenius_sigma": str(frob),
            "normalized_character": str(sigma_n),
            "ok": good,
        }
    if "radial" in checks:
        rad = fr.radial_I(lam, n)
        good = rad == (-1) ** n * sigma_n
        ok &= good
        results["radial"] = {"radial_I": str(rad), "ok": good}
    if "contours" in checks:
        rng = random.Random(args.seed)
        step_ok = True
        for k in range(0, n - 1):
            samples = [fr.sample_points(lam, n - k - 1, rng) for _ in range(10)]
            step_ok &= fr.satellite_step_check(lam, n, k, samples)
        contour: dict[str, bool] = {"satellite_steps": step_ok}
        if n == 2:
            r_id, r_sw = fr.radial_I(lam, 2), fr.radial_I(lam, 2, (2, 1))
            contour["n2_identity"] = (
                r_sw - r_id == fr.satellite_I(lam, 2) and r_sw == -r_id
            )
        if n == 3:
            contour["n3_exchange"] = fr.radial_I(lam, 3, (2, 1, 3)) == fr.radial_I(
                lam, 3, (2, 3, 1)
            )
            contour["n3_identity"] = fr.satellite_I(lam, 3) == 3 * fr.radial_I(lam, 3)
        good = all(contour.values())
        ok &= good
        results["contours"] = contour
    if "lemmas" in checks:
        if n < 2:
            raise CliUsage("--check lemmas needs n >= 2")
        lem = fr.lemma_checks(lam, n, sample_count=20, seed=args.seed)
        good = all(lem.values())
        ok &= good
        results["lemmas"] = lem
    report = {
        "command": "frobenius",
        "parameters": {
            "lambda": args.lam,
            "n": n,
            "check": args.check,
            "seed": args.seed,
        },
        "results": results,
        "status": "verified" if ok else "failed",
        "elapsed_ms": int((time.monotonic() - t0) * 1000),
    }
    emit(report, args.format)
    return 0 if ok else 1


def cmd_kerov(args) -> int:
    pi = parse_diagram(args.pi)
    if sum(pi) > MAX_CLI_KEROV_WEIGHT:
        raise CliUsage(f"|pi| capped at {MAX_CLI_KEROV_WEIGHT}")
    t0 = time.monotonic()
    try:
        expansion = hs.kerov_boolean_expansion(pi, args.sample_weight)
    except hs.KerovUnderdeterminedError as exc:
        report = {
            "command": "kerov",
            "parameters": {"pi": args.pi, "sample_weight": args.sample_weight},
            "results": {"error": str(exc)},
            "status": "underdetermined",
            "elapsed_ms": int((time.monotonic() - t0) * 1000),
        }
        emit(report, args.format)
        return 1
    p_poly = hs.kerov_p_polynomial(pi, expansion)
    nonneg = all(c >= 0 and c.denominator == 1 for c in p_poly.values())
    report = {
        "command": "kerov",
        "parameters": {"pi": args.pi, "sample_weight": args.sample_weight},
        "results": {
            "sigma_in_B": hs.render_expansion(expansion),
            "P_polynomial": hs.render_expansion(p_poly, var="x"),
            "nonnegative_integer_coefficients": nonneg,
        },
        "status": "ok" if nonneg else "failed",
        "elapsed_ms": int((time.monotonic() - t0) * 1000),
    }
    emit(report, args.format)
    return 0 if nonneg else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ypa",
        description="Exact planar algebra of the Young graph (Plancherel weights).",
    )
    ap.add_argument(
        "--format", choices=("text", "json", "csv"), default="text"
    )
    # The flag is global but also accepted after the subcommand.
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument(
        "--format", choices=("text", "json", "csv"), default=argparse.SUPPRESS
    )
    sub = ap.add_subparsers(dest="command", required=True, parser_class=argparse.ArgumentParser)

    p = sub.add_parser("character", help="normalized character three ways", parents=[fmt])
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--pi", required=True)
    p.add_argument(
        "--method", choices=("diagram", "oracle", "frobenius", "all"), default="all"
    )

    p = sub.add_parser("verify", help="sweep the local relations", parents=[fmt])
    p.add_argument("--relation", default="all")
    p.add_argument("--max-weight", type=int, default=6)
    p.add_argument("--jobs", type=int, default=1)

    for kind in ("moments", "cumulants"):
        p = sub.add_parser(kind, help=f"{kind} by series and/or diagrams", parents=[fmt])
        p.add_argument("--lambda", dest="lam", required=True)
        p.add_argument("--upto", type=int, required=True)
        p.add_argument(
            "--source", choices=("series", "diagram", "both"), default="both"
        )

    p = sub.add_parser("eval", help="evaluate a .tng tangle on a loop", parents=[fmt])
    p.add_argument("--file", required=True)
    p.add_argument("--name", required=True)
    p.add_argument("--loop", required=True)

    p = sub.add_parser("frobenius", help="contour-integral checks", parents=[fmt])
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument(
        "--check",
        choices=("satellite", "radial", "contours", "lemmas", "all"),
        default="all",
    )
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("kerov", help="Boolean-cumulant expansion of Sigma_pi", parents=[fmt])
    p.add_argument("--pi", required=True)
    p.add_argument("--sample-weight", type=int, default=8)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        if args.command == "character":
            return cmd_character(args)
        if args.command == "verify":
            return cmd_verify(args)
        if args.command in ("moments", "cumulants"):
            return cmd_moments(args, args.command)
        if args.command == "eval":
            return cmd_eval(args)
        if args.command == "frobenius":
            return cmd_frobenius(args)
        if args.command == "kerov":
            return cmd_kerov(args)
        raise CliUsage(f"unknown command {args.command!r}")
    except CliUsage as exc:
        print(f"ypa: {exc}", file=sys.stderr)
        return 2
    except (CliParseError, LiteralError) as exc:
        print(f"ypa: parse error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:  # invalid parameters rejected by the library
        print(f"ypa: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
