"""Command-line frontend: exact values and verification sweeps.

Every subcommand maps the parsed arguments to ``(results, status)``; ``main``
builds the one report shape (command, parameters, results, status,
elapsed_ms) and prints it.  Each command checks all of its parameters before
it computes anything.

Exit codes: 0 status ok/verified, 1 any other status (a disagreement, a
failed check, a vacuous sweep with no loops checked, an underdetermined or
inconsistent fit), 2 usage error or invalid parameter, 3 parse error (bad
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
from .young import LiteralError, format_diagram, parse_diagram, parse_loop

MAX_CLI_LOOP_LENGTH = 8
MAX_CLI_KEROV_WEIGHT = 5
# The dotted-circle tangles of `moments`/`cumulants --source both` grow about
# quadratically in --upto: on lambda = (5,3,1) they took 0.5 s at 200, 2.0 s
# at 400 and 9 s at 800 (one run each, 2-core VM, Python 3.11).
MAX_CLI_MOMENT_INDEX = 200
# `verify --relation all --jobs 1` took 1.3 s at --max-weight 12 and 3.1 s at
# 14 (medians of 8 runs), `kerov --pi "[5]"`, the slowest |pi| <= 5, 4.0 s at
# --sample-weight 20 and 7.0 s at 22 (one run each; 2-core VM, Python 3.11).
MAX_CLI_VERIFY_WEIGHT = 12
MAX_CLI_KEROV_SAMPLE_WEIGHT = 20
# The oracle traces on V^mu for every mu of weight |pi| below lambda.  On the
# staircase lambda = (k, k-1, ..., 1), which holds every such mu, pi = (k)
# took 1.7 s at k = 10, 9.0 s at 11 and 50 s at 12 (one run each, 2-core VM,
# Python 3.11).
MAX_CLI_ORACLE_PI = 10

CHARACTER_METHODS = {
    "diagram": hs.character_diagram,
    "oracle": so.normalized_character,
    "frobenius": lambda lam, pi: fr.frobenius_sigma(lam, pi[0]),
}


class CliUsage(Exception):
    """A usage error or invalid parameter; exit code 2."""


class CliParseError(Exception):
    """A .tng source or program that fails to parse or apply; exit code 3."""


def report_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True)


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


def character_values(lam, pi, method: str = "all") -> dict[str, Fraction]:
    """The normalized character of lam at pi by one method, or by all three.

    The Frobenius residues need a one-part pi; ``"all"`` leaves them out for
    any other pi.  They give 0 by themselves when |pi| > |lam|.
    """
    if method == "all":
        methods = [m for m in CHARACTER_METHODS if m != "frobenius" or len(pi) == 1]
    elif method == "frobenius" and len(pi) != 1:
        raise CliUsage("--method frobenius needs a single-part partition")
    else:
        methods = [method]
    return {m: CHARACTER_METHODS[m](lam, pi) for m in sorted(methods)}


def cmd_character(args):
    lam, pi = parse_diagram(getattr(args, "lambda")), parse_diagram(args.pi)
    if args.method in ("oracle", "all") and sum(pi) > MAX_CLI_ORACLE_PI:
        raise CliUsage(f"|pi| capped at {MAX_CLI_ORACLE_PI} for --method {args.method}")
    values = character_values(lam, pi, args.method)
    status = "ok" if len(set(values.values())) == 1 else "disagree"
    return {m: str(v) for m, v in values.items()}, status


def cmd_verify(args):
    if args.max_weight > MAX_CLI_VERIFY_WEIGHT:
        raise CliUsage(f"--max-weight capped at {MAX_CLI_VERIFY_WEIGHT}")
    names = list(hs.RELATION_IDS) if args.relation == "all" else [args.relation]
    reports = [hs.verify_relation(n, args.max_weight, args.jobs) for n in names]
    if all(r.verified for r in reports):
        status = "verified"
    elif any(r.failures for r in reports):
        status = "failed"
    else:
        status = "vacuous"  # some relation had no loops to check
    return {r.relation: r.to_json_dict() for r in reports}, status


def cmd_moments(args):
    lam = parse_diagram(getattr(args, "lambda"))
    if args.upto < 1:
        raise CliUsage("--upto must be >= 1")
    if args.upto > MAX_CLI_MOMENT_INDEX:
        raise CliUsage(f"--upto capped at {MAX_CLI_MOMENT_INDEX}")
    moments = args.command == "moments"
    results, ok = {}, True
    for k in range(1, args.upto + 1):
        entry = {}
        if args.source in ("series", "both"):
            entry["series"] = moment(lam, k) if moments else boolean_cumulant(lam, k)
        if args.source in ("diagram", "both"):
            if moments or k == 1:  # B_1 = M_1
                entry["diagram"] = hs.moment_diagram(lam, k)
            else:
                entry["diagram"] = hs.cumulant_diagram(lam, k - 2)
        if len(entry) == 2 and entry["series"] != entry["diagram"]:
            ok = False
        results[str(k)] = {s: str(v) for s, v in entry.items()}
    return results, "ok" if ok else "disagree"


def cmd_eval(args):
    try:
        with open(args.file, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise CliUsage(str(exc))
    except UnicodeDecodeError as exc:
        raise CliParseError(f"{args.file}: not UTF-8: {exc}")
    try:
        programs = parse_programs(text, hs.BUILTIN_ELEMENTS)
    except TangleError as exc:
        raise CliParseError(f"{args.file}: {exc}")
    if args.name not in programs:
        raise CliUsage(
            f"no tangle named {args.name!r} in {args.file}; "
            f"found {sorted(programs)}"
        )
    program = programs[args.name]
    loop = parse_loop(args.loop)
    if len(loop) > MAX_CLI_LOOP_LENGTH:
        raise CliUsage(f"loop length capped at {MAX_CLI_LOOP_LENGTH}")
    if loop.signature != program.signature:
        raise CliUsage(
            f"loop signature {loop.signature} does not match the signature "
            f"{program.signature} of tangle {args.name!r}"
        )
    return {"value": evaluate(program, [loop], PLANCHEREL)[0].render()}, "ok"


def cmd_frobenius(args):
    lam, n = parse_diagram(getattr(args, "lambda")), args.n
    checks = (
        ["satellite", "radial", "contours", "lemmas"]
        if args.check == "all"
        else [args.check]
    )
    if n < 1:
        raise CliUsage("--n must be >= 1")
    if n < 2 and ("contours" in checks or "lemmas" in checks):
        raise CliUsage(f"--check {args.check} needs --n >= 2")
    limits = {
        "radial": fr.MAX_RADIAL_N,
        "contours": fr.MAX_CONTOUR_N,
        "lemmas": fr.MAX_LEMMA_N,
    }
    top = min(limits.get(check, n) for check in checks)
    if n > top:
        raise CliUsage(f"--check {args.check} needs --n <= {top}")
    results: dict[str, dict] = {}
    if "satellite" in checks or "radial" in checks:
        sigma_n = hs.character_diagram(lam, (n,))
    if "satellite" in checks:
        sat, frob = fr.satellite_I(lam, n), fr.frobenius_sigma(lam, n)
        results["satellite"] = {
            "satellite_I": str(sat),
            "frobenius_sigma": str(frob),
            "normalized_character": str(sigma_n),
            "ok": -sat == n * sigma_n and frob == sigma_n,
        }
    if "radial" in checks:
        rad = fr.radial_I(lam, n)
        results["radial"] = {"radial_I": str(rad), "ok": rad == (-1) ** n * sigma_n}
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
        results["contours"] = contour
    if "lemmas" in checks:
        results["lemmas"] = fr.lemma_checks(lam, n, sample_count=20, seed=args.seed)
    # Each check's verdicts are its boolean entries.
    ok = all(v for r in results.values() for v in r.values() if isinstance(v, bool))
    return results, "verified" if ok else "failed"


def cmd_kerov(args):
    pi = parse_diagram(args.pi)
    if sum(pi) > MAX_CLI_KEROV_WEIGHT:
        raise CliUsage(f"|pi| capped at {MAX_CLI_KEROV_WEIGHT}")
    if args.sample_weight > MAX_CLI_KEROV_SAMPLE_WEIGHT:
        raise CliUsage(f"--sample-weight capped at {MAX_CLI_KEROV_SAMPLE_WEIGHT}")
    try:
        expansion = hs.kerov_boolean_expansion(pi, args.sample_weight)
    except hs.KerovUnderdeterminedError as exc:
        return {"error": str(exc)}, "underdetermined"
    except hs.KerovInconsistentError as exc:
        return {"error": str(exc)}, "inconsistent"
    p_poly = hs.kerov_p_polynomial(pi, expansion)
    nonneg = all(c >= 0 and c.denominator == 1 for c in p_poly.values())
    results = {
        "sigma_in_B": hs.render_expansion(expansion),
        "P_polynomial": hs.render_expansion(p_poly, var="x"),
        "nonnegative_integer_coefficients": nonneg,
    }
    return results, "ok" if nonneg else "failed"


COMMANDS = {
    "character": cmd_character,
    "verify": cmd_verify,
    "moments": cmd_moments,
    "cumulants": cmd_moments,
    "eval": cmd_eval,
    "frobenius": cmd_frobenius,
    "kerov": cmd_kerov,
}


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
    p.add_argument("--lambda", required=True)
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
        p.add_argument("--lambda", required=True)
        p.add_argument("--upto", type=int, required=True)
        p.add_argument(
            "--source", choices=("series", "diagram", "both"), default="both"
        )

    p = sub.add_parser("eval", help="evaluate a .tng tangle on a loop", parents=[fmt])
    p.add_argument("--file", required=True)
    p.add_argument("--name", required=True)
    p.add_argument("--loop", required=True)

    p = sub.add_parser("frobenius", help="contour-integral checks", parents=[fmt])
    p.add_argument("--lambda", required=True)
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
    args = build_parser().parse_args(argv)
    params = {k: v for k, v in vars(args).items() if k not in ("command", "format")}
    try:
        if args.format == "csv" and args.command != "character":
            raise CliUsage("--format csv is not defined for this command")
        t0 = time.monotonic()
        results, status = COMMANDS[args.command](args)
        elapsed_ms = int((time.monotonic() - t0) * 1000)
    except CliUsage as exc:
        print(f"ypa: {exc}", file=sys.stderr)
        return 2
    except (CliParseError, LiteralError) as exc:
        print(f"ypa: parse error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:  # invalid parameters rejected by the library
        print(f"ypa: {exc}", file=sys.stderr)
        return 2
    except hs.VerifyWorkerError as exc:  # a forked worker died: no report to give
        print(f"ypa: {exc}", file=sys.stderr)
        return 1
    report = {
        "command": args.command,
        "parameters": params,
        "results": results,
        "status": status,
        "elapsed_ms": elapsed_ms,
    }
    if args.format == "csv":
        lam, pi = (format_diagram(parse_diagram(params[k])) for k in ("lambda", "pi"))
        print("lambda,pi,method,value")
        for method, value in results.items():
            print(",".join((lam, pi, method, value)))
    elif args.format == "json":
        print(report_json(report))
    elif args.command == "eval":
        print(results["value"])  # the value alone, for use in shell pipelines
    else:
        _emit_text(report)
    return 0 if status in ("ok", "verified") else 1


if __name__ == "__main__":
    sys.exit(main())
