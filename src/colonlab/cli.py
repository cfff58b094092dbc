"""Command-line front end: one subcommand per verifier plus exploration primitives.

Exit codes: 0 when the invoked verifier's expected verdict holds (or a primitive
succeeds), 1 on a verified-failure verdict, 2 on usage or precondition errors,
3 on any other exception (an internal error, never a verdict's code) and when
the output cannot be written.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys
import time
import traceback

from .errors import ParseError, PreconditionError, UsageError
from .fields import field_from_name
from .groebner import Ideal
from .hilbert import filtration_hilbert, graded_hilbert
from .ideal_ops import (
    colon,
    ideal_intersect,
    irrelevant_power,
    make_quotient,
    socle_quotient,
)
from .poly import Ring, order_from_name
from .theorems import (
    check_delta_identity,
    random_complete_intersection,
    storch_counterexample,
    verify_corollary,
    verify_macaulay_ladder,
    verify_main_equivalence,
    verify_symmetry,
)

# random-ci refuses a larger --count before it runs any instance.
MAX_RANDOM_CI_COUNT = 1_000
# The keys of an --in file, one per flag of a ring command.
INPUT_KEYS = ("field", "vars", "order", "gens", "ideal2", "poly")


@functools.cache  # built once per process; parse_args leaves the parser unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="colonlab",
        description="Groebner-based colon-ideal and Hilbert-function laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def ring_command(name, help_text, needs_poly=False):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--field", default=None, help="Q or F<p> (default F32003)")
        p.add_argument("--vars", default=None, help="comma-separated variables, e.g. x,y")
        p.add_argument("--order", default=None, help="degrevlex (default) or lex")
        p.add_argument("--gens", default=None, help="comma-separated generator list")
        if name in ("colon", "intersect", "hilbert", "equiv"):
            p.add_argument("--ideal2", default=None, help="second ideal (comma-separated)")
        if needs_poly:
            p.add_argument("--poly", default=None, help="polynomial to reduce")
        p.add_argument("--in", dest="infile", default=None, help="key = value input file")
        p.add_argument("--json", action="store_true", help="emit a JSON report")
        return p

    ring_command("gb", "reduced Groebner basis of the ideal")
    ring_command("nf", "normal form of --poly against the ideal", needs_poly=True)
    ring_command("colon", "colon ideal (gens : ideal2)")
    ring_command("intersect", "intersection of (gens) and (ideal2)")
    ring_command("hilbert", "graded table of R/(gens), or filtration table of --ideal2")
    ring_command("socle", "socle of R/(gens) and the Gorenstein verdict")
    ring_command("ladder", "complete-intersection colon-power ladder check")
    ring_command("symmetry", "graded Hilbert symmetry check (Gorenstein input)")
    ring_command("equiv", "ladder <=> symmetry equivalence check (default ideal2 = m)")
    ring_command("corollary", "0 : m^i = m^(delta+1-i) ladder (graded Gorenstein input)")

    p = sub.add_parser("storch", help="built-in characteristic-2 counterexample fixture")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("random-ci", help="randomized complete-intersection ladder suite")
    p.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    p.add_argument(
        "--count",
        type=int,
        default=10,
        help=f"number of instances, 1 to {MAX_RANDOM_CI_COUNT} (default 10)",
    )
    p.add_argument("--json", action="store_true")
    return parser


def _read_input_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise UsageError(f"cannot read input file {path!r}: {reason}") from None
    values = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in INPUT_KEYS:
            expected = ", ".join(INPUT_KEYS)
            raise UsageError(f"{path}:{lineno}: unknown key {key!r}; expected {expected}")
        if key in values:
            raise UsageError(f"{path}:{lineno}: key {key!r} given twice")
        values[key] = value.strip()
    return values


def _split_list(text: str, sep: str):
    return [part.strip() for part in text.split(sep) if part.strip()]


def _resolve_ring(args) -> tuple:
    file_values = _read_input_file(args.infile) if args.infile else {}

    def pick(flag, key, default=None):
        if flag is not None:
            return flag
        if key in file_values:
            return file_values[key]
        return default

    field_name = pick(args.field, "field", "F32003")
    vars_text = pick(args.vars, "vars")
    order_name = pick(args.order, "order", "degrevlex")
    gens_text = pick(args.gens, "gens")
    if vars_text is None:
        raise UsageError("missing --vars (or 'vars = ...' in the input file)")
    if gens_text is None:
        raise UsageError("missing --gens (or 'gens = ...' in the input file)")
    ring = Ring(
        _split_list(vars_text, ","), field_from_name(field_name), order_from_name(order_name)
    )

    def pick_list(flag, key):
        # Generator lists are comma-separated on the command line, semicolon-separated in files.
        text = pick(flag, key)
        sep = "," if flag is not None else ";"
        return None if text is None else [ring.parse(s) for s in _split_list(text, sep)]

    gens = pick_list(args.gens, "gens")
    second = pick_list(getattr(args, "ideal2", None), "ideal2")
    poly_text = pick(getattr(args, "poly", None), "poly")
    poly = ring.parse(poly_text) if poly_text is not None else None
    return ring, gens, second, poly


def _basis_strings(ideal: Ideal):
    return [str(g) for g in ideal.groebner_basis()]


def _rungs_json(rungs):
    return [
        {"i": r.i, "lhs_gb_size": r.lhs_gb_size, "rhs_gb_size": r.rhs_gb_size, "equal": r.equal}
        for r in rungs
    ]


def _run_ring_command(args, resolved):
    ring, gens, second, poly = resolved
    I = Ideal(ring, tuple(gens))
    command = args.command
    if command == "gb":
        return {"basis": _basis_strings(I)}, 0
    if command == "nf":
        if poly is None:
            raise UsageError("nf needs --poly (or 'poly = ...' in the input file)")
        return {"remainder": str(I.reduce(poly))}, 0
    if command == "colon":
        if second is None:
            raise UsageError("colon needs --ideal2")
        result = colon(I, Ideal(ring, tuple(second)))
        return {"basis": _basis_strings(result)}, 0
    if command == "intersect":
        if second is None:
            raise UsageError("intersect needs --ideal2")
        result = ideal_intersect(I, Ideal(ring, tuple(second)))
        return {"basis": _basis_strings(result)}, 0
    if command == "hilbert":
        A = make_quotient(I)
        if second is None:
            table = graded_hilbert(A)
        else:
            table = filtration_hilbert(A, Ideal(ring, tuple(second)))
        return {
            "kind": table.kind,
            "values": list(table.values),
            "delta": table.delta,
            "length": A.length,
        }, 0
    if command == "socle":
        A = make_quotient(I)
        B = socle_quotient(A)
        dimension = A.length - B.length
        return {
            "socle_basis": _basis_strings(B.defining),
            "socle_dimension": dimension,
            "gorenstein": dimension == 1,
        }, 0
    if command == "ladder":
        report = verify_macaulay_ladder(gens)
        return {
            "delta": report.delta,
            "holds": report.holds,
            "delta_identity": check_delta_identity(gens),
            "rungs": _rungs_json(report.rungs),
        }, 0 if report.holds else 1
    if command == "symmetry":
        table, symmetric = verify_symmetry(I)
        return {
            "values": list(table.values),
            "delta": table.delta,
            "symmetric": symmetric,
        }, 0 if symmetric else 1
    if command == "equiv":
        A = make_quotient(I)
        inner = Ideal(ring, tuple(second)) if second is not None else irrelevant_power(ring, 1)
        report = verify_main_equivalence(A, inner)
        return _equiv_json(report), 0 if report.consistent else 1
    if command == "corollary":
        report = verify_corollary(I)
        return {
            "delta": report.delta,
            "holds": report.holds,
            "rungs": _rungs_json(report.rungs),
        }, 0 if report.holds else 1
    raise UsageError(f"unhandled command {command!r}")


def _equiv_json(report):
    return {
        "delta": report.delta,
        "ladder_holds": report.ladder_holds,
        "hilbert": list(report.table.values),
        "symmetric": report.symmetric,
        "consistent": report.consistent,
        "rungs": _rungs_json(report.rungs),
    }


def _run_storch(args):
    report = storch_counterexample()
    result = _equiv_json(report)
    result["length"] = sum(report.table.values)
    result["gorenstein"] = True
    expected = (
        report.table.values == (1, 2, 1, 1)
        and not report.symmetric
        and not report.ladder_holds
        and report.consistent
    )
    return result, 0 if expected else 1


def _run_random_ci(args):
    if args.count < 1:
        raise UsageError(f"--count must be at least 1, got {args.count}")
    if args.count > MAX_RANDOM_CI_COUNT:
        raise UsageError(f"--count must be at most {MAX_RANDOM_CI_COUNT}, got {args.count}")
    rng = random.Random(args.seed)
    instances = []
    all_hold = True
    for _ in range(args.count):
        nvars = rng.choice((2, 3))
        gens, degrees = random_complete_intersection(rng, nvars)
        report = verify_macaulay_ladder(gens)
        identity = check_delta_identity(gens)
        ok = report.holds and identity and report.delta == sum(degrees) - nvars
        all_hold = all_hold and ok
        instances.append(
            {
                "nvars": nvars,
                "degrees": degrees,
                "delta": report.delta,
                "holds": report.holds,
                "delta_identity": identity,
            }
        )
    result = {"seed": args.seed, "count": args.count, "all_hold": all_hold, "instances": instances}
    return result, 0 if all_hold else 1


def _emit(args, result: dict, ring=None, elapsed_ms: float = 0.0) -> None:
    if getattr(args, "json", False):
        document = {"command": args.command}
        if ring is not None:
            document["ring"] = {
                "field": ring.field.name,
                "vars": list(ring.variables),
                "order": ring.order.name,
            }
        document["result"] = result
        document["timing_ms"] = round(elapsed_ms, 3)
        print(json.dumps(document, indent=2))
        return
    for key, value in result.items():
        if key == "rungs":
            for rung in value:
                status = "equal" if rung["equal"] else "DIFFERENT"
                print(
                    f"  i={rung['i']}: lhs gb size {rung['lhs_gb_size']}, "
                    f"rhs gb size {rung['rhs_gb_size']}: {status}"
                )
        elif key == "instances":
            for idx, inst in enumerate(value):
                print(
                    f"  #{idx}: n={inst['nvars']} degrees={inst['degrees']} "
                    f"delta={inst['delta']} holds={inst['holds']} "
                    f"delta_identity={inst['delta_identity']}"
                )
        elif isinstance(value, list):
            print(f"{key}:")
            for item in value:
                print(f"  {item}")
        else:
            print(f"{key}: {value}")


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    ring = None
    try:
        if args.command == "storch":
            result, code = _run_storch(args)
        elif args.command == "random-ci":
            result, code = _run_random_ci(args)
        else:
            resolved = _resolve_ring(args)
            ring = resolved[0]
            result, code = _run_ring_command(args, resolved)
        _emit(args, result, ring, (time.perf_counter() - started) * 1000.0)
        sys.stdout.flush()
    except (ParseError, UsageError, PreconditionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # writing the output; an unreadable --in file is a UsageError
        print(f"error: cannot write the output: {exc}", file=sys.stderr)
        # What stdout still holds would fail again at the flush on shutdown.
        sys.stdout = open(os.devnull, "w", encoding="utf-8")
        return 3
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc()
        return 3
    return code


if __name__ == "__main__":
    sys.exit(main())
