"""The three benchmark workloads: seeded inputs, instance runs and verdict checks.

Every input is generated here from the workload seed, independently of
colonlab's own random helpers, so a kernel change cannot alter the inputs.
colonlab receives only generator polynomials (parsed during set-up) or, on the
CLI workload, generator strings. Each instance is checked against the verdict
the theorems predict, never against a recorded run.

A workload is a fixed list of instance specs, one *pass*. The seed and the
pass number pick the coefficients; the composition of a pass never changes,
so passes from different seeds cost nearly the same and figures stay steady.

colonlab functions are looked up on the package (``cl.<name>``) at call time,
so the tracer's wrappers are seen when tracing is on.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import colonlab as cl
import colonlab.cli

P = 32003
MAX_ATTEMPTS = 100


class VerdictMismatch(Exception):
    """A verdict, cross-check or exit code disagrees with the theorem's prediction."""


def expect(condition, message):
    if not condition:
        raise VerdictMismatch(message)


@dataclass
class Instance:
    action: str  # ladder | oracle | equiv | equiv-m2 | corollary | storch
    field: str  # "F32003", "Q" or "F2"
    variables: tuple
    gens: tuple  # generator strings
    degrees: tuple = ()  # generator degrees of a homogeneous complete intersection
    name: str = ""  # fixture name, empty for random instances
    polys: tuple = ()  # parsed generators, for the workloads that pass polynomials

    def key(self) -> str:
        return "|".join((self.action, self.field, ",".join(self.variables), ",".join(self.gens)))

    def delta(self) -> int:
        if self.degrees:
            return sum(self.degrees) - len(self.degrees)
        return len(FIXTURES[self.name][2]) - 1

    def length(self) -> int:
        if self.degrees:
            return math.prod(self.degrees)
        return sum(FIXTURES[self.name][2])


# ---------------------------------------------------------------------------
# Predictions from the theorems.


def h_vector(degrees):
    """Graded Hilbert function of a complete intersection: prod (1 + t + ... + t^(d-1))."""
    h = [1]
    for d in degrees:
        out = [0] * (len(h) + d - 1)
        for i, c in enumerate(h):
            for j in range(d):
                out[i + j] += c
        h = out
    return tuple(h)


def square_filtration(h):
    """H(m^2, i) = h_(2i) + h_(2i+1) for a standard graded quotient with h-vector h."""
    padded = list(h) + [0]
    return tuple(padded[2 * i] + padded[2 * i + 1] for i in range(len(h) // 2 + (len(h) % 2)))


def is_palindrome(values) -> bool:
    return tuple(values) == tuple(reversed(values))


# Non-complete-intersection fixtures: (field, generators, filtration table of
# m, failing ladder rungs). Both are characteristic-2 Gorenstein quotients
# whose tables are not symmetric, so the equivalence predicts a failing ladder.
FIXTURES = {
    "storch": ("F2", ("x^2+y^3", "x^2+x*y+y^3"), (1, 2, 1, 1), [2]),
    "char2_variant": ("F2", ("x^2+y^2", "x^2+x*y+y^3"), (1, 2, 1, 1, 1), [2, 3]),
}

# The Gorenstein entries of the test corpus that are complete intersections:
# (name, field, variables, generators, degrees).
CORPUS_CI = (
    ("ci_x2_y2_q", "Q", ("x", "y"), ("x^2", "y^2"), (2, 2)),
    ("ci_x2_y2_f2", "F2", ("x", "y"), ("x^2", "y^2"), (2, 2)),
    ("ci_x2_y3", "F32003", ("x", "y"), ("x^2", "y^3"), (2, 3)),
    ("ci_x3_y4", "Q", ("x", "y"), ("x^3", "y^4"), (3, 4)),
    ("ci_x4_y4", "F32003", ("x", "y"), ("x^4", "y^4"), (4, 4)),
    ("univariate_x3", "Q", ("x",), ("x^3",), (3,)),
    ("ci_x2_y2_z2", "F32003", ("x", "y", "z"), ("x^2", "y^2", "z^2"), (2, 2, 2)),
    ("ci_x3_y3_z2", "Q", ("x", "y", "z"), ("x^3", "y^3", "z^2"), (3, 3, 2)),
    ("ci_x3_y3_z4", "F32003", ("x", "y", "z"), ("x^3", "y^3", "z^4"), (3, 3, 4)),
    ("ci_4vars", "F32003", ("x", "y", "z", "w"), ("x^2", "y^2", "z^2", "w^2"), (2, 2, 2, 2)),
    ("mixed_ci", "F32003", ("x", "y"), ("x^2+y^2", "x*y^2"), (2, 3)),
)


# ---------------------------------------------------------------------------
# Input generation.

VARIABLES = ("x", "y", "z")


def exponents_of_degree(nvars, degree):
    return [e for e in itertools.product(range(degree + 1), repeat=nvars) if sum(e) == degree]


def format_form(variables, terms) -> str:
    """Canonical-enough text for sum(c * x^e); zero coefficients are dropped."""
    parts = []
    for exps, c in terms:
        if c == 0:
            continue
        mono = "*".join(v if k == 1 else f"{v}^{k}" for v, k in zip(variables, exps) if k)
        sign = "-" if c < 0 else "+"
        parts.append(f"{sign}{abs(c)}*{mono}")
    text = "".join(parts)
    return text[1:] if text.startswith("+") else text


def random_coefficient(rng, field):
    if field == "Q":
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    return rng.randrange(P)


def random_ci(rng, field, degrees):
    """Dense random homogeneous forms of the given degrees cutting out an Artinian quotient.

    Rejection sampling: a draw is kept only if make_quotient accepts it (the
    quotient is Artinian), so the instance is a complete intersection.
    Returns (generator strings, parsed generators).
    """
    variables = VARIABLES[: len(degrees)]
    ring = cl.Ring(variables, cl.field_from_name(field))
    for _ in range(MAX_ATTEMPTS):
        gens = tuple(
            format_form(
                variables,
                [(e, random_coefficient(rng, field)) for e in exponents_of_degree(len(degrees), d)],
            )
            for d in degrees
        )
        if not all(gens):
            continue
        polys = tuple(ring.parse(g) for g in gens)
        try:
            cl.make_quotient(cl.Ideal(ring, polys))
        except cl.PreconditionError:
            continue
        return gens, polys
    raise RuntimeError(f"no Artinian complete intersection of degrees {degrees} in {MAX_ATTEMPTS} draws")


# ---------------------------------------------------------------------------
# Pass composition. A spec is (action, field, degrees) for a random instance
# or (action, fixture name) for a fixed one.


def _ladder_specs():
    two = [("ladder", "F32003", d) for d in itertools.product(range(1, 5), repeat=2)]
    three = [("ladder", "F32003", d) for d in itertools.product(range(1, 4), repeat=3)]
    return two + three


def _oracle_specs():
    return [("oracle", "F32003", d) for d in itertools.product(range(2, 5), repeat=3)]


def _cli_specs():
    cis = [d for d in itertools.product(range(1, 4), repeat=2)]
    cis += [d for d in itertools.combinations_with_replacement(range(1, 4), 3) if sum(d) <= 8]
    specs = [(a, "Q", d) for d in cis for a in ("equiv", "corollary", "equiv-m2")]
    specs += [("equiv", name) for name, *_ in CORPUS_CI]
    specs += [("equiv", "storch"), ("equiv", "char2_variant"), ("storch", "storch")]
    return specs


SPECS = {
    "ladder-fp": _ladder_specs(),
    "oracle-fp": _oracle_specs(),
    "equiv-q-cli": _cli_specs(),
}

WHY = {
    "ladder-fp": "complete-intersection ladders over F32003: colon/ideal_intersect/buchberger/normal_form do the work, the oracle none",
    "oracle-fp": "oracle cross-check of the corollary over F32003: echelon work dominates, no colon runs",
    "equiv-q-cli": "equiv/corollary/storch through cli.main over Q and F2: Fraction arithmetic, parsing, hilbert and cli layers",
}


def _fixed_instance(action, name):
    if name in FIXTURES:
        field, gens, _, _ = FIXTURES[name]
        return Instance(action, field, ("x", "y"), gens, name=name)
    for fixture, field, variables, gens, degrees in CORPUS_CI:
        if fixture == name:
            return Instance(action, field, variables, gens, degrees, name=name)
    raise KeyError(name)


def make_pass(workload: str, seed: int, index: int):
    """Instances of pass `index`: same composition every pass, coefficients from (seed, index)."""
    instances = []
    for n, spec in enumerate(SPECS[workload]):
        if len(spec) == 2:
            instances.append(_fixed_instance(*spec))
            continue
        action, field, degrees = spec
        rng = random.Random(f"{workload}/{seed}/{index}/{n}")
        gens, polys = random_ci(rng, field, degrees)
        # The CLI workload hands the program strings only.
        keep = polys if action in ("ladder", "oracle") else ()
        instances.append(Instance(action, field, VARIABLES[: len(degrees)], gens, degrees, polys=keep))
    return instances


def digest(instances) -> str:
    h = hashlib.sha256()
    for inst in instances:
        h.update(inst.key().encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


def mix_summary(instances) -> dict:
    def count(values):
        return dict(sorted(Counter(values).items()))

    return {
        "instances": len(instances),
        "action": count(i.action for i in instances),
        "field": count(i.field for i in instances),
        "nvars": count(str(len(i.variables)) for i in instances),
        "degrees": count(",".join(map(str, sorted(i.degrees))) or i.name for i in instances),
        "delta": count(str(i.delta()) for i in instances),
        "length": count(str(i.length()) for i in instances),
    }


# ---------------------------------------------------------------------------
# Running one instance; raises VerdictMismatch when a prediction fails.


def run_instance(inst: Instance) -> None:
    if inst.action == "ladder":
        _run_ladder(inst)
    elif inst.action == "oracle":
        _run_oracle(inst)
    else:
        _run_cli(inst)


def _run_ladder(inst):
    delta = inst.delta()
    report = cl.verify_macaulay_ladder(inst.polys)
    expect(report.delta == delta, f"delta {report.delta} != {delta}")
    expect(len(report.rungs) == delta + 2, f"{len(report.rungs)} rungs for delta {delta}")
    expect(report.holds and all(r.equal for r in report.rungs), f"ladder fails for {inst.key()}")
    expect(cl.check_delta_identity(inst.polys) is True, f"delta identity fails for {inst.key()}")


def _run_oracle(inst):
    ring = inst.polys[0].ring
    h = h_vector(inst.degrees)
    delta = inst.delta()
    A = cl.make_quotient(cl.Ideal(ring, inst.polys))
    M = cl.build_model(A)
    m = cl.irrelevant_power(ring, 1)
    graded = cl.graded_hilbert(A)
    expect(graded.values == h, f"graded table {graded.values} != {h}")
    expect(M.dim == inst.length(), f"model dimension {M.dim} != {inst.length()}")
    filtration = cl.oracle_filtration_hilbert(M, m)
    expect(filtration.values == graded.values, f"oracle table {filtration.values} != {graded.values}")
    V = cl.subspace_of_ideal(M, m)
    powers = [cl.oracle_power(M, V, k) for k in range(delta + 2)]
    for k, power in enumerate(powers):
        expect(power.dim == sum(h[k:]), f"dim m^{k} = {power.dim} != {sum(h[k:])}")
    for i in range(delta + 1):
        expect(
            cl.annihilator(M, powers[i]) == powers[delta + 1 - i],
            f"0 : m^{i} != m^{delta + 1 - i} for {inst.key()}",
        )


def cli_argv(inst: Instance):
    if inst.action == "storch":
        return ["storch", "--json"]
    argv = [
        "equiv" if inst.action.startswith("equiv") else inst.action,
        "--field", inst.field,
        "--vars", ",".join(inst.variables),
        f"--gens={','.join(inst.gens)}",  # "=" keeps a leading "-" from reading as a flag
    ]
    if inst.action == "equiv-m2":
        squares = exponents_of_degree(len(inst.variables), 2)
        argv += ["--ideal2", ",".join(format_form(inst.variables, [(e, 1)]) for e in squares)]
    return argv + ["--json"]


def _run_cli(inst):
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = colonlab.cli.main(cli_argv(inst))
    except SystemExit as exc:  # argparse rejects bad usage by exiting
        code = exc.code
    expect(code == 0, f"exit code {code} for {inst.key()}")
    result = json.loads(out.getvalue())["result"]
    unequal = [r["i"] for r in result["rungs"] if not r["equal"]]
    if inst.action == "corollary":
        delta = inst.delta()
        expect(result["delta"] == delta, f"delta {result['delta']} != {delta}")
        expect(len(result["rungs"]) == delta + 1, f"{len(result['rungs'])} rungs for delta {delta}")
        expect(result["holds"] and not unequal, f"corollary fails at {unequal} for {inst.key()}")
        return
    # equiv, equiv-m2 and storch: the equivalence is always consistent.
    table = tuple(result["hilbert"])
    expect(result["consistent"] is True, f"inconsistent equivalence for {inst.key()}")
    expect(result["delta"] == len(table) - 1 == len(result["rungs"]) - 1, "table and rungs disagree with delta")
    expect(result["symmetric"] == is_palindrome(table), f"symmetry flag wrong for {table}")
    expect(result["ladder_holds"] == (not unequal), "ladder flag disagrees with its rungs")
    expect(result["ladder_holds"] == result["symmetric"], "ladder and symmetry disagree")
    if inst.name in FIXTURES:
        _, _, expected, failing = FIXTURES[inst.name]
        expect(table == expected, f"{inst.name} table {table} != {expected}")
        expect(unequal == failing, f"{inst.name} ladder fails at {unequal}, expected {failing}")
        if inst.action == "storch":
            expect(result["length"] == sum(expected) and result["gorenstein"] is True, "storch summary")
        return
    h = h_vector(inst.degrees)
    predicted = square_filtration(h) if inst.action == "equiv-m2" else h
    expect(table == predicted, f"table {table} != predicted {predicted} for {inst.key()}")
    if inst.action == "equiv":
        expect(result["symmetric"] and result["ladder_holds"], f"graded ladder fails for {inst.key()}")
