"""Command-line interface: verdict exit codes, JSON schema, determinism."""

from __future__ import annotations

import errno
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from colonlab import (
    Ideal,
    InternalError,
    QQ,
    Ring,
    ideal_equal,
    irrelevant_power,
    make_quotient,
    verify_main_equivalence,
)
from colonlab import cli
from colonlab.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    assert err == ""
    return code, json.loads(out)


def test_storch_command(capsys):
    code, document = run_json(capsys, "storch")
    assert code == 0
    assert document["command"] == "storch"
    result = document["result"]
    assert result["hilbert"] == [1, 2, 1, 1]
    assert result["length"] == 5
    assert result["gorenstein"] is True
    assert result["symmetric"] is False
    assert result["ladder_holds"] is False
    assert result["consistent"] is True
    assert "timing_ms" in document


def test_ladder_command(capsys):
    code, document = run_json(
        capsys, "ladder", "--field", "F32003", "--vars", "x,y", "--gens", "x^2,y^3"
    )
    assert code == 0
    assert document["result"]["delta"] == 3
    assert document["result"]["holds"] is True
    assert document["ring"] == {"field": "F32003", "vars": ["x", "y"], "order": "degrevlex"}


def test_ladder_precondition_exit_code(capsys):
    code, out, err = run(
        capsys, "ladder", "--field", "Q", "--vars", "x,y", "--gens", "x^2+y^2"
    )
    assert code == 2
    assert "error" in err


def test_gb_command_round_trip(capsys):
    code, document = run_json(
        capsys, "gb", "--field", "Q", "--vars", "x,y", "--gens", "x^2+y^2,x^2-y^2"
    )
    assert code == 0
    basis = document["result"]["basis"]
    ring = Ring(("x", "y"), QQ)
    reparsed = Ideal(ring, tuple(ring.parse(s) for s in basis))
    original = Ideal(ring, (ring.parse("x^2+y^2"), ring.parse("x^2-y^2")))
    assert ideal_equal(reparsed, original)
    assert [str(g) for g in reparsed.groebner_basis()] == basis


def test_nf_command(capsys):
    code, document = run_json(
        capsys,
        "nf",
        "--field", "Q",
        "--vars", "x,y",
        "--gens", "x^2-1",
        "--poly", "x^2*y+y",
    )
    assert code == 0
    assert document["result"]["remainder"] == "2*y"


def test_colon_command(capsys):
    code, document = run_json(
        capsys,
        "colon",
        "--field", "Q",
        "--vars", "x,y",
        "--gens", "x^2,y^2",
        "--ideal2", "x,y",
    )
    assert code == 0
    assert document["result"]["basis"] == ["x^2", "x*y", "y^2"]


def test_intersect_command(capsys):
    code, document = run_json(
        capsys, "intersect", "--field", "Q", "--vars", "x,y", "--gens", "x", "--ideal2", "y"
    )
    assert code == 0
    assert document["result"]["basis"] == ["x*y"]


def test_hilbert_graded_and_filtration(capsys):
    code, document = run_json(
        capsys, "hilbert", "--field", "Q", "--vars", "x,y", "--gens", "x^2,y^2"
    )
    assert code == 0
    assert document["result"] == {"kind": "graded", "values": [1, 2, 1], "delta": 2, "length": 4}
    code, document = run_json(
        capsys,
        "hilbert",
        "--field", "Q",
        "--vars", "x,y",
        "--gens", "x^2,y^2",
        "--ideal2", "x,y",
    )
    assert code == 0
    assert document["result"]["kind"] == "filtration"
    assert document["result"]["values"] == [1, 2, 1]


def test_socle_command(capsys):
    code, document = run_json(
        capsys, "socle", "--field", "Q", "--vars", "x,y", "--gens", "x^2,x*y,y^2"
    )
    assert code == 0
    assert document["result"]["socle_dimension"] == 2
    assert document["result"]["gorenstein"] is False


def test_socle_of_zero_ring(capsys):
    code, document = run_json(capsys, "socle", "--vars", "x,y", "--gens", "1")
    assert code == 0
    assert document["result"]["socle_dimension"] == 0
    assert document["result"]["gorenstein"] is False


def test_symmetry_command(capsys):
    code, document = run_json(
        capsys, "symmetry", "--field", "Q", "--vars", "x,y", "--gens", "x^2,y^2"
    )
    assert code == 0
    assert document["result"]["values"] == [1, 2, 1]


def test_equiv_command_default_maximal(capsys):
    code, document = run_json(
        capsys, "equiv", "--field", "Q", "--vars", "x,y", "--gens", "x^2,y^2"
    )
    assert code == 0
    assert document["result"]["consistent"] is True
    assert document["result"]["hilbert"] == [1, 2, 1]


def test_corollary_command(capsys):
    code, document = run_json(
        capsys, "corollary", "--field", "Q", "--vars", "x", "--gens", "x^3"
    )
    assert code == 0
    assert document["result"]["delta"] == 2 and document["result"]["holds"] is True


def test_random_ci_command(capsys):
    code, document = run_json(capsys, "random-ci", "--seed", "3", "--count", "3")
    assert code == 0
    result = document["result"]
    assert result["all_hold"] is True and len(result["instances"]) == 3


def test_parse_error_exit_code(capsys):
    code, out, err = run(capsys, "gb", "--field", "Q", "--vars", "x", "--gens", "x^-2")
    assert code == 2 and "error" in err


def test_unknown_field_exit_code(capsys):
    code, out, err = run(capsys, "gb", "--field", "F6", "--vars", "x", "--gens", "x")
    assert code == 2 and "not prime" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--gens", "x^²"), "unexpected character"),
        (("--gens", "x^٣"), "unexpected character"),
        (("--field", "F²", "--gens", "x"), "unknown field"),
        (("--field", "F٣", "--gens", "x"), "unknown field"),
    ],
)
def test_non_ascii_digits_exit_2(capsys, argv, message):
    code, out, err = run(capsys, "gb", "--vars", "x", *argv)
    assert code == 2 and out == ""
    assert err.startswith("error") and message in err


def test_input_file(tmp_path, capsys):
    path = tmp_path / "session.txt"
    path.write_text(
        "# fixture session\n"
        "field = F2\n"
        "vars = x,y\n"
        "order = degrevlex\n"
        "gens = x^2+y^3; x^2+x*y+y^3\n"
    )
    code, document = run_json(capsys, "hilbert", "--in", str(path), "--ideal2", "x,y")
    assert code == 0
    assert document["result"]["values"] == [1, 2, 1, 1]
    # Flags override file values.
    code, document = run_json(
        capsys, "gb", "--in", str(path), "--gens", "x^2,y^2", "--field", "Q"
    )
    assert code == 0
    assert document["result"]["basis"] == ["x^2", "y^2"]


@pytest.mark.parametrize(
    "text,message",
    [
        ("feild = F2\nvars = x,y\ngens = x^2+y^3; x^2+x*y+y^3\n", ":1: unknown key 'feild'"),
        ("vars = x,y\n# again\nvars = x\ngens = x^2\n", ":3: key 'vars' given twice"),
    ],
    ids=["misspelled", "repeated"],
)
def test_input_file_refuses_unknown_and_repeated_keys(tmp_path, capsys, text, message):
    path = tmp_path / "session.txt"
    path.write_text(text)
    code, out, err = run(capsys, "equiv", "--in", str(path), "--json")
    assert code == 2 and out == ""
    assert err.startswith(f"error: {path}{message}")


def test_byte_identical_output_modulo_timing(capsys):
    outputs = []
    for _ in range(2):
        code, out, err = run(capsys, "storch", "--json")
        assert code == 0
        outputs.append(re.sub(r'"timing_ms": [0-9.]+', '"timing_ms": 0', out))
    assert outputs[0] == outputs[1]
    seeded = []
    for _ in range(2):
        code, out, err = run(capsys, "random-ci", "--seed", "9", "--count", "2", "--json")
        assert code == 0
        seeded.append(re.sub(r'"timing_ms": [0-9.]+', '"timing_ms": 0', out))
    assert seeded[0] == seeded[1]


def test_text_output_mode(capsys):
    code, out, err = run(capsys, "storch")
    assert code == 0
    assert "consistent: True" in out
    assert "i=2" in out and "DIFFERENT" in out


def test_missing_vars_is_usage_error(capsys):
    code, out, err = run(capsys, "gb", "--field", "Q", "--gens", "x")
    assert code == 2 and "--vars" in err


def test_lex_order_supported(capsys):
    code, document = run_json(
        capsys,
        "ladder",
        "--field", "Q",
        "--vars", "x,y",
        "--order", "lex",
        "--gens", "x^2,y^2",
    )
    assert code == 0
    assert document["ring"]["order"] == "lex"
    assert document["result"]["delta"] == 2 and document["result"]["holds"] is True


def test_missing_input_file_is_usage_error(tmp_path, capsys):
    missing = tmp_path / "absent.txt"
    code, out, err = run(capsys, "hilbert", "--vars", "x", "--gens", "x^2", "--in", str(missing))
    assert code == 2 and out == ""
    assert err.startswith("error: cannot read input file") and "Traceback" not in err


def test_undecodable_input_file_is_usage_error(tmp_path, capsys):
    path = tmp_path / "binary.txt"
    path.write_bytes(b"\xff\xfe vars = x\n")
    code, out, err = run(capsys, "gb", "--in", str(path))
    assert code == 2 and err.startswith("error: cannot read input file")


@pytest.mark.parametrize("count", ["-3", "0"])
def test_random_ci_count_below_one_is_usage_error(capsys, count):
    code, out, err = run(capsys, "random-ci", "--count", count, "--json")
    assert code == 2 and out == ""
    assert "--count must be at least 1" in err


def test_random_ci_count_above_the_bound_is_usage_error_before_any_instance(capsys, monkeypatch):
    def no_instance(*args, **kwargs):
        raise AssertionError("an instance ran")

    monkeypatch.setattr(cli, "random_complete_intersection", no_instance)
    count = str(cli.MAX_RANDOM_CI_COUNT + 1)
    code, out, err = run(capsys, "random-ci", "--count", count, "--json")
    assert code == 2 and out == ""
    assert err.startswith(f"error: --count must be at most 1000, got {count}")
    assert cli.MAX_RANDOM_CI_COUNT == 1000


def test_random_ci_help_states_the_count_bound(capsys):
    with pytest.raises(SystemExit) as done:
        main(["random-ci", "--help"])
    assert done.value.code == 0
    assert "1 to 1000" in " ".join(capsys.readouterr().out.split())


def test_deep_nesting_is_parse_error(capsys):
    depth = 5000
    gens = "(" * depth + "x" + ")" * depth
    code, out, err = run(capsys, "gb", "--vars", "x", "--gens", gens)
    assert code == 2 and out == ""
    assert "nested more than" in err


# --json documents captured before colon ladders walked their rungs one at a
# time; the output must stay byte-identical apart from timing_ms.
GOLDEN = json.loads((Path(__file__).parent / "data" / "cli_golden.json").read_text())


@pytest.mark.parametrize("case", GOLDEN, ids=[case["name"] for case in GOLDEN])
def test_golden_json_output(capsys, case):
    code, out, err = run(capsys, *case["argv"], "--json")
    assert err == ""
    assert code == case["exit_code"]
    out = re.sub(r'"timing_ms": [0-9.e+-]+', '"timing_ms": 0', out)
    assert out == json.dumps(case["document"], indent=2) + "\n"


@pytest.mark.parametrize("exc", [InternalError("broken invariant"), ZeroDivisionError("boom")])
def test_unexpected_error_exits_3(capsys, monkeypatch, exc):
    def crash(*args):
        raise exc

    monkeypatch.setattr(cli, "make_quotient", crash)
    code, out, err = run(capsys, "hilbert", "--vars", "x", "--gens", "x^2")
    assert code == 3 and out == ""
    assert err.startswith(f"internal error: {type(exc).__name__}: {exc}\n")
    assert "Traceback" in err  # kept for the bug report


def test_keyboard_interrupt_is_not_an_internal_error(monkeypatch):
    def interrupt(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "make_quotient", interrupt)
    with pytest.raises(KeyboardInterrupt):
        main(["hilbert", "--vars", "x", "--gens", "x^2"])


class FailingWriter:
    """A stdout whose every write raises the given error."""

    def __init__(self, error):
        self.error = error

    def write(self, text):
        raise self.error

    def flush(self):
        pass


@pytest.mark.parametrize(
    "error",
    [BrokenPipeError(errno.EPIPE, "Broken pipe"), OSError(errno.ENOSPC, "No space left")],
    ids=["EPIPE", "ENOSPC"],
)
@pytest.mark.parametrize(
    "argv, verdict",
    [(("gb", "--vars", "x,y", "--gens", "x^2,y^2"), 0), (("storch",), 1), (("storch", "--json"), 1)],
    ids=["verdict-0", "verdict-1", "verdict-1-json"],
)
def test_failed_write_of_the_output_exits_3(monkeypatch, argv, verdict, error):
    # The fixture check fails on another quotient, so storch's verdict is 1.
    ring = Ring(("x", "y"), QQ)
    square = make_quotient(Ideal(ring, (ring.parse("x^2"), ring.parse("y^2"))))
    monkeypatch.setattr(
        cli, "storch_counterexample", lambda: verify_main_equivalence(square, irrelevant_power(ring, 1))
    )
    monkeypatch.setattr(sys, "stdout", io.StringIO())
    assert main(list(argv)) == verdict
    writer, stderr = FailingWriter(error), io.StringIO()
    monkeypatch.setattr(sys, "stdout", writer)
    monkeypatch.setattr(sys, "stderr", stderr)
    assert main(list(argv)) == 3
    assert stderr.getvalue() == f"error: cannot write the output: {error}\n"
    # stdout now points at os.devnull, so the flush at shutdown cannot fail again.
    assert sys.stdout is not writer and sys.stdout.name == os.devnull
    sys.stdout.close()


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="no /dev/full on this platform")
def test_writing_to_a_full_device_exits_3():
    source = str(Path(cli.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([source, os.environ.get("PYTHONPATH", "")]))
    with open("/dev/full", "w") as full:
        process = subprocess.run(
            [sys.executable, "-m", "colonlab.cli", "gb", "--vars", "x,y", "--gens", "x^2,y^2"],
            stdout=full,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
            timeout=60,
        )
    assert process.returncode == 3
    assert process.stderr.startswith("error: cannot write the output: [Errno 28]")
    assert process.stderr.count("\n") == 1  # no second traceback at shutdown


def test_huge_quotient_exits_2(capsys):
    code, out, err = run(
        capsys, "hilbert", "--field", "F32003", "--vars", "x,y", "--gens", "x^100000,y^100000"
    )
    assert code == 2 and out == ""
    assert "standard monomials" in err


def test_rejected_arguments_leave_the_parser_unchanged(capsys):
    # main builds its parser once per process; a call that argparse rejects
    # must not change what the next call parses.
    valid = ("equiv", "--field", "Q", "--vars", "x,y", "--gens", "x^2,y^3", "--json")

    def timing_free(out):
        return re.sub(r'"timing_ms": [0-9.e+-]+', '"timing_ms": 0', out)

    cli._build_parser.cache_clear()
    code, alone, err = run(capsys, *valid)
    assert code == 0 and err == ""
    cli._build_parser.cache_clear()
    with pytest.raises(SystemExit) as rejected:
        main(["equiv", "--field", "F2", "--vars", "x", "--gens", "x^3", "--unknown-flag"])
    assert rejected.value.code == 2
    assert "unrecognized arguments: --unknown-flag" in capsys.readouterr().err
    code, after, err = run(capsys, *valid)
    assert code == 0 and err == ""
    assert timing_free(after) == timing_free(alone)


# A decimal literal past CPython's int/str conversion limit (4,300 digits by
# default) is refused as input, and a longer exact result is still printed.
LONG_LITERAL = "1" * 4301


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--gens", f"{LONG_LITERAL}*x,y"), "(at line 1, column 1)"),
        (("--gens", f"x^{LONG_LITERAL},y"), "(at line 1, column 3)"),
        (("--field", f"F{LONG_LITERAL}", "--gens", "x,y"), "2 <= p < 2^31"),
    ],
    ids=["coefficient", "exponent", "modulus"],
)
def test_long_integer_input_exits_2(capsys, argv, message):
    code, out, err = run(capsys, "gb", "--vars", "x,y", *argv)
    assert code == 2 and out == ""
    assert err.startswith("error") and message in err


def test_literal_below_the_policy_parses_under_a_lowered_int_limit(capsys):
    # The interpreter's int/str limit can be lowered to 640 digits; the parser
    # converts a literal 600 digits at a time, so 4,300 digits stay the bound.
    argv = ("gb", "--vars", "x,y", "--gens", f"{'1' * 700}*x,y")
    code, expected, err = run(capsys, *argv)
    assert code == 0 and err == ""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code, out, err = run(capsys, *argv)
    finally:
        sys.set_int_max_str_digits(limit)
    assert code == 0 and err == ""
    assert out == expected == "basis:\n  x\n  y\n"


def decimal_value(text):
    """int(text) a few hundred digits at a time, below any int/str limit."""
    value = 0
    for start in range(0, len(text), 500):
        chunk = text[start : start + 500]
        value = value * 10 ** len(chunk) + int(chunk)
    return value


def test_long_rational_result_is_printed(capsys):
    # The reduced basis of (N x y - 1, x^2 - N) is (y^2 - 1/N^3, x - N^2 y).
    N = "7" * 3000
    code, out, err = run(capsys, "gb", "--field", "Q", "--vars", "x,y", f"--gens={N}*x*y-1,x^2-{N}")
    assert code == 0 and err == ""
    first, second = re.fullmatch(r"basis:\n  y\^2 - 1/(\d+)\n  x - (\d+)\*y\n", out).groups()
    n = int(N)
    assert len(first) > 4300 and decimal_value(first) == n**3
    assert decimal_value(second) == n**2


def test_long_exponent_result_is_printed(capsys):
    # Each exponent literal has 4,300 digits; their sum has 4,301.
    N = "9" * 4300
    code, out, err = run(capsys, "gb", "--vars", "x,y", f"--gens=x^{N}*x^{N},y")
    assert code == 0 and err == ""
    exponent = re.fullmatch(r"basis:\n  x\^(\d+)\n  y\n", out).group(1)
    assert decimal_value(exponent) == 2 * int(N)
