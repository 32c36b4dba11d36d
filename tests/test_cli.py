import io
import os
import re
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from contextlib import redirect_stderr, redirect_stdout
from importlib import resources

import pytest

from supercech.cli import main
from supercech.errors import CocycleError
from supercech.gluing import SuperGluingData, SuperTransition, identity_transition
from supercech.modelfile import parse_model_text, write_gluing
from supercech.parsing import parse_element

from conftest import corpus_path


CORPUS = sorted(p.name for p in resources.files("supercech.corpus").iterdir()
                if p.name.endswith(".model"))


def run_cli(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_verify_pass(capsys):
    code, out, _ = run_cli(capsys, "verify", "--input", str(corpus_path("split_p1.model")))
    assert code == 0
    assert "gluing.ok: True" in out


def test_verify_fail_names_witness(capsys):
    code, out, _ = run_cli(capsys, "verify", "--input", str(corpus_path("corrupt_sign.model")))
    assert code == 1
    assert "('U0', 'U1')" in out and "theta_1" in out


def test_unknown_command_rejected_before_reading():
    with pytest.raises(SystemExit):
        main(["frobnicate", "--input", "nonexistent.model"])


def test_missing_file_is_input_error(capsys):
    code = main(["verify", "--input", "/nonexistent/x.model"])
    assert code == 2
    assert capsys.readouterr().err.startswith("input error: [Errno 2] No such file")


def _run_to(stdout, command, model="nonsplit_p1.model", *flags):
    """The exit code and standard error of the command line run in a child
    process whose standard output is the file descriptor ``stdout``.  The
    child's standard output is buffered, as by default: with
    ``PYTHONUNBUFFERED`` set, no unwritten bytes would be left for the flush
    at exit to fail on."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    proc = subprocess.run([sys.executable, "-m", "supercech.cli", command, "--input",
                           str(corpus_path(model)), *flags],
                          stdout=stdout, stderr=subprocess.PIPE, text=True, env=env)
    return proc.returncode, proc.stderr


WRITING_COMMANDS = [("verify",), ("rothstein",), ("scale", "--lambda=2"),
                    ("glue-p1",), ("secondary", "--format", "structured")]


@pytest.mark.parametrize("command", WRITING_COMMANDS, ids=lambda c: c[0])
def test_closed_pipe_on_stdout_is_an_output_error(command):
    # the read end is closed before the child runs, so its first write
    # fails; this used to end in a BrokenPipeError traceback with exit 1
    model = "gt_model_p1.model" if command[0] == "secondary" else "nonsplit_p1.model"
    read, write = os.pipe()
    os.close(read)
    try:
        code, err = _run_to(write, command[0], model, *command[1:])
    finally:
        os.close(write)
    assert (code, err) == (2, "output error: [Errno 32] Broken pipe\n")


@pytest.mark.parametrize("command", WRITING_COMMANDS, ids=lambda c: c[0])
def test_full_device_on_stdout_is_an_output_error(command):
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full on this system")
    model = "gt_model_p1.model" if command[0] == "secondary" else "nonsplit_p1.model"
    with open("/dev/full", "w") as full:
        code, err = _run_to(full, command[0], model, *command[1:])
    assert (code, err) == (2, "output error: [Errno 28] No space left on device\n")


class _BrokenStream(io.StringIO):
    """An in-memory standard output whose writes fail as on a closed pipe."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_broken_in_memory_stdout_is_an_output_error():
    # a stream without a file descriptor has none to point at the null device
    err = io.StringIO()
    with redirect_stdout(_BrokenStream()), redirect_stderr(err):
        code = main(["verify", "--input", str(corpus_path("split_p1.model"))])
    assert (code, err.getvalue()) == (2, "output error: [Errno 32] Broken pipe\n")


def test_splitting_type_and_fiber(capsys):
    path = str(corpus_path("nonsplit_p1.model"))
    code, out, _ = run_cli(capsys, "splitting-type", "--input", path)
    assert code == 0 and "splitting_type: 2" in out


def test_obstruction_structured(capsys):
    path = str(corpus_path("nonsplit_p1.model"))
    code, out, _ = run_cli(capsys, "obstruction", "--input", path,
                           "--format", "structured")
    assert code == 0
    assert "trivial=False" in out
    assert "canonical=U0|U1 -> (-x^-1)" in out


def test_obstruction_at_a_given_level_verifies_first(tmp_path, capsys):
    # one transition of nonsplit_p1 with its deviation doubled: the pair is
    # no longer mutually inverse, so no level may be decided on it
    text = corpus_path("nonsplit_p1.model").read_text()
    text = text.replace("splitting_type 2\n", "").replace(
        "x = 1/y + y^-3*theta_1*theta_2", "x = 1/y + 2*y^-3*theta_1*theta_2")
    path = tmp_path / "bad_inverse.model"
    path.write_text(text)
    for flags in ((), ("--level", "2")):
        code, out, err = run_cli(capsys, "obstruction", "--input", str(path),
                                 "--format", "structured", *flags)
        assert code == 1 and out == ""
        assert "inverse check failed on ('U0', 'U1')" in err


def test_attempt_split_reports(capsys):
    code, out, _ = run_cli(capsys, "attempt-split", "--input",
                           str(corpus_path("nonsplit_p1.model")))
    assert code == 0 and "fatal_level: 2" in out


def test_rothstein_round_trip(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "rothstein", "--input",
                           str(corpus_path("nonsplit_p1.model")))
    assert code == 0
    emitted = tmp_path / "family.model"
    emitted.write_text(out)
    code, out2, _ = run_cli(capsys, "splitting-type", "--input", str(emitted),
                            "--at", "t=0")
    assert code == 0 and "infinity" in out2
    code, out3, _ = run_cli(capsys, "splitting-type", "--input", str(emitted),
                            "--at", "t=3")
    assert code == 0 and "splitting_type: 2" in out3


@pytest.mark.parametrize("point,expected", [
    ("t=2", ["level=2", "parity=even", "trivial=False"]),
    ("t=0", ["splitting_type=infinity", "class=0"]),
])
def test_obstruction_at_a_fiber_of_the_rothstein_family(tmp_path, capsys, point, expected):
    code, out, _ = run_cli(capsys, "rothstein", "--input", str(corpus_path("nonsplit_p1.model")))
    assert code == 0
    path = tmp_path / "family.model"
    path.write_text(out)
    code, out, _ = run_cli(capsys, "obstruction", "--input", str(path), "--at", point,
                           "--format", "structured")
    assert code == 0
    assert set(expected) <= set(out.splitlines())


@pytest.mark.parametrize("flags,message", [
    (("scale",), "scale needs --lambda"),
    (("splitting-type", "--at", "t"), "--at expects name=rational, got 't'"),
])
def test_missing_or_malformed_flag_is_input_error(capsys, flags, message):
    code, out, err = run_cli(capsys, *flags, "--input", str(corpus_path("nonsplit_p1.model")))
    assert (code, out) == (2, "")
    assert err == f"input error: {message}\n"


def test_a_gluing_command_on_a_file_without_gluing_is_input_error(tmp_path, capsys):
    path = tmp_path / "empty.model"
    path.write_text("format 1\n")
    code, out, err = run_cli(capsys, "splitting-type", "--input", str(path))
    assert (code, out) == (2, "")
    assert err == "input error: this command needs gluing data in the input file\n"


def test_scale_emits_scaled_data(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "scale", "--input",
                           str(corpus_path("nonsplit_p1.model")), "--lambda", "2")
    assert code == 0
    emitted = tmp_path / "scaled.model"
    emitted.write_text(out)
    code, out2, _ = run_cli(capsys, "obstruction", "--input", str(emitted))
    assert "-4*x^-1" in out2


def test_scale_verifies_its_input(capsys):
    bad = str(corpus_path("corrupt_sign.model"))
    code, out, err = run_cli(capsys, "scale", "--input", bad, "--lambda", "2")
    assert (code, out) == (1, "")
    assert run_cli(capsys, "rothstein", "--input", bad) == (1, "", err)
    assert err.startswith("check failed: inverse check failed on ('U0', 'U1')")
    # a zero factor is an input error before the data is checked
    code, _, err = run_cli(capsys, "scale", "--input", bad, "--lambda", "0")
    assert code == 2 and "scaling factor must be nonzero" in err


@pytest.mark.parametrize("model,flags", [
    ("nonsplit_p1", ("scale", "--lambda=1/0")),
    ("two_parameter_family", ("splitting-type", "--at", "t1=1/0,t2=1")),
])
def test_zero_denominator_in_a_flag_is_input_error(capsys, model, flags):
    code, out, err = run_cli(capsys, flags[0], "--input", str(corpus_path(f"{model}.model")),
                             *flags[1:])
    assert (code, out) == (2, "")
    assert err.startswith("input error:") and "1/0" in err and "Traceback" not in err


@pytest.mark.parametrize("model,flags", [
    ("nonsplit_p1", ("scale", "--lambda=1e-99999999")),
    ("two_parameter_family", ("splitting-type", "--at", "t1=1E+1_000,t2=1")),
])
def test_rational_flag_over_the_exponent_limit_is_input_error(capsys, model, flags):
    # Fraction would expand the power of ten digit by digit
    code, out, err = run_cli(capsys, flags[0], "--input", str(corpus_path(f"{model}.model")),
                             *flags[1:])
    assert (code, out) == (2, "")
    assert err.startswith(f"input error: {flags[1][:4]}") and "limit of 100" in err


@pytest.mark.parametrize("value,same", [("1e3", "1000"), ("-1.5", "-3/2"), ("3/4", "0.75"),
                                        ("1e-100", "1E-0100")])
def test_rational_flags_within_the_limit_are_read_exactly(capsys, value, same):
    path = str(corpus_path("nonsplit_p1.model"))
    got = run_cli(capsys, "scale", "--input", path, f"--lambda={value}")
    assert got == run_cli(capsys, "scale", "--input", path, f"--lambda={same}")
    assert got[0] == 0 and got[1]


@pytest.mark.parametrize("level", ["-1", "0", "1"])
def test_obstruction_level_below_two_is_input_error(capsys, level):
    code, out, err = run_cli(capsys, "obstruction", "--input",
                             str(corpus_path("nonsplit_p1.model")), "--level", level)
    assert (code, out) == (2, "")
    assert err == f"input error: obstruction levels start at 2, got {level}\n"


def test_require_valid_raises_what_the_cli_prints(capsys):
    bad = parse_model_text(corpus_path("corrupt_sign.model").read_text()).gluing
    with pytest.raises(CocycleError) as failed:
        bad.require_valid()
    assert str(failed.value).startswith("inverse check failed on ('U0', 'U1')")
    code, _, err = run_cli(capsys, "splitting-type", "--input",
                           str(corpus_path("corrupt_sign.model")))
    assert code == 1 and err == f"check failed: {failed.value}\n"


@pytest.mark.parametrize("command", [
    ("verify",), ("splitting-type",), ("obstruction",), ("attempt-split",), ("rothstein",),
    ("scale", "--lambda=-3/2"), ("glue-p1",), ("report-all",)])
def test_no_gluing_data_is_verified_twice(monkeypatch, capsys, command):
    # every object keeps its report, so each check runs once per object
    calls = []
    build = SuperGluingData._build_report

    def counted(self):
        calls.append(self)   # keeps the object alive, so ids stay distinct
        return build(self)

    monkeypatch.setattr(SuperGluingData, "_build_report", counted)
    for model in CORPUS:
        calls.clear()
        code, _, _ = run_cli(capsys, command[0], "--input", str(corpus_path(model)),
                             *command[1:])
        assert code in (0, 1)
        assert calls and len({id(g) for g in calls}) == len(calls), model


def test_glue_p1(capsys):
    code, out, _ = run_cli(capsys, "glue-p1", "--input",
                           str(corpus_path("nonsplit_p1.model")))
    assert code == 0 and "witness_ok: True" in out


def test_glue_p1_with_another_witness_exponent_fails(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "glue-p1", "--input", str(corpus_path("nonsplit_p1.model")))
    assert code == 0
    text = out.split("\n", 3)[3]   # drop the three header lines
    assert "  witness_exponent -2\n" in text
    path = tmp_path / "glued.model"
    path.write_text(text.replace("  witness_exponent -2\n", "  witness_exponent -1\n"))
    code, out, _ = run_cli(capsys, "glue-p1", "--input", str(path), "--format", "structured")
    assert code == 1
    lines = out.splitlines()
    assert lines[:2] == ["witness_exponent=-1", "witness_ok=False"]
    assert lines[2].startswith("discrepancy=overlap ('U0', 'U1'): ")


@pytest.mark.parametrize("model,verifications", [("nonsplit_p1", 1), ("split_p1", 1)])
def test_glue_p1_verifies_its_input_once(monkeypatch, capsys, model, verifications):
    # the input once; the rescaled family is its conjugate and the second
    # piece a pull-back of that, so neither is verified again
    calls = []
    build = SuperGluingData._build_report

    def counted(self):
        calls.append(self)
        return build(self)

    monkeypatch.setattr(SuperGluingData, "_build_report", counted)
    code, out, _ = run_cli(capsys, "glue-p1", "--input", str(corpus_path(f"{model}.model")))
    assert code == 0 and "witness_ok: True" in out
    assert len(calls) == verifications


def test_a1_check(capsys):
    code, out, _ = run_cli(capsys, "a1-check", "--input",
                           str(corpus_path("gt_model_p1.model")), "--level", "2")
    assert code == 0 and "b=2.ok: True" in out


@pytest.mark.parametrize("level", ["-1", "4", "99"])
def test_a1_check_level_outside_the_base_rank_is_input_error(capsys, level):
    code, out, err = run_cli(capsys, "a1-check", "--input",
                             str(corpus_path("gt_model_p1.model")), "--level", level)
    assert (code, out) == (2, "")
    assert err == f"input error: --level {level} is out of range 0..3 for gtmodel M\n"


def test_a1_check_level_at_the_base_rank_is_decided(capsys):
    code, out, _ = run_cli(capsys, "a1-check", "--input",
                           str(corpus_path("gt_model_p1.model")), "--level", "3")
    assert code == 0 and "M.b=3.dimension: 7" in out


def test_report_all_on_base_rank_zero_has_no_a1_check(tmp_path, capsys):
    # a1-check runs the levels 0..base_rank - 1, none here; report-all
    # skips its one check the same way
    path = tmp_path / "base_rank_zero.model"
    path.write_text("\n".join([
        "format 1", "chart U0", "  fiber x", "  odd 0", "chart U1", "  fiber y", "  odd 0",
        "overlap U0 U1", "overlap U1 U0", "transition U0 U1", "  y = 1/x",
        "transition U1 U0", "  x = 1/y", "sheaf TX", "  rank 1", "  matrix U0 U1", "    x^-4",
        "  matrix U1 U0", "    y^-4", "gtmodel M", "  fiber_sheaf TX", "  base_rank 0",
        "  theta U0 U1", ""]))
    code, out, err = run_cli(capsys, "report-all", "--input", str(path),
                             "--format", "structured")
    assert (code, err) == (0, "")
    assert "gtmodel.M.class_trivial=True" in out.splitlines()
    assert "a1_ok" not in out
    code, out, _ = run_cli(capsys, "a1-check", "--input", str(path))
    assert (code, out.strip()) == (0, "")


def test_a1_check_fails_with_the_wrong_pairing_sign(monkeypatch, capsys):
    # the opposite sign of the theta pairing breaks the containment on every
    # b with nonzero samples, so the check can fail
    from supercech import secondary
    monkeypatch.setattr(secondary, "MODEL_CLASS_MAP_SIGN", 1)
    code, out, _ = run_cli(capsys, "a1-check", "--input",
                           str(corpus_path("gt_model_p1.model")), "--format", "structured")
    assert code == 1
    lines = out.splitlines()
    assert "M.b=0.ok=False" in lines and "M.b=2.ok=False" in lines


def test_report_all_fails_with_the_wrong_pairing_sign(monkeypatch, capsys):
    from supercech import secondary
    monkeypatch.setattr(secondary, "MODEL_CLASS_MAP_SIGN", 1)
    code, out, _ = run_cli(capsys, "report-all", "--input",
                           str(corpus_path("gt_model_p1.model")), "--format", "structured")
    assert code == 1
    assert "gtmodel.M.a1_ok=False" in out.splitlines()


def test_report_all_fails_on_a_failed_compatibility(monkeypatch, capsys):
    # the underlying data's deviation doubled (odd rank 2, the total data's
    # is 3): its class is no longer the restriction of the total one
    from supercech import secondary
    deviation = secondary.deviation_cochain
    monkeypatch.setattr(secondary, "deviation_cochain", lambda g, level: deviation(g, level).scale(
        2 if g.cover.chart("U0").odd_rank == 2 else 1))
    code, out, _ = run_cli(capsys, "report-all", "--input",
                           str(corpus_path("gtm_odd_base.model")), "--format", "structured")
    assert code == 1
    assert out.splitlines() == ["verify.ok=True", "splitting_type=2", "compatibility.ok=False"]


def test_report_all_fails_on_a_broken_embedding_lemma(monkeypatch, capsys):
    import dataclasses
    triple = SuperGluingData.embedding_splitting_triple
    monkeypatch.setattr(SuperGluingData, "embedding_splitting_triple",
                        lambda g, point: dataclasses.replace(triple(g, point), lemma_holds=False))
    code, out, _ = run_cli(capsys, "report-all", "--input",
                           str(corpus_path("two_parameter_family.model")), "--format", "structured")
    assert code == 1
    lines = out.splitlines()
    assert "factorization.ok=True" in lines
    assert [line for line in lines if line.startswith("embedding_triple.")] == [
        f"embedding_triple.{i}=2,2,2" for i in range(3)]


def _double_the_connecting_map(monkeypatch):
    from supercech import secondary
    connecting = secondary.connecting_map
    monkeypatch.setattr(secondary, "connecting_map",
                        lambda ses, c: connecting(ses, c).scale(2))


def test_verify_reports_a_failed_identity_check(monkeypatch, capsys):
    _double_the_connecting_map(monkeypatch)
    code, out, _ = run_cli(capsys, "verify", "--input", str(corpus_path("gt_model_p1.model")),
                           "--format", "structured")
    assert code == 1
    assert "gtmodel.M.cross_validated=False" in out.splitlines()


@pytest.mark.parametrize("command", ["secondary", "report-all"])
def test_gt_commands_fail_on_a_failed_identity_check(monkeypatch, capsys, command):
    _double_the_connecting_map(monkeypatch)
    code, out, err = run_cli(capsys, command, "--input", str(corpus_path("gt_model_p1.model")))
    assert code == 1 and out == ""
    assert err == "check failed: connecting image of the identity does not match theta\n"


def test_report_all_deterministic(capsys):
    path = str(corpus_path("two_parameter_family.model"))
    code1, out1, _ = run_cli(capsys, "report-all", "--input", path,
                             "--seed", "5", "--format", "structured")
    code2, out2, _ = run_cli(capsys, "report-all", "--input", path,
                             "--seed", "5", "--format", "structured")
    assert code1 == code2 == 0
    assert out1 == out2


def test_window_cap_gives_undecidable_exit(tmp_path):
    # a deviation with a huge exponent pushes the derived window past the
    # cap; without explicit window flags the decision is refused (exit 3)
    text = """format 1

chart U0
  fiber x
  odd 2

chart U1
  fiber y
  odd 2

overlap U0 U1
overlap U1 U0

transition U0 U1
  y = 1/x + x^-70*theta_1*theta_2
  theta_1 = x^-2*theta_1
  theta_2 = x^-2*theta_2

transition U1 U0
  x = 1/y + y^64*theta_1*theta_2
  theta_1 = y^-2*theta_1
  theta_2 = y^-2*theta_2
"""
    path = tmp_path / "huge.model"
    path.write_text(text)
    code = main(["obstruction", "--input", str(path)])
    assert code == 3


VALID_MODEL = """format 1
chart U0
  fiber x
  odd 0
chart U1
  fiber y
  odd 0
overlap U0 U1
overlap U1 U0
transition U0 U1
  y = 1/x
transition U1 U0
  x = 1/y
sheaf TX
  rank 1
  matrix U0 U1
    x^-4
  matrix U1 U0
    y^-4
gtmodel M
  fiber_sheaf TX
  base_rank 1
  theta U0 U1
    x^-1
"""


@pytest.mark.parametrize("command,model,flags", [
    ("obstruction", "two_parameter_family", ("--window-hi", "200")),
    ("obstruction", "two_parameter_family", ("--window-hi", "60")),
    ("attempt-split", "two_parameter_family", ("--window-lo", "-200")),
    ("secondary", "gt_model_p1", ("--window-hi", "100000")),
])
def test_window_over_the_system_budget_is_undecidable(capsys, command, model, flags):
    # explicit windows skip the derived-window cap; the delta0 system's
    # unknowns (charts x rank x window box) are bounded for every window
    t0 = time.process_time()
    code, _, err = run_cli(capsys, command, "--input", str(corpus_path(f"{model}.model")),
                           *flags)
    assert time.process_time() - t0 < 1
    assert code == 3
    assert f"exponent window 0..{abs(int(flags[1]))} " in err and "over the budget of" in err


@pytest.mark.parametrize("command", ["secondary", "a1-check"])
def test_window_over_the_budget_fails_before_any_system(capsys, command):
    # at window 5000 the rank-4 spaces of gt_model_p1 fit the budget and the
    # rank-12 ones do not; the command is refused before it builds the former
    t0 = time.process_time()
    code, out, err = run_cli(capsys, command, "--input", str(corpus_path("gt_model_p1.model")),
                             "--window-hi", "5000")
    assert time.process_time() - t0 < 0.2
    assert code == 3 and out == ""
    assert "exponent window 0..5000 " in err and "rank 12" in err
    assert "over the budget of 50000" in err


def test_explicit_window_inside_the_budget_is_decided(capsys):
    path = str(corpus_path("two_parameter_family.model"))
    _, derived, _ = run_cli(capsys, "obstruction", "--input", path, "--format", "structured")
    code, out, _ = run_cli(capsys, "obstruction", "--input", path, "--format", "structured",
                           "--window-hi", "12")
    assert code == 0 and out == derived


def _with_line(lineno, text):
    """VALID_MODEL with the lines from ``lineno`` on replaced by the lines
    of ``text``."""
    lines = VALID_MODEL.splitlines()
    new = text.split("\n")
    lines[lineno - 1:lineno - 1 + len(new)] = new
    return "\n".join(lines) + "\n"


def test_valid_model_for_malformed_variants(tmp_path, capsys):
    path = tmp_path / "valid.model"
    path.write_text(VALID_MODEL)
    code, out, _ = run_cli(capsys, "verify", "--input", str(path))
    assert code == 0 and "gtmodel.M.class_trivial: False" in out


# (line, text) rows: VALID_MODEL with the lines from ``line`` on replaced by
# ``text`` is malformed at that line
MALFORMED_MODELS = [
    (1, "format x"),
    (2, "chart"),
    (4, "  odd q"),
    (8, "overlap U0"),
    (9, "triple U0 U1"),
    (10, "transition U0"),
    (12, "transition U1 W"),
    (15, "  rank one"),
    (16, "    x^-4"),
    (21, "  fiber_sheaf TY"),
    (22, "  base_rank"),
    (23, "    x^-1"),
    (11, "  theta_x = x"),
    (4, "  odd -1"),
    (15, "  rank -1"),
    (22, "  base_rank -1"),
    (1, "base_odd -1"),
    (11, "  z = 1/x"),
    (11, "  theta_0 = 0"),
    (11, "  theta_9 = 0"),
    (12, "  y = 1/x"),
    (10, "transition U0 U1\n  # no image for y"),
    (3, "  fiber x x"),
    (4, "  base t t"),
    (4, "  base x"),
    (1, "family t t"),
    (1, "splitting_type -1"),
    (25, "chart U1"),
    (25, "overlap U0 U1"),
    (25, "transition U0 U1\n  y = 1/x"),
    (25, "sheaf TX\n  rank 1\n  matrix U0 U1\n    x^-4\n  matrix U1 U0\n    y^-4"),
    (20, "  matrix U0 U1\n    x^-4\ngtmodel M\n  fiber_sheaf TX\n  base_rank 1\n"
         "  theta U0 U1\n    x^-1"),
    (25, "  theta U0 U1\n    x^-1"),
    (25, "gtmodel M\n  fiber_sheaf TX\n  base_rank 1\n  theta U0 U1\n    x^-1"),
    (11, "  y = 1/x^100000000"),
    (11, "  y = (1+x)^800/x"),
    (16, "    (1+x+x^50)^100"),
    (11, "  y = " + "7" * 5000 + "/x"),
    (11, "  theta_" + "1" * 5000 + " = 0"),
    (20, "gtmodel M\n  fiber_sheaf TX\n  base_rank 3000000\n  # no theta block\n  #"),
]


@pytest.mark.parametrize("lineno,text", MALFORMED_MODELS)
def test_malformed_model_is_input_error_with_location(tmp_path, capsys, lineno, text):
    path = tmp_path / "bad.model"
    path.write_text(_with_line(lineno, text))
    code, _, err = run_cli(capsys, "verify", "--input", str(path))
    assert code == 2
    assert f"line {lineno}," in err


def _verify_text(tmp_path, capsys, text):
    path = tmp_path / "model.model"
    path.write_text(text)
    return run_cli(capsys, "verify", "--input", str(path))


def test_other_format_version_is_input_error(tmp_path, capsys):
    code, out, err = _verify_text(tmp_path, capsys, _with_line(1, "format 2"))
    assert (code, out) == (2, "")
    assert err == "input error: line 1, column 1: unsupported format version ['2']\n"


def test_sheaf_without_rank_is_input_error(tmp_path, capsys):
    code, out, err = _verify_text(tmp_path, capsys, _with_line(15, "  # no rank"))
    assert (code, out) == (2, "")
    assert err == "input error: line 14, column 1: sheaf 'TX' declares no rank\n"


@pytest.mark.parametrize("lineno", [21, 22], ids=["fiber_sheaf", "base_rank"])
def test_gtmodel_without_fiber_sheaf_or_base_rank_is_input_error(tmp_path, capsys, lineno):
    code, out, err = _verify_text(tmp_path, capsys, _with_line(lineno, "  # left out"))
    assert (code, out) == (2, "")
    assert err == ("input error: line 20, column 1: "
                   "gtmodel 'M' needs fiber_sheaf and base_rank\n")


@pytest.mark.parametrize("keyword,lineno,row", [("matrix", 17, "    x^-4, 1"),
                                                ("theta", 24, "    x^-1, 0")])
def test_row_of_the_wrong_width_is_input_error(tmp_path, capsys, keyword, lineno, row):
    code, out, err = _verify_text(tmp_path, capsys, _with_line(lineno, row))
    assert (code, out) == (2, "")
    assert err == f"input error: line {lineno}, column 1: {keyword} row has 2 entries, want 1\n"


def test_family_moving_its_base_coordinate_fails_verification(tmp_path, capsys):
    # t2 -> -t2 keeps t1 + t2^2, so the inverse checks pass and only the
    # family check fails, on both overlaps
    text = corpus_path("two_parameter_family.model").read_text()
    assert text.count("  t2 = t2\n") == 2
    code, out, err = _verify_text(tmp_path, capsys, text.replace("  t2 = t2\n", "  t2 = -t2\n"))
    assert (code, err) == (1, "")
    assert out.splitlines()[1:] == [
        "gluing.ok: False",
        "gluing.failure.0: family check failed on ('U0', 'U1'): "
        "base coordinate map t2 is not the identity",
        "gluing.failure.1: family check failed on ('U1', 'U0'): "
        "base coordinate map t2 is not the identity"]


@pytest.mark.parametrize("rank", [1, 0])
def test_matrix_on_an_undeclared_overlap_is_input_error(tmp_path, capsys, rank):
    text = VALID_MODEL.replace("    y^-4\n", "    y^-4\n  matrix U0 U0\n    x\n")
    if rank == 0:
        text = text.replace("  rank 1", "  rank 0")
        text = "".join(line for line in text.splitlines(True) if not line.startswith("    "))
    path = tmp_path / "undeclared.model"
    path.write_text(text)
    code, out, err = run_cli(capsys, "verify", "--input", str(path))
    assert (code, out) == (2, "")
    assert err == ("input error: line 14, column 1: matrix for ('U0', 'U0'), "
                   "which is not a declared overlap\n")


def test_deeply_nested_expression_is_input_error_with_location(tmp_path, capsys):
    # 330 parentheses used to end in RecursionError, a traceback with exit 1
    lines = corpus_path("nonsplit_p1.model").read_text().split("\n")
    assert lines[18] == "  y = 1/x + x^-3*theta_1*theta_2"
    lines[18] = "  y = " + "(" * 330 + lines[18][6:] + ")" * 330
    path = tmp_path / "deep.model"
    path.write_text("\n".join(lines))
    code, _, err = run_cli(capsys, "verify", "--input", str(path))
    assert code == 2
    assert "line 19, column 101: expression nests more than 100 deep" in err


def test_long_theta_index_on_the_left_is_not_an_odd_coordinate(tmp_path, capsys):
    # the index is decided by its digit count, not by int() (whose limit
    # is 4300 digits)
    path = tmp_path / "bad.model"
    path.write_text(_with_line(11, "  theta_" + "0" * 5000 + "1" * 5000 + " = 0"))
    code, _, err = run_cli(capsys, "verify", "--input", str(path))
    assert code == 2 and "line 11, column 1:" in err
    assert "is not an odd coordinate of chart 'U1' (odd 0)" in err


@pytest.mark.parametrize("lhs", ["theta_+1", "theta_ 1", "theta_-1", "theta_0_1",
                                 "theta_\u0661", "theta_1x"])
def test_theta_index_on_the_left_follows_the_expression_grammar(tmp_path, capsys, lhs):
    # int() used to read a sign, spaces and '_', and isdecimal() non-ASCII
    # digits, so these lines assigned theta_1
    lines = corpus_path("nonsplit_p1.model").read_text().split("\n")
    assert lines[19] == "  theta_1 = x^-2*theta_1"
    lines[19] = f"  {lhs} = x^-2*theta_1"
    path = tmp_path / "bad.model"
    path.write_text("\n".join(lines), encoding="utf-8")
    code, out, err = run_cli(capsys, "verify", "--input", str(path))
    assert (code, out) == (2, "")
    assert err == f"input error: line 20, column 1: expected an integer theta index, got {lhs!r}\n"


@pytest.mark.parametrize("block,message", [
    ("format 1\n", "line 25, column 1: duplicate format (first on line 1)"),
    ("base_odd 0\nbase_odd 0\n", "line 26, column 1: duplicate base_odd (first on line 25)"),
    ("splitting_type 2\nsplitting_type 5\n",
     "line 26, column 1: duplicate splitting_type (first on line 25)"),
    ("family x\nfamily x\n", "line 26, column 1: duplicate family (first on line 25)"),
])
def test_top_level_directive_is_declared_once(tmp_path, capsys, block, message):
    # a repeated directive used to replace the first one silently
    path = tmp_path / "bad.model"
    path.write_text(VALID_MODEL + block)
    code, out, err = run_cli(capsys, "verify", "--input", str(path))
    assert (code, out, err) == (2, "", f"input error: {message}\n")


# (replaced, text, line, column): ``text`` replaces line ``replaced`` of
# VALID_MODEL (None: is appended to it) and names the reserved coordinate
# last, which the error locates at ``line`` and ``column``
RESERVED_NAMES = [
    (3, "  fiber theta_1", 3, 9),
    (3, "  fiber x\n  base t theta_12", 4, 10),
    (None, "family theta_1", 25, 8),
    (None, "baseatlas\n  base_vars t theta_1", 26, 15),
]


@pytest.mark.parametrize("replaced,text,lineno,column", RESERVED_NAMES)
def test_coordinate_named_like_an_odd_generator_is_input_error(tmp_path, capsys, replaced,
                                                               text, lineno, column):
    # such a name used to be accepted and then read as the generator, which
    # failed later as "theta_1 out of range 1..0"
    lines = VALID_MODEL.splitlines()
    if replaced is None:
        lines.append(text)
    else:
        lines[replaced - 1] = text
    path = tmp_path / "bad.model"
    path.write_text("\n".join(lines) + "\n")
    code, out, err = run_cli(capsys, "verify", "--input", str(path))
    assert (code, out) == (2, "")
    assert err == (f"input error: line {lineno}, column {column}: "
                   f"coordinate name {text.split()[-1]!r} is reserved for odd generators\n")


@pytest.mark.parametrize("text", ["", "format 1\nchart U0\n  fiber x\n  odd 0\n"])
def test_verify_without_transitions_or_gtmodel_is_input_error(tmp_path, capsys, text):
    path = tmp_path / "empty.model"
    path.write_text(text)
    code, out, err = run_cli(capsys, "verify", "--input", str(path))
    assert code == 2 and out == ""
    assert "nothing to verify" in err


def test_valid_base_atlas_for_malformed_variants(tmp_path, capsys):
    path = tmp_path / "valid.model"
    path.write_text(VALID_MODEL + "baseatlas\n  base_vars t s\n")
    code, out, _ = run_cli(capsys, "glue-p1", "--input", str(path))
    assert code == 0 and "witness_ok: True" in out


def test_base_atlas_naming_a_fiber_coordinate_is_input_error(tmp_path, capsys):
    # the stored piece is evaluated at 1 in the first atlas coordinate, and
    # only a base coordinate can be evaluated
    path = tmp_path / "bad.model"
    path.write_text(VALID_MODEL + "baseatlas\n  base_vars x s\n")
    code, out, _ = run_cli(capsys, "glue-p1", "--input", str(path))
    assert code == 2 and out == ""


def test_base_atlas_coordinate_on_no_chart_of_a_family_is_input_error(tmp_path, capsys):
    # the family over t stored by glue-p1, with an atlas over q instead
    code, out, _ = run_cli(capsys, "glue-p1", "--input", str(corpus_path("nonsplit_p1.model")))
    assert code == 0
    text = out.split("\n", 3)[3].replace("  base_vars t s", "  base_vars q s")
    lineno = text.splitlines().index("  base_vars q s") + 1
    path = tmp_path / "bad.model"
    path.write_text(text)
    code, out, err = run_cli(capsys, "glue-p1", "--input", str(path))
    assert code == 2 and out == ""
    assert f"line {lineno}, column 1: base atlas coordinate 'q' is on no chart" in err


@pytest.mark.parametrize("after,field", [
    (3, "  fiber x"), (4, "  odd 5"), (4, "  odd 0"), (15, "  rank 1"),
    (21, "  fiber_sheaf TX"), (22, "  base_rank 2"),
])
def test_repeated_field_is_input_error_at_the_repeat(tmp_path, capsys, after, field):
    # a second field line in one block used to replace the first silently
    lines = VALID_MODEL.splitlines()
    lines.insert(after, field)
    path = tmp_path / "bad.model"
    path.write_text("\n".join(lines) + "\n")
    code, out, err = run_cli(capsys, "verify", "--input", str(path))
    name = field.split()[0]
    assert (code, out) == (2, "")
    assert err == (f"input error: line {after + 1}, column 1: duplicate field {name!r} "
                   f"(first on line {after})\n")


@pytest.mark.parametrize("block,message", [
    ("baseatlas\n  base_vars t s\n  base_vars t s\n",
     "line 27, column 1: duplicate field 'base_vars' (first on line 26)"),
    ("baseatlas\n  base_vars t s\n  witness_exponent -2\n  witness_exponent -2\n",
     "line 28, column 1: duplicate field 'witness_exponent' (first on line 27)"),
    ("baseatlas extra words\n  base_vars t s\n",
     "line 25, column 1: 'baseatlas' takes 0 argument(s), got 2"),
    ("baseatlas\n  base_vars t s\nbaseatlas\n  base_vars t s\n",
     "line 27, column 1: duplicate baseatlas (first on line 25)"),
])
def test_base_atlas_is_declared_once_without_arguments(tmp_path, capsys, block, message):
    # arguments after 'baseatlas' and a second block used to be accepted,
    # and the last block won
    path = tmp_path / "bad.model"
    path.write_text(VALID_MODEL + block)
    code, out, err = run_cli(capsys, "glue-p1", "--input", str(path))
    assert (code, out, err) == (2, "", f"input error: {message}\n")


# (block, line) rows: VALID_MODEL followed by ``block`` is malformed at that line
MALFORMED_ATLASES = [
    ("baseatlas\n  base_vars t\n", 26),
    ("baseatlas\n  base_vars t s u\n", 26),
    ("baseatlas\n  witness_exponent -2\n", 25),
    ("baseatlas\n  base_vars t t\n", 26),
]


@pytest.mark.parametrize("block,lineno", MALFORMED_ATLASES)
def test_malformed_base_atlas_is_input_error_with_location(tmp_path, capsys, block, lineno):
    path = tmp_path / "bad.model"
    path.write_text(VALID_MODEL + block)
    code, _, err = run_cli(capsys, "glue-p1", "--input", str(path))
    assert code == 2
    assert f"line {lineno}," in err


def test_declared_splitting_type_is_checked(tmp_path, capsys):
    text = corpus_path("nonsplit_p1.model").read_text()
    assert "splitting_type 2" in text
    code, out, _ = run_cli(capsys, "verify", "--input", str(corpus_path("nonsplit_p1.model")))
    assert code == 0 and "gluing.ok: True" in out
    path = tmp_path / "wrong.model"
    path.write_text(text.replace("splitting_type 2", "splitting_type 99"))
    code, out, _ = run_cli(capsys, "verify", "--input", str(path))
    assert code == 1 and "gluing.ok: False" in out
    assert "declared splitting_type 99, the transitions give 2" in out


@pytest.mark.parametrize("name", ["two_parameter_family", "nonsplit_p1", "gtm_odd_base"])
def test_glue_p1_reads_back_its_output(tmp_path, capsys, name):
    code, out, _ = run_cli(capsys, "glue-p1", "--input", str(corpus_path(f"{name}.model")))
    assert code == 0
    path = tmp_path / "glued.model"
    path.write_text(out.split("\n", 3)[3])   # drop the three header lines
    code, again, _ = run_cli(capsys, "glue-p1", "--input", str(path))
    assert code == 0 and again == out


def test_partial_fiber_point_is_input_error(capsys):
    path = str(corpus_path("two_parameter_family.model"))
    code, _, err = run_cli(capsys, "splitting-type", "--input", path, "--at", "t1=1")
    assert code == 2 and "base coordinates" in err


def test_report_all_on_a_family_whose_fiber_deviates_later(tmp_path, capsys):
    # nonsplit_p1_level3 over the base coordinate t, conjugated on U0 by
    # x -> x + (t-1)*x*theta_1*theta_2: the family has type 2, its fiber over
    # t=1 type 3, and seed 9 samples t=1
    text = corpus_path("nonsplit_p1_level3.model").read_text()
    text = text.replace("  fiber x\n", "  fiber x\n  base t\n")
    text = text.replace("  fiber y\n", "  fiber y\n  base t\n")
    text = text.replace("  y = 1/x\n", "  y = 1/x\n  t = t\n")
    text = text.replace("  x = 1/y\n", "  x = 1/y\n  t = t\n")
    text = text.replace("splitting_type 3", "family t")
    g = parse_model_text(text).gluing
    ch0 = g.chart("U0")
    odd = {k: parse_element(f"theta_{k}", ch0.vars, ch0.odd_rank) for k in (1, 2, 3)}
    w0 = SuperTransition(ch0, ch0, {
        "x": parse_element("x + (t - 1)*x*theta_1*theta_2", ch0.vars, ch0.odd_rank),
        "t": parse_element("t", ch0.vars, ch0.odd_rank)}, odd)
    family = g.conjugate({"U0": w0, "U1": identity_transition(g.chart("U1"))})
    assert family.splitting_type() == 2
    assert family.restrict_fiber({"t": Fraction(1)}).splitting_type() == 3
    path = tmp_path / "family.model"
    path.write_text(write_gluing(family))
    code, out, _ = run_cli(capsys, "report-all", "--input", str(path), "--seed", "9")
    assert "embedding_triple.0: 3,3,2" in out
    assert code == 0


def test_entry_point_subprocess():
    # the module is runnable as a script
    path = str(corpus_path("split_p1.model"))
    proc = subprocess.run([sys.executable, "-m", "supercech.cli", "verify",
                           "--input", path], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "gluing.ok" in proc.stdout


_WORDS = re.compile(r"[A-Za-z_][A-Za-z_0-9]*|\d+|\S")


def _line_mutants(line):
    """The fixed single-line mutations of ``line`` that apply to it: drop
    its first or last token, double its first operator, drop its first
    ``)``, append a digit to its first exponent, or name ``theta_9`` (out of
    range in every corpus model) in place of its first odd generator."""
    out = []
    words = list(_WORDS.finditer(line))
    for w in (words[0], words[-1]):
        out.append(line[:w.start()] + line[w.end():])
    op = re.search(r"[-+*/^]", line)
    if op:
        out.append(line[:op.end()] + line[op.start():])
    if ")" in line:
        out.append(line.replace(")", "", 1))
    exp = re.search(r"\^\(?-?\d+", line)
    if exp:
        out.append(line[:exp.end()] + "0" + line[exp.end():])
    theta = re.search(r"theta_\d+", line)
    if theta:
        out.append(line[:theta.start()] + "theta_9" + line[theta.end():])
    return [m for m in dict.fromkeys(out) if m != line]


def test_single_line_mutations_of_the_corpus_end_in_an_exit_code(tmp_path):
    # every mutant is verified in process: a traceback fails the test, the
    # only allowed outcomes are the documented exit codes, and every input
    # error names its line
    path = tmp_path / "mutant.model"
    codes = Counter()
    for model in CORPUS:
        lines = corpus_path(model).read_text().splitlines()
        for i, line in enumerate(lines):
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            for mutant in _line_mutants(line):
                path.write_text("\n".join(lines[:i] + [mutant] + lines[i + 1:]) + "\n")
                err = io.StringIO()
                try:
                    with redirect_stdout(io.StringIO()), redirect_stderr(err):
                        code = main(["verify", "--input", str(path)])
                except Exception as exc:
                    pytest.fail(f"{model} line {i + 1} as {mutant!r}: {exc!r}")
                assert code in (0, 1, 2, 3), f"{model} line {i + 1} as {mutant!r}"
                assert code != 2 or re.search(r"line \d+", err.getvalue()), \
                    f"{model} line {i + 1} as {mutant!r}: {err.getvalue()}"
                codes[code] += 1
    assert sum(codes.values()) > 300 and codes[0] and codes[1] and codes[2]
