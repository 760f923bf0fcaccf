import contextlib
import io
import json
import os
import pathlib
import re
import shlex
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from eoexact.cli import main
from eoexact.signatures import (
    BinaryDiseq,
    dual,
    load_signature_file,
    parse_signature_blocks,
    pin_pair,
    render_signature_block,
    self_loop,
    tensor,
)
from eoexact.transforms import pad_to_eo, restrict_eo
from eoexact.values import MAX_LITERAL_DIGITS, ExactValue, I

FIXTURES = pathlib.Path(__file__).parent.parent / "fixtures"


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    stdout = out.out
    if "== report ==" in stdout:
        human, _, rep = stdout.partition("== report ==\n")
        return code, human, json.loads(rep)
    return code, stdout, None


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "sigs.sig").write_text(
        "signature deq4 arity 4\n1100 1\n0011 1\n"
        "signature gd arity 4\n0101 1\n1010 2\n"
        "signature mform arity 4\n1100 1\n1010 1\n1001 2\n")
    (tmp_path / "deq4-closed.grid").write_text(
        "use sigs.sig\nvertex v1 deq4\nedge v1.1 v1.3\nedge v1.2 v1.4\n")
    (tmp_path / "pinned.grid").write_text(
        "use sigs.sig\nvertex f gd\nvertex d delta\n"
        "edge d.2 f.1\nedge d.1 f.2\nedge f.3 f.4\n")
    (tmp_path / "gd.sig").write_text("signature gd arity 4\n0101 1\n1010 2\n")
    (tmp_path / "script.gate").write_text(
        "use sigs.sig\nstart gd\nloop 3 4\n")
    return tmp_path


def test_eval_brute(workdir, capsys):
    code, human, rep = run_cli(capsys, ["eval", "--engine", "brute",
                                        str(workdir / "deq4-closed.grid")])
    assert code == 0
    assert "Z = 2" in human
    assert rep["result"] == "2"
    assert rep["engine"] == "brute"


def test_eval_auto_picks_tractable_engine(workdir, capsys):
    code, human, rep = run_cli(capsys, ["eval", "--engine", "auto",
                                        str(workdir / "deq4-closed.grid")])
    assert code == 0
    assert rep["engine"] in ("affine", "product")
    assert rep["result"] == "2"


def test_eval_engines_agree(workdir, capsys):
    results = {}
    for engine in ("brute", "affine", "product", "fpnp"):
        code, _, rep = run_cli(capsys, ["eval", "--engine", engine,
                                        str(workdir / "deq4-closed.grid")])
        assert code == 0
        results[engine] = rep["result"]
    assert len(set(results.values())) == 1


def test_classify_command(workdir, capsys, tmp_path):
    out = tmp_path / "verdict.json"
    code, human, rep = run_cli(capsys, ["classify", str(workdir / "sigs.sig"),
                                        "--out", str(out)])
    assert code == 0
    assert rep["verdict"]["outcome"] in ("fp", "fp_np")
    saved = json.loads(out.read_text())
    assert saved == rep


def test_classify_deterministic_payload(workdir, capsys):
    _, _, rep1 = run_cli(capsys, ["classify", str(workdir / "sigs.sig")])
    _, _, rep2 = run_cli(capsys, ["classify", str(workdir / "sigs.sig")])
    assert rep1 == rep2


def test_generate_command(workdir, capsys):
    code, human, rep = run_cli(capsys, ["generate", str(workdir / "gd.sig"),
                                        "--caps", "steps=6,size=512,order=32"])
    assert code == 0
    assert "non_root(2)" in human
    assert rep["results"][0]["descriptor"]["outcome"] == "non_root"


def test_prune_command(workdir, capsys, tmp_path):
    out = tmp_path / "pruned.grid"
    code, human, rep = run_cli(capsys, ["prune", str(workdir / "pinned.grid"),
                                        "--backend", "exhaustive",
                                        "--out", str(out)])
    assert code == 0
    assert out.exists()
    assert rep["removed"]


def test_interp_command(workdir, capsys):
    code, human, rep = run_cli(capsys, ["interp", str(workdir / "pinned.grid"),
                                        "--x", "2"])
    assert code == 0
    code2, _, rep2 = run_cli(capsys, ["eval", "--engine", "brute",
                                      str(workdir / "pinned.grid")])
    assert rep["result"] == rep2["result"]


def test_transform_command(workdir, capsys):
    code, human, rep = run_cli(capsys, ["transform", "--op", "restrict-eo",
                                        str(workdir / "sigs.sig")])
    assert code == 0
    assert "signature" in rep["signatures"]


@pytest.mark.parametrize("op, fn", [("pad", pad_to_eo), ("restrict-eo", restrict_eo)])
def test_transform_out_file_reads_back(tmp_path, capsys, op, fn):
    text = ("signature h3 arity 3\n110 1\n101 2+i\n011 3\n"
            "signature l4 arity 4\n1000 1\n0100 -i\n"
            "signature gd arity 4\n0101 1\n1010 2\n")
    (tmp_path / "w.sig").write_text(text)
    out = tmp_path / "out.sig"
    code, _, rep = run_cli(capsys, ["transform", "--op", op, str(tmp_path / "w.sig"),
                                    "--out", str(out)])
    assert code == 0
    printed = [(s.name, s) for s in parse_signature_blocks(rep["signatures"])]
    assert printed == [(s.name, fn(s)) for s in parse_signature_blocks(text)]
    assert list(load_signature_file(out).items()) == printed


@pytest.mark.parametrize("step, expect", [
    ("tensor deq4", lambda s: tensor(s["gd"], s["deq4"])),
    ("loop 1 2 2 i", lambda s: self_loop(s["gd"], 0, 1, BinaryDiseq(ExactValue.rational(2), I))),
    ("loop 3 4 ji", lambda s: self_loop(s["gd"], 2, 3, None, "ji")),
    ("loop 1 2 2 i ji",
     lambda s: self_loop(s["gd"], 0, 1, BinaryDiseq(ExactValue.rational(2), I), "ji")),
    ("pin 1 2 10", lambda s: pin_pair(s["gd"], 0, 1, "10")),
    ("dual", lambda s: dual(s["gd"])),
])
def test_gate_step_matches_the_calculus(workdir, capsys, step, expect):
    (workdir / "step.gate").write_text(f"use sigs.sig\nstart gd\n{step}\n")
    code, human, rep = run_cli(capsys, ["gate", str(workdir / "step.gate")])
    assert code == 0
    block = render_signature_block(expect(load_signature_file(workdir / "sigs.sig")), "result")
    assert rep["signature"] == block
    assert human.startswith(block.rstrip() + "\n")


@pytest.mark.parametrize("wiring", ["edge a.1 b.5\ndangle c.1", "edge a.1 b.1\nedge c.1 b.1"])
def test_grid_pad_refuses_an_invalid_grid(tmp_path, capsys, wiring):
    # a port past delta1's arity, then a slot wired twice
    grid = tmp_path / "bad.grid"
    grid.write_text(f"vertex a delta0\nvertex b delta1\nvertex c delta0\n{wiring}\n")
    out = tmp_path / "out.grid"
    assert main(["transform", "--op", "grid-pad", str(grid), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: InvalidGrid: ") and captured.err.count("\n") == 1
    assert not out.exists() and "== report ==" not in captured.out


@pytest.mark.parametrize("caps, note", [("order=4", "root order beyond cap 4"),
                                        ("size=4", "closure size cap")])
def test_generate_caps_exhaust(tmp_path, capsys, monkeypatch, caps, note):
    monkeypatch.setenv("EO_FIELD", "zeta:8")
    sig = tmp_path / "f.sig"
    sig.write_text("signature f arity 4\n0110 1\n1001 z8^1\n")
    code, human, rep = run_cli(capsys, ["generate", "--caps", caps, str(sig)])
    assert code == 0 and human.startswith("f: cap_exhausted;")
    descriptor = rep["results"][0]["descriptor"]
    assert (descriptor["outcome"], descriptor["note"]) == ("cap_exhausted", note)


@pytest.mark.parametrize("caps", ["steps=\u00b2", "steps=" + "9" * 5000])
def test_generate_caps_refuse_what_int_cannot_read(capsys, caps):
    # a superscript two is a digit to str.isdigit() but not to int(), and
    # int() refuses a number past CPython's digit limit
    assert main(["generate", str(FIXTURES / "neq4-1i.sig"), "--caps", caps]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: bad caps entry ") and err.count("\n") == 1


def test_generate_separates_magnitudes_far_below_the_coefficients(capsys, monkeypatch):
    # the weights have coefficients near 2^572 and magnitudes near 2^-572, so
    # |a|^2 - |b|^2 is about 2^-2288 of its coefficient scale
    monkeypatch.setenv("EO_FIELD", "zeta:8")
    code, human, rep = run_cli(capsys, ["generate", str(FIXTURES / "sqrt2-450.sig")])
    assert code == 0
    assert human.startswith("sqrt2pow: non_root(1 + z8^1 - z8^3); ")
    assert rep["results"][0]["route"] == "interpolation"


def test_gate_command(workdir, capsys):
    code, human, rep = run_cli(capsys, ["gate", str(workdir / "script.gate")])
    assert code == 0
    assert "01 1" in rep["signature"]
    assert "10 2" in rep["signature"]


def test_domain_error_exit_code(workdir, capsys, tmp_path):
    open_grid = tmp_path / "open.grid"
    open_grid.write_text("use " + str(workdir / "sigs.sig") +
                         "\nvertex v1 deq4\nedge v1.1 v1.3\ndangle v1.2\ndangle v1.4\n")
    code = main(["eval", "--engine", "brute", str(open_grid)])
    assert code == 1


@pytest.mark.parametrize("argv", [["eval", "--engine", "brute", "missing.grid"],
                                  ["classify", "missing.sigset"],
                                  ["prune", "missing.grid"],
                                  ["interp", "--x", "2", "missing.grid"],
                                  ["transform", "--op", "pad", "missing.sig"],
                                  ["transform", "--op", "grid-pad", "missing.grid"],
                                  ["gate", "missing.gate"]])
def test_missing_input_file_exit_code(tmp_path, capsys, argv):
    argv = argv[:-1] + [str(tmp_path / argv[-1])]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: FileNotFoundError: ")
    assert err.count("\n") == 1


def test_bad_oracle_literal_exit_code(workdir, capsys):
    import shlex
    oracle = shlex.join([sys.executable, "-c", "print('SAT foo')"])
    assert main(["prune", str(workdir / "deq4-closed.grid"),
                 "--backend", f"external:{oracle}"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: OracleProtocolError: ")
    assert err.count("\n") == 1


def test_oracle_timeout_exit_code(workdir, capsys, monkeypatch):
    def hung(cmd, **kwargs):
        raise subprocess.TimeoutExpired(cmd, kwargs.get("timeout"))

    # ExternalOracle imports subprocess when it queries, so it finds the patch
    monkeypatch.setattr(subprocess, "run", hung)
    assert main(["prune", str(workdir / "deq4-closed.grid"),
                 "--backend", "external:eo-oracle"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: OracleProtocolError: ")
    assert err.count("\n") == 1


def test_generate_recipes_file(workdir, capsys):
    from eoexact.generate import generating_process
    from eoexact.signatures import parse_signature_blocks
    from eoexact.values import render_value

    out = workdir / "recipes.txt"
    assert main(["generate", str(workdir / "gd.sig"), "--caps", "steps=6,size=512,order=32",
                 "--recipes", str(out)]) == 0
    sig = parse_signature_blocks((workdir / "gd.sig").read_text())[0]
    _, state = generating_process(sig, 6, 512, 32)
    lines = [f"# {sig.name}"] + [f"{render_value(p)}: {r!r}" for p, r in
                                 sorted(state.recipes.items(), key=lambda kv: str(kv[0]))]
    assert out.read_text() == "\n".join(lines) + "\n"


def test_usage_error_exit_code(capsys):
    assert main(["nosuchcommand"]) == 2
    assert main([]) == 2


def test_console_entrypoint_runs():
    proc = subprocess.run([sys.executable, "-m", "eoexact.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "eval" in proc.stdout


def test_shipped_fixtures(capsys):
    import pathlib
    fixtures = pathlib.Path(__file__).parent.parent / "fixtures"
    code, human, rep = run_cli(capsys, ["eval", "--engine", "brute",
                                        str(fixtures / "deq4-closed.grid")])
    assert code == 0 and rep["result"] == "2"
    code, _, rep = run_cli(capsys, ["classify", str(fixtures / "m-delta1.sigset")])
    assert code == 0 and rep["verdict"]["outcome"] in ("fp", "fp_np")
    code, _, rep = run_cli(capsys, ["generate", str(fixtures / "neq4-1i.sig")])
    assert code == 0
    assert rep["results"][0]["descriptor"]["outcome"] == "finite_group"
    assert rep["results"][0]["descriptor"]["order"] == 4
    code, _, rep = run_cli(capsys, ["interp", str(fixtures / "pinned.grid"),
                                    "--x", "2"])
    assert code == 0 and rep["result"] == "1"


def test_field_env_selects_cyclotomic(workdir, capsys, monkeypatch, tmp_path):
    sig = tmp_path / "z8.sig"
    sig.write_text("signature fz arity 4\n0101 1\n1010 z8^1\n")
    grid = tmp_path / "z8.grid"
    grid.write_text(f"use {sig.name}\nvertex v fz\nedge v.1 v.2\nedge v.3 v.4\n")
    monkeypatch.setenv("EO_FIELD", "zeta:8")
    code, human, rep = run_cli(capsys, ["eval", "--engine", "brute", str(grid)])
    assert code == 0
    assert rep["field"] == "zeta:8"
    assert rep["result"] == "1 + z8^1"


# -- every path ends in an exit code --------------------------------------------


def test_generate_coefficient_past_float_range(tmp_path):
    sig = tmp_path / "big.sig"
    sig.write_text(f"signature f arity 2\n01 1\n10 {10**400}*z8 + 1\n")
    proc = subprocess.run([sys.executable, "-m", "eoexact.cli", "generate", str(sig)],
                          capture_output=True, text=True,
                          env={**os.environ, "EO_FIELD": "zeta:8"})
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("order", [1152921504606846976, 9223372036854775804])
def test_huge_field_order_exit_code(tmp_path, order):
    # once a MemoryError traceback (a list of 2^60 coefficients) and a hang
    # in euler_phi's trial division (4 times the prime 2^61 - 1)
    sig = tmp_path / "huge.sig"
    sig.write_text(f"signature f arity 2\n01 1\n10 z{order}^1\n")
    for field in (f"zeta:{order}", "gauss"):
        proc = subprocess.run([sys.executable, "-m", "eoexact.cli", "classify", str(sig)],
                              capture_output=True, text=True, timeout=30,
                              env={**os.environ, "EO_FIELD": field})
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: EOError: ") and proc.stderr.count("\n") == 1
        assert f"{order} above the limit" in proc.stderr


@pytest.mark.parametrize("digits", [21, 5001])
def test_long_field_order_error_is_one_short_line(tmp_path, capsys, digits):
    sig = tmp_path / "long.sig"
    sig.write_text(f"signature f arity 2\n01 1\n10 z{'7' * digits}^1\n")
    assert main(["classify", str(sig)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and len(err) <= 200
    assert err.startswith("error: EOError: line 3: cyclotomic order 777")
    assert f"({digits} digits) above the limit" in err


@pytest.mark.parametrize("entry", ["7" * 5001 + "x", "1 " + "7" * 5001, "7" * 5001 + "/0"],
                         ids=["bad-character", "missing-sign", "zero-denominator"])
def test_long_bad_literal_error_is_one_short_line(tmp_path, capsys, entry):
    # a zero denominator under a numerator past str()'s digit limit too
    sig = tmp_path / "long.sig"
    sig.write_text(f"signature f arity 2\n01 {entry}\n")
    assert main(["classify", str(sig)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and len(err) <= 200
    assert err.startswith("error: LiteralSyntaxError: line 2: ")
    assert f"... ({len(entry)} characters)" in err


def test_bad_arity_in_a_header_exit_code(tmp_path, capsys):
    sig = tmp_path / "arity.sig"
    sig.write_text("signature f arity x\n01 1\n")
    assert main(["classify", str(sig)]) == 1
    assert capsys.readouterr().err == \
        "error: LiteralSyntaxError: line 1: bad arity in 'signature f arity x'\n"


@pytest.mark.parametrize("backend", [
    "exhaustive", "external:" + shlex.join([sys.executable, "-m", "eoexact.oracle_cli"])],
    ids=["exhaustive", "external"])
def test_prune_with_a_zero_arity_zero_vertex(tmp_path, capsys, backend):
    # the arity-0 vertex has no entry, so no assignment has nonzero weight
    # and both strings of the closed quaternary are dropped
    grid = tmp_path / "zero.grid"
    grid.write_text("signature gd arity 4\n0101 1\n1010 2\nsignature z arity 0\n"
                    "vertex f gd\nvertex c z\nedge f.1 f.2\nedge f.3 f.4\n")
    code, _, rep = run_cli(capsys, ["prune", str(grid), "--backend", backend])
    assert code == 0
    assert rep["removed"] == [{"vertex": "f", "dropped": ["0101", "1010"]}]


def test_affine_membership_in_a_large_field_is_quick(tmp_path):
    # the scale of f is z + 1, whose inverse in Q(zeta_99991) multiplies
    # 99 989 conjugates; membership compares with +-scale and divides by nothing
    sig = tmp_path / "big.sig"
    sig.write_text("signature f arity 2\n01 z99991^1 + 1\n")
    proc = subprocess.run([sys.executable, "-m", "eoexact.cli", "classify", str(sig)],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "EO_FIELD": "zeta:99991"})
    assert proc.returncode == 0, proc.stderr
    assert "outcome: fp" in proc.stdout


def test_overlong_number_in_a_value_literal(tmp_path, capsys):
    # past CPython's integer-string limit a number is read by halves, up to
    # MAX_LITERAL_DIGITS digits
    limit = MAX_LITERAL_DIGITS
    sig = tmp_path / "long.sig"
    sig.write_text(f"signature f arity 2\n01 {'7' * 5001}\n")
    code, _, rep = run_cli(capsys, ["classify", str(sig)])
    assert code == 0 and rep["verdict"]["outcome"] == "fp"
    sig.write_text(f"signature f arity 2\n01 {'7' * (limit + 1)}\n")
    assert main(["classify", str(sig)]) == 1
    assert capsys.readouterr().err == \
        f"error: LiteralSyntaxError: line 2: number of more than {limit} digits\n"



@pytest.mark.parametrize("engine", ["brute", "auto"])
def test_eval_renders_a_result_past_the_digit_limit(tmp_path, capsys, engine):
    # a ring of two vertices reading 01 (weight n) or both 10: Z = n^2 + 1
    n = "1" + "0" * 2998 + "1"
    grid = tmp_path / "huge.grid"
    grid.write_text(f"signature f arity 2\n01 {n}\n10 1\n"
                    "vertex a f\nvertex b f\nedge a.2 b.1\nedge b.2 a.1\n")
    code, human, rep = run_cli(capsys, ["eval", "--engine", engine, str(grid)])
    z = "1" + "0" * 2998 + "2" + "0" * 2998 + "2"
    assert code == 0
    assert rep["result"] == z
    assert f"Z = {z}\n" in human

def test_gate_non_integer_port_exit_code(tmp_path, capsys):
    for step in ("permute 1 x", "loop a b"):
        script = tmp_path / "bad.gate"
        script.write_text(f"start delta\n{step}\n")
        assert main(["gate", str(script)]) == 2
        assert capsys.readouterr().err.startswith("usage error: line 2: ")


def test_zero_denominator_exit_code(workdir, tmp_path, capsys):
    sig = tmp_path / "zero.sig"
    sig.write_text("signature z arity 2\n01 1/0\n")
    assert main(["classify", str(sig)]) == 1
    assert main(["interp", str(workdir / "pinned.grid"), "--x", "1/0"]) == 1
    for line in capsys.readouterr().err.splitlines():
        assert line.startswith("error: LiteralSyntaxError: ")


def test_non_utf8_input_exit_code(tmp_path, capsys):
    sig = tmp_path / "latin1.sig"
    sig.write_bytes("signature é arity 2\n01 1\n".encode("latin-1"))
    assert main(["classify", str(sig)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: UnicodeDecodeError: ")
    assert err.count("\n") == 1


def test_use_line_takes_absolute_paths(workdir, tmp_path, capsys):
    other = tmp_path / "elsewhere"
    other.mkdir()
    sigs = workdir / "sigs.sig"
    (other / "abs.grid").write_text(
        f"use {sigs}\nvertex v1 deq4\nedge v1.1 v1.3\nedge v1.2 v1.4\n")
    (other / "abs.gate").write_text(f"use {sigs}\nstart gd\nloop 3 4\n")
    code, _, rep = run_cli(capsys, ["eval", "--engine", "brute", str(other / "abs.grid")])
    assert code == 0 and rep["result"] == "2"
    assert run_cli(capsys, ["gate", str(other / "abs.gate")])[0] == 0


# -- report branches that the fixtures above do not reach ---------------------------


def test_classify_hard_set_names_its_witness(tmp_path, capsys):
    sig = tmp_path / "hard.sig"
    sig.write_text("signature h arity 4\n0011 1\n0101 1\n1010 1\n")
    code, human, rep = run_cli(capsys, ["classify", str(sig)])
    assert code == 0
    assert human.startswith("signatures: 1\noutcome: sharp_p_hard\nhard witness: gap_triple\n")
    assert (rep["verdict"]["outcome"], rep["verdict"]["witness"]["kind"]) == \
        ("sharp_p_hard", "gap_triple")


def test_eval_auto_falls_back_to_brute(tmp_path, capsys):
    # mform is in neither class outright, so auto picks brute force
    grid = tmp_path / "two.grid"
    grid.write_text("signature mform arity 4\n1100 1\n1010 1\n1001 2\n"
                    "vertex a mform\nvertex b mform\n"
                    "edge a.1 b.3\nedge a.2 b.4\nedge a.3 b.1\nedge a.4 b.2\n")
    code, human, rep = run_cli(capsys, ["eval", "--engine", "auto", str(grid)])
    assert code == 0 and human.startswith("engine: brute\nZ = 5\n")
    assert (rep["engine"], rep["result"]) == ("brute", "5")


def test_backend_with_unbalanced_quotes_exit_code(capsys):
    assert main(["prune", str(FIXTURES / "pinned.grid"), "--backend", 'external:"']) == 2
    assert capsys.readouterr().err == \
        "usage error: bad backend 'external:\"' (No closing quotation)\n"


def test_sigset_without_signatures_exit_code(tmp_path, capsys):
    sig = tmp_path / "empty.sig"
    sig.write_text("# only a comment\n")
    assert main(["classify", str(sig)]) == 2
    assert capsys.readouterr().err == f"usage error: no signatures in {sig}\n"


@pytest.mark.parametrize("script, err", [
    ("start delta\nloop 1 2 1\n", "line 2: loop takes two weight values"),
    ("start delta\nfrobnicate\n", "line 2: unknown gate step 'frobnicate'"),
    ("dual\n", "line 1: gate step 'dual' before 'start'"),
    ("# nothing\n", "gate script produced no signature (missing 'start'?)"),
], ids=["loop-one-weight", "unknown-step", "step-before-start", "no-start"])
def test_gate_script_errors_exit_code(tmp_path, capsys, script, err):
    gate = tmp_path / "bad.gate"
    gate.write_text(script)
    assert main(["gate", str(gate)]) == 2
    assert capsys.readouterr().err == f"usage error: {err}\n"


def test_grid_pad_reports_an_unbalanced_grid(tmp_path, capsys):
    # the arity-3 vertex pads one forced-0 port and delta1 becomes a pin with
    # one zero-end: two zero-ends and no one-end, so Z is identically 0
    grid = tmp_path / "pad.grid"
    grid.write_text("signature t arity 3\n110 1\nvertex v t\nvertex d delta1\n"
                    "edge v.2 v.3\nedge v.1 d.1\n")
    code, human, rep = run_cli(capsys, ["transform", "--op", "grid-pad", str(grid)])
    message = ("padding needs 2 zero-ends matched to 0 one-ends; "
               "partition function is identically 0")
    assert code == 0 and human.startswith(f"balanced: False\n{message}\n")
    assert (rep["balanced"], rep["diagnostic"]) == (False, message)
    assert rep["grid"] == "signature s0 arity 0\n\nvertex zero s0\n"


# -- each command imports only what it runs ---------------------------------------

# one invocation per command path, on the shipped fixtures (run from FIXTURES)
COMMANDS = {
    "eval-brute": ["eval", "--engine", "brute", "deq4-closed.grid"],
    "eval-auto": ["eval", "--engine", "auto", "deq4-closed.grid"],
    "eval-fpnp": ["eval", "--engine", "fpnp", "deq4-closed.grid"],
    "classify": ["classify", "m-delta1.sigset"],
    "classify-upside": ["classify", "m-delta1.sigset", "--mode", "upside"],
    "classify-downside": ["classify", "m-delta1.sigset", "--mode", "downside"],
    "classify-single-weighted": ["classify", "m-delta1.sigset", "--mode", "single-weighted"],
    "generate": ["generate", "neq4-1i.sig"],
    "gate": ["gate", "loop.gate"],
    "interp": ["interp", "pinned.grid", "--x", "2"],
    "transform-pad": ["transform", "--op", "pad", "deq4.sig"],
    "transform-grid-pad": ["transform", "--op", "grid-pad", "deq4-closed.grid"],
    "prune": ["prune", "pinned.grid", "--backend",
              "external:" + shlex.join([sys.executable, "-m", "eoexact.oracle_cli"])],
}
NOT_LOADED = {
    "import": ([], {"classify", "generate", "tractable", "transforms", "grids", "gauss"}),
    "gate": (COMMANDS["gate"], {"classify", "generate"}),
    "transform-pad": (COMMANDS["transform-pad"], {"classify", "generate", "grids"}),
    "eval-brute": (COMMANDS["eval-brute"], {"classify", "generate", "tractable"}),
    "eval-auto": (COMMANDS["eval-auto"], {"generate", "transforms"}),
    "interp": (COMMANDS["interp"], {"classify", "generate"}),
    "prune": (["prune", "pinned.grid", "--backend", "exhaustive"], {"classify", "generate"}),
    "prune-external": (COMMANDS["prune"], {"classify", "generate"}),
    "classify": (COMMANDS["classify"], {"tractable", "generate", "grids"}),
    "generate": (COMMANDS["generate"], {"tractable", "transforms", "gauss"}),
    "generate-zeta8": (["generate", "sqrt2-450.sig"], {"tractable", "transforms", "gauss"}),
}
FIELDS = {"generate-zeta8": "zeta:8"}  # EO_FIELD of a case; gauss by default
# other modules the script reports: no command needs mpmath, nor dataclasses
# or the inspect it imports, which cost more start-up than most commands'
# work, and subprocess serves only an external oracle
WATCHED = ("mpmath", "dataclasses", "inspect", "subprocess")
LOADED_MODULES = (
    "import contextlib, io, sys\n"
    "from eoexact.cli import main\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    code = main(sys.argv[1:]) if sys.argv[1:] else 0\n"
    f"print(code, *sorted(m for m in sys.modules if m.startswith('eoexact.') or m in {WATCHED}))\n")


@pytest.mark.parametrize("case", NOT_LOADED)
def test_cli_loads_only_what_it_runs(case):
    argv, absent = NOT_LOADED[case]
    proc = subprocess.run([sys.executable, "-c", LOADED_MODULES, *argv], cwd=FIXTURES,
                          capture_output=True, text=True,
                          env={**os.environ, "EO_FIELD": FIELDS.get(case, "gauss")})
    assert proc.returncode == 0, proc.stderr
    code, *names = proc.stdout.split()
    assert code == "0"
    loaded = {name.removeprefix("eoexact.") for name in names}
    assert not loaded & absent
    assert not loaded & {"mpmath", "dataclasses", "inspect"}
    assert ("subprocess" in loaded) == any(arg.startswith("external:") for arg in argv)


@pytest.mark.parametrize("argv", COMMANDS.values(), ids=COMMANDS)
def test_module_entry_matches_main(argv, capsys, monkeypatch):
    monkeypatch.chdir(FIXTURES)
    code = main(argv)
    report = capsys.readouterr().out.partition("== report ==\n")[2]
    proc = subprocess.run([sys.executable, "-m", "eoexact.cli", *argv], cwd=FIXTURES,
                          capture_output=True, text=True)
    assert code == 0 and report
    assert (proc.returncode, proc.stdout.partition("== report ==\n")[2]) == (code, report)


@pytest.mark.parametrize("argv", COMMANDS.values(), ids=COMMANDS)
def test_out_file_holds_the_artifact_or_the_report(argv, tmp_path, capsys, monkeypatch):
    # prune writes its grid text, transform its text and a newline, every
    # other command the printed report
    monkeypatch.chdir(FIXTURES)
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 0
    report = capsys.readouterr().out.partition("== report ==\n")[2]
    rep = json.loads(report)
    if argv[0] == "prune":
        expected = rep["pruned_grid"]
    elif argv[0] == "transform":
        expected = (rep.get("signatures") or rep["grid"]) + "\n"
    else:
        expected = report
    assert out.read_text() == expected


@pytest.mark.parametrize("argv", COMMANDS.values(), ids=COMMANDS)
def test_bad_field_exit_code(argv, capsys, monkeypatch):
    monkeypatch.chdir(FIXTURES)
    monkeypatch.setenv("EO_FIELD", "zeta:x")
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: LiteralSyntaxError: bad field spec 'zeta:x'\n"


@pytest.mark.parametrize("argv", [COMMANDS["prune"][:2], COMMANDS["eval-fpnp"]])
def test_missing_oracle_exit_code(argv, capsys, monkeypatch):
    monkeypatch.chdir(FIXTURES)
    assert main(argv + ["--backend", "external:/nonexistent"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: FileNotFoundError: ")
    assert err.count("\n") == 1


def test_import_error_is_not_a_domain_error(monkeypatch):
    monkeypatch.chdir(FIXTURES)
    monkeypatch.setitem(sys.modules, "eoexact.classify", None)
    with pytest.raises(ImportError):
        main(COMMANDS["classify"])


FUZZ_FILES = {
    "a.sig": "signature deq4 arity 4\n1100 1\n0011 1\n"
             "signature gd arity 4\n0101 1\n1010 2+i\n",
    "a.grid": "use a.sig\nvertex v deq4\nvertex w gd\nedge v.1 w.3\nedge v.2 w.4\n"
              "edge w.1 v.3\nedge w.2 v.4\n",
    "p.grid": "signature gd arity 4\n0101 1\n1010 2\n"
              "vertex f gd\nvertex d delta\nedge d.2 f.1\nedge d.1 f.2\nedge f.3 f.4\n",
    "a.gate": "use a.sig\nstart gd\ntensor delta\nloop 3 4 1 2 ji\npin 1 2 01\n"
              "permute 2 1\ndual\n",
}
FUZZ_NAMES = sorted(FUZZ_FILES) + ["missing.grid", "."]
FUZZ_COMMANDS = ["eval", "classify", "generate", "prune", "interp", "transform", "gate"]
FUZZ_OPTIONS = [
    ("--engine", e) for e in ("brute", "affine", "product", "fpnp", "auto", "x")] + [
    ("--class", c) for c in ("affine", "product")] + [
    ("--backend", b) for b in ("exhaustive", "external:", 'external:"', "external:true")] + [
    ("--mode", m) for m in ("upside", "downside", "single-weighted")] + [
    ("--caps", c) for c in ("steps=2,size=64,order=8", "order=x")] + [
    ("--x", x) for x in ("2", "-3/2", "1/0", "i", "z8", "")] + [
    ("--op", o) for o in ("restrict-eo", "pad", "grid-pad")] + [
    ("--recipes", "r.txt"), ("--out", "o.txt"), ("-h",), ("--",), ("",), ("a.sig",),
    ("eval",)]
FUZZ_JUNK = "01 \n\t#./-+*^:iz29edgevertexdanglesignaturearityusestartlooppinx\x00é"


def _mangle(text: str, edits) -> bytes:
    """Apply (position, cut, insert) edits to the text; encode it as UTF-8."""
    for pos, cut, insert in edits:
        pos = min(pos, len(text))
        text = text[:pos] + insert + text[pos + cut:]
    return text.encode()


def _mangled_file(text: str):
    """The text as is, edited, or followed by raw (often non-UTF-8) bytes."""
    edit = st.tuples(st.integers(0, len(text)), st.integers(0, 6),
                     st.text(FUZZ_JUNK, max_size=8))
    return st.just(text.encode()) | \
        st.builds(_mangle, st.just(text), st.lists(edit, min_size=1, max_size=3)) | \
        st.builds(lambda junk: text.encode() + junk, st.binary(min_size=1, max_size=3))


FUZZ_ARGV = st.builds(lambda cmd, name, options: [cmd, name] + [w for o in options for w in o],
                      st.sampled_from(FUZZ_COMMANDS), st.sampled_from(FUZZ_NAMES),
                      st.lists(st.sampled_from(FUZZ_OPTIONS), max_size=3))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(files=st.fixed_dictionaries({name: _mangled_file(text)
                                    for name, text in FUZZ_FILES.items()}),
       argv=FUZZ_ARGV)
def test_cli_never_raises(files, argv):
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        for name, data in files.items():
            with open(os.path.join(tmp, name), "wb") as fh:
                fh.write(data)
        os.chdir(tmp)  # --out and --recipes write here
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        finally:
            os.chdir(cwd)
    assert code in (0, 1, 2)
    lines = err.getvalue().splitlines()
    if code == 1:  # one line, ended by its newline
        assert err.getvalue().count("\n") == 1 and lines[0].startswith("error: ")
    elif code == 2:  # ours, or argparse's after its usage lines
        assert lines[-1].startswith("usage error: ") or \
            re.match(r"eo( \w+)?: error: ", lines[-1])
