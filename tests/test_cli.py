import json
import subprocess
import sys

import pytest

from eoexact.cli import main


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
                                  ["classify", "missing.sigset"]])
def test_missing_input_file_exit_code(tmp_path, capsys, argv):
    argv = argv[:-1] + [str(tmp_path / argv[-1])]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: FileNotFoundError: ")
    assert err.count("\n") == 1


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
