"""Golden-file tests pinning the report schema byte for byte.

Regenerate with EO_REGEN_GOLDEN=1 after an intentional schema change.
"""

import json
import os
import pathlib

import pytest

from eoexact.cli import main

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

SIGSET = (
    "signature deq4 arity 4\n1100 1\n0011 1\n"
    "signature gd arity 4\n0101 1\n1010 2\n"
)
GRID = (
    "signature deq4 arity 4\n1100 1\n0011 1\n"
    "vertex v1 deq4\nedge v1.1 v1.3\nedge v1.2 v1.4\n"
)

# every recipe kind: one to three loops, paths, the direct pin and the
# unit's None; the recipe file prints each one's repr
RECIPE_SIGSET = SIGSET + (
    "signature neq4i arity 4\n0101 1\n1010 i\n"
    "signature mform arity 4\n1100 1\n1010 1\n1001 2\n"
    "signature g6 arity 6\n010101 1\n101010 z8\n"
    "signature g6b arity 6\n011001 1\n100110 z8^3\n"
    "signature g8 arity 8\n01011001 1\n10100110 z8^3\n"
)

CASES = [
    ("eval_brute.json", ["eval", "--engine", "brute", "fixture.grid"]),
    ("classify_eo.json", ["classify", "fixture.sig"]),
    ("generate.json", ["generate", "fixture.sig"]),
]


def _run_payload(capsys, argv):
    code = main(argv)
    assert code == 0
    out = capsys.readouterr().out
    _, _, rep = out.partition("== report ==\n")
    return json.dumps(json.loads(rep), indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("golden_name,argv", CASES)
def test_golden_reports(golden_name, argv, tmp_path, monkeypatch, capsys):
    (tmp_path / "fixture.sig").write_text(SIGSET)
    (tmp_path / "fixture.grid").write_text(GRID)
    monkeypatch.chdir(tmp_path)
    payload = _run_payload(capsys, argv)
    golden_path = GOLDEN_DIR / golden_name
    if os.environ.get("EO_REGEN_GOLDEN"):
        GOLDEN_DIR.mkdir(exist_ok=True)
        golden_path.write_text(payload)
    assert golden_path.exists(), f"golden file {golden_name} missing; regenerate"
    assert payload == golden_path.read_text()


def test_golden_recipes(tmp_path, monkeypatch, capsys):
    (tmp_path / "fixture.sig").write_text(RECIPE_SIGSET)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("EO_FIELD", "zeta:8")
    assert main(["generate", "fixture.sig", "--recipes", "recipes.txt"]) == 0
    capsys.readouterr()
    text = (tmp_path / "recipes.txt").read_bytes()
    golden_path = GOLDEN_DIR / "generate_recipes.txt"
    if os.environ.get("EO_REGEN_GOLDEN"):
        golden_path.write_bytes(text)
    assert text == golden_path.read_bytes()
