import os
import subprocess
import sys

import pytest

import eoexact
from eoexact.oracle_cli import parse_clauses, solve


def run_oracle(text):
    proc = subprocess.run([sys.executable, "-m", "eoexact.oracle_cli"],
                          input=text, capture_output=True, text=True)
    return proc.returncode, proc.stdout.strip()


def check_model(clauses, line):
    lits = [int(t) for t in line.split()[1:]]
    model = {abs(l): l > 0 for l in lits}
    for clause in clauses:
        assert any(model[abs(l)] == (l > 0) for l in clause)


def test_parse_clauses():
    clauses, nvars = parse_clauses("1 -2\n\n# comment\n3\n")
    assert clauses == [[1, -2], [3]]
    assert nvars == 3
    with pytest.raises(ValueError):
        parse_clauses("1 0\n")


def test_solve_sat_and_unsat():
    assert solve([[1, 2], [-1, 2]], 2)[2]
    assert solve([[1], [-1]], 1) is None
    assert solve([], 0) == {}


def test_cli_roundtrip_sat():
    code, line = run_oracle("1 -2\n-1 -2\n2 3\n")
    assert code == 0
    assert line.startswith("SAT")
    check_model([[1, -2], [-1, -2], [2, 3]], line)


def test_cli_roundtrip_unsat():
    code, line = run_oracle("1\n-1\n")
    assert code == 0
    assert line == "UNSAT"


def test_cli_bad_literal():
    code, line = run_oracle("1 0\n")
    assert code == 2
    assert line.startswith("ERROR")


def test_solver_on_random_instances():
    import random
    rng = random.Random(3)
    for _ in range(40):
        nvars = rng.randint(1, 8)
        clauses = []
        for _ in range(rng.randint(1, 14)):
            width = rng.randint(1, 3)
            clause = [rng.choice([1, -1]) * rng.randint(1, nvars)
                      for _ in range(width)]
            clauses.append(clause)
        got = solve([c[:] for c in clauses], nvars)
        truth = None
        for assign in range(1 << nvars):
            model = {v + 1: bool((assign >> v) & 1) for v in range(nvars)}
            if all(any(model[abs(l)] == (l > 0) for l in c) for c in clauses):
                truth = model
                break
        if truth is None:
            assert got is None
        else:
            assert got is not None
            for clause in clauses:
                assert any(got[abs(l)] == (l > 0) for l in clause)


def test_import_stays_light():
    src = os.path.dirname(os.path.dirname(eoexact.__file__))
    code = ("import sys, eoexact.oracle_cli; "
            "print(sorted(m for m in ('eoexact.classify', 'mpmath') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
