import copy
import os
import random
import subprocess
import sys

import pytest

import eoexact
from eoexact.oracle_cli import MAX_VARIABLE, parse_clauses, solve
from eoexact.signatures import diseq, from_entries, gen_diseq, neq2, pin_signature
from eoexact.tractable import encode_support_query
from tests_helpers import rand_closed_grid, reference_solve


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


def as_model(value):
    """solve's value list as the {variable: value} dict reference_solve gives."""
    return None if value is None else {v: value[v] for v in range(1, len(value))}


def test_solve_sat_and_unsat():
    assert solve([[1, 2], [-1, 2]], 2)[2]
    assert solve([[1], [-1]], 1) is None
    assert as_model(solve([], 0)) == {}


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


def random_cnf(rng):
    """0-12 variables, widths 1-4; literals drawn with replacement, so
    clauses repeat literals and hold tautologies."""
    nvars = rng.randint(0, 12)
    if nvars == 0:
        return [], 0
    clauses = []
    for _ in range(rng.randint(0, 3 * nvars + 4)):
        clause = [rng.choice([1, -1]) * rng.randint(1, nvars)
                  for _ in range(rng.randint(1, 4))]
        if rng.random() < 0.1:
            clause.append(rng.choice(clause))
        if rng.random() < 0.1:
            clause.append(-rng.choice(clause))
        clauses.append(clause)
    return clauses, nvars


def assert_same_as_reference(clauses, nvars):
    snapshot = copy.deepcopy(clauses)
    got = as_model(solve(clauses, nvars))
    assert clauses == snapshot
    assert got == reference_solve(clauses, nvars), (clauses, nvars)
    return got


def test_solve_matches_reference_on_random_cnfs():
    rng = random.Random(17)
    cases = [([], 0)] + [random_cnf(rng) for _ in range(1500)]
    assert any(len(set(c)) < len(c) for cs, _ in cases for c in cs)
    assert any(-l in c for cs, _ in cases for c in cs for l in c)
    answers = [assert_same_as_reference(c, n) for c, n in cases]
    assert answers.count(None) > 100 and len(answers) - answers.count(None) > 100


def test_solve_matches_reference_on_support_queries():
    # the pool of the backend-agreement acceptance test
    rng = random.Random(19)
    pool = [diseq(4), gen_diseq("0101", 1, 2), neq2(),
            from_entries(4, {"0011": 1, "0101": 1, "1010": 1}),
            pin_signature()]
    answers = []
    for _ in range(120):
        grid = rand_closed_grid(rng, pool, max_vertices=4, max_edges=10)
        for vidx, (_, sig) in enumerate(grid.vertices):
            for m in sig.support():
                answers.append(assert_same_as_reference(
                    *parse_clauses(encode_support_query(grid, vidx, m))))
    assert answers.count(None) > 10 and len(answers) - answers.count(None) > 10


def test_solve_has_no_depth_limit():
    model = as_model(solve([[1000]], 1000))
    assert model == {v: v == 1000 for v in range(1, 1001)}


def test_cli_answers_deep_query():
    code, line = run_oracle("1000\n")
    assert code == 0
    lits = line.split()
    assert lits[0] == "SAT" and len(lits) == 1001
    assert lits[-1] == "1000"


@pytest.mark.parametrize("nvars", [0, 1, 4095, 4096, 4097, 10000])
def test_cli_sat_line_is_one_line_across_chunks(nvars):
    text = f"{nvars} -1\n" if nvars else "\n"
    proc = subprocess.run([sys.executable, "-m", "eoexact.oracle_cli"],
                          input=text, capture_output=True, text=True)
    want = "".join(f" -{v}" for v in range(1, nvars + 1))
    assert proc.returncode == 0
    assert proc.stdout == f"SAT{want}\n"


def test_variable_above_limit_fails_before_allocating():
    with pytest.raises(ValueError, match="limit"):
        parse_clauses(f"1\n-{MAX_VARIABLE + 1} 2\n")
    assert parse_clauses(f"{MAX_VARIABLE}\n")[1] == MAX_VARIABLE
    # one tiny clause naming a huge variable: a one-line error, not a 10^8-slot list
    proc = subprocess.run([sys.executable, "-m", "eoexact.oracle_cli"],
                          input="100000000\n", capture_output=True, text=True, timeout=30)
    assert proc.returncode == 2
    assert proc.stdout.startswith("ERROR ") and len(proc.stdout.splitlines()) == 1


def test_cli_answers_largest_variable_in_linear_time():
    # one clause over every variable up to the limit: a decision scan that
    # restarts at variable 1 costs about 5 * 10^11 steps here and never answers
    proc = subprocess.run([sys.executable, "-m", "eoexact.oracle_cli"],
                          input=f"{MAX_VARIABLE} -1\n", capture_output=True, text=True,
                          timeout=30)
    assert proc.returncode == 0
    lits = proc.stdout.split()
    assert lits[0] == "SAT" and len(lits) == MAX_VARIABLE + 1
    assert lits[1] == "-1" and lits[-1] == f"-{MAX_VARIABLE}"


def test_import_stays_light():
    src = os.path.dirname(os.path.dirname(eoexact.__file__))
    code = ("import sys, eoexact.oracle_cli; "
            "print(sorted(m for m in ('eoexact.classify', 'mpmath') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
