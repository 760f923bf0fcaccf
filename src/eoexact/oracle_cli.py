"""Stand-alone satisfiability responder for the clause-form oracle protocol.

Reads one problem from stdin: one clause per line, clauses are space
separated nonzero integer literals (positive = variable true), blank lines
ignored.  Writes a single response line: ``SAT <signed literal per
variable>`` or ``UNSAT``.  Kept dependency-free so subprocess startup stays
cheap.
"""

from __future__ import annotations

import sys
from array import array


# The solver allocates one slot per variable up to the largest literal, so a
# larger variable is refused before anything is allocated; it is far above
# any grid the engines can handle (one variable per edge).
MAX_VARIABLE = 1 << 20


def parse_clauses(text: str) -> tuple[list[list[int]], int]:
    clauses: list[list[int]] = []
    nvars = 0
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        lits = [int(tok) for tok in line.split()]
        if any(l == 0 for l in lits):
            raise ValueError("literal 0 is not allowed")
        if any(abs(l) > MAX_VARIABLE for l in lits):
            raise ValueError(f"variable above the limit {MAX_VARIABLE}")
        clauses.append(lits)
        nvars = max(nvars, max(abs(l) for l in lits))
    return clauses, nvars


def solve(clauses: list[list[int]], nvars: int) -> list[bool | None] | None:
    """DPLL in one loop: unit propagation in passes over the clauses, in
    order, until a fixed point; then decide the lowest unassigned variable,
    false first.

    ``trail`` lists the assigned variables in order and ``decisions`` holds
    the trail positions of the decisions still at false.  A conflict undoes
    the trail back to the newest of them and flips it to true; when none is
    left the clauses are unsatisfiable.  Every variable below ``cursor`` is
    assigned, so the scan for the next decision resumes there; a backtrack
    sets it to the decision it flips, since every variable below that
    decision was assigned before it and stays so.  ``clauses`` is only
    read, and its literals lie within ``nvars``, as ``parse_clauses`` gives
    them.  A model is the value list itself: ``model[v]`` is the value of
    variable v, and slot 0 is unused.
    """
    value: list[bool | None] = [None] * (nvars + 1)
    trail = array("i")  # C ints: variables stay within MAX_VARIABLE
    decisions = array("i")
    cursor = 1
    while True:
        conflict = False
        changed = True
        while changed and not conflict:
            changed = False
            for clause in clauses:
                count = 0
                for lit in clause:
                    val = value[abs(lit)]
                    if val is None:
                        count += 1
                        unit = lit
                    elif val == (lit > 0):
                        break
                else:
                    if count == 0:
                        conflict = True
                        break
                    if count == 1:
                        value[abs(unit)] = unit > 0
                        trail.append(abs(unit))
                        changed = True
        if conflict:
            if not decisions:
                return None
            mark = decisions.pop()
            for var in trail[mark + 1:]:
                value[var] = None
            del trail[mark + 1:]
            cursor = trail[mark]
            value[cursor] = True
            continue
        while cursor <= nvars and value[cursor] is not None:
            cursor += 1
        if cursor > nvars:
            return value
        decisions.append(len(trail))
        value[cursor] = False
        trail.append(cursor)


def main() -> int:
    text = sys.stdin.read()
    try:
        clauses, nvars = parse_clauses(text)
    except ValueError as exc:
        print(f"ERROR {exc}")
        return 2
    model = solve(clauses, nvars)
    if model is None:
        print("UNSAT")
        return 0
    # the SAT line goes out in chunks, so no string is kept per variable
    print("SAT", end="")
    for lo in range(1, nvars + 1, 4096):
        chunk = range(lo, min(lo + 4096, nvars + 1))
        print("".join([f" {v}" if model[v] else f" -{v}" for v in chunk]), end="")
    print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
