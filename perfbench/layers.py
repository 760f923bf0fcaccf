"""Fixed-seed per-layer rows for the traced run.

* ``sweep.*``: the size sweep of the baseline table (rings, exhaustive fpnp,
  classifier, 4x4 torus, one external oracle query), each timed untraced.
* ``values.*_ns.*``: L0 micro rows, operands drawn from the ``enumerate``
  (Gaussian) and ``classify`` (Q(zeta_8)) families at a fixed seed.
* ``cli.*`` and ``oracle_cli.*``: process start-up, import, and each
  ``eo`` command in-process against as a subprocess.
"""

from __future__ import annotations

import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import clicases
import families as fam
import tracing
from eoexact import oracle_cli
from eoexact.classify import dichotomy_verdict
from eoexact.grids import brute_force_partition
from eoexact.signatures import diseq
from eoexact.tractable import (
    ExhaustiveOracle,
    ExternalOracle,
    encode_support_query,
    eval_affine,
    eval_fpnp,
    eval_product,
    prune_effective,
)

LAYER_SEED = 20250204


def _median_ms(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append((time.perf_counter() - t0) * 1000.0)
    return statistics.median(times)


def sweep_rows() -> dict[str, float]:
    rows: dict[str, float] = {}
    for n in (64, 128, 256, 512):
        grid = fam.ring([diseq(4)] * n)
        rows[f"sweep.affine_ms.n{n}"] = _median_ms(lambda: eval_affine(grid), 3 if n < 512 else 1)
        rows[f"sweep.product_ms.n{n}"] = _median_ms(lambda: eval_product(grid), 3 if n < 512 else 1)
    for n in (32, 64, 128):
        grid = fam.ring([diseq(4)] * n)
        rows[f"sweep.fpnp_ms.n{n}"] = _median_ms(
            lambda: eval_fpnp(grid, "affine", ExhaustiveOracle()), 3 if n < 128 else 1)
    for k in (8, 10):
        rows[f"sweep.verdict_ms.diseq{k}"] = _median_ms(lambda: dichotomy_verdict([diseq(k)]),
                                                        3 if k < 10 else 1)
    torus = fam.torus_grid("brute-torus", 4, 0)
    rows["sweep.brute_ms.torus4"] = _median_ms(lambda: brute_force_partition(torus), 3)
    closed = fam.ring([diseq(4)] * 4)
    oracle = ExternalOracle([sys.executable, "-m", "eoexact.oracle_cli"])
    rows["sweep.oracle_query_ms"] = _median_ms(lambda: oracle.query(closed, 0, 0b1100), 1)
    return rows


def _micro_ns(op, pairs, rounds: int = 5) -> float:
    """Median over rounds of the mean time of one operation, in ns."""
    per_op = []
    for _ in range(rounds):
        t0 = time.perf_counter_ns()
        for a, b in pairs:
            op(a, b)
        per_op.append((time.perf_counter_ns() - t0) / len(pairs))
    return statistics.median(per_op)


def value_operands(kind: str, count: int = 400) -> list:
    """Values met by the workloads: products of brute-torus entries, or zeta_8 weights."""
    rng = random.Random(LAYER_SEED)
    if kind == "gauss":
        pool = [v for v in fam.dense_balanced(rng, 4).values if not v.is_zero()]
        out = []
        for _ in range(count):
            acc = rng.choice(pool)
            for _ in range(rng.randrange(1, 6)):
                acc = acc * rng.choice(pool)
            out.append(acc)
        return out
    sigs = [fam.realizability_input("zeta8", 4, v) for v in range(8)]
    pool = [v for s in sigs for v in s.values if not v.is_zero()]
    out = []
    for _ in range(count):
        a, b = rng.choice(pool), rng.choice(pool)
        out.append(a + b * rng.choice(pool) if rng.random() < 0.5 else a * b)
    return [v for v in out if not v.is_zero()]


def value_rows() -> dict[str, float]:
    rows: dict[str, float] = {}
    for kind, label in (("gauss", "gauss"), ("zeta8", "zeta8")):
        vals = value_operands(kind)
        pairs = list(zip(vals, vals[1:] + vals[:1]))
        rows[f"values.add_ns.{label}"] = _micro_ns(lambda a, b: a + b, pairs)
        rows[f"values.mul_ns.{label}"] = _micro_ns(lambda a, b: a * b, pairs)
        rows[f"values.inverse_ns.{label}"] = _micro_ns(lambda a, b: a.inverse(), pairs)
    return rows


def _subprocess_ms(args: list[str], root: Path, repeats: int) -> float:
    def once():
        subprocess.run([sys.executable, *args], cwd=root, capture_output=True, check=True,
                       timeout=120)
    return _median_ms(once, repeats)


def cli_rows(root: Path, workdir: Path) -> tuple[dict[str, float], bool]:
    """Start-up and per-command rows; also returns whether every report matched."""
    rows: dict[str, float] = {}
    interp = _subprocess_ms(["-c", "pass"], root, 5)
    rows["cli.interpreter_ms"] = interp
    rows["cli.import_ms"] = _subprocess_ms(["-c", "import eoexact"], root, 5) - interp
    cases = clicases.build_cycle(LAYER_SEED, workdir, root)
    ok = True
    first = {}
    for case in cases:
        first.setdefault(case.command, case)
    for command, case in first.items():
        inproc, sub = [], []
        for _ in range(2):
            t0 = time.perf_counter()
            ref = clicases.run_inprocess(case)
            inproc.append((time.perf_counter() - t0) * 1000.0)
            t0 = time.perf_counter()
            got = clicases.run_subprocess(case, root)
            sub.append((time.perf_counter() - t0) * 1000.0)
            ok = ok and ref == got and ref[0] == 0
        rows[f"cli.inproc_ms.{command}"] = min(inproc)
        rows[f"cli.subproc_ms.{command}"] = min(sub)
    return rows, ok


def oracle_rows() -> dict[str, float]:
    """Prune one grid with a spawned oracle per query, timed by a tracer span;
    then time ``oracle_cli.solve`` in-process on the same clause texts."""
    grid = clicases._prune_grid(fam.family_rng("cli-prune", 0, LAYER_SEED))
    tracer = tracing.Tracer()
    texts: list[str] = []
    backend = ExternalOracle([sys.executable, "-m", "eoexact.oracle_cli"])
    backend.query = tracer.span("oracle.query", backend.query,
                                lambda result, args: texts.append(encode_support_query(*args)))
    prune_effective(grid, backend)
    spawn_ms = [(end - start) / 1e6 for _, start, end, _ in tracer.spans]
    solve_ms = []
    for text in texts:
        clauses, nvars = oracle_cli.parse_clauses(text)
        solve_ms.append(_median_ms(lambda: oracle_cli.solve(clauses, nvars), 3))
    return {"oracle_cli.spawns": len(spawn_ms),
            "oracle_cli.spawn_ms": statistics.median(spawn_ms),
            "oracle_cli.solve_ms": statistics.median(solve_ms)}


def all_rows(root: Path, workdir: Path) -> tuple[dict[str, float], bool]:
    rows = sweep_rows()
    rows.update(value_rows())
    rows.update(oracle_rows())
    more, ok = cli_rows(root, workdir)
    rows.update(more)
    return rows, ok

