"""Inputs and runners for the ``cli`` workload: one ``eo`` invocation per instance.

The package is run as ``python -m eoexact.cli`` with ``PYTHONPATH`` pointing at
the checkout's ``src``; the external oracle is ``python -m eoexact.oracle_cli``.
The reference for every invocation is ``cli.main(argv)`` run in-process on
the same files, whose canonical ``== report ==`` JSON must match byte for
byte, with exit code 0 on both sides.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import shlex
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import families as fam
from eoexact.grids import Grid, render_grid_text
from eoexact.signatures import diseq, from_entries, gen_diseq, pin_signature, render_signature_block

REPORT_MARK = "== report ==\n"


@dataclass
class CliInstance:
    key: str
    command: str
    argv: list[str]
    env: dict[str, str] = field(default_factory=dict)

    @property
    def family(self) -> str:
        return f"cli-{self.command}"


def oracle_spec() -> str:
    return f"external:{shlex.quote(sys.executable)} -m eoexact.oracle_cli"


def _sigfile(path: Path, sigs) -> None:
    path.write_text("\n".join(render_signature_block(s) for s in sigs), encoding="utf-8")


def _prune_grid(rng: random.Random) -> Grid:
    """Four pins wired at random: one oracle query per support string, four in all."""
    slots = [(v, p) for v in range(4) for p in range(2)]
    rng.shuffle(slots)
    edges = [(slots[2 * t], slots[2 * t + 1]) for t in range(4)]
    return Grid.make([(f"p{v}", pin_signature()) for v in range(4)], edges)


def _write_case(kind: str, variant: int, workdir: Path, rel: Path) -> CliInstance:
    rng = fam.family_rng(f"cli-{kind}", 0, variant)
    stem = f"{kind}-{variant}"
    key = f"cli-{kind}:{variant}"
    if kind == "eval":
        grid, _ = fam.deq4_ring("cli-eval", 64, variant)
        (workdir / f"{stem}.grid").write_text(render_grid_text(grid), encoding="utf-8")
        return CliInstance(key, "eval", ["eval", str(rel / f"{stem}.grid"), "--engine", "auto"])
    if kind.startswith("classify"):
        arity, mode = {"classify6": (6, "eo"), "classify6u": (6, "upside"),
                       "classify8": (8, "eo"), "classify8s": (8, "single-weighted")}[kind]
        sig = gen_diseq(fam.balanced_alpha(rng, arity), rng.choice(fam.SMALL_GAUSS),
                        rng.choice(fam.SMALL_GAUSS), "g")
        sigs = [sig, diseq(arity)] if arity == 6 else [sig]
        _sigfile(workdir / f"{stem}.sig", sigs)
        return CliInstance(key, "classify", ["classify", str(rel / f"{stem}.sig"), "--mode", mode])
    if kind == "generate":
        sig = fam.realizability_input("zeta8", 4, variant)
        _sigfile(workdir / f"{stem}.sig", [sig])
        return CliInstance(key, "generate", ["generate", str(rel / f"{stem}.sig")],
                           {"EO_FIELD": "zeta:8"})
    if kind == "gate":
        base = fam.dense_balanced(rng, 6).with_name("f")
        _sigfile(workdir / f"{stem}.sig", [base])
        w = fam.render_value(rng.choice(fam.SMALL_GAUSS))
        script = f"use {stem}.sig\nstart f\nloop 1 2 1 {w}\nloop 1 2\n"
        (workdir / f"{stem}.gate").write_text(script, encoding="utf-8")
        return CliInstance(key, "gate", ["gate", str(rel / f"{stem}.gate")])
    if kind == "interp":
        x = fam.render_value(rng.choice(fam.SMALL_GAUSS[1:3] + fam.SMALL_GAUSS[4:7]))
        text = (f"signature f arity 4\n0101 1\n1010 {x}\n"
                "vertex f f\nvertex d delta\nedge d.2 f.1\nedge d.1 f.2\nedge f.3 f.4\n")
        (workdir / f"{stem}.grid").write_text(text, encoding="utf-8")
        return CliInstance(key, "interp", ["interp", str(rel / f"{stem}.grid"), "--x", "2"])
    if kind == "transform":
        strings = [m for m in range(16) if bin(m).count("1") == 1]
        sig = from_entries(4, {m: rng.choice(fam.SMALL_GAUSS) for m in strings}, "s")
        _sigfile(workdir / f"{stem}.sig", [sig])
        return CliInstance(key, "transform", ["transform", str(rel / f"{stem}.sig"), "--op", "pad"])
    if kind == "prune":
        (workdir / f"{stem}.grid").write_text(render_grid_text(_prune_grid(rng)), encoding="utf-8")
        return CliInstance(key, "prune", ["prune", str(rel / f"{stem}.grid"),
                                          "--backend", oracle_spec()])
    raise ValueError(kind)


# Twenty invocations per cycle; prune is 3 of 20 (15%), so the 90th percentile
# falls inside the prune group and the median inside the single-process ones.
CYCLE = (["eval"] * 4 + ["classify6", "classify6u", "classify8", "classify8s"]
         + ["generate"] * 2 + ["gate"] * 2 + ["interp"] * 2 + ["transform"] * 3 + ["prune"] * 3)


def build_cycle(seed: int, workdir: Path, root: Path) -> list[CliInstance]:
    """Write the cycle's input files into workdir; argv paths are relative to root."""
    rng = random.Random(seed)
    workdir.mkdir(parents=True, exist_ok=True)
    rel = workdir.relative_to(root)
    cases = [_write_case(kind, fam.pick_variant(rng, recorded=False), workdir, rel)
             for kind in CYCLE]
    rng.shuffle(cases)
    return cases


def run_subprocess(case: CliInstance, root: Path) -> tuple[int, str]:
    """One ``python -m eoexact.cli`` invocation; returns (exit code, report text)."""
    proc = subprocess.run([sys.executable, "-m", "eoexact.cli", *case.argv], cwd=root,
                          env={**os.environ, **case.env}, capture_output=True, text=True,
                          timeout=150)
    return proc.returncode, report_of(proc.stdout)


def run_inprocess(case: CliInstance) -> tuple[int, str]:
    """``cli.main(argv)`` in this process, with the case's environment."""
    from eoexact import cli
    saved = {k: os.environ.get(k) for k in case.env}
    os.environ.update(case.env)
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(list(case.argv))
    finally:
        for k, v in saved.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v
    return code, report_of(out.getvalue())


def report_of(stdout: str) -> str:
    """The canonical JSON report: everything after the ``== report ==`` line."""
    _, mark, report = stdout.partition(REPORT_MARK)
    return report if mark else ""
