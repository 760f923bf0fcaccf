#!/usr/bin/env python3
"""Self-tests of the benchmark: its own checks, not the program's.

    python3 perfbench/selftest.py

* ``BENCHMARK.json`` names exactly the metrics ``run.py`` prints;
* the same seed yields byte-identical inputs, in two fresh imports;
* traced and untraced passes return identical answers;
* a second seed passes every exact check (the deep family may only raise).
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys

import run


def check_metric_lists() -> None:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == \
        run.per_layer_spec()
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    print("ok: BENCHMARK.json matches the printed metrics")


def input_digest(workload: str, seed: int, workdir) -> str:
    digest = hashlib.sha256()
    fam = run.fresh_import()
    if workload == "cli":
        import clicases
        shutil.rmtree(workdir, ignore_errors=True)
        cases = clicases.build_cycle(seed, workdir, run.ROOT)
        rel = str(workdir.relative_to(run.ROOT))
        for case in cases:
            digest.update(repr((case.key, [a.replace(rel, "") for a in case.argv],
                                case.env)).encode())
        for path in sorted(workdir.iterdir()):
            digest.update(path.name.encode() + path.read_bytes())
    else:
        for inst in fam.build_cycle(workload, seed):
            digest.update(inst.key.encode() + fam.input_text(inst).encode())
    return digest.hexdigest()


def check_same_inputs(workdir) -> None:
    for workload in run.WORKLOADS:
        first = input_digest(workload, 7, workdir / "a")
        second = input_digest(workload, 7, workdir / "b")
        assert first == second, workload
        assert first != input_digest(workload, 8, workdir / "c"), workload
    print("ok: the same seed yields byte-identical inputs; another seed differs")


def check_traced_answers(workdir) -> None:
    import tracing
    for workload in run.WORKLOADS:
        _, cycle = run.set_up(workload, 1, workdir / workload)
        plain, _ = run.run_loop(cycle, run.make_runner(workload, True), 0.0, len(cycle))
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced, _ = run.run_loop(cycle, run.make_runner(workload, True, tracer.oracle),
                                     0.0, len(cycle))
        finally:
            tracer.uninstall()
        assert [r[3:] for r in plain] == [r[3:] for r in traced], workload
        assert tracer.spans, workload
    print("ok: traced and untraced passes return identical answers")


def check_second_seed(workdir) -> None:
    for workload in run.WORKLOADS:
        _, cycle = run.set_up(workload, 2, workdir / workload)
        records, _ = run.run_loop(cycle, run.make_runner(workload, False), 0.0, len(cycle))
        verdicts = run.Checker(workload).judge(records)
        for (inst, _, _, _, error), verdict in zip(records, verdicts):
            if verdict is None:
                assert run.expected_failure(inst, error), (inst.key, error)
            else:
                assert verdict, inst.key
    print("ok: seed 2 passes every exact check; only the deep family raises")


def main() -> int:
    if not run.use_checkout_sources():
        return 2
    workdir = run.BENCH / "out" / "selftest"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        check_metric_lists()
        check_same_inputs(workdir)
        check_traced_answers(workdir)
        check_second_seed(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
