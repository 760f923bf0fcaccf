#!/usr/bin/env python3
"""eoexact benchmark: four seeded closed-loop workloads, every answer checked exactly.

    python3 perfbench/run.py --workload closed-form --seed 1 --seconds 20 --trace 0

One client, no threads: the next instance starts when the previous one ends.
An instance is one library call, or one ``python -m eoexact.cli`` invocation
for the ``cli`` workload.  A run lasts ``--seconds`` and at least
``MIN_INSTANCES`` instances, so that the 90th percentile has ten samples
beyond it.  Human-readable lines come first; the last line is one JSON object.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the cycle
once to warm up, once untraced and once traced (see ``tracing.py``), then the
fixed-seed layer rows of ``layers.py``, and reports the per-layer metrics.

End-to-end times are reported at a reference machine speed (see ``speed.py``),
which cancels the drift of a shared machine between runs; the raw times are
printed on the human-readable lines.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("closed-form", "enumerate", "classify", "cli")
MIN_INSTANCES = 100
SETUP_REPEATS = 5
TIME_LIMIT_S = 120.0      # the timed loop stops here whatever the count
FAILED_MS = 1e6           # a percentile that lands on a failed instance (+inf)
OWN_MODULES = ("eoexact", "families", "clicases", "layers", "tracing")

END_TO_END = [
    ("instances_per_s", "1/s"), ("latency_p50_ms", "ms"), ("latency_p90_ms", "ms"),
    ("ok_ratio", "ratio"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
]

TRACE_COUNTS = [
    "values.ops", "signatures.support_calls", "signatures.hash_calls",
    "signatures.gadget_calls", "f2.solve_calls", "f2.equations", "gauss.free_vars",
    "grids.validate_calls", "grids.brute_calls", "tractable.oracle_queries",
    "tractable.oracle_sat", "tractable.oracle_unsat", "classify.pairings_checked",
    "classify.vacuous", "classify.restrict_calls", "generate.work", "generate.closure_size",
]
# metric -> span group whose outermost spans it sums
TRACE_SECONDS = {
    "signatures.gadget_s": "signatures.gadget", "f2.solve_s": "f2.solve",
    "f2.span_s": "f2.span", "gauss.sum_s": "gauss.sum", "grids.validate_s": "grids.validate",
    "grids.brute_s": "grids.brute", "grids.gate_s": "grids.gate",
    "tractable.affine_s": "tractable.affine", "tractable.product_s": "tractable.product",
    "tractable.prune_s": "tractable.prune", "tractable.fpnp_s": "tractable.fpnp",
    "tractable.oracle_s": "oracle.query", "classify.restrict_s": "classify.restrict",
    "classify.verdict_s": "classify.verdict", "classify.membership_s": "classify.membership",
    "generate.process_s": "generate.process", "transforms.pad_s": "transforms.pad",
}
# count metric -> span group whose outermost spans it counts
TRACE_CALLS = {
    "signatures.gadget_calls": "signatures.gadget", "f2.solve_calls": "f2.solve",
    "grids.validate_calls": "grids.validate", "grids.brute_calls": "grids.brute",
    "classify.restrict_calls": "classify.restrict",
}
SELF_MODULES = ("signatures", "f2", "gauss", "grids", "tractable", "classify", "generate",
                "transforms", "oracle")
CLI_COMMANDS = ("eval", "classify", "generate", "gate", "interp", "transform", "prune")


def per_layer_spec() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better); BENCHMARK.json lists the same."""
    spec = [(name, "count", "lower") for name in TRACE_COUNTS]
    spec += [("tractable.oracle_sat_ratio", "ratio", "higher"),
             ("classify.vacuous_ratio", "ratio", "lower")]
    spec += [(name, "s", "lower") for name in TRACE_SECONDS]
    spec += [(f"self_s.{m}", "s", "lower") for m in SELF_MODULES]
    spec += [("trace.untraced_ips", "1/s", "higher"), ("trace.traced_ips", "1/s", "higher"),
             ("trace.overhead_ratio", "ratio", "lower")]
    spec += [(f"sweep.{row}", "ms", "lower") for row in (
        "affine_ms.n64", "affine_ms.n128", "affine_ms.n256", "affine_ms.n512",
        "product_ms.n64", "product_ms.n128", "product_ms.n256", "product_ms.n512",
        "fpnp_ms.n32", "fpnp_ms.n64", "fpnp_ms.n128", "verdict_ms.diseq8",
        "verdict_ms.diseq10", "brute_ms.torus4", "oracle_query_ms")]
    spec += [(f"values.{op}_ns.{f}", "ns", "lower")
             for f in ("gauss", "zeta8") for op in ("add", "mul", "inverse")]
    spec += [("oracle_cli.spawns", "count", "lower"), ("oracle_cli.spawn_ms", "ms", "lower"),
             ("oracle_cli.solve_ms", "ms", "lower"),
             ("cli.interpreter_ms", "ms", "lower"), ("cli.import_ms", "ms", "lower")]
    spec += [(f"cli.{side}_ms.{c}", "ms", "lower")
             for c in CLI_COMMANDS for side in ("inproc", "subproc")]
    return spec


# -- set-up -----------------------------------------------------------------


def fresh_import():
    """Import eoexact and the benchmark's modules from scratch; returns families."""
    for name in list(sys.modules):
        if name.split(".")[0] in OWN_MODULES:
            del sys.modules[name]
    import families
    return families


def _size(key: str) -> int:
    return int(key.split(":")[1])


def warm_up(cycle) -> None:
    """Run the smallest instance of every family once."""
    smallest = {}
    for inst in cycle:
        if inst.family not in smallest or _size(inst.key) < _size(smallest[inst.family].key):
            smallest[inst.family] = inst
    for inst in smallest.values():
        try:
            inst.call(lambda backend: backend)
        except Exception:   # the deep family fails at the seed; its failure is measured later
            pass


def set_up(workload: str, seed: int, workdir: Path):
    """Import, generate inputs, write files and warm up; returns (seconds, cycle)."""
    t0 = time.perf_counter()
    fam = fresh_import()
    if workload == "cli":
        import clicases
        cycle = clicases.build_cycle(seed, workdir, ROOT)
        clicases.run_subprocess(next(c for c in cycle if c.command == "eval"), ROOT)
    else:
        cycle = fam.build_cycle(workload, seed)
        warm_up(cycle)
    return time.perf_counter() - t0, cycle


# -- running and checking ------------------------------------------------------


def make_runner(workload: str, inprocess: bool, wrap=None):
    """Function running one instance and returning its canonical answer."""
    if workload == "cli":
        import clicases

        def run_cli(case):
            code, report = (clicases.run_inprocess(case) if inprocess
                            else clicases.run_subprocess(case, ROOT))
            if code != 0:
                raise RuntimeError(f"exit code {code}")
            return report
        return run_cli
    import families
    ident = wrap or (lambda backend: backend)
    return lambda inst: families.canon(inst.call(ident))


def run_loop(cycle, runner, seconds: float, min_count: int, meter=None):
    """Closed loop over whole cycles until both `seconds` and `min_count` are reached.

    Whole cycles keep the family mix of every run the same.  `meter`, a
    ``speed.SpeedMeter``, samples the machine's speed before every instance.
    Returns ([(instance, start perf_counter, latency s, answer, error)], elapsed s).
    """
    records = []
    start = time.perf_counter()
    i = 0
    while True:
        elapsed = time.perf_counter() - start
        done = elapsed >= seconds and len(records) >= min_count and i % len(cycle) == 0
        if done or elapsed >= TIME_LIMIT_S:
            break
        if meter is not None:
            meter.sample()
        inst = cycle[i % len(cycle)]
        i += 1
        t0 = time.perf_counter()
        try:
            answer, error = runner(inst), None
        except Exception as exc:   # counted as a failed instance
            answer, error = None, f"{type(exc).__name__}: {str(exc)[:120]}"
        records.append((inst, t0, time.perf_counter() - t0, answer, error))
    elapsed = time.perf_counter() - start
    if meter is not None:
        meter.sample()
    return records, elapsed


def expected_failure(inst, error: str) -> bool:
    """The one failure known at the seed: the deep family's RecursionError (NOTES.md).

    Any other instance that raises makes the run incorrect, as a wrong answer does.
    """
    return inst.family == "deep" and error.startswith("RecursionError")


def unexpected_errors(records) -> list[str]:
    return [f"{inst.key}: {error}" for inst, _, _, _, error in records
            if error is not None and not expected_failure(inst, error)]


class Checker:
    """Exact reference for every instance, computed or looked up once per key."""

    def __init__(self, workload: str):
        self.workload = workload
        self.cache: dict[str, str | None] = {}
        self.recorded = None

    def reference(self, inst) -> str | None:
        if inst.key in self.cache:
            return self.cache[inst.key]
        if self.workload == "cli":
            import clicases
            code, report = clicases.run_inprocess(inst)
            ref = report if code == 0 else None
        else:
            import families
            if inst.reference is None:
                if self.recorded is None:
                    self.recorded = json.loads((BENCH / "references.json").read_text())
                ref = self.recorded.get(inst.key)
            else:
                ref = families.canon(inst.reference())
            if ref is not None and inst.validate is not None and not inst.validate():
                ref = None
        self.cache[inst.key] = ref
        return ref

    def judge(self, records):
        """Per record: True if correct, False if wrong, None if it raised."""
        out = []
        for inst, _, _, answer, error in records:
            if error is not None:
                out.append(None)
            else:
                out.append(answer == self.reference(inst))
        return out


def cycle_rate(latencies, verdicts, cycle_len: int) -> float:
    """Median over whole cycles of correct instances per second of instance time."""
    rates = []
    for c in range(0, len(latencies), cycle_len):
        ok = sum(1 for v in verdicts[c:c + cycle_len] if v)
        rates.append(ok / sum(latencies[c:c + cycle_len]))
    return statistics.median(rates)


def percentile(latencies: list[float], p: float) -> float:
    """Nearest-rank percentile; a failed instance is +inf."""
    ordered = sorted(latencies)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


def peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


# -- the two kinds of run ---------------------------------------------------------


def end_to_end(workload: str, seed: int, seconds: float, workdir: Path):
    meter = speed.SpeedMeter()
    setups = []
    for _ in range(SETUP_REPEATS):
        meter.sample()
        t0 = time.perf_counter()
        took, cycle = set_up(workload, seed, workdir)
        setups.append((took, t0))
    runner = make_runner(workload, inprocess=False)
    records, elapsed = run_loop(cycle, runner, seconds, MIN_INSTANCES, meter)
    rss = peak_rss_mb(workload)
    verdicts = Checker(workload).judge(records)
    ok = sum(1 for v in verdicts if v)
    wrong = sum(1 for v in verdicts if v is False)
    scaled = [meter.scaled(r[2], r[1]) for r in records]
    lat = [s * 1000.0 if v else math.inf for s, v in zip(scaled, verdicts)]
    raw = [r[2] * 1000.0 if v else math.inf for r, v in zip(records, verdicts)]
    n = len(records)
    metrics = {
        "instances_per_s": cycle_rate(scaled, verdicts, len(cycle)),
        "latency_p50_ms": percentile(lat, 50),
        "latency_p90_ms": percentile(lat, 90),
        "ok_ratio": ok / n,
        "setup_s": statistics.median(meter.scaled(took, t0) for took, t0 in setups),
        "peak_rss_mb": rss,
    }
    print(f"workload {workload}, seed {seed}: {n} instances in {elapsed:.2f} s, "
          f"cycle of {len(cycle)}, {n - ok} failed ({wrong} wrong answers)")
    print(f"  speed: {len(meter.seconds)} samples, reference/measured "
          f"{speed.REFERENCE_S / statistics.median(meter.seconds):.3f}; raw "
          f"instances_per_s {cycle_rate([r[2] for r in records], verdicts, len(cycle)):.6g}, "
          f"latency_p50_ms {percentile(raw, 50):.6g}, latency_p90_ms {percentile(raw, 90):.6g}, "
          f"setup_s {statistics.median(took for took, _ in setups):.6g}")
    failures: dict[str, list] = {}
    for (inst, _, _, _, error), v in zip(records, verdicts):
        if not v:
            failures.setdefault(inst.family, []).append(error or "answer differs from reference")
    for family, errors in sorted(failures.items()):
        print(f"  {len(errors)} failed in {family}, e.g. {errors[0]}")
    raised = unexpected_errors(records)
    for line in raised[:5]:
        print(f"  unexpected error: {line}")
    print(f"  latency samples {n}, beyond p90 {n - math.ceil(0.9 * n)}")
    print(f"  fail_ratio {1 - ok / n:.6g} ratio")
    units = dict(END_TO_END)
    for name, value in metrics.items():
        print(f"  {name} {value:.6g} {units[name]}")
    return wrong == 0 and not raised, n, n - ok, metrics, units


def traced(workload: str, seed: int, workdir: Path):
    _, cycle = set_up(workload, seed, workdir)
    import layers
    import tracing
    runner = make_runner(workload, inprocess=True)
    run_loop(cycle, runner, 0.0, len(cycle))    # the first pass warms caches for both
    plain, plain_s = run_loop(cycle, runner, 0.0, len(cycle))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced_records, traced_s = run_loop(cycle, make_runner(workload, True, tracer.oracle),
                                            0.0, len(cycle))
    finally:
        tracer.uninstall()
    tracer.write(workdir / f"spans-{workload}-{seed}.jsonl")
    same = [r[3] for r in plain] == [r[3] for r in traced_records]
    checker = Checker(workload)
    verdicts = checker.judge(traced_records)
    wrong = sum(1 for v in verdicts if v is False)
    failed = sum(1 for v in verdicts if not v)

    seconds, calls = tracer.group_totals()
    counts = tracer.counts
    metrics = {name: counts[name] for name in TRACE_COUNTS}
    metrics.update({name: calls[group] for name, group in TRACE_CALLS.items()})
    q = counts["tractable.oracle_queries"]
    metrics["tractable.oracle_sat_ratio"] = counts["tractable.oracle_sat"] / q if q else 0.0
    pc = counts["classify.pairings_checked"]
    metrics["classify.vacuous_ratio"] = counts["classify.vacuous"] / pc if pc else 0.0
    metrics.update({name: seconds[group] for name, group in TRACE_SECONDS.items()})
    own = tracer.self_seconds()
    metrics.update({f"self_s.{m}": own[m] for m in SELF_MODULES})
    ok_plain = len(plain) - sum(1 for v in checker.judge(plain) if not v)
    ok_traced = len(traced_records) - failed
    metrics["trace.untraced_ips"] = ok_plain / plain_s
    metrics["trace.traced_ips"] = ok_traced / traced_s
    metrics["trace.overhead_ratio"] = traced_s / plain_s
    rows, rows_ok = layers.all_rows(ROOT, workdir / "layers")
    metrics.update(rows)

    spec = per_layer_spec()
    units = {name: unit for name, unit, _ in spec}
    metrics = {name: metrics[name] for name, _, _ in spec}
    print(f"workload {workload}, seed {seed}, traced: {len(cycle)} instances per pass; "
          f"untraced {plain_s:.2f} s, traced {traced_s:.2f} s; answers identical: {same}")
    for name, value in metrics.items():
        print(f"  {name} {value:.6g} {units[name]}")
    correct = wrong == 0 and not unexpected_errors(traced_records) and same and rows_ok
    return correct, len(traced_records), failed, metrics, units


def use_checkout_sources() -> bool:
    """Import eoexact from the checkout's src, here and in child processes."""
    src = ROOT / "src"
    if not (src / "eoexact" / "__init__.py").is_file():
        print(f"error: no eoexact sources under {src}", file=sys.stderr)
        return False
    sys.path.insert(0, str(src))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))
    os.chdir(ROOT)
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not use_checkout_sources():
        return 2
    workdir = BENCH / "out" / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        if args.trace:
            correct, attempted, failed, metrics, units = traced(args.workload, args.seed, workdir)
        else:
            correct, attempted, failed, metrics, units = end_to_end(
                args.workload, args.seed, args.seconds, workdir)
    finally:
        for path in workdir.glob("*"):
            if path.suffix != ".jsonl":
                shutil.rmtree(path) if path.is_dir() else path.unlink()
    result = {"correct": bool(correct), "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": FAILED_MS if value == math.inf else value,
                                 "unit": units[name]} for name, value in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Fixed string hashing gives the same set and dict order, and so the
        # same work, in every run of a seed; child processes inherit it.
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]])
    raise SystemExit(main())
