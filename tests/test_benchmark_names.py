"""The traced benchmark (perfbench/tracing.py) wraps library functions by
module and name, and perfbench reads Signature.values and the state that
generating_process returns.  These tests load the benchmark's module from its
file, unchanged, and check that every name it looks up still resolves, so that
deleting or renaming one fails here rather than only in a traced benchmark
run."""

import importlib
import importlib.util
from pathlib import Path

from eoexact.generate import generating_process
from eoexact.grids import Grid
from eoexact.signatures import Signature, diseq, from_entries
from eoexact.tractable import eval_affine
from eoexact.values import ONE, ZERO, ExactValue

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracing = load_tracing()
    missing = [f"eoexact.{module}.{name}"
               for module, names in tracing.SPAN_GROUPS.values() for name in names
               if not callable(getattr(importlib.import_module(f"eoexact.{module}"), name, None))]
    assert missing == []
    assert [op for op in tracing.VALUE_OPS if not hasattr(ExactValue, op)] == []


def test_signature_values_is_kept():
    assert isinstance(Signature.__dict__["values"], property)
    assert diseq(2).values == (ZERO, ONE, ONE, ZERO)


def test_generating_process_state_is_readable():
    # the generate.process trace hook reads result[1].work and
    # len(result[1].closure())
    result = generating_process(diseq(4))
    assert isinstance(result, tuple) and len(result) == 2
    _, state = result
    assert type(state.work) is int and state.work > 0
    assert callable(state.closure)
    assert len(state.closure()) == 1


def test_equation_counter_reads_the_solver_arguments():
    # the f2.solve trace hook counts len(args[0]), the equation list that
    # eval_affine hands to f2.solve_linear_system: one equation per edge
    deq4 = from_entries(4, {"1100": 1, "0011": 1})
    n = 16
    ring = Grid.make([(f"v{v}", deq4) for v in range(n)],
                     [((v, 2 + p), ((v + 1) % n, p)) for v in range(n) for p in range(2)])
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        value = eval_affine(ring)
    finally:
        tracer.uninstall()
    assert value == 2
    assert tracer.counts["f2.equations"] == len(ring.edges) == 32
