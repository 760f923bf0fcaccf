#!/usr/bin/env python3
"""Write ``references.json``: the recorded answer of every recorded-family variant.

    python3 perfbench/record.py

Run this on the commit that defines the benchmark; later commits must
reproduce these answers exactly.  Torus families are also checked against
brute force on a small member of the same family before their answers are
recorded.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import families  # noqa: E402


def main() -> int:
    refs: dict[str, str] = {}
    for workload in ("closed-form", "enumerate", "classify"):
        t0 = time.perf_counter()
        for inst in families.all_recorded_instances(workload):
            if inst.key in refs:
                continue
            if inst.validate is not None and not inst.validate():
                print(f"error: {inst.key}: engine and brute force disagree on a small member",
                      file=sys.stderr)
                return 1
            refs[inst.key] = families.canon(inst.call(lambda backend: backend))
        print(f"{workload}: {time.perf_counter() - t0:.1f} s")
    text = json.dumps(refs, indent=0, sort_keys=True)
    (BENCH / "references.json").write_text(text + "\n", encoding="utf-8")
    print(f"recorded {len(refs)} answers")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
