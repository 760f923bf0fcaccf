"""Command-line front door: evaluation, classification, reductions, transforms.

Every command prints a human-readable summary followed by one canonical JSON
report (stable schema, deterministic content; timing is shown only in the
human text so reruns reproduce the payload byte for byte).  ``--out`` writes
the produced artifact (for ``prune`` and ``transform``) or else the same JSON
to a file.  Each ``_cmd_*`` returns its report fields, its human lines and its
artifact or None; ``main`` alone prints and writes.

Exit codes: 0 success, 1 domain error or unreadable file, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from .errors import EOError, NonAffineVertex, NonProductVertex, UsageError
from .signatures import (
    BUILTIN_SIGNATURES,
    BinaryDiseq,
    Signature,
    dual,
    load_signature_file,
    parse_signature_blocks,
    permute,
    pin_pair,
    render_signature_block,
    self_loop,
    tensor,
)
from .values import FieldMode, parse_value, render_value

SCHEMA = "eoexact.report/1"


def _field_mode() -> FieldMode:
    spec = os.environ.get("EO_FIELD", "gauss")
    return FieldMode.parse(spec)


def _load_sigset(path: str, mode: FieldMode) -> list[Signature]:
    with open(path, "r", encoding="utf-8") as fh:
        sigs = parse_signature_blocks(fh.read(), mode)
    if not sigs:
        raise UsageError(f"no signatures in {path}")
    return sigs


def _oracle_backend(spec: str):
    from . import tractable
    if spec == "exhaustive":
        return tractable.ExhaustiveOracle()
    if spec.startswith("external:"):
        try:
            backend = tractable.ExternalOracle(spec.split(":", 1)[1])
        except ValueError as exc:  # unbalanced quotes
            raise UsageError(f"bad backend {spec!r} ({exc})") from None
        if backend.command:
            return backend
    raise UsageError(f"bad backend {spec!r} (use exhaustive or external:<cmd>)")


# -- eval ----------------------------------------------------------------------


def _cmd_eval(args, mode):
    from .grids import brute_force_partition, load_grid_file
    grid = load_grid_file(args.grid, mode)
    engine = args.engine
    if engine == "brute":
        z = brute_force_partition(grid)
    elif engine == "affine":
        from .tractable import eval_affine
        z = eval_affine(grid)
    elif engine == "product":
        from .tractable import eval_product
        z = eval_product(grid)
    elif engine == "fpnp":
        from .tractable import eval_fpnp
        z = eval_fpnp(grid, args.cls, _oracle_backend(args.backend))
    else:  # auto: the first engine that takes every vertex answers
        from .tractable import eval_affine, eval_product
        try:
            engine, z = "affine", eval_affine(grid)
        except NonAffineVertex:
            try:
                engine, z = "product", eval_product(grid)
            except NonProductVertex:
                engine, z = "brute", brute_force_partition(grid)
    result = render_value(z)
    return {"engine": engine, "result": result}, [f"engine: {engine}", f"Z = {result}"], None


def _cmd_classify(args, mode):
    from .classify import dichotomy_verdict, verdict_extended
    sigs = _load_sigset(args.sigset, mode)
    if args.mode == "eo":
        verdict = dichotomy_verdict(sigs)
    else:
        verdict = verdict_extended(sigs, args.mode.replace("-", "_"))
    human = [f"signatures: {len(sigs)}", f"outcome: {verdict.outcome}"]
    if verdict.tractable:
        human.append(f"classes: {', '.join(verdict.classes)}")
        human.append(f"direction: {verdict.direction}")
        human.append(f"rebalancing: {verdict.rebalancing}")
    else:
        human.append(f"hard witness: {verdict.witness.get('kind')}")
    for note in verdict.notes:
        human.append(f"note: {note}")
    return {"mode": args.mode, "verdict": verdict.to_json()}, human, None


def _cmd_generate(args, mode):
    from . import generate
    sigs = _load_sigset(args.sigfile, mode)
    caps = {"steps": generate.DEFAULT_STEP_CAP,
            "size": generate.DEFAULT_SET_CAP,
            "order": generate.DEFAULT_ORDER_CAP}
    if args.caps:
        for piece in args.caps.split(","):
            key, _, val = piece.partition("=")
            try:  # int() reads any isdecimal() text up to CPython's digit limit
                if key not in caps or not val.isdecimal():
                    raise ValueError
                caps[key] = int(val)
            except ValueError:
                raise UsageError(f"bad caps entry {piece!r}") from None
    payload = []
    human = []
    recipe_lines = []
    for sig in sigs:
        rep = generate.delta_realizability(
            sig, max_steps=caps["steps"], max_set=caps["size"],
            order_cap=caps["order"])
        payload.append({"signature": sig.name, **rep.to_json()})
        desc = rep.descriptor
        summary = desc.outcome
        if desc.outcome == "finite_group":
            summary += f"({desc.order})"
        elif desc.outcome == "non_root":
            summary += f"({render_value(desc.value)})"
        human.append(f"{sig.name}: {summary}; symmetry {rep.symmetry.kind}; "
                     f"route {rep.route}")
        for finding in rep.findings:
            human.append(f"  finding: {finding}")
        if args.recipes:
            recipe_lines.append(f"# {sig.name}")
            for param, recipe in sorted(rep.recipes.items(), key=lambda kv: str(kv[0])):
                recipe_lines.append(f"{render_value(param)}: {recipe!r}")
    if args.recipes:
        with open(args.recipes, "w", encoding="utf-8") as fh:
            fh.write("\n".join(recipe_lines) + "\n")
    return {"caps": caps, "results": payload}, human, None


def _cmd_prune(args, mode):
    from .grids import load_grid_file, render_grid_text
    from .tractable import prune_effective
    grid = load_grid_file(args.grid, mode)
    backend = _oracle_backend(args.backend)
    pruned = prune_effective(grid, backend)
    text = render_grid_text(pruned)
    removed = []
    for vidx, (vid, sig) in enumerate(grid.vertices):
        before = set(sig.support())
        after = set(pruned.signature_of(vidx).support())
        if before != after:
            removed.append({"vertex": vid,
                            "dropped": sorted(
                                f"{m:0{sig.arity}b}" for m in before - after)})
    human = [f"backend: {backend.name}", f"occurrences changed: {len(removed)}"]
    if not args.out:
        human.append(text.rstrip())
    return {"backend": backend.name, "pruned_grid": text, "removed": removed}, human, text


def _cmd_interp(args, mode):
    from .grids import load_grid_file
    from .tractable import interpolate_delta
    grid = load_grid_file(args.grid, mode)
    x = parse_value(args.x, mode)
    result = render_value(interpolate_delta(grid, x))
    return {"x": render_value(x), "result": result}, [f"Z = {result}"], None


def _cmd_transform(args, mode):
    if args.op in ("restrict-eo", "pad"):
        from .transforms import pad_to_eo, restrict_eo
        sigs = _load_sigset(args.file, mode)
        fn = restrict_eo if args.op == "restrict-eo" else pad_to_eo
        blocks = [render_signature_block(fn(s), s.name) for s in sigs]
        text = "\n".join(blocks)
        fields = {"op": args.op, "signatures": text}
        human = [text.rstrip()]
    else:
        from .grids import load_grid_file, render_grid_text
        from .transforms import grid_pad_single_weighted
        grid = load_grid_file(args.file, mode)
        padded, diag = grid_pad_single_weighted(grid)
        text = render_grid_text(padded)
        fields = {"op": args.op, "grid": text, "balanced": diag.balanced,
                  "diagnostic": diag.message}
        human = [f"balanced: {diag.balanced}"]
        if diag.message:
            human.append(diag.message)
        human.append(text.rstrip())
    return fields, human, text + "\n"


def _cmd_gate(args, mode):
    names: dict[str, Signature] = {}
    names.update(BUILTIN_SIGNATURES)
    current: Signature | None = None
    with open(args.script, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    base_dir = os.path.dirname(os.path.abspath(args.script))
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        op = parts[0]
        try:
            if op == "use":
                path = line.split(None, 1)[1]
                names.update(load_signature_file(os.path.join(base_dir, path), mode))
            elif op == "start":
                current = names[parts[1]]
            elif current is None:
                raise UsageError(f"line {lineno}: gate step {op!r} before 'start'")
            elif op == "tensor":
                current = tensor(current, names[parts[1]])
            elif op == "loop":
                i, j = int(parts[1]) - 1, int(parts[2]) - 1
                rest = parts[3:]
                orient = "ij"
                if rest and rest[-1] in ("ij", "ji"):
                    orient = rest[-1]
                    rest = rest[:-1]
                if rest:
                    if len(rest) != 2:
                        raise UsageError(f"line {lineno}: loop takes two weight values")
                    w = BinaryDiseq(parse_value(rest[0], mode), parse_value(rest[1], mode))
                else:
                    w = None
                current = self_loop(current, i, j, w, orient)
            elif op == "pin":
                current = pin_pair(current, int(parts[1]) - 1, int(parts[2]) - 1, parts[3])
            elif op == "permute":
                current = permute(current, [int(p) - 1 for p in parts[1:]])
            elif op == "dual":
                current = dual(current)
            else:
                raise UsageError(f"line {lineno}: unknown gate step {op!r}")
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise UsageError(f"line {lineno}: bad gate step {raw!r} ({exc})") from None
    if current is None:
        raise UsageError("gate script produced no signature (missing 'start'?)")
    block = render_signature_block(current, "result")
    return {"signature": block}, [block.rstrip()], None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eo",
        description="Exact evaluation and classification for balanced-orientation "
                    "counting problems")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate a closed grid")
    p.add_argument("grid")
    p.add_argument("--engine", default="brute",
                   choices=["brute", "affine", "product", "fpnp", "auto"])
    p.add_argument("--class", dest="cls", default="auto",
                   choices=["auto", "affine", "product"])
    p.add_argument("--backend", default="exhaustive")
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("classify", help="classify a signature set")
    p.add_argument("sigset")
    p.add_argument("--mode", default="eo",
                   choices=["eo", "upside", "downside", "single-weighted"])
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("generate", help="run the binary-signature generating process")
    p.add_argument("sigfile")
    p.add_argument("--caps", default=None, help="steps=8,size=4096,order=64")
    p.add_argument("--recipes", default=None, help="write gadget recipes to a file")
    p.set_defaults(fn=_cmd_generate)

    p = sub.add_parser("prune", help="drop non-effective support strings")
    p.add_argument("grid")
    p.add_argument("--backend", default="exhaustive")
    p.set_defaults(fn=_cmd_prune)

    p = sub.add_parser("interp", help="evaluate a pinned grid by interpolation")
    p.add_argument("grid")
    p.add_argument("--x", required=True,
                   help="non-root interpolation base; write a negative one as --x=-3/2")
    p.set_defaults(fn=_cmd_interp)

    p = sub.add_parser("transform", help="support-shape transforms")
    p.add_argument("file")
    p.add_argument("--op", required=True, choices=["restrict-eo", "pad", "grid-pad"])
    p.set_defaults(fn=_cmd_transform)

    p = sub.add_parser("gate", help="apply a gadget script and print the signature")
    p.add_argument("script")
    p.set_defaults(fn=_cmd_gate)

    for sp in sub.choices.values():
        sp.add_argument("--out", default=None, help="also write the report/artifact here")
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    started = time.perf_counter()
    try:
        mode = _field_mode()
        fields, human, artifact = args.fn(args, mode)
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        text = json.dumps({"schema": SCHEMA, "kind": args.command, "command": ["eo"] + argv,
                           "field": mode.spec(), **fields}, indent=2, sort_keys=True)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n" if artifact is None else artifact)
        for line in human:
            print(line)
        print(f"elapsed: {elapsed_ms:.1f} ms")
        print("== report ==")
        print(text)
        return 0
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (EOError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc.__class__.__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
