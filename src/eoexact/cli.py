"""Command-line front door: evaluation, classification, reductions, transforms.

Every command prints a human-readable summary followed by one canonical JSON
report (stable schema, deterministic content; timing is shown only in the
human text so reruns reproduce the payload byte for byte).  ``--out`` writes
the same JSON (or the produced artifact, for ``prune``) to a file.

Exit codes: 0 success, 1 domain error or unreadable file, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import classify as _classify
from . import generate as _generate
from . import tractable, transforms
from .errors import EOError, UsageError
from .grids import Grid, brute_force_partition, load_grid_file, render_grid_text
from .signatures import (
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


def _emit(report: dict, human: list[str], out_path: str | None, started: float) -> None:
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    for line in human:
        print(line)
    print(f"elapsed: {elapsed_ms:.1f} ms")
    text = json.dumps(report, indent=2, sort_keys=True)
    print("== report ==")
    print(text)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


def _base_report(kind: str, argv: list[str], mode: FieldMode) -> dict:
    return {"schema": SCHEMA, "kind": kind, "command": ["eo"] + argv,
            "field": mode.spec()}


def _load_sigset(path: str, mode: FieldMode) -> list[Signature]:
    with open(path, "r", encoding="utf-8") as fh:
        sigs = parse_signature_blocks(fh.read(), mode)
    if not sigs:
        raise UsageError(f"no signatures in {path}")
    return sigs


def _oracle_backend(spec: str):
    if spec == "exhaustive":
        return tractable.ExhaustiveOracle()
    if spec.startswith("external:"):
        return tractable.ExternalOracle(spec.split(":", 1)[1])
    raise UsageError(f"bad backend {spec!r} (use exhaustive or external:<cmd>)")


# -- eval ----------------------------------------------------------------------


def _pick_auto_engine(grid: Grid) -> str:
    distinct = [s for s in grid.distinct_signatures() if not s.is_zero()]
    if distinct and all(
            not isinstance(_classify.membership_affine(s), _classify.Refutation)
            for s in distinct):
        return "affine"
    if distinct and all(
            not isinstance(_classify.membership_product(s), _classify.Refutation)
            for s in distinct):
        return "product"
    return "brute"


def _cmd_eval(args, argv, mode):
    grid = load_grid_file(args.grid, mode)
    engine = args.engine
    if engine == "auto":
        engine = _pick_auto_engine(grid)
    if engine == "brute":
        z = brute_force_partition(grid)
    elif engine == "affine":
        z = tractable.eval_affine(grid)
    elif engine == "product":
        z = tractable.eval_product(grid)
    elif engine == "fpnp":
        hint = args.cls
        if hint == "auto":
            distinct = [s for s in grid.distinct_signatures() if not s.is_zero()]
            hint = "product" if all(
                _classify.membership_all_pairings(s, "product").ok
                for s in distinct) else "affine"
        z = tractable.eval_fpnp(grid, hint, _oracle_backend(args.backend))
    else:
        raise UsageError(f"unknown engine {engine!r}")
    report = _base_report("eval", argv, mode)
    report["engine"] = engine
    report["result"] = render_value(z)
    _emit(report, [f"engine: {engine}", f"Z = {render_value(z)}"], args.out, args.started)
    return 0


def _cmd_classify(args, argv, mode):
    sigs = _load_sigset(args.sigset, mode)
    if args.mode == "eo":
        verdict = _classify.dichotomy_verdict(sigs)
    else:
        verdict = _classify.verdict_extended(sigs, args.mode.replace("-", "_"))
    report = _base_report("classify", argv, mode)
    report["mode"] = args.mode
    report["verdict"] = verdict.to_json()
    human = [f"signatures: {len(sigs)}", f"outcome: {verdict.outcome}"]
    if verdict.tractable:
        human.append(f"classes: {', '.join(verdict.classes)}")
        human.append(f"direction: {verdict.direction}")
        human.append(f"rebalancing: {verdict.rebalancing}")
    else:
        human.append(f"hard witness: {verdict.witness.get('kind')}")
    for note in verdict.notes:
        human.append(f"note: {note}")
    _emit(report, human, args.out, args.started)
    return 0


def _cmd_generate(args, argv, mode):
    sigs = _load_sigset(args.sigfile, mode)
    caps = {"steps": _generate.DEFAULT_STEP_CAP,
            "size": _generate.DEFAULT_SET_CAP,
            "order": _generate.DEFAULT_ORDER_CAP}
    if args.caps:
        for piece in args.caps.split(","):
            key, _, val = piece.partition("=")
            if key not in caps or not val.isdigit():
                raise UsageError(f"bad caps entry {piece!r}")
            caps[key] = int(val)
    payload = []
    human = []
    recipe_lines = []
    for sig in sigs:
        rep = _generate.delta_realizability(
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
            desc2, state = _generate.generating_process(
                sig, caps["steps"], caps["size"], caps["order"])
            recipe_lines.append(f"# {sig.name}")
            for param, recipe in sorted(state.recipes.items(), key=lambda kv: str(kv[0])):
                recipe_lines.append(f"{render_value(param)}: {recipe!r}")
    if args.recipes:
        with open(args.recipes, "w", encoding="utf-8") as fh:
            fh.write("\n".join(recipe_lines) + "\n")
    report = _base_report("generate", argv, mode)
    report["caps"] = caps
    report["results"] = payload
    _emit(report, human, args.out, args.started)
    return 0


def _cmd_prune(args, argv, mode):
    grid = load_grid_file(args.grid, mode)
    backend = _oracle_backend(args.backend)
    pruned = tractable.prune_effective(grid, backend)
    text = render_grid_text(pruned)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    removed = []
    for vidx, (vid, sig) in enumerate(grid.vertices):
        before = set(sig.support())
        after = set(pruned.signature_of(vidx).support())
        if before != after:
            removed.append({"vertex": vid,
                            "dropped": sorted(
                                f"{m:0{sig.arity}b}" for m in before - after)})
    report = _base_report("prune", argv, mode)
    report["backend"] = getattr(backend, "name", "?")
    report["pruned_grid"] = text
    report["removed"] = removed
    human = [f"backend: {report['backend']}",
             f"occurrences changed: {len(removed)}"]
    if not args.out:
        human.append(text.rstrip())
    _emit(report, human, None, args.started)
    return 0


def _cmd_interp(args, argv, mode):
    grid = load_grid_file(args.grid, mode)
    x = parse_value(args.x, mode)
    z = tractable.interpolate_delta(grid, x)
    report = _base_report("interp", argv, mode)
    report["x"] = render_value(x)
    report["result"] = render_value(z)
    _emit(report, [f"Z = {render_value(z)}"], args.out, args.started)
    return 0


def _cmd_transform(args, argv, mode):
    report = _base_report("transform", argv, mode)
    report["op"] = args.op
    if args.op in ("restrict-eo", "pad"):
        sigs = _load_sigset(args.file, mode)
        fn = transforms.restrict_eo if args.op == "restrict-eo" else transforms.pad_to_eo
        blocks = [render_signature_block(fn(s), s.name) for s in sigs]
        text = "\n".join(blocks)
        report["signatures"] = text
        human = [text.rstrip()]
    else:
        grid = load_grid_file(args.file, mode)
        padded, diag = transforms.grid_pad_single_weighted(grid)
        text = render_grid_text(padded)
        report["grid"] = text
        report["balanced"] = diag.balanced
        report["diagnostic"] = diag.message
        human = [f"balanced: {diag.balanced}"]
        if diag.message:
            human.append(diag.message)
        human.append(text.rstrip())
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write((report.get("signatures") or report.get("grid")) + "\n")
    _emit(report, human, None, args.started)
    return 0


def _cmd_gate(args, argv, mode):
    names: dict[str, Signature] = {}
    from .signatures import BUILTIN_SIGNATURES
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
                full = path if os.path.isabs(path) else os.path.join(base_dir, path)
                names.update(load_signature_file(full, mode))
            elif op == "start":
                current = names[parts[1]]
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
        except (KeyError, IndexError, TypeError) as exc:
            raise UsageError(f"line {lineno}: bad gate step {raw!r} ({exc})") from None
    if current is None:
        raise UsageError("gate script produced no signature (missing 'start'?)")
    block = render_signature_block(current, "result")
    report = _base_report("gate", argv, mode)
    report["signature"] = block
    _emit(report, [block.rstrip()], args.out, args.started)
    return 0


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
    p.add_argument("--x", required=True, help="non-root interpolation base")
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
    args.started = time.perf_counter()
    try:
        mode = _field_mode()
        return args.fn(args, argv, mode)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (EOError, OSError) as exc:
        print(f"error: {exc.__class__.__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
