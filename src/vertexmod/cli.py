"""Command line interface.

Subcommands: check, components, module, signature, casimir, render, catalog.
Each reporting command prints a human-readable report by default and a
single JSON object with --json.  Exit codes: 0 all requested verifications
pass, 1 a verification failed, 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from .configfile import ConfigFile, ParseError, parse
from .configuration import random_config
from .lattice import Lattice
from .representation import balanced_words, build_module, casimir, verify_relations
from .topology import EmptyWindowError, components
from .unitarity import (
    dual_invariants,
    signature_direct,
    signature_window,
    unitarizability_report,
)

PASS, FAIL, USAGE = 0, 1, 2


class CliError(Exception):
    def __init__(self, message, code=USAGE):
        super().__init__(message)
        self.code = code


def _load(path: str) -> ConfigFile:
    try:
        with open(path, encoding="utf-8") as fh:
            return parse(fh.read())
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise CliError(f"cannot read {path}: not UTF-8 at byte {exc.start}") from exc
    except ParseError as exc:
        raise CliError(f"{path}: {exc}") from exc


def _open_out(path: str):
    """``path`` opened for writing text; failing to is a usage error."""
    try:
        return open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}") from exc


def _component(cf: ConfigFile, comp_id: int):
    cfg = cf.configuration()
    comps = components(cfg)
    for c in comps:
        if c.id == comp_id:
            return cfg, comps, c
    raise CliError(f"unknown component id {comp_id}; run 'components' to list them")


def _window(args) -> tuple[int, int] | None:
    """The --window pair A B, if given; A > B is a usage error."""
    if not args.window:
        return None
    lo, hi = args.window
    if lo > hi:
        raise CliError(f"--window {lo} {hi} is inverted: A must not exceed B")
    return lo, hi


def _emit(args, obj: dict, human: str) -> None:
    if args.json:
        print(json.dumps(obj, sort_keys=True))
    else:
        print(human)


def _vertex_list(vs):
    return [[v.x, v.y] for v in vs]


def _sig(pair) -> str:
    return "{%d, %d}" % tuple(pair)


# -- commands -------------------------------------------------------------------


def cmd_check(args) -> int:
    cf = _load(args.file)
    cfg = cf.configuration()
    cons = cfg.conservation_violations()
    mte_p = cfg.mte_violations("P")
    mte_q = cfg.mte_violations("q")
    ok = not (cons or mte_p or mte_q)
    obj = {
        "command": "check",
        "conservation_violations": _vertex_list(cons),
        "mte_p_violations": _vertex_list(mte_p),
        "mte_q_violations": _vertex_list(mte_q),
        "pass": ok,
    }
    lines = [
        f"conservation: {'ok' if not cons else f'{len(cons)} violations at {cons[:4]}'}",
        f"mte (polynomial): {'ok' if not mte_p else f'{len(mte_p)} violations at {mte_p[:4]}'}",
        f"mte (square root): {'ok' if not mte_q else f'{len(mte_q)} violations at {mte_q[:4]}'}",
        f"overall: {'PASS' if ok else 'FAIL'}",
    ]
    _emit(args, obj, "\n".join(lines))
    return PASS if ok else FAIL


def cmd_components(args) -> int:
    cf = _load(args.file)
    cfg = cf.configuration()
    comps = components(cfg)
    rows = []
    for c in comps:
        rows.append({
            "id": c.id,
            "finite": c.finite,
            "contractible": c.contractible,
            "dim": c.dim,
            "weights": c.sorted_weights(),
        })
    obj = {"command": "components", "components": rows}
    lines = [f"{'id':>3} {'finite':>6} {'contractible':>12} {'dim':>5}  weights"]
    for r in rows:
        ws = r["weights"]
        shown = str(ws) if r["finite"] else f"[{ws[0]}..{ws[-1]}] (windowed)"
        dim = r["dim"] if r["dim"] is not None else "inf"
        lines.append(f"{r['id']:>3} {str(r['finite']):>6} {str(r['contractible']):>12} {dim:>5}  {shown}")
    _emit(args, obj, "\n".join(lines))
    return PASS


def cmd_module(args) -> int:
    window = _window(args)
    cf = _load(args.file)
    cfg, _, comp = _component(cf, args.component)
    if not comp.finite and window is None:
        raise CliError("infinite component: pass --window A B")
    rep = build_module(cfg, comp, window=window)
    report = verify_relations(rep)
    obj = {
        "command": "module",
        "component": comp.id,
        "dim": rep.dim,
        "weights": rep.weights,
        "matrices": {g: rep.export_triplets(g) for g in ("X1+", "X1-", "X2+", "X2-", "H")},
        "relations": {
            "ok": report.ok,
            "checked": report.checked,
            "failures": report.failures,
            "skipped": report.skipped,
        },
    }
    lines = [f"component {comp.id}: dimension {rep.dim}, weights {rep.weights}"]
    for g in ("X1+", "X1-", "X2+", "X2-", "H"):
        lines.append(f"-- {g} (row col value)")
        trip = rep.export_triplets(g)
        lines.append(trip if trip else "  (zero)")
    lines.append(
        f"relations: {'ok' if report.ok else 'FAILED'} "
        f"({report.checked} checked, {len(report.skipped)} skipped at window boundary)"
    )
    if report.failures:
        lines.extend(f"  {f}" for f in report.failures[:10])
    _emit(args, obj, "\n".join(lines))
    return PASS if report.ok else FAIL


def cmd_signature(args) -> int:
    window = _window(args)
    cf = _load(args.file)
    cfg, _, comp = _component(cf, args.component)
    if not comp.finite:
        if window is None:
            raise CliError("infinite component: pass --window A B for partial counts")
        sig, partial = signature_window(cfg, comp, window, involution=cf.involution)
        obj = {
            "command": "signature",
            "component": comp.id,
            "signature_window": list(sig),
            "partial": partial,
        }
        _emit(args, obj, f"component {comp.id}: window sign counts {_sig(sig)} (partial)")
        return PASS
    direct = signature_direct(cfg, comp, involution=cf.involution)
    unit = unitarizability_report(cfg, comp, cf.involution)
    coloring = unit.coloring
    agree = direct == coloring
    dual = dual_invariants(comp, cf.xi)
    ok = agree and unit.agree
    obj = {
        "command": "signature",
        "component": comp.id,
        "involution": cf.involution,
        "signature_direct": list(direct),
        "signature_coloring": list(coloring),
        "methods_agree": agree,
        "unitarizable": unit.verdict,
        "unitarizability_conditions": unit.conditions,
        "pseudo_unitarizable": dual.pseudo_unitarizable,
        "dual_parameter": dual.dual_parameter,
        "pass": ok,
    }
    lines = [
        f"component {comp.id} (involution {cf.involution})",
        f"signature (direct):   {_sig(direct)}",
        f"signature (coloring): {_sig(coloring)}" + ("" if agree else "  ** DISAGREE **"),
        f"unitarizable: {unit.verdict}  conditions {unit.conditions}",
        f"pseudo-unitarizable: {dual.pseudo_unitarizable} (dual parameter {dual.dual_parameter})",
    ]
    _emit(args, obj, "\n".join(lines))
    return PASS if ok else FAIL


def cmd_casimir(args) -> int:
    window = _window(args)
    cf = _load(args.file)
    cfg, _, comp = _component(cf, args.component)
    if not comp.finite and window is None:
        raise CliError("infinite component: pass --window A B")
    lat = cfg.lat
    if args.all_words:
        try:
            words = balanced_words(lat.m, lat.n)
        except ValueError as exc:  # too many words to enumerate
            raise CliError(str(exc)) from exc
    else:
        word = args.word or "1" * lat.m + "2" * lat.n
        if word.count("1") != lat.m or word.count("2") != lat.n or set(word) - {"1", "2"}:
            raise CliError(f"--word must contain {lat.m} ones and {lat.n} twos")
        words = [word]
    rep = build_module(cfg, comp, window=window)
    rows, scalars = [], []
    for w in words:
        res = casimir(rep, w)
        rows.append({
            "word": w,
            "scalar": str(res.scalar) if res.scalar is not None else None,
            "determinate": res.determinate,
        })
        if res.scalar is not None:
            scalars.append(str(res.scalar))
    independent = len(set(scalars)) <= 1 and bool(scalars)
    obj = {
        "command": "casimir",
        "component": comp.id,
        "words": rows,
        "independent": independent,
    }
    lines = [f"component {comp.id}: casimir scalar per word"]
    for r in rows:
        val = r["scalar"] if r["scalar"] is not None else "indeterminate for this word"
        lines.append(f"  {r['word']}: {val}")
    lines.append(f"independent: {'yes' if independent else 'NO'} "
                 f"({len(scalars)}/{len(words)} words determinate)")
    _emit(args, obj, "\n".join(lines))
    return PASS if independent else FAIL


def cmd_render(args) -> int:
    from .render import render_ascii, render_svg

    cf = _load(args.file)
    cfg = cf.configuration()
    comp = None
    if args.component is not None:
        _, _, comp = _component(cf, args.component)
    print(render_ascii(cfg, comp, cf.involution))
    if args.svg:
        with _open_out(args.svg) as fh:
            fh.write(render_svg(cfg, comp, cf.involution))
        print(f"wrote {args.svg}")
    return PASS


def cmd_catalog(args) -> int:
    try:
        lat = Lattice(args.m, args.n)
    except ValueError as exc:
        raise CliError(f"m n: {exc}") from exc
    if args.k < 0:
        raise CliError(f"k must not be negative, got {args.k}")
    if args.samples < 0:
        raise CliError(f"--samples must not be negative, got {args.samples}")
    rng = random.Random(args.seed)
    written = 0
    with _open_out(args.out) as fh:
        for sample in range(args.samples):
            cfg = random_config(lat, args.k, rng)
            comps = components(cfg)
            paths = sorted(
                [f"{e.kind} {e.x} {e.y} {k}" for e, k in cfg.edges.items()]
            )
            for c in comps:
                if not c.finite:
                    continue
                direct = signature_direct(cfg, c)
                unit = unitarizability_report(cfg, c)
                if direct != unit.coloring:
                    raise CliError(
                        f"signature methods disagree on sample {sample}", code=FAIL
                    )
                record = {
                    "m": args.m,
                    "n": args.n,
                    "sample": sample,
                    "edges": paths,
                    "component": {"id": c.id, "dim": c.dim, "contractible": c.contractible},
                    "signature": list(direct),
                    "unitarizable": unit.verdict,
                }
                fh.write(json.dumps(record, sort_keys=True) + "\n")
                written += 1
    print(f"catalog: {args.samples} samples, {written} component records -> {args.out}")
    return PASS


# -- argument parsing -------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="vertexmod",
        description="Exact analysis of periodic six-vertex configurations: "
        "components, weight modules, invariant forms and signatures.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, fn, help_):
        p = sub.add_parser(name, help=help_)
        p.set_defaults(fn=fn)
        p.add_argument("--json", action="store_true", help="emit a JSON report")
        return p

    p = add("check", cmd_check, "conservation and factorization identity report")
    p.add_argument("file")

    p = add("components", cmd_components, "component table")
    p.add_argument("file")

    p = add("module", cmd_module, "build a module and verify the relations")
    p.add_argument("file")
    p.add_argument("--component", type=int, required=True)
    p.add_argument("--window", type=int, nargs=2, metavar=("A", "B"))

    p = add("signature", cmd_signature, "signatures by both methods plus criteria")
    p.add_argument("file")
    p.add_argument("--component", type=int, required=True)
    p.add_argument("--window", type=int, nargs=2, metavar=("A", "B"))

    p = add("casimir", cmd_casimir, "casimir scalar per balanced word")
    p.add_argument("file")
    p.add_argument("--component", type=int, required=True)
    p.add_argument("--window", type=int, nargs=2, metavar=("A", "B"))
    p.add_argument("--all-words", action="store_true")
    p.add_argument("--word")

    p = add("render", cmd_render, "ASCII art, optionally SVG")
    p.add_argument("file")
    p.add_argument("--component", type=int)
    p.add_argument("--svg", metavar="OUT")

    p = add("catalog", cmd_catalog, "batch random configurations to a record file")
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)
    p.add_argument("k", type=int)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    return ap


def main(argv=None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return USAGE if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except EmptyWindowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    except (ValueError, AssertionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return FAIL


if __name__ == "__main__":
    sys.exit(main())
