"""Correctness gate: the bundled configurations must reproduce their
documented values before anything is timed.

``EXPECTED`` maps each file under ``configs/`` to the sorted dimensions of
its finite components, the signature of each listed dimension (both the
direct and the coloring route must give it) and, where listed, the Casimir
scalar per balanced word on every incontractible finite component.
"""

from __future__ import annotations

from pathlib import Path

from vertexmod.configfile import parse
from vertexmod.representation import build_module, casimir
from vertexmod.topology import components
from vertexmod.unitarity import signature_coloring, signature_direct

EXPECTED = {
    "example2.cfg": {"dims": [1, 3], "signatures": {3: (1, 2)}},
    "example3.cfg": {"dims": [6, 14], "signatures": {6: (0, 6), 14: (7, 7)}},
    "example4.cfg": {"dims": [11], "signatures": {11: (5, 6)}},
    "example1_d4.cfg": {"dims": [4], "casimir": {"12": "xi^1 * 1", "21": "xi^1 * 1"}},
}


def check(config_dir: Path, expected: dict = EXPECTED) -> list[str]:
    """Return one message per documented value the configurations miss."""
    problems = []
    for name, want in expected.items():
        cf = parse((config_dir / name).read_text(encoding="utf-8"))
        cfg = cf.configuration()
        finite = [c for c in components(cfg) if c.finite]
        dims = sorted(c.dim for c in finite)
        if dims != want["dims"]:
            problems.append(f"{name}: finite dims {dims}, expected {want['dims']}")
            continue
        for dim, sig in want.get("signatures", {}).items():
            comp = next(c for c in finite if c.dim == dim)
            got = (signature_direct(cfg, comp), signature_coloring(cfg, comp, cf.involution))
            if got != (sig, sig):
                problems.append(f"{name}: dim-{dim} signatures {got[0]} (direct) "
                                f"{got[1]} (coloring), expected {sig}")
        bands = [c for c in finite if not c.contractible]
        if "casimir" in want and not bands:
            problems.append(f"{name}: no incontractible finite component for the Casimir")
        for word, scalar in want.get("casimir", {}).items():
            for comp in bands:
                got = str(casimir(build_module(cfg, comp), word).scalar)
                if got != scalar:
                    problems.append(f"{name}: component {comp.id} casimir on {word} is "
                                    f"{got}, expected {scalar}")
    return problems
