"""The three benchmark workloads: catalog, identities and analyze.

Each workload builds its inputs from the workload seed in its constructor
(the set-up the benchmark times as ``setup_s``) and then serves items by
index.  ``item(i, call, counts)`` runs one item through the public vertexmod
functions, checks its outputs exactly and returns them in a canonical,
JSON-serializable form for the output digest.  Every call into a library
layer goes through ``call(span_name, fn, *args)`` so that a traced run can
time it from here, outside the package; an untraced run passes a plain
forwarding function.  ``counts`` collects the exact counters of the item.

An exactness failure raises ``ExactnessError``; the benchmark counts the
item as failed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from pathlib import Path

from vertexmod import cli
from vertexmod.configfile import parse, serialize
from vertexmod.configuration import random_config
from vertexmod.lattice import Lattice
from vertexmod.render import render_svg
from vertexmod.representation import (
    balanced_words,
    build_module,
    casimir,
    check_order_product,
    verify_relations,
)
from vertexmod.scalar import Radical
from vertexmod.topology import components, eight_vertex_violations, overlay
from vertexmod.unitarity import (
    SignTable,
    signature_coloring,
    signature_direct,
    unitarizability_report,
    verify_invariance,
)

XI = Radical.xi_power(1)
ZERO = Radical.zero()


class ExactnessError(Exception):
    """An item's output differs from what the exact identities require."""


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise ExactnessError(message)


def _casimir_counts(counts, res) -> None:
    counts["representation.casimir_faces_determinate"] += len(res.determinate)
    counts["representation.casimir_faces"] += len(res.determinate) + len(res.indeterminate)


class Catalog:
    """``vertexmod catalog 5 2 2``: one item is one sample of the CLI loop.

    The random configurations come from one ``random.Random(seed)`` shared
    across samples, exactly as the CLI draws them, so item ``i`` is catalog
    sample ``i`` and the records are the CLI's records byte for byte.
    """

    name = "catalog"
    m, n, k = 5, 2, 2
    prefix = 500

    def __init__(self, seed: int):
        self.seed = seed
        self.lat = Lattice(self.m, self.n)
        self.rng = random.Random(seed)

    def item(self, i: int, call, counts) -> str:
        cfg = call("configuration.random_config", random_config, self.lat, self.k, self.rng)
        comps = call("topology.components", components, cfg)
        table = call("unitarity.signature_direct", SignTable, cfg)
        edges = sorted(f"{e.kind} {e.x} {e.y} {k}" for e, k in cfg.edges.items())
        lines = []
        for c in comps:
            if not c.finite:
                continue
            counts["topology.components_finite"] += 1
            direct = call("unitarity.signature_direct", signature_direct, cfg, c, table)
            coloring = call("unitarity.signature_coloring", signature_coloring, cfg, c)
            unit = call("unitarity.unitarizability", unitarizability_report, cfg, c)
            expect(direct == coloring, f"sample {i} component {c.id}: signatures "
                                       f"{direct} (direct) != {coloring} (coloring)")
            expect(unit.agree, f"sample {i} component {c.id}: criteria disagree {unit.conditions}")
            expect(sum(direct) == c.dim, f"sample {i} component {c.id}: signature {direct} "
                                         f"does not add up to dim {c.dim}")
            record = {
                "m": self.m,
                "n": self.n,
                "sample": i,
                "edges": edges,
                "component": {"id": c.id, "dim": c.dim, "contractible": c.contractible},
                "signature": list(direct),
                "unitarizable": unit.verdict,
            }
            lines.append(json.dumps(record, sort_keys=True) + "\n")
        return "".join(lines)

    def cli_output(self, samples: int, tmpdir: Path) -> str:
        """What ``vertexmod catalog`` writes for this seed and sample count."""
        out = tmpdir / "catalog.ndjson"
        argv = ["catalog", str(self.m), str(self.n), str(self.k),
                "--samples", str(samples), "--seed", str(self.seed), "--out", str(out)]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        expect(code == 0, f"vertexmod {' '.join(argv)} exited {code}")
        return out.read_text(encoding="utf-8")


class Identities:
    """The ``scripts/fuzz_identities.py`` sweep on (5,2), k = 2.

    Item ``i`` is the fuzz sample with integer seed ``seed * 10**6 + i``.
    """

    name = "identities"
    m, n, k = 5, 2, 2
    window = (-15, 15)
    prefix = 100

    def __init__(self, seed: int):
        self.seed0 = seed * 10**6
        self.lat = Lattice(self.m, self.n)
        self.words = balanced_words(self.m, self.n)

    def item(self, i: int, call, counts) -> dict:
        sample = self.seed0 + i
        cfg = call("configuration.random_config", random_config, self.lat, self.k, sample)
        cons = call("configuration.conservation", cfg.conservation_violations)
        mte_p = call("configuration.mte_P", cfg.mte_violations, "P")
        mte_q = call("configuration.mte_q", cfg.mte_violations, "q")
        expect(cons == [], f"sample {sample}: conservation fails at {cons[:3]}")
        expect(mte_p == [], f"sample {sample}: polynomial identity fails at {mte_p[:3]}")
        expect(mte_q == [], f"sample {sample}: square-root identity fails at {mte_q[:3]}")
        negatives = []
        for word in self.words[:5]:
            rep = call("representation.order_product", check_order_product, cfg, word, self.window)
            expect(rep.identity_ok, f"sample {sample} word {word}: "
                                    f"{(rep.identity_failures + rep.crossing_failures)[:2]}")
            counts["representation.order_product_points"] += rep.checked
            counts["representation.order_product_negative"] += len(rep.sign_failures)
            negatives.append(len(rep.sign_failures))
        comps = call("topology.components", components, cfg)
        table = call("unitarity.signature_direct", SignTable, cfg)
        rows = []
        for comp in comps:
            if not comp.finite:
                continue
            counts["topology.components_finite"] += 1
            rep = call("representation.build_module", build_module, cfg, comp)
            counts["representation.build_module_dim_sum"] += rep.dim
            rel = call("representation.verify_relations", verify_relations, rep)
            expect(rel.ok, f"sample {sample} component {comp.id}: {rel.failures[:2]}")
            counts["representation.verify_relations_checked"] += rel.checked
            inv = call("unitarity.verify_invariance", verify_invariance, rep)
            expect(inv.ok, f"sample {sample} component {comp.id}: {inv.failures[:2]}")
            counts["unitarity.verify_invariance_checked"] += inv.checked
            ov = call("topology.overlay", overlay, cfg, comp)
            bad = call("topology.eight_vertex", eight_vertex_violations, cfg, comp, ov)
            expect(bad == [], f"sample {sample} component {comp.id}: eight-vertex fails at {bad[:3]}")
            direct = call("unitarity.signature_direct", signature_direct, cfg, comp, table)
            coloring = call("unitarity.signature_coloring", signature_coloring, cfg, comp)
            expect(direct == coloring, f"sample {sample} component {comp.id}: signatures "
                                       f"{direct} (direct) != {coloring} (coloring)")
            scalar = None
            if not comp.contractible:
                res = call("representation.casimir", casimir, rep, self.words[0])
                _casimir_counts(counts, res)
                if res.scalar is not None:
                    expect(res.scalar == XI, f"sample {sample} component {comp.id}: "
                                             f"casimir {res.scalar}, expected {XI}")
                    scalar = str(res.scalar)
            rows.append([comp.id, comp.dim, comp.contractible, list(direct),
                         rel.checked, inv.checked, scalar])
        return {"sample": sample, "negatives": negatives, "components": rows}


def _bit_reversed(count: int) -> list[int]:
    """0..count-1 (a power of two) in bit-reversed order: every prefix spreads evenly."""
    bits = count.bit_length() - 1
    return sorted(range(count), key=lambda j: int(format(j, f"0{bits}b")[::-1], 2))


class Analyze:
    """Per-file analysis as in ``scripts/reproduce_examples.py`` on (5,3), k = 2.

    An item's cost grows with the total dimension of its finite components
    (Casimir word products dominate), and random files range from 1 to about
    90 faces.  So that every seed gives the same mix of sizes, set-up draws
    ``candidates`` random configurations from the seed and keeps, for each
    of ``files`` target sizes spread evenly over 1..60 faces, the unused
    candidate closest to it.  Items visit the files in bit-reversed order,
    so any run prefix holds small and large files alike, and wrap around
    when a run outlasts the pool.
    """

    name = "analyze"
    m, n, k = 5, 3, 2
    files = 128
    candidates = 512
    max_size = 60
    prefix = 100

    def __init__(self, seed: int):
        lat = Lattice(self.m, self.n)
        self.words = balanced_words(self.m, self.n)
        rng = random.Random(seed)
        by_size: dict[int, list] = {}
        for _ in range(self.candidates):
            cfg = random_config(lat, self.k, rng)
            size = sum(c.dim for c in components(cfg) if c.finite)
            by_size.setdefault(size, []).append(cfg)
        for pool in by_size.values():
            pool.reverse()  # pop() then takes candidates in drawing order
        chosen = []
        for j in range(self.files):
            target = 1 + self.max_size * j // self.files
            size = min((s for s, pool in by_size.items() if pool),
                       key=lambda s: (abs(s - target), s))
            chosen.append(by_size[size].pop())
        self.pool = [(serialize(chosen[j]), chosen[j]) for j in _bit_reversed(self.files)]

    def item(self, i: int, call, counts) -> dict:
        text, original = self.pool[i % len(self.pool)]
        cfg = call("configfile.parse", lambda: parse(text).configuration())
        expect(cfg == original, f"file {i}: parse(serialize(cfg)) changed the edge multiset")
        comps = call("topology.components", components, cfg)
        rows = []
        for comp in comps:
            if not comp.finite:
                continue
            counts["topology.components_finite"] += 1
            rep = call("representation.build_module", build_module, cfg, comp)
            counts["representation.build_module_dim_sum"] += rep.dim
            rel = call("representation.verify_relations", verify_relations, rep)
            expect(rel.ok and not rel.skipped, f"file {i} component {comp.id}: {rel.failures[:2]}")
            counts["representation.verify_relations_checked"] += rel.checked
            inv = call("unitarity.verify_invariance", verify_invariance, rep)
            expect(inv.ok, f"file {i} component {comp.id}: {inv.failures[:2]}")
            counts["unitarity.verify_invariance_checked"] += inv.checked
            direct = call("unitarity.signature_direct", signature_direct, cfg, comp)
            coloring = call("unitarity.signature_coloring", signature_coloring, cfg, comp)
            expect(direct == coloring, f"file {i} component {comp.id}: signatures "
                                       f"{direct} (direct) != {coloring} (coloring)")
            unit = call("unitarity.unitarizability", unitarizability_report, cfg, comp)
            expect(unit.agree, f"file {i} component {comp.id}: criteria disagree {unit.conditions}")
            expected = ZERO if comp.contractible else XI
            scalars = []
            for word in self.words:
                res = call("representation.casimir", casimir, rep, word)
                _casimir_counts(counts, res)
                expect(res.scalar in (None, expected), f"file {i} component {comp.id} word "
                                                       f"{word}: casimir {res.scalar}, expected {expected}")
                scalars.append(None if res.scalar is None else str(res.scalar))
            svg = call("render.render_svg", render_svg, cfg, comp)
            expect(svg.startswith("<?xml") and svg.endswith("</svg>\n"),
                   f"file {i} component {comp.id}: malformed SVG")
            rows.append([comp.id, comp.dim, comp.contractible, list(direct), unit.verdict,
                         sorted(unit.conditions.items()), scalars, rel.checked, inv.checked,
                         hashlib.sha256(svg.encode()).hexdigest()])
        return {"file": i % len(self.pool), "components": rows}


WORKLOADS = {w.name: w for w in (Catalog, Identities, Analyze)}
