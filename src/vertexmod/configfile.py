"""Line-oriented configuration file format.

Grammar ('#' starts a comment, blank lines are ignored):

    period <m> <n>
    path <x0> <y0> <steps over {1,2}>
    edge <V|H> <x> <y> <mult>
    involution <star|dagger>        (optional, default star)
    xi <re> <im>                    (optional concrete evaluation point)

The period line must precede every path and edge line.  Paths must contain
exactly m ones and n twos.  The parts of xi are exact decimal or fraction
literals (0.6, 3/5, 6e-1), with an exponent below 1000 in magnitude.
Errors carry 1-based line and column positions.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction

from .configuration import Configuration, VertexPath, from_edges, from_paths
from .lattice import Edge, Lattice


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int = 1):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col
        self.message = message


@dataclass
class ConfigFile:
    m: int
    n: int
    paths: list[VertexPath] = field(default_factory=list)
    edges: list[tuple[Edge, int]] = field(default_factory=list)
    involution: str = "star"
    xi: tuple[Fraction, Fraction] | None = None  # (re, im), exact

    def lattice(self) -> Lattice:
        return Lattice(self.m, self.n)

    def configuration(self) -> Configuration:
        lat = self.lattice()
        cfg = from_paths(lat, self.paths)
        if self.edges:
            extra = from_edges(lat, self.edges)
            merged = dict(cfg.edges)
            for e, k in extra.edges.items():
                merged[e] = merged.get(e, 0) + k
            cfg = Configuration(lat, merged)
        return cfg


def parse(text: str) -> ConfigFile:
    period: tuple[int, int] | None = None
    paths: list[VertexPath] = []
    edges: list[tuple[Edge, int]] = []
    involution = "star"
    xi = None
    seen_involution = seen_xi = False

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        word = toks[0]

        def err(msg, index=0):
            # the index-th whitespace token of the raw line, or column 1 if it has none
            starts = [t.start() + 1 for t in re.finditer(r"\S+", raw)]
            raise ParseError(msg, lineno, starts[index] if index < len(starts) else 1)

        def ints(args, what):
            out = []
            for j, tok in enumerate(args, start=1):
                try:
                    out.append(int(tok))
                except ValueError:
                    err(f"{what}: expected an integer, got {tok!r}", j)
            return out

        if word == "period":
            if period is not None:
                err("duplicate period line")
            if len(toks) != 3:
                err("period takes exactly two integers")
            m, n = ints(toks[1:], "period")
            try:
                Lattice(m, n)
            except ValueError as exc:
                err(str(exc))
            period = (m, n)
        elif word == "path":
            if period is None:
                err("period must precede path lines")
            if len(toks) != 4:
                err("path takes <x0> <y0> <steps>")
            x0, y0 = ints(toks[1:3], "path start")
            steps = toks[3]
            p = VertexPath((x0, y0), steps)
            try:
                p.validate(Lattice(*period))
            except ValueError as exc:
                err(str(exc), 3)
            paths.append(p)
        elif word == "edge":
            if period is None:
                err("period must precede edge lines")
            if len(toks) != 5:
                err("edge takes <V|H> <x> <y> <mult>")
            kind = toks[1]
            if kind not in ("V", "H"):
                err(f"edge kind must be V or H, got {kind!r}", 1)
            x, y, mult = ints(toks[2:], "edge")
            if mult < 1:
                err("edge multiplicity must be positive", 4)
            edges.append((Edge(kind, x, y), mult))
        elif word == "involution":
            if seen_involution:
                err("duplicate involution line")
            if len(toks) != 2 or toks[1] not in ("star", "dagger"):
                err("involution must be star or dagger", 1)
            involution = toks[1]
            seen_involution = True
        elif word == "xi":
            if seen_xi:
                err("duplicate xi line")
            if len(toks) != 3:
                err("xi takes <re> <im>")
            for j, tok in enumerate(toks[1:], start=1):
                # Fraction accepts digit-group underscores in the exponent and
                # expands 10**exp, so the exponent's value is bounded here
                # (by its digit count: int() refuses over 4,300 digits).
                e = re.search(r"[eE][-+]?([\d_]+)$", tok)
                if e and len(e[1].replace("_", "").lstrip("0")) > 3:
                    err(f"xi component exponent out of range in {tok!r}", j)
            try:
                xi = (Fraction(toks[1]), Fraction(toks[2]))
            except (ValueError, ZeroDivisionError):
                err("xi components must be numbers", 1)
            seen_xi = True
        else:
            err(f"unknown directive {word!r}")

    if period is None:
        raise ParseError("missing period line", 1)
    return ConfigFile(m=period[0], n=period[1], paths=paths, edges=edges,
                      involution=involution, xi=xi)


def serialize(cfg: Configuration) -> str:
    """Config text regenerating exactly this edge multiset."""
    lines = [f"period {cfg.lat.m} {cfg.lat.n}"]
    for e in sorted(cfg.edges):
        lines.append(f"edge {e.kind} {e.x} {e.y} {cfg.edges[e]}")
    return "\n".join(lines) + "\n"
