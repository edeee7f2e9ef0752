"""Monomial matrices over the exact scalar domain.

Every operator on a weight module is monomial: each generator moves a face
to at most one neighbor, H and the invariant form are diagonal, and products
and conjugate transposes of monomial matrices stay monomial.  So a square
matrix is stored as one ``(row, Radical)`` or ``None`` per column, a product
costs O(dim) and equality is exact.  Zero entries are never stored, and a
matrix never changes after construction.
"""

from __future__ import annotations

from .scalar import Radical


class MonomialMat:
    """Square matrix with at most one nonzero entry in every row and column."""

    __slots__ = ("cols",)

    def __init__(self, dim: int, entries: dict[tuple[int, int], Radical]):
        cols: list[tuple[int, Radical] | None] = [None] * dim
        rows = set()
        for (r, c), val in entries.items():
            if val.is_zero:
                continue
            if cols[c] is not None or r in rows:
                raise ValueError(f"second entry in row {r} or column {c}")
            cols[c] = (r, val)
            rows.add(r)
        self.cols = tuple(cols)

    @classmethod
    def diagonal(cls, values) -> "MonomialMat":
        vals = [v if isinstance(v, Radical) else Radical.from_rational(v) for v in values]
        return cls(len(vals), {(i, i): v for i, v in enumerate(vals)})

    @classmethod
    def _from_cols(cls, cols) -> "MonomialMat":
        out = cls.__new__(cls)
        out.cols = tuple(cols)
        return out

    @property
    def dim(self) -> int:
        return len(self.cols)

    def items(self) -> list[tuple[tuple[int, int], Radical]]:
        """((row, column), value) of every stored entry, in column order."""
        return [((col[0], c), col[1]) for c, col in enumerate(self.cols) if col is not None]

    def entry(self, r: int, c: int) -> Radical:
        col = self.cols[c]
        return col[1] if col is not None and col[0] == r else Radical.zero()

    def __matmul__(self, other: "MonomialMat") -> "MonomialMat":
        if self.dim != other.dim:
            raise ValueError(f"shape mismatch {self.dim} @ {other.dim}")
        out = []
        for col in other.cols:
            mid = None if col is None else self.cols[col[0]]
            out.append(None if mid is None else (mid[0], mid[1] * col[1]))
        return MonomialMat._from_cols(out)

    def conj_transpose(self) -> "MonomialMat":
        out: list[tuple[int, Radical] | None] = [None] * self.dim
        for c, col in enumerate(self.cols):
            if col is not None:
                out[col[0]] = (c, col[1].conjugate())
        return MonomialMat._from_cols(out)

    def is_diagonal(self) -> bool:
        return all(col is None or col[0] == c for c, col in enumerate(self.cols))

    def __eq__(self, other) -> bool:
        if not isinstance(other, MonomialMat):
            return NotImplemented
        return self.cols == other.cols
