"""Sparse integer matrices and their exact rank.

Rank over the rationals is computed by integer row echelon form: each row
is reduced at its lowest column against the pivot row there, by gcd
cross-multiplication, and divided by its content after each step.
``rank_mod_prime`` gives the rank over a 62-bit prime field, a lower bound
on the rational rank, for tests and cross checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd
from operator import index

from .errors import InconsistentChain

_PRIME_62 = (1 << 62) - 57  # largest prime below 2**62


@dataclass
class IntegerMatrix:
    rows: int
    cols: int
    entries: dict = field(default_factory=dict)  # row -> {col: int}

    def set(self, r, c, value):
        if not 0 <= r < self.rows or not 0 <= c < self.cols:
            raise IndexError((r, c))
        value = index(value)
        if value:
            self.entries.setdefault(r, {})[c] = value
        elif c in self.entries.get(r, ()):
            del self.entries[r][c]
            if not self.entries[r]:
                del self.entries[r]

    @property
    def nnz(self):
        return sum(map(len, self.entries.values()))

    def transpose(self):
        out = IntegerMatrix(self.cols, self.rows)
        for r, row in self.entries.items():
            for c, v in row.items():
                out.entries.setdefault(c, {})[r] = v
        return out

    def dump(self, fh):
        """Header ``rows cols nnz``, then ``r c v/1`` per entry in order."""
        fh.write(f"{self.rows} {self.cols} {self.nnz}\n")
        for r, row in sorted(self.entries.items()):
            for c, v in sorted(row.items()):
                fh.write(f"{r} {c} {v}/1\n")


def rank(matrix: IntegerMatrix) -> int:
    """Exact rank over the rationals, by integer row echelon form."""
    pivots = {}  # leading column -> pivot row
    for row in matrix.entries.values():
        while row:
            c = min(row)
            prow = pivots.get(c)
            if prow is None:
                pivots[c] = row     # may be the matrix's own row: never edited
                break
            g = gcd(row[c], prow[c])
            f, e = prow[c] // g, row[c] // g
            new = {c2: f * v for c2, v in row.items()}
            for c2, v in prow.items():
                nv = new.get(c2, 0) - e * v
                if nv:
                    new[c2] = nv
                else:
                    del new[c2]
            g = gcd(*new.values())
            row = {c2: v // g for c2, v in new.items()} if g > 1 else new
    return len(pivots)


def rank_mod_prime(matrix: IntegerMatrix, p: int = _PRIME_62) -> int:
    """Rank over the field with ``p`` elements, by sparse row echelon form."""
    pivots = {}  # leading column -> pivot row, scaled to 1 there
    for row in matrix.entries.values():
        row = {c: v % p for c, v in row.items() if v % p}
        while row:
            c = min(row)
            prow = pivots.get(c)
            if prow is None:
                inv = pow(row[c], p - 2, p)
                pivots[c] = {c2: v * inv % p for c2, v in row.items()}
                break
            f = row[c]
            for c2, v in prow.items():
                nv = (row.get(c2, 0) - f * v) % p
                if nv:
                    row[c2] = nv
                else:
                    del row[c2]
    return len(pivots)


def betti_from_ranks(dims, ranks):
    """dim H^k = dims[k] - ranks[k] - ranks[k-1]; ranks[k] is the rank of the
    map out of degree k.  ``dims`` and ``ranks`` are dicts keyed by degree."""
    out = {}
    for k, d in dims.items():
        b = d - ranks.get(k, 0) - ranks.get(k - 1, 0)
        if b < 0:
            raise InconsistentChain(f"negative Betti number at degree {k}")
        out[k] = b
    return out
