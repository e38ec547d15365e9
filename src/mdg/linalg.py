"""Sparse integer matrices and their exact rank.

Rank over the rationals is computed by fraction-free integer elimination
with Markowitz-style pivoting.  ``rank_mod_prime`` gives the rank over a
62-bit prime field, a lower bound on the rational rank, for tests and
cross checks.
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
    """Exact rank over the rationals."""
    return _rank_fraction_free(matrix.entries.values())


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


def _rank_fraction_free(rows):
    """Markowitz-pivoted integer elimination with per-row gcd reduction."""
    rows = [r for r in rows if r]      # only read: each step builds new rows
    rank_count = 0
    while rows:
        col_count = {}
        for row in rows:
            for c in row:
                col_count[c] = col_count.get(c, 0) + 1
        best = None
        for i, row in enumerate(rows):
            rlen = len(row)
            for c, v in row.items():
                score = (rlen - 1) * (col_count[c] - 1)
                mag = abs(v)
                key = (score, 0 if mag == 1 else 1, mag, i, c)
                if best is None or key < best[0]:
                    best = (key, i, c)
        _, pi, pc = best
        pivot_row = rows.pop(pi)
        pv = pivot_row[pc]
        rank_count += 1
        new_rows = []
        for row in rows:
            ev = row.get(pc)
            if ev is None:
                new_rows.append(row)
                continue
            merged = {}
            for c, v in row.items():
                if c == pc:
                    continue
                merged[c] = v * pv
            for c, v in pivot_row.items():
                if c == pc:
                    continue
                nv = merged.get(c, 0) - ev * v
                if nv:
                    merged[c] = nv
                elif c in merged:
                    del merged[c]
            merged = {c: v for c, v in merged.items() if v}
            if merged:
                g = 0
                for v in merged.values():
                    g = gcd(g, abs(v))
                if g > 1:
                    merged = {c: v // g for c, v in merged.items()}
                new_rows.append(merged)
        rows = new_rows
    return rank_count


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


def euler_characteristic(dims):
    return sum((-1) ** k * d for k, d in dims.items())
