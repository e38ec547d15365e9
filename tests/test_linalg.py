import copy
import io
import random
from fractions import Fraction

import pytest

from mdg.diagrams import algebra_for
from mdg import linalg
from mdg.errors import InconsistentChain
from mdg.linalg import (
    IntegerMatrix,
    betti_from_ranks,
    rank,
    rank_mod_prime,
)


def test_rank_trivial_cases():
    assert rank(IntegerMatrix(3, 3)) == 0
    m = IntegerMatrix(3, 3)
    for i in range(3):
        m.set(i, i, 1)
    assert rank(m) == 3
    t = IntegerMatrix(3, 1)
    t.set(0, 0, 1)
    t.set(1, 0, -1)
    t.set(2, 0, 1)
    assert rank(t) == 1


def test_rank_rational_entries():
    # the rows (1/2, 1/3) and (3/2, 1) times 6: scaling keeps the rank
    m = IntegerMatrix(2, 2)
    m.set(0, 0, 3)
    m.set(0, 1, 2)
    m.set(1, 0, 9)
    m.set(1, 1, 6)
    assert rank(m) == 1  # second row is three times the first
    for value in (Fraction(1, 2), 0.5, 1.0):
        with pytest.raises(TypeError):
            m.set(0, 0, value)


def test_rank_transpose_and_modular_prime():
    rng = random.Random(5)
    for _ in range(30):
        r, c = rng.randint(1, 9), rng.randint(1, 9)
        m = IntegerMatrix(r, c)
        for i in range(r):
            for j in range(c):
                if rng.random() < 0.5:
                    # a/b with b <= 4, times 12 = lcm(1, 2, 3, 4)
                    m.set(i, j, rng.randint(-6, 6) * 12 // rng.randint(1, 4))
        before = copy.deepcopy(m.entries)
        assert rank(m) == rank(m.transpose())
        assert rank(m) == rank_mod_prime(m)
        assert m.entries == before      # the matrix's rows serve as pivots


def test_rank_of_boundary_cells_matches_modular_prime(pi4, plane8,
                                                     monkeypatch):
    # the cell matrices of real top blocks, which random matrices miss,
    # each as it was before the block ranked it
    ranked = []

    def rank_and_keep(m):
        ranked.append((m, copy.deepcopy(m.entries)))
        return rank(m)

    monkeypatch.setattr(linalg, "rank", rank_and_keep)
    cells = 0
    for lat in (pi4, plane8):
        cells += len(algebra_for(lat).cohomology_block(lat.top, (4, 2)).cells)
    assert len(ranked) == cells
    for m, before in ranked:
        assert m.entries == before
        assert rank(m) == rank_mod_prime(m)


def test_rank_oracle_dense_gauss():
    # independent oracle: plain fraction Gaussian elimination
    rng = random.Random(9)
    for _ in range(20):
        r, c = rng.randint(1, 7), rng.randint(1, 7)
        m = IntegerMatrix(r, c)
        rows = [[Fraction(0)] * c for _ in range(r)]
        for i in range(r):
            for j in range(c):
                if rng.random() < 0.6:
                    v = Fraction(rng.randint(-5, 5))
                    rows[i][j] = v
                    m.set(i, j, int(v))
        # oracle
        work = [row[:] for row in rows]
        rk = 0
        for col in range(c):
            piv = next((i for i in range(rk, r) if work[i][col]), None)
            if piv is None:
                continue
            work[rk], work[piv] = work[piv], work[rk]
            pv = work[rk][col]
            for i in range(r):
                if i != rk and work[i][col]:
                    f = work[i][col] / pv
                    work[i] = [a - f * b for a, b in zip(work[i], work[rk])]
            rk += 1
        assert rank(m) == rk


def test_betti_from_ranks():
    assert betti_from_ranks({0: 1}, {}) == {0: 1}
    assert betti_from_ranks({0: 1, 1: 1}, {0: 1}) == {0: 0, 1: 0}
    assert betti_from_ranks({1: 3, 2: 3}, {1: 1}) == {1: 2, 2: 2}
    with pytest.raises(InconsistentChain):
        betti_from_ranks({0: 1, 1: 1}, {0: 2})


def test_euler_characteristic_matches_betti():
    dims = {1: 3, 2: 5, 3: 2}
    ranks = {1: 2, 2: 2}
    betti = betti_from_ranks(dims, ranks)
    assert (sum((-1) ** k * d for k, d in dims.items())
            == sum((-1) ** k * b for k, b in betti.items()))


def test_dump_format():
    m = IntegerMatrix(2, 3)
    m.set(0, 1, 2)
    m.set(1, 2, -3)
    m.set(1, 0, 5)
    m.set(1, 0, 0)
    buf = io.StringIO()
    m.dump(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "2 3 2"
    assert lines[1] == "0 1 2/1"
    assert lines[2] == "1 2 -3/1"
