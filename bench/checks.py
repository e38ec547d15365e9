"""Correctness checks that do not use the program's own answers.

The Möbius function is computed from a bare list of flat bitmasks and
chordality by maximum cardinality search, so neither goes through the
lattice methods, the canonical search or the modular-chain search that
the workloads time.  ``python3 bench/checks.py`` runs the self-test
against known values.
"""

from __future__ import annotations

import itertools
import math


def mobius_from_bottom(flat_masks):
    """mu(0, F) for every flat F, keyed by its atom bitmask.

    In a geometric lattice F < G exactly when F's atom set is a proper
    subset of G's, so a flat's strict lower set is read off the masks.
    """
    mu = {}
    for y in sorted(set(flat_masks), key=int.bit_count):
        mu[y] = 1 if y == 0 else -sum(v for x, v in mu.items()
                                      if x & y == x and x != y)
    return mu


def mobius(flat_masks):
    """mu(0, 1) of the lattice whose flats are ``flat_masks``."""
    top = 0
    for m in flat_masks:
        top |= m
    return mobius_from_bottom(flat_masks)[top]


def euler_characteristic(dims):
    """Sum of (-1)^d * dims[d]; keys may be ints or decimal strings."""
    return sum((-1) ** int(d) * n for d, n in dims.items())


def is_chordal(edges):
    """Chordality by maximum cardinality search and a perfect-elimination
    test (Tarjan and Yannakakis): the reverse of the search order is a
    perfect elimination ordering exactly when the graph is chordal."""
    adj = {}
    for u, v in edges:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    weight = dict.fromkeys(adj, 0)
    visited = []
    while weight:
        v = max(sorted(weight), key=weight.__getitem__)
        del weight[v]
        visited.append(v)
        for w in adj[v]:
            if w in weight:
                weight[w] += 1
    # in elimination order (reverse visit), the neighbours that come later
    # are the ones visited earlier; they must form a clique
    position = {v: i for i, v in enumerate(visited)}
    for v in visited:
        earlier = [w for w in adj[v] if position[w] < position[v]]
        if any(b not in adj[a] for a, b in itertools.combinations(earlier, 2)):
            return False
    return True


def partition_lattice_masks(n):
    """Flats of the graphic matroid of K_n, one per set partition of n
    vertices; atom k is the k-th pair in lexicographic order."""
    pairs = list(itertools.combinations(range(n), 2))

    def partitions(items):
        if not items:
            yield []
            return
        first, rest = items[0], items[1:]
        for part in partitions(rest):
            for i in range(len(part)):
                yield part[:i] + [[first] + part[i]] + part[i + 1:]
            yield [[first]] + part

    masks = []
    for part in partitions(list(range(n))):
        block = {v: i for i, b in enumerate(part) for v in b}
        masks.append(sum(1 << k for k, (a, b) in enumerate(pairs)
                         if block[a] == block[b]))
    return masks


def boolean_lattice_masks(n):
    return list(range(1 << n))


def cycle_edges(n):
    return [(i, (i + 1) % n) for i in range(n)]


def _expect(ok, what):
    if not ok:
        raise AssertionError(f"bench self-test: {what}")


def selftest():
    """Raise AssertionError unless the checks reproduce known values."""
    for n in range(2, 6):
        want = (-1) ** (n - 1) * math.factorial(n - 1)
        _expect(mobius(partition_lattice_masks(n)) == want, f"mu(Pi_{n})")
    for n in range(1, 6):
        _expect(mobius(boolean_lattice_masks(n)) == (-1) ** n, f"mu(B_{n})")
    for n in range(4, 9):
        _expect(not is_chordal(cycle_edges(n)), f"C_{n} is chordal")
        fan = cycle_edges(n) + [(0, k) for k in range(2, n - 1)]
        _expect(is_chordal(fan), f"triangulated C_{n} is not chordal")
    _expect(is_chordal(cycle_edges(3)), "C_3 is not chordal")
    _expect(is_chordal(list(itertools.combinations(range(6), 2))),
            "K_6 is not chordal")
    _expect(not is_chordal([(a, b) for a in range(3) for b in range(3, 6)]),
            "K_3,3 is chordal")
    _expect(euler_characteristic({"2": 12, "3": 64, 4: 1}) == 12 - 64 + 1,
            "Euler characteristic")


if __name__ == "__main__":
    selftest()
    print("bench checks: self-test passed")
