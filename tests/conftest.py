import itertools

import pytest

from mdg.corpus import (
    build_corpus_lattice,
    eight_point_plane,
    seven_point_plane,
)
from mdg.lattice import build_boolean, build_partition_lattice


@pytest.fixture(scope="session")
def pi2():
    return build_partition_lattice(2)


@pytest.fixture(scope="session")
def pi3():
    return build_partition_lattice(3)


@pytest.fixture(scope="session")
def pi4():
    return build_partition_lattice(4)


@pytest.fixture(scope="session")
def pi5():
    return build_partition_lattice(5)


@pytest.fixture(scope="session")
def b2():
    return build_boolean(2)


@pytest.fixture(scope="session")
def b3():
    return build_boolean(3)


@pytest.fixture(scope="session")
def c4():
    return build_corpus_lattice("c4")


@pytest.fixture(scope="session")
def c5():
    return build_corpus_lattice("c5")


@pytest.fixture(scope="session")
def plane8():
    return eight_point_plane()


@pytest.fixture(scope="session")
def plane7():
    return seven_point_plane()


# ----------------------------------------------------------------------
# independent oracles, implemented from scratch on plain sets


def brute_closure(flats, subset):
    """Smallest member of ``flats`` containing ``subset`` (as frozensets)."""
    candidates = [f for f in flats if subset <= f]
    out = None
    for f in candidates:
        if out is None or f < out:
            out = f
    for f in candidates:
        assert out <= f, "closure is not unique"
    return out


def brute_rank(flats, subset):
    """Rank via longest chains below the closure, computed independently."""
    target = brute_closure(flats, frozenset(subset))
    ordered = sorted((f for f in flats if f <= target), key=len)
    depth = {}
    for f in ordered:
        below = [g for g in ordered if g < f]
        depth[f] = 1 + max((depth[g] for g in below), default=-1)
    return depth[target]


def assert_geometric_bruteforce(flats):
    """Check the geometric lattice axioms on a family of frozensets,
    without using the production validation code."""
    flats = set(map(frozenset, flats))
    atoms = frozenset().union(*flats) if flats else frozenset()
    assert frozenset() in flats, "bottom missing"
    assert atoms in flats, "top missing"
    for a in atoms:
        assert frozenset([a]) in flats, f"singleton {a} missing"
    for f, g in itertools.combinations(flats, 2):
        assert f & g in flats, "not intersection closed"
    # well-ranked: every maximal chain to each flat has the same length
    def max_chains(target):
        lengths = set()

        def walk(current, n):
            if current == target:
                lengths.add(n)
                return
            ups = [f for f in flats
                   if current < f <= target and not any(
                       current < g < f for g in flats)]
            for f in ups:
                walk(f, n + 1)
        walk(frozenset(), 0)
        return lengths

    ranks = {}
    for f in sorted(flats, key=len):
        lengths = max_chains(f)
        assert len(lengths) == 1, f"not well-ranked at {sorted(f)}"
        ranks[f] = lengths.pop()
    # semimodularity on all pairs
    for f, g in itertools.combinations(flats, 2):
        join = brute_closure(flats, f | g)
        meet = f & g
        assert ranks[meet] + ranks[join] <= ranks[f] + ranks[g], \
            f"semimodularity fails at {sorted(f)}, {sorted(g)}"
    return ranks


def flats_of(lat):
    return [frozenset(lat.atoms_of(f)) for f in range(lat.n_flats)]


def set_partitions(items):
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [part[i] + [first]] + part[i + 1:]
        yield [[first]] + part


def brute_automorphism_count(lat):
    """Number of atom permutations mapping the flat family onto itself.

    Every permutation is built atom by atom; a flat is checked as soon as
    all its atoms have images, so a partial map that already breaks one
    is not extended further.
    """
    atoms = list(lat.atoms)
    flats = set(flats_of(lat))
    checked_at = {a: [] for a in atoms}
    for f in flats:
        if f:
            checked_at[max(f, key=atoms.index)].append(f)
    image = {}

    def extend(k):
        if k == len(atoms):
            return 1
        total = 0
        for b in atoms:
            if b in image.values():
                continue
            image[atoms[k]] = b
            if all(frozenset(image[x] for x in f) in flats
                   for f in checked_at[atoms[k]]):
                total += extend(k + 1)
            del image[atoms[k]]
        return total
    return extend(0)


def perm_parity(a, b):
    """Sign of the permutation that reorders sequence ``a`` into ``b``,
    by counting its even cycles."""
    perm = [a.index(x) for x in b]
    seen = [False] * len(perm)
    sign = 1
    for i in range(len(perm)):
        if seen[i]:
            continue
        j, c = i, 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            c += 1
        if c % 2 == 0:
            sign = -sign
    return sign


def group_closure(gens, n):
    """All products of the generators (permutations of range(n) as
    tuples), the identity included."""
    ident = tuple(range(n))
    group = {ident}
    stack = [ident]
    while stack:
        g = stack.pop()
        for h in gens:
            gh = tuple(h[g[i]] for i in range(n))
            if gh not in group:
                group.add(gh)
                stack.append(gh)
    return group


def grading_extension_lattice(alg, flat, low_diag):
    """The lattice ``alg.grading_extend(flat, low_diag)`` builds, caught as
    it is handed to ``normalize_raw``."""
    seen = []
    normalize_raw = alg.normalize_raw
    alg.normalize_raw = lambda lat, *rest: (seen.append(lat)
                                            or normalize_raw(lat, *rest))
    try:
        alg.grading_extend(flat, low_diag)
    finally:
        del alg.normalize_raw
    return seen[-1]
