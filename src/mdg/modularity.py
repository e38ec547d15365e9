"""Modular flats, the diamond isomorphism, and supersolvability."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotGeometric, NotModular
from .lattice import GeometricLattice, interval, _check_flats, build_from_graph


def is_modular(lat: GeometricLattice, f: int, *, with_witness=False):
    """Rank characterization of modularity; optional minimal witness on failure.

    The witness is the failing flat of least rank, ties broken by the
    lexicographic order of its atom-label tuple.

    Without a witness, a coatom H of a lattice of rank r >= 2 is modular
    exactly when every line (rank-2 flat) meets it (Stanley, *Modular
    elements of geometric lattices*, Algebra Universalis 1971).  If H is
    modular, a line L not below H has r(H ∧ L) = (r-1) + 2 - r = 1.  If not,
    some G not below H has X = H ∧ G of rank <= r(G) - 2 (semimodularity),
    so [X, G] has covers Y1 != Y2 of X, with atoms p <= Y1 and q <= Y2
    outside X, so outside H; an atom s of H on p ∨ q is below G, so below
    X, so q <= p ∨ s <= Y1 and Y2 = X ∨ q = Y1: the line p ∨ q misses H.
    """
    _check_flats(lat, f)
    rf = lat.ranks[f]
    if not with_witness and rf == lat.rank - 1 >= 1:
        masks = lat.flat_masks
        h = masks[f]
        return all(masks[line] & h for line in lat.by_rank[2])
    witness = None
    ok = True
    for g in range(lat.n_flats):
        if lat.ranks[lat.meet(f, g)] + lat.ranks[lat.join(f, g)] != rf + lat.ranks[g]:
            ok = False
            if not with_witness:
                break
            if witness is None:
                witness = g
            else:
                cand = (lat.ranks[g], lat.atoms_of(g))
                best = (lat.ranks[witness], lat.atoms_of(witness))
                if cand < best:
                    witness = g
    if with_witness:
        return ok, witness
    return ok


def modular_characterizations_agree(lat: GeometricLattice, f: int) -> bool:
    """Evaluate the three equivalent forms of modularity independently."""
    _check_flats(lat, f)
    rank_form = is_modular(lat, f)

    flats = range(lat.n_flats)
    meets = [lat.meet(f, b) for b in flats]     # F ∧ B, which is B ∧ F
    joins = [lat.join(a, f) for a in flats]     # A ∨ F
    # F ∧ (A ∨ B) == A ∨ (F ∧ B) for all A <= F and all B
    dist1 = all(lat.meet(f, lat.join(a, b)) == lat.join(a, meets[b])
                for a in flats if lat.leq(a, f) for b in flats)
    # B ∧ (A ∨ F) == A ∨ (B ∧ F) for all A <= B
    dist2 = all(lat.meet(b, joins[a]) == lat.join(a, meets[b])
                for a in flats for b in flats if lat.leq(a, b))
    return rank_form == dist1 == dist2


def diamond_iso(lat: GeometricLattice, f_modular: int, f_other: int):
    """The isomorphism [f∧f', f] -> [f', f∨f'], x -> x∨f', with its inverse.

    Returns (forward, backward) as dicts on flat indices; both are verified
    to be mutually inverse before returning.
    """
    if not is_modular(lat, f_modular):
        raise NotModular("flat is not modular",
                         witness=lat.atoms_of(f_modular))
    bot = lat.meet(f_modular, f_other)
    top = lat.join(f_modular, f_other)
    fwd = {}
    bwd = {}
    for x in range(lat.n_flats):
        if lat.leq(bot, x) and lat.leq(x, f_modular):
            fwd[x] = lat.join(x, f_other)
    for y in range(lat.n_flats):
        if lat.leq(f_other, y) and lat.leq(y, top):
            bwd[y] = lat.meet(y, f_modular)
    for x, y in fwd.items():
        if bwd.get(y) != x:
            raise NotModular("diamond maps are not mutually inverse",
                             witness=lat.atoms_of(x))
    for y, x in bwd.items():
        if fwd.get(x) != y:
            raise NotModular("diamond maps are not mutually inverse",
                             witness=lat.atoms_of(y))
    return fwd, bwd


def modular_flats(lat: GeometricLattice):
    return [f for f in range(lat.n_flats) if is_modular(lat, f)]


def modular_coatoms(lat: GeometricLattice):
    coatoms = lat.by_rank[lat.rank - 1] if lat.rank else ()
    return [f for f in coatoms if is_modular(lat, f)]


@dataclass(frozen=True)
class ModularChain:
    """A maximal chain of modular flats with the induced atom partition."""

    flats: tuple          # flat indices, bottom to top, rank i at position i
    j_sets: tuple         # j_sets[i] = atoms below flats[i+1] but not flats[i]

    @property
    def j_sizes(self):
        return tuple(len(j) for j in self.j_sets)


def is_supersolvable(lat: GeometricLattice):
    """Search for a maximal chain of modular flats, top-down over coatoms.

    Returns a ModularChain or None.  Sound because a modular flat of an
    interval below a modular flat is modular in the whole lattice.
    """
    if lat.is_trivial:
        raise NotGeometric("supersolvability is undefined for the one-point lattice")
    chain = _chain_search(lat)
    if chain is None:
        return None
    j_sets = []
    for i in range(len(chain) - 1):
        lo = lat.flat_masks[chain[i]]
        hi = lat.flat_masks[chain[i + 1]]
        labels = frozenset(lat.atoms[a] for a in range(lat.n_atoms)
                           if hi >> a & 1 and not lo >> a & 1)
        j_sets.append(labels)
    return ModularChain(tuple(chain), tuple(j_sets))


def _chain_search(lat: GeometricLattice):
    if lat.rank == 0:
        return [lat.bottom]
    if lat.rank == 1:
        return [lat.bottom, lat.top]
    coatoms = sorted(modular_coatoms(lat), key=lat.atoms_of)
    for c in coatoms:
        sub, to_parent, _ = interval(lat, lat.bottom, c)
        subchain = _chain_search(sub)
        if subchain is not None:
            return [to_parent[f] for f in subchain] + [lat.top]
    return None


def chordality_crosscheck(edges) -> bool:
    """Chordality via repeated simplicial-vertex elimination.

    Also asserts agreement with the modular-chain search on the graphic
    lattice of the graph.
    """
    adj = {}
    for u, v in edges:
        u, v = str(u), str(v)
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    work = {v: set(ns) for v, ns in adj.items()}
    remaining = set(work)
    chordal = True
    while remaining:
        simplicial = None
        for v in sorted(remaining):
            ns = work[v] & remaining
            if all(b in work[a] for a in ns for b in ns if a != b):
                simplicial = v
                break
        if simplicial is None:
            chordal = False
            break
        remaining.discard(simplicial)
    lat = build_from_graph(edges)
    agrees = (is_supersolvable(lat) is not None) == chordal
    assert agrees, "chordality disagrees with the modular-chain search"
    return chordal
