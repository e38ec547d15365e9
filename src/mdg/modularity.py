"""Modular flats, the diamond isomorphism, and supersolvability."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotGeometric, NotModular
from .lattice import GeometricLattice, _check_flats, build_from_graph


def is_modular(lat: GeometricLattice, f: int, *, with_witness=False):
    """Modularity of F; with a witness, also the least-rank flat failing
    the rank form, ties broken by its atom-label tuple.

    Without one, F is modular exactly when F is the bottom or F meets every
    flat of rank r + 1 - r(F), for r the lattice rank; Stanley's line test
    (*Algebra Universalis* 1971) is the coatom case.  If F is modular, then
    r(F ∧ Y) >= r(F) + r(Y) - r(F ∨ Y) >= 1.  Conversely, if F ∧ Y = 0 then
    r(F ∨ Y) = r(F) + r(Y) (Brylawski, Trans. AMS 1975): else a flat W >= Y
    missing F of largest rank has F ∨ W the top (an atom p outside it gives
    W ∨ p, still missing F by exchange), so semimodularity on F ∨ Y and W
    gives r(W) >= r + 1 - r(F), and W holds a flat of that rank missing F.
    For any Y, atoms C extending a basis of F ∧ Y to one of Y span a flat
    missing F, with the same join with F, and of rank r(Y) - r(F ∧ Y).
    """
    _check_flats(lat, f)
    rf = lat.ranks[f]
    if not with_witness:
        masks = lat.flat_masks
        h = masks[f]
        return not h or all(masks[y] & h for y in lat.by_rank[lat.rank + 1 - rf])
    failing = [g for g in range(lat.n_flats)
               if lat.ranks[lat.meet(f, g)] + lat.ranks[lat.join(f, g)]
               != rf + lat.ranks[g]]
    witness = min(failing, key=lambda g: (lat.ranks[g], lat.atoms_of(g)),
                  default=None)
    return witness is None, witness


def modular_characterizations_agree(lat: GeometricLattice, f: int) -> bool:
    """Evaluate four equivalent forms of modularity independently."""
    _check_flats(lat, f)
    rank_form = is_modular(lat, f, with_witness=True)[0]

    flats = range(lat.n_flats)
    meets = [lat.meet(f, b) for b in flats]     # F ∧ B, which is B ∧ F
    joins = [lat.join(a, f) for a in flats]     # A ∨ F
    # F ∧ (A ∨ B) == A ∨ (F ∧ B) for all A <= F and all B
    dist1 = all(lat.meet(f, lat.join(a, b)) == lat.join(a, meets[b])
                for a in flats if lat.leq(a, f) for b in flats)
    # B ∧ (A ∨ F) == A ∨ (B ∧ F) for all A <= B
    dist2 = all(lat.meet(b, joins[a]) == lat.join(a, meets[b])
                for a in flats for b in flats if lat.leq(a, b))
    return is_modular(lat, f) == rank_form == dist1 == dist2


def diamond_iso(lat: GeometricLattice, f_modular: int, f_other: int):
    """The isomorphism [f∧f', f] -> [f', f∨f'], x -> x∨f', with its inverse.

    Returns (forward, backward) as dicts on flat indices; both are verified
    to be mutually inverse before returning.
    """
    _check_flats(lat, f_modular, f_other)
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
    """Search for a maximal chain of modular flats, top-down.

    Returns a ModularChain or None.  Below a modular flat c, a flat is
    modular in [0, c] exactly when it is modular in the whole lattice, so
    each step tries the modular flats one rank below c: the top's by their
    atom-label tuples, the lower ones by their sorted labels.
    """
    if lat.is_trivial:
        raise NotGeometric("supersolvability is undefined for the one-point lattice")
    chain = _chain_search(lat, lat.top, lat.atoms_of)
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


def _chain_search(lat, c, key):
    if lat.ranks[c] == 1:
        return [lat.bottom, c]
    masks = lat.flat_masks
    h = masks[c]
    below = [f for f in lat.by_rank[lat.ranks[c] - 1]
             if masks[f] | h == h and is_modular(lat, f)]
    for f in sorted(below, key=key):
        chain = _chain_search(lat, f, lambda g: sorted(lat.atoms_of(g)))
        if chain is not None:
            return chain + [c]
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
