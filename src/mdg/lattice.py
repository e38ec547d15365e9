"""Finite geometric lattices stored as explicit families of flats.

A lattice is kept as a list of atom labels plus the list of its flats,
each flat being a bitmask over atom positions.  Flats are identified by
their index in that list.  Joins are computed by closure (smallest flat
containing a union), meets by intersection of atom sets; both are exact
for geometric lattices.

All lattice values are immutable after construction and safe to share.
The bit helpers at the top (atom positions to masks and back, the sign
of sorting a word, the sign of merging two sorted words) serve every
module.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import (
    DuplicateAtom,
    DuplicateEdge,
    ForeignFlat,
    NotALattice,
    NotComparable,
    NotGeometric,
    SelfLoop,
)


def _atoms_mask(positions):
    """The bitmask with the given atom positions set."""
    mask = 0
    for p in positions:
        mask |= 1 << p
    return mask


def _mask_atoms(mask: int):
    """Yield the set bit positions of ``mask``."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _word_sign(positions) -> tuple:
    """(sorted tuple, sign) for a word of atom positions; sign 0 on repeats."""
    n = len(positions)
    sign = 1
    arr = list(positions)
    for i in range(n):
        for j in range(n - 1 - i):
            if arr[j] > arr[j + 1]:
                arr[j], arr[j + 1] = arr[j + 1], arr[j]
                sign = -sign
            elif arr[j] == arr[j + 1]:
                return tuple(arr), 0
    return tuple(arr), sign


def _merge_sign(first: int, second: int) -> int:
    """Sign of sorting the concatenation of two increasing words."""
    inversions = 0
    seconds_seen = 0
    m = first | second
    while m:
        low = m & -m
        if second & low:
            seconds_seen += 1
        else:
            inversions += seconds_seen
        m ^= low
    return -1 if inversions % 2 else 1


def _move_masks(masks, pos):
    """Each mask with atom position i moved to ``pos[i]``, as a list."""
    out = []
    for m in masks:
        nm = 0
        while m:
            low = m & -m
            nm |= 1 << pos[low.bit_length() - 1]
            m ^= low
        out.append(nm)
    return out


class GeometricLattice:
    """A finite geometric lattice over an ordered list of atom labels."""

    __slots__ = (
        "atoms",
        "atom_index",
        "atom_supports",
        "flat_masks",
        "flat_index",
        "ranks",
        "by_rank",
        "rank",
        "bottom",
        "top",
        "_covers_up",
        "_factor_supports",
        "_intervals",
        "_extensions",
        "_os",
        "name",
        "__weakref__",
    )

    def __init__(self, atoms, flat_masks, *, ranks=None, atom_supports=None,
                 validate=True, name=None):
        atoms = tuple(atoms)
        if len(set(atoms)) != len(atoms):
            raise DuplicateAtom(f"duplicate atom label in {atoms!r}")
        self.atoms = atoms
        self.atom_index = {a: i for i, a in enumerate(atoms)}
        if atom_supports is None:
            atom_supports = tuple(frozenset([a]) for a in atoms)
        else:
            atom_supports = tuple(frozenset(s) for s in atom_supports)
        self.atom_supports = atom_supports
        self.name = name

        # by size, then value: a stable sort by size after one by value
        masks = sorted(set(map(int, flat_masks)))
        masks.sort(key=int.bit_count)
        self.flat_masks = tuple(masks)
        self.flat_index = {m: i for i, m in enumerate(masks)}
        self._covers_up = None
        self._factor_supports = None
        self._intervals = None  # (lo, hi) -> interval_at(self, lo, hi)
        self._extensions = None  # catalog and entry tables (extensions)
        self._os = None         # Orlik-Solomon context (os_algebra)

        n = len(atoms)
        full = (1 << n) - 1
        if 0 not in self.flat_index:
            raise NotGeometric("the empty flat (bottom) is missing")
        if full not in self.flat_index:
            maximal = [m for m in masks
                       if not any(m != m2 and m | m2 == m2 for m2 in masks)]
            raise NotALattice("no unique top flat",
                              witness=tuple(self._labels(m) for m in maximal[:2]))
        self.bottom = self.flat_index[0]
        self.top = self.flat_index[full]

        if ranks is not None:
            self.ranks = tuple(ranks[m] for m in masks)
        else:
            self.ranks = self._compute_ranks(validate=validate)
        self.rank = self.ranks[self.top]
        by_rank = [[] for _ in range(self.rank + 1)]
        for i, r in enumerate(self.ranks):
            by_rank[r].append(i)
        self.by_rank = tuple(tuple(level) for level in by_rank)

        if validate:
            self._validate()

    # ------------------------------------------------------------------
    # construction helpers

    def _labels(self, mask: int):
        return tuple(self.atoms[i] for i in _mask_atoms(mask))

    def _compute_ranks(self, validate: bool):
        masks = self.flat_masks
        n_f = len(masks)
        lower = [[] for _ in range(n_f)]
        for i, m in enumerate(masks):
            for j in range(n_f):
                mj = masks[j]
                if mj != m and mj | m == m:
                    lower[i].append(j)
        ranks = [0] * n_f
        order = sorted(range(n_f), key=lambda i: masks[i].bit_count())
        for i in order:
            if not lower[i]:
                ranks[i] = 0
                continue
            covers = [j for j in lower[i]
                      if not any(k != j and masks[j] | masks[k] == masks[k]
                                 for k in lower[i])]
            values = {ranks[j] for j in covers}
            if validate and len(values) != 1:
                raise NotGeometric("not well-ranked", witness=self._labels(masks[i]))
            ranks[i] = max(values) + 1
        return tuple(ranks)

    def _validate(self):
        masks = self.flat_masks
        index = self.flat_index
        n = len(self.atoms)
        for i in range(n):
            if (1 << i) not in index:
                raise NotGeometric("atom is not a closed flat", witness=self.atoms[i])
            if self.ranks[index[1 << i]] != 1:
                raise NotGeometric("singleton flat has rank != 1", witness=self.atoms[i])
        # the bottom and the atoms are flats, so a pair whose intersection
        # is not a flat has at least two maximal flats below both
        for a, b in itertools.combinations(masks, 2):
            if a & b not in index:
                raise NotALattice("pair lacks an infimum",
                                  witness=(self._labels(a), self._labels(b)))
        # cover form of semimodularity, equivalent for finite-length lattices
        covers_up = self.covers_up()
        for z in range(len(masks)):
            ups = covers_up[z]
            for x, y in itertools.combinations(ups, 2):
                j = self.join(x, y)
                if self.ranks[j] != self.ranks[z] + 2:
                    raise NotGeometric(
                        "semimodularity fails on a cover pair",
                        witness=(self._labels(masks[x]), self._labels(masks[y])))

    # ------------------------------------------------------------------
    # basic queries

    @property
    def n_atoms(self) -> int:
        return len(self.atoms)

    @property
    def n_flats(self) -> int:
        return len(self.flat_masks)

    @property
    def is_trivial(self) -> bool:
        return len(self.flat_masks) == 1

    def _mask_of(self, labels) -> int:
        """The atom mask of the given labels, each read once."""
        mask = 0
        for lab in labels:
            if lab not in self.atom_index:
                raise ForeignFlat(f"unknown atom {lab!r}")
            mask |= 1 << self.atom_index[lab]
        return mask

    def flat_of_atoms(self, labels) -> int:
        """Flat index of an exact atom set given by labels."""
        labels = list(labels)
        mask = self._mask_of(labels)
        if mask not in self.flat_index:
            raise ForeignFlat(f"{sorted(labels)!r} is not a flat")
        return self.flat_index[mask]

    def atoms_of(self, f: int):
        return self._labels(self.flat_masks[f])

    def support_of(self, f: int) -> frozenset:
        """Underlying root-atom support of a flat (used by interval lattices)."""
        out = set()
        for i in _mask_atoms(self.flat_masks[f]):
            out |= self.atom_supports[i]
        return frozenset(out)

    def closure(self, mask: int) -> int:
        idx = self.flat_index.get(mask)
        if idx is not None:
            return idx
        # a mask that is not a flat has two atoms or more
        for level in self.by_rank[2:]:
            for i in level:
                if self.flat_masks[i] & mask == mask:
                    return i
        raise ForeignFlat("atom mask outside the lattice")

    def join(self, a: int, b: int) -> int:
        return self.closure(self.flat_masks[a] | self.flat_masks[b])

    def meet(self, a: int, b: int) -> int:
        return self.flat_index[self.flat_masks[a] & self.flat_masks[b]]

    def leq(self, a: int, b: int) -> bool:
        return self.flat_masks[a] | self.flat_masks[b] == self.flat_masks[b]

    def covers_up(self):
        if self._covers_up is None:
            up = [[] for _ in self.flat_masks]
            for i, mi in enumerate(self.flat_masks):
                ri = self.ranks[i]
                if ri == 0:
                    continue
                for j in self.by_rank[ri - 1]:
                    if self.flat_masks[j] & mi == self.flat_masks[j]:
                        up[j].append(i)
            self._covers_up = tuple(tuple(x) for x in up)
        return self._covers_up

    # ------------------------------------------------------------------
    # structure

    def factor_supports(self):
        """Atom masks of the irreducible factors (singleton list if irreducible)."""
        if self._factor_supports is not None:
            return self._factor_supports
        full = (1 << self.n_atoms) - 1
        separators = []
        for i, m in enumerate(self.flat_masks):
            if m == 0 or m == full:
                continue
            comp = full & ~m
            j = self.flat_index.get(comp)
            if j is None:
                continue
            if self.ranks[i] + self.ranks[j] == self.rank:
                separators.append(m)
        comps = []
        for a in range(self.n_atoms):
            c = full
            bit = 1 << a
            for s in separators:
                if s & bit:
                    c &= s
            comps.append(c)
        supports = sorted(set(comps))
        if not supports:
            supports = [full] if self.n_atoms else [0]
        self._factor_supports = tuple(supports)
        return self._factor_supports

    def circuits_masks(self):
        """All circuits as atom masks (minimal dependent sets)."""
        found = []
        for f, m in enumerate(self.flat_masks):
            r = self.ranks[f]
            members = list(_mask_atoms(m))
            if len(members) < r + 1 or r + 1 < 2:
                continue
            for sub in itertools.combinations(members, r + 1):
                mask = _atoms_mask(sub)
                if self.closure(mask) != f:
                    continue
                if all(self.ranks[self.closure(mask & ~(1 << x))] == r
                       for x in sub):
                    found.append(mask)
        return tuple(sorted(found, key=lambda m: (m.bit_count(), m)))

    def rank_of_mask(self, mask: int) -> int:
        return self.ranks[self.closure(mask)]

    def __repr__(self):
        nm = self.name or "lattice"
        return (f"GeometricLattice({nm}: {self.n_atoms} atoms, "
                f"rank {self.rank}, {self.n_flats} flats)")


@dataclass(frozen=True)
class Embedding:
    """An injective, join-compatible, atom-preserving map between lattices.

    Determined by the atom map; images of flats are closures of atom images.
    """

    source: GeometricLattice
    target: GeometricLattice
    atom_map: tuple  # source atom position -> target atom position

    def __post_init__(self):
        if len(set(self.atom_map)) != len(self.atom_map):
            raise DuplicateAtom("embedding atom map is not injective")
        if len(self.atom_map) != self.source.n_atoms:
            raise ForeignFlat("embedding atom map has the wrong length")

    def image_mask(self, fidx: int) -> int:
        return _atoms_mask(self.atom_map[i]
                           for i in _mask_atoms(self.source.flat_masks[fidx]))

    def flat_image(self, fidx: int) -> int:
        return self.target.closure(self.image_mask(fidx))

    def atom_image_mask(self) -> int:
        return _atoms_mask(self.atom_map)

    def validate(self):
        src, tgt = self.source, self.target
        for a, b in itertools.combinations(range(src.n_flats), 2):
            j = src.join(a, b)
            if tgt.join(self.flat_image(a), self.flat_image(b)) != self.flat_image(j):
                raise NotGeometric("embedding is not join-compatible",
                                   witness=(src.atoms_of(a), src.atoms_of(b)))
        return self


def same_lattice(l1: GeometricLattice, l2: GeometricLattice) -> bool:
    """The same atom labels in the same order and the same flats."""
    return l1 is l2 or (l1.atoms == l2.atoms
                        and l1.flat_masks == l2.flat_masks)


def identity_embedding(lat: GeometricLattice) -> Embedding:
    return Embedding(lat, lat, tuple(range(lat.n_atoms)))


# ----------------------------------------------------------------------
# builders


def build_from_flats(atoms, flats, *, validate=True, name=None) -> GeometricLattice:
    """Build a lattice from an explicit list of flats given as atom-label sets."""
    atoms = tuple(atoms)
    index = {a: i for i, a in enumerate(atoms)}
    masks = []
    for flat in flats:
        m = 0
        for lab in flat:
            if lab not in index:
                raise ForeignFlat(f"flat mentions unknown atom {lab!r}")
            m |= 1 << index[lab]
        masks.append(m)
    return GeometricLattice(atoms, masks, validate=validate, name=name)


def build_from_graph(edges, *, name=None) -> GeometricLattice:
    """Geometric lattice of a simple graph; atoms are edges labeled "u-v".

    An edge with "-" in an endpoint is labeled by the endpoints' Python
    literals instead, as in 'a-b'-'c': each literal ends at its closing
    quote, and such a label has two or more "-", so no two edges share one.

    A flat is an edge set closed under the rule: if it contains a path
    between the endpoints of an edge, it contains that edge.  Flats
    correspond to partitions of the vertex set into connected blocks, and
    each is reached from the partition into singletons by merging the two
    blocks at the ends of an edge.  A partition is walked as the labelling
    of each vertex by the least vertex of its block, which is canonical,
    kept as a string of one character per vertex, ``chr`` of its label, so
    merging two blocks is one ``str.replace``.
    """
    canon = []
    seen = set()
    for u, v in edges:
        u, v = str(u), str(v)
        if u == v:
            raise SelfLoop(f"self loop at {u!r}")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise DuplicateEdge(f"duplicate edge {key!r}")
        seen.add(key)
        canon.append(key)
    index = {}
    for key in canon:
        for x in key:
            index.setdefault(x, len(index))
    labeled = sorted((f"{u}-{v}" if "-" not in u + v else f"{u!r}-{v!r}",
                      index[u], index[v]) for u, v in canon)
    atoms = tuple(label for label, _, _ in labeled)
    ends = [(i, j) for _, i, j in labeled]

    nv = len(index)
    start = "".join(map(chr, range(nv)))
    walked = {start}
    stack = [start]
    ranks = {}
    while stack:
        blocks = stack.pop()
        mask = 0
        for k, (i, j) in enumerate(ends):
            a, b = blocks[i], blocks[j]
            if a == b:
                mask |= 1 << k
                continue
            merged = blocks.replace(b, a) if a < b else blocks.replace(a, b)
            if merged not in walked:
                walked.add(merged)
                stack.append(merged)
        ranks[mask] = nv - len(set(blocks))
    return GeometricLattice(atoms, ranks.keys(), ranks=ranks, validate=False,
                            name=name)


def build_partition_lattice(n: int, *, name=None) -> GeometricLattice:
    """Partition lattice of {1..n} as the graphic lattice of the complete graph."""
    if n < 2:
        raise NotGeometric("partition lattice needs n >= 2")
    edges = [(str(i), str(j)) for i in range(1, n + 1)
             for j in range(i + 1, n + 1)]
    return build_from_graph(edges, name=name or f"pi{n}")


def build_boolean(n: int = None, atoms=None, *, name=None) -> GeometricLattice:
    """Boolean lattice: the free matroid, every subset of atoms is a flat."""
    if atoms is None:
        atoms = tuple(f"x{i+1}" for i in range(n))
    atoms = tuple(atoms)
    masks = range(1 << len(atoms))
    ranks = {m: m.bit_count() for m in masks}
    return GeometricLattice(atoms, masks, ranks=ranks, validate=False,
                            name=name or f"b{len(atoms)}")


# ----------------------------------------------------------------------
# operations


def join(lat: GeometricLattice, f1: int, f2: int) -> int:
    _check_flats(lat, f1, f2)
    return lat.join(f1, f2)


def meet(lat: GeometricLattice, f1: int, f2: int) -> int:
    _check_flats(lat, f1, f2)
    return lat.meet(f1, f2)


def rank(lat: GeometricLattice, f: int) -> int:
    _check_flats(lat, f)
    return lat.ranks[f]


def _check_flats(lat, *flats):
    for f in flats:
        if not isinstance(f, int) or not 0 <= f < lat.n_flats:
            raise ForeignFlat(f"flat index {f!r} outside the lattice")


def restriction(lat: GeometricLattice, atom_labels, *, name=None):
    """Sublattice of joins of the given atoms, with the inclusion embedding."""
    mask = lat._mask_of(atom_labels)
    sub, _ = _restrict(lat, mask, name=name)
    return sub, Embedding(sub, lat, tuple(_mask_atoms(mask)))


def _restrict(lat: GeometricLattice, mask: int, *, name=None):
    """The sublattice of joins of the atoms in ``mask`` (the flats of the
    restriction are the flats' traces on ``mask``) and ``pos``: the
    position in it of each atom of ``lat`` in ``mask``, else None."""
    pos = [None] * lat.n_atoms
    for i, p in enumerate(_mask_atoms(mask)):
        pos[p] = i
    traces = list({m & mask for m in lat.flat_masks})
    ranks = dict(zip(_move_masks(traces, pos), map(lat.rank_of_mask, traces)))
    sub = GeometricLattice(lat._labels(mask), ranks.keys(), ranks=ranks,
                           atom_supports=[lat.atom_supports[p]
                                          for p in _mask_atoms(mask)],
                           validate=False, name=name)
    return sub, pos


def interval(lat: GeometricLattice, f1: int, f2: int):
    """The interval [f1, f2] as a geometric lattice.

    Returns (sub, to_parent, from_parent): `to_parent[i]` is the parent flat
    of interval flat i, `from_parent` maps parent flat indices back.
    Interval atoms are the covers of f1 inside the interval; an atom is
    labeled by its root-atom support above f1 (a bare atom label when the
    difference is a single root atom).
    """
    return _interval(lat, f1, f2)[:3]


def interval_at(lat: GeometricLattice, lo: int, hi: int):
    """``interval(lat, lo, hi)`` with the position of each atom's image,
    built once per (lo, hi) and kept on the lattice.

    Returns (sub, to_parent, from_parent, pos): ``pos[a]`` is the position
    in ``sub`` of the interval atom lo v a for each atom a of ``lat``, or
    None when lo v a is not an atom of the interval (a lies below lo, or
    lo v a does not lie below hi).
    """
    if lat._intervals is None:
        lat._intervals = {}
    hit = lat._intervals.get((lo, hi))
    if hit is None:
        hit = lat._intervals[lo, hi] = _interval(lat, lo, hi)
    return hit


def _interval(lat: GeometricLattice, lo: int, hi: int):
    """The one builder of intervals: (sub, to_parent, from_parent, pos) as
    ``interval_at`` describes them, after checking the endpoints."""
    _check_flats(lat, lo, hi)
    if not lat.leq(lo, hi):
        raise NotComparable("interval endpoints are not comparable")
    masks, ranks = lat.flat_masks, lat.ranks
    lo_mask, hi_mask = masks[lo], masks[hi]
    members = [f for f, m in enumerate(masks)
               if m & lo_mask == lo_mask and m | hi_mask == hi_mask]
    lo_support = lat.support_of(lo)
    covers = []         # (label, support above lo, mask) per interval atom
    for f in members:
        if ranks[f] == ranks[lo] + 1:
            diff = lat.support_of(f) - lo_support
            label = ",".join(sorted(diff))
            covers.append((label if len(diff) == 1 else f"({label})", diff,
                           masks[f]))
    covers.sort(key=lambda c: (c[0], c[2]))
    # an atom outside lo lies in exactly one cover of lo, namely lo v a
    pos = [None] * lat.n_atoms
    for i, (_, _, m) in enumerate(covers):
        for a in _mask_atoms(m & ~lo_mask):
            pos[a] = i
    parent = dict(zip(_move_masks([masks[f] & ~lo_mask for f in members], pos),
                      members))
    sub = GeometricLattice(tuple(c[0] for c in covers), parent.keys(),
                           ranks={m: ranks[f] - ranks[lo]
                                  for m, f in parent.items()},
                           atom_supports=[c[1] for c in covers],
                           validate=False)
    to_parent = [parent[m] for m in sub.flat_masks]
    return (sub, to_parent, {p: i for i, p in enumerate(to_parent)},
            tuple(pos))


def parallel_connection(l1: GeometricLattice, pos1, l2: GeometricLattice, pos2,
                        shared: int, shared_rank, labels, *,
                        atom_supports=None, name=None):
    """The generalized parallel connection of two lattices along a common
    flat (Oxley, *Matroid Theory*, 2nd ed., 11.4), over the atom ``labels``.

    ``pos1`` and ``pos2`` send each side's atom positions to positions in
    the result, ``shared`` is the mask of the common atoms there, and
    ``shared_rank`` ranks a submask of ``shared``.  A flat of the result
    is the union of one flat from each side meeting ``shared`` in the same
    mask; its rank is the two ranks less the rank of that common part.
    """
    parts1 = {}
    for m1, r1 in zip(_move_masks(l1.flat_masks, pos1), l1.ranks):
        parts1.setdefault(m1 & shared, []).append((m1, r1))
    masks = {}
    for m2, r2 in zip(_move_masks(l2.flat_masks, pos2), l2.ranks):
        common = m2 & shared
        r2 -= shared_rank(common)
        for m1, r1 in parts1.get(common, ()):
            masks[m1 | m2] = r1 + r2
    return GeometricLattice(tuple(labels), masks.keys(), ranks=masks,
                            atom_supports=atom_supports, validate=False,
                            name=name)


def direct_product(l1: GeometricLattice, l2: GeometricLattice, *, name=None):
    """The parallel connection along the empty flat."""
    if set(l1.atoms) & set(l2.atoms):
        raise DuplicateAtom("factors share atom labels")
    n1, n2 = l1.n_atoms, l2.n_atoms
    supports = l1.atom_supports + l2.atom_supports
    return parallel_connection(l1, range(n1), l2, range(n1, n1 + n2), 0,
                               lambda common: 0, l1.atoms + l2.atoms,
                               atom_supports=supports, name=name)


def irreducible_factors(lat: GeometricLattice):
    """Unique factorization into irreducible lattices.

    Returns (factors, atom_partition) where atom_partition lists, per factor,
    the tuple of atom labels supporting it.
    """
    if lat.is_trivial:
        raise NotGeometric("the one-point lattice has no factorization")
    supports = lat.factor_supports()
    factors = []
    partition = []
    for s in supports:
        factors.append(_restrict(lat, s)[0])
        partition.append(lat._labels(s))
        # rank additivity certificate of the split
        assert lat.rank_of_mask(s) + lat.rank_of_mask(((1 << lat.n_atoms) - 1) & ~s) \
            == lat.rank or len(supports) == 1
    return factors, partition


def circuits(lat: GeometricLattice):
    """All circuits as sorted tuples of atom labels."""
    return [tuple(sorted(lat._labels(m))) for m in lat.circuits_masks()]
