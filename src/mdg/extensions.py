"""Matroid surgery on geometric lattices.

Modular cuts, truncation, single-element extensions, pushouts along a
common modular flat, symmetric extensions, and bounded enumeration of
modular extensions up to base-fixing isomorphism.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from types import SimpleNamespace

from .canon import _orbits, canonical_form
from .errors import (
    DegenerateCut,
    InvalidExtension,
    MismatchedBase,
    NotAModularCut,
    NotGeometric,
    NotModular,
    NotModularCoatom,
    ResourceLimit,
)
from .lattice import (
    Embedding,
    GeometricLattice,
    _mask_atoms,
    _move_masks,
    _word_sign,
    identity_embedding,
    interval,
    parallel_connection,
    same_lattice,
)
from .modularity import is_modular


# ----------------------------------------------------------------------
# modular cuts and single-element extensions


@dataclass(frozen=True)
class ModularCut:
    lattice: GeometricLattice
    members: frozenset  # flat indices, upward closed

    def __contains__(self, f):
        return f in self.members


def is_modular_cut(lat: GeometricLattice, members) -> tuple:
    """Check the two closure conditions; returns (ok, violating_pair)."""
    members = frozenset(members)
    masks = lat.flat_masks
    for f in members:
        mf = masks[f]
        for g, m in enumerate(masks):
            if m & mf == mf and g not in members:
                return False, (f, g)
    for f1, f2 in itertools.combinations(sorted(members), 2):
        m = lat.meet(f1, f2)
        if m in members:
            continue
        if lat.ranks[f1] + lat.ranks[f2] == lat.ranks[m] + lat.ranks[lat.join(f1, f2)]:
            return False, (f1, f2)
    return True, None


def modular_cut(lat: GeometricLattice, members) -> ModularCut:
    ok, pair = is_modular_cut(lat, members)
    if not ok:
        raise NotAModularCut("not a modular cut",
                             witness=tuple(lat.atoms_of(f) for f in pair))
    return ModularCut(lat, frozenset(members))


def truncation(lat: GeometricLattice, cut: ModularCut, *, name=None) -> GeometricLattice:
    """Delete the flats outside the cut that are covered by a member of it."""
    if not same_lattice(cut.lattice, lat):
        raise NotAModularCut("cut belongs to a different lattice")
    covers_up = lat.covers_up()
    keep = []
    for f in range(lat.n_flats):
        if f in cut.members or not any(c in cut.members for c in covers_up[f]):
            keep.append(lat.flat_masks[f])
    return GeometricLattice(lat.atoms, keep, atom_supports=lat.atom_supports,
                            validate=True, name=name)


def single_element_extension(lat: GeometricLattice, cut: ModularCut, label: str):
    """Add one atom whose containing flats are dictated by the cut.

    Equivalent to truncating the product with a two-element chain along the
    shifted cut.  Returns (extension_lattice, embedding).
    """
    if not same_lattice(cut.lattice, lat):
        raise NotAModularCut("cut belongs to a different lattice")
    for f in cut.members:
        if lat.ranks[f] <= 1:
            raise DegenerateCut(f"cut contains {lat.atoms_of(f)!r}")
    if label in lat.atom_index:
        raise DegenerateCut(f"label {label!r} already used")
    masks = _extended_masks(lat, cut.members)
    ext = GeometricLattice(
        lat.atoms + (label,), masks, ranks=masks, validate=False,
        atom_supports=lat.atom_supports + (frozenset([label]),))
    emb = Embedding(lat, ext, tuple(range(lat.n_atoms)))
    return ext, emb


def _extended_masks(lat: GeometricLattice, members):
    """The mask -> rank dict of the single-element extension (new atom
    last)."""
    ebit = 1 << lat.n_atoms
    masks = {}
    for f, (m, r, ups) in enumerate(zip(lat.flat_masks, lat.ranks,
                                         lat.covers_up())):
        if f in members:
            masks[m | ebit] = r
        else:
            masks[m] = r
            if members.isdisjoint(ups):
                masks[m | ebit] = r + 1
    return masks


# ----------------------------------------------------------------------
# modular extensions


@dataclass(frozen=True)
class ModularExtension:
    """A lattice containing the base as the lower interval of a modular flat."""

    embedding: Embedding
    top: int  # flat index of the image of the base's top

    @classmethod
    def build(cls, embedding: Embedding, *, require_modular=True):
        ext = cls(embedding, embedding.flat_image(embedding.source.top))
        ext.validate(require_modular=require_modular)
        return ext

    @property
    def base(self):
        return self.embedding.source

    @property
    def lat(self):
        return self.embedding.target

    def validate(self, *, require_modular=True):
        emb, lat = self.embedding, self.embedding.target
        top_mask = lat.flat_masks[self.top]
        if emb.atom_image_mask() != top_mask:
            raise InvalidExtension("image top is not spanned by the image atoms")
        below = sum(1 for m in lat.flat_masks if m | top_mask == top_mask)
        if below != emb.source.n_flats:
            raise InvalidExtension("base is not the full lower interval")
        if require_modular and not is_modular(lat, self.top):
            raise NotModular("image of the base top is not modular",
                             witness=lat.atoms_of(self.top))
        return self

    def new_atom_labels(self):
        image = set(self.embedding.atom_map)
        return tuple(a for i, a in enumerate(self.lat.atoms) if i not in image)


def identity_extension(lat: GeometricLattice) -> ModularExtension:
    return ModularExtension(identity_embedding(lat), lat.top)


# ----------------------------------------------------------------------
# pushout (generalized parallel connection)


def pushout(ext1: ModularExtension, ext2: ModularExtension, *, name=None):
    """Glue two extensions along their common base.

    At least one of the two must be modular; the result is returned as a
    modular extension of the base together with the two side embeddings.
    """
    base = ext1.base
    if not same_lattice(base, ext2.base):
        raise MismatchedBase("extensions have different sources")
    mod1 = is_modular(ext1.lat, ext1.top)
    mod2 = is_modular(ext2.lat, ext2.top)
    if not (mod1 or mod2):
        raise NotModular("neither side of the pushout is modular")

    e1, e2 = ext1.lat, ext2.lat
    nb = base.n_atoms
    labels = list(base.atoms)
    supports = list(base.atom_supports)
    used = set(labels)
    # per side, the base images keep their base positions and the new
    # atoms follow, the first side's before the second's; new atoms are
    # genuinely new elements of the glued lattice, so their supports
    # restart at their own (possibly freshened) labels
    sides = []
    for ext in (ext1, ext2):
        pos = [None] * ext.lat.n_atoms
        for k, i in enumerate(ext.embedding.atom_map):
            pos[i] = k
        for i, lab in enumerate(ext.lat.atoms):
            if pos[i] is None:
                if lab in used:
                    lab = _fresh_label(lab, used)
                used.add(lab)
                pos[i] = len(labels)
                labels.append(lab)
                supports.append(frozenset([lab]))
        sides.append(tuple(pos))
    pos1, pos2 = sides

    lat = parallel_connection(e1, pos1, e2, pos2, (1 << nb) - 1,
                              base.rank_of_mask, labels,
                              atom_supports=supports, name=name)
    emb12 = Embedding(base, lat, tuple(range(nb)))
    result = ModularExtension.build(emb12)
    return result, Embedding(e1, lat, pos1), Embedding(e2, lat, pos2)


def _fresh_labels(prefix, n, used):
    """The first ``n`` of the labels prefix1, prefix2, ... not in ``used``."""
    free = (f"{prefix}{k}" for k in itertools.count(1)
            if f"{prefix}{k}" not in used)
    return tuple(itertools.islice(free, n))


def _fresh_label(lab, used):
    k = 2
    while f"{lab}#{k}" in used:
        k += 1
    return f"{lab}#{k}"


# ----------------------------------------------------------------------
# symmetric extension


@dataclass(frozen=True)
class SymmetricExtensionResult:
    extension: ModularExtension     # the base embedded in the final lattice
    glued: GeometricLattice         # the pushout before adding the new atom
    cut_members: frozenset          # the modular cut used
    new_atom: str
    degenerate: bool


def symmetric_extension(base: GeometricLattice, ext: ModularExtension,
                        coatom: int, label: str) -> SymmetricExtensionResult:
    """Glue the base with an extension over a modular coatom, then add one
    atom identifying the two copies of each atom outside the coatom.

    ``ext`` is normally a modular extension of ``base``; passing an
    extension of the coatom's lower interval instead produces the flagged
    degenerate case (an empty cut, hence a free extension).
    """
    if base.ranks[coatom] != base.rank - 1 or not is_modular(base, coatom):
        raise NotModularCoatom(f"{base.atoms_of(coatom)!r} is not a modular coatom")
    sub, to_parent, _ = interval(base, base.bottom, coatom)
    sub_atom_positions = [base.atom_index[a] for a in sub.atoms]

    left = ModularExtension.build(
        Embedding(sub, base, tuple(sub_atom_positions)), require_modular=True)

    over_base = same_lattice(ext.base, base)
    if over_base:
        emb = ext.embedding
        right_map = tuple(emb.atom_map[p] for p in sub_atom_positions)
        right = ModularExtension.build(Embedding(sub, ext.lat, right_map))
    elif same_lattice(ext.base, sub):
        right = ModularExtension.build(
            Embedding(sub, ext.lat, ext.embedding.atom_map))
    else:
        raise MismatchedBase("extension is neither over the base nor the interval")

    glued, emb_left, emb_right = pushout(left, right)
    P = glued.lat

    members = set()
    if over_base:
        pairs = []
        for a in range(base.n_atoms):
            if base.flat_masks[coatom] >> a & 1:
                continue
            copy1 = emb_left.atom_map[a]
            copy2 = emb_right.atom_map[ext.embedding.atom_map[a]]
            if copy1 == copy2:
                continue
            pairs.append((1 << copy1) | (1 << copy2))
        for f, m in enumerate(P.flat_masks):
            if any(m & p == p for p in pairs):
                members.add(f)
    # an empty cut adds the new atom as a coloop: the degenerate case
    final, emb_p = single_element_extension(P, modular_cut(P, members), label)
    emb_final = Embedding(base, final,
                          tuple(emb_p.atom_map[emb_left.atom_map[a]]
                                for a in range(base.n_atoms)))
    result = ModularExtension.build(emb_final)
    return SymmetricExtensionResult(result, P, frozenset(members), label,
                                    not members)


# ----------------------------------------------------------------------
# bounded enumeration of modular extensions


class CatalogEntry:
    """A canonical modular extension of a fixed base lattice.

    The lattice atoms are the base atoms (in base order) followed by the
    new atoms, so the embedding is positional identity on the base prefix.
    """

    __slots__ = ("lat", "n_base", "certificate", "top", "automorphisms",
                 "has_odd_aut", "atom_flats", "live_flats", "children",
                 "coloop", "interval_maps")

    def __init__(self, lat, n_base, certificate, top, automorphisms):
        self.lat = lat
        self.n_base = n_base
        self.certificate = certificate
        self.top = top
        self.automorphisms = automorphisms
        # an automorphism fixes the base prefix and permutes the new atoms;
        # the catalog's cut-orbit pruning relies on the first half
        fixed = tuple(range(n_base))
        assert all(a[:n_base] == fixed for a in automorphisms)
        self.has_odd_aut = any(_word_sign(a[n_base:])[1] < 0
                               for a in automorphisms)
        self.atom_flats = tuple(lat.flat_index[1 << i]
                                for i in range(lat.n_atoms))
        self.live_flats = None  # filled by diagrams._live_flats
        self.children = None    # filled by _children
        self.coloop = None      # filled by catalog, like children
        # (lo, hi) -> the interval, then its map; filled by diagrams
        self.interval_maps = {}

    @property
    def level(self):
        """The number of new atoms."""
        return self.lat.n_atoms - self.n_base

    @property
    def extra_rank(self):
        """The rank above the base top."""
        return self.lat.rank - self.lat.ranks[self.top]

    @property
    def base_mask(self):
        return (1 << self.n_base) - 1

    def as_modular_extension(self, base):
        emb = Embedding(base, self.lat, tuple(range(self.n_base)))
        return ModularExtension(emb, self.top)


def _tables(base):
    """The base's entries and raw forms, made on first use."""
    tables = base._extensions
    if tables is None:
        tables = base._extensions = ({}, {})
    return tables


def entry_for(base, lat, fixed):
    """The base's entry for an extension with the base atoms at positions
    ``fixed``, and the relabeling into it, keyed on what the canonical form
    reads: the flat masks (which set the ranks) and the positions."""
    raw = _tables(base)[1]
    key = (lat.flat_masks, fixed)
    hit = raw.get(key)
    if hit is None:
        cf = canonical_form(lat, [lat.atoms[p] for p in fixed])
        hit = raw[key] = (_entry_of_form(base, lat, cf), cf.perm)
    return hit


def _entry_of_form(base, lat, cf):
    """The base's entry for ``cf.certificate``, built on the first call
    from the canonical form ``cf`` of ``lat`` (a lattice, or a flat table
    as ``canonical_form`` reads one): the relabeled flats of ``cf`` with
    the ranks of ``lat``.  The base prefix is fixed and the new atoms, in
    canonical order, are named e1, e2, ... (skipping used labels)."""
    entries = _tables(base)[0]
    entry = entries.get(cf.certificate)
    if entry is not None:
        return entry
    perm = cf.perm
    n = len(perm)
    inv = sorted(range(n), key=perm.__getitem__)
    new = _fresh_labels("e", n - base.n_atoms, base.atom_index)
    ranks = dict(zip(cf.flat_masks, lat.ranks))
    canon_lat = GeometricLattice(
        base.atoms + new, ranks, ranks=ranks, validate=False,
        atom_supports=base.atom_supports + tuple(frozenset([a]) for a in new))
    auts = tuple(tuple(perm[a[inv[i]]] for i in range(n))
                 for a in cf.automorphisms)
    top = canon_lat.closure((1 << base.n_atoms) - 1)
    entry = entries[cf.certificate] = CatalogEntry(
        canon_lat, base.n_atoms, cf.certificate, top, auts)
    return entry


def _valid_cuts(entry: CatalogEntry, deadline=None):
    """Every modular cut of the entry's lattice that yields a child
    extension of the same base.

    A set S of hyperplanes is a linear subclass when no coline lies below
    two members of S and a hyperplane outside S.  Its modular cut is the
    set of flats whose hyperplanes all lie in S, and every nonempty
    modular cut arises once this way (Oxley, *Matroid Theory*, 2nd ed.,
    section 7.2); the empty S gives the free extension's cut {top}.  The
    search numbers the hyperplanes largest first, decides the lowest open
    one and propagates each decision over the colines below it: two
    members above a coline force in the rest above it, a member and a
    non-member force them out.  A large hyperplane lies on many colines,
    so its decisions settle much of the rest near the root.

    A branch dies once the child is sure to be no extension of the base
    with its top modular: when a forbidden flat (rank at most 1, or below
    the base top) has all its hyperplanes in S, or when a flat g and its
    covers are surely outside the cut while g v (base top) is surely in
    it (g then stays free of the new atom, and the base top is not
    modular in the child).  The last test runs as each node is made, on
    the flats its decisions touched.

    The entry's cuts are collected, then yielded in lexicographic order of
    their in/out vectors over the hyperplanes in ``by_rank`` order, "in"
    first; only one entry's cuts are held at a time.  Past ``deadline``, a
    ``time.monotonic()`` instant checked every 4,096 popped nodes,
    ``ResourceLimit`` is raised.
    """
    lat = entry.lat
    fi = entry.top
    if fi == lat.top:
        return
    masks = lat.flat_masks
    fi_mask = masks[fi]
    covers_up = lat.covers_up()
    n_f = lat.n_flats
    r = lat.rank

    # hyperplane j is the j-th largest, and weight[j] its bit in the yield
    # key, the in/out vector in by_rank order read as a binary number
    by_rank = lat.by_rank[r - 1]
    n_h = len(by_rank)
    order = sorted(range(n_h), key=lambda k: -masks[by_rank[k]].bit_count())
    weight = [1 << (n_h - 1 - k) for k in order]
    # hyps[F]: bitmask over hyperplane positions of the hyperplanes above F
    hyps = [0] * n_f
    for j, k in enumerate(order):
        hyps[by_rank[k]] = 1 << j
    for f in range(n_f - 1, -1, -1):      # covers come later in the order
        for c in covers_up[f]:
            hyps[f] |= hyps[c]
    # two hyperplanes meet in one coline: lines[j][k] is the set of the
    # hyperplanes above the coline of j and k, when it has three or more
    # (two constrain nothing), and others[j] the union of lines[j]
    lines = [[0] * n_h for _ in range(n_h)]
    others = [0] * n_h
    forbidden = [[] for _ in range(n_h)]  # per hyperplane: forbidden flats
    for c in lat.by_rank[r - 2]:
        hc = hyps[c]
        if hc.bit_count() >= 3:
            on = list(_mask_atoms(hc))
            for j in on:
                others[j] |= hc & ~(1 << j)
                for k in on:
                    lines[j][k] = hc
    for hf in {hyps[fi]} | {hyps[a] for a in lat.by_rank[1]
                            if masks[a] & fi_mask == 0}:
        for j in _mask_atoms(hf):
            forbidden[j].append(hf)

    below = [0] * n_h                    # per hyperplane: the flats below
    for f, hf in enumerate(hyps):
        while hf:
            low = hf & -hf
            below[low.bit_length() - 1] |= 1 << f
            hf ^= low
    # the base-top condition reads the flats g not above the base top; g
    # is armed once the hyperplanes above g v (base top), those above both,
    # are all in S
    hyps_fi = hyps[fi]
    live = sum(1 << g for g in range(n_f) if masks[g] & fi_mask != fi_mask)
    armed = sum(1 << g for g in _mask_atoms(live) if not hyps[g] & hyps_fi)
    covers = [sum(1 << c for c in covers_up[g]) for g in range(n_f)]

    def decide(inside, outside, dead, armed, j, is_in):
        """Add hyperplane j to one side and propagate; None on conflict or
        when an armed flat is dead with all its covers.  ``dead`` collects
        the flats surely outside the cut: those below a hyperplane left out
        of S.  The hyperplanes in ``todo`` are decided and wait for their
        colines to be read; the closure, or the conflict, is the same in
        any order."""
        inside0 = inside
        todo = 1 << j
        if is_in:
            inside |= todo
        else:
            outside |= todo
        reach = 0  # the flats below a hyperplane newly left out
        while todo:
            low = todo & -todo
            todo ^= low
            j = low.bit_length() - 1
            if inside & low:
                for hf in forbidden[j]:
                    if hf & ~inside == 0:
                        return None
                near = others[j] & (inside | outside)
            else:
                reach |= below[j]
                near = others[j] & inside
            # the colines through j with another decided hyperplane, read
            # once each; for j out, only those with one in can act
            line = lines[j]
            while near:
                hc = line[(near & -near).bit_length() - 1]
                near &= ~hc
                cin = hc & inside
                if cin & (cin - 1):
                    if hc & outside:
                        return None
                    new = hc & ~inside
                    inside |= new
                    todo |= new
                elif cin and hc & outside:
                    new = hc & ~inside & ~outside
                    outside |= new
                    todo |= new
        # the parent passed the base-top test, so only the flats these
        # decisions touched are read: the armed ones in reach, and the
        # newly armed
        dead |= reach
        check = reach & armed
        new_in = inside & ~inside0 & hyps_fi
        while new_in:
            low = new_in & -new_in
            fresh = below[low.bit_length() - 1] & live & ~armed
            while fresh:
                g = fresh & -fresh
                if hyps[g.bit_length() - 1] & hyps_fi & ~inside == 0:
                    armed |= g
                    check |= g & dead
                fresh ^= g
            new_in ^= low
        while check:
            g = check & -check
            if covers[g.bit_length() - 1] & ~dead == 0:
                return None
            check ^= g
        return inside, outside, dead, armed

    full_h = (1 << n_h) - 1
    full_f = (1 << n_f) - 1
    cuts = []
    stack = [(0, 0, 0, armed)]
    popped = 0
    while stack:
        node = stack.pop()
        popped += 1
        if popped & 4095 == 0 and deadline is not None \
                and time.monotonic() > deadline:
            raise ResourceLimit("timeout exceeded in the cut search")
        open_ = full_h & ~(node[0] | node[1])
        if not open_:
            key = sum(weight[j] for j in _mask_atoms(node[0]))
            cuts.append((key, node[2]))
            continue
        j = (open_ & -open_).bit_length() - 1
        for is_in in (False, True):
            nxt = decide(*node, j, is_in)
            if nxt is not None:
                stack.append(nxt)
    # "in" before "out" at the first hyperplane where two cuts differ
    for _, dead in sorted(cuts, reverse=True):
        yield frozenset(_mask_atoms(full_f & ~dead))


def catalog(base: GeometricLattice, max_new_atoms: int, max_extra_rank: int,
            *, deadline=None):
    """All modular extensions of the base within the bounds, canonical and
    deduplicated, ordered by (new-atom count, certificate).

    One walk from the base's root: each level is the children of the last,
    and the extra-rank bound only withholds coloop children.  Entries keep
    their children for every bound.  Negative bounds raise ``ValueError``.
    Past ``deadline``, a ``time.monotonic()`` instant checked before each
    entry's children are built and inside each long cut search,
    ``ResourceLimit`` is raised.
    """
    if base.is_trivial:
        raise NotGeometric("extensions of the one-point lattice are not defined")
    if max_new_atoms < 0 or max_extra_rank < 0:
        raise ValueError("catalog bounds must be nonnegative")
    level = [entry_for(base, base, tuple(range(base.n_atoms)))[0]]
    found = list(level)
    for _ in range(max_new_atoms):
        nxt = {}
        for entry in level:
            if deadline is not None and time.monotonic() > deadline:
                raise ResourceLimit("timeout exceeded in the extension catalog")
            # the coloop child first, in the unpruned walk's order
            if entry.extra_rank < max_extra_rank:
                if entry.coloop is None:
                    entry.coloop = _child(base, entry.lat, frozenset())
                for child in entry.coloop:
                    nxt[child.certificate] = child
            for child in _children(base, entry, deadline):
                nxt[child.certificate] = child
        level = [nxt[c] for c in sorted(nxt)]
        found += level
    return found


def _children(base, entry, deadline):
    """The entry's children along its nonempty cuts, kept on the entry:
    ``_child`` of the first cut of each orbit under the entry's
    automorphisms.  These fix the base, so cuts in one orbit give children
    of one certificate, and ``_child`` keeps or skips all of them alike."""
    if entry.children is None:
        lat = entry.lat
        # each automorphism as a map on flat indices
        flat_auts = [tuple(lat.flat_index[m]
                           for m in _move_masks(lat.flat_masks, a))
                     for a in entry.automorphisms]
        seen = set()
        children = ()
        for members in _valid_cuts(entry, deadline):
            if members not in seen:
                seen |= _orbits([members], flat_auts)
                children += _child(base, lat, members)
        entry.children = children
    return entry.children


def _child(base, lat, members):
    """The base's entry for the extension of ``lat`` along the modular cut
    ``members`` (unchecked; empty adds a coloop), as a tuple of at most one
    entry: none when another new atom has a larger invariant, the sorted
    (rank, base part, new-atom count) of the flats containing it.  By
    canonical augmentation (McKay 1998), deleting a new atom of maximal
    invariant leaves an entry one level down whose walk builds this child.
    The child is canonicalized from its flat table, never built itself."""
    nb = base.n_atoms
    base_mask = (1 << nb) - 1
    masks = _extended_masks(lat, members)
    invs = [[] for _ in range(lat.n_atoms + 1 - nb)]
    for m, r in masks.items():
        new = m >> nb
        if new:
            inv = (r, m & base_mask, new.bit_count())
            while new:
                low = new & -new
                invs[low.bit_length() - 1].append(inv)
                new ^= low
    added = sorted(invs.pop())
    if any(sorted(inv) > added for inv in invs):
        return ()
    n = lat.n_atoms + 1
    # the flat table canonical_form reads, with the base atoms first
    child = SimpleNamespace(atom_index=base.atom_index, n_atoms=n,
                            rank=masks[(1 << n) - 1], flat_masks=masks.keys(),
                            ranks=masks.values())
    return (_entry_of_form(base, child,
                           canonical_form(child, fixed_atoms=base.atoms)),)


def enumerate_modular_extensions(base: GeometricLattice, max_new_atoms: int,
                                 max_extra_rank: int):
    """Public wrapper around the catalog returning ModularExtension values."""
    return [e.as_modular_extension(base)
            for e in catalog(base, max_new_atoms, max_extra_rank)]
