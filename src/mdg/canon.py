"""Canonical relabeling of geometric lattices with optional pinned atoms.

Two lattices are isomorphic fixing the pinned atoms pointwise (by list
position) iff their certificates are equal.  The engine refines the
colors on the atom/flat incidence structure until they are equitable and
then searches the remaining color cells depth first, keeping the
lexicographically least certificate and the first leaf that reaches it.
A leaf is compared as its sorted list of relabeled flat masks; the
certificate text, whose byte order ranks two different leaves, is encoded
once for the best leaf and once for each leaf ranked against it.  A leaf
relabels only the atoms its labelling moves.

A refinement round reads the atoms of the cells holding two or more atoms
and the flats containing one of them: their signatures order the atoms
within those cells, and an atom alone in its cell keeps its place.
Refinement stops at a discrete coloring or after a round that splits no
cell: neither can change in a further round.

Leaves whose certificate equals the first leaf's or the best leaf's give
automorphisms, and these prune the search as in nauty (McKay and Piperno,
*Practical graph isomorphism II*, 2014): a child is skipped, or abandoned
part way, when an automorphism fixing its parent maps it onto an earlier
sibling.  Its subtree is then the image of that sibling's, so the least
certificate and the first leaf reaching it are never pruned.  Only the
automorphisms found are returned; they generate the whole group of
automorphisms fixing the pinned atoms.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field

from .errors import ForeignFlat
from .lattice import GeometricLattice, _mask_atoms


@dataclass(frozen=True)
class CanonicalForm:
    """Result of canonical labeling.

    perm[i] is the canonical position of atom i.  ``automorphisms`` are
    atom permutations (same convention) mapping the flat family to itself
    while fixing the pinned atoms pointwise.  They are generators, not the
    closed group: every automorphism is a product of them, and the
    identity is never listed.  ``flat_masks`` are the input's flat masks
    relabeled by ``perm``, in the input's order.
    """

    certificate: bytes
    perm: tuple
    automorphisms: tuple
    flat_masks: list = field(compare=False, repr=False)


def _incidence(lat):
    """(rank, atoms) of every flat and the flats of every atom, in the
    order of ``lat.flat_masks``: what refinement reads of the lattice."""
    flats = []
    atom_flats = [[] for _ in range(lat.n_atoms)]
    for f, (r, m) in enumerate(zip(lat.ranks, lat.flat_masks)):
        atoms = []
        while m:
            low = m & -m
            i = low.bit_length() - 1
            atoms.append(i)
            atom_flats[i].append(f)
            m ^= low
        flats.append((r, atoms))
    return flats, atom_flats


def _refine(incidence, colors):
    """Iterated color refinement over the atom/flat incidence bigraph, to
    the coarsest equitable coloring finer than ``colors``, numbered 0..k-1.
    A round's colors sort by the old color first, so a round only splits
    cells: a discrete coloring is final once renumbered, and after a round
    that splits no cell, which renumbers in order, the next would repeat it.

    Numbering only the signed flats keeps the order of every sorted list
    of their ids, so the unsigned ones change no color.
    """
    n_cells = len(set(colors))
    while n_cells < len(colors):
        flats, atom_flats = incidence
        color = colors.__getitem__
        size = Counter(colors)
        signed = {f for c, fs in zip(colors, atom_flats) if size[c] > 1
                  for f in fs}
        sigs = {f: (flats[f][0], tuple(sorted(map(color, flats[f][1]))))
                for f in signed}
        # ids must follow the canonical order of the signatures themselves,
        # not the enumeration order, or certificates depend on presentation
        sig_order = {s: k for k, s in enumerate(sorted(set(sigs.values())))}
        sig_id = {f: sig_order[s] for f, s in sigs.items()}.__getitem__
        atom_sigs = [(c, tuple(sorted(map(sig_id, fs)))) if size[c] > 1
                     else (c,) for c, fs in zip(colors, atom_flats)]
        new_ids = {s: k for k, s in enumerate(sorted(set(atom_sigs)))}
        new_colors = tuple(map(new_ids.__getitem__, atom_sigs))
        if len(new_ids) == n_cells:
            return new_colors
        colors, n_cells = new_colors, len(new_ids)
    rank = {c: k for k, c in enumerate(sorted(colors))}
    return tuple(rank[c] for c in colors)


def _cells(colors):
    cells = {}
    for i, c in enumerate(colors):
        cells.setdefault(c, []).append(i)
    return [cells[c] for c in sorted(cells)]


def _orbits(children, gens):
    """Union of the orbits of the children under the group the generators
    generate.  A child is a tuple or frozenset of points (atoms here, flats
    for the catalog's cuts), acted on point by point; a generator maps
    point i to g[i]."""
    out = set(children)
    stack = list(out)
    while stack:
        child = stack.pop()
        for g in gens:
            image = type(child)(map(g.__getitem__, child))
            if image not in out:
                out.add(image)
                stack.append(image)
    return out


class _Search:
    """Depth-first search over individualizations with orbit pruning.

    A node is its refined coloring; a child individualizes one atom of the
    first non-singleton cell or, for a cell of at most five atoms, orders
    the whole cell at once.  An automorphism fixes a node iff it preserves
    its coloring, and it then maps the node's children onto each other, so
    a child in the orbit of an earlier sibling has an isomorphic subtree.

    The automorphisms found generate the group.  Along the first path,
    each child in the orbit of the path's child under the node's
    stabilizer is either pruned as the image of a sibling already in that
    orbit, or searched until a leaf matching the first leaf gives an
    automorphism fixing the node that maps the path's child onto it; such
    leaves lie in the child's subtree, and pruning inside it keeps one.
    So at every node of the first path the stabilizer is generated by the
    automorphisms found that fix the node.
    """

    def __init__(self, lat):
        self.lat = lat
        self.masks = lat.flat_masks
        self.incidence = _incidence(lat)
        self.first = None   # first leaf: (sorted masks, perm, masks, body)
        self.best = None    # the first leaf with the least certificate
        self.gens = set()   # automorphisms found
        self.frames = []    # open nodes, root first: (colors, explored)
        self.abort = None   # depth of the frame whose current child is dropped

    def node(self, colors):
        cells = _cells(colors)
        branch = next((c for c in cells if len(c) > 1), None)
        if branch is None:
            # discrete and refined: colors are 0..n-1, the canonical positions
            self.leaf(colors)
            return
        if len(branch) <= 5:
            # small cell: try every ordering at once, cheaper than re-refining
            children = itertools.permutations(branch)
        else:
            children = ((atom,) for atom in branch)
        base = max(colors) + 1
        depth = len(self.frames)
        explored = []
        self.frames.append((colors, explored))
        seen, stab, covered = 0, [], set()
        for child in children:
            if len(self.gens) != seen:
                seen = len(self.gens)
                stab = self.stabilizer(colors)
                covered = _orbits(explored, stab)
            if child in covered:
                continue
            explored.append(child)
            covered |= _orbits([child], stab)
            new = list(colors)
            for k, atom in enumerate(child):
                new[atom] = base + k
            self.node(_refine(self.incidence, tuple(new)))
            if self.abort is not None:
                if self.abort < depth:
                    break
                self.abort = None
        self.frames.pop()

    def leaf(self, perm):
        # the atoms perm fixes keep their bits, and each distinct moved part
        # of a mask is relabeled once
        moved = sum(1 << i for i, p in enumerate(perm) if p != i)
        bits = [1 << p for p in perm].__getitem__
        images = {}
        masks = []
        for m in self.masks:
            part = m & moved
            if part not in images:
                images[part] = sum(map(bits, _mask_atoms(part)))
            masks.append(m ^ part | images[part])
        key = sorted(masks)
        if self.first is None:
            self.first = self.best = (key, perm, masks, _certificate_body(key))
            return
        if key == self.first[0]:
            ref = self.first[1]
        elif key == self.best[0]:
            ref = self.best[1]
        else:
            # two different leaves: ranked by their certificate text
            body = _certificate_body(key)
            if body < self.best[3]:
                self.best = (key, perm, masks, body)
            return
        # perm and ref reach the same certificate, so ref^-1 . perm is an
        # automorphism
        inv = [0] * len(ref)
        for i, p in enumerate(ref):
            inv[p] = i
        aut = tuple(inv[p] for p in perm)
        if aut == tuple(range(len(aut))) or aut in self.gens:
            return
        self.gens.add(aut)
        self.drop_equivalent_branch()

    def stabilizer(self, colors):
        return [g for g in self.gens
                if tuple(map(colors.__getitem__, g)) == colors]

    def drop_equivalent_branch(self):
        """Abandon the current child of the shallowest open node at which
        it now lies in the orbit of an earlier explored sibling."""
        for depth, (colors, explored) in enumerate(self.frames):
            if len(explored) > 1 and not _orbits(
                    [explored[-1]], self.stabilizer(colors)).isdisjoint(
                        explored[:-1]):
                self.abort = depth
                return


def _certificate_body(masks):
    """The certificate after its head: the sorted flat masks in hex."""
    return ",".join([format(m, "x") for m in masks]).encode()


def canonical_form(lat: GeometricLattice, fixed_atoms=()) -> CanonicalForm:
    """Canonical relabeling; ``fixed_atoms`` are pinned pointwise, in order.

    Of ``lat`` the search reads ``atom_index``, ``n_atoms``, ``rank``,
    ``flat_masks`` and ``ranks`` alone, so a flat table that was never
    built into a lattice serves as well (the catalog's children)."""
    fixed = []
    for lab in fixed_atoms:
        if lab not in lat.atom_index:
            raise ForeignFlat(f"unknown fixed atom {lab!r}")
        fixed.append(lat.atom_index[lab])
    if len(set(fixed)) != len(fixed):
        raise ForeignFlat("fixed atoms repeat")
    colors = [len(fixed)] * lat.n_atoms
    for k, i in enumerate(fixed):
        colors[i] = k
    search = _Search(lat)
    search.node(_refine(search.incidence, tuple(colors)))
    _, perm, masks, body = search.best
    cert = repr((lat.n_atoms, lat.rank)).encode() + b"|" + body
    return CanonicalForm(cert, perm, tuple(sorted(search.gens)), masks)


def certificates_equal(l1: GeometricLattice, l2: GeometricLattice,
                       fixed1=(), fixed2=()) -> bool:
    return canonical_form(l1, fixed1).certificate == \
        canonical_form(l2, fixed2).certificate
