"""Canonical relabeling of geometric lattices with optional pinned atoms.

Two lattices are isomorphic fixing the pinned atoms pointwise (by list
position) iff their certificates are equal.  The engine runs color
refinement on the atom/flat incidence structure and then searches the
remaining color cells depth first, keeping the lexicographically least
certificate and the first leaf that reaches it.

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
from dataclasses import dataclass

from .errors import ForeignFlat
from .lattice import GeometricLattice, _mask_atoms, _move_masks


@dataclass(frozen=True)
class CanonicalForm:
    """Result of canonical labeling.

    perm[i] is the canonical position of atom i.  ``automorphisms`` are
    atom permutations (same convention) mapping the flat family to itself
    while fixing the pinned atoms pointwise.  They are generators, not the
    closed group: every automorphism is a product of them, and the
    identity is never listed.
    """

    certificate: bytes
    perm: tuple
    automorphisms: tuple


def _incidence(lat: GeometricLattice):
    """(rank, atoms) of every flat and the flats of every atom, in index
    order: what refinement reads of the lattice."""
    flats = [(lat.ranks[f], tuple(_mask_atoms(m)))
             for f, m in enumerate(lat.flat_masks)]
    atom_flats = [[] for _ in range(lat.n_atoms)]
    for f, (_, atoms) in enumerate(flats):
        for i in atoms:
            atom_flats[i].append(f)
    return flats, atom_flats


def _refine(incidence, colors):
    """Iterated color refinement over the atom/flat incidence bigraph."""
    flats, atom_flats = incidence
    while True:
        sigs = [(r, tuple(sorted([colors[i] for i in atoms])))
                for r, atoms in flats]
        # ids must follow the canonical order of the signatures themselves,
        # not the enumeration order, or certificates depend on presentation
        sig_order = {s: k for k, s in enumerate(sorted(set(sigs)))}
        flat_sig_ids = [sig_order[s] for s in sigs]
        atom_sigs = [(c, tuple(sorted([flat_sig_ids[f] for f in fs])))
                     for c, fs in zip(colors, atom_flats)]
        new_ids = {}
        for sig in sorted(set(atom_sigs)):
            new_ids[sig] = len(new_ids)
        new_colors = tuple(new_ids[s] for s in atom_sigs)
        if new_colors == colors:
            return colors
        colors = new_colors


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
            image = type(child)(g[a] for a in child)
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
        self.incidence = _incidence(lat)
        self.first = None   # (certificate, perm) of the first leaf
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
        cert = _certificate_bytes(self.lat, perm)
        if self.first is None:
            self.first = self.best = (cert, perm)
            return
        if cert == self.first[0]:
            ref = self.first[1]
        elif cert == self.best[0]:
            ref = self.best[1]
        else:
            if cert < self.best[0]:
                self.best = (cert, perm)
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
                if all(colors[x] == c for x, c in zip(g, colors))]

    def drop_equivalent_branch(self):
        """Abandon the current child of the shallowest open node at which
        it now lies in the orbit of an earlier explored sibling."""
        for depth, (colors, explored) in enumerate(self.frames):
            if len(explored) > 1 and not _orbits(
                    [explored[-1]], self.stabilizer(colors)).isdisjoint(
                        explored[:-1]):
                self.abort = depth
                return


def _certificate_bytes(lat, perm):
    masks = sorted(_move_masks(lat.flat_masks, perm))
    head = (lat.n_atoms, lat.rank)
    body = ",".join(format(m, "x") for m in masks)
    return repr(head).encode() + b"|" + body.encode()


def canonical_form(lat: GeometricLattice, fixed_atoms=()) -> CanonicalForm:
    """Canonical relabeling; ``fixed_atoms`` are pinned pointwise, in order."""
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
    cert, perm = search.best
    return CanonicalForm(cert, perm, tuple(sorted(search.gens)))


def certificates_equal(l1: GeometricLattice, l2: GeometricLattice,
                       fixed1=(), fixed2=()) -> bool:
    return canonical_form(l1, fixed1).certificate == \
        canonical_form(l2, fixed2).certificate
