"""The differential graded algebra of modular diagrams over a base lattice.

A diagram is a modular extension of the base together with an ordered word
of its atoms.  Diagrams are stored normalized: the extension is restricted
to the atoms appearing in the base image or the word, relabeled
canonically with the base atoms pinned, and the word is sorted with a
sign.  The vanishing rules applied during normalization are: repeated
letters; the word and base not spanning the top; the extension splitting
off a factor missing the base; a modular flat above the base image with
exactly two word atoms outside it; an automorphism of the extension fixing
the base and acting oddly on the new atoms.  A flat above the base image
with exactly one word atom outside it needs no rule of its own: the
lattice is spanned by the base image and the word, so that atom is a
coloop, a factor missing the base.

The differential, products and coproducts of canonical diagrams are
computed once and kept on their algebra.  Their words hold every atom of
the interval or pushout they span outside its base image, so only the
repeated-letter rule reads the word: that lattice is kept as its map into
its canonical entry.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import ClassVar

from .errors import (
    ForeignFlat,
    ImproperFlat,
    MismatchedBase,
    NotContractible,
    NotGeometric,
    NotIso,
    ResourceLimit,
)
from . import lattice
from .extensions import (CatalogEntry, ModularExtension, _fresh_labels,
                         catalog, entry_for)
from .lattice import (Embedding, GeometricLattice, _atoms_mask, _check_flats,
                      _mask_atoms, _merge_sign, _restrict, _separators,
                      _word_sign, interval_at, parallel_connection,
                      same_lattice)
from .modularity import is_modular
from .os_algebra import OSElement, os_context


ZERO = None  # sentinel for normalized-to-zero


@dataclass(frozen=True, eq=False, slots=True)
class Diagram:
    """A normalized nonzero modular diagram, one object per (entry, word)."""

    algebra: "DiagramAlgebra" = field(repr=False)
    entry: CatalogEntry
    word: tuple        # sorted canonical atom positions
    degree: int
    grading: int       # flat index in the base lattice
    nullity: int       # |word| - rank of the word; the differential keeps it

    @property
    def key(self):
        return (self.entry.certificate, self.word)

    def word_labels(self):
        return tuple(self.entry.lat.atoms[i] for i in self.word)

    def describe(self):
        lat = self.entry.lat
        return {
            "atoms": list(lat.atoms),
            "new_atoms": list(lat.atoms[self.entry.n_base:]),
            "word": list(self.word_labels()),
            "degree": self.degree,
        }


class Combination:
    """An integer combination of hashable keys: diagrams, or tuples of
    diagrams (the terms of a coproduct or of an iterated coproduct)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        self.coeffs = dict(coeffs)

    def add_term(self, coeff, key):
        if key is ZERO or coeff == 0:
            return self
        c = self.coeffs.get(key, 0) + coeff
        if c:
            self.coeffs[key] = c
        else:
            del self.coeffs[key]
        return self

    def __add__(self, other):
        out = Combination(self.coeffs)
        for k, c in other.coeffs.items():
            out.add_term(c, k)
        return out

    def scale(self, c):
        return Combination({k: v * c for k, v in self.coeffs.items() if v * c})

    def __sub__(self, other):
        return self + other.scale(-1)

    @property
    def is_zero(self):
        return not self.coeffs

    def __eq__(self, other):
        return isinstance(other, Combination) and self.coeffs == other.coeffs

    def __repr__(self):
        return f"Combination({self.coeffs!r})"


def _vector(x):
    """A diagram as a one-term combination; a combination as itself."""
    return Combination().add_term(1, x) if isinstance(x, Diagram) else x


_ALGEBRAS = {}


def algebra_for(base: GeometricLattice) -> "DiagramAlgebra":
    sig = (base.atoms, base.flat_masks)   # the identity of same_lattice
    alg = _ALGEBRAS.get(sig)
    if alg is None:
        alg = _ALGEBRAS[sig] = DiagramAlgebra(base)
    return alg


class DiagramAlgebra:
    """All diagram-level operations over a fixed nontrivial base lattice."""

    def __init__(self, base: GeometricLattice):
        if base.is_trivial:
            raise NotGeometric("modular diagrams of the one-point lattice "
                               "are not defined")
        self.base = base
        self._pushout_cache = {}    # sorted (cert1, cert2) -> (map, pos2)
        self._diagrams = {}         # (certificate, word) -> Diagram
        # structure maps of canonical diagrams, as ((term, coeff), ...)
        self._differentials = {}    # Diagram -> terms
        self._products = {}         # (Diagram, Diagram) -> terms
        self._coproducts = {}       # (Diagram, flat) -> terms

    # ------------------------------------------------------------------
    # normalization

    def normalize_raw(self, lat, atom_map, word_positions):
        """Normalize (lattice, base atom map, word); returns (sign, Diagram)
        or (0, ZERO)."""
        if len(set(word_positions)) != len(word_positions):
            return 0, ZERO
        needed = _atoms_mask(atom_map) | _atoms_mask(word_positions)
        if lat.ranks[lat.closure(needed)] < lat.rank:
            return 0, ZERO  # word and base do not span the top
        if needed != (1 << lat.n_atoms) - 1:
            lat, pos = _restrict(lat, needed)
            atom_map = tuple(pos[p] for p in atom_map)
            word_positions = tuple(pos[p] for p in word_positions)
        return self._through(self._entry_map(lat, atom_map), word_positions)

    def _entry_map(self, lat, atom_map):
        """What ``normalize_raw`` makes of ``lat``, base image ``atom_map``,
        for any word holding every other atom: (entry, perm), ``perm`` the
        canonical position of each atom, or None: every such word vanishes."""
        # the lattice rules come before the canonical search, which is dearer
        if _lattice_kills(lat, _atoms_mask(atom_map)):
            return None
        entry, perm = entry_for(self.base, lat, tuple(atom_map))
        return None if entry.has_odd_aut else (entry, perm)

    def _through(self, emap, word):
        """Normalize a word without repeats through an ``_entry_map``."""
        if emap is None:
            return 0, ZERO
        entry, perm = emap
        sorted_word, sign = _word_sign(tuple(perm[p] for p in word))
        return sign, self._diagram(entry, sorted_word)

    def _over_interval(self, entry, lo, hi, reps, word_mask):
        """``normalize_raw`` over [lo, hi] of the entry, base atoms at the
        images of ``reps``, for the sorted word of ``word_mask``, which
        holds every new atom.  The first word without repeats, read off the
        covers of lo, builds the interval; the entry keeps only its map."""
        maps, key = entry.interval_maps, (lo, hi)
        if key not in maps:
            if _cover_repeats(entry, lo, word_mask):
                return 0, ZERO
            # through the module, so that the builds can be counted
            sub, *_, pos = lattice._interval(entry.lat, lo, hi)
            maps[key] = (self._entry_map(sub, tuple(pos[a] for a in reps)),
                         pos)
        emap, pos = maps[key]
        word = [pos[p] for p in _mask_atoms(word_mask)]
        if len(set(word)) != len(word):
            return 0, ZERO
        return self._through(emap, word)

    def _diagram(self, entry: CatalogEntry, sorted_word):
        """The diagram of a surviving sorted word over a canonical entry."""
        key = (entry.certificate, sorted_word)
        diag = self._diagrams.get(key)
        if diag is None:
            lat = entry.lat
            vj = lat.closure(_atoms_mask(sorted_word))
            meet_mask = lat.flat_masks[vj] & lat.flat_masks[entry.top]
            meet_rank = lat.ranks[lat.flat_index[meet_mask]]
            diag = self._diagrams[key] = Diagram(
                self, entry, sorted_word,
                len(sorted_word) - 2 * (lat.ranks[vj] - meet_rank),
                self.base.flat_index[meet_mask],
                len(sorted_word) - lat.ranks[vj])
        return diag

    def normalize(self, ext: ModularExtension, word_labels):
        """Public entry point: validate the extension, then normalize."""
        if not same_lattice(ext.base, self.base):
            raise MismatchedBase("extension is over a different base")
        ext.validate()
        lat = ext.lat
        for w in word_labels:
            if w not in lat.atom_index:
                raise ForeignFlat(f"unknown atom {w!r}")
        word = tuple(lat.atom_index[w] for w in word_labels)
        return self.normalize_raw(lat, ext.embedding.atom_map, word)

    def unit(self) -> Diagram:
        sign, diag = self.normalize_raw(self.base,
                                        range(self.base.n_atoms), ())
        assert sign == 1
        return diag

    def atom_diagram(self, label) -> Diagram:
        sign, diag = self.normalize_raw(self.base,
                                        range(self.base.n_atoms),
                                        (self.base.atom_index[label],))
        assert sign == 1 and diag is not ZERO
        return diag

    # ------------------------------------------------------------------
    # contraction and differential

    def contractible_positions(self, diag: Diagram):
        """Positions in the stored word whose atoms are contractible.

        In a normalized nonzero diagram no word atom is the lone word atom
        outside a flat over the base image (it would be a coloop, a factor
        missing the base), so contractible means exactly: not below the
        base image.
        """
        self._own(diag)
        return [k for k, p in enumerate(diag.word) if p >= diag.entry.n_base]

    def contract(self, diag: Diagram, position: int):
        """Contract the word atom at the given (0-based) stored position."""
        self._own(diag)
        word = diag.word
        if not 0 <= position < len(word):
            raise NotContractible(f"no word position {position}")
        p = word[position]
        entry = diag.entry
        if p < entry.n_base:
            raise NotContractible("atom lies below the base image")
        return self._over_interval(entry, entry.atom_flats[p], entry.lat.top,
                                   range(entry.n_base),
                                   _atoms_mask(word) ^ (1 << p))

    def _own(self, diag: Diagram):
        if diag.algebra is not self:
            raise MismatchedBase("diagram is over a different base")

    def differential_diagram(self, diag: Diagram) -> Combination:
        terms = self._differentials.get(diag)
        if terms is None:
            out = Combination()
            for k in self.contractible_positions(diag):
                sign, res = self.contract(diag, k)
                out.add_term(sign * (-1) ** k, res)
            terms = self._differentials[diag] = tuple(out.coeffs.items())
        return Combination(terms)

    def differential(self, vec: Combination) -> Combination:
        out = Combination()
        for d, c in vec.coeffs.items():
            for d2, c2 in self.differential_diagram(d).coeffs.items():
                out.add_term(c * c2, d2)
        return out

    # ------------------------------------------------------------------
    # product

    def _pushout_machinery(self, e1: CatalogEntry, e2: CatalogEntry):
        """The pushout of two entries along the base, and the position
        there of each atom of ``e2``; ``e1``'s atoms keep theirs."""
        base = self.base
        nb = base.n_atoms
        l1, l2 = e1.lat, e2.lat
        n1 = e1.level
        labels = base.atoms + _fresh_labels("p", n1 + e2.level,
                                            base.atom_index)
        # the second side's new atoms follow the first side's
        pos2 = tuple(i if i < nb else i + n1 for i in range(l2.n_atoms))
        return parallel_connection(l1, range(l1.n_atoms), l2, pos2,
                                   (1 << nb) - 1, base.rank_of_mask,
                                   labels), pos2

    def product(self, d1: Diagram, d2: Diagram) -> Combination:
        self._own(d1)
        self._own(d2)
        terms = self._products.get((d1, d2))
        if terms is None:
            nb = self.base.n_atoms
            if any(p < nb and p in d1.word for p in d2.word):
                # the pushout keeps the base positions, so a base atom in
                # both words repeats: normalize_raw's zero, without a pushout
                terms = ()
            else:
                # one pushout for both orders, the lesser certificate first;
                # the word keeps the order asked for, and so the sign
                a, b = sorted((d1, d2), key=lambda d: d.entry.certificate)
                key = (a.entry.certificate, b.entry.certificate)
                if key not in self._pushout_cache:
                    lat, pos2 = self._pushout_machinery(a.entry, b.entry)
                    self._pushout_cache[key] = (
                        self._entry_map(lat, range(nb)), pos2)
                emap, pos2 = self._pushout_cache[key]
                w2 = tuple(pos2[p] for p in b.word)
                sign, res = self._through(emap, a.word + w2 if a is d1
                                          else w2 + a.word)
                terms = () if res is ZERO else ((res, sign),)
            self._products[d1, d2] = terms
        return Combination(terms)

    def product_vectors(self, v1: Combination, v2: Combination) -> Combination:
        out = Combination()
        for a, ca in v1.coeffs.items():
            for b, cb in v2.coeffs.items():
                for d, c in self.product(a, b).coeffs.items():
                    out.add_term(ca * cb * c, d)
        return out

    # ------------------------------------------------------------------
    # comparison morphism into the Orlik-Solomon algebra

    def to_os(self, diag_or_vec) -> OSElement:
        reduce_set = os_context(self.base).reduce_set
        out = {}
        for d, c in _vector(diag_or_vec).coeffs.items():
            self._own(d)
            if any(p >= d.entry.n_base for p in d.word):
                continue  # some word atom is contractible: maps to zero
            # a sorted word of base atoms, at their base positions
            for m, c2 in reduce_set(_atoms_mask(d.word)).items():
                out[m] = out.get(m, 0) + c * c2
        return OSElement.from_dict(self.base, out)

    # ------------------------------------------------------------------
    # cooperadic coproduct

    def coproduct(self, diag: Diagram, flat: int) -> Combination:
        """Split along a proper base flat into lower/upper diagram pairs."""
        base = self.base
        if flat in (base.bottom, base.top):
            raise ImproperFlat("coproduct requires a proper flat")
        self._own(diag)
        terms = self._coproducts.get((diag, flat))
        if terms is None:
            terms = tuple(self._split(diag, flat).coeffs.items())
            self._coproducts[diag, flat] = terms
        return Combination(terms)

    def _split(self, diag: Diagram, flat: int) -> Combination:
        """The coproduct, computed afresh.

        Each flat f of the entry meeting the base in ``flat`` gives the pair
        of diagrams on [0, f] and [f, top].  Only the entry's live flats,
        whose intervals both survive the factor rule, are visited.  The
        upper factor goes first, which spares the lower interval when it
        vanishes; the lower word cannot repeat, its atoms being those of f.
        """
        base = self.base
        low_alg, low_reps = _base_factor(base, base.bottom, flat)
        up_alg, up_reps = _base_factor(base, flat, base.top)
        entry = diag.entry
        lat = entry.lat
        masks = lat.flat_masks
        out = Combination()
        word_mask = _atoms_mask(diag.word)
        for f in _live_flats(entry).get(base.flat_masks[flat], ()):
            in_mask, out_mask = word_mask & masks[f], word_mask & ~masks[f]
            # upper factor: interval above f, base = interval above flat.
            # f meets the base in flat, so a base atom outside flat lies
            # outside f and f v a covers f.
            s_up, d_up = up_alg._over_interval(entry, f, lat.top, up_reps,
                                               out_mask)
            if d_up is ZERO:
                continue

            # lower factor: interval below f, base = interval below flat
            s_lo, d_lo = low_alg._over_interval(entry, lat.bottom, f,
                                                low_reps, in_mask)
            if d_lo is ZERO:
                continue
            out.add_term(_merge_sign(in_mask, out_mask) * s_lo * s_up,
                         (d_lo, d_up))
        return out

    # ------------------------------------------------------------------
    # relabeling and grading components

    def relabel(self, iso: Embedding, diag: Diagram):
        """Pull a diagram over the iso's target back to this base.

        ``iso`` maps this algebra's base isomorphically onto the base of
        the diagram.
        """
        if not same_lattice(iso.source, self.base):
            raise NotIso("isomorphism source is not this base")
        tgt = iso.target
        if tgt.n_atoms != self.base.n_atoms or tgt.n_flats != self.base.n_flats:
            raise NotIso("not an isomorphism")
        algebra_for(tgt)._own(diag)
        return self.normalize_raw(diag.entry.lat, iso.atom_map, diag.word)

    def grading_restrict(self, diag: Diagram):
        """MD(L, F) -> MD([0,F], top): restrict the extension below the image
        of the grading flat."""
        self._own(diag)
        flat = diag.grading
        low_alg, reps = _base_factor(self.base, self.base.bottom, flat)
        sub, pos = _restrict(diag.entry.lat, self.base.flat_masks[flat]
                             | _atoms_mask(diag.word))
        return low_alg.normalize_raw(sub, tuple(pos[a] for a in reps),
                                     tuple(pos[p] for p in diag.word))

    def grading_extend(self, flat: int, low_diag: Diagram):
        """MD([0,F], top) -> MD(L, F): push the extension out along the base."""
        base = self.base
        low_alg, pos = _base_factor(base, base.bottom, flat)
        low_alg._own(low_diag)
        n_new = low_diag.entry.level
        # the low base atoms sit at their base positions, the new atoms last
        pos += [base.n_atoms + k for k in range(n_new)]

        labels = base.atoms + _fresh_labels("q", n_new, base.atom_index)
        big = parallel_connection(base, range(base.n_atoms),
                                  low_diag.entry.lat, pos,
                                  base.flat_masks[flat], base.rank_of_mask,
                                  labels)
        return self.normalize_raw(big, range(base.n_atoms),
                                  tuple(pos[p] for p in low_diag.word))

    # ------------------------------------------------------------------
    # bounded bases and cohomology

    def diagrams_within(self, bounds):
        """All normalized diagrams with full-support words over the bounded
        extension catalog, grouped by (grading flat, degree).

        ``bounds`` is (new atoms, extra rank); a third slot, which
        bench/worker.py still passes, is ignored.
        """
        # the third slot goes when bench/worker.py drops AXIOM_CAP
        blocks = {}
        for entry in catalog(self.base, *bounds[:2]):
            new_mask = ((1 << entry.lat.n_atoms) - 1) ^ entry.base_mask
            if entry.has_odd_aut or _lattice_kills(entry.lat, entry.base_mask):
                continue
            for smask in range(1 << entry.n_base):
                word = tuple(_mask_atoms(new_mask | smask))
                diag = self._diagram(entry, word)
                blocks.setdefault((diag.grading, diag.degree),
                                  []).append(diag)
        for k in blocks:
            blocks[k].sort(key=lambda d: d.key)
        return blocks

    def basis(self, grading: int, degree: int, bounds):
        _check_flats(self.base, grading)
        return list(self.diagrams_within(bounds).get((grading, degree), []))

    def cohomology_block(self, grading: int, bounds, *, deadline=None):
        """Truncated cohomology of the fixed-grading subcomplex.

        The enumerated basis is closed under the differential: a diagram
        reached by contraction stays within the bounds, so every target is
        a basis diagram one degree up, of the same grading and nullity.

        Contraction removes one word atom and lowers the word's rank by
        one, so the complex is a direct sum over the nullity of the word.
        Each (nullity, degree) cell has its own matrix, at basis positions
        in the degree, and is ranked on its own; the cell ranks sum to the
        degree ranks.  Past ``deadline``, a ``time.monotonic()`` instant
        checked every 4,096 columns, ``ResourceLimit`` is raised.
        """
        from .linalg import IntegerMatrix, betti_from_ranks, rank as matrix_rank
        _check_flats(self.base, grading)
        new_atoms, extra_rank = bounds      # a pair: no third slot here
        bounds = (new_atoms, extra_rank)
        grading_rank = self.base.ranks[grading]
        # never empty: the word of the grading's own atoms over the base
        # itself is a diagram of that grading at every bound
        blocks = {deg: diags
                  for (g, deg), diags in self.diagrams_within(bounds).items()
                  if g == grading}
        dims = {deg: len(ds) for deg, ds in blocks.items()}
        pos = {d: i for ds in blocks.values() for i, d in enumerate(ds)}
        degrees = range(min(dims), max(dims) + 1)
        cell_dims = {}
        cells = {}          # (nullity, degree) -> IntegerMatrix
        columns = (d for k in degrees for d in blocks.get(k, ()))
        for n, diag in enumerate(columns, 1):
            if n & 4095 == 0 and deadline is not None \
                    and time.monotonic() > deadline:
                raise ResourceLimit("timeout exceeded in the cohomology columns")
            k = diag.degree
            cell = (diag.nullity, k)
            cell_dims[cell] = cell_dims.get(cell, 0) + 1
            for d2, c in self.differential_diagram(diag).coeffs.items():
                assert (d2 in pos and d2.degree == k + 1
                        and d2.grading == grading and d2.nullity == cell[0])
                m = cells.get(cell)
                if m is None:
                    m = cells[cell] = IntegerMatrix(dims[k + 1], dims[k])
                m.set(pos[d2], pos[diag], c)
        cell_ranks = {cell: matrix_rank(m) for cell, m in cells.items()}
        ranks = dict.fromkeys(degrees, 0)
        for (_, k), r in cell_ranks.items():
            ranks[k] += r
        betti = betti_from_ranks(dims, ranks)
        cell_betti = {}
        for n in {n for n, _ in cell_dims}:
            per_degree = betti_from_ranks(
                {d: v for (m, d), v in cell_dims.items() if m == n},
                {d: v for (m, d), v in cell_ranks.items() if m == n})
            cell_betti.update(((n, d), v) for d, v in per_degree.items())
        return CohomologyBlock(grading, bounds, dims, ranks, betti, cells,
                               grading_rank, cell_betti)


def _splits_off_base(lat, base_mask, lo, hi):
    """Whether the nontrivial interval [lo, hi] of ``lat`` (flat masks) has
    a factor whose atoms outside ``lo`` all miss ``base_mask``: every word
    over the interval then vanishes.  An interval without base atoms is
    itself such a factor."""
    return any(_separators(lat, lo, hi, hi & ~lo & ~base_mask))


def _live_flats(entry: CatalogEntry):
    """The entry flats f meeting the base in a proper flat whose [0, f] and
    [f, top] both survive the factor rule, by the mask of that base flat:
    the only flats a coproduct splits at.  Kept on the entry."""
    live = entry.live_flats
    if live is None:
        lat, base_mask = entry.lat, entry.base_mask
        full = lat.flat_masks[lat.top]
        live = {}
        for f, m in enumerate(lat.flat_masks):
            if (m & base_mask not in (0, base_mask)
                    and not _splits_off_base(lat, base_mask, m, full)
                    and not _splits_off_base(lat, base_mask, 0, m)):
                live.setdefault(m & base_mask, []).append(f)
        entry.live_flats = live
    return live


def _cover_repeats(entry: CatalogEntry, f, out_mask):
    """Whether two atoms of ``out_mask``, all outside f, lie in one cover
    of f (a lies in f v a only): a word over [f, hi] repeats a letter."""
    lat = entry.lat
    covered = 0
    for a in _mask_atoms(out_mask):
        if covered >> a & 1:
            return True
        covered |= lat.flat_masks[lat.join(f, entry.atom_flats[a])]
    return False


def _lattice_kills(lat, base_mask):
    """Whether a lattice rule kills the words over ``lat`` holding every
    atom outside the base image ``base_mask``."""
    return (_splits_off_base(lat, base_mask, 0, lat.flat_masks[lat.top])
            or _modular_flat_kills(lat, base_mask))


def _modular_flat_kills(lat, base_mask):
    """Whether a modular flat above the base image misses exactly two
    (word) atoms.  With one, the flat is a hyperplane whose complement is
    a coloop, a factor missing the base that ``_splits_off_base`` finds."""
    masks = lat.flat_masks
    top_mask = masks[lat.closure(base_mask)]
    return any(m & top_mask == top_mask
               and m.bit_count() == lat.n_atoms - 2
               and is_modular(lat, f) for f, m in enumerate(masks))


def _base_factor(base, lo, hi):
    """The algebra of the base interval [lo, hi] and, for each of its
    atoms, the first base atom there."""
    sub, _, _, pos = interval_at(base, lo, hi)
    return algebra_for(sub), _first_atoms(pos, sub.n_atoms)


def _first_atoms(pos, n):
    """For each of the ``n`` atoms of an interval, the first atom that
    ``pos`` (the positions of interval_at) sends to it."""
    reps = [None] * n
    for a in range(len(pos) - 1, -1, -1):
        if pos[a] is not None:
            reps[pos[a]] = a
    return reps


def determining_bounds(grading_rank: int, nullity: int, degree: int):
    """Smallest (new atoms, extra rank) bounds at which the truncated H^degree
    of the nullity summand equals its untruncated value; None when the cell
    is empty at every bound.

    A diagram in cell (n, d) of a grading of rank r has extra rank
    k = r + n - d and a word of r + k + n atoms, every new atom among them.
    The cell's cohomology sees degrees d - 1, d and d + 1, and degree d - 1
    needs extra rank k + 1 and up to r + k + 1 + n new atoms.  The
    extension catalog is complete at every bound, so nothing else limits
    exactness.
    """
    k = grading_rank + nullity - degree
    if k < 0:
        return None
    return (grading_rank + k + 1 + nullity, k + 1)


@dataclass(frozen=True)
class CohomologyBlock:
    grading: int
    bounds: tuple
    dims: dict
    ranks: dict
    betti: dict
    cells: dict          # (nullity, degree) -> IntegerMatrix
    grading_rank: int
    cell_betti: dict     # (nullity, degree) -> Betti number
    healed: ClassVar[int] = 0   # md cohomology --json and bench read it

    def is_exact(self, nullity: int, degree: int) -> bool:
        """Whether the cell's Betti number is the untruncated value."""
        need = determining_bounds(self.grading_rank, nullity, degree)
        return need is None or (self.bounds[0] >= need[0]
                                and self.bounds[1] >= need[1])

    @property
    def exact_cells(self):
        """The nonempty (nullity, degree) cells whose Betti number is exact."""
        return tuple(sorted(c for c in self.cell_betti if self.is_exact(*c)))

    def cell_report(self):
        """Per-nullity Betti table and the exact cells, JSON-ready."""
        table = {}
        for (n, d), v in sorted(self.cell_betti.items()):
            table.setdefault(str(n), {})[str(d)] = v
        return {"nullity_betti": table,
                "exact_cells": [list(c) for c in self.exact_cells]}


def stable_degrees(lo: CohomologyBlock, hi: CohomologyBlock):
    """Per-degree agreement of the total Betti numbers of two truncations."""
    return {k: lo.betti.get(k, 0) == hi.betti.get(k, 0)
            for k in sorted(set(lo.betti) | set(hi.betti))}


def cohomology(base: GeometricLattice, grading: int, max_new_atoms: int,
               max_extra_rank: int):
    """Truncated Betti numbers at the given bounds and at one extra atom,
    with a per-degree stabilization report."""
    alg = algebra_for(base)
    lo = alg.cohomology_block(grading, (max_new_atoms, max_extra_rank))
    hi = alg.cohomology_block(grading, (max_new_atoms + 1, max_extra_rank))
    return lo, hi, stable_degrees(lo, hi)


# ----------------------------------------------------------------------
# public helpers mirroring the operation surface


def normalize(ext: ModularExtension, word_labels):
    return algebra_for(ext.base).normalize(ext, word_labels)


def contractible_atoms(diag: Diagram, base: GeometricLattice):
    alg = algebra_for(base)
    return [diag.entry.lat.atoms[diag.word[k]]
            for k in alg.contractible_positions(diag)]


def differential(base: GeometricLattice, vec) -> Combination:
    alg = algebra_for(base)
    return alg.differential(_vector(vec))


def product(base: GeometricLattice, d1, d2) -> Combination:
    alg = algebra_for(base)
    return alg.product_vectors(_vector(d1), _vector(d2))


def I_morphism(base: GeometricLattice, diag_or_vec) -> OSElement:
    return algebra_for(base).to_os(diag_or_vec)


def coproduct(base: GeometricLattice, diag: Diagram, flat: int) -> Combination:
    return algebra_for(base).coproduct(diag, flat)


def md_relabel(iso: Embedding, base: GeometricLattice):
    """Pullback map on diagrams along an isomorphism out of ``base``."""
    alg = algebra_for(base)

    def mapper(diag):
        return alg.relabel(iso, diag)
    return mapper


def grading_component_iso(base: GeometricLattice, flat: int):
    """Mutually inverse maps between the fixed-grading component and the
    top component over the lower interval."""
    alg = algebra_for(base)

    def forward(diag):
        return alg.grading_restrict(diag)

    def backward(low_diag):
        return alg.grading_extend(flat, low_diag)
    return forward, backward


def basis(base: GeometricLattice, grading: int, degree: int,
          max_new_atoms: int, max_extra_rank: int):
    return algebra_for(base).basis(grading, degree,
                                   (max_new_atoms, max_extra_rank))
