"""The Orlik-Solomon algebra of a geometric lattice.

Elements are integer combinations of monomials avoiding broken circuits
(a broken circuit is a circuit minus its least atom in the lattice's atom
order).  Words reduce to this basis by straightening along circuit
boundaries; sign conventions order circuit products increasingly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ForeignFlat, ImproperFlat, LatticeMismatch, SpecParse
from .lattice import (GeometricLattice, _atoms_mask, _mask_atoms, _merge_sign,
                      _word_sign, interval_at, same_lattice)


class OSContext:
    """Per-lattice machinery: circuits, broken circuits, nbc basis, reductions."""

    def __init__(self, lat: GeometricLattice):
        self.lat = lat
        circuits = lat.circuits_masks()
        self.broken = []
        self.circuit_of_broken = {}
        for c in circuits:
            least = c & -c
            b = c ^ least
            self.broken.append(b)
            self.circuit_of_broken[b] = c
        self.broken.sort(key=lambda m: (m.bit_count(), tuple(_mask_atoms(m))))
        self._reduce_memo = {}
        self._nbc = None

    def is_nbc(self, mask: int) -> bool:
        return all(mask & b != b for b in self.broken)

    def nbc_masks(self):
        if self._nbc is None:
            out = [[] for _ in range(self.lat.rank + 1)]
            full = 1 << self.lat.n_atoms
            for m in range(full):
                if self.is_nbc(m):
                    out[m.bit_count()].append(m)
            self._nbc = tuple(tuple(level) for level in out)
        return self._nbc

    def reduce_set(self, mask: int):
        """Class of the increasing monomial on ``mask`` in the nbc basis."""
        memo = self._reduce_memo.get(mask)
        if memo is not None:
            return memo
        containing = [b for b in self.broken if mask & b == b]
        if not containing:
            result = {mask: 1}
        else:
            b = containing[0]  # least broken circuit first
            circuit = self.circuit_of_broken[b]
            rest = mask ^ b
            atoms_c = list(_mask_atoms(circuit))
            # e_mask = unmerge * e_b ∧ e_rest, then straighten e_b along the
            # circuit boundary and re-sort each term
            unmerge = _merge_sign(b, rest)
            result = {}
            for j in range(1, len(atoms_c)):
                # dropping the (j+1)-th smallest atom carries sign (-1)^(j+1)
                dropped = circuit ^ (1 << atoms_c[j])
                sign = 1 if j % 2 else -1
                if dropped & rest:
                    continue
                merged = dropped | rest
                msign = _merge_sign(dropped, rest)
                for m2, c2 in self.reduce_set(merged).items():
                    result[m2] = result.get(m2, 0) + unmerge * sign * msign * c2
            result = {m: c for m, c in result.items() if c}
        self._reduce_memo[mask] = result
        return result


def os_context(lat: GeometricLattice) -> OSContext:
    """The lattice's context, built once and kept on the lattice."""
    if lat._os is None:
        lat._os = OSContext(lat)
    return lat._os


@dataclass(frozen=True)
class OSElement:
    """Integer combination of nbc monomials over a fixed lattice."""

    lattice: GeometricLattice
    coeffs: tuple  # sorted tuple of (mask, int)

    @classmethod
    def from_dict(cls, lat, d):
        return cls(lat, tuple(sorted((m, c) for m, c in d.items() if c)))

    @classmethod
    def zero(cls, lat):
        return cls(lat, ())

    @classmethod
    def one(cls, lat):
        return cls.from_dict(lat, {0: 1})

    def as_dict(self):
        return dict(self.coeffs)

    @property
    def is_zero(self):
        return not self.coeffs

    def __add__(self, other):
        if not same_lattice(self.lattice, other.lattice):
            raise LatticeMismatch("operands live over different lattices")
        d = dict(self.coeffs)
        for m, c in other.coeffs:
            d[m] = d.get(m, 0) + c
        return OSElement.from_dict(self.lattice, d)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        return OSElement.from_dict(self.lattice,
                                   {m: c * v for m, v in self.coeffs})

    def monomials(self):
        """Human-readable view: list of (atom-label tuple, coefficient)."""
        lat = self.lattice
        return [(tuple(lat.atoms[i] for i in _mask_atoms(m)), c)
                for m, c in self.coeffs]


def reduce_to_nbc(lat: GeometricLattice, word) -> OSElement:
    """Class of the product of generators listed by atom label, in order."""
    try:
        positions = [lat.atom_index[w] for w in word]
    except KeyError as ex:
        raise ForeignFlat(f"unknown atom {ex.args[0]!r}") from None
    sorted_pos, sign = _word_sign(positions)
    if sign == 0:
        return OSElement.zero(lat)
    reduced = os_context(lat).reduce_set(_atoms_mask(sorted_pos))
    return OSElement.from_dict(lat, {m: sign * c for m, c in reduced.items()})


def multiply(a: OSElement, b: OSElement) -> OSElement:
    if not same_lattice(a.lattice, b.lattice):
        raise LatticeMismatch("operands live over different lattices")
    lat = a.lattice
    ctx = os_context(lat)
    out = {}
    for m1, c1 in a.coeffs:
        for m2, c2 in b.coeffs:
            if m1 & m2:
                continue
            sign = _merge_sign(m1, m2)
            for m3, c3 in ctx.reduce_set(m1 | m2).items():
                out[m3] = out.get(m3, 0) + sign * c1 * c2 * c3
    return OSElement.from_dict(lat, out)


def nbc_basis(lat: GeometricLattice):
    """nbc monomials per degree as tuples of atom labels."""
    ctx = os_context(lat)
    return [[tuple(lat.atoms[i] for i in _mask_atoms(m)) for m in level]
            for level in ctx.nbc_masks()]


def hilbert_series(lat: GeometricLattice):
    return [len(level) for level in os_context(lat).nbc_masks()]


def os_graded_dims(lat: GeometricLattice):
    """Dimension per flat; nbc monomials are grouped by the flat they span."""
    out = {}
    for degree, level in enumerate(os_context(lat).nbc_masks()):
        for m in level:
            f = lat.closure(m)
            out[f] = out.get(f, 0) + 1
            assert f != lat.top or degree == lat.rank, \
                "top-graded part not concentrated in top degree"
    return out


@dataclass(frozen=True)
class HolonomyPresentation:
    """Generators indexed by atoms; one bracket relation per (rank-2 flat,
    atom below it) pair: the atom's generator against the flat's sum."""

    generators: tuple               # atom labels
    relations: tuple                # (atom label, tuple of atom labels in the flat)

    def counts(self):
        return len(self.generators), len(self.relations)


def holonomy_presentation(lat: GeometricLattice) -> HolonomyPresentation:
    gens = lat.atoms
    rels = []
    if lat.rank >= 2:
        for f in lat.by_rank[2]:
            flat_atoms = lat.atoms_of(f)
            for a in flat_atoms:
                rels.append((a, flat_atoms))
    return HolonomyPresentation(gens, tuple(rels))


def koszul_series_check(lat: GeometricLattice, order: int):
    """Necessary numerical condition: the coefficientwise inverse of the
    Hilbert series evaluated at -t must stay nonnegative.

    Returns (passed, coefficients, first_negative_index_or_None).
    """
    if order > 20:
        raise SpecParse("series order capped at 20")
    hilb = hilbert_series(lat)
    h = [(-1) ** i * hilb[i] if i < len(hilb) else 0
         for i in range(order + 1)]
    a = [1]   # h[0] = 1, so the inverse has integer coefficients
    for k in range(1, order + 1):
        a.append(-sum(h[j] * a[k - j] for j in range(1, k + 1)))
    fail = next((i for i, v in enumerate(a) if v < 0), None)
    return fail is None, a, fail


def os_coproduct(elem: OSElement, flat: int):
    """Split an element across a proper flat into lower and upper pieces.

    Returns a dict mapping (lower-mask, upper-mask) over the two interval
    lattices to coefficients, together with the interval lattices.
    A generator below the flat goes to the lower side; any other generator
    maps to its join with the flat on the upper side.
    """
    lat = elem.lattice
    if flat in (lat.bottom, lat.top):
        raise ImproperFlat("coproduct needs a proper flat")
    lower, _, _, low_pos = interval_at(lat, lat.bottom, flat)
    upper, _, _, up_pos = interval_at(lat, flat, lat.top)
    fmask = lat.flat_masks[flat]
    low_ctx = os_context(lower)
    up_ctx = os_context(upper)
    out = {}
    for m, c in elem.coeffs:
        below, above = m & fmask, m & ~fmask
        up_positions = [up_pos[i] for i in _mask_atoms(above)]
        assert None not in up_positions
        lsorted, lsign = _word_sign([low_pos[i] for i in _mask_atoms(below)])
        usorted, usign = _word_sign(up_positions)
        if lsign == 0 or usign == 0:
            continue
        total = c * _merge_sign(below, above) * lsign * usign
        for lm2, c2 in low_ctx.reduce_set(_atoms_mask(lsorted)).items():
            for um2, c3 in up_ctx.reduce_set(_atoms_mask(usorted)).items():
                key = (lm2, um2)
                out[key] = out.get(key, 0) + total * c2 * c3
    out = {k: v for k, v in out.items() if v}
    return out, lower, upper
