import gc
import hashlib
import itertools

import pytest

from conftest import (assert_geometric_bruteforce, brute_closure, flats_of,
                      grading_extension_lattice, group_closure)
from mdg.canon import canonical_form, certificates_equal
from mdg.corpus import build_corpus_lattice, seven_point_plane
from mdg.diagrams import ZERO, algebra_for
from mdg.errors import DegenerateCut, MismatchedBase, NotAModularCut, \
    NotGeometric, NotModularCoatom, ResourceLimit
import mdg.extensions
from mdg.extensions import (
    _entry_of_form,
    _valid_cuts,
    CatalogEntry,
    entry_for,
    ModularCut,
    ModularExtension,
    catalog,
    enumerate_modular_extensions,
    identity_extension,
    is_modular_cut,
    modular_cut,
    pushout,
    single_element_extension,
    symmetric_extension,
    truncation,
)
from mdg.lattice import (
    Embedding,
    build_boolean,
    build_from_flats,
    build_partition_lattice,
    direct_product,
    interval,
    restriction,
)
from mdg.modularity import is_modular


def test_modular_cut_examples(pi3, pi4):
    ok, _ = is_modular_cut(pi3, [pi3.top])
    assert ok
    # principal cuts are always modular cuts
    for lat in (pi3, pi4):
        for f in range(lat.n_flats):
            up = [g for g in range(lat.n_flats) if lat.leq(f, g)]
            ok, _ = is_modular_cut(lat, up)
            assert ok
    # two atoms of the triangle form a modular pair with meet outside
    a12 = pi3.flat_of_atoms(["1-2"])
    a13 = pi3.flat_of_atoms(["1-3"])
    ok, pair = is_modular_cut(pi3, [a12, a13, pi3.top])
    assert not ok and set(pair) == {a12, a13}
    with pytest.raises(NotAModularCut):
        modular_cut(pi3, [a12, a13, pi3.top])


def test_modular_cut_witness_of_a_set_not_upward_closed(pi4):
    # the atom 1-2 with only some flats above it: the witness is the first
    # flat in index order above 1-2 and outside the set
    a12 = pi4.flat_of_atoms(["1-2"])
    pair = pi4.flat_of_atoms(["1-2", "3-4"])
    ok, witness = is_modular_cut(pi4, [a12, pair, pi4.top])
    assert not ok
    assert witness == (a12, pi4.flat_of_atoms(["1-2", "1-3", "2-3"]))


def test_truncation_boolean_corank(b3):
    t = truncation(b3, modular_cut(b3, [b3.top]))
    assert t.rank == 2 and t.n_atoms == 3
    # all coatoms removed: the rank-2 uniform lattice
    assert t.n_flats == 5


def test_truncation_empty_cut_identity(pi3):
    t = truncation(pi3, modular_cut(pi3, []))
    assert t.flat_masks == pi3.flat_masks


def test_truncation_can_reject_non_simple(pi3):
    # collapsing the triangle's coatoms makes all atoms parallel
    with pytest.raises(NotGeometric):
        truncation(pi3, modular_cut(pi3, [pi3.top]))


def test_cut_of_a_rebuilt_lattice_is_accepted():
    # a cut names flats by index, so a lattice with the same atoms and flats
    # takes it; a different lattice does not
    a, b = build_corpus_lattice("b3"), build_corpus_lattice("b3")
    cut = modular_cut(a, [a.top])
    assert truncation(b, cut).flat_masks == truncation(a, cut).flat_masks
    ext, _ = single_element_extension(b, cut, "e")
    assert ext.flat_masks == single_element_extension(a, cut, "e")[0].flat_masks
    with pytest.raises(NotAModularCut):
        truncation(build_corpus_lattice("pi3"), cut)


def test_single_element_extension_u24(pi3):
    ext, emb = single_element_extension(pi3, modular_cut(pi3, [pi3.top]), "e")
    assert ext.rank == 2 and ext.n_atoms == 4
    # brute closure oracle: every pair of atoms spans the top
    fl = flats_of(ext)
    assert_geometric_bruteforce(fl)
    for a, b in itertools.combinations(ext.atoms, 2):
        assert brute_closure(fl, frozenset((a, b))) == frozenset(ext.atoms)
    # iterating gives the rank-2 uniform lattice on 5 atoms
    ext2, _ = single_element_extension(ext, modular_cut(ext, [ext.top]), "f")
    assert ext2.rank == 2 and ext2.n_atoms == 5 and ext2.n_flats == 7


def test_single_element_extension_matches_product_truncation(pi3, pi4):
    # the direct construction agrees with truncating the product with a
    # two-element chain along the shifted cut
    for lat in (pi3, pi4):
        f = lat.by_rank[2][0]
        cut_members = [g for g in range(lat.n_flats) if lat.leq(f, g)]
        ext, _ = single_element_extension(lat, modular_cut(lat, cut_members),
                                          "e")
        chain = build_boolean(1, atoms=("e",))
        prod = direct_product(lat, chain)
        ebit = 1 << prod.atom_index["e"]
        shifted = [g for g, m in enumerate(prod.flat_masks)
                   if m & ebit and (m ^ ebit) in lat.flat_index
                   and lat.flat_index[m ^ ebit] in cut_members]
        t = truncation(prod, modular_cut(prod, shifted))
        assert t.flat_masks == ext.flat_masks


def test_single_element_extension_free_is_product(pi3):
    ext, _ = single_element_extension(pi3, modular_cut(pi3, []), "e")
    prod = direct_product(pi3, build_boolean(1, atoms=("e",)))
    assert ext.flat_masks == prod.flat_masks


def test_single_element_extension_degenerate(pi3):
    atom_cut = [pi3.flat_of_atoms(["1-2"]), pi3.top]
    with pytest.raises(DegenerateCut):
        single_element_extension(pi3, modular_cut(pi3, atom_cut), "e")


def test_extension_validation (pi3, pi4):
    emb = Embedding(pi3, pi4, tuple(pi4.atom_index[a] for a in pi3.atoms))
    ext = ModularExtension.build(emb)
    assert ext.top == pi4.flat_of_atoms(["1-2", "1-3", "2-3"])
    assert ext.new_atom_labels() == ("1-4", "2-4", "3-4")


def test_pushout_plane7(plane7):
    r1, _ = restriction(plane7, ["a", "b", "c", "d"])
    r2, _ = restriction(plane7, ["a", "b'", "c'", "d'"])
    base, _ = restriction(r1, ["a"])
    ext1 = ModularExtension.build(Embedding(base, r1, (r1.atom_index["a"],)))
    ext2 = ModularExtension.build(Embedding(base, r2, (r2.atom_index["a"],)))
    result, e1, e2 = pushout(ext1, ext2)
    assert certificates_equal(result.lat, plane7)
    # atoms identified per the atom-set description of the gluing
    assert set(result.lat.atoms) == {"a", "b", "c", "d", "b'", "c'", "d'"}
    e1.validate()
    e2.validate()


def test_pushout_unit_law(pi3, pi4):
    emb = Embedding(pi3, pi4, tuple(pi4.atom_index[a] for a in pi3.atoms))
    ext = ModularExtension.build(emb)
    ident = identity_extension(pi3)
    result, e1, e2 = pushout(ext, ident)
    image_labels = [result.lat.atoms[e1.atom_map[i]]
                    for i in range(pi4.n_atoms)]
    assert certificates_equal(result.lat, pi4, image_labels, list(pi4.atoms))


def test_pushout_rank_law_exhaustive(pi3, pi4):
    emb = Embedding(pi3, pi4, tuple(pi4.atom_index[a] for a in pi3.atoms))
    ext1 = ModularExtension.build(emb)
    ext2 = identity_extension(pi3)
    free, femb = single_element_extension(pi3, modular_cut(pi3, []), "z")
    ext3 = ModularExtension.build(femb)
    for a, b in [(ext1, ext1), (ext1, ext3), (ext3, ext1)]:
        result, e1, e2 = pushout(a, b)
        P = result.lat
        base = a.base
        base_all = (1 << base.n_atoms) - 1
        for f, m in enumerate(P.flat_masks):
            # rank law: rank(f) = rank of the two sides minus the base part
            a_part = a.lat.closure(_pull(P, a.lat, e1, m))
            b_part = b.lat.closure(_pull(P, b.lat, e2, m))
            common = base.rank_of_mask(m & base_all)
            assert P.ranks[f] == a.lat.ranks[a_part] + b.lat.ranks[b_part] \
                - common


def _pull(P, side, emb, mask):
    out = 0
    for i, t in enumerate(emb.atom_map):
        if mask >> t & 1:
            out |= 1 << i
    return out


def test_pushout_commutative_associative(pi3, pi4):
    emb = Embedding(pi3, pi4, tuple(pi4.atom_index[a] for a in pi3.atoms))
    ext1 = ModularExtension.build(emb)
    free, femb = single_element_extension(pi3, modular_cut(pi3, []), "z")
    ext2 = ModularExtension.build(femb)
    ab, _, _ = pushout(ext1, ext2)
    ba, _, _ = pushout(ext2, ext1)
    assert certificates_equal(ab.lat, ba.lat, list(pi3.atoms), list(pi3.atoms))
    ab_c, _, _ = pushout(ab, ext1)
    a_bc, _, _ = pushout(ext1, pushout(ext2, ext1)[0])
    assert certificates_equal(ab_c.lat, a_bc.lat,
                              list(pi3.atoms), list(pi3.atoms))


def test_pushout_restriction_compat(pi3, pi4):
    # restriction of the pushout to a subset containing the base atoms is
    # the pushout of the restrictions
    emb = Embedding(pi3, pi4, tuple(pi4.atom_index[a] for a in pi3.atoms))
    ext1 = ModularExtension.build(emb)
    result, e1, e2 = pushout(ext1, ext1)
    P = result.lat
    keep = [a for a in P.atoms if a != P.atoms[-1]]
    sub, _ = restriction(P, keep)
    side1 = [P.atoms[e1.atom_map[i]] for i in range(pi4.n_atoms)]
    r1set = [a for a in side1 if a in keep]
    sub1, _ = restriction(pi4, [pi4.atoms[i] for i, lab in
                                zip(range(pi4.n_atoms), side1)
                                if lab in keep])
    ext1r = ModularExtension.build(
        Embedding(pi3, sub1, tuple(sub1.atom_index[a] for a in pi3.atoms)))
    side2 = [P.atoms[e2.atom_map[i]] for i in range(pi4.n_atoms)]
    sub2, _ = restriction(pi4, [pi4.atoms[i] for i, lab in
                                zip(range(pi4.n_atoms), side2)
                                if lab in keep])
    ext2r = ModularExtension.build(
        Embedding(pi3, sub2, tuple(sub2.atom_index[a] for a in pi3.atoms)))
    expected, _, _ = pushout(ext1r, ext2r)
    assert certificates_equal(sub, expected.lat,
                              list(pi3.atoms), list(pi3.atoms))


def test_pushout_modularity_transport(pi3, pi4):
    # a modular flat above the base top on one side stays modular as the
    # pair with the other side's top
    emb = Embedding(pi3, pi4, tuple(pi4.atom_index[a] for a in pi3.atoms))
    ext1 = ModularExtension.build(emb)
    result, e1, e2 = pushout(ext1, ext1)
    P = result.lat
    for f in range(pi4.n_flats):
        if not pi4.leq(ext1.top, f) or not is_modular(pi4, f):
            continue
        image_mask = 0
        for i in range(pi4.n_atoms):
            if pi4.flat_masks[f] >> i & 1:
                image_mask |= 1 << e1.atom_map[i]
        other_top = e2.atom_image_mask()
        target = P.closure(image_mask | other_top)
        assert is_modular(P, target)


def test_pushout_mismatched_base(pi3, b2):
    with pytest.raises(MismatchedBase):
        pushout(identity_extension(pi3), identity_extension(b2))


def test_symmetric_extension_two_triangles(pi3, pi4):
    res = symmetric_extension(pi3, identity_extension(pi3),
                              pi3.flat_of_atoms(["1-2"]), "w")
    assert not res.degenerate
    assert certificates_equal(res.extension.lat, pi4)
    res.extension.validate()


def test_symmetric_extension_plane8(plane8):
    line4, _ = restriction(seven_point_plane(), ["a", "b", "c", "d"])
    res = symmetric_extension(line4, identity_extension(line4),
                              line4.flat_of_atoms(["a"]), "e")
    assert not res.degenerate
    assert certificates_equal(res.extension.lat, plane8)


def test_symmetric_extension_degenerate(pi3):
    coatom = pi3.flat_of_atoms(["1-2"])
    sub, _, _ = interval(pi3, pi3.bottom, coatom)
    res = symmetric_extension(pi3, identity_extension(sub), coatom, "w")
    assert res.degenerate
    assert res.cut_members == frozenset()
    prod = direct_product(pi3, build_boolean(1, atoms=("w",)))
    assert certificates_equal(res.extension.lat, prod)


def test_symmetric_extension_rejects_nonmodular_coatom(c4):
    bad = next(f for f in c4.by_rank[c4.rank - 1]
               if not is_modular(c4, f))
    with pytest.raises(NotModularCoatom):
        symmetric_extension(c4, identity_extension(c4), bad, "w")


def test_enumerate_bounds_zero(pi3):
    exts = enumerate_modular_extensions(pi3, 0, 0)
    assert len(exts) == 1
    assert exts[0].lat.flat_masks == pi3.flat_masks


def test_catalog_not_shared_after_id_reuse():
    # a freed lattice's id can be reused by the next one built; its catalog
    # must not be handed to the new lattice
    for _ in range(4):
        pi3 = build_partition_lattice(3)
        catalog(pi3, 1, 1)
        del pi3
        gc.collect()
        b2 = build_boolean(2)
        for entry in catalog(b2, 1, 1):
            assert entry.n_base == b2.n_atoms
            assert entry.lat.atoms[:entry.n_base] == b2.atoms


def test_catalog_extends_cached_levels(pi3):
    # a larger atom bound walks on from the entries a smaller one reached
    small = catalog(pi3, 2, 2)
    big = catalog(pi3, 3, 2)
    assert len(big) > len(small)
    assert all(a is b for a, b in zip(small, big))
    assert [(e.level, e.certificate) for e in big] == \
        sorted((e.level, e.certificate) for e in big)
    assert catalog(pi3, 2, 2) == small
    assert catalog(pi3, 3, 1) != big


def test_catalog_shares_entries_across_extra_rank_bounds():
    # one entry per (base, certificate), whichever bound reached it first
    pi3 = build_corpus_lattice("pi3")
    low = {e.certificate: e for e in catalog(pi3, 3, 1)}
    high = {e.certificate: e for e in catalog(pi3, 3, 2)}
    assert len(high) > len(low) > 1 and low.keys() <= high.keys()
    assert all(low[c] is high[c] for c in low)


def test_enumerate_entries_are_valid(pi3):
    for ext in enumerate_modular_extensions(pi3, 3, 1):
        ext.validate()
        assert is_modular(ext.lat, ext.top)


def test_enumerate_contains_trident_extension(pi3, pi4):
    want = canonical_form(pi4, fixed_atoms=["1-2", "1-3", "2-3"]).certificate
    cat = catalog(pi3, 3, 1)
    assert any(e.certificate == want for e in cat)


def test_enumerate_closed_under_deletion(pi3):
    cat = catalog(pi3, 3, 2)
    certs = {e.certificate for e in cat}
    for e in cat:
        for newpos in range(e.n_base, e.lat.n_atoms):
            keep = [a for i, a in enumerate(e.lat.atoms) if i != newpos]
            sub, _ = restriction(e.lat, keep)
            cf = canonical_form(sub, fixed_atoms=pi3.atoms)
            assert cf.certificate in certs


def test_enumerate_complete_against_brute_catalog(pi2):
    """Exhaustive oracle: every geometric lattice on the base atom plus up
    to two new atoms that contains the base as the interval below a
    modular atom, enumerated from scratch over all flat families."""
    base_atom = pi2.atoms[0]
    atom_sets = [
        (base_atom, "x"),
        (base_atom, "x", "y"),
    ]
    found = set()
    for atoms in atom_sets:
        n = len(atoms)
        subsets = [frozenset(s) for r in range(n + 1)
                   for s in itertools.combinations(atoms, r)]
        singles = [frozenset([a]) for a in atoms]
        full = frozenset(atoms)
        empty = frozenset()
        optional = [s for s in subsets
                    if s not in (empty, full) and len(s) >= 2]
        for bits in range(1 << len(optional)):
            fam = {empty, full, *singles}
            for i, s in enumerate(optional):
                if bits >> i & 1:
                    fam.add(s)
            try:
                ranks = assert_geometric_bruteforce(fam)
            except AssertionError:
                continue
            # base must be the full lower interval of its closure
            below = [f for f in fam if f <= frozenset([base_atom])]
            if len(below) != 2:
                continue
            lat = build_from_flats(atoms, fam, validate=False)
            f = lat.flat_of_atoms([base_atom])
            if not is_modular(lat, f):
                continue
            cf = canonical_form(lat, fixed_atoms=[base_atom])
            found.add(cf.certificate)
    got = {e.certificate for e in catalog(pi2, 2, 2)
           if e.lat.n_atoms >= 2}
    assert found == got


# catalogs whose entries with at most ORACLE_MAX_HYPERPLANES hyperplanes
# the brute-force oracle below checks (k4 is pi4 again)
ORACLE_CATALOGS = (("pi3", (4, 2)), ("pi4", (3, 2)), ("b2", (4, 2)),
                   ("b3", (3, 2)), ("c4", (3, 2)), ("plane8", (2, 2)))
ORACLE_MAX_HYPERPLANES = 12


def _oracle_cuts(entry):
    """Every usable cut of the entry, from all subsets of its hyperplanes:
    the flats whose hyperplanes all lie in the subset, kept when they form
    a modular cut that avoids the atoms and the flats below the base top,
    and whose single-element extension keeps the base top modular."""
    lat = entry.lat
    hyps = lat.by_rank[lat.rank - 1]
    above = [sum(1 << j for j, h in enumerate(hyps) if lat.leq(f, h))
             for f in range(lat.n_flats)]
    base_mask = entry.base_mask
    out = set()
    for bits in range(1 << len(hyps)):
        members = frozenset(f for f in range(lat.n_flats)
                            if above[f] & ~bits == 0)
        if any(lat.ranks[f] <= 1 or lat.leq(f, entry.top) for f in members):
            continue
        if not is_modular_cut(lat, members)[0]:
            continue
        child, _ = single_element_extension(lat, modular_cut(lat, members),
                                            "@x")
        if is_modular(child, child.closure(base_mask)):
            out.add(members)
    return out


@pytest.mark.parametrize("name,bounds", ORACLE_CATALOGS,
                         ids=[n for n, _ in ORACLE_CATALOGS])
def test_valid_cuts_complete_against_hyperplane_subsets(name, bounds):
    checked = 0
    for entry in catalog(build_corpus_lattice(name), *bounds):
        lat = entry.lat
        if lat.rank < 2 or len(lat.by_rank[lat.rank - 1]) > \
                ORACLE_MAX_HYPERPLANES:
            continue
        got = list(_valid_cuts(entry))
        assert len(got) == len(set(got))
        assert set(got) == _oracle_cuts(entry), entry.certificate
        checked += 1
    assert checked


# catalogs whose every entry's cuts, in the order _valid_cuts yields them,
# CUT_SEQUENCE_GOLDEN pins (no hyperplane limit: pi4 at (3,2) has entries
# with 18 hyperplanes)
CUT_SEQUENCE_CATALOGS = (("pi4", (3, 2)), ("k4", (3, 2)), ("plane8", (3, 2)),
                         ("pi3", (4, 2)), ("b3", (3, 2)))
CUT_SEQUENCE_GOLDEN = (
    "acf15553f4f3ce62f38913763e3d7c8a121432f5bf8566c81d7713ba50e6442b")


def test_valid_cuts_sequence_matches_golden_digest():
    # each entry, keyed by its certificate, then its cuts in yield order,
    # each as its sorted flat masks
    h = hashlib.sha256()
    for name, bounds in CUT_SEQUENCE_CATALOGS:
        for entry in catalog(build_corpus_lattice(name), *bounds):
            masks = entry.lat.flat_masks
            h.update(f"{name}{bounds}|".encode() + entry.certificate + b"\n")
            for members in _valid_cuts(entry):
                cut = sorted(masks[f] for f in members)
                h.update((",".join(format(m, "x") for m in cut) + "\n")
                         .encode())
    assert h.hexdigest() == CUT_SEQUENCE_GOLDEN


def _cut_closure(lat, gens):
    """Smallest modular cut containing the flats ``gens``."""
    members = {g for f in gens for g in range(lat.n_flats) if lat.leq(f, g)}
    while True:
        new = set()
        for f1, f2 in itertools.combinations(members, 2):
            m, j = lat.meet(f1, f2), lat.join(f1, f2)
            if m not in members and (lat.ranks[f1] + lat.ranks[f2]
                                     == lat.ranks[m] + lat.ranks[j]):
                new |= {g for g in range(lat.n_flats) if lat.leq(m, g)}
        if not new:
            return frozenset(members)
        members |= new


def test_valid_cuts_include_cuts_needing_four_generators(pi3):
    # closing sets of at most three flats misses these cuts: four
    # hyperplanes of a rank-4 extension, pairwise meeting in a point, so no
    # modular pair among them adds anything to fewer of them.  A cut of at
    # most four flats, the top among them, is generated by the other three.
    found = []
    for entry in catalog(pi3, 4, 2):
        lat = entry.lat
        for members in _valid_cuts(entry):
            if len(members) < 5 or not is_modular_cut(lat, members)[0]:
                continue
            if all(_cut_closure(lat, gens) != members
                   for k in (1, 2, 3)
                   for gens in itertools.combinations(sorted(members), k)):
                found.append(members)
                hyps = set(lat.by_rank[lat.rank - 1])
                assert len(members) == 5 and lat.top in members
                assert members - {lat.top} <= hyps
    assert len(found) == 6


def _unpruned_catalog(base, max_new_atoms, max_extra_rank):
    """The catalog without cut-orbit pruning: every cut of every parent, in
    order, is canonicalized, and the first entry per certificate is kept."""
    def entry_of(lat):
        return _entry_of_form(base, lat, mdg.extensions.canonical_form(
            lat, fixed_atoms=base.atoms))

    levels = [[entry_of(base)]]
    for _ in range(max_new_atoms):
        nxt = {}
        for entry in levels[-1]:
            cuts = list(_valid_cuts(entry))
            if entry.extra_rank < max_extra_rank:
                cuts.insert(0, frozenset())
            for members in cuts:
                child, _ = single_element_extension(
                    entry.lat, ModularCut(entry.lat, members), "@new")
                cand = entry_of(child)
                nxt.setdefault(cand.certificate, cand)
        levels.append([nxt[c] for c in sorted(nxt)])
    return [e for lvl in levels for e in lvl]


def _entry_fields(e):
    return (e.certificate, e.lat.atoms, e.lat.flat_masks, e.top, e.level,
            e.extra_rank, e.automorphisms, e.has_odd_aut)


def _count_canonical_forms(monkeypatch):
    calls = [0]
    real = mdg.extensions.canonical_form

    def counted(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(mdg.extensions, "canonical_form", counted)
    return calls


@pytest.mark.parametrize("name,bounds", [("pi4", (4, 2)), ("plane8", (3, 2)),
                                         ("pi5", (4, 1))],
                         ids=["pi4", "plane8", "pi5"])
def test_catalog_matches_the_unpruned_levels(monkeypatch, name, bounds):
    # one cut per orbit of the parent's automorphisms is canonicalized, yet
    # every entry, generators included, is the one the unpruned walk keeps
    calls = _count_canonical_forms(monkeypatch)
    want = _unpruned_catalog(build_corpus_lattice(name), *bounds)
    unpruned_calls, calls[0] = calls[0], 0
    got = catalog(build_corpus_lattice(name), *bounds)
    assert [_entry_fields(e) for e in got] == \
        [_entry_fields(e) for e in want]
    assert calls[0] < unpruned_calls


def test_catalog_canonicalizes_one_cut_per_orbit(monkeypatch):
    # pi4's catalog makes 353 canonical forms unpruned, 209 with the orbit
    # skip, and one per entry now
    calls = _count_canonical_forms(monkeypatch)
    catalog(build_corpus_lattice("pi4"), 4, 2)
    assert calls[0] == 111


def test_catalog_bounds_share_the_children_they_build(monkeypatch):
    # a larger extra-rank bound adds only the coloop children the smaller
    # one withheld, so the two make the cold (4,2) count, and a bound
    # inside those walked builds no child at all; 353 canonical forms
    # unpruned, 209 with the orbit skip, one per entry now
    calls = _count_canonical_forms(monkeypatch)
    pi4 = build_corpus_lattice("pi4")
    catalog(pi4, 4, 1)
    catalog(pi4, 4, 2)
    assert calls[0] == 111
    catalog(pi4, 3, 1)
    catalog(pi4, 4, 2)
    assert calls[0] == 111


@pytest.mark.parametrize("name", ["pi3", "b3", "b2"])
def test_catalog_makes_one_form_per_entry_with_the_unpruned_groups(
        monkeypatch, name):
    # canonical augmentation reaches some entries of these catalogs (9, 5
    # and 3 of them) from another parent than the unpruned walk does, so
    # their automorphism generators differ, but not the groups they generate
    want = _unpruned_catalog(build_corpus_lattice(name), 5, 2)
    calls = _count_canonical_forms(monkeypatch)
    got = catalog(build_corpus_lattice(name), 5, 2)
    assert calls[0] == len(got)

    def fields(e):
        f = _entry_fields(e)
        return f[:6] + f[7:]

    assert [fields(e) for e in got] == [fields(e) for e in want]
    for a, b in zip(got, want):
        n = a.lat.n_atoms
        assert group_closure(a.automorphisms, n) == \
            group_closure(b.automorphisms, n)


@pytest.mark.parametrize("checks", [0, 20])
def test_catalog_deadline_stops_the_walk(monkeypatch, checks):
    # a deadline passed before the root's children, or after 20 entries'
    # children, raises inside the walk, and a later walk without one
    # returns the cold catalog
    pi5 = build_corpus_lattice("pi5")
    with monkeypatch.context() as m:
        clock = itertools.count()
        m.setattr(mdg.extensions.time, "monotonic", lambda: next(clock))
        with pytest.raises(ResourceLimit):
            catalog(pi5, 4, 1, deadline=checks - 0.5)
        assert next(clock) == checks + 1
    want = catalog(build_corpus_lattice("pi5"), 4, 1)
    assert [_entry_fields(e) for e in catalog(pi5, 4, 1)] == \
        [_entry_fields(e) for e in want]


def test_cut_search_deadline_raises_inside_the_search(monkeypatch):
    # U(3,9) over one of its points has 2,620 cuts and a search of 4,096
    # to 8,191 nodes, so it reads the clock once, and a deadline already
    # passed raises from inside the search at that check; the catalog
    # hands its deadline down
    atoms = [str(i) for i in range(9)]
    lines = [s for r in range(3) for s in itertools.combinations(atoms, r)]
    u39 = build_from_flats(atoms, lines + [atoms])
    entry = entry_for(build_corpus_lattice("pi2"), u39, (0,))[0]
    seen = []
    real = mdg.extensions._valid_cuts

    def spy(entry, deadline=None):
        seen.append(deadline)
        return real(entry, deadline)

    with monkeypatch.context() as m:
        clock = itertools.count()
        m.setattr(mdg.extensions.time, "monotonic", lambda: next(clock))
        assert len(list(_valid_cuts(entry, deadline=1e9))) == 2620
        assert next(clock) == 1
        clock = itertools.count()
        with pytest.raises(ResourceLimit) as ex:
            list(_valid_cuts(entry, deadline=-0.5))
        assert ex.traceback[-1].name == "_valid_cuts"
        assert next(clock) == 1
        m.setattr(mdg.extensions, "_valid_cuts", spy)
        catalog(build_corpus_lattice("pi3"), 2, 1, deadline=1e9)
    assert seen and set(seen) == {1e9}


@pytest.mark.parametrize("low_first", [False, True], ids=["high", "low"])
@pytest.mark.parametrize("name", ["pi3", "pi4", "b3", "plane8"])
def test_extra_rank_bound_filters_the_larger_catalog(name, low_first):
    # a cut child keeps its parent's extra rank, so the entries within a
    # smaller bound are the larger catalog's, in its order
    base = build_corpus_lattice(name)
    if low_first:
        low = catalog(base, 3, 1)
    high = catalog(base, 3, 2)
    if not low_first:
        low = catalog(base, 3, 1)
    want = [e for e in high if e.extra_rank <= 1]
    assert len(low) == len(want) and all(a is b for a, b in zip(low, want))


# catalog(pi6, 3, 1) in order: SHA-256 over the entries' certificates
PI6_CERTIFICATES = (
    "19d44c30450e73e0770a9e1b47f3f1e6e287a96b6f39ccfd7b9487d0ad8868e2")


def test_pi6_catalog_matches_golden_digest():
    # the largest cut searches of tier-1: hyperplanes of pi6's extensions
    entries = catalog(build_partition_lattice(6), 3, 1)
    h = hashlib.sha256()
    for entry in entries:
        h.update(entry.certificate + b"\n")
    assert len(entries) == 52
    assert h.hexdigest() == PI6_CERTIFICATES


def test_catalog_rejects_negative_bounds():
    # a negative atom bound once sliced the kept levels from the end
    pi3 = build_corpus_lattice("pi3")
    for warm in (False, True):
        if warm:
            catalog(pi3, 3, 2)
        for bounds in ((-2, 2), (-1, 2), (2, -1)):
            with pytest.raises(ValueError):
                catalog(pi3, *bounds)


def test_catalog_entry_automorphisms_fix_the_base(pi3):
    entry = catalog(pi3, 1, 1)[-1]
    moves_base = (1, 0) + tuple(range(2, entry.lat.n_atoms))
    with pytest.raises(AssertionError):
        CatalogEntry(entry.lat, entry.n_base, entry.certificate, entry.top,
                     (moves_base,))


def test_enumerate_u_line_family(pi2):
    # over a single atom the rank-2 extensions are the multi-point lines
    cat = [e for e in catalog(pi2, 3, 1) if e.extra_rank == 1]
    sizes = sorted(e.lat.n_atoms for e in cat)
    assert sizes == [2, 3, 4]  # free atom, 3- and 4-point lines


def test_single_element_then_delete_returns_base(pi3, b3, pi4):
    # adding an atom along every principal cut (and the free cut) and then
    # deleting it restores the base exactly
    for lat in (pi3, b3, pi4):
        cuts = [[]]
        for f in range(lat.n_flats):
            if lat.ranks[f] >= 2:
                cuts.append([g for g in range(lat.n_flats) if lat.leq(f, g)])
        assert len(cuts) > 1
        for members in cuts:
            ext, emb = single_element_extension(
                lat, modular_cut(lat, members), "@e")
            sub, _ = restriction(ext, lat.atoms)
            assert sub.flat_masks == lat.flat_masks


def test_pushout_interval_splitting(pi3, pi4):
    # the upper interval of a pushout at a pair splits as the pushout of
    # the upper intervals over the base's upper interval
    emb = Embedding(pi3, pi4, tuple(pi4.atom_index[a] for a in pi3.atoms))
    ext = ModularExtension.build(emb)
    result, e1, e2 = pushout(ext, ext)
    P = result.lat
    base_all = (1 << pi3.n_atoms) - 1
    checked = 0
    for f in range(P.n_flats):
        m = P.flat_masks[f]
        bp = m & base_all
        if P.ranks[f] == 0 or P.ranks[f] >= P.rank - 1:
            continue
        upper, _, _ = interval(P, f, P.top)
        f1 = pi4.closure(_pull(P, pi4, e1, m))
        f2 = pi4.closure(_pull(P, pi4, e2, m))
        up1, _, _ = interval(pi4, f1, pi4.top)
        up2, _, _ = interval(pi4, f2, pi4.top)
        base_up, _, _ = interval(pi3, pi3.closure(bp), pi3.top)
        if base_up.is_trivial:
            continue
        # glue the two upper intervals over the shared base interval
        m1 = tuple(up1.atom_index[a] for a in base_up.atoms
                   if a in up1.atom_index)
        if len(m1) != base_up.n_atoms:
            continue  # atom labels must align for a direct comparison
        m2 = tuple(up2.atom_index[a] for a in base_up.atoms
                   if a in up2.atom_index)
        if len(m2) != base_up.n_atoms:
            continue
        try:
            g1 = ModularExtension.build(Embedding(base_up, up1, m1),
                                        require_modular=False)
            g2 = ModularExtension.build(Embedding(base_up, up2, m2))
        except Exception:
            continue
        glued, _, _ = pushout(g1, g2)
        if certificates_equal(glued.lat, upper):
            checked += 1
    assert checked >= 3


def _connection_flats(n_atoms, sides):
    """Flats of a generalized parallel connection by Oxley, *Matroid
    Theory*, 2nd ed., Prop. 11.4.14: a subset X of the ground set is a
    flat iff X meets each side's ground set in a flat of that side.
    ``sides`` pairs each side's lattice with the positions of its atoms in
    the connection."""
    assert set().union(*(pos for _, pos in sides)) == set(range(n_atoms))
    return {x for x in range(1 << n_atoms)
            if all(sum(1 << i for i, p in enumerate(pos) if x >> p & 1)
                   in side.flat_index for side, pos in sides)}


@pytest.mark.parametrize("name", ["pi3", "pi4", "b3"])
def test_pushouts_match_the_parallel_connection_flats(name):
    base = build_corpus_lattice(name)
    alg = algebra_for(base)
    nb = base.n_atoms
    entries = catalog(base, 2, 2)[:12]
    for e1, e2 in itertools.combinations_with_replacement(entries, 2):
        l1, l2 = e1.lat, e2.lat
        # the product's pushout: the second side's new atoms come last
        lat, _ = alg._pushout_machinery(e1, e2)
        pos2 = list(range(nb)) + list(range(l1.n_atoms,
                                            l1.n_atoms + l2.n_atoms - nb))
        sides = [(l1, range(l1.n_atoms)), (l2, pos2)]
        assert set(lat.flat_masks) == _connection_flats(lat.n_atoms, sides)
        # the public pushout, glued along the base atoms
        result, emb1, emb2 = pushout(e1.as_modular_extension(base),
                                     e2.as_modular_extension(base))
        assert emb1.atom_map[:nb] == emb2.atom_map[:nb] == tuple(range(nb))
        sides = [(l1, emb1.atom_map), (l2, emb2.atom_map)]
        assert set(result.lat.flat_masks) == \
            _connection_flats(result.lat.n_atoms, sides)


def test_grading_extensions_match_the_parallel_connection_flats(pi4):
    # the low extension is glued to the base along the grading flat; at
    # (3, 2) some of them have new atoms, at (2, 1) none does
    alg = algebra_for(pi4)
    nb = pi4.n_atoms
    checked = 0
    for (g, _), diags in alg.diagrams_within((3, 2)).items():
        if g == pi4.bottom:
            continue    # no diagrams over the one-point lattice
        for diag in diags:
            _, low = alg.grading_restrict(diag)
            assert low is not ZERO
            big = grading_extension_lattice(alg, g, low)
            low_lat, n_low = low.entry.lat, low.entry.n_base
            pos = [pi4.atom_index[a] for a in low_lat.atoms[:n_low]]
            assert sum(1 << p for p in pos) == pi4.flat_masks[g]
            pos += range(nb, nb + low_lat.n_atoms - n_low)
            sides = [(pi4, range(nb)), (low_lat, pos)]
            assert set(big.flat_masks) == _connection_flats(big.n_atoms, sides)
            checked += big.n_atoms > nb
    assert checked
