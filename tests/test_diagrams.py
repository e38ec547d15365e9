import dataclasses
import itertools
import random
from collections import Counter

import pytest

import mdg.diagrams
import mdg.extensions
import mdg.lattice

from conftest import grading_extension_lattice, perm_parity
from mdg.corpus import build_corpus_lattice, corpus_names
from mdg.diagrams import (
    Combination,
    DiagramAlgebra,
    I_morphism,
    ZERO,
    _cover_repeats,
    _first_atoms,
    _splits_off_base,
    algebra_for,
    basis,
    cohomology,
    contractible_atoms,
    determining_bounds,
    grading_component_iso,
)
from mdg.errors import (ForeignFlat, ImproperFlat, MismatchedBase,
                        NotGeometric, ResourceLimit)
from mdg.extensions import ModularExtension, catalog, identity_extension
from mdg.harness import _new_atom_factors, run_axiom_suite
from mdg.lattice import (
    Embedding,
    GeometricLattice,
    _atoms_mask,
    _mask_atoms,
    build_boolean,
    build_from_graph,
    build_partition_lattice,
    direct_product,
    _interval,
    identity_embedding,
    interval_at,
    restriction,
)
from mdg.os_algebra import koszul_series_check, multiply, reduce_to_nbc


def trident_setup(pi3, pi4):
    alg = algebra_for(pi3)
    emb = Embedding(pi3, pi4, tuple(pi4.atom_index[a] for a in pi3.atoms))
    ext = ModularExtension.build(emb)
    return alg, ext


def ident_vec(alg, word, coeff=1):
    s, d = alg.normalize(identity_extension(alg.base), word)
    return Combination().add_term(s * coeff, d)


def test_normalize_trident(pi3, pi4):
    alg, ext = trident_setup(pi3, pi4)
    sign, tri = alg.normalize(ext, ["1-4", "2-4", "3-4"])
    assert tri is not ZERO
    assert tri.degree == 1
    assert tri.grading == pi3.top
    assert tri.entry.lat.n_atoms == 6


def test_normalize_zero_cases(pi3, pi4):
    alg, ext = trident_setup(pi3, pi4)
    # repeated letters vanish
    s, d = alg.normalize(ext, ["1-4", "1-4"])
    assert d is ZERO
    # the word and base must span the top
    s, d = alg.normalize(ext, ["1-4"])
    assert d is ZERO
    # two word atoms outside the base top vanish against it
    s, d = alg.normalize(ext, ["1-4", "2-4"])
    assert d is ZERO


def test_normalize_transposition_sign(pi3, pi4):
    alg, ext = trident_setup(pi3, pi4)
    s1, d1 = alg.normalize(ext, ["1-4", "2-4", "3-4"])
    s2, d2 = alg.normalize(ext, ["2-4", "1-4", "3-4"])
    assert d1 == d2 and s2 == -s1


def test_normalize_bridge_split_is_zero(pi2):
    # two complete graphs joined by the base edge: splits as a product
    alg = algebra_for(pi2)
    edges = [(1, 2), (1, 3), (1, 4), (1, 5), (3, 4), (3, 5), (4, 5),
             (2, 6), (2, 7), (2, 8), (6, 7), (6, 8), (7, 8)]
    G = build_from_graph(edges)
    ext = ModularExtension.build(
        Embedding(pi2, G, (G.atom_index["1-2"],)))
    word = [a for a in G.atoms if a != "1-2"]
    s, d = alg.normalize(ext, word)
    assert d is ZERO


def test_normalize_odd_automorphism_zero(pi2):
    # three extra atoms on the common line admit an odd swap fixing the
    # base, killing the full word (the two-outside rule does not apply)
    from mdg.lattice import build_from_flats
    alg = algebra_for(pi2)
    u24 = build_from_flats(
        ["1-2", "x", "y", "z"],
        [[], ["1-2"], ["x"], ["y"], ["z"], ["1-2", "x", "y", "z"]])
    ext = ModularExtension.build(
        Embedding(pi2, u24, (u24.atom_index["1-2"],)))
    s, d = alg.normalize(ext, ["x", "y", "z"])
    assert d is ZERO


def test_trident_differential_paper_exact(pi3, pi4):
    alg, ext = trident_setup(pi3, pi4)
    s, tri = alg.normalize(ext, ["1-4", "2-4", "3-4"])
    d = alg.differential_diagram(tri).scale(s)
    expected = ident_vec(alg, ["1-2", "1-3"]) + \
        ident_vec(alg, ["1-2", "2-3"], -1) + \
        ident_vec(alg, ["1-3", "2-3"])
    assert d == expected


def test_contraction_example_plane8(plane8):
    line, emb = restriction(plane8, ["a", "b", "c", "d"])
    alg = algebra_for(line)
    ext = ModularExtension.build(emb)
    s, g = alg.normalize(ext, ["e", "b'", "c'"])
    assert g is not ZERO and g.degree == 1
    # contractions land on the stated identity-extension words
    d = alg.differential_diagram(g).scale(s)
    expected = ident_vec(alg, ["b", "c"]) + ident_vec(alg, ["b", "a"], -1) + \
        ident_vec(alg, ["c", "a"])
    assert d == expected
    assert set(contractible_atoms(g, line)) == \
        {a for a in g.entry.lat.atoms[g.entry.n_base:]}


def test_differential_squares_to_zero(pi3, b3):
    for lat, bounds in ((pi3, (3, 2)), (b3, (2, 2))):
        alg = algebra_for(lat)
        for block in alg.diagrams_within(bounds).values():
            for diag in block:
                assert alg.differential(
                    alg.differential_diagram(diag)).is_zero


def test_product_unit_and_atoms(pi3):
    alg = algebra_for(pi3)
    unit = alg.unit()
    a = alg.atom_diagram("1-2")
    prod = alg.product(a, unit)
    assert prod.coeffs == {a: 1}
    b = alg.atom_diagram("1-3")
    ab = alg.product(a, b)
    s, word = alg.normalize(identity_extension(pi3), ["1-2", "1-3"])
    assert ab.coeffs == {word: s}
    ba = alg.product(b, a)
    assert ba == ab.scale(-1)


def test_product_with_a_shared_base_atom_skips_the_pushout(pi4):
    # a base atom in both words repeats in the product's word, since the
    # pushout keeps the base positions: the product is zero, as through
    # the pushout, and no pushout is built for it
    alg = DiagramAlgebra(pi4)
    diags = [d for ds in alg.diagrams_within((3, 2)).values()
             for d in ds][::16]
    nb = pi4.n_atoms
    pairs = [(d1, d2) for d1 in diags for d2 in diags
             if set(d1.word) & {p for p in d2.word if p < nb}]
    assert any(d1.entry.level and d2.entry.level for d1, d2 in pairs)
    for d1, d2 in pairs:
        assert alg.product(d1, d2).is_zero
    assert not alg._pushout_cache
    for d1, d2 in pairs:
        lat, pos2 = alg._pushout_machinery(d1.entry, d2.entry)
        word = d1.word + tuple(pos2[p] for p in d2.word)
        assert alg.normalize_raw(lat, tuple(range(nb)), word) == (0, ZERO)


def test_product_grading_join(pi3):
    alg = algebra_for(pi3)
    a = alg.atom_diagram("1-2")
    b = alg.atom_diagram("1-3")
    for d in alg.product(a, b).coeffs:
        assert d.grading == pi3.join(a.grading, b.grading)


def test_leibniz_trident(pi3, pi4):
    alg, ext = trident_setup(pi3, pi4)
    _, tri = alg.normalize(ext, ["1-4", "2-4", "3-4"])
    a = alg.atom_diagram("1-2")
    va = Combination().add_term(1, a)
    lhs = alg.differential(alg.product(tri, a))
    rhs = alg.product_vectors(alg.differential_diagram(tri), va)
    # d(a) = 0, so the Koszul term vanishes
    assert lhs == rhs


def test_comparison_morphism(pi3, pi4):
    alg, ext = trident_setup(pi3, pi4)
    s, tri = alg.normalize(ext, ["1-4", "2-4", "3-4"])
    assert alg.to_os(tri).is_zero
    assert alg.to_os(alg.differential_diagram(tri)).is_zero
    a = alg.atom_diagram("1-2")
    b = alg.atom_diagram("1-3")
    from mdg.os_algebra import multiply, reduce_to_nbc
    assert alg.to_os(alg.product(a, b)).as_dict() == \
        multiply(reduce_to_nbc(pi3, ["1-2"]),
                 reduce_to_nbc(pi3, ["1-3"])).as_dict()


def test_os_elements_over_a_rebuilt_lattice_combine():
    # I over b lands over a, the copy algebra_for met first; OS arithmetic
    # compares lattices by same_lattice, not by identity
    a, b = build_corpus_lattice("pi3"), build_corpus_lattice("pi3")
    algebra_for(a)
    x = I_morphism(b, algebra_for(b).atom_diagram("1-2"))
    y = reduce_to_nbc(b, ["1-3"])
    assert x.lattice is not b
    z = reduce_to_nbc(b, ["1-2"])
    assert multiply(x, y).as_dict() == multiply(z, y).as_dict()
    assert (x + y).as_dict() == (z + y).as_dict()


def test_coproduct_unit_and_generators(pi3):
    alg = algebra_for(pi3)
    f = pi3.flat_of_atoms(["1-2"])
    cop = alg.coproduct(alg.unit(), f)
    assert len(cop.coeffs) == 1 and list(cop.coeffs.values()) == [1]
    (lo, hi), = cop.coeffs
    assert lo.degree == 0 and hi.degree == 0 and not lo.word and not hi.word
    cop2 = alg.coproduct(alg.atom_diagram("1-2"), f)
    (lo2, hi2), = cop2.coeffs
    assert len(lo2.word) == 1 and not hi2.word
    cop3 = alg.coproduct(alg.atom_diagram("1-3"), f)
    (lo3, hi3), = cop3.coeffs
    assert not lo3.word and len(hi3.word) == 1


def test_coproduct_unshuffle_sign(pi4):
    # in the stored word (1-2, 3-4) split at the flat {3-4}, the atom below
    # the flat comes second: the unshuffle moving it to the front is a
    # single transposition, so the lone tensor term has coefficient -1
    alg = algebra_for(pi4)
    f = pi4.flat_of_atoms(["3-4"])
    s, d = alg.normalize(identity_extension(pi4), ["1-2", "3-4"])
    assert s == 1 and d.word_labels() == ("1-2", "3-4")
    cop = alg.coproduct(d, f)
    (lo, hi), = cop.coeffs
    assert len(lo.word) == 1 and len(hi.word) == 1
    assert cop.coeffs[(lo, hi)] == -1


def test_coproduct_improper_flat(pi3):
    alg = algebra_for(pi3)
    with pytest.raises(ImproperFlat):
        alg.coproduct(alg.unit(), pi3.top)


def test_relabel_functorial(pi3):
    alg = algebra_for(pi3)
    # pulling back along the relabeling is contravariant: the diagram named
    # by an atom of the target pulls back to its preimage under the map
    perm = {"1-2": "2-3", "2-3": "1-3", "1-3": "1-2"}
    iso = Embedding(pi3, pi3,
                    tuple(pi3.atom_index[perm[a]] for a in pi3.atoms))
    a = alg.atom_diagram("1-2")
    s, moved = alg.relabel(iso, a)
    inv = {v: k for k, v in perm.items()}
    assert s == 1 and moved == alg.atom_diagram(inv["1-2"])
    # identity relabeling is the identity
    ident = Embedding(pi3, pi3, tuple(range(3)))
    s2, same = alg.relabel(ident, a)
    assert s2 == 1 and same == a
    # contravariant composition on a sample diagram
    iso2 = Embedding(pi3, pi3,
                     tuple(pi3.atom_index[perm[perm[a]]] for a in pi3.atoms))
    s3, twice = alg.relabel(iso, alg.relabel(iso, a)[1])
    s4, direct = alg.relabel(iso2, a)
    assert (s3, twice) == (s4, direct)


def test_coproduct_compatible_with_relabeling(pi3, pi4):
    # pulling back along an automorphism and then splitting at a flat agrees
    # with splitting at the image flat and pulling back both factors
    alg = algebra_for(pi3)
    perm = {"1-2": "2-3", "2-3": "1-3", "1-3": "1-2"}
    iso = Embedding(pi3, pi3,
                    tuple(pi3.atom_index[perm[a]] for a in pi3.atoms))
    emb = Embedding(pi3, pi4, tuple(pi4.atom_index[a] for a in pi3.atoms))
    _, tri = alg.normalize(ModularExtension.build(emb),
                           ["1-4", "2-4", "3-4"])
    for diag in (alg.atom_diagram("1-2"), tri):
        for label in ("1-2", "1-3", "2-3"):
            f = pi3.flat_of_atoms([label])
            f_img = pi3.flat_of_atoms([perm[label]])
            s, moved = alg.relabel(iso, diag)
            lhs = alg.coproduct(moved, f)
            lowL = interval_at(pi3, pi3.bottom, f)[0]
            upL, up_to, _, _ = interval_at(pi3, f, pi3.top)
            lowI = interval_at(pi3, pi3.bottom, f_img)[0]
            upI, _, up_fromI, _ = interval_at(pi3, f_img, pi3.top)
            lo_iso = Embedding(
                lowL, lowI,
                tuple(lowI.atom_index[perm[a]] for a in lowL.atoms))
            # upper interval atoms are covers; map them through the perm
            up_map = []
            for c in upL.atoms:
                parent = up_to[upL.flat_index[1 << upL.atom_index[c]]]
                moved_parent = pi3.closure(sum(
                    1 << pi3.atom_index[perm[a]]
                    for a in pi3.atoms_of(parent)))
                target = up_fromI[moved_parent]
                up_map.append(next(
                    i for i in range(upI.n_atoms)
                    if upI.flat_masks[upI.flat_index[1 << i]]
                    == upI.flat_masks[target]))
            up_iso = Embedding(upL, upI, tuple(up_map))
            rhs_raw = alg.coproduct(diag, f_img)
            rhs = {}
            for (lo, hi), c in rhs_raw.coeffs.items():
                sl, lo2 = algebra_for(lowL).relabel(lo_iso, lo)
                sh, hi2 = algebra_for(upL).relabel(up_iso, hi)
                key = (lo2, hi2)
                rhs[key] = rhs.get(key, 0) + c * sl * sh
            rhs = {k: v * s for k, v in rhs.items() if v}
            assert dict(lhs.coeffs) == rhs


def test_grading_component_iso_roundtrip(pi4):
    alg = algebra_for(pi4)
    blocks = alg.diagrams_within((2, 1))
    checked = 0
    for (g, k), diags in blocks.items():
        if g in (pi4.bottom,):
            continue
        for diag in diags[:6]:
            s, low = alg.grading_restrict(diag)
            assert low is not ZERO
            s2, back = alg.grading_extend(diag.grading, low)
            assert back == diag and s * s2 == 1
            checked += 1
    assert checked


def test_built_lattices_skip_the_base_labels():
    # the pushout names its new atoms p1, p2, ... and the grading extension
    # q1, q2, ..., past the base's own labels: bases labelled so give the
    # axiom suite's statuses and counts of one labelled x1, x2, ..., and
    # a grading component pushed out along a proper flat comes back
    for name, bounds in (("pi3", (4, 2)), ("pi4", (3, 2))):
        lat = build_corpus_lattice(name)
        checks = []
        for prefix in "pqx":
            copy = GeometricLattice([f"{prefix}{k + 1}"
                                     for k in range(lat.n_atoms)],
                                    lat.flat_masks)
            rep = run_axiom_suite(copy, *bounds)
            assert rep.passed
            checks.append(rep.checks)
        assert checks[0] == checks[1] == checks[2]
    q4 = GeometricLattice([f"q{k + 1}" for k in range(6)],
                          build_corpus_lattice("pi4").flat_masks)
    alg = algebra_for(q4)
    pushed = 0
    for diag in (d for ds in alg.diagrams_within((3, 2)).values()
                 for d in ds):
        if diag.grading in (q4.bottom, q4.top):
            continue
        s, low = alg.grading_restrict(diag)
        if low.entry.level:
            s2, back = alg.grading_extend(diag.grading, low)
            assert back == diag and s * s2 == 1
            pushed += 1
    assert pushed


def test_diagram_equality_needs_the_same_base(pi3, b3):
    # diagrams compare by identity: never equal across bases, even with the
    # same certificate and word, and a rebuilt lattice gets the same object
    d = algebra_for(pi3).unit()
    other = dataclasses.replace(d, algebra=algebra_for(b3))
    assert other.key == d.key and other != d
    assert dataclasses.replace(d) != d
    rebuilt = GeometricLattice(pi3.atoms, pi3.flat_masks)
    assert algebra_for(rebuilt).unit() is d


def test_normalize_returns_the_listed_diagram(pi4):
    # a full-support word over a catalog entry normalizes to the very object
    # that diagrams_within lists
    alg = algebra_for(pi4)
    listed = {d.key: d for ds in alg.diagrams_within((3, 2)).values()
              for d in ds}
    seen = 0
    for entry in catalog(pi4, 3, 2):
        lat = entry.lat
        ext = ModularExtension.build(
            Embedding(pi4, lat, tuple(range(pi4.n_atoms))))
        sign, diag = alg.normalize(ext, lat.atoms)
        if diag is not ZERO:
            assert sign == 1 and diag is listed[diag.key]
            seen += 1
    assert seen


def test_differential_terms_are_basis_diagrams(pi4):
    alg = algebra_for(pi4)
    basis_ids = {id(d) for ds in alg.diagrams_within((3, 2)).values()
                 for d in ds}
    terms = [t for ds in alg.diagrams_within((3, 2)).values() for d in ds
             for t in alg.differential_diagram(d).coeffs]
    assert terms and all(id(t) in basis_ids for t in terms)


def test_structure_maps_reject_foreign_diagrams(pi3, pi4, b3):
    alg = algebra_for(pi3)
    d = alg.atom_diagram("1-2")
    foreign = dataclasses.replace(d, algebra=algebra_for(b3))
    f = pi3.flat_of_atoms(["1-2"])
    with pytest.raises(MismatchedBase):
        alg.differential_diagram(foreign)
    on_b3 = algebra_for(b3).atom_diagram("x1")
    on_pi4 = algebra_for(pi4).atom_diagram("1-4")
    forward, backward = grading_component_iso(pi3, f)
    for call in (lambda: alg.relabel(identity_embedding(pi3), on_b3),
                 lambda: forward(on_pi4), lambda: backward(on_b3),
                 lambda: alg.to_os(on_pi4), lambda: alg.contract(on_pi4, 0),
                 lambda: alg.contractible_positions(on_pi4)):
        with pytest.raises(MismatchedBase):
            call()
    with pytest.raises(MismatchedBase):
        alg.product(foreign, d)
    with pytest.raises(MismatchedBase):
        alg.product(d, foreign)
    with pytest.raises(MismatchedBase):
        alg.coproduct(foreign, f)
    with pytest.raises(ImproperFlat):       # the flat is checked first
        alg.coproduct(foreign, pi3.top)


def _by_key(vec):
    return {d.key: c for d, c in vec.coeffs.items()}


def test_structure_maps_match_a_cold_algebra(pi4):
    # the maps kept on algebra_for(pi4), read on a second call, agree with
    # an algebra that has nothing kept yet; its diagrams are the same ones
    # over the new algebra
    alg = algebra_for(pi4)
    cold = DiagramAlgebra(pi4)
    diags = [d for ds in alg.diagrams_within((3, 2)).values() for d in ds]

    def twin(d):
        return dataclasses.replace(d, algebra=cold)
    proper = [f for f in range(pi4.n_flats) if f not in (pi4.bottom, pi4.top)]
    for d in diags:
        alg.differential_diagram(d)
        assert (_by_key(alg.differential_diagram(d))
                == _by_key(cold.differential_diagram(twin(d))))
        for f in proper:
            alg.coproduct(d, f)
            assert alg.coproduct(d, f) == cold.coproduct(twin(d), f)
    pairs = [(a, b) for a in diags[::7] for b in diags[::5]]
    assert any(not alg.product(a, b).is_zero for a, b in pairs)
    for a, b in pairs:
        assert (_by_key(alg.product(a, b))
                == _by_key(cold.product(twin(a), twin(b))))


def test_mutating_a_result_leaves_the_kept_map_intact(pi4):
    alg = algebra_for(pi4)
    diags = [d for ds in alg.diagrams_within((3, 2)).values() for d in ds]
    d = next(d for d in diags if not alg.differential_diagram(d).is_zero)
    a, b = next((a, b) for a in diags for b in diags
                if not alg.product(a, b).is_zero)
    f, cop = next((f, alg.coproduct(d, f)) for f in range(pi4.n_flats)
                  if f not in (pi4.bottom, pi4.top)
                  and not alg.coproduct(d, f).is_zero)
    for call, mutate in (
            (lambda: alg.differential_diagram(d), lambda v: v.add_term(1, d)),
            (lambda: alg.product(a, b), lambda v: v.add_term(1, a)),
            (lambda: alg.coproduct(d, f),
             lambda v: v.add_term(1, next(iter(cop.coeffs))))):
        want = call()
        got = call()
        mutate(got)
        assert got != want
        assert call() == want


def test_axiom_suite_same_with_cold_and_warm_maps(pi4):
    # a relabeled copy of pi4 has its own algebra, so the first run starts
    # with nothing kept and the second reads what the first kept
    copy = GeometricLattice(tuple("x" + a for a in pi4.atoms), pi4.flat_masks)
    first = run_axiom_suite(copy, 3, 2)
    second = run_axiom_suite(copy, 3, 2)
    assert first.passed
    assert second.checks == first.checks
    assert second.tables == first.tables


def _reference_split(alg, diag, flat):
    # the coproduct without the factor pre-test: every flat f of the entry
    # meeting the base in ``flat``, both intervals built, lower factor first
    base = alg.base
    lowL, _, _, low_pos = interval_at(base, base.bottom, flat)
    upL, _, _, up_pos = interval_at(base, flat, base.top)
    low_reps = _first_atoms(low_pos, lowL.n_atoms)
    up_reps = _first_atoms(up_pos, upL.n_atoms)
    lat = diag.entry.lat
    out = Combination()
    for f, m in enumerate(lat.flat_masks):
        if m & diag.entry.base_mask != base.flat_masks[flat]:
            continue
        inside = [p for p in diag.word if m >> p & 1]
        outside = [p for p in diag.word if not m >> p & 1]
        sub, _, _, pos = interval_at(lat, lat.bottom, f)
        s_lo, d_lo = algebra_for(lowL).normalize_raw(
            sub, tuple(pos[a] for a in low_reps), tuple(pos[p] for p in inside))
        if d_lo is ZERO:
            continue
        sub, _, _, pos = interval_at(lat, f, lat.top)
        s_up, d_up = algebra_for(upL).normalize_raw(
            sub, tuple(pos[a] for a in up_reps), tuple(pos[p] for p in outside))
        if d_up is ZERO:
            continue
        eps = perm_parity(list(diag.word), inside + outside)
        out.add_term(eps * s_lo * s_up, (d_lo, d_up))
    return out


COPRODUCT_ORACLE = [("pi4", (3, 2), 1), ("b3", (4, 2), 1),
                    ("plane8", (3, 2), 10)]


@pytest.mark.parametrize("name,bounds,step", COPRODUCT_ORACLE,
                         ids=[n for n, _, _ in COPRODUCT_ORACLE])
def test_coproduct_matches_the_reference_split(name, bounds, step, request):
    # a cold algebra's coproduct, which drops dead flats before building
    # their intervals and normalizes the upper factor first, gives exactly
    # the terms of the plain loop over the flats
    base = request.getfixturevalue(name)
    cold = DiagramAlgebra(base)
    diags = [d for ds in cold.diagrams_within(bounds).values() for d in ds]
    proper = [f for f in range(base.n_flats)
              if f not in (base.bottom, base.top)]
    nonzero = 0
    for d in diags[::step]:
        for f in proper:
            got = cold.coproduct(d, f)
            assert got == _reference_split(cold, d, f), (d.key, f)
            nonzero += not got.is_zero
    assert nonzero


# the coproduct oracle's bases, with their nonzero contractions: b3 (4,2)
# has only diagrams over the base itself, with nothing to contract
CONTRACTION_ORACLE = [("pi4", (3, 2), 1, 192), ("b3", (4, 2), 1, 0),
                      ("plane8", (3, 2), 10, 219)]


@pytest.mark.parametrize("name,bounds,step,n_nonzero", CONTRACTION_ORACLE,
                         ids=[n for n, *_ in CONTRACTION_ORACLE])
def test_contractions_match_a_fresh_interval(name, bounds, step, n_nonzero,
                                             request):
    # a contraction, read through the entry's map of [a, top], is what
    # normalize_raw makes of that interval built afresh
    base = request.getfixturevalue(name)
    alg = DiagramAlgebra(base)
    diags = [d for ds in alg.diagrams_within(bounds).values() for d in ds]
    nonzero = 0
    for d in diags[::step]:
        entry = d.entry
        for k in alg.contractible_positions(d):
            p = d.word[k]
            sub, _, _, pos = _interval(entry.lat, entry.atom_flats[p],
                                       entry.lat.top)
            want = alg.normalize_raw(sub, pos[:entry.n_base],
                                     tuple(pos[q] for q in d.word if q != p))
            assert alg.contract(d, k) == want, (d.key, k)
            nonzero += want[1] is not ZERO
    assert nonzero == n_nonzero


def test_products_match_a_fresh_pushout(pi3, pi4):
    # a product, read through the pushout's map, is what normalize_raw
    # makes of the pushout built afresh, with the first factor's word
    # first; the other order gives the sign of graded commutativity.
    # pi3 (4,2) has nonzero products of two diagrams over one entry with
    # new atoms, which a map keyed by entry would confuse; pi4 (3,2) none
    rng = random.Random(0)
    for base, bounds, n_pairs, same in ((pi3, (4, 2), None, 27),
                                        (pi4, (3, 2), 2000, 0)):
        alg = DiagramAlgebra(base)
        nb = base.n_atoms
        diags = [d for ds in alg.diagrams_within(bounds).values() for d in ds]
        if n_pairs is None:
            pairs = [(d1, d2) for d1 in diags for d2 in diags]
        else:
            pairs = [(rng.choice(diags), rng.choice(diags))
                     for _ in range(n_pairs)]
        over_one_entry = 0
        for d1, d2 in pairs:
            got = alg.product(d1, d2)
            lat, pos2 = alg._pushout_machinery(d1.entry, d2.entry)
            s, d = alg.normalize_raw(lat, tuple(range(nb)),
                                     d1.word + tuple(pos2[p] for p in d2.word))
            assert got == Combination().add_term(s, d), (d1.key, d2.key)
            sign = (-1) ** (len(d1.word) * len(d2.word))
            assert alg.product(d2, d1) == got.scale(sign)
            over_one_entry += (d1.entry is d2.entry and d1.entry.level > 0
                               and not got.is_zero)
        assert over_one_entry == same
    assert len(pairs) == 2000 and len(diags) ** 2 > 2000


def test_structure_maps_keep_no_lattice(monkeypatch):
    # after every differential, product and coproduct of the pi4 (3,2)
    # basis on a fresh algebra, no entry lattice holds an interval, and
    # each interval map, like each kept pushout, holds a canonical entry
    # (or None) and atom positions, never a lattice
    monkeypatch.setattr(mdg.diagrams, "_ALGEBRAS", {})
    base = build_partition_lattice(4)
    alg = algebra_for(base)
    diags = [d for ds in alg.diagrams_within((3, 2)).values() for d in ds]
    proper = [f for f in range(base.n_flats)
              if f not in (base.bottom, base.top)]
    for d in diags:
        alg.differential_diagram(d)
        for f in proper:
            alg.coproduct(d, f)
        for d2 in diags:
            alg.product(d, d2)

    def holds_lattice(x):
        return isinstance(x, GeometricLattice) or (
            isinstance(x, tuple) and any(map(holds_lattice, x)))
    entries = [e for a in mdg.diagrams._ALGEBRAS.values()
               for e in mdg.extensions._tables(a.base)[0].values()]
    maps = [m for e in entries for m in e.interval_maps.values()]
    assert len(mdg.diagrams._ALGEBRAS) > 1 and maps and alg._pushout_cache
    assert all(e.lat._intervals is None for e in entries)
    assert not any(map(holds_lattice, maps))
    assert not any(map(holds_lattice, alg._pushout_cache.values()))


def test_structure_maps_skip_what_they_would_throw_away(monkeypatch):
    # a cold algebra on a fresh pi4 takes every differential and every
    # coproduct of its (3,2) basis.  Pinned: the intervals built (none for
    # an upper word that repeats a letter), the factor tests (once per
    # entry flat, not per diagram and flat), the canonical forms (one per
    # structure and pinned positions, whatever the labels) and the entry
    # lattices (one per certificate), the last two once the basis is built
    calls = Counter()

    def count(module, name):
        real = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)

    monkeypatch.setattr(mdg.diagrams, "_ALGEBRAS", {})
    count(mdg.lattice, "_interval")
    count(mdg.diagrams, "_splits_off_base")
    base = build_partition_lattice(4)
    alg = algebra_for(base)
    diags = [d for ds in alg.diagrams_within((3, 2)).values() for d in ds]
    for name in ("canonical_form", "CatalogEntry"):
        count(mdg.extensions, name)
    proper = [f for f in range(base.n_flats)
              if f not in (base.bottom, base.top)]
    nonzero = 0
    for d in diags:
        alg.differential_diagram(d)
        for f in proper:
            nonzero += not alg.coproduct(d, f).is_zero
    assert (len(diags), nonzero) == (320, 964)
    # building [f, top] before looking for a repeat, testing both factors
    # per (diagram, flat), keying the forms on labels and building an entry
    # lattice per form gave 204, 25102, 77 and 77; a raw-form table apart
    # from the catalog's root gave 51 forms
    assert calls == {"_interval": 168, "_splits_off_base": 498,
                     "canonical_form": 50, "CatalogEntry": 36}


def test_axiom_suite_builds_each_interval_once(monkeypatch):
    # a cold plane8 (3,2) axiom suite at its defaults.  Pinned: the
    # intervals built (none while every word reaching an interval repeats a
    # letter, none for refactoring) and the canonical forms; afterwards no
    # interval map holds a lattice.  Testing repeats on the built interval
    # and rebuilding [base top, top] per refactoring gave 722 builds, with
    # 206 maps holding their lattice, and the same 260 forms
    calls = Counter()

    def count(module, name):
        real = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)

    monkeypatch.setattr(mdg.diagrams, "_ALGEBRAS", {})
    count(mdg.lattice, "_interval")
    count(mdg.extensions, "canonical_form")
    assert run_axiom_suite(build_corpus_lattice("plane8"), 3, 2).passed
    assert calls == {"_interval": 456, "canonical_form": 260}
    maps = [m for a in mdg.diagrams._ALGEBRAS.values()
            for e in mdg.extensions._tables(a.base)[0].values()
            for m in e.interval_maps.values()]
    assert maps and not any(isinstance(m[0], GeometricLattice) for m in maps)


def test_normalization_and_catalog_share_entries(monkeypatch):
    # the unit, normalized before any catalog, is the catalog's root, and
    # every basis diagram lies over a catalog entry
    monkeypatch.setattr(mdg.diagrams, "_ALGEBRAS", {})
    alg = algebra_for(build_partition_lattice(3))
    unit = alg.unit()
    assert unit.entry is catalog(alg.base, 0, 0)[0]
    entries = {id(e) for e in catalog(alg.base, 2, 1)}
    diags = [d for ds in alg.diagrams_within((2, 1)).values() for d in ds]
    assert unit in diags
    assert all(id(d.entry) in entries for d in diags)


def test_bounded_basis_tests_the_modular_flat_rule_once_per_entry(
        monkeypatch, pi4):
    # a flat above the base top holds every base atom, so the rule reads
    # the new atoms only: one test per surviving entry, not per base subset
    calls = [0]
    real = mdg.diagrams._modular_flat_kills

    def counted(*args):
        calls[0] += 1
        return real(*args)
    monkeypatch.setattr(mdg.diagrams, "_modular_flat_kills", counted)
    algebra_for(pi4).diagrams_within((4, 2))
    survivors = [e for e in catalog(pi4, 4, 2) if not e.has_odd_aut
                 and not _splits_off_base(e.lat, e.base_mask, 0,
                                          e.lat.flat_masks[e.lat.top])]
    assert calls[0] == len(survivors) > 0


FACTOR_RULE_ORACLE = [("pi3", (4, 2)), ("pi4", (3, 2)), ("b3", (4, 2))]


@pytest.mark.parametrize("name,bounds", FACTOR_RULE_ORACLE,
                         ids=[n for n, _ in FACTOR_RULE_ORACLE])
def test_factor_rule_on_entry_masks_matches_the_built_interval(
        name, bounds, request):
    # the factor rule read off an entry's masks agrees with the factors of
    # the built interval below and above each entry flat f, with the base
    # image of the coproduct along the base flat F = f & base; F runs over
    # every base flat, so intervals without base atoms are included
    base = request.getfixturevalue(name)
    seen = set()
    for entry in catalog(base, *bounds):
        lat = entry.lat
        full = lat.flat_masks[lat.top]
        for F, f_mask in enumerate(base.flat_masks):
            lowL, _, _, low_pos = interval_at(base, base.bottom, F)
            upL, _, _, up_pos = interval_at(base, F, base.top)
            low_reps = _first_atoms(low_pos, lowL.n_atoms)
            up_reps = _first_atoms(up_pos, upL.n_atoms)
            for f, m in enumerate(lat.flat_masks):
                if m & entry.base_mask != f_mask:
                    continue
                for lo, hi, reps in ((lat.bottom, f, low_reps),
                                     (f, lat.top, up_reps)):
                    if lo == hi:
                        continue
                    sub, _, _, pos = interval_at(lat, lo, hi)
                    img = sum(1 << pos[a] for a in reps)
                    want = any(s & img == 0 for s in sub.factor_supports())
                    got = _splits_off_base(lat, entry.base_mask,
                                           lat.flat_masks[lo],
                                           lat.flat_masks[hi])
                    assert got == want, (entry.certificate, F, f, lo, hi)
                    seen.add(got)
    assert seen == {True, False}


REPEAT_ORACLE = [("pi4", (3, 2)), ("plane8", (3, 2)), ("b3", (4, 2))]


@pytest.mark.parametrize("name,bounds", REPEAT_ORACLE,
                         ids=[n for n, _ in REPEAT_ORACLE])
def test_cover_repeats_match_the_built_interval(name, bounds, request):
    # the covers of an entry flat f find a repeat in a word of at most
    # three atoms outside f exactly when two of its atoms share a position
    # in the built [f, top]: the test that alone decides whether an
    # interval map is built
    base = request.getfixturevalue(name)
    seen = set()
    for entry in catalog(base, *bounds):
        lat = entry.lat
        full = lat.flat_masks[lat.top]
        for f, m in enumerate(lat.flat_masks):
            pos = _interval(lat, f, lat.top)[3]
            outside = list(_mask_atoms(full & ~m))
            for size in range(4):
                for word in itertools.combinations(outside, size):
                    want = len({pos[a] for a in word}) < size
                    got = _cover_repeats(entry, f, _atoms_mask(word))
                    assert got == want, (entry.certificate, f, word)
                    seen.add(got)
    assert seen == {True, False}


@pytest.mark.parametrize("name", ["pi3", "pi4", "b3", "plane8"])
def test_refactoring_factors_match_the_built_interval(name, request):
    # each atom's factor of [base top, top], read off the entry's masks as
    # its least separator, is the factor of the built interval holding its
    # position, pulled back to the entry's atoms
    base = request.getfixturevalue(name)
    n_factors = set()
    for entry in catalog(base, 3, 2):
        lat = entry.lat
        sub, _, _, pos = _interval(lat, entry.top, lat.top)
        supports = sub.factor_supports()
        want = {}
        for p, i in enumerate(pos):
            if i is not None:
                s = next(s for s in supports if s >> i & 1)
                want[p] = sum(1 << q for q, j in enumerate(pos)
                              if j is not None and s >> j & 1)
        assert _new_atom_factors(entry) == want, entry.certificate
        n_factors.add(len(set(want.values())))
    assert max(n_factors) > 1


def test_bottom_grading_is_unit_only(pi3, pi4):
    for lat in (pi3, pi4):
        alg = algebra_for(lat)
        blocks = alg.diagrams_within((2, 2))
        bottom = {k: v for (g, k), v in blocks.items() if g == lat.bottom}
        assert list(bottom) == [0]
        assert len(bottom[0]) == 1
        assert bottom[0][0] == alg.unit()


def test_tensor_product_dimension_convolution(pi3):
    # dims of blocks over a product lattice match the convolution of the
    # factors' dims in matched bounds
    b1 = build_boolean(1, atoms=("z",))
    prod = direct_product(pi3, b1)
    ap = algebra_for(prod)
    a3 = algebra_for(pi3)
    a1 = algebra_for(b1)
    bounds = (2, 1)
    top_blocks = {}
    for (g, k), v in ap.diagrams_within(bounds).items():
        if g == prod.top:
            top_blocks[k] = len(v)
    conv = {}
    for (g1, k1), v1 in a3.diagrams_within(bounds).items():
        if g1 != pi3.top:
            continue
        for (g2, k2), v2 in a1.diagrams_within(bounds).items():
            if g2 != b1.top:
                continue
            # within the product, bounds interact: only pairs whose total
            # new atoms and extra rank stay within the bounds appear
            for d1 in v1:
                for d2 in v2:
                    extra = (d1.entry.lat.rank - pi3.rank) + \
                        (d2.entry.lat.rank - b1.rank)
                    new = (d1.entry.lat.n_atoms - 3) + \
                        (d2.entry.lat.n_atoms - 1)
                    if extra <= bounds[1] and new <= bounds[0]:
                        conv[k1 + k2] = conv.get(k1 + k2, 0) + 1
    assert top_blocks == conv


def test_basis_examples(pi3):
    alg = algebra_for(pi3)
    deg2 = alg.basis(pi3.top, 2, (0, 0))
    assert len(deg2) == 3
    assert all(len(d.word) == 2 and not d.describe()["new_atoms"]
               for d in deg2)
    # the trident class appears once three new atoms are allowed
    deg1 = alg.basis(pi3.top, 1, (3, 1))
    assert len(deg1) == 1
    assert len(deg1[0].describe()["new_atoms"]) == 3


def test_cohomology_b_lattices(b2, b3):
    for lat, want_deg in ((b2, 2), (b3, 3)):
        alg = algebra_for(lat)
        lo, hi, stable = cohomology(lat, lat.top, 3, 2)
        assert lo.betti == {want_deg: 1}
        assert hi.betti == {want_deg: 1}
        assert all(stable.values())
        assert lo.healed == 0


def test_cohomology_pi2(pi2):
    alg = algebra_for(pi2)
    blk = alg.cohomology_block(pi2.top, (4, 2))
    assert blk.betti == {1: 1}


def test_cohomology_euler_characteristic(pi3):
    # the alternating sum of block dimensions matches the limit value in
    # every truncation (the differential cannot change it)
    alg = algebra_for(pi3)
    from mdg.os_algebra import hilbert_series
    target = hilbert_series(pi3)[pi3.rank] * (-1) ** pi3.rank
    for ba in (0, 2, 3, 4):
        blk = alg.cohomology_block(pi3.top, (ba, 2))
        chi = sum((-1) ** k * v for k, v in blk.dims.items())
        assert chi == target


def test_coefficients_are_integers(pi4, c4):
    # every coefficient of the complex and of the OS algebra is a sum of
    # signs, kept as an int
    alg = algebra_for(pi4)
    diags = [d for ds in alg.diagrams_within((3, 2)).values() for d in ds]
    proper = [f for f in range(pi4.n_flats)
              if f not in (pi4.bottom, pi4.top)]
    combos = [alg.differential_diagram(d) for d in diags]
    combos += [alg.product(a, b) for a in diags[::5] for b in diags[::7]]
    combos += [alg.coproduct(d, f) for d in diags for f in proper]
    coeffs = [c for v in combos for c in v.coeffs.values()]
    x = reduce_to_nbc(pi4, ["2-3", "1-3"])
    y = reduce_to_nbc(pi4, ["3-4", "1-2", "2-4"])
    elems = [x, y, multiply(x, reduce_to_nbc(pi4, ["1-4"]))]
    elems += [alg.to_os(d) for d in diags]
    coeffs += [c for e in elems for _, c in e.coeffs]
    coeffs += koszul_series_check(c4, 8)[1]
    assert len(coeffs) > 1000
    assert {type(c) for c in coeffs} == {int}


def test_target_outside_the_basis_is_an_error(monkeypatch, pi3):
    # the bounded basis is closed under the differential, so a target
    # missing from it is a defect, not a row to append
    alg = DiagramAlgebra(pi3)
    blocks = alg.diagrams_within((3, 2))
    reached = next(d2 for (g, _), ds in blocks.items() if g == pi3.top
                   for d in ds for d2 in alg.differential_diagram(d).coeffs)
    cell = (reached.grading, reached.degree)
    blocks[cell] = [d for d in blocks[cell] if d != reached]
    monkeypatch.setattr(alg, "diagrams_within", lambda bounds: blocks)
    with pytest.raises(AssertionError):
        alg.cohomology_block(pi3.top, (3, 2))


def test_differential_preserves_nullity(pi3):
    # contraction drops one word atom and one unit of rank, so the nullity
    # |word| - rank(word) of every surviving term equals that of its source
    alg = algebra_for(pi3)
    checked = 0
    for block in alg.diagrams_within((4, 2)).values():
        for diag in block:
            lat = diag.entry.lat
            mask = sum(1 << p for p in diag.word)
            assert diag.nullity == len(diag.word) - lat.ranks[lat.closure(mask)]
            for d2 in alg.differential_diagram(diag).coeffs:
                assert d2.nullity == diag.nullity
                checked += 1
    assert checked


NORMALIZER_ORACLE = [("pi3", (3, 2)), ("pi4", (3, 2)), ("b3", (3, 2)),
                     ("b2", (4, 2))]


@pytest.mark.parametrize("name,bounds", NORMALIZER_ORACLE,
                         ids=[n for n, _ in NORMALIZER_ORACLE])
def test_normalize_raw_agrees_with_diagrams_within(name, bounds, request):
    # every word over every catalog entry, base pinned, normalizes into the
    # bounded basis, and every basis diagram is reached this way: the
    # restrict -> canonicalize path and the enumerator apply the same rules
    base = request.getfixturevalue(name)
    alg = algebra_for(base)
    nb = base.n_atoms
    reached = set()
    for entry in catalog(base, *bounds):
        lat = entry.lat
        for mask in range(1 << lat.n_atoms):
            word = tuple(i for i in range(lat.n_atoms) if mask >> i & 1)
            sign, diag = alg.normalize_raw(lat, tuple(range(nb)), word)
            if diag is ZERO:
                continue
            reached.add((diag, diag.grading, diag.degree, diag.nullity))
            if all(mask >> i & 1 for i in range(nb, lat.n_atoms)):
                # a full-support word is already in normal form
                assert sign == 1, (entry.certificate, word)
                assert diag.key == (entry.certificate, word)
    listed = [(d, g, k, d.nullity)
              for (g, k), ds in alg.diagrams_within(bounds).items()
              for d in ds]
    assert all(d.grading == g and d.degree == k for d, g, k, _ in listed)
    assert len(listed) == len(set(listed))
    assert set(listed) == reached


def test_cohomology_deadline_stops_the_column_loop(monkeypatch, pi5):
    # the pi5 (3,1) top block has 9,688 columns, so its column loop reads
    # the clock at columns 4,096 and 8,192; a deadline passed before either
    # read raises there, and a later call without one returns the block of
    # a call whose deadline never passes
    top, bounds = pi5.top, (3, 1)
    with monkeypatch.context() as m:
        clock = itertools.count()
        m.setattr(mdg.diagrams.time, "monotonic", lambda: next(clock))
        want = DiagramAlgebra(pi5).cohomology_block(top, bounds, deadline=1e9)
        assert next(clock) == 2
    alg = DiagramAlgebra(pi5)
    for checks in (0, 1):
        with monkeypatch.context() as m:
            clock = itertools.count()
            m.setattr(mdg.diagrams.time, "monotonic", lambda: next(clock))
            with pytest.raises(ResourceLimit) as ex:
                alg.cohomology_block(top, bounds, deadline=checks - 0.5)
            assert ex.traceback[-1].name == "cohomology_block"
            assert next(clock) == checks + 1
    got = alg.cohomology_block(top, bounds)
    assert (got.dims, got.ranks, got.betti, got.cell_betti) == \
        (want.dims, want.ranks, want.betti, want.cell_betti)


def test_exact_cell_rule_pi4(pi4):
    # the predicted cell (nullity 0, degree 3) has extra rank 0; its degree-2
    # neighbour needs extra rank 1 and up to 3 + 1 + 0 = 4 new atoms
    alg = algebra_for(pi4)
    lo = alg.cohomology_block(pi4.top, (3, 2))
    hi = alg.cohomology_block(pi4.top, (4, 2))
    assert determining_bounds(pi4.rank, 0, pi4.rank) == (4, 1)
    assert not lo.is_exact(0, 3) and (0, 3) not in lo.exact_cells
    assert hi.is_exact(0, 3) and (0, 3) in hi.exact_cells
    assert hi.cell_betti[(0, 3)] == 6
    # splitting by nullity refines the degree totals
    for blk in (lo, hi):
        for k, b in blk.betti.items():
            assert b == sum(v for (n, d), v in blk.cell_betti.items() if d == k)


def test_b2_zero_differential_generators_are_undetermined(b2):
    # at (5, 2) the top block of b2 has an all-zero differential; apart from
    # the predicted class, its generators sit in cells of nullity 2 and 3
    # that need extra rank 3 to be determined
    alg = algebra_for(b2)
    blk = alg.cohomology_block(b2.top, (5, 2))
    assert not any(blk.ranks.values())
    assert blk.exact_cells == ((0, 2),) and blk.cell_betti[(0, 2)] == 1
    extra = {c: v for c, v in blk.cell_betti.items() if c != (0, 2) and v}
    assert sum(extra.values()) == 12
    assert {n for n, _ in extra} == {2, 3}
    for n, d in extra:
        assert not blk.is_exact(n, d)
        assert determining_bounds(b2.rank, n, d)[1] == 3


def test_rejects_trivial_base():
    one = GeometricLattice((), [0], validate=False)
    with pytest.raises(NotGeometric):
        algebra_for(one)


def test_normalize_rejects_foreign_base(pi3, b3):
    alg = algebra_for(pi3)
    with pytest.raises(MismatchedBase):
        alg.normalize(identity_extension(b3), [])


def test_foreign_labels_and_gradings_raise_foreign_flat(pi3):
    # an unknown word label or a grading outside the base is reported with
    # the typed error the coproduct gives for a flat outside the base
    alg = algebra_for(pi3)
    with pytest.raises(ForeignFlat, match="unknown atom"):
        alg.normalize(identity_extension(pi3), ["zz"])
    for grading in (99, pi3.n_flats, -1):
        with pytest.raises(ForeignFlat):
            alg.coproduct(alg.unit(), grading)
        with pytest.raises(ForeignFlat):
            alg.cohomology_block(grading, (2, 2))
        with pytest.raises(ForeignFlat):
            cohomology(pi3, grading, 2, 2)
        with pytest.raises(ForeignFlat):
            basis(pi3, grading, 0, 3, 2)


def test_normalize_with_relabeled_base(pi3, pi4):
    # the extension's copy of the base may use arbitrary labels; the
    # canonical diagram matches the plainly labeled route
    relabeled = GeometricLattice(
        tuple("X" + a for a in pi4.atoms), pi4.flat_masks,
        ranks={m: pi4.ranks[i] for i, m in enumerate(pi4.flat_masks)},
        validate=False)
    alg = algebra_for(pi3)
    emb = Embedding(pi3, relabeled,
                    tuple(pi4.atom_index[a] for a in pi3.atoms))
    s1, d1 = alg.normalize(ModularExtension.build(emb),
                           ["X1-4", "X2-4", "X3-4"])
    emb2 = Embedding(pi3, pi4, tuple(pi4.atom_index[a] for a in pi3.atoms))
    s2, d2 = alg.normalize(ModularExtension.build(emb2),
                           ["1-4", "2-4", "3-4"])
    assert d1 == d2 and s1 == s2


def test_normalize_sign_coherence_random(pi3):
    # normalizing any permutation of a word gives the same diagram with the
    # parity-adjusted sign
    import random
    from mdg.extensions import catalog
    rng = random.Random(13)
    alg = algebra_for(pi3)
    entries = [e for e in catalog(pi3, 3, 2) if e.lat.n_atoms > pi3.n_atoms]
    for _ in range(60):
        e = rng.choice(entries)
        lat = e.lat
        n_new = lat.n_atoms - e.n_base
        extra = rng.sample(range(e.n_base), rng.randint(0, e.n_base))
        word = list(range(e.n_base, lat.n_atoms)) + extra
        ext = ModularExtension(
            Embedding(pi3, lat, tuple(range(pi3.n_atoms))), e.top)
        labels = [lat.atoms[p] for p in word]
        s0, d0 = alg.normalize(ext, labels)
        shuffled = labels[:]
        rng.shuffle(shuffled)
        s1, d1 = alg.normalize(ext, shuffled)
        assert (d0 is ZERO) == (d1 is ZERO)
        if d0 is not ZERO:
            assert d0 == d1
            parity = perm_parity(labels, shuffled)
            assert s1 == s0 * parity


def test_differential_on_partial_words_random(pi3):
    # raw diagrams whose words skip some new atoms restrict first; their
    # normalized differentials still square to zero (words using fewer than
    # three new atoms always vanish, so sample three out of four)
    import itertools
    import random
    from mdg.extensions import catalog
    rng = random.Random(29)
    alg = algebra_for(pi3)
    entries = [e for e in catalog(pi3, 4, 1)
               if e.lat.n_atoms == pi3.n_atoms + 4]
    count = 0
    for e in entries:
        lat = e.lat
        ext = ModularExtension(
            Embedding(pi3, lat, tuple(range(pi3.n_atoms))), e.top)
        new_positions = list(range(e.n_base, lat.n_atoms))
        for triple in itertools.combinations(new_positions, 3):
            base_extra = rng.sample(range(e.n_base),
                                    rng.randint(0, e.n_base))
            word = [lat.atoms[p] for p in list(triple) + base_extra]
            s, d = alg.normalize(ext, word)
            if d is ZERO:
                continue
            count += 1
            assert d.entry.lat.n_atoms <= pi3.n_atoms + 3
            assert alg.differential(alg.differential_diagram(d)).is_zero
    assert count


def test_internal_constructions_revalidate(pi3, pi4):
    # lattices produced by the trusted fast paths satisfy the full axioms,
    # and the ranks they were given are the ones the axioms compute
    from mdg.extensions import catalog, pushout, ModularExtension as ME
    for e in catalog(pi3, 2, 2)[:8]:
        GeometricLattice(e.lat.atoms, e.lat.flat_masks)
    emb = Embedding(pi3, pi4, tuple(pi4.atom_index[a] for a in pi3.atoms))
    ext = ME.build(emb)
    result, _, _ = pushout(ext, ext)
    GeometricLattice(result.lat.atoms, result.lat.flat_masks)
    # the product's pushout of two two-atom extensions
    two = catalog(pi3, 2, 2)[-1]
    lat, _ = algebra_for(pi3)._pushout_machinery(two, two)
    assert lat.n_atoms == pi3.n_atoms + 4
    assert GeometricLattice(lat.atoms, lat.flat_masks).ranks == lat.ranks
    # a grading extension along a proper flat, with new atoms
    alg = algebra_for(pi4)
    diag = next(d for (g, _), ds in alg.diagrams_within((3, 2)).items()
                if g not in (pi4.bottom, pi4.top) for d in ds
                if d.entry.lat.n_atoms > pi4.n_atoms)
    _, low = alg.grading_restrict(diag)
    big = grading_extension_lattice(alg, diag.grading, low)
    assert big.n_atoms > pi4.n_atoms
    assert GeometricLattice(big.atoms, big.flat_masks).ranks == big.ranks


def test_module_helpers_agree_with_the_algebra(pi3):
    # the module-level operation surface gives what the algebra's methods do
    alg = algebra_for(pi3)
    diags = [d for ds in alg.diagrams_within((3, 1)).values() for d in ds]
    proper = [f for f in range(pi3.n_flats) if f not in (pi3.bottom, pi3.top)]
    ext = identity_extension(pi3)
    assert mdg.diagrams.normalize(ext, ["1-3", "1-2"]) == \
        alg.normalize(ext, ["1-3", "1-2"]) != (0, ZERO)
    swap = Embedding(pi3, pi3, (0, 2, 1))     # vertices 1 and 2 exchanged
    relabel = mdg.diagrams.md_relabel(swap, pi3)
    vec = Combination()
    for k, d in enumerate(diags):
        vec.add_term(k + 1, d)
        assert mdg.diagrams.differential(pi3, d) == alg.differential_diagram(d)
        assert relabel(d) == alg.relabel(swap, d)
        for f in proper:
            assert mdg.diagrams.coproduct(pi3, d, f) == alg.coproduct(d, f)
        for d2 in diags:
            assert mdg.diagrams.product(pi3, d, d2) == alg.product(d, d2)
    assert mdg.diagrams.differential(pi3, vec) == alg.differential(vec)
    assert mdg.diagrams.product(pi3, vec, diags[0]) == \
        alg.product_vectors(vec, Combination().add_term(1, diags[0]))
    assert len(diags) == 16 and not vec.is_zero


@pytest.mark.parametrize("name", corpus_names())
def test_every_grading_has_a_diagram_at_the_smallest_bounds(name):
    # the word of a flat's own atoms over the base itself lies in that
    # grading, so no grading's block is empty, even at bounds (0, 0)
    alg = algebra_for(build_corpus_lattice(name))
    for g in range(alg.base.n_flats):
        assert alg.cohomology_block(g, (0, 0)).dims, (name, g)
