import random

import pytest

from mdg.corpus import (
    build_corpus_lattice,
    complete_graph_edges,
    corpus_names,
    cycle_graph_edges,
    path_graph_edges,
)
from mdg.errors import NotGeometric, NotModular
from mdg.extensions import catalog
from mdg.lattice import build_boolean, build_from_graph, interval, restriction
from mdg.modularity import (
    chordality_crosscheck,
    diamond_iso,
    is_modular,
    is_supersolvable,
    modular_characterizations_agree,
    modular_coatoms,
    modular_flats,
)


def test_plane8_modular_lines(plane8):
    line = plane8.flat_of_atoms(["a", "b", "c", "d"])
    assert is_modular(plane8, line)
    ae = plane8.flat_of_atoms(["a", "e"])
    ok, witness = is_modular(plane8, ae, with_witness=True)
    assert not ok
    # the two-point flat {b, d'} violates the rank identity as well
    bd = plane8.flat_of_atoms(["b", "d'"])
    lhs = plane8.ranks[plane8.meet(ae, bd)] + plane8.ranks[plane8.join(ae, bd)]
    assert lhs != plane8.ranks[ae] + plane8.ranks[bd]
    # the returned witness is a genuine violation of minimal rank
    wl = plane8.ranks[plane8.meet(ae, witness)] + \
        plane8.ranks[plane8.join(ae, witness)]
    assert wl != plane8.ranks[ae] + plane8.ranks[witness]
    ok2, witness2 = is_modular(plane8, ae, with_witness=True)
    assert witness2 == witness  # deterministic tie-breaking


def test_atoms_always_modular(pi4, plane8, c4):
    for lat in (pi4, plane8, c4):
        for f in lat.by_rank[1]:
            assert is_modular(lat, f)


def test_characterizations_agree(pi4, plane8, c4):
    for lat in (pi4, plane8, c4):
        for f in range(lat.n_flats):
            assert modular_characterizations_agree(lat, f)


def test_diamond_iso_contraction_example(plane8):
    line = plane8.flat_of_atoms(["a", "b", "c", "d"])
    e = plane8.flat_of_atoms(["e"])
    fwd, bwd = diamond_iso(plane8, line, e)
    eb = plane8.join(e, plane8.flat_of_atoms(["b'"]))
    assert plane8.atoms_of(bwd[eb]) == ("b",)
    ec = plane8.join(e, plane8.flat_of_atoms(["c'"]))
    assert plane8.atoms_of(bwd[ec]) == ("c",)


def test_diamond_iso_degenerate_cases(pi4):
    f = pi4.flat_of_atoms(["1-2", "1-3", "2-3"])
    fwd, bwd = diamond_iso(pi4, f, pi4.bottom)
    assert all(fwd[x] == x for x in fwd)
    fwd2, bwd2 = diamond_iso(pi4, f, f)
    assert list(fwd2.values()) == [f] * len(fwd2)


def test_diamond_iso_requires_modular(plane8):
    ae = plane8.flat_of_atoms(["a", "e"])
    with pytest.raises(NotModular):
        diamond_iso(plane8, ae, plane8.bottom)


def test_diamond_roundtrip_everywhere(pi4):
    for f in modular_flats(pi4):
        for g in range(pi4.n_flats):
            fwd, bwd = diamond_iso(pi4, f, g)
            for x, y in fwd.items():
                assert bwd[y] == x


def test_modular_coatoms_examples(pi3, plane8, c4):
    assert sorted(modular_coatoms(pi3)) == sorted(pi3.by_rank[1])
    line = plane8.flat_of_atoms(["a", "b", "c", "d"])
    assert line in modular_coatoms(plane8)
    # in the 4-cycle no connected 2-edge coatom is modular
    for f in modular_coatoms(c4):
        edges = [tuple(a.split("-")) for a in c4.atoms_of(f)]
        verts = {v for e in edges for v in e}
        assert len(edges) != 2 or len(verts) == 4


def test_supersolvable_partition(pi3, pi4, pi5):
    for lat, sizes in ((pi3, (1, 2)), (pi4, (1, 2, 3)), (pi5, (1, 2, 3, 4))):
        chain = is_supersolvable(lat)
        assert chain is not None
        assert chain.j_sizes == sizes
        for f in chain.flats:
            assert is_modular(lat, f)
        # maximality and partition of the atoms
        assert [lat.ranks[f] for f in chain.flats] == list(range(lat.rank + 1))
        allatoms = set()
        for js in chain.j_sets:
            assert not (allatoms & js)
            allatoms |= js
        assert allatoms == set(lat.atoms)


def test_supersolvable_plane8(plane8):
    chain = is_supersolvable(plane8)
    assert chain is not None
    assert [sorted(plane8.atoms_of(f)) for f in chain.flats] == [
        [], ["a"], ["a", "b", "c", "d"],
        sorted(plane8.atoms)]
    assert chain.j_sizes == (1, 3, 4)


def test_c4_not_supersolvable(c4):
    assert is_supersolvable(c4) is None


def test_chordality_examples():
    assert chordality_crosscheck(complete_graph_edges(4))
    assert not chordality_crosscheck(cycle_graph_edges(4))
    assert not chordality_crosscheck(cycle_graph_edges(5))
    assert chordality_crosscheck(path_graph_edges(4))


def test_chordality_agreement_corpus():
    graphs = [
        complete_graph_edges(3),
        complete_graph_edges(4),
        cycle_graph_edges(4),
        cycle_graph_edges(5),
        cycle_graph_edges(6),
        path_graph_edges(5),
        # chordal: 4-cycle plus a chord
        [("1", "2"), ("2", "3"), ("3", "4"), ("1", "4"), ("1", "3")],
        # non-chordal: 4-cycle with a pendant
        [("1", "2"), ("2", "3"), ("3", "4"), ("1", "4"), ("4", "5")],
        # two triangles sharing an edge
        [("1", "2"), ("1", "3"), ("2", "3"), ("1", "4"), ("2", "4")],
    ]
    for edges in graphs:
        # chordality_crosscheck internally asserts agreement with the
        # modular-chain search on the graphic lattice
        chordality_crosscheck(edges)


def test_modularity_transitivity_lemma(plane8):
    # if F1 modular in [0, F2] and F2 modular in L then F1 modular in L
    for f2 in modular_flats(plane8):
        sub, to_parent, _ = interval(plane8, plane8.bottom, f2)
        for g in range(sub.n_flats):
            if is_modular(sub, g):
                assert is_modular(plane8, to_parent[g])


def test_modularity_restriction_lemma(plane8):
    # a modular flat stays modular in restrictions containing its atoms
    line = plane8.flat_of_atoms(["a", "b", "c", "d"])
    sub, emb = restriction(plane8, ["a", "b", "c", "d", "e", "b'"])
    f = sub.flat_of_atoms(["a", "b", "c", "d"])
    assert is_modular(sub, f)


def test_supersolvable_rejects_trivial():
    from mdg.lattice import GeometricLattice
    one = GeometricLattice((), [0], validate=False)
    with pytest.raises(NotGeometric):
        is_supersolvable(one)


def _rank_form_modular(lat, f):
    """r(F ∧ G) + r(F ∨ G) = r(F) + r(G) for every flat G."""
    ranks = lat.ranks
    return all(ranks[lat.meet(f, g)] + ranks[lat.join(f, g)]
               == ranks[f] + ranks[g] for g in range(lat.n_flats))


def _rank_form_chain(lat, opened):
    """The modular-chain search by the rank form alone, appending every
    interval [0, c] it opens to ``opened``."""
    if lat.rank <= 1:
        return [lat.bottom] if lat.rank == 0 else [lat.bottom, lat.top]
    coatoms = sorted((c for c in lat.by_rank[lat.rank - 1]
                      if _rank_form_modular(lat, c)), key=lat.atoms_of)
    for c in coatoms:
        sub, to_parent, _ = interval(lat, lat.bottom, c)
        opened.append(sub)
        subchain = _rank_form_chain(sub, opened)
        if subchain is not None:
            return [to_parent[f] for f in subchain] + [lat.top]
    return None


def _criterion_lattices():
    for name in corpus_names():
        yield name, build_corpus_lattice(name)
    # every simple matroid on at most 7 points, with a point pinned
    for i, entry in enumerate(catalog(build_boolean(1), 6, 6)):
        yield f"census {i}", entry.lat
    rng = random.Random(2027)
    for i in range(300):
        nv = rng.randint(2, 7)
        edges = [(u, v) for u in range(nv) for v in range(u + 1, nv)
                 if rng.random() < 0.6] or [(0, 1)]
        yield f"graph {i} {edges}", build_from_graph(edges)


def test_modular_coatoms_agree_with_the_rank_form():
    # the coatom line test against the rank form on every coatom, and the
    # chain search against a copy of the rank-form search, on the corpus,
    # the simple matroids on at most 7 points and 300 random graphs
    n_lattices = n_coatoms = 0
    for name, lat in _criterion_lattices():
        opened = []
        want_chain = _rank_form_chain(lat, opened)
        for sub in [lat] + opened:
            want = [c for c in sub.by_rank[sub.rank - 1]
                    if _rank_form_modular(sub, c)]
            assert modular_coatoms(sub) == want, name
            n_lattices += 1
            n_coatoms += len(sub.by_rank[sub.rank - 1])
        chain = is_supersolvable(lat)
        if want_chain is None:
            assert chain is None, name
            continue
        assert chain.flats == tuple(want_chain), name
        masks = [lat.flat_masks[f] for f in want_chain]
        assert chain.j_sets == tuple(
            frozenset(a for k, a in enumerate(lat.atoms) if (hi & ~lo) >> k & 1)
            for lo, hi in zip(masks, masks[1:])), name
    # 15 + 324 + 300 lattices and the 793 intervals the search opens
    assert (n_lattices, n_coatoms) == (1432, 12535)
