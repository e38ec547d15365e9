import hashlib
import itertools

import pytest

from conftest import (
    assert_geometric_bruteforce,
    brute_rank,
    flats_of,
    group_closure,
    perm_parity,
    set_partitions,
)
from test_canon import SWEEP_GRAPHS
from mdg.canon import canonical_form, certificates_equal
from mdg.corpus import (
    build_corpus_lattice,
    build_rank3_configuration,
    corpus_names,
    graph_edges,
)
from mdg.errors import (
    DuplicateEdge,
    ForeignFlat,
    NotALattice,
    NotComparable,
    NotGeometric,
    NotModular,
    SelfLoop,
)
from mdg.extensions import catalog
from mdg.modularity import diamond_iso
from mdg.lattice import (
    GeometricLattice,
    _merge_sign,
    _word_sign,
    build_boolean,
    build_from_flats,
    build_from_graph,
    build_partition_lattice,
    circuits,
    direct_product,
    interval,
    interval_at,
    irreducible_factors,
    join,
    meet,
    rank,
    restriction,
    same_lattice,
)


def test_build_from_flats_plane8(plane8):
    assert plane8.n_atoms == 8
    assert plane8.rank == 3
    assert_geometric_bruteforce(flats_of(plane8))


def test_build_from_flats_boolean2():
    lat = build_from_flats(["a", "b"], [[], ["a"], ["b"], ["a", "b"]])
    assert lat.rank == 2
    assert certificates_equal(lat, build_boolean(2))


def test_build_from_flats_u23():
    lat = build_from_flats(["a", "b", "c"],
                           [[], ["a"], ["b"], ["c"], ["a", "b", "c"]])
    assert lat.rank == 2
    assert_geometric_bruteforce(flats_of(lat))


def test_build_from_flats_rejects_missing_top():
    with pytest.raises(NotALattice):
        build_from_flats(["a", "b"], [[], ["a"], ["b"]])


def test_build_from_flats_rejects_not_well_ranked():
    with pytest.raises(NotGeometric):
        build_from_flats(["a", "b", "c"],
                         [[], ["a"], ["b"], ["c"], ["a", "b"],
                          ["a", "b", "c"]])


def test_raised_errors_carry_their_witness(plane8):
    with pytest.raises(NotALattice) as ex:
        build_from_flats(["a", "b"], [[], ["a"], ["b"]])
    assert ex.value.witness == (("a",), ("b",))
    with pytest.raises(NotGeometric) as ex:
        build_from_flats(["a", "b", "c"],
                         [[], ["a"], ["b"], ["c"], ["a", "b"],
                          ["a", "b", "c"]])
    assert ex.value.witness == ("a", "b", "c")
    with pytest.raises(NotModular) as ex:
        diamond_iso(plane8, plane8.flat_of_atoms(["a", "e"]), plane8.bottom)
    assert ex.value.witness == ("a", "e")
    assert ForeignFlat("no witness").witness is None


_ABCD = [[], ["a"], ["b"], ["c"], ["d"]]
# one lattice per check of the lattice validation that no corpus input fails
INVALID_LATTICES = {
    "no-bottom": (lambda: build_from_flats(["a", "b"],
                                           [["a"], ["b"], ["a", "b"]]),
                  NotGeometric, "the empty flat (bottom) is missing"),
    "no-infimum": (lambda: build_from_flats(
        "abcd", _ABCD + [["a", "b", "c"], ["a", "b", "d"], list("abcd")]),
        NotALattice, "pair lacks an infimum"),
    "not-semimodular": (lambda: build_from_flats(
        "abcd", _ABCD + [["a", "b"], ["c", "d"], list("abcd")]),
        NotGeometric, "semimodularity fails on a cover pair"),
    "atom-rank-2": (lambda: GeometricLattice(
        ("a", "b"), [0, 1, 2, 3], ranks={0: 0, 1: 2, 2: 1, 3: 2}),
        NotGeometric, "singleton flat has rank != 1"),
    "lines-share-two-points": (lambda: build_rank3_configuration(
        "abcd", [{"a", "b", "c"}, {"a", "b", "d"}]),
        NotGeometric, "two lines share two points"),
}


@pytest.mark.parametrize("case", INVALID_LATTICES)
def test_invalid_lattices_raise_their_error(case):
    build, error, message = INVALID_LATTICES[case]
    with pytest.raises(error) as ex:
        build()
    assert str(ex.value) == message


def test_build_from_graph_k3(pi3):
    lat = build_from_graph([(1, 2), (1, 3), (2, 3)])
    assert lat.rank == 2 and lat.n_atoms == 3 and lat.n_flats == 5
    assert certificates_equal(lat, pi3)


def test_build_from_graph_c4(c4):
    assert c4.rank == 3
    assert circuits(c4) == [("1-2", "1-4", "2-3", "3-4")]


def test_build_from_graph_path_is_boolean():
    lat = build_from_graph([(1, 2), (2, 3), (3, 4)])
    assert certificates_equal(lat, build_boolean(3))


def test_build_from_graph_rank_matches_component_oracle(c5):
    # the path rule's rank must equal |V| - #components, via union-find
    edges = [("1", "2"), ("2", "3"), ("3", "4"), ("4", "5"), ("1", "5")]
    for f in range(c5.n_flats):
        chosen = [tuple(a.split("-")) for a in c5.atoms_of(f)]
        parent = {v: v for e in edges for v in e}

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x
        touched = set()
        for u, v in chosen:
            touched.update((u, v))
            parent[find(u)] = find(v)
        comps = {find(v) for v in touched}
        assert c5.ranks[f] == len(touched) - len(comps)


def test_build_from_graph_errors():
    with pytest.raises(SelfLoop):
        build_from_graph([(1, 1)])
    with pytest.raises(DuplicateEdge):
        build_from_graph([(1, 2), (2, 1)])


def test_build_from_graph_labels_edges_with_dashed_endpoints_apart():
    # "a-b" to "c" and "a" to "b-c" were both "a-b-c"
    lat = build_from_graph([("a-b", "c"), ("a", "b-c")])
    assert lat.atoms == ("'a'-'b-c'", "'a-b'-'c'")
    assert lat.rank == 2
    # without "-" in a vertex label, an edge is still "u-v", smaller first
    lat = build_from_graph([(2, 10), ("x", 2), (10, "x"), ("(y", "z)")])
    assert lat.atoms == ("(y-z)", "10-2", "10-x", "2-x")


def _graphic_flats_oracle(edges):
    """{flat: rank} of a simple graph by brute force over its edge sets,
    each flat a set of (u, v) string pairs with u < v.  An edge set is a
    flat exactly when no edge outside it joins two vertices of one of its
    components; its rank is the number of vertices less the number of
    components (union-find)."""
    edges = [tuple(sorted((str(u), str(v)))) for u, v in edges]
    vertices = {v for e in edges for v in e}
    flats = {}
    for k in range(len(edges) + 1):
        for chosen in itertools.combinations(edges, k):
            parent = {v: v for v in vertices}

            def find(x):
                while parent[x] != x:
                    x = parent[x]
                return x
            for u, v in chosen:
                parent[find(u)] = find(v)
            if any(find(u) == find(v) for u, v in edges
                   if (u, v) not in chosen):
                continue
            roots = {find(v) for v in vertices}
            flats[frozenset(chosen)] = len(vertices) - len(roots)
    return flats


def _oracle_graphs():
    k4 = [(str(u), str(v)) for u, v in itertools.combinations(range(1, 5), 2)]
    for k in range(1, len(k4) + 1):
        for sub in itertools.combinations(k4, k):
            yield "K4 " + " ".join(f"{u}{v}" for u, v in sub), list(sub)
    yield from SWEEP_GRAPHS.items()
    yield "triangle+path", [("1", "2"), ("2", "3"), ("1", "3"),
                            ("4", "5"), ("5", "6")]
    # "10" < "2" < "9" as strings, not as numbers
    yield "10,2,9", [(2, 10), (9, 2), (10, 9), (9, 1)]


def test_build_from_graph_flats_match_the_component_oracle():
    n_graphs = 0
    for name, edges in _oracle_graphs():
        lat = build_from_graph(edges)
        want = {}
        for flat, r in _graphic_flats_oracle(edges).items():
            mask = 0
            for u, v in flat:
                mask |= 1 << lat.atoms.index(f"{u}-{v}")
            want[mask] = r
        assert dict(zip(lat.flat_masks, lat.ranks)) == want, name
        n_graphs += 1
    assert n_graphs == 63 + 13 + 2


def test_partition_lattice_sizes(pi2, pi3, pi4):
    assert (pi2.n_atoms, pi2.rank, pi2.n_flats) == (1, 1, 2)
    assert (pi3.n_atoms, pi3.rank) == (3, 2)
    # Bell-number oracle: flats of the k4 graphic lattice = set partitions
    assert pi4.n_flats == sum(1 for _ in set_partitions([1, 2, 3, 4]))
    assert pi4.n_flats == 15 and pi4.rank == 3 and pi4.n_atoms == 6


def test_join_meet_rank_examples(pi4, plane8):
    f12 = pi4.flat_of_atoms(["1-2"])
    f34 = pi4.flat_of_atoms(["3-4"])
    j = join(pi4, f12, f34)
    assert rank(pi4, j) == 2
    assert sorted(pi4.atoms_of(j)) == ["1-2", "3-4"]
    ae = plane8.flat_of_atoms(["a", "e"])
    bd = plane8.flat_of_atoms(["b", "d'"])
    assert meet(plane8, ae, bd) == plane8.bottom
    for lat in (pi4, plane8):
        for f in range(lat.n_flats):
            assert join(lat, f, lat.bottom) == f
            assert meet(lat, f, lat.top) == f


def test_join_is_the_least_flat_above_both(pi4, plane8, c4, b3):
    for lat in (pi4, plane8, c4, b3):
        masks = lat.flat_masks
        for a in range(lat.n_flats):
            assert lat.join(a, a) == a
            for b in range(lat.n_flats):
                u = masks[a] | masks[b]
                want = min((f for f in range(lat.n_flats)
                            if masks[f] & u == u), key=lat.ranks.__getitem__)
                assert lat.join(a, b) == want


def test_rank_against_brute_oracle(plane8, pi4):
    for lat in (plane8, pi4):
        fl = flats_of(lat)
        for f in range(lat.n_flats):
            assert lat.ranks[f] == brute_rank(fl, lat.atoms_of(f))


def test_semimodularity_exhaustive(pi4, plane8, c4):
    for lat in (pi4, plane8, c4):
        for a, b in itertools.combinations(range(lat.n_flats), 2):
            lhs = lat.ranks[lat.meet(a, b)] + lat.ranks[lat.join(a, b)]
            assert lhs <= lat.ranks[a] + lat.ranks[b]


def test_interval_examples(pi4, pi3):
    f = pi4.flat_of_atoms(["1-2", "1-3", "2-3"])
    sub, to_parent, from_parent = interval(pi4, pi4.bottom, f)
    assert certificates_equal(sub, pi3)
    assert to_parent[sub.top] == f
    one, _, _ = interval(pi4, f, f)
    assert one.n_flats == 1
    up, _, _ = interval(pi4, pi4.flat_of_atoms(["1-2"]), pi4.top)
    assert certificates_equal(up, pi3)


def test_interval_rejects_incomparable(pi4):
    with pytest.raises(NotComparable):
        interval(pi4, pi4.flat_of_atoms(["1-2"]), pi4.flat_of_atoms(["3-4"]))


def test_restriction_examples(plane8, plane7, pi4, pi3):
    sub, emb = restriction(plane8, ["a", "b", "c", "d", "b'", "c'", "d'"])
    assert certificates_equal(sub, plane7)
    all_sub, _ = restriction(plane8, plane8.atoms)
    assert all_sub.flat_masks == plane8.flat_masks
    tri, _ = restriction(pi4, ["1-2", "1-3", "2-3"])
    assert certificates_equal(tri, pi3)
    # embedding is join-compatible
    emb.validate()


@pytest.mark.parametrize("name", ["pi4", "plane8", "b3", "pi3-entry"])
def test_interval_at_positions_match_brute_force(name, request):
    # pos[a] is the bit of the interval flat lo v a when that flat is an
    # interval atom, else None; the result is built once per (lo, hi)
    if name == "pi3-entry":
        # the catalog entry with the most new atoms
        lat = catalog(request.getfixturevalue("pi3"), 3, 2)[-1].lat
        assert lat.n_atoms > 3
    else:
        lat = request.getfixturevalue(name)
    for lo, hi in itertools.product(range(lat.n_flats), repeat=2):
        if not lat.leq(lo, hi):
            continue
        got = interval_at(lat, lo, hi)
        sub, to_parent, from_parent, pos = got
        ref, ref_to, ref_from = interval(lat, lo, hi)
        assert (sub.atoms, sub.flat_masks, sub.ranks) == \
            (ref.atoms, ref.flat_masks, ref.ranks)
        assert (to_parent, from_parent) == (ref_to, ref_from)
        want = []
        for a in range(lat.n_atoms):
            s = from_parent.get(lat.closure(lat.flat_masks[lo] | 1 << a))
            ok = s is not None and sub.ranks[s] == 1
            want.append(sub.flat_masks[s].bit_length() - 1 if ok else None)
        assert pos == tuple(want)
        assert interval_at(lat, lo, hi) is got


def test_restriction_reads_its_labels_once(pi4):
    # a generator of labels gives the same sublattice as a list or a tuple
    labels = ["1-2", "1-3", "2-3"]
    subs = [restriction(pi4, arg)[0]
            for arg in (labels, tuple(labels), (a for a in labels))]
    for sub in subs:
        assert sub.atoms == tuple(labels) and sub.rank == 2
        assert sub.flat_masks == subs[0].flat_masks
    with pytest.raises(ForeignFlat):
        restriction(pi4, (a for a in ["1-2", "9-9"]))


def test_restriction_interval_agree(plane8):
    # restriction to a flat's atoms matches the lower interval
    line = plane8.flat_of_atoms(["a", "b", "c", "d"])
    sub, _ = restriction(plane8, plane8.atoms_of(line))
    iv, _, _ = interval(plane8, plane8.bottom, line)
    assert certificates_equal(sub, iv)


def test_direct_product_and_factors(pi3, b3):
    b1 = build_boolean(1, atoms=("z",))
    prod = direct_product(pi3, b1)
    assert prod.rank == 3 and prod.n_atoms == 4
    factors, partition = irreducible_factors(prod)
    assert sorted(len(p) for p in partition) == [1, 3]
    assert certificates_equal(
        direct_product(pi3, b1),
        direct_product(b1, pi3))
    f3, p3parts = irreducible_factors(b3)
    assert len(f3) == 3
    f4, _ = irreducible_factors(build_partition_lattice(4))
    assert len(f4) == 1


def test_product_factor_roundtrip(pi3, b2):
    prod = direct_product(pi3, b2)
    factors, _ = irreducible_factors(prod)
    rebuilt = factors[0]
    for f in factors[1:]:
        rebuilt = direct_product(rebuilt, f)
    assert certificates_equal(rebuilt, prod)


def test_circuits_examples(pi3, c4, b3):
    assert circuits(pi3) == [("1-2", "1-3", "2-3")]
    assert circuits(b3) == []
    assert len(circuits(c4)) == 1


def test_circuits_brute_oracle(pi4):
    # minimal dependent subsets via an independent rank oracle
    fl = flats_of(pi4)
    atoms = list(pi4.atoms)
    brute = []
    for r in range(1, len(atoms) + 1):
        for sub in itertools.combinations(atoms, r):
            s = set(sub)
            if brute_rank(fl, s) != len(s) - 1:
                continue
            if all(brute_rank(fl, s - {c}) == len(s) - 1 for c in s):
                brute.append(tuple(sorted(s)))
    assert sorted(circuits(pi4)) == sorted(brute)


def test_canonical_form_examples(pi3, pi4):
    sub, _ = restriction(pi4, ["1-2", "1-3", "2-3"])
    assert certificates_equal(pi3, sub)
    cf = canonical_form(pi3, fixed_atoms=pi3.atoms)
    assert cf.perm == (0, 1, 2)
    assert cf.automorphisms == ()


def test_canonical_form_distinguishes_small_extensions(pi3):
    from mdg.extensions import modular_cut, single_element_extension
    free, _ = single_element_extension(pi3, modular_cut(pi3, []), "e")
    # one new atom on a three-point line through 1-2 needs a second atom;
    # compare the free-free extension against free-then-tied
    free2, _ = single_element_extension(
        free, modular_cut(free, []), "f")
    tied_cut = modular_cut(free, [free.closure(
        (1 << free.atom_index["1-2"]) | (1 << free.atom_index["e"])),
        free.top])
    tied, _ = single_element_extension(free, tied_cut, "f")
    fixed = list(pi3.atoms)
    assert not certificates_equal(free2, tied, fixed, fixed)
    # oracle: exhaustive isomorphism search over new-atom bijections
    def brute_iso(l1, l2):
        f1, f2 = set(flats_of(l1)), set(flats_of(l2))
        for perm in itertools.permutations(["e", "f"]):
            m = dict(zip(["e", "f"], perm))
            m.update({a: a for a in fixed})
            if {frozenset(m[x] for x in f) for f in f1} == f2:
                return True
        return False
    assert not brute_iso(free2, tied)
    assert brute_iso(free2, free2)


def test_canonical_form_unfixed_symmetry(pi4):
    cf = canonical_form(pi4)
    # the returned generators generate S4
    assert len(group_closure(cf.automorphisms, pi4.n_atoms)) == 24


def test_foreign_flat_errors(pi3):
    with pytest.raises(ForeignFlat):
        pi3.flat_of_atoms(["1-2", "1-3"])  # not closed
    with pytest.raises(ForeignFlat):
        rank(pi3, 99)


def test_word_sign_is_permutation_parity():
    positions = (0, 2, 3, 5, 8, 9)
    for k in range(len(positions) + 1):
        for word in itertools.permutations(positions[:k]):
            ordered = tuple(sorted(word))
            assert _word_sign(word) == (ordered, perm_parity(ordered, word))
    for k in range(2, 5):
        for word in itertools.product(range(3), repeat=k):
            if len(set(word)) < k:
                assert _word_sign(word)[1] == 0


def test_merge_sign_counts_inversions():
    # each of 7 bits goes to the first word, the second word or neither
    for side in itertools.product((0, 1, 2), repeat=7):
        first = [i for i in range(7) if side[i] == 1]
        second = [i for i in range(7) if side[i] == 2]
        inversions = sum(a > b for a in first for b in second)
        assert (_merge_sign(sum(1 << i for i in first),
                            sum(1 << i for i in second))
                == (-1) ** inversions)


def test_lattice_tables_are_made_on_first_use():
    # most lattices are short-lived intervals and connections that never
    # ask for an interval, an extension or the OS algebra
    for name in corpus_names():
        lat = build_corpus_lattice(name)
        assert (lat._intervals, lat._extensions, lat._os) == \
            (None, None, None), name


def test_corpus_graph_edges_build_the_graphic_lattices():
    graphic = [name for name in corpus_names() if graph_edges(name) is not None]
    assert graphic == ["pi2", "pi3", "pi4", "pi5", "c4", "c5", "k4",
                       "path3", "path4"]
    for name in graphic:
        lat = build_corpus_lattice(name)
        assert same_lattice(lat, build_from_graph(graph_edges(name)))
    assert graph_edges("plane8") is None


def _sublattice_lines():
    # one line per interval of a comparable flat pair and per restriction to
    # an atom subset (lattices with at most 8 atoms), over the corpus;
    # supports are sorted, as their repr order depends on the hash seed
    def text(sub):
        supports = ";".join(",".join(sorted(s)) for s in sub.atom_supports)
        return f"{sub.atoms}|{sub.flat_masks}|{sub.ranks}|{supports}"

    for name in corpus_names():
        lat = build_corpus_lattice(name)
        for lo, hi in itertools.product(range(lat.n_flats), repeat=2):
            if not lat.leq(lo, hi):
                continue
            sub, to_parent, from_parent, pos = interval_at(lat, lo, hi)
            ref, ref_to, ref_from = interval(lat, lo, hi)
            assert (text(ref), ref_to, ref_from) == \
                (text(sub), to_parent, from_parent)
            yield (f"{name}[{lo},{hi}]|{text(sub)}|{to_parent}|"
                   f"{sorted(from_parent.items())}|{pos}\n")
        if lat.n_atoms > 8:
            continue
        for subset in range(1 << lat.n_atoms):
            # labels in reverse order: the sublattice keeps the parent's
            labels = [lat.atoms[i] for i in reversed(range(lat.n_atoms))
                      if subset >> i & 1]
            sub, emb = restriction(lat, labels)
            assert emb.source is sub and emb.target is lat
            yield f"{name}|{subset}|{text(sub)}|{emb.atom_map}\n"


SUBLATTICE_GOLDEN = (
    "fd030e18ddc2460c434979991cf26da773ae88b8b31dccb454add4e749b25fed")


def test_intervals_and_restrictions_match_golden_digest():
    h = hashlib.sha256()
    for line in _sublattice_lines():
        h.update(line.encode())
    assert h.hexdigest() == SUBLATTICE_GOLDEN
