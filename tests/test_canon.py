"""Canonical labelling: a golden digest of certificates and labellings,
and the automorphism generators against brute force.

Every isomorphism deduplication (catalog children, normalized diagrams)
goes through ``canonical_form``, so its
``certificate`` and ``perm`` must stay byte-identical whenever the search
changes.  ``GOLDEN`` holds a SHA-256 digest per input family, made from
``(certificate, perm)`` of every input below; for the large catalogs, from
each entry's certificate and its canonically labelled flats.
"""

import hashlib
import itertools
import time

import pytest

from conftest import brute_automorphism_count, flats_of, group_closure
from mdg import canon
from mdg.canon import canonical_form
from mdg.corpus import (
    build_corpus_lattice,
    complete_graph_edges,
    corpus_names,
    cycle_graph_edges,
    path_graph_edges,
)
from mdg.extensions import (ModularCut, _valid_cuts, catalog,
                            single_element_extension)
from mdg.lattice import (GeometricLattice, build_boolean, build_from_flats,
                         build_from_graph)


# Criterion 5's sweep graphs with C7, plus K3,3 and K6
SWEEP_GRAPHS = {
    "K3": complete_graph_edges(3),
    "K4": complete_graph_edges(4),
    "C4": cycle_graph_edges(4),
    "C5": cycle_graph_edges(5),
    "C6": cycle_graph_edges(6),
    "C7": cycle_graph_edges(7),
    "P5": path_graph_edges(5),
    "P7": path_graph_edges(7),
    "C4+chord": [("1", "2"), ("2", "3"), ("3", "4"), ("1", "4"), ("1", "3")],
    "C4+pendant": [("1", "2"), ("2", "3"), ("3", "4"), ("1", "4"),
                   ("4", "5")],
    "house+diagonal": [("1", "2"), ("1", "3"), ("2", "3"), ("1", "4"),
                       ("2", "4"), ("3", "5"), ("4", "5")],
    "K3,3": [(a, b) for a in "123" for b in "456"],
    "K6": complete_graph_edges(6),
}

CATALOG_BASES = ("pi3", "pi4", "b2", "b3", "k4")
CATALOG_BOUNDS = (3, 2)
# the +1-atom catalog of verify-qiso on pi4, and pi3 where cuts first need
# more than three generating flats
LARGE_CATALOGS = (("pi4", (4, 2)), ("pi3", (5, 2)))

GOLDEN = {
    "corpus": "dc206632761c42713a2c1ab28aeeb9eb"
              "4a378b1b98fe071a427762dca1505a59",
    "graphs": "063ed5c9efc4d700e3cd23273c15672f"
              "5b047e1f576f4a57ce3802f1dab25e46",
    "catalogs": "d847486cc7ca9b7f1a47d11d4b2afdfe"
                "01b957648cf1a288d29bf5f590a6873a",
    "large-catalogs": "0a50738126b132c3f709c466c55f8f88"
                      "aa992fcb960f3aa9854c6a7245904c06",
}


def _line(name, cf):
    return (name.encode() + b"|" + cf.certificate + b"|"
            + ",".join(map(str, cf.perm)).encode() + b"\n")


def _corpus_lines():
    for name in corpus_names():
        lat = build_corpus_lattice(name)
        yield _line(name, canonical_form(lat))
        yield _line(name + "/pinned", canonical_form(lat, lat.atoms))


def _graph_lines():
    for name, edges in SWEEP_GRAPHS.items():
        yield _line(name, canonical_form(build_from_graph(edges)))


def _catalog_lines():
    for name in CATALOG_BASES:
        base = build_corpus_lattice(name)
        for k, entry in enumerate(catalog(base, *CATALOG_BOUNDS)):
            tag = f"{name}/{k}"
            yield tag.encode() + b"|" + entry.certificate + b"\n"
            yield _line(tag, canonical_form(entry.lat, base.atoms))
            yield _line(tag + "/free", canonical_form(entry.lat))


def _large_catalog_lines():
    for name, bounds in LARGE_CATALOGS:
        base = build_corpus_lattice(name)
        for k, entry in enumerate(catalog(base, *bounds)):
            yield (f"{name}{bounds}/{k}|{entry.extra_rank}|".encode()
                   + entry.certificate + b"|"
                   + ",".join(map(str, entry.lat.flat_masks)).encode()
                   + b"\n")


FAMILIES = {
    "corpus": _corpus_lines,
    "graphs": _graph_lines,
    "catalogs": _catalog_lines,
    "large-catalogs": _large_catalog_lines,
}


def digest(family):
    h = hashlib.sha256()
    for line in FAMILIES[family]():
        h.update(line)
    return h.hexdigest()


@pytest.mark.parametrize("family", list(FAMILIES))
def test_canonical_forms_golden(family):
    assert digest(family) == GOLDEN[family]


# ----------------------------------------------------------------------
# color refinement against the loop that runs until a round repeats


def _reference_refine(incidence, colors):
    """Refinement rounds until one reproduces its input colors exactly."""
    flats, atom_flats = incidence
    while True:
        sigs = [(r, tuple(sorted([colors[i] for i in atoms])))
                for r, atoms in flats]
        sig_order = {s: k for k, s in enumerate(sorted(set(sigs)))}
        flat_sig_ids = [sig_order[s] for s in sigs]
        atom_sigs = [(c, tuple(sorted([flat_sig_ids[f] for f in fs])))
                     for c, fs in zip(colors, atom_flats)]
        new_ids = {s: k for k, s in enumerate(sorted(set(atom_sigs)))}
        new_colors = tuple(new_ids[s] for s in atom_sigs)
        if new_colors == colors:
            return colors
        colors = new_colors


def test_refine_matches_the_reference_on_every_search_call(pi4, monkeypatch):
    entries = catalog(pi4, 4, 2)
    calls = []
    refine = canon._refine

    def recording(incidence, colors):
        out = refine(incidence, colors)
        calls.append((incidence, colors, out))
        return out

    monkeypatch.setattr(canon, "_refine", recording)
    for entry in entries:
        canonical_form(entry.lat, pi4.atoms)
        canonical_form(entry.lat)
    for edges in SWEEP_GRAPHS.values():
        canonical_form(build_from_graph(edges))
    # the search also refines inputs that are discrete and not consecutive
    assert any(len(set(c)) == len(c) and max(c) >= len(c)
               for _, c, _ in calls)
    for incidence, colors, out in calls:
        assert out == _reference_refine(incidence, colors), colors


def test_refine_renumbers_a_discrete_coloring_without_the_incidence():
    assert canon._refine(None, (5, 0, 2)) == (2, 0, 1)
    assert canon._refine(None, ()) == ()


def test_refine_after_individualizing_a_whole_cell():
    lat = build_from_graph(SWEEP_GRAPHS["house+diagonal"])
    incidence = canon._incidence(lat)
    root = canon._refine(incidence, (0,) * lat.n_atoms)
    cell = min((c for c in canon._cells(root) if len(c) > 1), key=len)
    colors = list(root)
    for k, atom in enumerate(cell):
        colors[atom] = max(root) + 1 + k
    colors = tuple(colors)
    # colors skip the emptied cell's number, and a cell of several atoms
    # remains
    assert sorted(set(colors)) != list(range(len(set(colors))))
    assert len(set(colors)) < len(colors)
    out = canon._refine(incidence, colors)
    assert out == _reference_refine(incidence, colors)
    assert sorted(set(out)) == list(range(len(set(out))))


# ----------------------------------------------------------------------
# automorphism generators


def _uniform(rank, n):
    atoms = [str(i) for i in range(n)]
    flats = [s for r in range(rank) for s in itertools.combinations(atoms, r)]
    return build_from_flats(atoms, flats + [atoms])


GROUP_CASES = {
    "pi4": (lambda: build_corpus_lattice("pi4"), 24),
    "B6": (lambda: build_boolean(6), 720),
    "U(5,6)": (lambda: _uniform(5, 6), 720),
    "K3,3": (lambda: build_from_graph(SWEEP_GRAPHS["K3,3"]), 72),
    "C7": (lambda: build_from_graph(SWEEP_GRAPHS["C7"]), 5040),
}


@pytest.mark.parametrize("name", list(GROUP_CASES))
def test_generators_generate_the_automorphism_group(name):
    build, order = GROUP_CASES[name]
    lat = build()
    assert brute_automorphism_count(lat) == order
    cf = canonical_form(lat)
    n = lat.n_atoms
    assert len(cf.automorphisms) <= n - 1
    flats = set(lat.flat_masks)
    for g in cf.automorphisms:
        image = {sum(1 << g[i] for i in range(n) if m >> i & 1)
                 for m in flats}
        assert image == flats
    assert len(group_closure(cf.automorphisms, n)) == order


def test_cycle_graph_c7_is_fast():
    lat = build_from_graph(SWEEP_GRAPHS["C7"])
    t0 = time.process_time()
    canonical_form(lat)
    assert time.process_time() - t0 < 1.0


def _brute_has_odd_aut(entry):
    """Some permutation of the new atoms, fixing the base atoms, maps the
    flat family onto itself and is odd."""
    atoms = entry.lat.atoms
    base, new = atoms[:entry.n_base], atoms[entry.n_base:]
    flats = set(flats_of(entry.lat))
    for images in itertools.permutations(new):
        inversions = sum(1 for i, j in itertools.combinations(range(len(new)), 2)
                         if new.index(images[i]) > new.index(images[j]))
        if inversions % 2 == 0:
            continue
        m = dict(zip(base, base)) | dict(zip(new, images))
        if {frozenset(m[x] for x in f) for f in flats} == flats:
            return True
    return False


@pytest.mark.parametrize("name", ["pi3", "pi4", "b3"])
def test_has_odd_aut_matches_brute_force(name):
    base = build_corpus_lattice(name)
    entries = catalog(base, 3, 2)
    assert any(e.has_odd_aut for e in entries)
    for entry in entries:
        assert entry.has_odd_aut == _brute_has_odd_aut(entry), \
            (name, entry.certificate)


def test_canonical_form_ignores_atom_labels():
    # the algebra keys its canonical forms on flat masks and pinned
    # positions alone: a copy of each entry with fresh labels, sorting in
    # the opposite order, at the same positions gets the same form
    base = build_corpus_lattice("pi4")
    entries = catalog(base, 4, 2)
    for entry in entries:
        lat = entry.lat
        n = lat.n_atoms
        copy = GeometricLattice(tuple(f"z{n - i:02d}" for i in range(n)),
                                lat.flat_masks)
        pinned = range(entry.n_base)
        want = canonical_form(lat, [lat.atoms[i] for i in pinned])
        got = canonical_form(copy, [copy.atoms[i] for i in pinned])
        assert got == want, entry.certificate
    assert any(e.level == 4 for e in entries)


# every child the pi4 (4,2) walk can try: each cut of each entry below the
# top level, the empty cut included, as a built lattice with pi4 pinned
CHILDREN_GOLDEN = (
    "02a4ba19830b710317a39f50f4c0757de848d8543436b7587b6fc54030df4368")


def test_catalog_children_forms_golden():
    # the search may change how it reaches its result, never the result:
    # certificate, labelling and the automorphism generators it lists
    pi4 = build_corpus_lattice("pi4")
    h = hashlib.sha256()
    n = 0
    for entry in catalog(pi4, 4, 2):
        if entry.level == 4:
            continue
        for members in [frozenset()] + list(_valid_cuts(entry)):
            child, _ = single_element_extension(
                entry.lat, ModularCut(entry.lat, members), "@new")
            cf = canonical_form(child, pi4.atoms)
            h.update(cf.certificate + b"|"
                     + repr((cf.perm, cf.automorphisms)).encode() + b"\n")
            n += 1
    assert n == 366
    assert h.hexdigest() == CHILDREN_GOLDEN
