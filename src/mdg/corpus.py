"""Built-in desk-scale lattices used by the CLI, the golden reports and tests."""

from __future__ import annotations

import itertools

from .errors import NotGeometric
from .lattice import (
    GeometricLattice,
    build_boolean,
    build_from_flats,
    build_from_graph,
)


def build_rank3_configuration(points, lines, *, name=None) -> GeometricLattice:
    """Rank-3 lattice of a point-line configuration.

    ``lines`` lists the multi-point lines; every pair of points not covered
    by a listed line spans its own two-point line.  Validates the geometric
    axioms via the generic constructor.
    """
    points = list(points)
    lines = [frozenset(l) for l in lines]
    for l1, l2 in itertools.combinations(lines, 2):
        if len(l1 & l2) > 1:
            raise NotGeometric("two lines share two points",
                               witness=(tuple(sorted(l1)), tuple(sorted(l2))))
    flats = [frozenset()]
    flats += [frozenset([p]) for p in points]
    covered = set()
    for l in lines:
        flats.append(l)
        covered.update(frozenset(p) for p in itertools.combinations(sorted(l), 2))
    for p, q in itertools.combinations(points, 2):
        if frozenset((p, q)) not in covered:
            flats.append(frozenset((p, q)))
    flats.append(frozenset(points))
    return build_from_flats(points, flats, name=name)


def eight_point_plane(*, name="plane8") -> GeometricLattice:
    """Eight points, five long lines, rank 3; the recurring worked example."""
    points = ["a", "b", "c", "d", "e", "b'", "c'", "d'"]
    lines = [
        {"a", "b", "c", "d"},
        {"a", "b'", "c'", "d'"},
        {"b", "e", "b'"},
        {"c", "e", "c'"},
        {"d", "e", "d'"},
    ]
    return build_rank3_configuration(points, lines, name=name)


def seven_point_plane(*, name="plane7") -> GeometricLattice:
    """The previous configuration with the triple point ``e`` deleted."""
    points = ["a", "b", "c", "d", "b'", "c'", "d'"]
    lines = [
        {"a", "b", "c", "d"},
        {"a", "b'", "c'", "d'"},
    ]
    return build_rank3_configuration(points, lines, name=name)


def cycle_graph_edges(n):
    return [(str(i), str(i % n + 1)) for i in range(1, n + 1)]


def path_graph_edges(n_vertices):
    return [(str(i), str(i + 1)) for i in range(1, n_vertices)]


def complete_graph_edges(n):
    return [(str(i), str(j)) for i in range(1, n + 1) for j in range(i + 1, n + 1)]


# the graphic corpus lattices: name -> (edge family, size)
_GRAPHS = {
    "pi2": (complete_graph_edges, 2),
    "pi3": (complete_graph_edges, 3),
    "pi4": (complete_graph_edges, 4),
    "pi5": (complete_graph_edges, 5),
    "c4": (cycle_graph_edges, 4),
    "c5": (cycle_graph_edges, 5),
    "k4": (complete_graph_edges, 4),
    "path3": (path_graph_edges, 3),
    "path4": (path_graph_edges, 4),
}


def graph_edges(name: str):
    """Edges of the graph of a graphic corpus lattice; None for the others."""
    if name not in _GRAPHS:
        return None
    family, size = _GRAPHS[name]
    return family(size)


def corpus_names():
    return list(_BUILDERS)


def build_corpus_lattice(name: str) -> GeometricLattice:
    return _BUILDERS[name]()


def _graphic(name):
    return lambda: build_from_graph(graph_edges(name), name=name)


_BUILDERS = {
    "pi2": _graphic("pi2"),
    "pi3": _graphic("pi3"),
    "pi4": _graphic("pi4"),
    "pi5": _graphic("pi5"),
    "b1": lambda: build_boolean(1),
    "b2": lambda: build_boolean(2),
    "b3": lambda: build_boolean(3),
    "b4": lambda: build_boolean(4),
    "c4": _graphic("c4"),
    "c5": _graphic("c5"),
    "k4": _graphic("k4"),
    "path3": _graphic("path3"),
    "path4": _graphic("path4"),
    "plane8": eight_point_plane,
    "plane7": seven_point_plane,
}
