"""Lattice spec files: JSON descriptions of corpus and user lattices."""

from __future__ import annotations

import json

from .errors import SpecParse
from .lattice import (
    GeometricLattice,
    build_boolean,
    build_from_flats,
    build_from_graph,
    build_partition_lattice,
)


def parse_lattice_spec(data, *, name=None) -> GeometricLattice:
    """Build a lattice from a parsed spec dictionary.

    Formats: {"kind": "flats", "atoms": [...], "flats": [[...], ...]},
    {"kind": "graph", "edges": [["u","v"], ...]},
    {"kind": "partition", "n": k}, {"kind": "boolean", "n": k} or
    {"kind": "boolean", "atoms": [...]}.
    """
    if not isinstance(data, dict):
        raise SpecParse("lattice spec must be a JSON object")
    kind = data.get("kind")
    try:
        if kind == "flats":
            return build_from_flats(data["atoms"], data["flats"], name=name)
        if kind == "graph":
            return build_from_graph(graph_edges(data), name=name)
        if kind == "partition":
            return build_partition_lattice(_size(data), name=name)
        if kind == "boolean":
            if "atoms" in data:
                return build_boolean(atoms=tuple(data["atoms"]), name=name)
            return build_boolean(_size(data), name=name)
    except KeyError as ex:
        raise SpecParse(f"missing field {ex} in lattice spec") from ex
    except TypeError as ex:
        raise SpecParse(f"malformed lattice spec: {ex}") from ex
    raise SpecParse(f"unknown lattice kind {kind!r}")


def _size(data):
    n = data["n"]
    if type(n) is not int or n < 0:
        raise SpecParse(f"'n' must be a non-negative integer, got {n!r}")
    return n


def graph_edges(data):
    """The edges of a spec of kind 'graph', each a pair of vertex labels."""
    if not isinstance(data, dict) or data.get("kind") != "graph":
        raise SpecParse("expected a lattice spec of kind 'graph'")
    edges = data.get("edges")
    if not isinstance(edges, (list, tuple)) or not all(
            isinstance(e, (list, tuple)) and len(e) == 2
            and all(isinstance(v, (str, int)) for v in e) for e in edges):
        raise SpecParse("'edges' must be a list of [u, v] vertex pairs")
    return [tuple(e) for e in edges]


def read_spec(path):
    """The parsed JSON of a spec file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as ex:  # ValueError: bad JSON or UTF-8
        raise SpecParse(f"cannot read lattice spec {path}: {ex}") from ex


def load_lattice(path, *, name=None) -> GeometricLattice:
    return parse_lattice_spec(read_spec(path), name=name or str(path))
