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
            edges = [tuple(e) for e in data["edges"]]
            return build_from_graph(edges, name=name)
        if kind == "partition":
            return build_partition_lattice(int(data["n"]), name=name)
        if kind == "boolean":
            if "atoms" in data:
                return build_boolean(atoms=tuple(data["atoms"]), name=name)
            return build_boolean(int(data["n"]), name=name)
    except KeyError as ex:
        raise SpecParse(f"missing field {ex} in lattice spec") from ex
    raise SpecParse(f"unknown lattice kind {kind!r}")


def load_lattice(path, *, name=None) -> GeometricLattice:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as ex:
        raise SpecParse(f"cannot read lattice spec {path}: {ex}") from ex
    return parse_lattice_spec(data, name=name or str(path))
