"""Command line surface: lattice checks, OS series, diagram computations,
verification campaigns, golden reports.

Exit codes: 0 pass, 1 check failure, 2 input error, 3 resource limit.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import corpus
from .diagrams import algebra_for, cohomology
from .errors import MDGError, ResourceLimit, SpecParse
from .extensions import catalog
from .harness import (emit_golden, run_axiom_suite, run_verify_qiso,
                      stabilization_report)
from .lattice import GeometricLattice
from .modularity import (
    chordality_crosscheck,
    is_modular,
    is_supersolvable,
    modular_coatoms,
    modular_flats,
)
from .os_algebra import hilbert_series, koszul_series_check, reduce_to_nbc
from .specfile import graph_edges, load_lattice, read_spec


def _load(arg: str) -> GeometricLattice:
    if arg in corpus.corpus_names():
        return corpus.build_corpus_lattice(arg)
    if os.path.exists(arg):
        return load_lattice(arg)
    raise SpecParse(f"{arg!r} is neither a corpus name nor a readable file")


def _load_graph_edges(arg: str):
    if arg in corpus.corpus_names():
        edges = corpus.graph_edges(arg)
        if edges is None:
            raise SpecParse(f"corpus lattice {arg!r} is not graphical")
        return edges
    return graph_edges(read_spec(arg))


def _emit(args, payload, human_lines):
    if args.json:
        print(json.dumps(payload, sort_keys=True, indent=2, default=str))
    else:
        for line in human_lines:
            print(line)


def _flat_from_arg(lat, text):
    if text == "top":
        return lat.top
    if text == "bottom":
        return lat.bottom
    labels = [t for t in text.split(",") if t]
    return lat.flat_of_atoms(labels)


def _count(text):
    """A non-negative integer option value."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {text!r}")
    return int(text)


def _seconds(text):
    """A finite, positive number of seconds."""
    value = float(text)     # argparse reports a ValueError as a usage error
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(
            f"expected a finite, positive number of seconds, got {text!r}")
    return value


def _add_common(p, bounds=True):
    p.add_argument("--lattice", required=True,
                   help="corpus name (pi3, b2, c4, plane8, ...) or spec file")
    p.add_argument("--json", action="store_true")
    if bounds:
        p.add_argument("--max-atoms", type=_count, default=3)
        p.add_argument("--max-rank", type=_count, default=2)


def build_parser():
    ap = argparse.ArgumentParser(
        prog="mdg",
        description="Modular-diagram dg algebra over geometric lattices")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check the geometric lattice axioms")
    _add_common(p, bounds=False)

    p = sub.add_parser("modular", help="list modular flats and coatoms")
    _add_common(p, bounds=False)
    p.add_argument("--flat", help="comma-separated atom labels to test")

    p = sub.add_parser("supersolvable", help="search for a modular chain")
    _add_common(p, bounds=False)

    p = sub.add_parser("chordal", help="perfect-elimination chordality check")
    _add_common(p, bounds=False)

    p = sub.add_parser("os", help="Orlik-Solomon algebra")
    oss = p.add_subparsers(dest="os_command", required=True)
    ph = oss.add_parser("hilbert")
    _add_common(ph, bounds=False)
    pr = oss.add_parser("reduce")
    _add_common(pr, bounds=False)
    pr.add_argument("word", nargs="+", help="atom labels, in order")
    pk = oss.add_parser("koszul-series")
    _add_common(pk, bounds=False)
    pk.add_argument("--order", type=_count, default=8)

    p = sub.add_parser("md", help="modular diagram computations")
    mds = p.add_subparsers(dest="md_command", required=True)
    pb = mds.add_parser("basis")
    _add_common(pb)
    pb.add_argument("--grading", default="top")
    pb.add_argument("--degree", type=int, required=True)
    pd = mds.add_parser("diff")
    _add_common(pd)
    pd.add_argument("--grading", default="top")
    pd.add_argument("--degree", type=int, required=True)
    pd.add_argument("--index", type=int, required=True)
    pc = mds.add_parser("cohomology")
    _add_common(pc)
    pc.add_argument("--grading", default="top")
    pc.add_argument("--dump-matrices", metavar="DIR")

    p = sub.add_parser("extensions", help="modular extension catalog")
    exs = p.add_subparsers(dest="ext_command", required=True)
    pe = exs.add_parser("enumerate")
    _add_common(pe)
    pe.add_argument("--out", metavar="FILE")

    p = sub.add_parser("verify-qiso",
                       help="truncated cohomology against the predicted "
                            "top-grading values")
    _add_common(p)
    p.add_argument("--timeout", type=_seconds, default=None,
                   help="wall-clock limit in seconds (exit 3 on excess)")

    p = sub.add_parser("axioms", help="structural identity suite")
    _add_common(p)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("golden", help="write corpus reports")
    p.add_argument("--out", required=True)
    p.add_argument("--pi5", action="store_true")
    p.add_argument("--json", action="store_true")
    return ap


def _diagram_payload(diag, sign=1):
    d = diag.describe()
    d["sign"] = sign
    d["extension"] = diag.entry.certificate.hex()
    d["J"] = d["word"]
    return d


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        code = _dispatch(args)
        sys.stdout.flush()  # a closed pipe shows here, not at shutdown
        return code
    except BrokenPipeError:
        # the reader of stdout went away: not an input error; the output
        # left in the buffer goes to the null device at shutdown
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141  # 128 + SIGPIPE, as a shell reports a killed writer
    except ResourceLimit as ex:
        print(f"resource limit: {ex}", file=sys.stderr)
        return 3
    except (MDGError, OSError) as ex:     # OSError: an unwritable path
        print(f"input error: {ex}", file=sys.stderr)
        return 2
    except MemoryError:
        print("resource limit exceeded", file=sys.stderr)
        return 3


def _dispatch(args):
    cmd = args.command
    if cmd == "validate":
        lat = _load(args.lattice)
        payload = {"atoms": lat.n_atoms, "rank": lat.rank,
                   "flats": lat.n_flats, "valid": True}
        _emit(args, payload,
              [f"valid geometric lattice: {lat.n_atoms} atoms, "
               f"rank {lat.rank}, {lat.n_flats} flats"])
        return 0

    if cmd == "modular":
        lat = _load(args.lattice)
        if args.flat:
            f = _flat_from_arg(lat, args.flat)
            ok, wit = is_modular(lat, f, with_witness=True)
            payload = {"flat": sorted(lat.atoms_of(f)), "modular": ok,
                       "witness": sorted(lat.atoms_of(wit)) if wit is not None
                       else None}
            _emit(args, payload,
                  [f"{payload['flat']} modular: {ok}" +
                   (f" (witness {payload['witness']})" if not ok else "")])
            return 0
        flats = [sorted(lat.atoms_of(f)) for f in modular_flats(lat)]
        coat = [sorted(lat.atoms_of(f)) for f in modular_coatoms(lat)]
        payload = {"modular_flats": flats, "modular_coatoms": coat}
        _emit(args, payload,
              [f"modular flats: {len(flats)}", f"modular coatoms: {coat}"])
        return 0

    if cmd == "supersolvable":
        lat = _load(args.lattice)
        chain = is_supersolvable(lat)
        if chain is None:
            _emit(args, {"supersolvable": False}, ["not supersolvable"])
            return 0
        payload = {"supersolvable": True,
                   "chain": [sorted(lat.atoms_of(f)) for f in chain.flats],
                   "j_sizes": list(chain.j_sizes)}
        _emit(args, payload,
              ["supersolvable; chain atom sets: "
               + " < ".join(str(s) for s in payload["chain"]),
               f"j sizes: {payload['j_sizes']}"])
        return 0

    if cmd == "chordal":
        edges = _load_graph_edges(args.lattice)
        ok = chordality_crosscheck(edges)
        _emit(args, {"chordal": ok}, [f"chordal: {ok}"])
        return 0

    if cmd == "os":
        lat = _load(args.lattice)
        if args.os_command == "hilbert":
            h = hilbert_series(lat)
            _emit(args, {"hilbert": h}, [" ".join(str(x) for x in h)])
            return 0
        if args.os_command == "reduce":
            el = reduce_to_nbc(lat, args.word)
            terms = [{"monomial": list(m), "coefficient": f"{c}/1"}
                     for m, c in el.monomials()]
            _emit(args, {"terms": terms},
                  [" + ".join(f"({t['coefficient']}) e[{','.join(t['monomial'])}]"
                              for t in terms) or "0"])
            return 0
        if args.os_command == "koszul-series":
            ok, coeffs, fail = koszul_series_check(lat, args.order)
            payload = {"nonnegative": ok, "coefficients": coeffs,
                       "first_negative_index": fail}
            _emit(args, payload,
                  [("pass " if ok else f"fail at index {fail} ")
                   + str(coeffs)])
            return 0 if ok else 1

    if cmd == "md":
        lat = _load(args.lattice)
        alg = algebra_for(lat)
        grading = _flat_from_arg(lat, args.grading)
        bounds = (args.max_atoms, args.max_rank)
        if args.md_command == "basis":
            diags = alg.basis(grading, args.degree, bounds)
            payload = {"count": len(diags),
                       "diagrams": [_diagram_payload(d) for d in diags]}
            _emit(args, payload,
                  [f"{len(diags)} diagrams"] +
                  [f"  [{i}] word={list(d.word_labels())} "
                   f"new={d.describe()['new_atoms']}"
                   for i, d in enumerate(diags)])
            return 0
        if args.md_command == "diff":
            diags = alg.basis(grading, args.degree, bounds)
            if not 0 <= args.index < len(diags):
                raise SpecParse(f"index {args.index} outside basis of size "
                                f"{len(diags)}")
            vec = alg.differential_diagram(diags[args.index])
            payload = {"terms": [
                {"coefficient": str(c), "diagram": _diagram_payload(d)}
                for d, c in vec.coeffs.items()]}
            _emit(args, payload,
                  [f"{c} * {list(d.word_labels())}"
                   for d, c in vec.coeffs.items()] or ["0"])
            return 0
        if args.md_command == "cohomology":
            blk, nxt, _ = cohomology(lat, grading, args.max_atoms,
                                     args.max_rank)
            if args.dump_matrices:
                _dump_matrices(blk, args.dump_matrices)
            tables, stable = stabilization_report(blk, nxt)
            payload = {**tables, "healed": blk.healed,
                       "stable_degrees": stable}
            _emit(args, payload,
                  [f"dims:  {payload['dims']}",
                   f"betti: {payload['betti']}",
                   f"betti at +1 atom: {payload['betti_next']}",
                   f"stable: {payload['stable_degrees']}",
                   f"betti by nullity: {payload['cells']['nullity_betti']}",
                   f"exact cells (nullity, degree): "
                   f"{payload['cells']['exact_cells']}",
                   f"exact cells at +1 atom: "
                   f"{payload['cells_next']['exact_cells']}"])
            return 0

    if cmd == "extensions":
        lat = _load(args.lattice)
        entries = catalog(lat, args.max_atoms, args.max_rank)
        payload = {"count": len(entries), "extensions": []}
        for e in entries:
            payload["extensions"].append({
                "atoms": list(e.lat.atoms),
                "new_atoms": e.level,
                "extra_rank": e.extra_rank,
                "certificate": e.certificate.hex(),
                "flats": [sorted(e.lat.atoms_of(f))
                          for f in range(e.lat.n_flats)],
            })
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                json.dump(payload, fh, sort_keys=True, indent=2)
        _emit(args, payload,
              [f"{len(entries)} extension classes"] +
              [f"  +{x['new_atoms']} atoms, +{x['extra_rank']} rank"
               for x in payload["extensions"]])
        return 0

    if cmd == "verify-qiso":
        lat = _load(args.lattice)
        rep = run_verify_qiso(lat, args.max_atoms, args.max_rank,
                              name=args.lattice, timeout=args.timeout)
        _report_out(args, rep)
        return 0 if rep.passed else 1

    if cmd == "axioms":
        lat = _load(args.lattice)
        rep = run_axiom_suite(lat, args.max_atoms, args.max_rank,
                              seed=args.seed, name=args.lattice)
        _report_out(args, rep)
        return 0 if rep.passed else 1

    if cmd == "golden":
        written = emit_golden(args.out, include_pi5=args.pi5)
        payload = {"written": written}
        _emit(args, payload, [f"wrote {len(written)} reports to {args.out}"])
        return 0

    raise SpecParse(f"unknown command {cmd}")


def _report_out(args, rep):
    if args.json:
        print(rep.to_json())
        return
    print(f"lattice: {rep.lattice}  bounds: {rep.bounds}")
    for c in rep.checks:
        print(f"  [{c['status']:4}] {c['name']}: {c['details']}")
    if rep.tables:
        for k, v in rep.tables.items():
            print(f"  {k}: {v}")
    if rep.stabilization:
        print(f"  stable degrees: {rep.stabilization}")


def _dump_matrices(block, out_dir):
    """Write the map out of each degree k to d{k}.txt."""
    from .linalg import IntegerMatrix
    os.makedirs(out_dir, exist_ok=True)
    dims = block.dims
    for k in block.ranks:       # every degree from the lowest to the highest
        m = IntegerMatrix(dims.get(k + 1, 0), dims.get(k, 0))
        # a diagram's nullity names its cell: the cells share no row
        for (_, d), cell in block.cells.items():
            if d == k:
                m.entries.update(cell.entries)
        with open(os.path.join(out_dir, f"d{k}.txt"), "w",
                  encoding="utf-8") as fh:
            m.dump(fh)


if __name__ == "__main__":
    sys.exit(main())
