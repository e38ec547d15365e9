"""Verification campaigns: the quasi-isomorphism check, the axiom suite,
and byte-stable golden reports for the bundled corpus."""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field

from . import corpus
from .diagrams import (
    Combination,
    ZERO,
    algebra_for,
    determining_bounds,
    stable_degrees,
)
from .extensions import catalog
from .lattice import (GeometricLattice, _atoms_mask, _interval, _restrict,
                      interval_at)
from .modularity import (
    is_supersolvable,
    modular_characterizations_agree,
    modular_coatoms,
)
from .os_algebra import (
    hilbert_series,
    koszul_series_check,
    multiply,
    os_coproduct,
    os_graded_dims,
)


@dataclass
class VerificationReport:
    lattice: str
    bounds: tuple = ()
    checks: list = field(default_factory=list)
    tables: dict = field(default_factory=dict)
    stabilization: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict)

    def add(self, name, status, **details):
        self.checks.append({"name": name, "status": status, "details": details})

    @property
    def passed(self):
        return all(c["status"] != "FAIL" for c in self.checks)

    def to_dict(self, *, with_timings=True):
        out = {
            "lattice": self.lattice,
            "bounds": list(self.bounds),
            "checks": self.checks,
            "tables": self.tables,
            "stabilization": self.stabilization,
        }
        if with_timings:
            out["timings"] = {k: round(v, 3) for k, v in self.timings.items()}
        return out

    def to_json(self, *, with_timings=True):
        return json.dumps(self.to_dict(with_timings=with_timings),
                          sort_keys=True, indent=2)


def stabilization_report(lo, hi):
    """The tables of a truncation ``lo`` and its +1-atom run ``hi`` (Betti
    numbers, dimensions and cells), and the per-degree agreement of their
    Betti numbers, keyed by strings for JSON."""
    def by_degree(d):
        return {str(k): v for k, v in sorted(d.items())}
    tables = {"betti": by_degree(lo.betti), "betti_next": by_degree(hi.betti),
              "dims": by_degree(lo.dims), "cells": lo.cell_report(),
              "cells_next": hi.cell_report()}
    return tables, by_degree(stable_degrees(lo, hi))


def run_verify_qiso(lat: GeometricLattice, max_new_atoms=3, max_extra_rank=2,
                    *, name=None, timeout=None) -> VerificationReport:
    """Pipeline: validate, supersolvability, Hilbert series, truncated
    cohomology of the top-grading block at the bounds and at one more atom,
    then compare the (nullity, degree) cells that either run determines
    exactly against the predicted values.

    For supersolvable lattices the prediction is concentration in nullity
    0 and degree rank, with dimension the product of the chain's
    atom-count steps.  The check fails when neither run determines that
    cell; ``determined_at`` names the smallest bounds that would.  For
    other lattices no claim is asserted and the truncated numbers are
    attached.
    """
    rep = VerificationReport(name or lat.name or "lattice",
                             (max_new_atoms, max_extra_rank))
    start = time.monotonic()

    def check_deadline(phase):
        if timeout is not None and time.monotonic() - start > timeout:
            from .errors import ResourceLimit
            raise ResourceLimit(f"timeout exceeded during {phase}")

    t0 = time.perf_counter()
    GeometricLattice(lat.atoms, lat.flat_masks, name=lat.name)  # re-validate
    rep.add("lattice-valid", "PASS", atoms=lat.n_atoms, rank=lat.rank,
            flats=lat.n_flats)
    rep.timings["validate"] = time.perf_counter() - t0
    check_deadline("validation")

    t0 = time.perf_counter()
    chain = is_supersolvable(lat)
    rep.timings["supersolvable"] = time.perf_counter() - t0
    hilb = hilbert_series(lat)
    rep.tables["hilbert"] = hilb
    graded = os_graded_dims(lat)
    top_dim = graded.get(lat.top, 0)
    rep.add("os-top-concentration", "PASS", top_dim=top_dim, degree=lat.rank)

    if chain is None:
        rep.add("supersolvable", "INFO", supersolvable=False,
                note="not supersolvable; qiso claim not asserted")
        expected = None
    else:
        sizes = chain.j_sizes
        rep.add("supersolvable", "PASS", supersolvable=True,
                j_sizes=list(sizes))
        expected = 1
        for s in sizes:
            expected *= s
        prod = [1]
        for s in sizes:
            prod = [a + b for a, b in
                    zip(prod + [0], [0] + [s * c for c in prod])]
        status = "PASS" if prod == hilb else "FAIL"
        rep.add("hilbert-factorization", status, expected=prod, got=hilb)

    check_deadline("series checks")
    t0 = time.perf_counter()
    alg = algebra_for(lat)
    # the blocks read the children this walk keeps on the base
    catalog(alg.base, max_new_atoms + 1, max_extra_rank,
            deadline=None if timeout is None else start + timeout)
    lo = alg.cohomology_block(lat.top, (max_new_atoms, max_extra_rank))
    check_deadline("cohomology at the base bounds")
    hi = alg.cohomology_block(lat.top, (max_new_atoms + 1, max_extra_rank))
    check_deadline("cohomology at the stability bounds")
    rep.timings["cohomology"] = time.perf_counter() - t0
    tables, rep.stabilization = stabilization_report(lo, hi)
    rep.tables.update(tables)

    if expected is not None:
        # compare every (nullity, degree) cell whose Betti number the bounds
        # determine: the predicted cell against the product, the rest
        # against zero, and cells determined in both runs against each other
        target = (0, lat.rank)
        exact = {}  # cell -> Betti number in the first run determining it
        mismatches = []
        for blk in (lo, hi):
            for cell in sorted(c for c in {*blk.exact_cells, target}
                               if blk.is_exact(*c)):
                got = blk.cell_betti.get(cell, 0)
                want = expected if cell == target else 0
                first = exact.setdefault(cell, got)
                if got != want or got != first:
                    mismatches.append({"cell": list(cell), "expected": want,
                                       "got": got,
                                       "bounds": list(blk.bounds)})
        need = determining_bounds(lo.grading_rank, *target)
        details = {}
        if target not in exact:
            details["note"] = (f"cell {list(target)} is determined from "
                               f"bounds {need}; the +1-atom run reaches "
                               f"them from --max-atoms {need[0] - 1} "
                               f"--max-rank {need[1]}")
        status = "PASS" if target in exact and not mismatches else "FAIL"
        rep.add("qiso-stable-comparison", status, expected_top=expected,
                got_top=exact.get(target), mismatches=mismatches,
                exact_cells=[list(c) for c in sorted(exact)],
                determined_at=list(need), **details)
    else:
        rep.add("qiso-stable-comparison", "INFO",
                note="no prediction asserted (not supersolvable)",
                truncated_betti=tables["betti"])
    return rep


def _pairs(items, limit, rng):
    n = len(items)
    if n * n <= limit:
        for a in items:
            for b in items:
                yield a, b
    else:
        for _ in range(limit):
            yield rng.choice(items), rng.choice(items)


def _tensor_differential(tensor: Combination, low_alg, up_alg) -> Combination:
    out = Combination()
    for (lo, hidiag), c in tensor.coeffs.items():
        for d2, c2 in low_alg.differential_diagram(lo).coeffs.items():
            out.add_term(c * c2, (d2, hidiag))
        sign = (-1) ** lo.degree
        for d2, c2 in up_alg.differential_diagram(hidiag).coeffs.items():
            out.add_term(c * c2 * sign, (lo, d2))
    return out


def _tensor_product(t1: Combination, t2: Combination, low_alg, up_alg):
    out = Combination()
    for (a1, b1), c1 in t1.coeffs.items():
        for (a2, b2), c2 in t2.coeffs.items():
            koszul = (-1) ** (b1.degree * a2.degree)
            for al, cl in low_alg.product(a1, a2).coeffs.items():
                for bu, cu in up_alg.product(b1, b2).coeffs.items():
                    out.add_term(c1 * c2 * cl * cu * koszul, (al, bu))
    return out


def run_axiom_suite(lat: GeometricLattice, max_new_atoms=3, max_extra_rank=2,
                    seed=0, pair_limit=400, sample=60,
                    *, name=None) -> VerificationReport:
    """Structural identities of the diagram algebra, exhaustive per diagram
    and seeded-sampled over pairs/flats where quadratic cost demands."""
    rng = random.Random(seed)
    rep = VerificationReport(name or lat.name or "lattice",
                             (max_new_atoms, max_extra_rank))
    alg = algebra_for(lat)
    bounds = (max_new_atoms, max_extra_rank)
    t0 = time.perf_counter()
    blocks = alg.diagrams_within(bounds)
    diags = [d for ds in blocks.values() for d in ds]
    rep.timings["basis"] = time.perf_counter() - t0
    rep.tables["basis_size"] = len(diags)

    t0 = time.perf_counter()
    bad = 0
    bad_deg = 0
    for d in diags:
        img = alg.differential_diagram(d)
        for d2 in img.coeffs:
            if d2.degree != d.degree + 1 or d2.grading != d.grading:
                bad_deg += 1
        if not alg.differential(img).is_zero:
            bad += 1
    rep.add("d-squared-zero", "PASS" if bad == 0 else "FAIL",
            diagrams=len(diags), failures=bad)
    rep.add("contraction-degree-grading", "PASS" if bad_deg == 0 else "FAIL",
            failures=bad_deg)
    rep.timings["differential"] = time.perf_counter() - t0

    bad = sum(1 for d in diags
              if not alg.to_os(alg.differential_diagram(d)).is_zero)
    rep.add("comparison-chain-map", "PASS" if bad == 0 else "FAIL",
            failures=bad)

    t0 = time.perf_counter()
    bad_leib = bad_alg = bad_grad = 0
    n_pairs = 0
    if diags:
        for a, b in _pairs(diags, pair_limit, rng):
            n_pairs += 1
            prod = alg.product(a, b)
            lhs = alg.differential(prod)
            va = Combination().add_term(1, a)
            vb = Combination().add_term(1, b)
            rhs = alg.product_vectors(alg.differential_diagram(a), vb) + \
                alg.product_vectors(va, alg.differential_diagram(b)).scale(
                    (-1) ** a.degree)
            if not (lhs - rhs).is_zero:
                bad_leib += 1
            want = multiply(alg.to_os(a), alg.to_os(b))
            if alg.to_os(prod).as_dict() != want.as_dict():
                bad_alg += 1
            j = lat.join(a.grading, b.grading)
            if any(d2.grading != j for d2 in prod.coeffs):
                bad_grad += 1
    rep.add("leibniz", "PASS" if bad_leib == 0 else "FAIL",
            pairs=n_pairs, failures=bad_leib)
    rep.add("comparison-algebra-map", "PASS" if bad_alg == 0 else "FAIL",
            pairs=n_pairs, failures=bad_alg)
    rep.add("product-grading-join", "PASS" if bad_grad == 0 else "FAIL",
            pairs=n_pairs, failures=bad_grad)
    rep.timings["products"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    proper = [f for f in range(lat.n_flats)
              if f not in (lat.bottom, lat.top)]
    sample_diags = diags if len(diags) <= sample else rng.sample(diags, sample)
    bad_chain = bad_coalg = bad_coop = 0
    checked = 0
    for f in proper:
        low_alg = algebra_for(interval_at(alg.base, alg.base.bottom, f)[0])
        up_alg = algebra_for(interval_at(alg.base, f, alg.base.top)[0])
        for d in sample_diags:
            checked += 1
            cop = alg.coproduct(d, f)
            lhs = _tensor_differential(cop, low_alg, up_alg)
            rhs = Combination()
            for d2, c in alg.differential_diagram(d).coeffs.items():
                for key, c2 in alg.coproduct(d2, f).coeffs.items():
                    rhs.add_term(c * c2, key)
            if lhs != rhs:
                bad_chain += 1
            os_side, low2, up2 = os_coproduct(alg.to_os(d), f)
            md_side = Combination()
            for (lo, hidiag), c in cop.coeffs.items():
                l_os = low_alg.to_os(lo)
                u_os = up_alg.to_os(hidiag)
                for m1, c1 in l_os.coeffs:
                    for m2, c2 in u_os.coeffs:
                        md_side.add_term(c * c1 * c2, (m1, m2))
            if md_side.coeffs != os_side:
                bad_coop += 1
        for a in sample_diags[: max(1, len(sample_diags) // 4)]:
            for b in sample_diags[: max(1, len(sample_diags) // 4)]:
                lhs = Combination()
                for d2, c in alg.product(a, b).coeffs.items():
                    for key, c2 in alg.coproduct(d2, f).coeffs.items():
                        lhs.add_term(c * c2, key)
                rhs = _tensor_product(alg.coproduct(a, f),
                                      alg.coproduct(b, f), low_alg, up_alg)
                if lhs != rhs:
                    bad_coalg += 1
    rep.add("coproduct-chain-map", "PASS" if bad_chain == 0 else "FAIL",
            checked=checked, failures=bad_chain)
    rep.add("coproduct-algebra-map", "PASS" if bad_coalg == 0 else "FAIL",
            failures=bad_coalg)
    rep.add("comparison-cooperad-morphism", "PASS" if bad_coop == 0 else "FAIL",
            failures=bad_coop)
    rep.timings["coproducts"] = time.perf_counter() - t0

    bad_coassoc = 0
    chains = [(f1, f2) for f1 in proper for f2 in proper
              if f1 != f2 and lat.leq(f1, f2)]
    for f1, f2 in chains:
        lowL2, _, low2_from, _ = interval_at(alg.base, alg.base.bottom, f2)
        upL1, _, up1_from, _ = interval_at(alg.base, f1, alg.base.top)
        mid_alg_base = algebra_for(lowL2)
        up_alg1 = algebra_for(upL1)
        f1_in_low2 = low2_from[f1]
        f2_in_up1 = up1_from[f2]
        for d in sample_diags[: max(1, len(sample_diags) // 3)]:
            lhs = Combination()
            for (lo, hidiag), c in alg.coproduct(d, f2).coeffs.items():
                for (a, b), c2 in mid_alg_base.coproduct(lo, f1_in_low2) \
                        .coeffs.items():
                    lhs.add_term(c * c2, (a, b, hidiag))
            rhs = Combination()
            for (lo, hidiag), c in alg.coproduct(d, f1).coeffs.items():
                for (a, b), c2 in up_alg1.coproduct(hidiag, f2_in_up1) \
                        .coeffs.items():
                    rhs.add_term(c * c2, (lo, a, b))
            if lhs != rhs:
                bad_coassoc += 1
    rep.add("coproduct-coassociative", "PASS" if bad_coassoc == 0 else "FAIL",
            chains=len(chains), failures=bad_coassoc)

    # bottom grading is one-dimensional, spanned by the empty diagram
    bottom_blocks = {k: ds for (g, k), ds in blocks.items()
                     if g == lat.bottom}
    ok = list(bottom_blocks) == [0] and len(bottom_blocks.get(0, [])) == 1
    rep.add("bottom-grading-unit", "PASS" if ok else "FAIL",
            blocks={str(k): len(v) for k, v in bottom_blocks.items()})

    bad_free = 0
    n_free = 0
    for d in sample_diags:
        n_free += 1
        if not _refactors(alg, d):
            bad_free += 1
    rep.add("free-generation-refactoring", "PASS" if bad_free == 0 else "FAIL",
            checked=n_free, failures=bad_free)
    return rep


def _refactors(alg, diag) -> bool:
    """Check the unique factorization of a diagram into diagrams with
    irreducible extensions, by remultiplying the factors."""
    lat = diag.entry.lat
    nb = diag.entry.n_base
    sub, _, _, pos = _interval(lat, diag.entry.top, lat.top)
    supports = sub.factor_supports()
    base_word = [p for p in diag.word if p < nb]
    new_word = [p for p in diag.word if p >= nb]
    if len(supports) <= 1 and not base_word:
        return True
    factor_of_new = {}
    for p in new_word:
        for k, s in enumerate(supports):
            if s >> pos[p] & 1:
                factor_of_new.setdefault(k, []).append(p)
                break
    vec = None
    for p in base_word:
        term = Combination().add_term(1, alg.atom_diagram(alg.base.atoms[p]))
        vec = term if vec is None else alg.product_vectors(vec, term)
    for k in sorted(factor_of_new):
        word = factor_of_new[k]
        sub_lat, pos = _restrict(lat, (1 << nb) - 1 | _atoms_mask(word))
        s, dfac = alg.normalize_raw(sub_lat, tuple(range(nb)),
                                    tuple(pos[p] for p in word))
        if dfac is ZERO:
            return False
        term = Combination().add_term(s, dfac)
        vec = term if vec is None else alg.product_vectors(vec, term)
    if vec is None:
        return len(diag.word) == 0
    target = Combination().add_term(1, diag)
    return vec == target or vec == target.scale(-1)


def golden_report(name: str) -> dict:
    """Deterministic summary of a corpus lattice (no timings, no floats)."""
    lat = corpus.build_corpus_lattice(name)
    from .lattice import circuits as lattice_circuits
    from .modularity import chordality_crosscheck
    chain = is_supersolvable(lat)
    passes, coeffs, fail_at = koszul_series_check(lat, 8)
    report = {
        "name": name,
        "atoms": list(lat.atoms),
        "rank": lat.rank,
        "n_flats": lat.n_flats,
        "circuits": [list(c) for c in lattice_circuits(lat)],
        "modular_coatoms": [sorted(lat.atoms_of(f))
                            for f in modular_coatoms(lat)],
        "supersolvable": chain is not None,
        "chain_j_sizes": list(chain.j_sizes) if chain else None,
        "hilbert": hilbert_series(lat),
        "koszul_series_prefix": coeffs,
        "koszul_series_nonnegative": passes,
        "characterizations_agree": all(
            modular_characterizations_agree(lat, f)
            for f in range(lat.n_flats)),
    }
    graph_edges = corpus.graph_edges(name)
    if graph_edges is not None:
        report["chordal"] = chordality_crosscheck(graph_edges)
    return report


GOLDEN_CORPUS = ["pi2", "pi3", "pi4", "b1", "b2", "b3", "b4", "c4", "c5",
                 "k4", "path3", "path4", "plane8", "plane7"]


def emit_golden(out_dir, include_pi5=False):
    """Write canonical JSON reports for the bundled corpus; byte-stable."""
    import os
    os.makedirs(out_dir, exist_ok=True)
    names = list(GOLDEN_CORPUS)
    if include_pi5:
        names.append("pi5")
    written = []
    for name in names:
        rep = golden_report(name)
        path = os.path.join(out_dir, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(rep, fh, sort_keys=True, indent=2)
            fh.write("\n")
        written.append(path)
    return written
