"""One iteration of one workload, in a fresh interpreter.

``_CATALOG_CACHE``, ``_ALGEBRAS``, ``_SSOLV_MEMO`` and ``_CONTEXTS`` are
module-level in mdg, so a second iteration in the same process would time
cache lookups; ``run.py`` therefore starts this script once per iteration.

Protocol on standard output: ``@ready <cpu seconds>`` once mdg is
imported and the input is built, then ``@result <json>``.  Set-up is
reported as the process's CPU time up to that point, interpreter start
included.  Its wall time depends on whether the threads numpy's BLAS
starts at import find a free core, which varies from minute to minute on
a shared machine.  Usage:

    PYTHONPATH=src python3 bench/worker.py WORKLOAD [--trace SPANS_PATH]
    PYTHONPATH=src python3 bench/worker.py WORKLOAD --setup-only
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback


# verify-qiso at the bounds of Criterion 1; the +1-atom run is included
QISO_BOUNDS = (3, 2)
AXIOM_BOUNDS = (3, 2)
AXIOM_CAP = 3           # the suite's default antichain cap, for its blocks
AXIOM_SEED = 0
# pairs and samples raised above the suite's defaults (400, 60) so that
# products and coproducts do most of the work
AXIOM_PAIRS = 1600
AXIOM_SAMPLE = 120


def _cycle(n):
    return [(str(i), str(i % n + 1)) for i in range(1, n + 1)]


def _path(n_vertices):
    return [(str(i), str(i + 1)) for i in range(1, n_vertices)]


def _complete(n):
    return [(str(i), str(j)) for i in range(1, n + 1)
            for j in range(i + 1, n + 1)]


# Criterion 5's graphs without C7 (about 80 s while canonical labelling is
# leaf-exhaustive), plus K_{3,3} and K_6
CHORDAL_GRAPHS = {
    "K3": _complete(3),
    "K4": _complete(4),
    "C4": _cycle(4),
    "C5": _cycle(5),
    "C6": _cycle(6),
    "P5": _path(5),
    "P7": _path(7),
    "C4+chord": [("1", "2"), ("2", "3"), ("3", "4"), ("1", "4"), ("1", "3")],
    "C4+pendant": [("1", "2"), ("2", "3"), ("3", "4"), ("1", "4"),
                   ("4", "5")],
    "house+diagonal": [("1", "2"), ("1", "3"), ("2", "3"), ("1", "4"),
                       ("2", "4"), ("3", "5"), ("4", "5")],
    "K3,3": [(a, b) for a in "123" for b in "456"],
    "K6": _complete(6),
}


class QisoPi4:
    """run_verify_qiso(pi4, 3, 2): the quasi-isomorphism claim end to end."""

    def __init__(self):
        from mdg.corpus import build_corpus_lattice
        from mdg.harness import run_verify_qiso
        self.lat = build_corpus_lattice("pi4")
        self.run_verify_qiso = run_verify_qiso

    def operations(self):
        return [lambda: self.run_verify_qiso(self.lat, *QISO_BOUNDS)]

    def check(self, results):
        from checks import euler_characteristic, mobius
        rep, = results
        mu = mobius(self.lat.flat_masks)
        rank = self.lat.rank
        bad = []
        if not rep.passed:
            bad.append("report does not pass: " + ", ".join(
                c["name"] for c in rep.checks if c["status"] == "FAIL"))
        chi = euler_characteristic(rep.tables["dims"])
        if chi != mu:
            bad.append(f"Euler characteristic {chi} != mu {mu}")
        predicted = set()
        for table in (rep.tables["cells"], rep.tables["cells_next"]):
            betti = table["nullity_betti"]
            for n, d in table["exact_cells"]:
                got = betti.get(str(n), {}).get(str(d), 0)
                want = abs(mu) if (n, d) == (0, rank) else 0
                if (n, d) == (0, rank):
                    predicted.add(got)
                if got != want:
                    bad.append(f"exact cell ({n}, {d}) is {got}, not {want}")
        if predicted != {abs(mu)}:
            bad.append(f"cell (0, {rank}) exact values {sorted(predicted)}, "
                       f"want |mu| = {abs(mu)}")
        return bad


class AxiomsPlane8:
    """run_axiom_suite(plane8, 3, 2) with raised pair and sample sizes."""

    def __init__(self):
        from mdg.corpus import eight_point_plane
        from mdg.harness import run_axiom_suite
        self.lat = eight_point_plane()
        self.run_axiom_suite = run_axiom_suite

    def operations(self):
        return [lambda: self.run_axiom_suite(
            self.lat, *AXIOM_BOUNDS, seed=AXIOM_SEED, pair_limit=AXIOM_PAIRS,
            sample=AXIOM_SAMPLE)]

    def check(self, results):
        from checks import mobius_from_bottom
        from mdg.diagrams import algebra_for
        rep, = results
        bad = []
        for c in rep.checks:
            d = c["details"]
            counted = {k: v for k, v in d.items()
                       if k in ("diagrams", "pairs", "checked", "chains")}
            if c["status"] != "PASS" or d.get("failures", 0) != 0:
                bad.append(f"{c['name']}: {c['status']}, "
                           f"{d.get('failures')} failures")
            if any(v == 0 for v in counted.values()):
                bad.append(f"{c['name']}: nothing checked {counted}")
        if not rep.tables.get("basis_size"):
            bad.append("empty basis")
        # each grading block's Euler characteristic is mu(0, G); the blocks
        # are the suite's own, cached on the algebra
        blocks = algebra_for(self.lat).diagrams_within(AXIOM_BOUNDS
                                                       + (AXIOM_CAP,))
        mu = mobius_from_bottom(self.lat.flat_masks)
        for g, mask in enumerate(self.lat.flat_masks):
            chi = sum((-1) ** d * len(ds) for (h, d), ds in blocks.items()
                      if h == g)
            if chi != mu[mask]:
                bad.append(f"grading {g}: Euler characteristic {chi} "
                           f"!= mu {mu[mask]}")
        return bad


class ChordalSweep:
    """chordality_crosscheck over CHORDAL_GRAPHS, one operation each."""

    def __init__(self):
        from mdg.modularity import chordality_crosscheck
        self.crosscheck = chordality_crosscheck

    def operations(self):
        return [lambda e=edges: self.crosscheck(e)
                for edges in CHORDAL_GRAPHS.values()]

    def check(self, results):
        from checks import is_chordal
        return [f"{name}: chordality_crosscheck says {got}"
                for (name, edges), got in zip(CHORDAL_GRAPHS.items(), results)
                if got is not None and got != is_chordal(edges)]


WORKLOADS = {
    "qiso-pi4": QisoPi4,
    "axioms-plane8": AxiomsPlane8,
    "chordal-sweep": ChordalSweep,
}


def main(argv):
    name = argv[0]
    spans_path = argv[argv.index("--trace") + 1] if "--trace" in argv else None
    workload = WORKLOADS[name]()
    ru = resource.getrusage(resource.RUSAGE_SELF)
    print(f"@ready {ru.ru_utime + ru.ru_stime!r}", flush=True)
    if "--setup-only" in argv:
        return 0

    tracer = None
    if spans_path is not None:
        from spans import Tracer
        tracer = Tracer()
        tracer.start_tracing()
    results, failed = [], 0
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for op in workload.operations():
        try:
            results.append(op())
        except Exception:  # a failed operation is counted, not fatal
            print(f"{name}: operation {len(results)} failed:", file=sys.stderr)
            traceback.print_exc()
            results.append(None)
            failed += 1
    wall = time.perf_counter() - wall0
    cpu = time.process_time() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out = {"attempted": len(results), "failed": failed, "wall_s": wall,
           "cpu_s": cpu, "peak_rss_mb": peak_rss_mb}
    if tracer is not None:
        tracer.stop_tracing()
        out["layers"] = tracer.metrics()
        tracer.write(spans_path, name)
    bad = workload.check(results) if failed < len(results) else []
    for msg in bad:
        print(f"{name}: check failed: {msg}", file=sys.stderr)
    out["correct"] = not bad
    print("@result " + json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
