import hashlib
import json
import os
import subprocess
import sys
import time

import pytest

import mdg.diagrams
import mdg.extensions
from mdg.cli import main as cli_main
from mdg.harness import (
    emit_golden,
    golden_report,
    run_axiom_suite,
    run_verify_qiso,
)
from mdg.lattice import build_partition_lattice


def run_cli(*argv):
    import io
    from contextlib import redirect_stdout
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli_main(list(argv))
    return code, buf.getvalue()


# The --json output (timings dropped) and exit code of each command below,
# at the default bounds (3, 2), hashed per command.  A change that must not
# alter any output keeps every digest.
CLI_GOLDEN_RUNS = {
    "verify-qiso": [["verify-qiso", "--lattice", name]
                    for name in ("pi3", "b2", "b3", "pi4", "k4", "c4")],
    "axioms": [["axioms", "--lattice", name]
               for name in ("pi4", "plane8", "b3")],
    "md-cohomology": [["md", "cohomology", "--lattice", name]
                      for name in ("pi3", "pi4", "b2")],
    "extensions-enumerate": [["extensions", "enumerate", "--lattice", name]
                             for name in ("pi3", "pi4", "b3", "plane8")],
}

CLI_GOLDEN = {
    "verify-qiso": "b17a074759282b1bf95cb1e4a74d40bf"
                 "d62735c95ad379975c278a0b8110d8f8",
    "axioms": "dc851c9c6be58d6e17da0d71a2e58d60"
            "9c1b5fa8e97c3fcfb63a9da7116c8bfb",
    "md-cohomology": "4d5c32f670c4f7600645278de14124bc"
                   "43d0916e38bbac6e42dcd75f3dc093ea",
    "extensions-enumerate": "984f58497e76ab7d1c06fa9484156681"
                          "b36a1a4b1e20d07810b1855e89be24e5",
}


def cli_digest(runs):
    h = hashlib.sha256()
    for argv in runs:
        code, out = run_cli(*argv, "--json")
        data = json.loads(out)
        data.pop("timings", None)
        h.update(" ".join(argv).encode() + b"|" + str(code).encode() + b"|"
                 + json.dumps(data, sort_keys=True).encode() + b"\n")
    return h.hexdigest()


@pytest.mark.parametrize("command", sorted(CLI_GOLDEN_RUNS))
def test_cli_outputs_match_golden_digest(command):
    assert cli_digest(CLI_GOLDEN_RUNS[command]) == CLI_GOLDEN[command]


def test_verify_qiso_pi3_report(pi3):
    rep = run_verify_qiso(pi3, 2, 2, name="pi3")
    d = rep.to_dict()
    names = [c["name"] for c in d["checks"]]
    assert "lattice-valid" in names
    assert "supersolvable" in names
    assert "hilbert-factorization" in names
    assert "qiso-stable-comparison" in names
    assert d["tables"]["hilbert"] == [1, 3, 2]
    chk = next(c for c in d["checks"] if c["name"] == "supersolvable")
    assert chk["details"]["j_sizes"] == [1, 2]


def test_verify_qiso_exact_cells(pi3):
    # at (2, 2) the +1-atom run reaches the bounds (3, 1) that determine the
    # predicted cell; at (1, 1) neither run does and the check fails
    rep = run_verify_qiso(pi3, 2, 2, name="pi3")
    final = next(c for c in rep.checks if c["name"] == "qiso-stable-comparison")
    assert final["status"] == "PASS"
    assert final["details"]["got_top"] == 2
    assert [0, 2] in final["details"]["exact_cells"]
    assert rep.tables["cells_next"]["nullity_betti"]["0"]["2"] == 2
    rep = run_verify_qiso(pi3, 1, 1, name="pi3")
    final = next(c for c in rep.checks if c["name"] == "qiso-stable-comparison")
    assert final["status"] == "FAIL" and not rep.passed
    assert final["details"]["got_top"] is None
    assert final["details"]["determined_at"] == [3, 1]


def test_verify_qiso_c4_not_asserted(c4):
    rep = run_verify_qiso(c4, 2, 2, name="c4")
    chk = next(c for c in rep.checks if c["name"] == "supersolvable")
    assert chk["status"] == "INFO"
    final = next(c for c in rep.checks if c["name"] == "qiso-stable-comparison")
    assert final["status"] == "INFO"
    assert rep.tables["hilbert"] == [1, 4, 6, 3]
    assert rep.passed  # nothing asserted, nothing failed


def test_verify_qiso_timeout_ignores_wall_clock_steps(pi3, monkeypatch):
    # a wall clock stepping a million seconds forward (an NTP correction)
    # must neither fire the deadline nor change the report
    expected = run_verify_qiso(pi3, 2, 1).to_dict(with_timings=False)
    real_time = time.time
    readings = []

    def stepping_time():
        readings.append(None)
        return real_time() + (1e6 if len(readings) > 1 else 0.0)

    monkeypatch.setattr(time, "time", stepping_time)
    rep = run_verify_qiso(pi3, 2, 1, timeout=600)
    assert rep.passed
    assert rep.to_dict(with_timings=False) == expected


def test_axiom_suite_passes(pi3, b3):
    for lat, bounds in ((pi3, (2, 2)), (b3, (2, 1))):
        rep = run_axiom_suite(lat, *bounds, seed=7)
        assert rep.passed, [c for c in rep.checks if c["status"] == "FAIL"]


def test_axiom_suite_deterministic(pi3):
    r1 = run_axiom_suite(pi3, 2, 1, seed=3)
    r2 = run_axiom_suite(pi3, 2, 1, seed=3)
    assert r1.to_dict(with_timings=False) == r2.to_dict(with_timings=False)


def test_golden_reports_byte_stable(tmp_path):
    out1 = tmp_path / "g1"
    out2 = tmp_path / "g2"
    emit_golden(out1)
    emit_golden(out2)
    files1 = sorted(os.listdir(out1))
    assert files1 == sorted(os.listdir(out2))
    assert "c4.json" in files1 and "pi4.json" in files1
    for name in files1:
        b1 = (out1 / name).read_bytes()
        b2 = (out2 / name).read_bytes()
        assert b1 == b2


def test_golden_values():
    rep = golden_report("c4")
    assert rep["hilbert"] == [1, 4, 6, 3]
    assert rep["supersolvable"] is False
    assert rep["chordal"] is False
    assert len(rep["circuits"]) == 1 and len(rep["circuits"][0]) == 4
    rep4 = golden_report("pi4")
    assert rep4["hilbert"] == [1, 6, 11, 6]
    assert rep4["supersolvable"] and rep4["chain_j_sizes"] == [1, 2, 3]
    assert rep4["chordal"] is True


def test_cli_validate_and_os(tmp_path):
    code, out = run_cli("validate", "--lattice", "pi4")
    assert code == 0 and "rank 3" in out
    code, out = run_cli("os", "hilbert", "--lattice", "c4")
    assert code == 0 and out.strip() == "1 4 6 3"
    code, out = run_cli("os", "reduce", "--lattice", "pi3", "1-3", "2-3",
                        "--json")
    assert code == 0
    terms = json.loads(out)["terms"]
    assert {tuple(t["monomial"]): t["coefficient"] for t in terms} == {
        ("1-2", "2-3"): "1/1", ("1-2", "1-3"): "-1/1"}


def test_cli_validate_rejects_a_pair_without_infimum(tmp_path, capsys):
    # abc and abd meet in ab, which is not a flat
    spec = {"kind": "flats", "atoms": list("abcd"),
            "flats": [[], ["a"], ["b"], ["c"], ["d"], ["a", "b", "c"],
                      ["a", "b", "d"], list("abcd")]}
    path = tmp_path / "no-infimum.json"
    path.write_text(json.dumps(spec))
    code, out = run_cli("validate", "--lattice", str(path))
    assert (code, out) == (2, "")
    assert "pair lacks an infimum" in capsys.readouterr().err


def test_cli_lattice_file(tmp_path):
    spec = {"kind": "graph", "edges": [["1", "2"], ["2", "3"], ["1", "3"]]}
    path = tmp_path / "k3.json"
    path.write_text(json.dumps(spec))
    code, out = run_cli("validate", "--lattice", str(path))
    assert code == 0 and "rank 2" in out
    code, out = run_cli("supersolvable", "--lattice", str(path), "--json")
    assert code == 0 and json.loads(out)["j_sizes"] == [1, 2]


def test_cli_axioms_on_a_base_labelled_like_the_pushout_atoms(tmp_path):
    # the product's pushout names its new atoms p1, p2, ... past the base's
    spec = {"kind": "flats", "atoms": ["p1", "p2", "p3"],
            "flats": [[], ["p1"], ["p2"], ["p3"], ["p1", "p2", "p3"]]}
    path = tmp_path / "p3.json"
    path.write_text(json.dumps(spec))
    code, out = run_cli("axioms", "--lattice", str(path), "--json",
                        "--max-atoms", "4", "--max-rank", "2")
    assert code == 0
    assert all(c["status"] == "PASS" for c in json.loads(out)["checks"])


def test_cli_modular_witness():
    code, out = run_cli("modular", "--lattice", "plane8", "--flat", "a,e",
                        "--json")
    assert code == 0
    data = json.loads(out)
    assert data["modular"] is False and data["witness"]


def test_cli_modular_coatoms_of_the_one_point_lattice(tmp_path):
    # rank 0 has no coatom; by_rank[rank - 1] once wrapped to the bottom
    specs = {"b0": {"kind": "boolean", "n": 0},
             "flats0": {"kind": "flats", "atoms": [], "flats": [[]]},
             "b1": {"kind": "boolean", "n": 1}}
    for name, spec in specs.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(spec))
        coatoms = [[]] if name == "b1" else []
        code, out = run_cli("modular", "--lattice", str(path))
        assert code == 0
        assert out.splitlines()[-1] == f"modular coatoms: {coatoms}", name
        code, out = run_cli("modular", "--lattice", str(path), "--json")
        assert code == 0
        assert json.loads(out)["modular_coatoms"] == coatoms, name


def test_cli_md_and_extensions(tmp_path):
    code, out = run_cli("md", "basis", "--lattice", "pi3", "--grading", "top",
                        "--degree", "1", "--max-atoms", "3", "--max-rank", "1",
                        "--json")
    assert code == 0
    assert json.loads(out)["count"] == 1
    code, out = run_cli("md", "cohomology", "--lattice", "b2",
                        "--grading", "top", "--max-atoms", "2", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["betti"] == {"2": 1}
    outfile = tmp_path / "cat.json"
    code, out = run_cli("extensions", "enumerate", "--lattice", "pi3",
                        "--max-atoms", "2", "--max-rank", "1",
                        "--out", str(outfile), "--json")
    assert code == 0
    data = json.loads(outfile.read_text())
    assert data["count"] == len(data["extensions"]) >= 2


def test_cli_dump_matrices(tmp_path):
    dump = tmp_path / "mats"
    code, _ = run_cli("md", "cohomology", "--lattice", "pi3",
                      "--grading", "top", "--max-atoms", "3",
                      "--max-rank", "1", "--dump-matrices", str(dump),
                      "--json")
    assert code == 0
    files = sorted(os.listdir(dump))
    assert files
    header = (dump / files[0]).read_text().splitlines()[0]
    assert len(header.split()) == 3


# The name and bytes of every d{k}.txt that --dump-matrices writes for each
# run below, hashed together: the differentials' layout and coefficients.
DUMP_GOLDEN_RUNS = [
    ["--lattice", "pi3"],
    ["--lattice", "pi4"],
    ["--lattice", "b2"],
    ["--lattice", "b2", "--max-atoms", "5"],
    ["--lattice", "pi3", "--grading", "1-2"],
]

DUMP_GOLDEN = ("84265f1ba4fd1539b7ce4aaa0c28e1f1"
               "981ad40afd5e587918704441edf0f447")


def test_cli_dump_matrices_match_golden_digest(tmp_path):
    h = hashlib.sha256()
    for i, argv in enumerate(DUMP_GOLDEN_RUNS):
        dump = tmp_path / str(i)
        code, _ = run_cli("md", "cohomology", *argv,
                          "--dump-matrices", str(dump))
        assert code == 0
        h.update(" ".join(argv).encode() + b"\n")
        for name in sorted(os.listdir(dump)):
            h.update(name.encode() + b"|" + (dump / name).read_bytes())
    assert h.hexdigest() == DUMP_GOLDEN


def test_cli_chordal_and_golden(tmp_path):
    code, out = run_cli("chordal", "--lattice", "c4")
    assert code == 0 and "False" in out
    out_dir = tmp_path / "golden"
    code, _ = run_cli("golden", "--out", str(out_dir))
    assert code == 0
    assert (out_dir / "plane8.json").exists()


def test_cli_input_errors(tmp_path):
    code, _ = run_cli("validate", "--lattice", "nonexistent-thing")
    assert code == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _ = run_cli("validate", "--lattice", str(bad))
    assert code == 2
    # chordality on a non-graph spec is an input error
    flat_spec = tmp_path / "flat.json"
    flat_spec.write_text(json.dumps(
        {"kind": "flats", "atoms": ["a"], "flats": [[], ["a"]]}))
    code, _ = run_cli("chordal", "--lattice", str(flat_spec))
    assert code == 2
    # malformed specs; the last is a graph, for chordality as well
    malformed = [{"kind": "partition", "n": "x"},
                 {"kind": "partition", "n": 2.5},
                 {"kind": "boolean", "n": -1},
                 {"kind": "flats", "atoms": ["a"], "flats": 5},
                 {"kind": "graph", "edges": [["1", "2"], ["3"]]}]
    for i, spec in enumerate(malformed):
        path = tmp_path / f"malformed{i}.json"
        path.write_text(json.dumps(spec))
        code, _ = run_cli("validate", "--lattice", str(path))
        assert code == 2, spec
    code, _ = run_cli("chordal", "--lattice", str(path))
    assert code == 2
    code, _ = run_cli("chordal", "--lattice", str(tmp_path / "missing.json"))
    assert code == 2
    code, _ = run_cli("chordal", "--lattice", str(bad))
    assert code == 2
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe{")
    code, _ = run_cli("validate", "--lattice", str(binary))
    assert code == 2
    code, _ = run_cli("os", "reduce", "--lattice", "pi3", "zz")
    assert code == 2
    # output paths that cannot be written: a missing directory, an existing
    # file where a directory should go, and a directory under a file
    for argv in (["extensions", "enumerate", "--lattice", "pi3",
                  "--out", str(tmp_path / "missing" / "x.json")],
                 ["md", "cohomology", "--lattice", "b2", "--max-atoms", "1",
                  "--dump-matrices", str(bad)],
                 ["golden", "--out", str(bad / "reports")]):
        code, _ = run_cli(*argv)
        assert code == 2, argv
    # negative or non-numeric counts, and timeouts that are not a finite,
    # positive number of seconds, are usage errors, which argparse reports
    # by exiting with 2
    for argv in (["verify-qiso", "--lattice", "pi3", "--max-atoms", "-1"],
                 ["md", "basis", "--lattice", "pi3", "--degree", "1",
                  "--max-rank", "-1"],
                 ["extensions", "enumerate", "--lattice", "pi3",
                  "--max-atoms", "x"],
                 ["os", "koszul-series", "--lattice", "pi3", "--order",
                  "-1"],
                 *(["verify-qiso", "--lattice", "pi3", "--timeout", t]
                   for t in ("nan", "inf", "-1", "0"))):
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv)
        assert exc.value.code == 2, argv


def test_cli_closed_stdout_exits_quietly():
    # a reader that went away is no input error: nothing on stderr, and
    # the exit code a shell gives a writer killed by SIGPIPE
    import mdg
    src = os.path.dirname(os.path.dirname(os.path.abspath(mdg.__file__)))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "mdg.cli", "extensions", "enumerate",
             "--lattice", "pi3", "--max-atoms", "4", "--max-rank", "2",
             "--json"],
            stdout=write_end, stderr=subprocess.PIPE, timeout=120,
            env={**os.environ, "PYTHONPATH": path})
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert proc.stderr == b""


def test_cli_entrypoint_subprocess():
    # the child imports mdg from where this process did, with or without
    # PYTHONPATH set
    import mdg
    src = os.path.dirname(os.path.dirname(os.path.abspath(mdg.__file__)))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "mdg.cli", "os", "hilbert",
         "--lattice", "pi3"],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0
    assert proc.stdout.strip() == "1 3 2"


def test_verify_qiso_json_roundtrip(b2):
    rep = run_verify_qiso(b2, 2, 2, name="b2")
    data = json.loads(rep.to_json())
    assert data["lattice"] == "b2"
    assert rep.passed


def test_cli_verify_qiso_exit_codes():
    # a predicted cell that neither run determines is a check failure
    # (exit 1): pi3 needs bounds (3, 1), and (1, 1) plus one atom is short
    code, _ = run_cli("verify-qiso", "--lattice", "pi3",
                      "--max-atoms", "1", "--max-rank", "1", "--json")
    assert code == 1
    # nothing asserted for a non-supersolvable lattice (exit 0)
    code, _ = run_cli("verify-qiso", "--lattice", "c4",
                      "--max-atoms", "1", "--max-rank", "1", "--json")
    assert code == 0
    # a tiny wall-clock budget trips the resource-limit exit
    code, _ = run_cli("verify-qiso", "--lattice", "pi4",
                      "--timeout", "0.0001", "--max-atoms", "2", "--json")
    assert code == 3


def test_golden_pi5_optional(tmp_path):
    out = tmp_path / "g5"
    code, _ = run_cli("golden", "--out", str(out), "--pi5")
    assert code == 0
    data = json.loads((out / "pi5.json").read_text())
    assert data["hilbert"] == [1, 10, 35, 50, 24]
    assert data["chain_j_sizes"] == [1, 2, 3, 4]


def test_spec_file_kinds(tmp_path):
    from mdg.specfile import parse_lattice_spec
    lat = parse_lattice_spec({"kind": "boolean", "atoms": ["p", "q"]})
    assert lat.rank == 2 and lat.atoms == ("p", "q")
    lat2 = parse_lattice_spec({"kind": "partition", "n": 3})
    assert lat2.rank == 2 and lat2.n_atoms == 3
    import pytest as _pytest
    from mdg.errors import SpecParse
    try:
        parse_lattice_spec({"kind": "mystery"})
    except SpecParse:
        pass
    else:
        raise AssertionError("unknown kind must raise")


def test_cli_md_diff_and_index_errors():
    # the one degree-1 diagram of pi3 at (3, 1) is the three new atoms; its
    # differential contracts each in turn
    argv = ("md", "diff", "--lattice", "pi3", "--degree", "1",
            "--max-atoms", "3", "--max-rank", "1")
    code, out = run_cli(*argv, "--index", "0")
    assert code == 0
    assert out.splitlines() == ["-1 * ['1-3', '2-3']", "1 * ['1-2', '2-3']",
                                "-1 * ['1-2', '1-3']"]
    code, out = run_cli(*argv, "--index", "0", "--json")
    assert code == 0 and len(json.loads(out)["terms"]) == 3
    for index in ("1", "-1"):
        code, out = run_cli(*argv, "--index", index)
        assert (code, out) == (2, "")


def test_cli_human_reports():
    code, out = run_cli("verify-qiso", "--lattice", "pi3")
    lines = out.splitlines()
    assert code == 0 and lines[0] == "lattice: pi3  bounds: (3, 2)"
    checks = [line for line in lines if line.startswith("  [")]
    assert len(checks) == 5 and all("[PASS]" in c for c in checks)
    assert "  hilbert: [1, 3, 2]" in lines
    assert lines[-1].startswith("  stable degrees: {")
    code, out = run_cli("axioms", "--lattice", "b2")
    lines = out.splitlines()
    assert code == 0 and lines[0] == "lattice: b2  bounds: (3, 2)"
    assert sum("[PASS]" in line for line in lines) == 12
    assert lines[-1] == "  basis_size: 4"


def test_cli_modular_supersolvable_and_koszul():
    code, out = run_cli("modular", "--lattice", "plane8")
    assert code == 0 and out.splitlines() == [
        "modular flats: 12",
        "modular coatoms: [['a', 'b', 'c', 'd'], ['a', \"b'\", \"c'\", \"d'\"]]"]
    code, out = run_cli("modular", "--lattice", "pi3", "--json")
    assert code == 0 and json.loads(out)["modular_coatoms"] == [
        ["1-2"], ["1-3"], ["2-3"]]
    code, out = run_cli("supersolvable", "--lattice", "c4")
    assert (code, out) == (0, "not supersolvable\n")
    code, out = run_cli("supersolvable", "--lattice", "c4", "--json")
    assert code == 0 and json.loads(out) == {"supersolvable": False}
    code, out = run_cli("os", "koszul-series", "--lattice", "pi3")
    assert (code, out) == (0, "pass [1, 3, 7, 15, 31, 63, 127, 255, 511]\n")


def test_axiom_suite_keeps_no_interval_on_entry_lattices(monkeypatch):
    # the free-generation check builds the interval above each entry's
    # base top for one diagram and keeps it nowhere
    monkeypatch.setattr(mdg.diagrams, "_ALGEBRAS", {})
    rep = run_axiom_suite(build_partition_lattice(4), 3, 2)
    assert rep.passed
    entries = [e for a in mdg.diagrams._ALGEBRAS.values()
               for e in mdg.extensions._tables(a.base)[0].values()]
    assert entries and all(e.lat._intervals is None for e in entries)
