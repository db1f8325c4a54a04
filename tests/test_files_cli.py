import hashlib
import json
import os
import random
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest

from conftest import benchmark_pool, relabelled_generators
from isotypic.catalog import CATALOG
from isotypic.errors import ClosureOverflow
from isotypic import cli
from isotypic.cli import main
from isotypic.files import FileFormatError, load_bundle_file, load_group_file

DATA = os.path.join(os.path.dirname(__file__), "..", "src", "isotypic", "data")


def data_path(name):
    return os.path.abspath(os.path.join(DATA, name))


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def test_load_group_file_d8():
    G, A = load_group_file(data_path("d8.json"))
    assert G.order == 8
    assert A is not None and A.order == 4
    assert G.is_normal(A)


def test_load_group_catalog_alias():
    G, A = load_group_file("catalog:Q8")
    assert G.order == 8 and A.order == 2


def test_group_file_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(FileFormatError):
        load_group_file(str(bad))
    bad2 = tmp_path / "bad2.json"
    bad2.write_text(json.dumps({"name": "x", "degree": 3}))
    with pytest.raises(FileFormatError):
        load_group_file(str(bad2))


def test_group_file_without_generators_allocates_no_points(tmp_path, capsys):
    """With no generators the group is trivial whatever its declared degree,
    so loading one of degree 2,000,000 stays under 1 MB and irr gives the
    results it gives at degree 4."""
    results = []
    for degree in (2000000, 4):
        path = tmp_path / ("trivial_%d.json" % degree)
        path.write_text(json.dumps({"name": "big", "degree": degree, "generators": []}))
        if degree > 4:
            tracemalloc.start()
            try:
                G, A = load_group_file(str(path))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert G.order == 1 and A is None
            assert peak < 1 << 20, peak
        code, out = run_cli(["irr", str(path), "--format", "json"], capsys)
        assert code == 0
        results.append(json.loads(out)["results"])
    assert results[0] == results[1]


def test_fixed_points_cost_nothing_in_an_overflowing_closure(tmp_path, capsys):
    """Z101 x Z100 (order 10,100, over the default cap of 10,000) from a
    101-cycle and a 100-cycle spread over 20,000 points, 201 of them moved:
    the closure runs on the moved points only, so irr exits 3 within 1 s and
    loading the file traces a peak under 32 MB."""
    degree = 20000
    gens = [list(range(degree)) for _ in range(2)]
    for gen, points in zip(gens, [range(0, 10100, 100), range(10050, 20000, 100)]):
        points = list(points)
        for x, y in zip(points, points[1:] + points[:1]):
            gen[x] = y
    assert [sum(g[i] != i for i in range(degree)) for g in gens] == [101, 100]
    path = tmp_path / "z101xz100.json"
    path.write_text(json.dumps({"name": "Z101xZ100", "degree": degree, "generators": gens}))
    start = time.perf_counter()
    code = main(["irr", str(path)])
    elapsed = time.perf_counter() - start
    assert code == 3
    assert "closure exceeded cap 10000" in capsys.readouterr().err
    assert elapsed < 1, elapsed
    tracemalloc.start()
    try:
        with pytest.raises(ClosureOverflow):
            load_group_file(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 << 20, peak


def test_unknown_catalog_group_is_an_input_error(capsys):
    assert main(["irr", "catalog:Nope"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: unknown catalog group Nope (known: A4, D10, "), err
    assert '"' not in err and "'" not in err, err
    with pytest.raises(FileFormatError, match="unknown catalog group Nope"):
        load_group_file("catalog:Nope")


def test_internal_key_error_is_not_an_input_error(monkeypatch):
    """A KeyError from inside a command is a bug, not bad input: it is not
    reported as exit 2."""
    def failing(*args, **kwargs):
        raise KeyError("internal lookup")

    monkeypatch.setattr(cli, "character_table", failing)
    with pytest.raises(KeyError, match="internal lookup"):
        main(["irr", "catalog:Z4"])


def test_load_bundle_file_shipped():
    bundle, G, A = load_bundle_file(data_path("d8_rho_bundle.json"))
    assert bundle.base.size == 2
    assert G.order == 8 and A.order == 4


def test_cmd_irr_z4(capsys):
    code, out = run_cli(["irr", data_path("z4.json")], capsys)
    assert code == 0
    # 4 rows of degree 1
    assert sum(1 for line in out.splitlines() if line.strip().startswith("1 |")) == 4


def test_cmd_irr_trivial(capsys):
    code, out = run_cli(["irr", data_path("trivial.json")], capsys)
    assert code == 0
    assert sum(1 for line in out.splitlines() if "|" in line and "degree" not in line) == 1


def test_cmd_irr_d8_degrees(capsys):
    code, out = run_cli(["--format", "json", "irr", data_path("d8.json")], capsys)
    assert code == 0
    payload = json.loads(out)
    assert [r["degree"] for r in payload["results"]["rows"]] == [1, 1, 1, 1, 2]


def test_cmd_irr_missing_file(capsys):
    assert main(["irr", "/nonexistent/file.json"]) == 2


def test_cmd_irr_cap(capsys):
    assert main(["--max-order", "4", "irr", data_path("d8.json")]) == 3


def test_cmd_irr_cap_applies_to_catalog(capsys):
    assert main(["--max-order", "4", "irr", "catalog:D8"]) == 3


def test_cmd_bundle_verify_cap_applies_to_the_bundle_group(capsys):
    assert main(["--max-order", "4", "bundle-verify", data_path("d8_rho_bundle.json")]) == 3


def test_cmd_d2p_cap_applies_to_the_dihedral_group(capsys):
    """D26 has order 26: a cap of 10 stops its closure, a cap of 26 does not."""
    assert main(["--max-order", "10", "d2p", "--p", "13"]) == 3
    assert "closure exceeded cap 10" in capsys.readouterr().err
    assert main(["--max-order", "26", "d2p", "--p", "13"]) == 0


def test_cmd_clifford_d8(capsys):
    code, out = run_cli(["clifford", data_path("d8.json")], capsys)
    assert code == 0
    assert "5 = 2 + 2 + 1" in out


def test_cmd_clifford_trivial_normal(capsys):
    code, out = run_cli(["clifford", data_path("d8.json"), "--normal", "trivial"], capsys)
    assert code == 0
    assert "5 = 5" in out


def test_cmd_clifford_q8_center(capsys):
    code, out = run_cli(["clifford", "catalog:Q8"], capsys)
    assert code == 0
    assert "NONTRIVIAL" in out
    assert "5 = 4 + 1" in out


@pytest.mark.parametrize("selector", ["-2", "5", "0,-1"])
def test_cmd_clifford_rejects_bad_generator_index(selector, capsys):
    code, _ = run_cli(["clifford", "catalog:D8", "--normal=" + selector], capsys)
    assert code == 2


@pytest.mark.parametrize("indices", [[-1], [2], [0, -2]])
def test_group_file_rejects_bad_normal_generator_index(indices, tmp_path):
    data = {"name": "D8", "degree": 4,
            "generators": [[1, 2, 3, 0], [0, 3, 2, 1]],
            "normal_subgroup_generators": indices}
    f = tmp_path / "bad_normal.json"
    f.write_text(json.dumps(data))
    with pytest.raises(FileFormatError, match="generator index"):
        load_group_file(str(f))


def test_cmd_clifford_not_normal(capsys):
    code, out = run_cli(["clifford", "catalog:S3", "--normal", "1"], capsys)
    assert code == 4


def test_cmd_bundle_verify_ok(capsys):
    code, out = run_cli(["bundle-verify", data_path("d8_rho_bundle.json")], capsys)
    assert code == 0
    assert "verified" in out


def _corrupted_bundle(tmp_path):
    """The shipped D8 bundle with a fiber stored redundantly at the second
    point, corrupted to rho instead of the transported rho^3."""
    with open(data_path("d8_rho_bundle.json")) as fh:
        data = json.load(fh)
    rho_mults = data["fibers"][0]["character"]["irreducible_multiplicities"]
    data["fibers"].append({"orbit_rep": 1,
                           "character": {"irreducible_multiplicities": rho_mults}})
    data["group"] = data_path("d8.json")
    bad = tmp_path / "corrupt.json"
    bad.write_text(json.dumps(data))
    return str(bad)


def test_cmd_bundle_verify_corrupted(tmp_path, capsys):
    """The corrupted fiber must be flagged at its point."""
    code, out = run_cli(["bundle-verify", _corrupted_bundle(tmp_path)], capsys)
    assert code == 1
    assert "MISMATCH" in out
    assert "point 1: MISMATCH" in out


@pytest.mark.parametrize("rep", [5, -1])
def test_cmd_bundle_verify_rejects_orbit_rep_out_of_range(rep, tmp_path, capsys):
    with open(data_path("d8_rho_bundle.json")) as fh:
        data = json.load(fh)
    data["fibers"][0]["orbit_rep"] = rep
    data["group"] = data_path("d8.json")
    bad = tmp_path / "bad_rep.json"
    bad.write_text(json.dumps(data))
    with pytest.raises(FileFormatError, match="orbit_rep"):
        load_bundle_file(str(bad))
    code, _ = run_cli(["bundle-verify", str(bad)], capsys)
    assert code == 2


def test_cmd_bundle_verify_not_a_trivial(tmp_path, capsys):
    from isotypic.bundles import GSet
    from isotypic.characters import character_table
    G, A = load_group_file(data_path("d8.json"))
    b = next(g for g in G.elements() if g not in A and G.element_order(g) == 2)
    Y = GSet.cosets(G, G.subgroup([b]))
    sgrp = Y.stabilizer(0).as_group()
    ts = character_table(sgrp)
    data = {"group": data_path("d8.json"),
            "base": {"points": Y.size, "action": [list(row) for row in Y.action]},
            "fibers": [{"orbit_rep": 0,
                        "character": {"irreducible_multiplicities": [1] * len(ts.rows)}}]}
    f = tmp_path / "bad_base.json"
    f.write_text(json.dumps(data))
    assert main(["bundle-verify", str(f)]) == 6


def test_internal_assertion_exits_inconsistent(monkeypatch, capsys):
    """A failed exact check inside the package is an internal inconsistency
    (exit 5), not the verified-false exit 1 of a corrupted bundle."""
    def failing(*args, **kwargs):
        raise AssertionError("class algebra failed to split")

    monkeypatch.setattr(cli, "verify_decomposition", failing)
    assert main(["bundle-verify", data_path("d8_rho_bundle.json")]) == 5
    assert capsys.readouterr().err == "internal inconsistency: class algebra failed to split\n"


def test_cmd_bordism_adjacent(capsys):
    code, out = run_cli(["--format", "json", "bordism", data_path("d8.json"),
                         "--max-degree", "10"], capsys)
    assert code == 0
    series = json.loads(out)["results"]["series"]
    assert len(series) == 11
    assert all(series[n] == 0 for n in range(1, 11, 2))


def test_cmd_bordism_max_degree_zero(capsys):
    code, out = run_cli(["--format", "json", "bordism", data_path("d8.json"),
                         "--max-degree", "0", "--global"], capsys)
    assert code == 0
    series = json.loads(out)["results"]["series"]
    assert series == [8]  # subgroup conjugacy classes of D8


def test_cmd_bordism_max_degree_cap(capsys):
    """Degrees above 200 exit 3 before any lattice or table work."""
    assert main(["bordism", "catalog:Z4", "--max-degree", "201"]) == 3
    assert main(["bordism", "catalog:Z4", "--max-degree", "201", "--global"]) == 3
    code, out = run_cli(["--format", "json", "bordism", "catalog:Z4",
                         "--max-degree", "200"], capsys)
    assert code == 0
    assert len(json.loads(out)["results"]["series"]) == 201


def test_cmd_d2p_ok(capsys):
    code, out = run_cli(["d2p", "--p", "3", "--max-degree", "20"], capsys)
    assert code == 0
    assert "odd coefficients vanish: True" in out


def test_cmd_d2p_certifies_the_largest_accepted_prime_within_a_second(capsys):
    """p = 509 (D1018) is the largest p accepted; the next prime, 521, is
    over the bound and exits 3 before any group is built."""
    start = time.perf_counter()
    code, out = run_cli(["--format", "json", "d2p", "--p", "509", "--max-degree", "40"], capsys)
    elapsed = time.perf_counter() - start
    assert code == 0
    results = json.loads(out)["results"]
    assert results["odd_vanishing"] and results["degree_zero"] == 4
    assert results["nontrivial_irr_orbits"] == {"pairs": 254, "fixed": 0}
    assert elapsed < 1.0, elapsed
    start = time.perf_counter()
    assert main(["d2p", "--p", "521", "--max-degree", "40"]) == 3
    assert time.perf_counter() - start < 0.1
    assert "p above 509" in capsys.readouterr().err


def test_cmd_d2p_rejects_composite(capsys):
    assert main(["d2p", "--p", "25", "--max-degree", "10"]) == 2
    assert main(["d2p", "--p", "4", "--max-degree", "10"]) == 2


BAD_OPTION_VALUES = [
    (["--seed", "-1", "clifford", "catalog:D8"], "error: argument"),
    (["clifford", "catalog:D8", "--seed=-1"], "error: argument"),
    (["bordism", "catalog:D8", "--max-degree", "-1"], "error: argument"),
    (["bordism", "catalog:D8", "--max-degree", "-1", "--global"], "error: argument"),
    # the global sum reads no normal subgroup
    (["bordism", "catalog:D8", "--global", "--normal", "center"],
     "error: argument --normal: not allowed with argument --global"),
    (["d2p", "--p", "3", "--max-degree", "-1"], "error: argument"),
    (["--max-order", "0", "irr", "catalog:Z4"], "error: argument"),
    (["--max-order", "-1", "irr", "catalog:Z4"], "error: argument"),
    (["irr", "catalog:Z1", "--max-order", "0"], "error: argument"),
    (["irr", "catalog:Z1", "--max-order", "-1"], "error: argument"),
    # --tol is gone: before the subcommand its value is read as the command,
    # after it the option is left over.
    (["--tol", "-1", "clifford", "catalog:D8"],
     "error: argument command: invalid choice: '-1'"),
    (["--tol", "nan", "clifford", "catalog:D8"],
     "error: argument command: invalid choice: 'nan'"),
    (["clifford", "catalog:D8", "--tol", "0"],
     "error: unrecognized arguments: --tol 0"),
]


@pytest.mark.parametrize(
    "argv, message", BAD_OPTION_VALUES,
    ids=[" ".join(argv).replace("catalog:", "") for argv, _ in BAD_OPTION_VALUES])
def test_cli_rejects_bad_option_values(argv, message, capsys):
    """A bad option value is an input error (exit 2) reported on an error:
    line, not a traceback, an inconsistency or an empty result."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def test_cli_has_no_tolerance_option(capsys):
    """--tol is gone: on either side of the subcommand it is an input error
    (exit 2, an error: line, nothing on stdout), and --help does not list
    it.  The float checks use the fixed repmatrices.TOL and SNAP_TOL."""
    for argv in [["--tol", "1e-8", "clifford", "catalog:D8"],
                 ["clifford", "catalog:D8", "--tol", "1e-8"]]:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "isotypic: error:" in captured.err
    for argv in [["--help"], ["clifford", "--help"]]:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert "--tol" not in capsys.readouterr().out


def test_max_order_one_builds_the_trivial_group(capsys):
    code, out = run_cli(["--max-order", "1", "irr", "catalog:Z1"], capsys)
    assert code == 0
    assert "order 1" in out


def test_json_reports_are_deterministic(capsys):
    code1, out1 = run_cli(["--format", "json", "clifford", data_path("d8.json")], capsys)
    code2, out2 = run_cli(["--format", "json", "clifford", data_path("d8.json")], capsys)
    assert code1 == code2 == 0
    assert out1 == out2


NAMES_A_NORMAL_SUBGROUP = sorted(name for name, entry in CATALOG.items()
                                 if entry.normal_generator_indices)


@pytest.mark.parametrize("normal", [None, "center", "full", "trivial"])
def test_clifford_json_does_not_depend_on_the_seed(normal, capsys):
    """The seed reaches nothing: no src code makes a random draw.  The test
    checks that --seed is still accepted and that the clifford JSON is
    byte-identical for every seed."""
    assert len(NAMES_A_NORMAL_SUBGROUP) == 27
    for name in NAMES_A_NORMAL_SUBGROUP:
        argv = ["clifford", "catalog:" + name] + ([] if normal is None else ["--normal", normal])
        outs = set()
        for seed in ["0", "1", "0x5EED", "4294967295"]:
            code, out = run_cli(["--format", "json", "--seed", seed] + argv, capsys)
            assert code == 0, (name, seed)
            outs.add(out)
        assert len(outs) == 1, name


# (command, results field) -> why a relabelling of the points and a shuffle
# of the generators may change it; later changes may only shrink this
RELABELLING_CHANGES = {
    ("irr", "classes"): "classes are lists of element indices, ordered by their minimal element",
    ("irr", "rows"): "rows sort by their values in that class order",
    ("clifford", "orbits"): "orbit records index the rows of A's table",
    ("bordism --global", "breakdown"): "keys number the subgroup classes in enumeration order",
}


def _relabelling_cases() -> list:
    """(name, degree, generators, normal generator indices) of each catalog
    group that names a normal subgroup, then of each benchmark pool group
    that is no catalog name, listed as the benchmark writes it: G's
    generators, then A's that are not among them."""
    cases = [(name, CATALOG[name].degree, [list(g) for g in CATALOG[name].generators],
              list(CATALOG[name].normal_generator_indices))
             for name in NAMES_A_NORMAL_SUBGROUP]
    for name, spec in benchmark_pool().items():
        if name not in CATALOG:
            listed = list(spec.gens) + [p for p in spec.normal_gens if p not in spec.gens]
            cases.append((name, spec.degree, [list(p) for p in listed],
                          [listed.index(p) for p in spec.normal_gens]))
    return cases


def test_relabelling_changes_only_the_allowed_fields(tmp_path, capsys):
    """Each catalog group that names a normal subgroup and each benchmark
    pool group that is no catalog name, written as a group file and as a
    seeded relabelling of its points with the generators shuffled (the
    normal subgroup's generator indices carried along): irr, clifford and
    adjacent-pair and global bordism exit alike on both, and the (command,
    results field) pairs that differ are exactly RELABELLING_CHANGES."""
    rng = random.Random(1)
    commands = {"irr": ["irr"], "clifford": ["clifford"],
                "bordism": ["bordism", "--max-degree", "20"],
                "bordism --global": ["bordism", "--global", "--max-degree", "20"]}
    cases = _relabelling_cases()
    assert [c[0] for c in cases[len(NAMES_A_NORMAL_SUBGROUP):]] == [
        "Dic12", "Dic20", "Dic24", "D8/center", "Q8/Z4", "S4/A4", "S3xS3", "S4xZ2", "S4xS3", "S5"]
    differ = set()
    for name, degree, gens, normal in cases:
        new, at = relabelled_generators(degree, gens, rng)
        paths = []
        for label, g, idxs in (("plain", gens, normal), ("relabelled", new, [at[i] for i in normal])):
            path = tmp_path / ("%s_%s.json" % (name.replace("/", "-"), label))
            path.write_text(json.dumps({"name": name.split("/")[0], "degree": degree,
                                        "generators": g, "normal_subgroup_generators": idxs}))
            paths.append(str(path))
        for command, argv in commands.items():
            (code, plain), (code2, relabelled) = (
                run_cli(["--format", "json", argv[0], path] + argv[1:], capsys) for path in paths)
            assert code == code2, (name, command)
            plain, relabelled = json.loads(plain)["results"], json.loads(relabelled)["results"]
            assert plain.keys() == relabelled.keys(), (name, command)
            differ.update((command, field) for field in plain if plain[field] != relabelled[field])
    assert differ == set(RELABELLING_CHANGES)


GOLDEN_JSON = [
    (["irr", "catalog:S4"],
     "5fc16cc3cc8e7615904b1908b58fc28649600ed674c0a2412fe5973e853e5cde"),
    (["clifford", "catalog:S4"],
     "4ed689b393ed92ecbfe2af8843c6c13c4df9cbabdc5a117455d801e8605cc2e5"),
    (["clifford", "catalog:Q8", "--normal", "center"],
     "005625a28a2d963eed852b7acbbbda5ea1e81ed834635418a26b323c51512e11"),
    (["clifford", "catalog:D8", "--normal", "trivial"],
     "08def1771dab5c9691b9e1a6a1c59fede0c3adb913e053b798b6bc00d74e74c2"),
    (["bordism", "catalog:D8", "--max-degree", "12", "--global"],
     "60e96f3835f7eaeb6dac260506c8082d6ab41bba2d2e329d199f5aeee7490651"),
    (["bordism", "catalog:S4", "--max-degree", "20", "--global"],
     "775ba6deadb4eb7d7a9679c6eb8b104253a390c5fbcd0d10fa3ee931eb240b30"),
    (["bordism", "catalog:F21", "--max-degree", "20"],
     "2caee6a849d8de1d3016cbc162c040bc74fda8d0855bedaf9e3a86735a09daf7"),
    (["irr", "catalog:D24"],
     "56e71ce68b46dee95b9d43212da46d322ce8c5d417e8b17a23730eff2467cdb6"),
    (["irr", "catalog:D16"],
     "d069f3a45bce28073296af23761dae0d31c9cd264221c3697edad667a49e5e1e"),
    (["irr", "catalog:Q16"],
     "bd5277722d8eea7845b5229744dbca6449db9b6b4be4204350ebcaba6a45fffa"),
    (["irr", "catalog:F21"],
     "092eef04d577d4768224c0417ffab2c591efe4005cbeacb9e5c9b52487d3e315"),
    (["irr", "catalog:F20"],
     "b6823e59a9c8bc77f60ac0169231422f5c70a0ec18df8d78fe90a7f3d1d01742"),
    (["d2p", "--p", "5", "--max-degree", "20"],
     "78b665d490188b09c71fc7dcbb2eeee6bef3b61d813ff4e283dbff5c1341901a"),
    (["d2p", "--p", "13", "--max-degree", "30"],
     "f23abdaff5d7c999fba9851b68cce1da864c6f41416605221fe327950d25b290"),
    (["bordism", "catalog:S4", "--global", "--max-degree", "200"],
     "000452ac50a4497be5e06d62b0f6e9c67fe6c71bee9078ffd86b6f45818ac5c7"),
    (["bordism", "catalog:Q16", "--global", "--max-degree", "60"],
     "84b28a4940fedaeb6987aa92e935b094733eb2c507ba77d2f5e9d53737c1d57d"),
    (["bordism", "catalog:S4", "--max-degree", "60"],
     "0c6985f17bb813c64f21cc807328acf52c75daa6450a5da12c024925e783cc41"),
    (["bordism", "catalog:A4", "--max-degree", "200"],
     "a254f64a20ddc46e15936ec9f4f7dd4c97344de06d3a2f8b9b2ce5c050b1f94b"),
    (["d2p", "--p", "13", "--max-degree", "60"],
     "30e9c96b1be7e6ae61c60009e0bd5ee08d18007ee7e6af4e317b0efd47442717"),
]


@pytest.mark.parametrize("argv, digest", GOLDEN_JSON,
                         ids=["_".join(argv).replace("catalog:", "") for argv, _ in GOLDEN_JSON])
def test_json_report_golden_digest(argv, digest, capsys):
    """The JSON report is byte-identical to the recorded one: its sha256 is
    pinned, so any change to the numbers, the element and class order or the
    formatting shows here."""
    code, out = run_cli(["--format", "json"] + argv, capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv", [
    ["irr", "catalog:Z4"],
    ["clifford", "catalog:D8"],
    ["bundle-verify", os.path.join(DATA, "d8_rho_bundle.json")],
    ["bordism", "catalog:D8", "--max-degree", "8"],
    ["bordism", "catalog:D8", "--max-degree", "6", "--global"],
    ["d2p", "--p", "3"],
])
def test_json_report_schema_fields(argv, capsys):
    code, out = run_cli(["--format", "json"] + argv, capsys)
    assert code == 0
    payload = json.loads(out)
    for key in ("schema_version", "command", "inputs_digest", "results",
                "warnings", "exit_status"):
        assert key in payload
    assert payload["schema_version"] == 1
    assert json.loads(json.dumps(payload)) == payload


def _subprocess_env(drop=()):
    """os.environ without the names in drop, with this package's src first
    on PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {k: v for k, v in os.environ.items() if k not in drop}
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    return env


def test_cli_entry_point_runs():
    proc = subprocess.run([sys.executable, "-m", "isotypic.cli", "irr", "catalog:Z4"],
                          capture_output=True, text=True, env=_subprocess_env())
    assert proc.returncode == 0, proc.stderr
    assert "order 4" in proc.stdout


BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def test_import_pins_one_blas_thread_unless_the_caller_chose():
    """In a fresh process, `import isotypic` sets each BLAS thread variable
    that is unset to "1" and keeps one the caller set."""
    env = _subprocess_env(drop=BLAS_THREAD_VARIABLES)
    script = ("import os, isotypic; print(' '.join(os.environ[k] for k in %r))"
              % (BLAS_THREAD_VARIABLES,))
    for preset, expected in [({}, "1 1 1"), ({"OMP_NUM_THREADS": "2"}, "1 2 1"),
                             (dict.fromkeys(BLAS_THREAD_VARIABLES, "2"), "2 2 2")]:
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, env=dict(env, **preset))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == expected.split(), preset


def _bundle_with_multiplicities(tmp_path, ms):
    with open(data_path("d8_rho_bundle.json")) as fh:
        data = json.load(fh)
    data["fibers"][0]["character"]["irreducible_multiplicities"] = ms
    data["group"] = data_path("d8.json")
    path = tmp_path / "mults.json"
    path.write_text(json.dumps(data))
    return str(path)


@pytest.mark.parametrize("content", ["[1, 2]", "fibers-5"], ids=["top-level-list", "fibers-int"])
def test_bundle_verify_rejects_malformed_files(content, tmp_path, capsys):
    """A bundle file whose top level is not an object, or whose fibers are
    not a list, is an input error (exit 2, an error: line), not a crash."""
    if content == "fibers-5":
        with open(data_path("d8_rho_bundle.json")) as fh:
            data = json.load(fh)
        data["fibers"] = 5
        data["group"] = data_path("d8.json")
        content = json.dumps(data)
    path = tmp_path / "malformed.json"
    path.write_text(content)
    with pytest.raises(FileFormatError):
        load_bundle_file(str(path))
    assert main(["bundle-verify", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def _set(path, value):
    """A function setting the entry at ``path`` (keys and indices) of a
    loaded JSON object to ``value``."""
    def edit(data):
        for key in path[:-1]:
            data = data[key]
        data[path[-1]] = value
    return edit


@pytest.mark.parametrize("edit", [
    _set(["degree"], 4.9), _set(["degree"], 4.0), _set(["degree"], True),
    _set(["generators", 0, 0], 1.2), _set(["generators", 1, 3], True),
    _set(["generators", 1], "0321"), _set(["normal_subgroup_generators", 0], 0.7),
    _set(["normal_subgroup_generators", 0], False), _set(["normal_subgroup_generators"], 0),
    lambda data: data.update(degree=-3, generators=[], normal_subgroup_generators=[]),
], ids=["degree-float", "degree-integral-float", "degree-bool", "generator-float",
        "generator-bool", "generator-string", "normal-float", "normal-bool", "normal-scalar",
        "degree-negative"])
def test_group_file_rejects_numbers_that_are_not_integers(edit, tmp_path, capsys):
    """degree, generator entries and normal_subgroup_generators must be JSON
    integers, and degree nonnegative: int() used to truncate 4.9 and 0.7 and
    read true as 1, and a degree of -3 with no generators closed to the
    trivial group, so each of these files ran irr and clifford with exit 0."""
    with open(data_path("d8.json")) as fh:
        data = json.load(fh)
    edit(data)
    path = tmp_path / "group.json"
    path.write_text(json.dumps(data))
    with pytest.raises(FileFormatError):
        load_group_file(str(path))
    for command in ("irr", "clifford"):
        assert main([command, str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err, err


@pytest.mark.parametrize("edit", [
    _set(["base", "points"], 2.5), _set(["base", "points"], True),
    _set(["base", "action", 2, 0], 1.0), _set(["base", "action", 0, 1], True),
    _set(["base", "action", 0], "01"), _set(["fibers", 0, "orbit_rep"], 0.9),
    _set(["fibers", 0, "orbit_rep"], False), _set(["fibers", 0, "orbit_rep"], "0"),
], ids=["points-float", "points-bool", "action-float", "action-bool", "action-string",
        "orbit-rep-float", "orbit-rep-bool", "orbit-rep-string"])
def test_bundle_file_rejects_numbers_that_are_not_integers(edit, tmp_path, capsys):
    """points, action entries and orbit_rep must be JSON integers: a file
    with points 2.5 and orbit_rep 0.9 used to verify with exit 0."""
    with open(data_path("d8_rho_bundle.json")) as fh:
        data = json.load(fh)
    data["group"] = data_path("d8.json")
    edit(data)
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps(data))
    with pytest.raises(FileFormatError):
        load_bundle_file(str(path))
    assert main(["bundle-verify", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err, err


def test_bundle_file_rejects_two_fibers_at_one_point(tmp_path, capsys):
    """A second fiber at the same point used to replace the first, so a
    file contradicting itself verified; it is an input error naming the
    point."""
    with open(data_path("d8_rho_bundle.json")) as fh:
        data = json.load(fh)
    data["group"] = data_path("d8.json")
    data["fibers"].append({"orbit_rep": 0,
                           "character": {"irreducible_multiplicities": [0, 0, 0, 7]}})
    path = tmp_path / "twice.json"
    path.write_text(json.dumps(data))
    with pytest.raises(FileFormatError, match="two fibers at point 0"):
        load_bundle_file(str(path))
    assert main(["bundle-verify", str(path)]) == 2
    assert capsys.readouterr().err == "error: two fibers at point 0\n"


def _d8_naming_no_subgroup(tmp_path):
    """A copy of d8.json without normal_subgroup_generators; its path."""
    with open(data_path("d8.json")) as fh:
        data = json.load(fh)
    del data["normal_subgroup_generators"]
    path = tmp_path / "d8_plain.json"
    path.write_text(json.dumps(data))
    return str(path)


def _generatorless_group(tmp_path, **fields):
    """A group file on 3 points that lists no generators, with fields; its path."""
    path = tmp_path / "generatorless.json"
    path.write_text(json.dumps({"name": "E", "degree": 3, "generators": [], **fields}))
    return str(path)


def _edited_bundle(edit):
    """A function of tmp_path giving the bundle-verify argv of the D8 bundle
    file after edit(data, tmp_path); edit may return the file's text."""
    def argv(tmp_path):
        with open(data_path("d8_rho_bundle.json")) as fh:
            data = json.load(fh)
        data["group"] = data_path("d8.json")
        text = edit(data, tmp_path)
        path = tmp_path / "bundle.json"
        path.write_text(json.dumps(data) if text is None else text)
        return ["bundle-verify", str(path)]
    return argv


def _without(key):
    def edit(data, _):
        del data[key]
    return edit


@pytest.mark.parametrize("argv, message", [
    (lambda _: ["clifford", "catalog:D8", "--normal", "x"], "bad --normal selector 'x': "),
    (_edited_bundle(lambda data, _: "{not json"), "cannot read bundle file "),
    (_edited_bundle(_without("group")), "bundle file needs a 'group' file reference\n"),
    (_edited_bundle(_without("base")), None),
    (_edited_bundle(lambda data, _: data["base"].update(points=3)),
     "bundle action table must be |G| x points\n"),
    (_edited_bundle(lambda data, _: _set(["base", "action", 0], [1, 0])(data)),
     "bundle base: identity must act trivially\n"),
    (_edited_bundle(lambda data, _: data.update(fibers=[5])), "bundle fiber entry is malformed: "),
    (_edited_bundle(lambda data, _: data["fibers"][0].update(
        character=[{"e": 1, "coeffs": {"0": [1, 1]}}])),
     "fiber character has 1 values, stabilizer has 4 classes\n"),
    (_edited_bundle(lambda data, _: data["fibers"][0].update(character="chi")),
     "fiber character must be multiplicities or a value list\n"),
    (lambda tmp_path: ["clifford", _d8_naming_no_subgroup(tmp_path)],
     "no normal subgroup named: pass --normal or add normal_subgroup_generators "
     "to the group file\n"),
    (_edited_bundle(lambda data, tmp_path: data.update(group=_d8_naming_no_subgroup(tmp_path))),
     "bundle's group file does not name a normal subgroup\n"),
    (lambda tmp_path: ["clifford", _generatorless_group(tmp_path), "--normal", "0"],
     "bad --normal selector '0': the group file lists no generators\n"),
    (lambda tmp_path: ["clifford", _generatorless_group(tmp_path,
                                                         normal_subgroup_generators=[0])],
     "bad normal_subgroup_generators: the group file lists no generators\n"),
], ids=["normal-selector-not-an-index", "bundle-not-json", "bundle-without-group",
        "bundle-without-base", "points-not-the-width", "identity-moves-points",
        "fiber-not-an-object", "fiber-value-count", "fiber-character-kind",
        "clifford-names-no-subgroup", "bundle-group-names-no-subgroup",
        "normal-selector-without-generators", "normal-generators-without-generators"])
def test_input_errors_exit_2_with_one_error_line(argv, message, tmp_path, capsys):
    """Each malformed group selector, bundle file and missing normal
    subgroup exits 2 with one error: line and no traceback; where the
    message is given, the line starts with it (a message ending in a
    newline is the whole line)."""
    assert main(argv(tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err
    if message is not None:
        assert err.startswith("error: " + message), err


def test_readme_quick_start_commands_run(monkeypatch, capsys):
    """Every command of the README's command-line block exits 0 and prints
    the identity its comment states, which for D8 and Q8 are 5 = 2 + 2 + 1
    and 5 = 4 + 1."""
    import re
    import shlex
    root = os.path.join(os.path.dirname(__file__), "..")
    with open(os.path.join(root, "README.md")) as fh:
        readme = fh.read()
    block = readme.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    commands = [line.split("#", 1) for line in block.splitlines() if line.startswith("isotypic ")]
    assert len(commands) == 7
    monkeypatch.chdir(root)
    outputs = {}
    for command, *comment in commands:
        assert main(shlex.split(command)[1:]) == 0, command
        outputs[command.strip()] = capsys.readouterr().out
        for identity in re.findall(r"\d+ = \d+(?: \+ \d+)*", "".join(comment)):
            assert "identity: %s\n" % identity in outputs[command.strip()], command
    assert "identity: 5 = 2 + 2 + 1" in outputs["isotypic clifford catalog:D8"]
    assert "identity: 5 = 4 + 1" in outputs["isotypic clifford catalog:Q8"]


@pytest.mark.parametrize("ms", [[0, 0, 1.5, 0], [0, 0, "1", 0], [0, 0, True, 0],
                                [0, 0, -1, 0], [0, 0, None, 0], [0, 0, 1], [0, 0, 1, 0, 0],
                                1, "0010", {"2": 1}],
                         ids=["float", "string", "bool", "negative", "null", "too-short",
                              "too-long", "scalar", "string-list", "object"])
def test_bundle_rejects_bad_multiplicities(ms, tmp_path, capsys):
    """Only a list of JSON integers >= 0, one per row of the stabilizer's
    table, is a multiplicity fiber; 1.5 used to be truncated to 1 and
    verified."""
    path = _bundle_with_multiplicities(tmp_path, ms)
    with pytest.raises(FileFormatError):
        load_bundle_file(path)
    code, out = run_cli(["bundle-verify", path], capsys)
    assert code == 2
    assert "verified" not in out


def test_loading_multiplicity_bundle_makes_no_inner_products(monkeypatch):
    """A multiplicity fiber is a character by construction: loading the
    shipped bundle does not decompose it again."""
    from isotypic import characters, files
    calls = []
    real = characters.inner_product

    def counted(x1, x2):
        calls.append(1)
        return real(x1, x2)

    monkeypatch.setattr(characters, "inner_product", counted)
    monkeypatch.setattr(files, "inner_product", counted)
    bundle, G, A = load_bundle_file(data_path("d8_rho_bundle.json"))
    assert calls == []
    assert bundle.fibers[bundle.anchor(0)].values[0].integer() == 1


@pytest.mark.parametrize("value", [{"e": 3, "coeffs": {"0": [1, 1]}},
                                   {"e": 0, "coeffs": {"0": [1, 1]}},
                                   {"e": 10 ** 12, "coeffs": {"0": [1, 1]}},
                                   {"e": 4, "coeffs": {"0": [1, 0]}},
                                   {"e": 4, "coeffs": [1]},
                                   {"coeffs": {"0": [1, 1]}},
                                   {"e": 4, "coeffs": {"0": [1]}},
                                   {"e": 4, "coeffs": {"0": "x"}},
                                   {"e": 4, "coeffs": {"0": [1, 1, 7]}},
                                   {"e": 4, "coeffs": {"0": [True, 1]}}],
                         ids=["order-not-dividing", "order-zero", "order-huge",
                              "zero-denominator", "coeffs-list", "no-order",
                              "coefficient-one-entry", "coefficient-string",
                              "coefficient-three-entries", "coefficient-bool"])
def test_bundle_rejects_bad_fiber_values(value, tmp_path, capsys):
    """A value-list fiber needs values whose order divides the group
    exponent and whose coefficients are each a list of two integers with a
    nonzero denominator; anything else is an input error, not a crash."""
    with open(data_path("d8_rho_bundle.json")) as fh:
        data = json.load(fh)
    data["fibers"][0]["character"] = [value] * 4
    data["group"] = data_path("d8.json")
    path = tmp_path / "values.json"
    path.write_text(json.dumps(data))
    with pytest.raises(FileFormatError):
        load_bundle_file(str(path))
    assert main(["bundle-verify", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: fiber value ")


def _value_fiber(bundle, x):
    """The fiber character of bundle at x as a JSON value list."""
    from isotypic.bundles import fiber_character
    from isotypic.cyclotomic import cyclotomic_to_jsonable
    return [cyclotomic_to_jsonable(v) for v in fiber_character(bundle, x).values]


def test_value_fiber_verifies_like_the_multiplicity_fiber(monkeypatch, tmp_path, capsys):
    """The shipped bundle with its fiber written as a value list is decomposed
    into multiplicities once, on load, and verifies with the same JSON
    results, byte for byte."""
    from isotypic import files
    bundle, _, _ = load_bundle_file(data_path("d8_rho_bundle.json"))
    with open(data_path("d8_rho_bundle.json")) as fh:
        data = json.load(fh)
    data["fibers"][0]["character"] = _value_fiber(bundle, 0)
    data["group"] = data_path("d8.json")
    path = tmp_path / "values.json"
    path.write_text(json.dumps(data))

    checked = []
    real = files._character_multiplicities

    def counted(chi):
        checked.append(1)
        return real(chi)

    monkeypatch.setattr(files, "_character_multiplicities", counted)
    code, out = run_cli(["bundle-verify", data_path("d8_rho_bundle.json"),
                         "--format", "json"], capsys)
    assert code == 0 and checked == []
    code_v, out_v = run_cli(["bundle-verify", str(path), "--format", "json"], capsys)
    assert code_v == 0 and checked == [1]
    results = json.loads(out)["results"]
    results_v = json.loads(out_v)["results"]
    assert json.dumps(results_v, sort_keys=True) == json.dumps(results, sort_keys=True)
    assert results_v["ok"] and results_v["per_point"] == {"0": [], "1": []}


def test_bundle_accepts_mixed_fiber_kinds(tmp_path, capsys):
    """A multiplicity fiber and a value fiber in one file are both decomposed
    into multiplicities: the shipped bundle plus the transported fiber at
    point 1, as a value list, verifies with the shipped file's JSON results;
    rho at point 1 instead is a mismatch there."""
    bundle, _, _ = load_bundle_file(data_path("d8_rho_bundle.json"))
    code, out = run_cli(["bundle-verify", data_path("d8_rho_bundle.json"),
                         "--format", "json"], capsys)
    assert code == 0
    with open(data_path("d8_rho_bundle.json")) as fh:
        data = json.load(fh)
    data["group"] = data_path("d8.json")
    data["fibers"].append({"orbit_rep": 1, "character": _value_fiber(bundle, 1)})
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps(data))
    code_m, out_m = run_cli(["bundle-verify", str(path), "--format", "json"], capsys)
    assert code_m == 0
    results, results_m = json.loads(out)["results"], json.loads(out_m)["results"]
    assert json.dumps(results_m, sort_keys=True) == json.dumps(results, sort_keys=True)
    data["fibers"][1]["character"] = _value_fiber(bundle, 0)
    path.write_text(json.dumps(data))
    code_r, out_r = run_cli(["bundle-verify", str(path)], capsys)
    assert code_r == 1
    assert "point 1: MISMATCH" in out_r


S5_A5 ={"name": "S5", "degree": 5, "normal_subgroup_generators": [2, 3],
         "generators": [[1, 2, 3, 4, 0], [1, 0, 2, 3, 4], [1, 2, 0, 3, 4], [0, 1, 3, 4, 2]]}
S4_A4 = {"name": "S4", "degree": 4, "normal_subgroup_generators": [1, 2, 3],
         "generators": [[1, 0, 2, 3], [1, 2, 0, 3], [1, 0, 3, 2], [2, 3, 0, 1]]}


def test_clifford_needs_matrices_only_for_a_nonlinear_rho_with_nontrivial_quotient(
        tmp_path, monkeypatch, capsys):
    """Only an orbit with rho(1) >= 2 and G_rho/A nontrivial needs a matrix
    model.  With matrix_irreps and intertwiner made to raise, clifford gives
    the same JSON on S5 over itself and on every catalog group under its
    named subgroup, its center, itself and the trivial group.  S4 over A4
    builds one model, of its degree-3 row, and intertwines only that row."""
    from isotypic import orbits, repmatrices
    s5 = tmp_path / "s5.json"
    s5.write_text(json.dumps(S5_A5))
    s4 = tmp_path / "s4.json"
    s4.write_text(json.dumps(S4_A4))
    argvs = [["clifford", str(s5), "--normal", "full"]]
    for name in sorted(CATALOG):
        normals = ["center", "full", "trivial"]
        if CATALOG[name].normal_generator_indices:
            normals.append(None)
        for normal in normals:
            argvs.append(["clifford", "catalog:" + name]
                         + ([] if normal is None else ["--normal", normal]))
    expected = [run_cli(["--format", "json"] + argv, capsys) for argv in argvs]
    s4_expected = run_cli(["--format", "json", "clifford", str(s4)], capsys)

    calls = []

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls.append((name, args))
            return original(*args, **kwargs)
        return wrapper

    originals = {name: getattr(repmatrices, name) for name in ("matrix_irreps", "intertwiner")}
    for module in (repmatrices, orbits):
        for name, original in originals.items():
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(name, original))
    assert run_cli(["--format", "json", "clifford", str(s4)], capsys) == s4_expected
    assert [name for name, _ in calls] == ["matrix_irreps", "intertwiner"]
    assert list(calls[0][1][1]) == [3]
    assert [rho.dimension for rho in calls[1][1]] == [3, 3]

    def float_layer(*args, **kwargs):
        raise AssertionError("clifford reached the float layer")

    for module in (repmatrices, orbits):
        for name in ("matrix_irreps", "intertwiner"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, float_layer)
    for argv, out in zip(argvs, expected):
        assert out[0] == 0, argv
        assert run_cli(["--format", "json"] + argv, capsys) == out, argv


def test_main_keeps_no_options_between_calls(capsys):
    """main parses with one parser per process; options of one call do not
    reach the next."""
    code, out = run_cli(["--format", "json", "--seed", "1", "irr", "catalog:Z4"], capsys)
    assert code == 0 and json.loads(out)["command"] == "irr"
    code, out = run_cli(["irr", "catalog:Z4"], capsys)
    assert code == 0 and out.startswith("group Z4")
    code, out = run_cli(["clifford", "catalog:Q8", "--format", "json"], capsys)
    assert code == 0 and json.loads(out)["command"] == "clifford"
    code, out = run_cli(["clifford", "catalog:Q8"], capsys)
    assert code == 0 and out.startswith("group Q8")


def _json_stdout(argv, monkeypatch, capsys):
    """(exit code, the payload Report.to_json renders, stdout) of one
    ``--format json`` call."""
    payloads = []
    render = cli._render

    def spy(obj, pad):
        if pad == "\n":
            payloads.append(obj)
        return render(obj, pad)

    with monkeypatch.context() as m:
        m.setattr(cli, "_render", spy)
        code = main(["--format", "json"] + argv)
    (payload,) = payloads
    return code, payload, capsys.readouterr().out


def test_renderer_equals_json_dumps_on_every_command(monkeypatch, tmp_path, capsys):
    """Report.to_json renders what json.dumps(payload, sort_keys=True,
    indent=2) gives, and stdout is that text and a newline: irr on every
    catalog group; clifford with the file's, the trivial, the full and the
    central subgroup; adjacent-pair and global bordism at degrees 0 and 20;
    d2p; the shipped bundle and a corrupted one."""
    sweep = [(["irr", "catalog:" + name], 0) for name in sorted(CATALOG)]
    for name in NAMES_A_NORMAL_SUBGROUP:
        group = "catalog:" + name
        sweep += [(["clifford", group] + normal, 0)
                  for normal in ([], ["--normal", "trivial"], ["--normal", "full"],
                                 ["--normal", "center"])]
        sweep += [(["bordism", group, "--max-degree", n] + flag, 0)
                  for n in ("0", "20") for flag in ([], ["--global"])]
    sweep += [(["d2p", "--p", p], 0) for p in ("3", "5", "13")]
    sweep += [(["bundle-verify", data_path("d8_rho_bundle.json")], 0),
              (["bundle-verify", _corrupted_bundle(tmp_path)], 1)]
    for argv, expected_code in sweep:
        code, payload, out = _json_stdout(argv, monkeypatch, capsys)
        text = json.dumps(payload, sort_keys=True, indent=2)
        assert code == expected_code, argv
        assert cli._render(payload, "\n") == text, argv
        assert out == text + "\n", argv
    assert payload["results"]["ok"] is False
    assert main(["bundle-verify", _corrupted_bundle(tmp_path)]) == 1
    assert "decomposition FAILED" in capsys.readouterr().out


S4XS3 = {"name": "S4xS3", "degree": 7,
         "generators": [[1, 2, 3, 0, 4, 5, 6], [1, 0, 2, 3, 4, 5, 6],
                        [0, 1, 2, 3, 5, 6, 4], [0, 1, 2, 3, 5, 4, 6]]}


def test_irr_json_renders_each_distinct_value_once(tmp_path, monkeypatch, capsys):
    """irr --format json on S4xS3 converts each distinct value to text once
    (one Cyclotomic.__repr__ call each, for the text table), the rows share
    one JSON object per distinct value, and each of those is rendered once:
    its coefficient dict is rendered once, and the text is json.dumps's."""
    from isotypic.cyclotomic import Cyclotomic
    path = tmp_path / "s4xs3.json"
    path.write_text(json.dumps(S4XS3))
    reprs = []
    real_repr = Cyclotomic.__repr__
    monkeypatch.setattr(Cyclotomic, "__repr__", lambda v: reprs.append(v) or real_repr(v))
    rendered = []
    render = cli._render_memo

    def spy(obj, pad, memo):
        rendered.append(obj)
        return render(obj, pad, memo)

    monkeypatch.setattr(cli, "_render_memo", spy)
    code, payload, out = _json_stdout(["irr", str(path)], monkeypatch, capsys)
    assert code == 0
    assert out == json.dumps(payload, sort_keys=True, indent=2) + "\n"
    entries = [v for row in payload["results"]["rows"] for v in row["values"]]
    shared = {id(v): v for v in entries}
    assert len(entries) == 15 * 15 and len(shared) < len(entries)
    assert len(reprs) == len({id(v) for v in reprs}) == len(shared)
    coeffs = [id(v["coeffs"]) for v in shared.values()]
    assert sorted(id(obj) for obj in rendered if id(obj) in coeffs) == sorted(coeffs)


TABLE_STDOUT = [
    (["irr", "catalog:S4"], "2f49d7703e59a69aefb56da17bfd3e01160e7a5e34ceadd3ac7cc355a8161320"),
    (["clifford", "catalog:S4"],
     "64edb6acb14e40c22aa81f4b5d6e7c5ed728e8d76b666d0cc10d4bd3108db9d2"),
]


@pytest.mark.parametrize("argv, digest", TABLE_STDOUT, ids=["irr_S4", "clifford_S4"])
def test_table_stdout_is_pinned(argv, digest, capsys):
    """The --format table text, printed from the codes, is pinned by digest."""
    code, out = run_cli(argv, capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_renderer_equals_json_dumps_on_nested_and_escaped_values():
    payload = {
        "empty": {"dict": {}, "list": [], "tuple": ()},
        "nested": [[], {}, [[]], [{}], {"a": []}, [1, [2, []], {"b": {}}]],
        "strings": ['quote " and backslash \\', "control \x01\x1f\t\n",
                    "non-ASCII \u00e9\u03b6\u2713 \U0001f600", ""],
        "ints": [0, -1, 2 ** 70, -(2 ** 70)],
        "mixed": [1, True, None, "1", False, 2],
        "ints_and_bools": [0, True, 1, False],
        "literals": {"true": True, "false": False, "null": None},
        "\u00e9 key \"\\": (1, (2, 3)),
        "": 0,
    }
    assert cli._render(payload, "\n") == json.dumps(payload, sort_keys=True, indent=2)
    for value in payload.values():
        assert cli._render(value, "\n") == json.dumps(value, sort_keys=True, indent=2)


@pytest.mark.parametrize("value", [
    1.5, [1, 2.0], {1: "int key"}, {"a": 1, 2: "mixed keys"}, {None: 0}, {"a": {(1,): 2}},
    np.int64(3), [np.int64(3)], {1, 2}])
def test_renderer_rejects_what_it_does_not_render(value):
    """A float, a non-str key, a numpy scalar or a set is a TypeError: the
    renderer has no fallback."""
    with pytest.raises(TypeError):
        cli._render({"results": value}, "\n")
