import hashlib
import json
import os
import subprocess
import sys

import pytest

from isotypic.catalog import CATALOG
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


def test_cmd_bundle_verify_corrupted(tmp_path, capsys):
    """A fiber stored redundantly at the second point, corrupted to rho
    instead of the transported rho^3, must be flagged at that point."""
    with open(data_path("d8_rho_bundle.json")) as fh:
        data = json.load(fh)
    rho_mults = data["fibers"][0]["character"]["irreducible_multiplicities"]
    data["fibers"].append({"orbit_rep": 1,
                           "character": {"irreducible_multiplicities": rho_mults}})
    data["group"] = data_path("d8.json")
    bad = tmp_path / "corrupt.json"
    bad.write_text(json.dumps(data))
    code, out = run_cli(["bundle-verify", str(bad)], capsys)
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
    b = next(g for g in G.elements() if g not in A._member_set and G.element_order(g) == 2)
    Y = GSet.cosets(G, G.subgroup([b]))
    sgrp, _ = Y.stabilizer(0).as_group()
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


def test_cmd_d2p_rejects_composite(capsys):
    assert main(["d2p", "--p", "25", "--max-degree", "10"]) == 2
    assert main(["d2p", "--p", "4", "--max-degree", "10"]) == 2


@pytest.mark.parametrize("argv", [
    ["--seed", "-1", "clifford", "catalog:D8"],
    ["clifford", "catalog:D8", "--seed=-1"],
    ["--tol", "-1", "clifford", "catalog:D8"],
    ["--tol", "nan", "clifford", "catalog:D8"],
    ["clifford", "catalog:D8", "--tol", "0"],
    ["bordism", "catalog:D8", "--max-degree", "-1"],
    ["bordism", "catalog:D8", "--max-degree", "-1", "--global"],
    ["d2p", "--p", "3", "--max-degree", "-1"],
    ["--max-order", "0", "irr", "catalog:Z4"],
    ["--max-order", "-1", "irr", "catalog:Z4"],
    ["irr", "catalog:Z1", "--max-order", "0"],
    ["irr", "catalog:Z1", "--max-order", "-1"],
], ids=lambda argv: " ".join(argv).replace("catalog:", ""))
def test_cli_rejects_bad_option_values(argv, capsys):
    """A bad option value is an input error (exit 2) reported on an error:
    line, not a traceback, an inconsistency or an empty result."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: argument" in captured.err


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
    """The seed only picks the random commutant elements and intertwiners; the
    clifford report is exact, so its JSON is byte-identical for every seed."""
    assert len(NAMES_A_NORMAL_SUBGROUP) == 27
    for name in NAMES_A_NORMAL_SUBGROUP:
        argv = ["clifford", "catalog:" + name] + ([] if normal is None else ["--normal", normal])
        outs = set()
        for seed in ["0", "1", "0x5EED", "4294967295"]:
            code, out = run_cli(["--format", "json", "--seed", seed] + argv, capsys)
            assert code == 0, (name, seed)
            outs.add(out)
        assert len(outs) == 1, name


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
    (["d2p", "--p", "5", "--max-degree", "20"],
     "78b665d490188b09c71fc7dcbb2eeee6bef3b61d813ff4e283dbff5c1341901a"),
    (["d2p", "--p", "13", "--max-degree", "30"],
     "f23abdaff5d7c999fba9851b68cce1da864c6f41416605221fe327950d25b290"),
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


def test_cli_entry_point_runs():
    proc = subprocess.run([sys.executable, "-m", "isotypic.cli", "irr", "catalog:Z4"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "order 4" in proc.stdout


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
    from isotypic import bundles, characters
    calls = []
    real = characters.inner_product

    def counted(x1, x2):
        calls.append(1)
        return real(x1, x2)

    monkeypatch.setattr(characters, "inner_product", counted)
    monkeypatch.setattr(bundles, "inner_product", counted)
    bundle, G, A = load_bundle_file(data_path("d8_rho_bundle.json"))
    assert calls == []
    assert bundle.fibers[bundle.anchor(0)].degree().integer() == 1


@pytest.mark.parametrize("value", [{"e": 3, "coeffs": {"0": [1, 1]}},
                                   {"e": 0, "coeffs": {"0": [1, 1]}},
                                   {"e": 10 ** 12, "coeffs": {"0": [1, 1]}},
                                   {"e": 4, "coeffs": {"0": [1, 0]}},
                                   {"e": 4, "coeffs": [1]},
                                   {"coeffs": {"0": [1, 1]}}],
                         ids=["order-not-dividing", "order-zero", "order-huge",
                              "zero-denominator", "coeffs-list", "no-order"])
def test_bundle_rejects_bad_fiber_values(value, tmp_path, capsys):
    """A value-list fiber needs values whose order divides the group
    exponent; anything else is an input error, not a crash."""
    with open(data_path("d8_rho_bundle.json")) as fh:
        data = json.load(fh)
    data["fibers"][0]["character"] = [value] * 4
    data["group"] = data_path("d8.json")
    path = tmp_path / "values.json"
    path.write_text(json.dumps(data))
    with pytest.raises(FileFormatError):
        load_bundle_file(str(path))
    assert run_cli(["bundle-verify", str(path)], capsys)[0] == 2


def _value_fiber(bundle, x):
    from isotypic.characters import cyclotomic_to_jsonable
    return [cyclotomic_to_jsonable(v) for v in bundle.fibers[x].values]


def test_value_fiber_verifies_like_the_multiplicity_fiber(monkeypatch, tmp_path, capsys):
    """The shipped bundle with its fiber written as a value list goes through
    the constructor's character check and verifies with the same JSON
    results, byte for byte."""
    from isotypic import bundles
    bundle, _, _ = load_bundle_file(data_path("d8_rho_bundle.json"))
    with open(data_path("d8_rho_bundle.json")) as fh:
        data = json.load(fh)
    data["fibers"][0]["character"] = _value_fiber(bundle, 0)
    data["group"] = data_path("d8.json")
    path = tmp_path / "values.json"
    path.write_text(json.dumps(data))

    checked = []
    real = bundles._character_multiplicities

    def counted(chi):
        checked.append(1)
        return real(chi)

    monkeypatch.setattr(bundles, "_character_multiplicities", counted)
    code, out = run_cli(["bundle-verify", data_path("d8_rho_bundle.json"),
                         "--format", "json"], capsys)
    assert code == 0 and checked == []
    code_v, out_v = run_cli(["bundle-verify", str(path), "--format", "json"], capsys)
    assert code_v == 0 and checked == [1]
    results = json.loads(out)["results"]
    results_v = json.loads(out_v)["results"]
    assert json.dumps(results_v, sort_keys=True) == json.dumps(results, sort_keys=True)
    assert results_v["ok"] and results_v["per_point"] == {"0": [], "1": []}


def test_bundle_rejects_mixed_fiber_kinds(tmp_path, capsys):
    """A multiplicity fiber and a value fiber in one file is an input error."""
    bundle, _, _ = load_bundle_file(data_path("d8_rho_bundle.json"))
    with open(data_path("d8_rho_bundle.json")) as fh:
        data = json.load(fh)
    data["fibers"].append({"orbit_rep": 1, "character": _value_fiber(bundle, 0)})
    data["group"] = data_path("d8.json")
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps(data))
    with pytest.raises(FileFormatError, match="mix"):
        load_bundle_file(str(path))
    assert run_cli(["bundle-verify", str(path)], capsys)[0] == 2


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
    builds the models once and intertwines only its degree-3 row."""
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
