import hashlib
import json
import os
import subprocess
import sys

import pytest

from isotypic.cli import main
from isotypic.files import (FileFormatError, bundle_to_jsonable,
                            catalog_group_file, load_bundle_file,
                            load_group_file)

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
    data = catalog_group_file("D8")
    assert len(data["generators"]) == 2
    data["normal_subgroup_generators"] = indices
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
    from isotypic.bundles import EquivariantBundle, GSet
    from isotypic.characters import character_table
    G, A = load_group_file(data_path("d8.json"))
    b = next(g for g in G.elements() if g not in A._member_set and G.element_order(g) == 2)
    Y = GSet.cosets(G, G.subgroup([b]))
    sgrp, _ = Y.stabilizer(0).as_group()
    ts = character_table(sgrp)
    E = EquivariantBundle.from_multiplicities(Y, {0: [1] * len(ts.rows)})
    data = bundle_to_jsonable(E, data_path("d8.json"))
    f = tmp_path / "bad_base.json"
    f.write_text(json.dumps(data))
    assert main(["bundle-verify", str(f)]) == 6


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


def test_json_reports_are_deterministic(capsys):
    code1, out1 = run_cli(["--format", "json", "clifford", data_path("d8.json")], capsys)
    code2, out2 = run_cli(["--format", "json", "clifford", data_path("d8.json")], capsys)
    assert code1 == code2 == 0
    assert out1 == out2


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


def test_catalog_group_file_roundtrip(tmp_path):
    data = catalog_group_file("D8")
    f = tmp_path / "d8_again.json"
    f.write_text(json.dumps(data))
    G, A = load_group_file(str(f))
    assert G.order == 8 and A.order == 4


def test_cli_entry_point_runs():
    proc = subprocess.run([sys.executable, "-m", "isotypic.cli", "irr", "catalog:Z4"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "order 4" in proc.stdout
