"""End-to-end command-line tests."""

import json

import pytest

from topolab.cli import main
from topolab.core import format_topo, sierpinski
from topolab.verify import Report


@pytest.fixture
def sierpinski_file(tmp_path):
    path = tmp_path / "sierpinski.topo"
    path.write_text(format_topo(sierpinski()))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_check_strongly_irresolvable(capsys, sierpinski_file):
    code, out, _ = run(capsys, "check", "--space", sierpinski_file,
                       "--prop", "strongly-irresolvable")
    assert code == 0
    assert out.strip() == "true"


def test_check_cover_property_finite(capsys, sierpinski_file):
    code, out, _ = run(capsys, "check", "--space", sierpinski_file,
                       "--prop", "p-closed", "--explain")
    assert code == 0
    assert out.splitlines()[0] == "true"
    assert "certificate" in out


def test_check_skeleton_by_catalog_name(capsys):
    code, out, _ = run(capsys, "check", "--space", "catalog:indiscrete-omega",
                       "--prop", "p-closed", "--explain")
    assert code == 0
    assert out.splitlines()[0] == "false"
    assert "witness" in out


def test_ops_output(capsys, sierpinski_file):
    code, out, _ = run(capsys, "ops", "--space", sierpinski_file,
                       "--set", "1", "--op", "pcl", "--op", "int")
    assert code == 0
    assert "pcl: {0 1}" in out
    assert "int: {1}" in out


def test_classify_output(capsys, sierpinski_file):
    code, out, _ = run(capsys, "classify", "--space", sierpinski_file,
                       "--set", "1")
    assert code == 0
    assert "preopen: true" in out
    assert "regular_open: false" in out


def test_relative_finite(capsys, sierpinski_file):
    code, out, _ = run(capsys, "relative", "--space", sierpinski_file,
                       "--set", "0", "--prop", "p-closed")
    assert code == 0
    assert out.strip().splitlines()[0] == "true"


def test_relative_symbolic(capsys, tmp_path):
    sset = tmp_path / "tclass.json"
    sset.write_text(json.dumps({"t": {"e0": "inf"}}))
    code, out, _ = run(capsys, "relative", "--space",
                       "catalog:excluded-point-omega",
                       "--symbolic-set", str(sset), "--prop", "p-closed")
    assert code == 0
    assert out.strip().splitlines()[0] == "false"


def test_enumerate_counts(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "3", "--count")
    assert code == 0 and out.strip() == "29"
    code, out, _ = run(capsys, "enumerate", "--n", "4", "--count")
    assert code == 0 and out.strip() == "355"


def test_enumerate_both_methods(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "3", "--method", "both")
    assert code == 0
    assert "agree: true" in out


@pytest.mark.parametrize("method", ["family", "both"])
def test_family_scan_beyond_four_points_exit_three(capsys, method):
    code, out, err = run(capsys, "enumerate", "--n", "5", "--count",
                         "--method", method)
    assert code == 3
    assert err.startswith("error:") and "n <= 4" in err
    assert out == ""


def test_verify_json_roundtrip(capsys, tmp_path):
    out_path = tmp_path / "out.json"
    code, out, _ = run(capsys, "verify", "--claims", "T1,T2,T3",
                       "--universe", "exhaustive:3", "--json", str(out_path))
    assert code == 0
    data = json.loads(out_path.read_text())
    reports = [Report.from_json(r) for r in data["reports"]]
    assert [r.claim for r in reports] == ["T1", "T2", "T3"]
    assert all(r.status == "pass" for r in reports)
    for line, r in zip(out.splitlines(), reports):
        assert line.startswith(f"{r.claim}: pass")


def test_verify_exit_one_on_violation(capsys):
    code, out, _ = run(capsys, "verify", "--claims", "L3",
                       "--universe", "exhaustive:2")
    assert code == 1
    assert "L3: fail" in out


def test_hunt_reverse(capsys):
    code, out, _ = run(capsys, "hunt", "--reverse", "p-closed=>QHC",
                       "--universe", "catalog")
    assert code == 0
    assert "witness: indiscrete-omega" in out


def test_hunt_named_target(capsys):
    code, out, _ = run(capsys, "hunt", "--target", "tn1-converse",
                       "--universe", "catalog")
    assert code == 0
    assert "witness: none" in out


def test_catalog_show(capsys):
    code, out, _ = run(capsys, "catalog", "e1iii")
    assert code == 0
    assert "expected p-closed: true [cited]" in out


def test_catalog_check_single_entry(capsys):
    code, out, _ = run(capsys, "catalog", "e1iii", "--check")
    assert code == 0
    assert "MISMATCH" not in out


def test_catalog_check_remark_product_reports_mismatch(capsys):
    code, out, _ = run(capsys, "catalog", "remark-product", "--check")
    assert code == 1
    assert "all-proper-preregular-relatively-p-closed" in out
    assert "MISMATCH" in out


def test_parse_error_exit_three(capsys, tmp_path):
    bad = tmp_path / "bad.topo"
    bad.write_text("points 3\nopen 0\nopen 1\n")
    code, _, err = run(capsys, "check", "--space", str(bad), "--prop", "qhc")
    assert code == 3
    assert "union" in err


def test_unknown_property_rejected(capsys, sierpinski_file):
    code, _, err = run(capsys, "check", "--space", sierpinski_file,
                       "--prop", "nosuch")
    assert code == 3
    assert "unknown property" in err


def test_unknown_claim_rejected(capsys):
    code, _, err = run(capsys, "verify", "--claims", "NOPE",
                       "--universe", "exhaustive:2")
    assert code == 3
    assert "unknown claim" in err


@pytest.mark.parametrize("argv", [
    ("verify", "--claims", "L3", "--universe", "exhaustive:9"),
    ("verify", "--claims", "L3", "--universe", "sampled:7:1:5"),
    ("verify", "--claims", "L3", "--universe", "exhaustive:0"),
    ("hunt", "--target", "tn1-converse", "--universe", "exhaustive:6"),
])
def test_out_of_range_universe_exit_three(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert err.startswith("error:") and "n must be 1..5" in err
    assert "Traceback" not in err + out


def test_jobs_out_of_range_rejected_before_any_pool(capsys):
    import os

    # refused by the argument check, so no process is ever started
    for jobs in ("0", "-2", str((os.cpu_count() or 1) + 1)):
        code, out, err = run(capsys, "verify", "--claims", "T1",
                             "--universe", "exhaustive:2", "--jobs", jobs)
        assert code == 3
        assert err.startswith("error: --jobs must be")
        assert out == ""


@pytest.mark.parametrize("argv", [
    ("ops", "--set", "0"),
    ("classify", "--set", "0"),
    ("check", "--prop", "p-closed"),
    ("relative", "--set", "0", "--prop", "p-closed"),
])
def test_oversized_finite_space_exit_three(capsys, tmp_path, argv):
    big = tmp_path / "big.topo"
    big.write_text("points 17\nopen 0\n")
    code, out, err = run(capsys, argv[0], "--space", str(big), *argv[1:])
    assert code == 3
    assert err.startswith("error:") and "limit of 16" in err
    assert out == ""


def test_check_unknown_exit_two(capsys):
    code, out, _ = run(capsys, "check", "--space", "catalog:remark-product",
                       "--prop", "alpha-compact")
    assert code == 2
    assert out.strip() == "unknown"


def test_ops_symbolic(capsys, tmp_path):
    sset = tmp_path / "z.json"
    sset.write_text(json.dumps({"z": {"e0": 1}}))
    code, out, _ = run(capsys, "ops", "--space", "catalog:e1iii",
                       "--symbolic-set", str(sset), "--op", "pcl")
    assert code == 0
    assert out.startswith("pcl:") and "{e0}:inf" in out


def test_classify_symbolic(capsys, tmp_path):
    sset = tmp_path / "z.json"
    sset.write_text(json.dumps({"z": {"e0": 1}}))
    code, out, _ = run(capsys, "classify", "--space", "catalog:e1iii",
                       "--symbolic-set", str(sset))
    assert code == 0
    assert "dense: true" in out and "open: true" in out


def test_check_finite_skel_explain_prints_realized_opens(capsys, tmp_path):
    skel = tmp_path / "pair.skel"
    skel.write_text("node x card 2 mode clique block chain1\n")
    code, out, _ = run(capsys, "check", "--space", str(skel),
                       "--prop", "p-closed", "--explain")
    assert code == 0
    assert "realized carrier: 2 points" in out
    assert out.splitlines()[-2].strip() == "true" or "true" in out


def test_topolab_seed_env_default(monkeypatch):
    from topolab.cli import build_parser

    monkeypatch.setenv("TOPOLAB_SEED", "123")
    args = build_parser().parse_args(
        ["verify", "--claims", "T1", "--universe", "exhaustive:2"])
    assert args.seed == 123
    monkeypatch.delenv("TOPOLAB_SEED")
    args = build_parser().parse_args(
        ["verify", "--claims", "T1", "--universe", "exhaustive:2"])
    assert args.seed == 0
