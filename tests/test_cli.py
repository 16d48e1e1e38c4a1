"""End-to-end command-line tests."""

import json

import pytest

from topolab.cli import main
from topolab.core import sierpinski
from topolab.verify import Report

from oracles import format_topo


@pytest.fixture
def sierpinski_file(tmp_path):
    path = tmp_path / "sierpinski.topo"
    path.write_text(format_topo(sierpinski()))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_ops_offers_the_core_operators_in_their_order():
    from topolab import cli, core

    assert cli.OPS == tuple(core.OPERATORS)


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


def test_catalog_rejects_a_non_canonical_size(capsys):
    code, _, err = run(capsys, "catalog", "indiscrete-05")
    assert code == 3
    assert err.startswith("error:")


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
    assert err.startswith("error:") and "union" in err


def test_missing_intersection_exit_three(capsys, tmp_path):
    bad = tmp_path / "bad.topo"
    bad.write_text("points 3\nopen 0 1\nopen 1 2\n")
    code, _, err = run(capsys, "check", "--space", str(bad), "--prop", "qhc")
    assert code == 3
    assert err.startswith("error:") and "intersection" in err


@pytest.mark.parametrize("name, content", [
    ("bad.topo", b"points 2\nopen \xff\n"),
    ("bad.skel", b"node n0 card \xff mode antichain block antichain2\n"),
    # superscript two passes str.isdigit but not int()
    ("super.topo", "points \u00b2\n".encode()),
    ("super.skel", "node n0 card \u00b2 mode antichain block antichain2\n".encode()),
    ("elem.skel", ("node n0 card 2 mode antichain block antichain2\n"
                   "node n1 card 1 mode antichain block antichain2\n"
                   "rel n0.e\u00b2 <= n1.e0\n").encode()),
    # more digits than int() converts
    ("long.topo", ("points " + "1" * 5000 + "\n").encode()),
])
def test_unreadable_space_file_exit_three(capsys, tmp_path, name, content):
    bad = tmp_path / name
    bad.write_bytes(content)
    code, out, err = run(capsys, "check", "--space", str(bad), "--prop", "qhc")
    assert code == 3
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert out == ""


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


def test_top_class_properties_of_a_finite_skel_beyond_the_expansion_cap(
        capsys, tmp_path):
    from test_properties import _finite_p_regularity, _scan_simple
    from topolab.skeleton import expand, parse_skel

    # 18 points: decided from class rows, never expanded
    text = ("node n0 card 6 mode antichain block antichain2\n"
            "node n1 card 3 mode antichain block chain2\n"
            "rel n0.e0 <= n1.e1\n")
    skel = tmp_path / "eighteen.skel"
    skel.write_text(text)
    expected = {"t0": "true", "submaximal": "true", "resolvable": "false",
                "irresolvable": "true", "strongly-irresolvable": "true",
                "hyperconnected": "false", "extremally-disconnected": "false",
                "preconnected": "false", "predisconnected": "true",
                "aleph0-ed": "true", "strongly-p-regular": "false",
                "p-regular": "false", "almost-p-regular": "false"}
    for prop, word in expected.items():
        code, out, err = run(capsys, "check", "--space", str(skel), "--prop", prop)
        assert (code, out.strip(), err) == (0, word, ""), prop
    # the same answers by scanning the 14-point realization with n0 at card 4
    fs, _labels = expand(parse_skel(text.replace("card 6", "card 4")))
    for prop in ("submaximal", "extremally-disconnected", "preconnected"):
        assert _scan_simple(fs, prop) is (expected[prop] == "true"), prop
    for prop in ("strongly-p-regular", "p-regular", "almost-p-regular"):
        assert _finite_p_regularity(fs, prop) is (expected[prop] == "true"), prop
    # a cover property still expands the skeleton
    code, out, err = run(capsys, "check", "--space", str(skel),
                         "--prop", "p-closed")
    assert code == 3
    assert err.startswith("error:") and "expansion too large" in err
    assert out == ""


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


@pytest.mark.parametrize("value", ["abc", "", " 3", "+3", "--1", "\u0663", "1_0"])
def test_malformed_topolab_seed_exit_three(monkeypatch, capsys, value):
    monkeypatch.setenv("TOPOLAB_SEED", value)
    code, out, err = run(capsys, "enumerate", "--n", "2", "--count")
    assert code == 3
    assert err.startswith("error: TOPOLAB_SEED") and out == ""


def test_signed_topolab_seed_reaches_verify(monkeypatch, tmp_path, capsys):
    monkeypatch.setenv("TOPOLAB_SEED", "-7")
    path = tmp_path / "r.json"
    code, _out, _err = run(capsys, "verify", "--claims", "T1", "--universe",
                           "exhaustive:2", "--json", str(path))
    assert code == 0
    assert json.loads(path.read_text())["seed"] == -7


SYMBOLIC_SKEL = ("node n0 card omega mode antichain block antichain2\n"
                 "node n1 card 2 mode antichain block antichain2\n")


@pytest.mark.parametrize("text", [
    "3",
    "[1, 2]",
    "null",
    '{"n0": null}',
    '{"n0": [1]}',
    '{"zz": {"e0": 1}}',  # no such node
    '{"n0": {"e0": "inf", "e1": -2}}',
    '{"n1": {"e0": true}}',
    '{"n1": {"e0": 3, "e1": -1}}',  # negative counts balancing to the card
    '{"n1": {"e0": "inf"}}',  # an omega count on a finite node
    '{"n1": {"e0": 1.0}}',
    '{"n1": {"e2": 1}}',
    '{"n1": {"x": 1}}',
    '{"n0": {"e0": "fin?"}}',
    "{",
    b"\xff\xfe",
    pytest.param("[" * 100_000 + "]" * 100_000, id="nested-too-deep"),
    '{"n1": {"1": 1}}',  # element tokens are e<N>, N in ASCII digits
    '{"n1": {"e 1": 1}}',
    '{"n1": {"ee1": 1}}',
    '{"n1": {"e1,ee0": 1}}',
    '{"n1": {"e\u0661": 1}}',  # an Arabic-Indic digit one
])
def test_bad_symbolic_set_exit_three(capsys, tmp_path, text):
    skel = tmp_path / "two.skel"
    skel.write_text(SYMBOLIC_SKEL)
    sset = tmp_path / "bad.json"
    if isinstance(text, bytes):
        sset.write_bytes(text)
    else:
        sset.write_text(text)
    code, out, err = run(capsys, "ops", "--space", str(skel),
                         "--symbolic-set", str(sset), "--op", "cl")
    assert code == 3
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert out == ""


@pytest.mark.parametrize("literal", [
    "\u0661",  # an Arabic-Indic digit one
    " 1",
    "+1",
    "1,,0",
    "2",  # outside the two-point carrier
])
def test_bad_set_literal_exit_three(capsys, literal):
    code, out, err = run(capsys, "ops", "--space", "catalog:sierpinski",
                         "--set", literal, "--op", "cl")
    assert code == 3
    assert err.startswith("error: bad set literal") and len(err.splitlines()) == 1
    assert out == ""


@pytest.mark.parametrize("spec", [
    "exhaustive:\u0663",  # an Arabic-Indic digit three
    "exhaustive: 2",
    "exhaustive:+2",
    "sampled:3:1:\u0661",
    "sampled:3:--1:2",
])
def test_bad_universe_numeral_exit_three(capsys, spec):
    code, out, err = run(capsys, "verify", "--claims", "T1", "--universe", spec)
    assert code == 3
    assert err.startswith("error: bad universe spec") and len(err.splitlines()) == 1
    assert out == ""


def test_sampled_universe_takes_a_negative_seed(capsys):
    from topolab.verify import Universe

    assert Universe.parse("sampled:3:-1:2").seed == -1
    code, _out, err = run(capsys, "verify", "--claims", "T1",
                          "--universe", "sampled:3:-1:2")
    assert (code, err) == (0, "")


@pytest.mark.parametrize("samples", ["-5", "0"])
def test_verify_samples_below_one_exit_three(capsys, samples):
    code, out, err = run(capsys, "verify", "--claims", "T1",
                         "--universe", "exhaustive:2", "--samples", samples)
    assert code == 3
    assert err.startswith("error: --samples must be at least 1")
    assert out == ""
