"""CLI surface: exit codes, output formats, determinism, round trips."""

import json
import time

import pytest

import kummerws as k
from kummerws.cli import main

from conftest import K1, K2

K1_JSON = {"m": 3, "lambdas": [1, 1, -2], "n": 2}
K2_JSON = {"m": 5, "lambdas": [1, 1, 1, -3], "n": 2}


@pytest.fixture
def k1_path(tmp_path):
    path = tmp_path / "k1.json"
    path.write_text(json.dumps(K1_JSON))
    return str(path)


@pytest.fixture
def k2_path(tmp_path):
    path = tmp_path / "k2.json"
    path.write_text(json.dumps(K2_JSON))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_ok(capsys, k1_path):
    code, out, _ = run(capsys, "validate", k1_path)
    assert code == 0
    assert out.strip() == "ok"


def test_validate_bad_sum(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"m": 3, "lambdas": [1, 1, -1], "n": 2}))
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 1
    assert "sum of lambdas must be 0" in out


def test_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "validate", "/nonexistent/profile.json")
    assert code == 2
    assert "cannot read profile" in err


def test_invalid_profile_blocks_other_commands(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"m": 4, "lambdas": [2, 2, -4], "n": 2}))
    code, _, err = run(capsys, "classify", str(path), "--alpha", "1,1")
    assert code == 1
    assert "gcd" in err


def test_classify_member(capsys, k1_path):
    code, out, _ = run(capsys, "classify", k1_path, "--alpha", "1,1")
    assert code == 0
    assert out.strip() == "Member"


def test_classify_gap_with_drops(capsys, k1_path):
    code, out, _ = run(capsys, "classify", k1_path, "--alpha", "1,0")
    assert code == 0
    assert out.strip() == "Gap drops=[1]"


def test_classify_pure_gap(capsys, k2_path):
    code, out, _ = run(capsys, "classify", k2_path, "--alpha", "1,2")
    assert code == 0
    assert out.strip() == "PureGap"


def test_classify_json(capsys, k1_path):
    code, out, _ = run(capsys, "classify", k1_path, "--alpha", "1,0",
                       "--format", "json")
    assert code == 0
    assert json.loads(out) == {"verdict": "Gap", "drops": [1]}


def test_classify_arity_mismatch(capsys, k1_path):
    code, _, err = run(capsys, "classify", k1_path, "--alpha", "1,2,3")
    assert code == 2
    assert "coordinates" in err


def test_maximal_generating_csv(capsys, k1_path):
    code, out, _ = run(capsys, "maximal", k1_path, "--kind", "absolute",
                       "--generating")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "alpha_1,alpha_2,residue_i,j_1,j_2,kind"
    assert lines[1:] == ["1,1,1,0,0,absolute"]


def test_maximal_window_single_point(capsys, k1_path):
    code, out, _ = run(capsys, "maximal", k1_path, "--kind", "absolute",
                       "--window", "0:0,0:0")
    assert code == 0
    rows = out.splitlines()[1:]
    assert rows == ["0,0,m-multiple,0,0,absolute"]


def test_maximal_generating_k2n3_relative(capsys, tmp_path):
    path = tmp_path / "k2n3.json"
    path.write_text(json.dumps({"m": 5, "lambdas": [1, 1, 1, -3], "n": 3}))
    code, out, _ = run(capsys, "maximal", str(path), "--kind", "relative",
                       "--generating")
    assert code == 0
    assert len(out.splitlines()) == 1 + 5


def test_maximal_malformed_window(capsys, k1_path):
    code, _, err = run(capsys, "maximal", k1_path, "--kind", "absolute",
                       "--window", "0:0")
    assert code == 2


def test_maximal_csv_identical_across_thread_counts(capsys, k1_path):
    outputs = []
    for jobs in ("1", "2", "7"):
        code, out, _ = run(capsys, "maximal", k1_path, "--kind", "absolute",
                           "--window=-6:9,-6:9", "--jobs", jobs)
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1] == outputs[2]


def test_maximal_json_format(capsys, k1_path):
    code, out, _ = run(capsys, "maximal", k1_path, "--kind", "absolute",
                       "--generating", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["profile"] == K1_JSON
    assert doc["query"]["kind"] == "absolute"
    assert doc["results"] == [
        {"alpha_1": 1, "alpha_2": 1, "residue_i": 1, "j_1": 0, "j_2": 0,
         "kind": "absolute"}
    ]


def test_count(capsys, k1_path, k2_path):
    code, out, _ = run(capsys, "count", k1_path, "--kind", "absolute")
    assert (code, out.strip()) == (0, "1")
    code, out, _ = run(capsys, "count", k2_path, "--kind", "absolute")
    assert (code, out.strip()) == (0, "4")


def test_blocks(capsys, k2_path):
    code, out, _ = run(capsys, "blocks", k2_path, "--kind", "absolute")
    assert code == 0
    assert out.splitlines() == ["k,count", "0,2", "1,1"]


def test_gaps_and_puregaps(capsys, k2_path):
    code, out, _ = run(capsys, "puregaps", k2_path, "--box", "0:6,0:6")
    assert code == 0
    assert "1,2" in out.splitlines()
    code, out, _ = run(capsys, "gaps", k2_path, "--box", "0:6,0:6")
    assert code == 0
    assert "1,2,PureGap" in out.splitlines()
    assert any(line.endswith(",Gap") for line in out.splitlines()[1:])


def test_semigroup_matches_library(capsys, k1_path):
    code, out, _ = run(capsys, "semigroup", k1_path, "--box", "0:5,0:5")
    assert code == 0
    got = {tuple(map(int, line.split(","))) for line in out.splitlines()[1:]}
    expected = {
        a
        for a in k.Window(((0, 5), (0, 5))).points()
        if k.is_member(a, K1)
    }
    assert got == expected


def test_preset_emits_profile_json(capsys):
    code, out, _ = run(capsys, "preset", "beelen-montanucci", "--q", "2",
                       "--nexp", "3", "--places", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["m"] == 9
    assert doc["lambdas"] == [1, 1, 1, 3, -6]
    assert doc["n"] == 2


def test_preset_round_trip(capsys, tmp_path):
    code, out, _ = run(capsys, "preset", "separable", "--m", "5", "--t", "3",
                       "--places", "2")
    assert code == 0
    path = tmp_path / "k2.json"
    path.write_text(out)
    code, out2, _ = run(capsys, "count", str(path), "--kind", "absolute")
    assert (code, out2.strip()) == (0, str(k.cardinality(
        k.MaximalKind.ABSOLUTE, K2)))


HUGE_PRIME = "1000000000000000003"


@pytest.mark.parametrize("argv, message", [
    (["yns", "--q", "6", "--nexp", "3", "--s", "1", "--places", "2"],
     "prime power"),
    # a huge prime q or p is refused by the place-count cap at once,
    # without trial division up to its square root
    (["yns", "--q", HUGE_PRIME, "--nexp", "3", "--s", "1", "--places", "2"],
     "places"),
    (["beelen-montanucci", "--q", HUGE_PRIME, "--nexp", "3", "--places", "2"],
     "places"),
    (["xabns", "--p", HUGE_PRIME, "--a", "2", "--b", "1", "--nexp", "3",
      "--s", "1", "--places", "2"], "places"),
    # q^nexp and p^a are bounded from bit lengths before they are taken
    (["yns", "--q", "2", "--nexp", "15001", "--s", "1", "--places", "2"], "bits"),
    (["beelen-montanucci", "--q", "2", "--nexp", "15001", "--places", "2"],
     "bits"),
    (["xabns", "--p", "2", "--a", "100000000000", "--b", "1", "--nexp", "3",
      "--s", "1", "--places", "2"], "bits"),
    (["yns", "--q", "2", "--nexp", "3", "--s", "0", "--places", "2"], "s must"),
    (["xabns", "--p", "2", "--a", "2", "--b", "1", "--nexp", "3", "--s", "0",
      "--places", "2"], "s must"),
    # the cap message must not print q*q, here far beyond 4300 digits
    (["yns", "--q", "9" * 3000, "--nexp", "3", "--s", "1", "--places", "2"],
     "places"),
])
def test_preset_bad_parameters(capsys, argv, message):
    start = time.monotonic()
    code, out, err = run(capsys, "preset", *argv)
    assert time.monotonic() - start < 1.0
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and message in err


def test_oracle_agreement(capsys, k1_path):
    code, out, _ = run(capsys, "oracle", k1_path, "--kind", "absolute",
                       "--window=-4:7,-4:7")
    assert code == 0
    doc = json.loads(out)
    assert doc["agree"] is True
    assert doc["points_scanned"] == 144
    assert doc["mismatches"] == []


def test_oracle_budget_env(capsys, k1_path, monkeypatch):
    monkeypatch.setenv("KWSG_BUDGET", "1")
    code, _, err = run(capsys, "oracle", k1_path, "--kind", "absolute",
                       "--window", "0:9,0:9")
    assert code == 3
    assert "budget" in err.lower()


def test_oracle_budget_flag_overrides_env(capsys, k1_path, monkeypatch):
    monkeypatch.setenv("KWSG_BUDGET", "1")
    code, out, _ = run(capsys, "oracle", k1_path, "--kind", "absolute",
                       "--window", "0:5,0:5", "--budget", "100000")
    assert code == 0
    assert json.loads(out)["agree"] is True


def test_stdin_profile(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(K1_JSON)))
    code, out, _ = run(capsys, "count", "-", "--kind", "absolute")
    assert (code, out.strip()) == (0, "1")


def test_maximal_window_and_generating_exclude_each_other(capsys, k1_path):
    with pytest.raises(SystemExit) as exc:
        main(["maximal", k1_path, "--kind", "absolute", "--generating",
              "--window", "0:5,0:5"])
    assert exc.value.code == 2
    assert "not allowed with" in capsys.readouterr().err


K1_FIELDS = '"m": 3, "lambdas": [1, 1, -2], "n": 2'


@pytest.mark.parametrize("text", [
    '{%s, "field": {}}' % K1_FIELDS,
    '{%s, "field": [2, 3]}' % K1_FIELDS,
    '{%s, "field": {"p": 0, "q": 4}}' % K1_FIELDS,
    '{%s, "field": {"p": 2.0, "q": 4}}' % K1_FIELDS,
    '{%s, "field": {"p": 4, "q": 16}}' % K1_FIELDS,
    '{%s, "field": {"p": 4, "q": 6}}' % K1_FIELDS,
    '{%s, "field": {"p": 2, "q": 6}}' % K1_FIELDS,
    '{%s, "field": {"p": 2, "q": 1}}' % K1_FIELDS,
    '{%s, "field": {"p": 100000000000031, "q": 100000000000031}}' % K1_FIELDS,
    '{%s, "labels": 5}' % K1_FIELDS,
    '{%s, "labels": [1, 2, 3]}' % K1_FIELDS,
    '{"m": 1e400, "lambdas": [1, 1, -2], "n": 2}',
    '{"m": 5.7, "lambdas": [1, 1, 1, -3], "n": 2}',
    '{"m": true, "lambdas": [1, 1, -2], "n": 2}',
    '{"m": 3, "lambdas": "111", "n": 2}',
    '{"m": 3, "lambdas": [1, 1, "-2"], "n": 2}',
    '{"m": 3, "lambdas": [1, 1, -2], "n": null}',
    '[3, [1, 1, -2], 2]',
    pytest.param("[" * 200_000 + "]" * 200_000, id="nested-200000-deep"),
])
def test_malformed_profile_exits_cleanly(capsys, monkeypatch, text):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, out, err = run(capsys, "validate", "-")
    assert code in (1, 2)
    assert "error:" in out + err


@pytest.mark.parametrize("argv", [
    ["count", "-", "--kind", "absolute"],
    ["blocks", "-", "--kind", "relative", "--format", "json"],
    ["maximal", "-", "--kind", "absolute", "--window", "0:5,0:5",
     "--format", "json"],
])
def test_table_over_budget_exits_3(capsys, monkeypatch, argv):
    """A beta table of m - 1 > 10^7 residues is refused before it is
    allocated, and before any output is written."""
    import io

    huge = {"m": 100_000_000, "lambdas": [1, 1, -2], "n": 2}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(huge)))
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("command", ["semigroup", "gaps", "puregaps"])
def test_box_over_budget_exits_3(capsys, k1_path, command):
    """A box of more than 10^7 points is refused before any output."""
    code, out, err = run(capsys, command, k1_path,
                         "--box", "0:100000000,0:100000000")
    assert code == 3
    assert out == ""
    assert err.startswith("error:") and "Traceback" not in err


def test_oracle_window_over_budget_exits_3(capsys, k1_path):
    """An oracle window of more than 10^7 points is refused before the
    scan starts, whatever --budget allows per nabla query."""
    start = time.monotonic()
    code, out, err = run(capsys, "oracle", k1_path, "--kind", "absolute",
                         "--window=0:100000,0:100000")
    assert time.monotonic() - start < 1.0
    assert code == 3
    assert out == ""
    assert err.startswith("error:") and "oracle window points" in err
