"""End-to-end CLI behavior: exit codes, JSON schemas, cache round trips."""

from __future__ import annotations

import json

import pytest

import zerosum.cli as cli
from zerosum import cache
from zerosum.cli import CSV_HEADER, main

DAVENPORT_KEYS = {"schema_version", "group", "davenport", "max_free_length",
                  "witness", "nodes", "millis"}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_davenport_json_schema(tmp_path, capsys):
    code, out, _ = run(capsys, "davenport", "--group", "Q:3", "--json",
                       "--cache-dir", str(tmp_path))
    assert code == 0
    data = json.loads(out)
    assert set(data) == DAVENPORT_KEYS
    assert data["davenport"] == 7
    assert data["group"] == "Q:3"
    assert data["nodes"] > 0


def test_davenport_cache_hit_reports_zero_nodes(tmp_path, capsys):
    run(capsys, "davenport", "--group", "D:8", "--cache-dir", str(tmp_path))
    code, out, err = run(capsys, "davenport", "--group", "D:8", "--json",
                         "--cache-dir", str(tmp_path))
    assert code == 0
    data = json.loads(out)
    assert data["nodes"] == 0 and data["millis"] == 0.0
    assert data["davenport"] == 9
    assert "cache hit" in err


def test_verify_cache_hit_reports_zero_nodes(tmp_path, capsys):
    argv = ("verify", "--target", "dihedral", "--param", "n=4", "--json",
            "--cache-dir", str(tmp_path))
    code, out, _ = run(capsys, *argv)
    first = json.loads(out)
    assert code == 0 and first["nodes"] > 0
    code, out, err = run(capsys, *argv)
    hit = json.loads(out)
    assert code == 0
    assert hit["nodes"] == 0 and hit["millis"] == 0.0
    assert "cache hit for verify dihedral:n=4" in err
    assert set(hit) == set(first)
    same = {k: v for k, v in first.items() if k not in ("nodes", "millis")}
    assert {k: hit[k] for k in same} == same
    # the stored record keeps the counts of the run that computed it
    assert cache.lookup(tmp_path, "verify", "dihedral:n=4")["nodes"] == first["nodes"]


def test_cache_round_trip_and_tampering(tmp_path, capsys):
    run(capsys, "davenport", "--group", "D:5", "--cache-dir", str(tmp_path))
    payload1 = cache.lookup(tmp_path, "davenport", "D:5")
    payload2 = cache.lookup(tmp_path, "davenport", "D:5")
    assert payload1 == payload2 and payload1["davenport"] == 6
    # byte-identical storage line
    path = cache.record_path(tmp_path, "davenport", "D:5")
    line1 = path.read_bytes()
    cache.store(tmp_path, cache.make_record("davenport", "D:5", payload1))
    assert path.read_bytes() == line1

    # tampering is detected, warned about, and recomputed
    raw = json.loads(path.read_text())
    raw["payload"]["davenport"] = 99
    path.write_text(json.dumps(raw) + "\n")
    with pytest.warns(cache.CacheWarning, match="hash"):
        assert cache.lookup(tmp_path, "davenport", "D:5") is None
    with pytest.warns(cache.CacheWarning, match="hash"):
        code, out, _ = run(capsys, "davenport", "--group", "D:5", "--json",
                           "--cache-dir", str(tmp_path))
    assert code == 0
    assert json.loads(out)["davenport"] == 6


def test_load_all_skips_tampered_record(tmp_path, capsys):
    for spec in ("C:4", "D:5"):
        run(capsys, "davenport", "--group", spec, "--cache-dir", str(tmp_path))
    path = cache.record_path(tmp_path, "davenport", "D:5")
    raw = json.loads(path.read_text())
    raw["payload"]["davenport"] = 99
    path.write_text(json.dumps(raw) + "\n")
    (tmp_path / "stray.json").write_text("[1]\n")  # JSON, but no record
    with pytest.warns(cache.CacheWarning) as caught:
        records = cache.load_all(tmp_path)
    messages = sorted(str(w.message) for w in caught)
    assert len(messages) == 2
    assert "hash" in messages[0] and "unreadable" in messages[1]
    assert [(r.kind, r.group_spec) for r in records] == [("davenport", "C:4")]
    with pytest.warns(cache.CacheWarning):
        code, out, _ = run(capsys, "report", "--format", "json",
                           "--cache-dir", str(tmp_path))
    assert code == 0
    assert [r["group"] for r in json.loads(out)["rows"]] == ["C:4"]


def test_schema_version_bump_invalidates(tmp_path):
    payload = {"group": "C:4", "davenport": 4, "max_free_length": 3,
               "witness": "[y, y, y]", "nodes": 1, "millis": 0.1}
    rec = cache.CacheRecord(cache.SCHEMA_VERSION - 1, "C:4", "davenport",
                            payload, cache.payload_hash(payload))
    path = cache.store(tmp_path, rec)
    assert path.exists()
    # the old-version record has a different key, so a current lookup misses
    assert cache.lookup(tmp_path, "davenport", "C:4") is None


def test_free_check_examples(tmp_path, capsys):
    code, out, _ = run(capsys, "free", "check", "--group", "D:5",
                       "--seq", "[y,y,y,y,x*y^2]")
    assert code == 0 and out.strip() == "free: true"
    code, out, _ = run(capsys, "free", "check", "--group", "C:4",
                       "--seq", "[y,y^3]")
    assert code == 0 and out.strip() == "free: false"


def test_free_check_seq_file(tmp_path, capsys):
    f = tmp_path / "seqs.txt"
    f.write_text("[y, y]\n[y, y^3]\n\n")
    code, out, _ = run(capsys, "free", "check", "--group", "C:4",
                       "--seq-file", str(f), "--json")
    assert code == 0
    data = json.loads(out)
    assert [r["free"] for r in data["results"]] == [True, False]


def test_reach_command(capsys):
    code, out, _ = run(capsys, "reach", "--group", "Q:3",
                       "--seq", "[y, y, y]", "--targets", "[1, y^3]")
    assert code == 0
    assert "hits targets: true" in out
    code, out, _ = run(capsys, "reach", "--group", "D:3", "--seq", "[x, x*y]",
                       "--json")
    data = json.loads(out)
    assert sorted(data["reachable"]) == ["x", "x*y", "y", "y^2"]


def test_group_info(capsys):
    code, out, _ = run(capsys, "group", "info", "--group", "Q:2")
    assert code == 0
    assert "order 8" in out
    assert "(= -e)" in out  # quaternion naming appears for Q_8
    code, out, _ = run(capsys, "group", "info", "--group", "CxC:2,4", "--json")
    data = json.loads(out)
    assert data["order"] == 8 and data["abelian"] is True


def test_usage_errors_exit_2(capsys):
    code, _, err = run(capsys, "davenport", "--group", "X:5")
    assert code == 2 and "X" in err
    code, _, err = run(capsys, "free", "check", "--group", "C:4")
    assert code == 2  # neither --seq nor --seq-file
    with pytest.raises(SystemExit) as exc:
        main(["davenport"])  # missing --group
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ("group", "info", "--group", "M:1000000007,2,3"),
    ("verify", "--target", "metacyclic", "--param", "q=1000000007",
     "--param", "m=2", "--param", "s=3", "--no-cache"),
])
def test_huge_metacyclic_spec_hits_table_limit(argv, capsys):
    # Refused by order before the primality and ord_q(s) checks, which are
    # linear in q and would run for minutes here.
    code, _, err = run(capsys, *argv)
    assert code == 2 and "table limit" in err


@pytest.mark.parametrize("flag, value", [("--limit", "-1"), ("--budget", "0"),
                                         ("--budget", "-5"), ("--limit", "x")])
def test_out_of_range_flag_values_exit_2(flag, value, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["extremal", "--group", "D:4", "--no-cache", flag, value])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err


def test_budget_exhaustion_exit_3(tmp_path, capsys):
    code, _, err = run(capsys, "davenport", "--group", "D:8", "--budget", "3",
                       "--cache-dir", str(tmp_path))
    assert code == 3
    assert "unknown above" in err
    # nothing cached for the failed run
    assert cache.lookup(tmp_path, "davenport", "D:8") is None


def test_unexpected_error_exit_4(monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise RuntimeError("synthetic fault")

    monkeypatch.setattr(cli, "max_free_length", boom)
    code, _, err = run(capsys, "davenport", "--group", "D:4", "--no-cache")
    assert code == 4
    assert err == "internal error: RuntimeError: synthetic fault\n"


def test_verify_exit_codes(tmp_path, capsys):
    code, out, _ = run(capsys, "verify", "--target", "dihedral", "--param",
                       "n=5", "--cache-dir", str(tmp_path), "--json")
    assert code == 0
    assert json.loads(out)["verdict"] == "exact-match"
    # documented discrepancy still exits 0
    code, out, _ = run(capsys, "verify", "--target", "dicyclic", "--param",
                       "n=3", "--cache-dir", str(tmp_path), "--json")
    assert code == 0
    assert json.loads(out)["verdict"] == "documented-discrepancy"
    # a failure verdict (cached synthetic record) exits 1
    payload = {"target": "dihedral", "group": "D:9", "enumerated_count": 0,
               "predicted_count": 1, "missing": ["[y]"], "extra": [],
               "verdict": "failure", "details": {}, "nodes": 0, "millis": 0.0}
    cache.store(tmp_path, cache.make_record("verify", "dihedral:n=9", payload))
    code, _, _ = run(capsys, "verify", "--target", "dihedral", "--param",
                     "n=9", "--cache-dir", str(tmp_path))
    assert code == 1


def test_verify_weighted_and_minzero(tmp_path, capsys):
    code, out, _ = run(capsys, "verify", "--target", "weighted", "--param",
                       "n=8", "--no-cache", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["details"]["tightness_counterexample"] == "(1, 2, 4)"
    code, out, _ = run(capsys, "verify", "--target", "minzero", "--param",
                       "group=CxC:2,4", "--no-cache", "--json")
    assert code == 0
    code, _, err = run(capsys, "verify", "--target", "minzero", "--no-cache")
    assert code == 2 and "group=" in err


def test_report_empty_and_rows(tmp_path, capsys):
    code, out, _ = run(capsys, "report", "--cache-dir", str(tmp_path))
    assert code == 0 and "no results" in out

    for n in range(4, 7):
        run(capsys, "davenport", "--group", f"D:{n}", "--cache-dir", str(tmp_path))
    run(capsys, "extremal", "--group", "D:4", "--cache-dir", str(tmp_path))
    run(capsys, "verify", "--target", "dihedral", "--param", "n=4",
        "--cache-dir", str(tmp_path))

    code, out, _ = run(capsys, "report", "--format", "csv",
                       "--cache-dir", str(tmp_path))
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == ",".join(CSV_HEADER)
    assert len(lines) == 4  # D:4, D:5, D:6
    d4 = [ln for ln in lines if ln.startswith("D:4,")][0]
    fields = d4.split(",")
    assert fields[1] == "5"      # davenport
    assert fields[2] == "8"      # extremal count
    assert fields[3] == "exact-match"

    code, out, _ = run(capsys, "report", "--format", "json",
                       "--cache-dir", str(tmp_path))
    rows = json.loads(out)["rows"]
    assert [r["group"] for r in rows] == ["D:4", "D:5", "D:6"]


def test_extremal_command(tmp_path, capsys):
    code, out, _ = run(capsys, "extremal", "--group", "D:2", "--json",
                       "--cache-dir", str(tmp_path))
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 3
    assert set(data["sequences"]) == {"[y, x]", "[y, x*y]", "[x, x*y]"}
    code, out, _ = run(capsys, "extremal", "--group", "D:4", "--limit", "2",
                       "--cache-dir", str(tmp_path))
    assert code == 0
    assert "... (6 more)" in out


def test_cache_dir_env_override(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(cache.ENV_CACHE_DIR, str(tmp_path / "envcache"))
    run(capsys, "davenport", "--group", "C:5")
    assert cache.lookup(tmp_path / "envcache", "davenport", "C:5") is not None


def test_verify_cyclic_and_structure_targets(capsys):
    code, out, _ = run(capsys, "verify", "--target", "cyclic", "--param",
                       "n=7", "--no-cache", "--json")
    assert code == 0 and json.loads(out)["verdict"] == "exact-match"
    code, out, _ = run(capsys, "verify", "--target", "cyclic-structure",
                       "--param", "n=9", "--no-cache", "--json")
    assert code == 0 and json.loads(out)["verdict"] == "exact-match"
    code, out, _ = run(capsys, "verify", "--target", "metacyclic", "--param",
                       "q=5", "--param", "m=2", "--param", "s=4",
                       "--no-cache", "--json")
    assert code == 0 and json.loads(out)["verdict"] == "exact-match"


def test_json_outputs_validate_against_shipped_schema(tmp_path, capsys):
    jsonschema = pytest.importorskip("jsonschema")
    from pathlib import Path
    schema_doc = json.loads(
        (Path(__file__).resolve().parent.parent / "docs" /
         "output-schema.json").read_text())

    def validate(kind, payload):
        jsonschema.validate(
            payload, {"$ref": f"#/$defs/{kind}", "$defs": schema_doc["$defs"]})

    _, out, _ = run(capsys, "davenport", "--group", "D:6", "--json",
                    "--cache-dir", str(tmp_path))
    validate("davenport", json.loads(out))
    _, out, _ = run(capsys, "extremal", "--group", "D:6", "--json",
                    "--cache-dir", str(tmp_path))
    validate("extremal", json.loads(out))
    _, out, _ = run(capsys, "verify", "--target", "dihedral", "--param", "n=6",
                    "--json", "--cache-dir", str(tmp_path))
    validate("verify", json.loads(out))
    _, out, _ = run(capsys, "free", "check", "--group", "D:6",
                    "--seq", "[y, x]", "--json")
    validate("free_check", json.loads(out))
    _, out, _ = run(capsys, "reach", "--group", "D:6", "--seq", "[y, x]",
                    "--json")
    validate("reach", json.loads(out))
    _, out, _ = run(capsys, "group", "info", "--group", "Q:2", "--json")
    validate("group_info", json.loads(out))
    _, out, _ = run(capsys, "report", "--format", "json",
                    "--cache-dir", str(tmp_path))
    validate("report", json.loads(out))
    # the cache record envelope itself
    rec = json.loads(cache.record_path(tmp_path, "davenport", "D:6").read_text())
    validate("cache_record", rec)
