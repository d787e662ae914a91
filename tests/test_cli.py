"""End-to-end CLI behavior: exit codes, JSON schemas, cache round trips."""

from __future__ import annotations

import json
import logging
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import zerosum.cli as cli
import zerosum.engine as engine
from zerosum import cache
from zerosum.cli import CSV_HEADER, build_parser, main
from zerosum.groups import build_group, parse_group_spec

ROOT = Path(__file__).resolve().parents[1]

DAVENPORT_KEYS = {"schema_version", "group", "davenport", "max_free_length",
                  "witness", "nodes", "millis"}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def validate(kind, payload):
    """Check ``payload`` against ``$defs[kind]`` of the shipped schema."""
    jsonschema = pytest.importorskip("jsonschema")
    schema_doc = json.loads((ROOT / "docs" / "output-schema.json").read_text())
    jsonschema.validate(
        payload, {"$ref": f"#/$defs/{kind}", "$defs": schema_doc["$defs"]})


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


def test_cache_record_is_a_named_tuple():
    assert cache.CacheRecord._fields == (
        "schema_version", "group_spec", "kind", "payload", "content_hash",
        "algorithm_version")
    assert cache.CacheRecord._field_defaults == {
        "algorithm_version": cache.ALGORITHM_VERSION}
    rec = cache.make_record("davenport", "C:4", {"davenport": 4})
    assert rec == cache.CacheRecord(
        schema_version=cache.SCHEMA_VERSION, group_spec="C:4", kind="davenport",
        payload={"davenport": 4}, content_hash=cache.payload_hash({"davenport": 4}))
    assert rec.algorithm_version == cache.ALGORITHM_VERSION
    assert rec._replace(algorithm_version=1).algorithm_version == 1
    with pytest.raises(AttributeError):
        rec.kind = "extremal"


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


@pytest.mark.parametrize("stale", [3, 4, 5, None])
def test_outdated_algorithm_version_is_recomputed(tmp_path, capsys, stale):
    """A record from an earlier algorithm version (None: written before
    records carried one) is ignored with a warning, recomputed and
    overwritten; the fresh record is a hit, and report skips an outdated
    one."""
    payload = {"group": "D:5", "davenport": 99, "max_free_length": 98,
               "witness": "[y]", "nodes": 1, "millis": 0.1}
    path = cache.store(tmp_path, cache.CacheRecord(
        cache.SCHEMA_VERSION, "D:5", "davenport", payload,
        cache.payload_hash(payload), stale or cache.ALGORITHM_VERSION - 1))
    if stale is None:
        raw = json.loads(path.read_text())
        del raw["algorithm_version"]
        path.write_text(json.dumps(raw) + "\n")
    with pytest.warns(cache.CacheWarning, match="outdated"):
        assert cache.lookup(tmp_path, "davenport", "D:5") is None
    with pytest.warns(cache.CacheWarning, match="outdated"):
        code, out, _ = run(capsys, "report", "--format", "json",
                           "--cache-dir", str(tmp_path))
    assert code == 0 and out.strip() == "no results in cache"
    with pytest.warns(cache.CacheWarning, match="outdated"):
        code, out, err = run(capsys, "davenport", "--group", "D:5", "--json",
                             "--cache-dir", str(tmp_path))
    assert code == 0 and "cache hit" not in err
    first = json.loads(out)
    assert first["davenport"] == 6 and first["nodes"] > 0
    assert json.loads(path.read_text())["algorithm_version"] == (
        cache.ALGORITHM_VERSION)
    with warnings.catch_warnings():
        warnings.simplefilter("error", cache.CacheWarning)
        code, out, err = run(capsys, "davenport", "--group", "D:5", "--json",
                             "--cache-dir", str(tmp_path))
    assert code == 0 and "cache hit" in err
    assert json.loads(out) == dict(first, nodes=0, millis=0.0)


def test_record_filed_under_another_key_is_recomputed(tmp_path, capsys):
    """A record copied to the file name of another group or kind is not
    served: lookup warns and misses, and davenport recomputes D(D_12) = 7
    and overwrites the copy with its own record."""
    run(capsys, "davenport", "--group", "D:5", "--cache-dir", str(tmp_path))
    source = cache.record_path(tmp_path, "davenport", "D:5")
    path = cache.record_path(tmp_path, "davenport", "D:6")
    assert path.name == "davenport-D_6-v1.json"
    path.write_bytes(source.read_bytes())
    with pytest.warns(cache.CacheWarning,
                      match="holds davenport D:5, not davenport D:6"):
        assert cache.lookup(tmp_path, "davenport", "D:6") is None
    with pytest.warns(cache.CacheWarning, match="holds davenport D:5"):
        code, out, err = run(capsys, "davenport", "--group", "D:6", "--json",
                             "--cache-dir", str(tmp_path))
    assert code == 0 and "cache hit" not in err
    assert json.loads(out)["davenport"] == 7
    assert json.loads(path.read_text())["group_spec"] == "D:6"

    other_kind = cache.record_path(tmp_path, "extremal", "D:5")
    other_kind.write_bytes(source.read_bytes())
    with pytest.warns(cache.CacheWarning,
                      match="holds davenport D:5, not extremal D:5"):
        assert cache.lookup(tmp_path, "extremal", "D:5") is None


def test_report_skips_a_record_filed_under_another_key(tmp_path, capsys):
    """report reads a record only at its own file name: a copy of the D:5
    record filed as D:6 is skipped with a warning, so D:5 keeps one row and
    its own node count, not twice it."""
    run(capsys, "davenport", "--group", "D:5", "--cache-dir", str(tmp_path))
    code, want, _ = run(capsys, "report", "--format", "csv",
                        "--cache-dir", str(tmp_path))
    assert code == 0 and len(want.strip().splitlines()) == 2
    source = cache.record_path(tmp_path, "davenport", "D:5")
    copy = cache.record_path(tmp_path, "davenport", "D:6")
    copy.write_bytes(source.read_bytes())
    with pytest.warns(cache.CacheWarning,
                      match="holds davenport D:5, which is filed as "
                            "davenport-D_5-v1.json"):
        code, out, _ = run(capsys, "report", "--format", "csv",
                           "--cache-dir", str(tmp_path))
    assert code == 0 and out == want


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


def test_reach_with_no_targets_exits_2(capsys):
    code, out, err = run(capsys, "reach", "--group", "D:3", "--seq", "[x]",
                         "--targets", "[]")
    assert code == 2 and out == ""
    assert err == "error: the target set must be nonempty\n"


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
    ("davenport", "--group", "C:--5"),
    ("verify", "--target", "minzero", "--param", "group=C:--2", "--no-cache"),
    ("reach", "--group", "D:5", "--seq", "[y^--2]"),
    ("reach", "--group", "D:5", "--seq", "[y^\u00b2]"),
])
def test_integers_int_refuses_exit_2(argv, capsys):
    code, _, err = run(capsys, *argv)
    assert code == 2 and "invalid" in err and "internal error" not in err


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
    # with --json, one object on stdout carries the best length and nodes
    code, out, json_err = run(capsys, "davenport", "--group", "D:8", "--budget",
                              "3", "--cache-dir", str(tmp_path), "--json")
    data = json.loads(out)
    validate("budget_exhausted", data)
    assert (code, json_err) == (3, err)
    assert data["message"] == err.removeprefix("error: ").rstrip("\n")
    assert data["best_length"] == 8 and data["nodes"] > 0
    assert cache.lookup(tmp_path, "davenport", "D:8") is None


def test_extremal_budget_exhaustion_exit_3(tmp_path, capsys):
    """The one search pass reports the best length it found, and nothing
    is cached."""
    code, out, err = run(capsys, "extremal", "--group", "D:8", "--budget", "5",
                         "--cache-dir", str(tmp_path))
    assert (code, out) == (3, "")
    assert err == ("error: node budget exhausted while enumerating the "
                   "extremal sequences of D:8: D(D:8) unknown above length 8\n")
    assert cache.lookup(tmp_path, "extremal", "D:8") is None
    code, out, _ = run(capsys, "extremal", "--group", "D:8", "--budget", "5",
                       "--cache-dir", str(tmp_path), "--json")
    data = json.loads(out)
    validate("budget_exhausted", data)
    assert code == 3 and data["error"] == "budget_exhausted"
    assert data["message"] == err.removeprefix("error: ").rstrip("\n")
    assert data["best_length"] == 8 and data["nodes"] > 0
    assert cache.lookup(tmp_path, "extremal", "D:8") is None


def test_groups_are_built_once_per_spec(capsys, monkeypatch):
    """Cold commands on one group, however its spec is written, share one
    Group, without its kernel contexts between commands; every command on
    a group above MEMO_ORDER_LIMIT builds its own."""
    built = []

    def counting_build(spec):
        built.append(str(spec))
        return build_group(spec)

    cli._kept_group.cache_clear()
    monkeypatch.setattr(cli, "build_group", counting_build)
    for argv in (["davenport", "--group", "D:7", "--no-cache"],
                 ["extremal", "--group", " D:07", "--no-cache"],
                 ["verify", "--target", "dihedral", "--param", "n=7",
                  "--no-cache"],
                 ["free", "check", "--group", "D:7", "--seq", "[y]"],
                 ["group", "info", "--group", "C:257"],
                 ["group", "info", "--group", "C:257"]):
        code, _, _ = run(capsys, *argv)
        assert code == 0, argv
    assert cli.MEMO_ORDER_LIMIT == 256
    assert built == ["D:7", "C:257", "C:257"]
    kept = cli._kept_group(parse_group_spec("D:7"))
    assert kept.orbit_roots and not kept._contexts
    cli._kept_group.cache_clear()


def test_unexpected_error_exit_4(monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise RuntimeError("synthetic fault")

    monkeypatch.setattr(cli, "max_free_length", boom)
    code, _, err = run(capsys, "davenport", "--group", "D:4", "--no-cache")
    assert code == 4
    assert err == "internal error: RuntimeError: synthetic fault\n"


def test_unexpected_error_logs_its_traceback(monkeypatch, capsys, caplog):
    """The internal-error path, which imports logging only when it runs,
    logs the traceback at debug level to the zerosum.cli logger."""
    def boom(*args, **kwargs):
        raise RuntimeError("synthetic fault")

    monkeypatch.setattr(cli, "max_free_length", boom)
    with caplog.at_level(logging.DEBUG, logger="zerosum.cli"):
        code, _, _ = run(capsys, "davenport", "--group", "D:4", "--no-cache")
    assert code == 4
    [record] = [r for r in caplog.records if r.name == "zerosum.cli"]
    assert record.levelno == logging.DEBUG
    assert record.getMessage() == "internal error"
    assert record.exc_info[0] is RuntimeError
    assert str(record.exc_info[1]) == "synthetic fault"


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


# The weighted payloads of the unbudgeted check, millis aside.
WEIGHTED_PAYLOADS = {
    5: {"details": {"multisets_checked": 35, "n": 5, "s": 3,
                    "tightness_counterexample": "(1, 2)",
                    "tightness_probe_s": 2, "tuple_count": 125},
        "enumerated_count": 35, "extra": [], "group": "C:5", "missing": [],
        "nodes": 0, "predicted_count": 35, "schema_version": 1,
        "target": "weighted", "verdict": "exact-match"},
    8: {"details": {"multisets_checked": 330, "n": 8, "s": 4,
                    "tightness_counterexample": "(1, 2, 4)",
                    "tightness_probe_s": 3, "tuple_count": 4096},
        "enumerated_count": 330, "extra": [], "group": "C:8", "missing": [],
        "nodes": 0, "predicted_count": 330, "schema_version": 1,
        "target": "weighted", "verdict": "exact-match"},
}


def test_verify_weighted_budget(capsys):
    """The C(n + s - 1, s) multisets are counted before any is checked: n=64
    (1,198,774,720 of them) exits 3 at once under the default budget, and a
    budget just below n=8's 330 refuses it too."""
    for n, payload in WEIGHTED_PAYLOADS.items():
        code, out, _ = run(capsys, "verify", "--target", "weighted", "--param",
                           f"n={n}", "--no-cache", "--json")
        assert code == 0
        data = json.loads(out)
        data.pop("millis")
        assert data == payload
    code, _, err = run(capsys, "verify", "--target", "weighted", "--param",
                       "n=64", "--no-cache")
    assert code == 3 and "1198774720 multisets" in err
    code, _, err = run(capsys, "verify", "--target", "weighted", "--param",
                       "n=8", "--no-cache", "--budget", "329")
    assert code == 3 and "budget 329" in err
    code, out, _ = run(capsys, "verify", "--target", "weighted", "--param",
                       "n=8", "--no-cache", "--budget", "329", "--json")
    data = json.loads(out)
    validate("budget_exhausted", data)
    assert code == 3 and "budget 329" in data["message"]
    assert (data["best_length"], data["nodes"]) == (0, 0)
    code, _, _ = run(capsys, "verify", "--target", "weighted", "--param",
                     "n=8", "--no-cache", "--budget", "330", "--json")
    assert code == 0


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


def test_report_extremal_count_from_extremal_sets_only(tmp_path, capsys):
    """minzero and weighted records count other multisets: they leave
    extremal_count empty, which an extremal record then fills."""
    def rows():
        _, out, _ = run(capsys, "report", "--format", "json",
                        "--cache-dir", str(tmp_path))
        return {r["group"]: r for r in json.loads(out)["rows"]}

    run(capsys, "verify", "--target", "minzero", "--param", "group=CxC:2,4",
        "--cache-dir", str(tmp_path))
    run(capsys, "verify", "--target", "weighted", "--param", "n=5",
        "--cache-dir", str(tmp_path))
    got = rows()
    assert set(got) == {"CxC:2,4", "C:5"}
    assert got["CxC:2,4"]["extremal_count"] == ""
    assert got["C:5"]["extremal_count"] == ""

    run(capsys, "extremal", "--group", "CxC:2,4", "--cache-dir", str(tmp_path))
    assert rows()["CxC:2,4"]["extremal_count"] == 24


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


def test_cyclic_structure_rechecks_no_shape(capsys, monkeypatch):
    """Every multiset the Savchev-Chen theorem predicts for C_30 is free
    (its coefficients of the generator g sum to less than n), so the
    complete enumeration holds them all and none is re-checked by
    reachability.  Their count at the 14 lengths 16 .. 29 is 10,104."""
    calls = []
    real = engine._run_reachable

    def spy(group, seq, until_mask):
        calls.append(seq)
        return real(group, seq, until_mask)

    monkeypatch.setattr(engine, "_run_reachable", spy)
    code, out, _ = run(capsys, "verify", "--target", "cyclic-structure",
                       "--param", "n=30", "--no-cache", "--json")
    payload = json.loads(out)
    assert code == 0 and payload["verdict"] == "exact-match"
    assert payload["predicted_count"] == payload["enumerated_count"] == 10104
    assert calls == []


def test_cyclic_structure_failure_exits_1_with_a_valid_payload(capsys,
                                                               monkeypatch):
    """The payload validates against the shipped schema, as an exact match
    and as a failure: an enumerated multiset outside the theorem (one that
    holds the identity) makes the verdict failure and the exit code 1."""
    argv = ("verify", "--target", "cyclic-structure", "--param", "n=7",
            "--no-cache", "--json")
    code, out, _ = run(capsys, *argv)
    payload = json.loads(out)
    assert code == 0 and payload["verdict"] == "exact-match"
    validate("verify", payload)
    real = engine.enumerate_free

    def padded(group, length, *, budget):
        res = real(group, length, budget=budget)
        if length == 6:
            res["found"] = res["found"] + [(0,) + (1,) * 5]
        return res

    monkeypatch.setattr(engine, "enumerate_free", padded)
    code, out, _ = run(capsys, *argv)
    payload = json.loads(out)
    assert code == 1 and payload["verdict"] == "failure"
    assert payload["enumerated_count"] == payload["predicted_count"] + 1
    assert len(payload["missing"]) == 1
    assert payload["missing"][0].startswith(
        "not of the Savchev-Chen form at length 6: ")
    validate("verify", payload)


def test_json_outputs_validate_against_shipped_schema(tmp_path, capsys):
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


def _without_millis(text):
    """Command output with every (timing-dependent) ``millis`` value dropped."""
    try:
        data = json.loads(text)
    except ValueError:
        return text
    for obj in [data, *data.get("rows", [])]:
        obj.pop("millis", None)
    return data


def test_parser_is_built_once_and_reused(tmp_path, capsys):
    runs = [
        ("group", "info", "--group", "Q:2", "--json"),
        ("free", "check", "--group", "D:5", "--seq", "[y,y,y,y,x*y^2]"),
        ("reach", "--group", "Q:3", "--seq", "[y, y, y]", "--targets", "[1, y^3]"),
        ("davenport", "--group", "D:5", "--json", "--cache-dir", "{cache}"),
        ("extremal", "--limit", "2", "--cache-dir", "{cache}"),  # no --group
        ("extremal", "--group", "D:4", "--json", "--limit", "2",
         "--cache-dir", "{cache}"),
        ("verify", "--target", "dihedral", "--param", "n=4", "--json",
         "--cache-dir", "{cache}"),
        ("verify", "--target", "dihedral", "--cache-dir", "{cache}"),  # no n=
        ("davenport", "--group", "D:5", "--json", "--cache-dir", "{cache}"),
        ("report", "--format", "json", "--cache-dir", "{cache}"),
    ]

    def outputs(cache_dir, fresh):
        got = []
        for argv in runs:
            if fresh:
                build_parser.cache_clear()
            try:
                code = main([a.replace("{cache}", str(cache_dir)) for a in argv])
            except SystemExit as exc:
                code = ("SystemExit", exc.code)
            out = capsys.readouterr()
            got.append((code, _without_millis(out.out),
                        out.err.replace(str(cache_dir), "{cache}")))
        return got

    assert build_parser() is build_parser()
    reused = outputs(tmp_path / "reused", fresh=False)
    assert build_parser() is build_parser()
    fresh = outputs(tmp_path / "fresh", fresh=True)
    assert reused == fresh
    codes = [code for code, _, _ in reused]
    assert codes == [0, 0, 0, 0, ("SystemExit", 2), 0, 0, 2, 0, 0]
    assert "cache hit for davenport D:5" in reused[-2][2]


def test_warm_hits_build_no_group(tmp_path, capsys, monkeypatch):
    cold = {}
    for command in ("davenport", "extremal"):
        code, out, _ = run(capsys, command, "--group", "D:5", "--json",
                           "--cache-dir", str(tmp_path))
        assert code == 0
        cold[command] = json.loads(out)

    def no_build(*args, **kwargs):
        raise RuntimeError("build_group called")

    # The process keeps the groups it built; forget them, so that a cold
    # call below must build its group.
    cli._kept_group.cache_clear()
    monkeypatch.setattr(cli, "build_group", no_build)
    for command, first in cold.items():
        for spec in ("D:5", " D:05"):  # the key is the canonical spec
            code, out, err = run(capsys, command, "--group", spec, "--json",
                                 "--cache-dir", str(tmp_path))
            assert code == 0
            assert err == f"cache hit for {command} D:5\n"
            assert json.loads(out) == dict(first, nodes=0, millis=0.0)
    # the patch is in effect: a cold call goes through it and fails
    code, _, err = run(capsys, "davenport", "--group", "D:6", "--json",
                       "--cache-dir", str(tmp_path))
    assert code == 4 and "build_group called" in err


def test_verify_cache_keys_are_canonical(tmp_path, capsys):
    verify = ("verify", "--json", "--cache-dir", str(tmp_path), "--target")
    code, out, _ = run(capsys, *verify, "dihedral", "--param", "n=5")
    assert code == 0
    nodes = json.loads(out)["nodes"]
    assert nodes > 0
    code, out, err = run(capsys, *verify, "dihedral", "--param", "n=05")
    assert code == 0 and "cache hit for verify dihedral:n=5" in err
    code, _, err = run(capsys, *verify, "dihedral", "--param", "n=5",
                       "--param", "extra=1")
    assert code == 2 and "extra" in err
    code, out, _ = run(capsys, "report", "--format", "json",
                       "--cache-dir", str(tmp_path))
    rows = json.loads(out)["rows"]
    assert [(r["group"], r["nodes"]) for r in rows] == [("D:5", nodes)]

    # canonical input keeps its old key, so existing caches keep hitting
    code, _, _ = run(capsys, *verify, "metacyclic", "--param", "s=2",
                     "--param", "q=03", "--param", "m=2")
    assert code == 0
    assert cache.lookup(tmp_path, "verify", "metacyclic:m=2,q=3,s=2") is not None
    code, _, _ = run(capsys, *verify, "minzero", "--param", "group=CxC:2,4")
    assert code == 0
    code, _, err = run(capsys, *verify, "minzero", "--param", "group= CxC:02, 4")
    assert code == 0 and "cache hit for verify minzero:group=CxC:2,4" in err
    code, _, err = run(capsys, *verify, "minzero", "--param", "group=X:4")
    assert code == 2 and "X" in err


def test_verify_refuses_a_repeated_param(tmp_path, capsys):
    """A key given twice is refused, not read as its last value, and no
    record is stored under either value."""
    code, _, err = run(capsys, "verify", "--target", "dihedral", "--param",
                       "n=3", "--param", "n=4", "--cache-dir", str(tmp_path))
    assert code == 2 and "--param n=... is given more than once" in err
    for n in (3, 4):
        assert cache.lookup(tmp_path, "verify", f"dihedral:n={n}") is None


def test_verify_millis_is_rounded_as_davenport_and_extremal(capsys):
    """Every command rounds millis to three places."""
    for argv in (("davenport", "--group", "D:5"), ("extremal", "--group", "D:5"),
                 ("verify", "--target", "dihedral", "--param", "n=5")):
        code, out, _ = run(capsys, *argv, "--json", "--no-cache")
        millis = json.loads(out)["millis"]
        assert code == 0 and millis == round(millis, 3), argv


def test_module_entry_point():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), ZEROSUM_PURE_KERNEL="1")
    proc = subprocess.run(
        [sys.executable, "-m", "zerosum.cli", "davenport", "--group", "D:5",
         "--json", "--no-cache"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    assert proc.returncode == 0, proc.stderr
    assert '"davenport": 6' in proc.stdout
