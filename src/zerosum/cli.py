"""Command-line front end.

Subcommands: ``group info``, ``free check``, ``reach``, ``davenport``,
``extremal``, ``verify``, ``report``.  Exit codes: 0 success (including
documented discrepancies), 1 verification failure, 2 usage error, 3 node
budget exhausted (with ``--json``, also one ``budget_exhausted`` object on
stdout), 4 internal error (an unexpected exception, reported in one line;
the traceback goes to the ``zerosum.cli`` logger at debug level).
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import sys
from pathlib import Path

from . import cache as cache_mod
from .davenport import DEFAULT_NODE_BUDGET, max_free_length
from .engine import BudgetExhaustedError, EngineError
from .extremal import (
    VERDICT_FAILURE,
    check_cyclic_structure,
    check_minimal_zero_sum_order,
    check_weighted_lemma,
    enumerate_extremal,
    verify_theorem,
)
from .groups import (
    Group,
    GroupError,
    GroupSpec,
    build_group,
    parse_group_spec,
    quaternion_names,
)
from .sequences import GSequence, SequenceError, items_text

SCHEMA_VERSION = cache_mod.SCHEMA_VERSION

EXIT_OK = 0
EXIT_VERIFY_FAILURE = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4

# verify targets and the --param keys each takes, in group-spec order
VERIFY_PARAMS = {
    "dihedral": ("n",),
    "dicyclic": ("n",),
    "metacyclic": ("q", "m", "s"),
    "cyclic": ("n",),
    "weighted": ("n",),
    "cyclic-structure": ("n",),
    "minzero": ("group",),
}
VERIFY_TARGETS = tuple(VERIFY_PARAMS)

CSV_HEADER = ["group", "davenport", "extremal_count", "verdict", "missing",
              "extra", "nodes", "millis"]


def _int_at_least(low: int):
    """argparse ``type`` for an integer >= ``low``."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def _common_flags(parser, *, budget=True, cache=True):
    parser.add_argument("--json", action="store_true",
                        help="emit machine-readable JSON")
    if budget:
        parser.add_argument("--budget", type=_int_at_least(1),
                            default=DEFAULT_NODE_BUDGET,
                            help="node budget per search branch (default %(default)s)")
    if cache:
        parser.add_argument("--cache-dir", type=Path, default=None,
                            help="result cache directory (default: "
                                 "$ZEROSUM_CACHE_DIR or ~/.cache/zerosum)")
        parser.add_argument("--no-cache", action="store_true",
                            help="bypass the result cache")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The process's one parser, built on first use (not at import)."""
    p = argparse.ArgumentParser(
        prog="zerosum",
        description="Exact zero-sum computations in small finite groups.")
    sub = p.add_subparsers(dest="command", required=True)

    grp = sub.add_parser("group", help="group-level queries")
    gsub = grp.add_subparsers(dest="subcommand", required=True)
    info = gsub.add_parser("info", help="order, exponent and element names")
    info.add_argument("--group", required=True, help="group spec, e.g. D:5 or CxC:2,4")
    _common_flags(info, budget=False, cache=False)

    free = sub.add_parser("free", help="product-1-freeness checks")
    fsub = free.add_subparsers(dest="subcommand", required=True)
    check = fsub.add_parser("check", help="decide whether sequences are product-1-free")
    check.add_argument("--group", required=True)
    check.add_argument("--seq", help="sequence text, e.g. \"[y, y, x*y^2]\"")
    check.add_argument("--seq-file", type=Path,
                       help="file with one sequence per line")
    _common_flags(check, budget=False, cache=False)

    reach = sub.add_parser("reach", help="reachable subsequence products")
    reach.add_argument("--group", required=True)
    reach.add_argument("--seq", required=True)
    reach.add_argument("--targets",
                       help="also report whether any product lands in this set")
    _common_flags(reach, budget=False, cache=False)

    dav = sub.add_parser("davenport", help="Davenport constant by exact search")
    dav.add_argument("--group", required=True)
    _common_flags(dav)

    ext = sub.add_parser("extremal", help="enumerate extremal free sequences")
    ext.add_argument("--group", required=True)
    ext.add_argument("--limit", type=_int_at_least(0), default=None,
                     help="print at most this many sequences")
    _common_flags(ext)

    ver = sub.add_parser("verify", help="diff enumeration against predictions")
    ver.add_argument("--target", required=True, choices=VERIFY_TARGETS)
    ver.add_argument("--param", action="append", default=[],
                     metavar="KEY=VALUE",
                     help="target parameter (repeatable): n=, q=, m=, s=, group=")
    _common_flags(ver)

    rep = sub.add_parser("report", help="aggregate cached results")
    rep.add_argument("--format", choices=("table", "csv", "json"),
                     default="table")
    rep.add_argument("--cache-dir", type=Path, default=None)
    return p


# Groups up to this order (a table of at most 128 KB) are kept for later
# commands in the same process.
MEMO_ORDER_LIMIT = 256


@functools.lru_cache(maxsize=32)
def _kept_group(spec: GroupSpec) -> Group:
    """The process's one group per canonical spec."""
    return build_group(spec)


def _group(spec: GroupSpec, args) -> Group:
    """The group of ``spec``: for orders up to ``MEMO_ORDER_LIMIT`` the
    process's one group per canonical spec, so that repeated in-process
    commands share its table, orbit roots and closure maps.  ``main`` drops
    its kernel contexts (up to 1 MB of byte tables each for non-abelian
    groups of order <= 64, rebuilt in microseconds) when the command
    ends."""
    if spec.order > MEMO_ORDER_LIMIT:
        return build_group(spec)
    group = _kept_group(spec)
    args.kept_groups.append(group)
    return group


def _emit(obj):
    print(json.dumps(obj, sort_keys=True))


def _cached(args, kind: str, key: str, compute) -> dict:
    """The payload for ``kind``/``key``: read from the cache that ``args``
    names (``--cache-dir``, ``--no-cache``), else computed by ``compute()``
    and stored.

    The returned copy carries ``schema_version``.  A cache hit reports 0
    nodes and 0 ms, since this run expanded nothing.
    """
    cache_dir = args.cache_dir or cache_mod.default_cache_dir()
    payload = None if args.no_cache else cache_mod.lookup(cache_dir, kind, key)
    hit = payload is not None
    if not hit:
        payload = compute()
        if not args.no_cache:
            cache_mod.store(cache_dir, cache_mod.make_record(kind, key, payload))
    shown = dict(payload, schema_version=SCHEMA_VERSION)
    if hit:
        shown.update(nodes=0, millis=0.0)
        print(f"cache hit for {kind} {key}", file=sys.stderr)
    return shown


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_group_info(args) -> int:
    g = _group(parse_group_spec(args.group), args)
    qnames = None
    if g.spec.kind == "Q" and g.spec.params[0] == 2:
        qmap = quaternion_names(g)
        qnames = [qmap[i] for i in g.elements()]
    if args.json:
        _emit({
            "schema_version": SCHEMA_VERSION,
            "group": g.key,
            "order": g.order,
            "exponent": g.exponent,
            "abelian": g.is_abelian,
            "element_names": list(g.names),
            "element_orders": list(g.element_orders),
            "quaternion_names": qnames,
        })
        return EXIT_OK
    print(f"group {g.key}: order {g.order}, exponent {g.exponent}, "
          f"{'abelian' if g.is_abelian else 'non-abelian'}")
    for i in g.elements():
        extra = f"  (= {qnames[i]})" if qnames else ""
        print(f"  [{i:3d}] {g.names[i]:12s} order {g.element_orders[i]}{extra}")
    return EXIT_OK


def _load_sequences(g: Group, args) -> list[GSequence]:
    if bool(args.seq) == bool(args.seq_file):
        raise EngineError("provide exactly one of --seq or --seq-file")
    if args.seq:
        return [GSequence.from_text(g, args.seq)]
    lines = Path(args.seq_file).read_text().splitlines()
    return [GSequence.from_text(g, line) for line in lines if line.strip()]


def cmd_free_check(args) -> int:
    from .engine import is_product1_free
    g = _group(parse_group_spec(args.group), args)
    seqs = _load_sequences(g, args)
    results = [{"seq": s.format(g), "free": is_product1_free(g, s)} for s in seqs]
    if args.json:
        _emit({"schema_version": SCHEMA_VERSION, "group": g.key,
               "results": results})
    elif len(results) == 1:
        print(f"free: {str(results[0]['free']).lower()}")
    else:
        for r in results:
            print(f"{r['seq']}  free: {str(r['free']).lower()}")
    return EXIT_OK


def cmd_reach(args) -> int:
    from .engine import reachable_products, target_mask
    g = _group(parse_group_spec(args.group), args)
    seq = GSequence.from_text(g, args.seq)
    rs = reachable_products(g, seq)
    names = [g.names[i] for i in sorted(rs)]
    hit = None
    if args.targets:
        targets = GSequence.from_text(g, args.targets)
        hit = bool(rs.mask & target_mask(g, targets.items))
    if args.json:
        _emit({"schema_version": SCHEMA_VERSION, "group": g.key,
               "seq": seq.format(g), "reachable": names, "hits_targets": hit})
        return EXIT_OK
    print(f"reachable ({len(names)}): {', '.join(names)}")
    if hit is not None:
        print(f"hits targets: {str(hit).lower()}")
    return EXIT_OK


def cmd_davenport(args) -> int:
    spec = parse_group_spec(args.group)
    key = str(spec)  # == Group.key; a cache hit builds no group

    def compute():
        g = _group(spec, args)
        res = max_free_length(g, budget=args.budget)
        if not res.complete:
            raise BudgetExhaustedError(
                f"node budget exhausted: D({key}) unknown above length "
                f"{res.max_free_length}",
                best_length=res.max_free_length, nodes=res.nodes_expanded)
        return {
            "group": g.key,
            "davenport": res.davenport,
            "max_free_length": res.max_free_length,
            "witness": res.witness.format(g),
            "nodes": res.nodes_expanded,
            "millis": round(res.elapsed * 1000.0, 3),
        }

    shown = _cached(args, "davenport", key, compute)
    if args.json:
        _emit(shown)
        return EXIT_OK
    print(f"D({key}) = {shown['davenport']}  "
          f"(max free length {shown['max_free_length']}, witness "
          f"{shown['witness']}, nodes {shown['nodes']}, {shown['millis']} ms)")
    return EXIT_OK


def cmd_extremal(args) -> int:
    spec = parse_group_spec(args.group)
    key = str(spec)  # == Group.key; a cache hit builds no group

    def compute():
        g = _group(spec, args)
        enum = enumerate_extremal(g, budget=args.budget)
        return {
            "group": g.key,
            "davenport": enum.davenport,
            "length": enum.length,
            "count": len(enum.sequences),
            "sequences": [items_text(g, s) for s in enum.sequences],
            "nodes": enum.nodes_expanded,
            "millis": round(enum.elapsed * 1000.0, 3),
        }

    shown = _cached(args, "extremal", key, compute)
    if args.json:
        if args.limit is not None:
            shown["sequences"] = shown["sequences"][:args.limit]
        _emit(shown)
        return EXIT_OK
    print(f"{key}: D = {shown['davenport']}, {shown['count']} extremal "
          f"free sequences of length {shown['length']}")
    seqs = shown["sequences"]
    if args.limit is not None:
        seqs = seqs[:args.limit]
    for s in seqs:
        print(f"  {s}")
    if args.limit is not None and shown["count"] > args.limit:
        print(f"  ... ({shown['count'] - args.limit} more)")
    return EXIT_OK


def _verify_params(target: str, pairs) -> dict:
    """The ``--param KEY=VALUE`` pairs of ``target`` in canonical form:
    integers, and a parsed ``GroupSpec`` for ``group``.

    A key the target does not take, or one it needs and did not get, is an
    ``EngineError``.
    """
    keys = VERIFY_PARAMS[target]
    raw = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        key = key.strip()
        if not sep or not key:
            raise EngineError(f"malformed --param {pair!r}; expected KEY=VALUE")
        if key not in keys:
            raise EngineError(f"verify --target {target} takes no --param {key}=...; "
                              f"it takes {', '.join(keys)}")
        raw[key] = value.strip()
    params = {}
    for key in keys:
        if key not in raw:
            raise EngineError(f"verify --target {target} needs --param {key}=...")
        if key == "group":
            params[key] = parse_group_spec(raw[key])
            continue
        try:
            params[key] = int(raw[key])
        except ValueError:
            raise EngineError(f"--param {key}={raw[key]!r} is not an integer") from None
    return params


# verify targets diffed by verify_theorem, and their group kind
_THEOREM_KINDS = {"dihedral": "D", "dicyclic": "Q", "cyclic": "C", "metacyclic": "M"}


def _run_verify(target: str, params: dict, args):
    if target in _THEOREM_KINDS:
        spec = GroupSpec(_THEOREM_KINDS[target],
                         tuple(params[k] for k in VERIFY_PARAMS[target]))
        group = _group(spec, args)
        return verify_theorem(group, budget=args.budget)
    if target == "weighted":
        return check_weighted_lemma(params["n"], budget=args.budget)
    if target == "cyclic-structure":
        return check_cyclic_structure(params["n"], budget=args.budget)
    if target == "minzero":
        group = _group(params["group"], args)
        return check_minimal_zero_sum_order(group, budget=args.budget)
    raise EngineError(f"unknown verify target {target!r}")


def cmd_verify(args) -> int:
    params = _verify_params(args.target, args.param)
    # canonical, so n=05 and n=5 share one record
    key = args.target + ":" + ",".join(f"{k}={params[k]}" for k in sorted(params))
    shown = _cached(args, "verify", key,
                    lambda: _run_verify(args.target, params, args).to_payload())
    if args.json:
        _emit(shown)
    else:
        print(f"verify {shown['target']} {shown['group']}: {shown['verdict']}")
        print(f"  enumerated {shown['enumerated_count']}, "
              f"predicted {shown['predicted_count']}, "
              f"missing {len(shown['missing'])}, extra {len(shown['extra'])}")
        for s in shown["missing"]:
            print(f"  missing: {s}")
        for s in shown["extra"]:
            print(f"  extra:   {s}")
        for k, v in shown["details"].items():
            print(f"  {k}: {v}")
    return EXIT_VERIFY_FAILURE if shown["verdict"] == VERDICT_FAILURE else EXIT_OK


_WORST = {"failure": 2, "documented-discrepancy": 1, "exact-match": 0, "": -1}


def _report_rows(records) -> list[dict]:
    rows: dict[str, dict] = {}

    def row(group):
        return rows.setdefault(group, {
            "group": group, "davenport": "", "extremal_count": "",
            "verdict": "", "missing": "", "extra": "", "nodes": 0,
            "millis": 0.0})

    for rec in records:
        p = rec.payload
        if rec.kind == "davenport":
            r = row(p["group"])
            r["davenport"] = p["davenport"]
        elif rec.kind == "extremal":
            r = row(p["group"])
            r["extremal_count"] = p["count"]
            if r["davenport"] == "":
                r["davenport"] = p["davenport"]
        elif rec.kind == "verify":
            r = row(p["group"])
            # only a theorem diff enumerates the extremal set
            if r["extremal_count"] == "" and p["target"] in _THEOREM_KINDS:
                r["extremal_count"] = p["enumerated_count"]
            if r["davenport"] == "" and "davenport" in p.get("details", {}):
                r["davenport"] = p["details"]["davenport"]
            if _WORST.get(p["verdict"], 0) >= _WORST.get(r["verdict"], -1):
                r["verdict"] = p["verdict"]
            r["missing"] = (r["missing"] or 0) + len(p["missing"])
            r["extra"] = (r["extra"] or 0) + len(p["extra"])
        else:
            continue
        r["nodes"] += int(p.get("nodes", 0))
        r["millis"] = round(r["millis"] + float(p.get("millis", 0.0)), 3)
    return [rows[k] for k in sorted(rows)]


def cmd_report(args) -> int:
    cache_dir = args.cache_dir or cache_mod.default_cache_dir()
    records = cache_mod.load_all(cache_dir)
    rows = _report_rows(records)
    if not rows:
        print("no results in cache")
        return EXIT_OK
    if args.format == "json":
        _emit({"schema_version": SCHEMA_VERSION, "rows": rows})
        return EXIT_OK
    if args.format == "csv":
        import csv      # imported here, the one place that writes CSV
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=CSV_HEADER)
        writer.writeheader()
        for r in rows:
            writer.writerow({k: r[k] for k in CSV_HEADER})
        sys.stdout.write(buf.getvalue())
        return EXIT_OK
    widths = {k: max(len(k), *(len(str(r[k])) for r in rows)) for k in CSV_HEADER}
    print("  ".join(k.ljust(widths[k]) for k in CSV_HEADER))
    for r in rows:
        print("  ".join(str(r[k]).ljust(widths[k]) for k in CSV_HEADER))
    return EXIT_OK


# ---------------------------------------------------------------------------

_DISPATCH = {
    ("group", "info"): cmd_group_info,
    ("free", "check"): cmd_free_check,
    ("reach", None): cmd_reach,
    ("davenport", None): cmd_davenport,
    ("extremal", None): cmd_extremal,
    ("verify", None): cmd_verify,
    ("report", None): cmd_report,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = _DISPATCH[(args.command, getattr(args, "subcommand", None))]
    args.kept_groups = []
    try:
        return handler(args)
    except BudgetExhaustedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if args.json:
            _emit({"schema_version": SCHEMA_VERSION, "error": "budget_exhausted",
                   "message": str(exc), "best_length": exc.best_length,
                   "nodes": exc.nodes})
        return EXIT_BUDGET
    except (GroupError, SequenceError, EngineError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        # imported here, the one place that logs: it costs start-up time
        import logging
        logging.getLogger(__name__).debug("internal error", exc_info=True)
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    finally:
        for group in args.kept_groups:
            group.release_contexts()


def entry():
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
