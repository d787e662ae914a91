"""The three benchmark workloads: roster, extremal and reach.

Each workload is a closed loop: one client issues the next job only after the
previous answer came back and was checked.  The seed drives job order and,
for ``reach``, the generated multisets; the program sees only those inputs.

A workload names the groups its set-up builds, prepares its inputs and
reference answers outside the timed region, then runs passes.  A pass
returns how many operations it attempted, how many failed (wrong answer,
missing answer, raised error or exhausted budget) and its exact counts.
Layers are reached only through the public entry points of the ``zerosum``
modules, looked up at call time so that the tracer's wrappers take effect.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
import traceback
from dataclasses import dataclass, field

import reference


def _mod(name):
    return sys.modules[f"zerosum.{name}"]


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    counts: dict = field(default_factory=dict)

    def check(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"wrong answer: {what}", file=sys.stderr)

    def error(self, what: str):
        self.attempted += 1
        self.failed += 1
        print(f"error in {what}:\n{traceback.format_exc()}", file=sys.stderr)


class Roster:
    """Max-length search for D(G) over the criterion-1 roster of 74 groups."""

    def __init__(self, rng):
        self.jobs = reference.roster()
        rng.shuffle(self.jobs)
        self.group_specs = [spec for spec, _ in self.jobs]

    def prepare(self, groups, work_dir):
        self.groups = groups

    def run_pass(self, pass_no) -> Outcome:
        out = Outcome(counts={"search_nodes": 0})
        for spec, expected in self.jobs:
            try:
                res = _mod("davenport").max_free_length(self.groups[spec])
            except Exception:
                out.error(f"max_free_length({spec})")
                continue
            out.counts["search_nodes"] += res.nodes_expanded
            out.check(res.complete and res.davenport == expected,
                      f"D({spec}) = {res.davenport}, closed form {expected}")
        return out

    def cleanup(self, pass_no):
        pass


def extremal_commands() -> list[tuple[str, list[str]]]:
    """(reference key, CLI argv) of every cold command, in canonical order."""
    cmds = [(f"verify dihedral n={n}", ["verify", "--target", "dihedral",
                                        "--param", f"n={n}"])
            for n in range(2, 11)]
    cmds += [(f"verify dicyclic n={n}", ["verify", "--target", "dicyclic",
                                         "--param", f"n={n}"])
             for n in range(2, 7)]
    cmds += [(f"verify metacyclic {q},{m},{s}",
              ["verify", "--target", "metacyclic", "--param", f"q={q}",
               "--param", f"m={m}", "--param", f"s={s}"])
             for q, m, s in ((3, 2, 2), (5, 2, 4), (5, 4, 2), (7, 2, 6), (7, 3, 2))]
    cmds += [(f"davenport {g}", ["davenport", "--group", g])
             for g in ("D:9", "Q:5", "M:7,3,2")]
    cmds += [(f"extremal {g}", ["extremal", "--group", g])
             for g in ("D:6", "Q:4", "M:5,4,2")]
    return cmds


def run_cli(argv) -> tuple[int, dict, str]:
    """Run ``zerosum.cli.main`` in-process; return (exit code, JSON, stderr)."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        rc = _mod("cli").main(argv)
    return rc, json.loads(stdout.getvalue()), stderr.getvalue()


def summarize_payload(payload) -> dict:
    """The answer of one CLI payload, as kept in reference.json."""
    return {"verdict": payload.get("verdict"),
            "count": payload.get("enumerated_count",
                                 payload.get("count", payload.get("davenport"))),
            "digest": reference.answer_digest(payload)}


class Extremal:
    """CLI verify/davenport/extremal against an empty cache, report, warm re-issue."""

    def __init__(self, rng):
        self.commands = extremal_commands()
        self.warm_order = list(self.commands)
        rng.shuffle(self.commands)
        rng.shuffle(self.warm_order)
        specs = [f"D:{n}" for n in range(2, 11)] + [f"Q:{n}" for n in range(2, 7)]
        specs += ["M:3,2,2", "M:5,2,4", "M:5,4,2", "M:7,2,6", "M:7,3,2"]
        self.group_specs = specs

    def prepare(self, groups, work_dir):
        self.work_dir = work_dir
        self.expected = reference.load()["extremal"]

    def _cache_dir(self, pass_no):
        return self.work_dir / f"cache-{pass_no}"

    def run_pass(self, pass_no) -> Outcome:
        cache = ["--cache-dir", str(self._cache_dir(pass_no))]
        out = Outcome(counts={"search_nodes": 0, "found": 0})
        cold = {}
        for key, argv in self.commands:
            try:
                rc, payload, _ = run_cli(argv + ["--json"] + cache)
            except Exception:
                out.error(key)
                continue
            got = {"rc": rc, **summarize_payload(payload)}
            cold[key] = got["digest"]
            out.counts["search_nodes"] += payload.get("nodes", 0)
            if not key.startswith("davenport"):
                out.counts["found"] += got["count"]
            out.check(got == self.expected.get(key), f"{key}: {got}")
        try:
            rc, payload, _ = run_cli(["report", "--format", "json"] + cache)
            got = {"rc": rc, "rows": len(payload["rows"]),
                   "digest": reference.answer_digest(payload)}
            out.check(got == self.expected["report"], f"report: {got}")
        except Exception:
            out.error("report")
        for key, argv in self.warm_order:
            try:
                rc, payload, err = run_cli(argv + ["--json"] + cache)
            except Exception:
                out.error(f"warm {key}")
                continue
            out.check("cache hit" in err and key in cold
                      and reference.answer_digest(payload) == cold[key],
                      f"warm {key}: hit={'cache hit' in err}, payload differs "
                      f"from the cold answer")
        return out

    def cleanup(self, pass_no):
        shutil.rmtree(self._cache_dir(pass_no), ignore_errors=True)


# Per group: (length of a full-set query, length of a free multiset, length
# of an early-exit check).  A full set is a whole layered DP (50-190 ms on the
# pure lane); a free check on a free multiset also runs the whole DP, but on
# fewer elements; an early-exit check holds a planted product-1 triple or a
# planted target product, so the DP stops by its third layer.  Planting keeps
# the work of a pass nearly the same for every seed.
REACH_PLAN = {
    "C:512": (10, 8, 12),
    "CxC:16,16": (11, 8, 12),
    "D:100": (11, 7, 12),
    "Q:30": (11, 7, 12),
    "M:31,5,2": (11, 7, 12),
    "CxC:32,32": (12, 9, 12),
    "CxC:6,6": (12, 5, 12),
    "Q:6": (12, 5, 12),
}
QUERIES_PER_KIND = 6
TARGETS = 3
FREE_SAMPLE_TRIES = 10_000


def _text(g, items) -> str:
    return "[" + ", ".join(g.names[a] for a in items) + "]"


class Reach:
    """Stand-alone reachability on seeded multisets given as text; no search."""

    def __init__(self, rng):
        self.rng = rng
        self.group_specs = list(REACH_PLAN)

    def _planted(self, g, length, kind):
        """Distinct non-identity items holding a product-1 triple or a target."""
        rng, mul = self.rng, g.table
        while True:
            items = rng.sample(range(1, g.order), length - (kind == "zero"))
            ab = int(mul[items[0], items[1]])
            if kind == "target":
                return items, [ab] + rng.sample(range(g.order), TARGETS - 1)
            c = int(g.inv_table[ab])
            if c != g.identity and c not in items:
                return items + [c], None

    def _free(self, g, length):
        for _ in range(FREE_SAMPLE_TRIES):
            items = self.rng.sample(range(1, g.order), length)
            if g.identity not in reference.product_closure(g.table, items):
                return items
        raise RuntimeError(f"no free multiset of length {length} found in {g.key}")

    def prepare(self, groups, work_dir):
        self.groups = groups
        queries = []
        for spec, (full_len, free_len, hit_len) in REACH_PLAN.items():
            g = groups[spec]
            for _ in range(QUERIES_PER_KIND):
                full = self.rng.sample(range(1, g.order), full_len)
                closure = reference.product_closure(g.table, full)
                queries.append(("full", spec, _text(g, full), None,
                                sum(1 << a for a in closure)))
                free = self._free(g, free_len)
                queries.append(("free", spec, _text(g, free), None, True))
                for kind in ("zero", "target"):
                    items, targets = self._planted(g, hit_len, kind)
                    closure = reference.product_closure(g.table, items)
                    if kind == "zero":
                        queries.append(("free", spec, _text(g, items), None,
                                        g.identity not in closure))
                    else:
                        queries.append(("target", spec, _text(g, items),
                                        _text(g, targets),
                                        bool(closure.intersection(targets))))
        self.rng.shuffle(queries)
        self.queries = queries

    def run_pass(self, pass_no) -> Outcome:
        engine, gseq = _mod("engine"), _mod("sequences").GSequence
        out = Outcome(counts={"reach_calls": 0})
        for kind, spec, text, ttext, expected in self.queries:
            g = self.groups[spec]
            try:
                seq = gseq.from_text(g, text)
                if kind == "full":
                    got = engine.reachable_products(g, seq).mask
                elif kind == "free":
                    got = engine.is_product1_free(g, seq)
                else:
                    targets = gseq.from_text(g, ttext).items
                    got = engine.has_product_in(g, seq, targets)
            except Exception:
                out.error(f"{kind} {spec} {text}")
                continue
            out.counts["reach_calls"] += 1
            out.check(got == expected, f"{kind} {spec} {text}")
        return out

    def cleanup(self, pass_no):
        pass


WORKLOADS = {"roster": Roster, "extremal": Extremal, "reach": Reach}
