"""On-disk result cache: one JSON record per file, hash-checked on read.

Records are newline-terminated single-line JSON keyed by
``{kind}-{group_spec}-v{schema_version}``; the payload hash is recomputed on
read and any mismatch (or schema bump) invalidates the record with a warning,
never an error.  Writes go through a temp file and an atomic rename.

A record also carries the ``algorithm_version`` of the search that computed
its payload, and a lookup matches it like the rest of the key.  A record
from another version is outdated: ignored with a warning, then recomputed
and overwritten in place, since the file name does not change with it.
Records written before the field existed count as version 1.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import warnings
from dataclasses import dataclass
from pathlib import Path

SCHEMA_VERSION = 1
# Bumped whenever a traversal change alters what a payload holds (its node
# counts included).  2: the max-length search walks Aut(G)-orbit-minimal
# roots only.  3: extremal sets come from one collecting search over those
# roots, closed under the automorphisms.  4: a non-cyclic abelian group
# whose automorphism group does not fit in groups.CLOSURE_LIMIT collects its
# extremal set over every root, with no closure.  5: below the orbit roots,
# the max-length search and the orbit-root collection skip every child that
# an automorphism fixing the path moves to a smaller index.
ALGORITHM_VERSION = 5
ENV_CACHE_DIR = "ZEROSUM_CACHE_DIR"


class CacheWarning(UserWarning):
    """A cache record was ignored (corrupt, tampered or outdated)."""


@dataclass(frozen=True)
class CacheRecord:
    schema_version: int
    group_spec: str
    kind: str
    payload: dict
    content_hash: str
    algorithm_version: int = ALGORITHM_VERSION


def payload_hash(payload: dict) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def make_record(kind: str, group_spec: str, payload: dict) -> CacheRecord:
    return CacheRecord(SCHEMA_VERSION, group_spec, kind, payload,
                       payload_hash(payload))


def default_cache_dir() -> Path:
    env = os.environ.get(ENV_CACHE_DIR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "zerosum"


def _sanitize(text: str) -> str:
    out = []
    for ch in text:
        if ch.isalnum():
            out.append(ch)
        elif ch == ":":
            out.append("_")
        else:
            out.append("-")
    return "".join(out)


def record_path(cache_dir: Path, kind: str, group_spec: str,
                schema_version: int = SCHEMA_VERSION) -> Path:
    return Path(cache_dir) / f"{kind}-{_sanitize(group_spec)}-v{schema_version}.json"


def store(cache_dir: Path, record: CacheRecord) -> Path:
    cache_dir = Path(cache_dir)
    cache_dir.mkdir(parents=True, exist_ok=True)
    target = record_path(cache_dir, record.kind, record.group_spec,
                         record.schema_version)
    line = json.dumps({
        "schema_version": record.schema_version,
        "algorithm_version": record.algorithm_version,
        "group_spec": record.group_spec,
        "kind": record.kind,
        "content_hash": record.content_hash,
        "payload": record.payload,
    }, sort_keys=True)
    fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(line + "\n")
        os.replace(tmp, target)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return target


def _read_valid(path: Path) -> CacheRecord | None:
    """The record stored at ``path``, or None with a warning if it is
    unreadable, from another schema or algorithm version or fails its hash
    check."""
    try:
        with open(path) as fh:
            raw = json.loads(fh.readline())
    except (OSError, json.JSONDecodeError):
        raw = None
    if not (isinstance(raw, dict) and isinstance(raw.get("kind"), str)
            and isinstance(raw.get("group_spec"), str)):
        warnings.warn(f"unreadable cache record {path}; ignored", CacheWarning)
        return None
    if raw.get("schema_version") != SCHEMA_VERSION:
        warnings.warn(f"cache record {path} has schema "
                      f"{raw.get('schema_version')}, expected {SCHEMA_VERSION}; "
                      f"ignored", CacheWarning)
        return None
    algorithm = raw.get("algorithm_version", 1)
    if algorithm != ALGORITHM_VERSION:
        warnings.warn(f"cache record {path} is outdated: algorithm version "
                      f"{algorithm}, expected {ALGORITHM_VERSION}; ignored",
                      CacheWarning)
        return None
    payload = raw.get("payload")
    if not isinstance(payload, dict) or raw.get("content_hash") != payload_hash(payload):
        warnings.warn(f"cache record {path} failed its hash check; ignored",
                      CacheWarning)
        return None
    return CacheRecord(SCHEMA_VERSION, raw["group_spec"], raw["kind"], payload,
                       raw["content_hash"])


def lookup(cache_dir: Path, kind: str, group_spec: str) -> dict | None:
    """Return the cached payload, or None (with a warning if it was invalid)."""
    path = record_path(Path(cache_dir), kind, group_spec)
    if not path.exists():
        return None
    record = _read_valid(path)
    return None if record is None else record.payload


def load_all(cache_dir: Path) -> list[CacheRecord]:
    """Every valid record in the cache directory (for the report command)."""
    cache_dir = Path(cache_dir)
    if not cache_dir.is_dir():
        return []
    records = (_read_valid(path) for path in sorted(cache_dir.glob("*.json")))
    return [rec for rec in records if rec is not None]
