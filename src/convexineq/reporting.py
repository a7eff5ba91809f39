"""Report serialization: diff-able CSV and canonical JSON.

All numeric CSV cells go through one %.12g formatter and rows keep a fixed
column order, so reports from equal-seed runs compare byte for byte.  No
report ever contains wall-clock data; timing lives in terminal output only.

JSON has one form, decided once by ``jsonable``: arrays become lists, any
mapping a dict, numpy scalars Python numbers, non-finite floats the strings
"inf", "-inf" and "nan", and any object with a ``to_json`` (a record, a
body, an affine map) its ``to_json()``, returned as is: every ``to_json``
already returns data in this form.  A result record derives from :class:`Record`,
whose ``to_json`` is its dataclass fields in declaration order through that
same rule, so a new field needs no second edit and a record's JSON is strict
JSON as returned.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from collections.abc import Mapping
from pathlib import Path

import numpy as np

VERSION = "0.1.0"


def format_cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        v = float(value)
        if math.isnan(v):
            return "nan"
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        return "%.12g" % v
    return str(value)


def csv_text(header: list[str], rows: list[tuple], manifest_hash: str | None = None) -> str:
    lines = []
    if manifest_hash is not None:
        lines.append(f"# manifest_hash={manifest_hash}")
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(format_cell(c) for c in row))
    return "\n".join(lines) + "\n"


def write_csv(path, header, rows, manifest_hash=None) -> str:
    text = csv_text(header, rows, manifest_hash)
    Path(path).write_text(text)
    return text


def jsonable(obj):
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        if math.isnan(v):
            return "nan"
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        return v
    # after the scalars: an ABC check costs more than a type check, and the
    # elements of an array pass through here one by one
    if isinstance(obj, Mapping):
        return {k: jsonable(v) for k, v in obj.items()}
    if hasattr(obj, "to_json"):
        # every to_json returns data already in this form
        return obj.to_json()
    return obj


class Record:
    """Base of the result dataclasses: ``to_json`` maps each field name, in
    declaration order, to the field's value in the one JSON form."""

    def to_json(self) -> dict:
        return {f.name: jsonable(getattr(self, f.name)) for f in dataclasses.fields(self)}


def canonical_json(obj) -> str:
    """Sorted-key, minimal-separator JSON; the hashing and diffing format."""
    return json.dumps(jsonable(obj), sort_keys=True, separators=(",", ":"))


def canonical_hash(obj) -> str:
    """SHA-256 hex digest of the canonical JSON form: the one hash behind
    body and test-function fingerprints and manifest hashes."""
    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()


def manifest_hash(manifest: dict) -> str:
    return canonical_hash(manifest)[:16]


def report_envelope(manifest: dict, payload: dict) -> dict:
    """Wrap a payload with the reproducibility header every report carries."""
    return {
        "manifest": jsonable(manifest),
        "manifest_hash": manifest_hash(manifest),
        "seed": manifest.get("seed", 0),
        "version": VERSION,
        **payload,
    }


def write_json(path, manifest: dict, payload: dict) -> dict:
    report = report_envelope(manifest, payload)
    Path(path).write_text(json.dumps(jsonable(report), indent=2, sort_keys=True) + "\n")
    return report
