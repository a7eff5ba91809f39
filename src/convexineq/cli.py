"""Manifest-driven command line harness.

Every command reads one JSON manifest (or builds a default one from flags),
validates it against a single schema, which includes a ``params`` schema per
command, runs the named verification, and writes diff-able CSV/JSON reports
stamped with the manifest hash.  The corpus commands ``ot``, ``tlsi-verify``,
``dirichlet-sharpness``, ``brenier-1d`` and ``lemma1-audit`` run the corpus
runner of their acceptance criterion (1, 6, 7, 8, 10) on the slice their
``params`` name, so they report the criterion's rows under its check.
Exit codes: 0 clean, 1 a verified inequality was violated at runtime (the
offending record is printed), 2 the manifest failed schema validation
(printed with JSON-path/field diagnostics).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import jsonschema
import numpy as np

from . import acceptance, concentration, geometry, isotropy, transport
from .acceptance import SLICE_PARAMS, RunReport
from .errors import ConvexIneqError, ManifestError
from .geometry import ball_volume_one, body_from_json, cube_volume_one
from .reporting import VERSION, manifest_hash, write_csv, write_json


def _seed(manifest) -> int:
    return int(manifest.get("seed", 0))


def _ts(manifest) -> float:
    return float(manifest.get("tolerance_scale", 1.0))


def _body(params, key, default):
    """The body, or list of bodies, that params[key] describes; default if
    the key is absent."""
    if key not in params:
        return default
    try:
        if isinstance(params[key], list):
            return [body_from_json(obj) for obj in params[key]]
        return body_from_json(params[key])
    except (AttributeError, KeyError, TypeError, ValueError, ConvexIneqError) as e:
        raise ManifestError(f"$.params.{key}: not a valid body: {type(e).__name__}: {e}") from None


# each handler maps (manifest, params) to a RunReport


def _run_ot(manifest, params):
    return acceptance.ot_corpus(_ts(manifest), oracle=bool(manifest.get("oracle", False)), **params)


def _run_tlsi(manifest, params):
    return acceptance.tlsi_corpus(_ts(manifest), **params)


def _run_dirichlet(manifest, params):
    return acceptance.dirichlet_corpus(_ts(manifest), **params)


def _run_brenier(manifest, params):
    return acceptance.brenier_corpus(_ts(manifest), **params)


def _run_lemma1(manifest, params):
    return acceptance.lemma1_corpus(_ts(manifest), _seed(manifest), **params)


def _run_wasserstein(manifest, params):
    A = _body(params, "body_a", ball_volume_one(2))
    B = _body(params, "body_b", cube_volume_one(2))
    p, m, reps = params.get("p", 1), params.get("m", 1024), params.get("reps", 10)
    est = transport.wasserstein_empirical(A, B, p=p, m=m, seed=_seed(manifest), reps=reps)
    payload = {"estimate": est.to_json(), "body_a": A.to_json(), "body_b": B.to_json()}
    return RunReport(("p", "m", "reps", "value", "stderr"), [(p, m, reps, est.value, est.stderr)], [], payload)


def _run_isotropy(manifest, params):
    body = _body(params, "body", geometry.Cube(1.0, 3))
    report = isotropy.isotropic_position(body, m=params.get("m", 100_000), seed=_seed(manifest))
    header = ("L", "L_stderr", "isotropy_defect", "fit_count")
    rows = [(report.L_estimate.value, report.L_estimate.stderr, report.isotropy_defect, report.fit_count)]
    return RunReport(header, rows, [], {"report": report.to_json()})


def _run_tci(manifest, params):
    B = _body(params, "body", ball_volume_one(2))
    subs = _body(params, "sub_bodies", None)
    if subs is None:
        r = B.support(np.array([1.0] + [0.0] * (B.dim - 1)))
        subs = [geometry.L1Ball(0.9 * r, B.dim), geometry.Cube(1.2 * r / math.sqrt(B.dim), B.dim)]
    est, records = transport.tci_tau_records(
        B, subs, p=params.get("p", 1), m=params.get("m", 1024), seed=_seed(manifest)
    )
    header = ("index", "entropy", "w_value", "w_stderr", "tau_bound", "skipped", "reason")
    rows = [
        (r["index"], r["entropy"], r["w_value"], r["w_stderr"],
         math.nan if r["tau_bound"] is None else r["tau_bound"], 1 if r["skipped"] else 0, r["reason"])
        for r in records
    ]
    return RunReport(header, rows, [], {"tau_upper_bound": est.to_json(), "records": records})


def _run_concentration(manifest, params):
    body = _body(params, "body", geometry.Cube(1.0, 2))
    res = concentration.tau1_proxy(
        body, m=params.get("m", 50_000), seed=_seed(manifest), extra_directions=params.get("extra_directions", 0)
    )
    rows = [row for fit in res.fits for row in fit.csv_rows()]
    header = ("functional", "t", "raw_tail", "envelope_tail", "usable")
    payload = {"tau_proxy": res.to_json()["tau_proxy"], "argmin": res.argmin, "body": body.to_json()}
    return RunReport(header, rows, [], payload)


def _run_suite(manifest, params):
    suite = acceptance.run_suite(seed=_seed(manifest), tolerance_scale=_ts(manifest), echo=print)
    return RunReport(
        header=("criterion", "name", "passed", "detail"),
        rows=[(r.index, r.name, 1 if r.passed else 0, r.detail) for r in suite.results],
        violations=[
            {"criterion": r.index, "name": r.name, "detail": r.detail} for r in suite.results if not r.passed
        ],
        payload={"passed": suite.passed},
        tables={f"c{r.index:02d}_{r.name}": (r.header, r.rows) for r in suite.results if r.index <= 11},
    )


_BODY = {"type": "object"}
_INT = {"type": "integer", "minimum": 1}
# sample counts that an exact matching solves
_EXACT_M = {"type": "integer", "minimum": 1, "maximum": transport._EXACT_CAP}

# command -> (handler, params properties)
_COMMANDS = {
    "ot": (_run_ot, SLICE_PARAMS[acceptance.ot_corpus]),
    "wasserstein": (_run_wasserstein, {"body_a": _BODY, "body_b": _BODY, "p": _INT, "m": _EXACT_M, "reps": _INT}),
    "isotropy": (_run_isotropy, {"body": _BODY, "m": _INT}),
    "tci-bound": (
        _run_tci,
        {"body": _BODY, "sub_bodies": {"type": "array", "minItems": 1, "items": _BODY}, "p": _INT, "m": _EXACT_M},
    ),
    "tlsi-verify": (_run_tlsi, SLICE_PARAMS[acceptance.tlsi_corpus]),
    "dirichlet-sharpness": (_run_dirichlet, SLICE_PARAMS[acceptance.dirichlet_corpus]),
    "brenier-1d": (_run_brenier, SLICE_PARAMS[acceptance.brenier_corpus]),
    "concentration": (
        _run_concentration,
        {"body": _BODY, "m": _INT, "extra_directions": {"type": "integer", "minimum": 0}},
    ),
    "lemma1-audit": (_run_lemma1, SLICE_PARAMS[acceptance.lemma1_corpus]),
    "suite": (_run_suite, {}),
}
COMMANDS = tuple(_COMMANDS)

MANIFEST_SCHEMA = {
    "type": "object",
    "required": ["command"],
    "additionalProperties": False,
    "properties": {
        "command": {"enum": list(COMMANDS)},
        "seed": {"type": "integer", "minimum": 0},
        "out": {"type": "string"},
        "oracle": {"type": "boolean"},
        "tolerance_scale": {"type": "number", "minimum": 0},
        "params": {"type": "object"},
    },
    # each command's params: exactly the keys it reads
    "allOf": [
        {
            "if": {"required": ["command"], "properties": {"command": {"const": name}}},
            "then": {"properties": {"params": {"additionalProperties": False, "properties": props}}},
        }
        for name, (_, props) in _COMMANDS.items()
    ],
}

# "integer" means a JSON number written without a fraction: 2.0 is not a count
_Validator = jsonschema.validators.extend(
    jsonschema.Draft202012Validator,
    type_checker=jsonschema.Draft202012Validator.TYPE_CHECKER.redefine(
        "integer", lambda checker, x: isinstance(x, int) and not isinstance(x, bool)
    ),
)


def _manifest(args) -> dict:
    """The manifest from the file and flags; raises ManifestError unless it
    is a valid one."""
    manifest = {}
    if args.manifest:
        try:
            manifest = json.loads(Path(args.manifest).read_text())
        except FileNotFoundError:
            raise ManifestError(f"manifest file not found: {args.manifest}") from None
        except json.JSONDecodeError as e:
            raise ManifestError(f"invalid JSON at line {e.lineno} column {e.colno}: {e.msg}") from None
        if not isinstance(manifest, dict):
            raise ManifestError("$: manifest must be a JSON object")
    if args.command:
        if "command" in manifest and manifest["command"] != args.command:
            raise ManifestError(
                f"$.command: manifest says {manifest['command']!r} but the "
                f"command line says {args.command!r}"
            )
        manifest["command"] = args.command
    for key in ("seed", "out", "tolerance_scale"):
        if getattr(args, key) is not None:
            manifest[key] = getattr(args, key)
    if args.oracle:
        manifest["oracle"] = True
    errors = sorted(_Validator(MANIFEST_SCHEMA).iter_errors(manifest), key=lambda e: e.json_path)
    if errors:
        raise ManifestError("\nschema: ".join(f"{err.json_path}: {err.message}" for err in errors))
    return manifest


def _emit(manifest, report: RunReport):
    command = manifest["command"]
    h = manifest_hash(manifest)
    if manifest.get("out"):
        out = Path(manifest["out"])
        out.mkdir(parents=True, exist_ok=True)
        for name, (header, rows) in {command: (report.header, report.rows), **report.tables}.items():
            write_csv(out / f"{name}.csv", list(header), list(rows), manifest_hash=h)
        write_json(out / f"{command}.json", manifest, report.payload)
    print(f"{command}: {len(report.rows)} records, manifest {h}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="convexineq",
        description="Numerical verification harness for transport, entropy, and "
        "log-Sobolev inequalities on convex bodies.",
    )
    parser.add_argument("command", nargs="?", choices=COMMANDS, help="command to run")
    parser.add_argument("--manifest", help="path to a JSON manifest")
    parser.add_argument("--seed", type=int, help="master seed (overrides manifest)")
    parser.add_argument("--out", help="output directory for CSV/JSON reports")
    parser.add_argument("--oracle", action="store_true", help="enable brute-force cross-checks")
    parser.add_argument("--tolerance-scale", type=float, help="multiply all acceptance tolerances")
    parser.add_argument("--version", action="version", version=f"%(prog)s {VERSION}")
    args = parser.parse_args(argv)

    try:
        manifest = _manifest(args)
        handler, _ = _COMMANDS[manifest["command"]]
        report = handler(manifest, manifest.get("params", {}))
        _emit(manifest, report)
    except ManifestError as e:
        print(f"schema: {e}", file=sys.stderr)
        return 2
    except ConvexIneqError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    if report.violations:
        print(f"{len(report.violations)} violation(s); first offending record:", file=sys.stderr)
        print(json.dumps(report.violations[0], indent=2, default=str), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
