import hashlib
import inspect
import json
import math
from pathlib import Path

import pytest

from convexineq import acceptance, cli, corpora, reporting


# -- reporting primitives --------------------------------------------------------


def test_format_cell():
    assert reporting.format_cell(True) == "1"
    assert reporting.format_cell(False) == "0"
    assert reporting.format_cell(3) == "3"
    assert reporting.format_cell(float("nan")) == "nan"
    assert reporting.format_cell(float("inf")) == "inf"
    # twelve significant digits
    assert reporting.format_cell(0.123456789012345) == "0.123456789012"


def test_csv_text_layout():
    text = reporting.csv_text(["a", "b"], [(1, 2.5), (2, -1.0)], manifest_hash="deadbeef")
    lines = text.splitlines()
    assert lines[0] == "# manifest_hash=deadbeef"
    assert lines[1] == "a,b"
    assert lines[2] == "1,2.5"
    assert text.endswith("\n")


def test_canonical_json_is_key_sorted():
    a = reporting.canonical_json({"b": 1, "a": [1, 2]})
    b = reporting.canonical_json({"a": [1, 2], "b": 1})
    assert a == b
    assert a == '{"a":[1,2],"b":1}'


def test_manifest_hash_stable():
    h1 = reporting.manifest_hash({"command": "ot", "seed": 0})
    h2 = reporting.manifest_hash({"seed": 0, "command": "ot"})
    assert h1 == h2
    assert len(h1) == 16
    assert h1 != reporting.manifest_hash({"command": "ot", "seed": 1})


def test_manifest_hash_pinned():
    assert reporting.manifest_hash({"command": "ot", "seed": 0, "params": {"instances": 5}}) == "ce8e08de6c46633b"


def test_report_envelope_fields():
    env = reporting.report_envelope({"command": "ot", "seed": 3}, {"records": 7})
    assert env["manifest"] == {"command": "ot", "seed": 3}
    assert env["manifest_hash"] == reporting.manifest_hash({"command": "ot", "seed": 3})
    assert env["seed"] == 3
    assert env["version"] == reporting.VERSION
    assert env["records"] == 7


def test_package_version_is_the_reporting_version():
    import convexineq

    assert convexineq.__version__ is reporting.VERSION


def test_version_has_one_source():
    tomllib = pytest.importorskip("tomllib")
    meta = tomllib.loads((Path(__file__).resolve().parents[1] / "pyproject.toml").read_text())
    assert meta["project"]["dynamic"] == ["version"]
    assert "version" not in meta["project"]
    assert meta["tool"]["setuptools"]["dynamic"]["version"] == {"attr": "convexineq.reporting.VERSION"}


# -- manifest validation -----------------------------------------------------------


def test_missing_command_is_schema_error(tmp_path, capsys):
    manifest = tmp_path / "m.json"
    manifest.write_text("{}")
    assert cli.main(["--manifest", str(manifest)]) == 2
    assert "command" in capsys.readouterr().err


def test_invalid_json_reports_position(tmp_path, capsys):
    manifest = tmp_path / "m.json"
    manifest.write_text('{"command": "ot",}')
    assert cli.main(["--manifest", str(manifest)]) == 2
    err = capsys.readouterr().err
    assert "line" in err and "column" in err


def test_manifest_file_not_found(capsys):
    assert cli.main(["--manifest", "/nonexistent/m.json"]) == 2


def test_command_mismatch_rejected(tmp_path, capsys):
    manifest = tmp_path / "m.json"
    manifest.write_text('{"command": "ot"}')
    assert cli.main(["suite", "--manifest", str(manifest)]) == 2
    assert "$.command" in capsys.readouterr().err


def test_unknown_manifest_key_rejected(tmp_path, capsys):
    manifest = tmp_path / "m.json"
    manifest.write_text('{"command": "ot", "extra": 1}')
    assert cli.main(["--manifest", str(manifest)]) == 2


def test_negative_seed_rejected(tmp_path, capsys):
    manifest = tmp_path / "m.json"
    manifest.write_text('{"command": "ot", "seed": -1}')
    assert cli.main(["--manifest", str(manifest)]) == 2
    assert "seed" in capsys.readouterr().err


# -- command execution ---------------------------------------------------------------


def _write(tmp_path, manifest):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    return str(path)


def test_ot_with_oracle_end_to_end(tmp_path, capsys):
    out = tmp_path / "out"
    manifest = {"command": "ot", "oracle": True, "out": str(out), "params": {"instances": 5}}
    assert cli.main(["--manifest", _write(tmp_path, manifest)]) == 0
    csv_path = out / "ot.csv"
    json_path = out / "ot.json"
    assert csv_path.exists() and json_path.exists()
    text = csv_path.read_text()
    assert text.startswith("# manifest_hash=")
    assert text.splitlines()[1].startswith("instance,p,")
    env = json.loads(json_path.read_text())
    assert env["manifest_hash"] == reporting.manifest_hash(manifest)
    assert env["max_abs_diff"] <= 1e-9


def test_reports_are_byte_identical_across_runs(tmp_path):
    runs = []
    for tag in ("one", "two"):
        out = tmp_path / tag
        manifest = {"command": "ot", "out": str(out), "params": {"instances": 5}}
        assert cli.main(["--manifest", _write(tmp_path, manifest)]) == 0
        # the manifests differ in the out path, so compare bodies only
        body = (out / "ot.csv").read_text().split("\n", 1)[1]
        runs.append(body)
    assert runs[0] == runs[1]


def test_tlsi_verify_small_corpus(tmp_path, capsys):
    out = tmp_path / "out"
    manifest = {
        "command": "tlsi-verify",
        "out": str(out),
        "params": {"domains": ["interval"], "count": 2, "ps": [1, 2], "resolution": 16},
    }
    assert cli.main(["--manifest", _write(tmp_path, manifest)]) == 0
    lines = (out / "tlsi-verify.csv").read_text().splitlines()
    # comment, header, then 2 functions x 2 exponents
    assert len(lines) == 6
    assert all(line.endswith("PASS") for line in lines[2:])


UNKNOWN_NAMES = [
    ({"command": "tlsi-verify", "params": {"domains": ["pentagon"]}}, "$.params.domains[0]"),
    ({"command": "lemma1-audit", "params": {"pair": "nope"}}, "$.params.pair"),
]


@pytest.mark.parametrize("manifest,path", UNKNOWN_NAMES, ids=["domain", "pair"])
def test_unknown_corpus_name_exits_two(tmp_path, capsys, manifest, path):
    # a name outside the corpus is a bad manifest, not a violated inequality
    assert cli.main(["--manifest", _write(tmp_path, manifest)]) == 2
    assert path in capsys.readouterr().err


def test_zero_tolerance_negative_control(tmp_path, capsys):
    """With every tolerance collapsed to zero the sharp disk case must fail,
    demonstrating the verifier is live."""
    manifest = {"command": "dirichlet-sharpness", "tolerance_scale": 0.0}
    assert cli.main(["--manifest", _write(tmp_path, manifest)]) == 1
    err = capsys.readouterr().err
    assert "violation" in err
    assert "ratio" in err


def test_dirichlet_passes_at_default_tolerance(tmp_path, capsys):
    assert cli.main(["dirichlet-sharpness"]) == 0


def test_wasserstein_command(tmp_path, capsys):
    out = tmp_path / "out"
    manifest = {
        "command": "wasserstein",
        "out": str(out),
        "seed": 1,
        "params": {"m": 128, "reps": 2},
    }
    assert cli.main(["--manifest", _write(tmp_path, manifest)]) == 0
    env = json.loads((out / "wasserstein.json").read_text())
    assert env["estimate"]["value"] > 0


def test_flags_override_manifest(tmp_path, capsys):
    out = tmp_path / "flagged"
    manifest = {"command": "ot", "params": {"instances": 3}}
    code = cli.main(["--manifest", _write(tmp_path, manifest), "--seed", "5", "--out", str(out)])
    assert code == 0
    env = json.loads((out / "ot.json").read_text())
    assert env["seed"] == 5
    assert env["manifest"]["out"] == str(out)


# -- params validation -----------------------------------------------------------------


def test_unknown_params_key_rejected(tmp_path, capsys):
    manifest = {"command": "tlsi-verify", "params": {"domains": ["interval"], "count": 1, "resoluton": 48}}
    assert cli.main(["--manifest", _write(tmp_path, manifest)]) == 2
    err = capsys.readouterr().err
    assert "$.params" in err and "resoluton" in err


def test_out_of_range_corpus_size_rejected(tmp_path, capsys):
    manifest = {"command": "ot", "params": {"instances": 600}}
    assert cli.main(["--manifest", _write(tmp_path, manifest)]) == 2
    assert "$.params.instances" in capsys.readouterr().err


def test_fractional_count_rejected(tmp_path, capsys):
    manifest = {"command": "brenier-1d", "params": {"count": 2.0}}
    assert cli.main(["--manifest", _write(tmp_path, manifest)]) == 2
    assert "$.params.count" in capsys.readouterr().err


def test_malformed_body_param_rejected(tmp_path, capsys):
    manifest = {"command": "isotropy", "params": {"body": {"variant": "ball", "dim": 2}}}
    assert cli.main(["--manifest", _write(tmp_path, manifest)]) == 2
    assert "$.params.body" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["wasserstein", "tci-bound", "lemma1-audit"])
def test_sample_count_over_the_exact_cap_rejected(tmp_path, capsys, command):
    manifest = {"command": command, "params": {"m": 5000}}
    assert cli.main(["--manifest", _write(tmp_path, manifest)]) == 2
    assert "$.params.m" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["wasserstein", "tci-bound"])
def test_unsupported_cost_exponent_rejected(tmp_path, capsys, command):
    manifest = {"command": command, "params": {"p": 3}}
    assert cli.main(["--manifest", _write(tmp_path, manifest)]) == 2
    assert "$.params.p" in capsys.readouterr().err


def test_single_wasserstein_repetition_rejected(tmp_path, capsys):
    # one repetition has no spread to give the estimate a stderr
    manifest = {"command": "wasserstein", "params": {"m": 8, "reps": 1}}
    assert cli.main(["--manifest", _write(tmp_path, manifest)]) == 2
    assert "$.params.reps" in capsys.readouterr().err


def test_workers_key_and_flag_rejected(tmp_path, capsys):
    assert cli.main(["--manifest", _write(tmp_path, {"command": "ot", "workers": 2})]) == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["ot", "--workers", "2"])
    assert exc.value.code == 2


def test_extra_directions_key_rejected(tmp_path, capsys):
    manifest = {"command": "concentration", "params": {"extra_directions": 2}}
    assert cli.main(["--manifest", _write(tmp_path, manifest)]) == 2
    err = capsys.readouterr().err
    assert "$.params" in err and "extra_directions" in err


def test_slice_params_are_runner_arguments_with_defaults():
    for runner, props in acceptance.SLICE_PARAMS.items():
        args = inspect.signature(runner).parameters
        assert all(args[key].default is not inspect.Parameter.empty for key in props), runner.__name__


# -- the CLI corpus commands report their criterion's rows ------------------------------

SHARED = [
    ({"command": "ot", "oracle": True, "params": {"instances": 5}}, acceptance.criterion_1),
    ({"command": "tlsi-verify", "params": {"domains": ["interval"], "count": 2}}, acceptance.criterion_6),
    ({"command": "dirichlet-sharpness"}, acceptance.criterion_7),
    ({"command": "brenier-1d", "params": {"count": 2}}, acceptance.criterion_8),
    ({"command": "lemma1-audit", "params": {"pair": "l1-in-D2"}}, acceptance.criterion_10),
]


@pytest.mark.parametrize("manifest,criterion", SHARED, ids=[m["command"] for m, _ in SHARED])
def test_cli_rows_are_the_criterion_rows(tmp_path, monkeypatch, manifest, criterion):
    # criterion 10 on its first pair only, which is the pair the CLI slice names
    first_pair = corpora.audit_pairs()[:1]
    monkeypatch.setattr(corpora, "audit_pairs", lambda: first_pair)
    out = tmp_path / "out"
    assert cli.main(["--manifest", _write(tmp_path, {**manifest, "out": str(out)})]) == 0
    lines = (out / f"{manifest['command']}.csv").read_text().splitlines()[1:]
    assert len(lines) > 1
    assert lines == criterion(0, 1.0).csv().splitlines()[: len(lines)]


# -- pinned reports -----------------------------------------------------------------------

# SHA-256 of every file each command writes at seed 0 into the relative
# directory "out"; the digests were taken before result records built their
# JSON from their dataclass fields, so that refactor left every report as it was
PINNED_REPORTS = [
    (
        {"command": "ot", "oracle": True, "params": {"instances": 5}},
        {
            "ot.csv": "01552a89babb657338326b7657b82b5e72d43ef167767d9715a08de80fc40d2e",
            "ot.json": "4cf6c68dd2a5cbf25fb658749d47d81c9c08f6c6ac2f326433aa2b46f01379b3",
        },
    ),
    (
        {"command": "tlsi-verify", "params": {"domains": ["interval"], "count": 1, "resolution": 16}},
        {
            "tlsi-verify.csv": "0acc606369707f6a1600650a8a9bbdd066aa80b0ff161ff8824641ee03728d74",
            "tlsi-verify.json": "442b68692f40180595bb7c3126c366d909f9c5c84d65ba277c318f6fb1a3ad44",
        },
    ),
    (
        {"command": "dirichlet-sharpness", "params": {"resolution": 32}},
        {
            "dirichlet-sharpness.csv": "b6a90929521370e77654a16730fdd9f510fd4ee2cb6683ad696c12050cdbf33d",
            "dirichlet-sharpness.json": "0da525c4d229353b286adae7d80fa03f8e33801585d5acefc889220c7a981bcd",
        },
    ),
    (
        {"command": "brenier-1d", "params": {"count": 1, "points": 129}},
        {
            "brenier-1d.csv": "d42c491768d448163ac1cafa43c042220aa91165f896a28b7b6ee8addbf450fd",
            "brenier-1d.json": "3de3b4586fffdc2043541a6cc70ac6c339d6e5c2f48c102fa7acd8cd2c3f6c02",
        },
    ),
    (
        {"command": "wasserstein", "params": {"m": 64, "reps": 3}},
        {
            "wasserstein.csv": "41beb83ff9c3270f58e7de8d36c6370713c19254273a18edc22ce0c072c53630",
            "wasserstein.json": "b14600df801a532d74ef65075610bf4061fb5295c5f215d7fcd44208c2089f1c",
        },
    ),
    (
        {"command": "isotropy", "params": {"m": 2000}},
        {
            "isotropy.csv": "505f5795363c65b3f1717690aaca78b32827130d88fdc90bdbfbf3ccdbf8b3f7",
            "isotropy.json": "f12d665c11aa29ad03017ccff3c4114f8c6e926f7037de2eace2c1dd5060aa3b",
        },
    ),
    (
        {"command": "tci-bound", "params": {"m": 64}},
        {
            "tci-bound.csv": "c04080dce2ef0d3b1f20d83cc150a0338a290a882ba224c4a492f6b31984b3b3",
            "tci-bound.json": "c733368534a5feec90aed83b684634ef78d41161952b9aeb573af83cd6881c83",
        },
    ),
    (
        {"command": "concentration", "params": {"m": 10000}},
        {
            "concentration.csv": "f44a8c2a3397744f2d4f3ed62c4500b9f55d2fc553c06e818d6542750a238319",
            "concentration.json": "937c82dd8e3c209118ec50bd395e6e6db7d3daab152981d938917fb39af28da7",
        },
    ),
]


@pytest.mark.parametrize("manifest,digests", PINNED_REPORTS, ids=[m["command"] for m, _ in PINNED_REPORTS])
def test_report_digests_pinned(tmp_path, monkeypatch, manifest, digests):
    # a relative out path keeps the manifest, and so every file, independent of tmp_path
    monkeypatch.chdir(tmp_path)
    assert cli.main(["--manifest", _write(tmp_path, {**manifest, "seed": 0, "out": "out"})]) == 0
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in (tmp_path / "out").iterdir()}
    assert written == digests
