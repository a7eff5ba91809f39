import inspect
import json
import math

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


def test_unknown_corpus_domain_exits_one(tmp_path, capsys):
    manifest = {"command": "tlsi-verify", "params": {"domains": ["pentagon"]}}
    assert cli.main(["--manifest", _write(tmp_path, manifest)]) == 1
    assert "error:" in capsys.readouterr().err


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


def test_workers_key_and_flag_rejected(tmp_path, capsys):
    assert cli.main(["--manifest", _write(tmp_path, {"command": "ot", "workers": 2})]) == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["ot", "--workers", "2"])
    assert exc.value.code == 2


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
