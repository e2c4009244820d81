import csv
import json
import os
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from conftest import join_checkpoint, read_header, split_checkpoint
from levelmix import checkpoints as ckpt
from levelmix import cli
from levelmix import corpus as cp
from levelmix import toygame

FAST_TRAIN = [
    "--epochs", "25",
    "--hidden-width", "32",
    "--latent-dim", "8",
    "--seed", "7",
]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    manifest = toygame.write_corpus(root / "corpus", levels_per_type=2, cols=32, seed=2)
    return {"root": root, "manifest": str(manifest)}


@pytest.fixture(scope="module")
def trained_checkpoint(workspace):
    out = str(workspace["root"] / "model.json")
    code = cli.run(
        ["train", "--manifest", workspace["manifest"], "--k", "3", "--out", out] + FAST_TRAIN
    )
    assert code == 0
    return out


@pytest.fixture(scope="module")
def baseline_checkpoint(workspace):
    out = str(workspace["root"] / "baseline.json")
    code = cli.run(
        ["train-baseline", "--manifest", workspace["manifest"], "--k", "3", "--out", out]
        + FAST_TRAIN
    )
    assert code == 0
    return out


@pytest.fixture(scope="module")
def checkpoints(trained_checkpoint, baseline_checkpoint):
    """The checkpoint of each model family, by family name."""
    return {"gmvae": trained_checkpoint, "vae-gmm": baseline_checkpoint}


def test_ingest_reports_counts(workspace, capsys):
    code = cli.run(["ingest", "--manifest", workspace["manifest"]])
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["game"] == "toy"
    assert summary["chunks"] == 6 * (32 - 15)
    assert summary["d"] == 256 * summary["vocab_size"]


def test_ingest_chunk_dump(workspace, tmp_path):
    out = tmp_path / "chunks.jsonl"
    code = cli.run(["ingest", "--manifest", workspace["manifest"], "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 6 * 17
    record = json.loads(lines[0])
    assert len(record["rows"]) == 16
    assert all(len(row) == 16 for row in record["rows"])
    assert os.path.exists(str(out) + ".run.json")


def test_ingest_missing_manifest_is_data_error(tmp_path):
    code = cli.run(["ingest", "--manifest", str(tmp_path / "nope.json")])
    assert code == 2


def test_usage_error_exit_code():
    assert cli.run(["no-such-command"]) == 1
    assert cli.run(["train", "--manifest", "x"]) == 1  # missing required flags


def test_train_writes_checkpoint_and_history(workspace, trained_checkpoint):
    payload = read_header(trained_checkpoint)
    assert payload["format"] == "levelmix-gmvae"
    assert payload["run_info"]["command"] == "train"
    assert payload["run_info"]["seed"] == 7
    assert payload["run_info"]["version"]
    assert len(payload["history"]["total_loss"]) == 25
    assert payload["config"]["hidden_width"] == 32


def test_train_determinism_byte_identical(workspace, tmp_path):
    out = tmp_path / "model.json"
    args = ["train", "--manifest", workspace["manifest"], "--k", "2"] + FAST_TRAIN
    assert cli.run(args + ["--epochs", "6", "--out", str(out)]) == 0
    first = out.read_bytes()
    out.unlink()
    assert cli.run(args + ["--epochs", "6", "--out", str(out)]) == 0
    assert out.read_bytes() == first


def test_checkpoint_every_saves_once_per_period(workspace, tmp_path, monkeypatch):
    calls = []
    save = ckpt.save_gmvae

    def counting_save(path, *args, **kwargs):
        calls.append(kwargs.get("run_info") is not None)
        return save(path, *args, **kwargs)

    monkeypatch.setattr(ckpt, "save_gmvae", counting_save)
    out = tmp_path / "model.json"
    args = ["train", "--manifest", workspace["manifest"], "--k", "2", "--out", str(out)] + FAST_TRAIN
    assert cli.run(args + ["--epochs", "4", "--checkpoint-every", "2"]) == 0
    # two periodic saves, then the final one with run_info
    assert calls == [False, False, True]
    assert read_header(out)["run_info"]["command"] == "train"


def _truncate(raw):
    return raw[: len(raw) // 2]


def _edit_header(edit):
    """A corruption that applies edit to the header and keeps the blobs."""

    def corrupt(raw):
        header, data = split_checkpoint(raw)
        edit(header)
        return join_checkpoint(header, data)

    corrupt.__name__ = edit.__name__
    return corrupt


@_edit_header
def _drop_config(header):
    del header["config"]


@_edit_header
def _short_blob(header):
    # the last blob's shape claims a row more than the file holds
    blobs = [layer[part] for net in header["networks"].values() for layer in net["layers"] for part in ("weight", "bias")]
    max(blobs, key=lambda blob: blob["offset"])["shape"][0] += 1


@_edit_header
def _int_blob(header):
    header["networks"]["decoder"]["layers"][0]["bias"]["dtype"] = "<i8"


@_edit_header
def _no_version(header):
    header.clear()
    header["format"] = "levelmix-gmvae"


@_edit_header
def _unknown_format(header):
    header["format"] = "something-else"


@_edit_header
def _future_version(header):
    header["format_version"] = 4


@_edit_header
def _float16_config(header):
    header["config"]["dtype"] = "float16"


@_edit_header
def _one_component_config(header):
    header["config"]["k"] = 1


@_edit_header
def _unchained_layers(header):
    layers = header["networks"]["decoder"]["layers"]
    layers[1] = layers[-1]  # its input width is not the previous layer's output width


@_edit_header
def _latent_dim_config(header):
    # the networks no longer have the shapes the config gives
    header["config"]["latent_dim"] += 1


@pytest.mark.parametrize(
    "corrupt",
    [
        _truncate, _drop_config, _short_blob, _int_blob, _no_version, _unknown_format,
        _future_version, _float16_config, _one_component_config, _unchained_layers, _latent_dim_config,
    ],
)
def test_malformed_checkpoint_is_data_error(trained_checkpoint, tmp_path, capsys, corrupt):
    bad = tmp_path / "bad.json"
    with open(trained_checkpoint, "rb") as f:
        bad.write_bytes(corrupt(f.read()))
    capsys.readouterr()
    code = cli.run(["generate", "--model", str(bad), "--component", "0", "--n", "1"])
    assert code == 2
    lines = capsys.readouterr().err.strip().split("\n")
    assert len(lines) == 1
    error = json.loads(lines[0])
    assert error["error"] == "data" and error["type"] == "DataError"
    assert str(bad) in error["message"]


def _single_error_line(capsys):
    lines = capsys.readouterr().err.strip().split("\n")
    assert len(lines) == 1
    return json.loads(lines[0])


def _with_negative_covariance(checkpoint, tmp_path):
    with open(checkpoint, "rb") as f:
        raw = bytearray(f.read())
    header, data = split_checkpoint(bytes(raw))
    blob = header["gmm"]["covariances"]
    # overwrite the covariance blob's bytes in place
    start = len(raw) - len(data) + blob["offset"]
    covariances = np.frombuffer(raw, dtype=blob["dtype"], count=int(np.prod(blob["shape"])), offset=start)
    covariances = covariances.reshape(blob["shape"]).copy()
    covariances[0] = -np.eye(covariances.shape[1])
    raw[start : start + covariances.nbytes] = covariances.tobytes()
    bad = tmp_path / "bad_covariance.json"
    bad.write_bytes(bytes(raw))
    return str(bad)


def test_non_positive_definite_covariance_is_numeric_error(workspace, baseline_checkpoint, tmp_path, capsys):
    bad = _with_negative_covariance(baseline_checkpoint, tmp_path)
    capsys.readouterr()
    code = cli.run(
        ["eval-cluster", "--model", bad, "--manifest", workspace["manifest"], "--out", str(tmp_path / "c.json")]
    )
    assert code == 3
    error = _single_error_line(capsys)
    assert error["error"] == "numeric" and error["type"] == "SingularCovariance"


def test_generate_from_non_positive_definite_covariance_is_numeric_error(baseline_checkpoint, tmp_path, capsys):
    bad = _with_negative_covariance(baseline_checkpoint, tmp_path)
    capsys.readouterr()
    assert cli.run(["generate", "--model", bad, "--component", "0", "--n", "1"]) == 3
    error = _single_error_line(capsys)
    assert error["error"] == "numeric" and error["type"] == "SingularCovariance"


def test_baseline_checkpoint_with_mismatched_pca_shape_is_data_error(baseline_checkpoint, tmp_path, capsys):
    with open(baseline_checkpoint, "rb") as f:
        header, data = split_checkpoint(f.read())
    header["pca"]["mean"]["shape"][0] -= 1  # one latent dimension short
    bad = tmp_path / "bad_pca.json"
    bad.write_bytes(join_checkpoint(header, data))
    capsys.readouterr()
    assert cli.run(["generate", "--model", str(bad), "--component", "0", "--n", "1"]) == 2
    error = _single_error_line(capsys)
    assert error["error"] == "data" and error["type"] == "DataError"


@pytest.mark.parametrize(
    "text",
    [
        '{"levels": [',
        '["a.txt"]',
        '{"levels": [{"type": "overworld"}]}',
        '{"levels": 5}',
        '{"levels": ["a.txt"], "pad": "top"}',
        '{"levels": ["a.txt"], "pad": {"rows_to": "16"}}',
        '{"levels": ["a.txt"], "pad": {"side": "left"}}',
        '{"levels": ["a.txt"], "jump": {"max_height": "4"}}',
        '{"levels": ["a.txt"], "background": 3}',
        '{"levels": ["a.txt"], "background": "--"}',
        '{"levels": ["a.txt"], "solidity": ["X"]}',
        '{"levels": [{"path": "a.txt", "type": 7}]}',
        '{"levels": ["a.txt"], "game": 3}',
    ],
    ids=[
        "not-json", "not-object", "no-path", "levels-not-list", "pad-not-object",
        "pad-rows-to-string", "pad-side-left", "jump-height-string", "background-number",
        "background-two-chars", "solidity-list", "level-type-number", "game-number",
    ],
)
@pytest.mark.parametrize("command", ["ingest", "train"])
def test_malformed_manifest_is_data_error(tmp_path, capsys, command, text):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(text)
    argv = [command, "--manifest", str(manifest)]
    if command == "train":
        argv += ["--k", "2", "--out", str(tmp_path / "m.json")] + FAST_TRAIN
    capsys.readouterr()
    assert cli.run(argv) == 2
    error = _single_error_line(capsys)
    assert error["error"] == "data" and error["type"] == "DataError"
    assert str(manifest) in error["message"]


@pytest.mark.parametrize(
    "command, flag",
    [
        ("train-baseline", "--label-balance-weight"),
        ("train-baseline", "--tau-start"),
        ("train-baseline", "--tau-min"),
        ("train-baseline", "--tau-decay"),
        ("train-baseline", "--checkpoint-every"),
        ("sweep", "--history-csv"),
        ("sweep", "--checkpoint-every"),
        ("sweep", "--log-every"),
    ],
)
def test_training_commands_reject_flags_they_ignore(workspace, tmp_path, command, flag):
    out = tmp_path / "out"
    argv = [command, "--manifest", workspace["manifest"], "--out", str(out), "--epochs", "1"]
    argv += ["--k", "2"] if command == "train-baseline" else ["--k-list", "2"]
    cli.build_parser().parse_args(argv)  # accepted without the flag
    assert cli.run(argv + [flag, "1"]) == 1
    assert not out.exists()


def _without_vocab(checkpoint, tmp_path):
    with open(checkpoint, "rb") as f:
        header, data = split_checkpoint(f.read())
    header["vocab"] = None
    path = tmp_path / "no_vocab.json"
    path.write_bytes(join_checkpoint(header, data))
    return str(path)


@pytest.mark.parametrize("family", ["gmvae", "vae-gmm"])
@pytest.mark.parametrize("command", ["generate", "eval-disentangle", "eval-playability", "densities"])
def test_checkpoint_without_vocab_is_data_error(workspace, checkpoints, tmp_path, capsys, family, command):
    model = _without_vocab(checkpoints[family], tmp_path)
    out = str(tmp_path / "out")
    argv = {
        "generate": ["--component", "0", "--n", "1"],
        "eval-disentangle": ["--out", out, "--n-per-component", "5", "--n-train", "3"],
        "eval-playability": ["--manifest", workspace["manifest"], "--out", out, "--budget", "6"],
        "densities": ["--out", out, "--n-per-component", "5"],
    }[command]
    capsys.readouterr()
    assert cli.run([command, "--model", model] + argv) == 2
    error = _single_error_line(capsys)
    assert error["error"] == "data" and error["type"] == "DataError"
    assert model in error["message"] and "vocabulary" in error["message"]


@pytest.mark.parametrize("command", ["eval-cluster", "encode"])
def test_checkpoint_without_vocab_uses_corpus_vocab(workspace, trained_checkpoint, tmp_path, command):
    # the toy corpus vocab is the one the model was trained with, so the
    # output matches the one from the full checkpoint
    outputs = []
    for model in (trained_checkpoint, _without_vocab(trained_checkpoint, tmp_path)):
        out = tmp_path / f"out{len(outputs)}"
        assert cli.run([command, "--model", model, "--manifest", workspace["manifest"], "--out", str(out)]) == 0
        text = out.read_text()
        outputs.append(json.loads(text)["report"] if command == "eval-cluster" else text)
    assert outputs[0] == outputs[1]


def test_generate_ascii_output(trained_checkpoint, capsys):
    code = cli.run(["generate", "--model", trained_checkpoint, "--component", "1", "--n", "6"])
    assert code == 0
    blocks = capsys.readouterr().out.strip().split("\n\n")
    assert len(blocks) == 6
    for block in blocks:
        rows = block.split("\n")
        assert len(rows) == 16
        assert all(len(r) == 16 for r in rows)
        # round-trips through the level parser
        grid = cp.parse_level(block)
        assert (grid.rows, grid.cols) == (16, 16)


def test_generate_component_out_of_range_exit_code(trained_checkpoint):
    code = cli.run(["generate", "--model", trained_checkpoint, "--component", "99", "--n", "1"])
    assert code == 1


@pytest.mark.parametrize("family", ["gmvae", "vae-gmm"])
@pytest.mark.parametrize("n", ["0", "-1"])
def test_generate_non_positive_n_is_usage_error(checkpoints, capsys, family, n):
    capsys.readouterr()
    assert cli.run(["generate", "--model", checkpoints[family], "--component", "0", "--n", n]) == 1
    error = _single_error_line(capsys)
    assert error["error"] == "usage" and error["type"] == "ComponentOutOfRange"


def test_generate_deterministic_with_seed(trained_checkpoint, capsys):
    cli.run(["generate", "--model", trained_checkpoint, "--component", "0", "--n", "2", "--seed", "5"])
    first = capsys.readouterr().out
    cli.run(["generate", "--model", trained_checkpoint, "--component", "0", "--n", "2", "--seed", "5"])
    assert capsys.readouterr().out == first


def _encode_rows(workspace, checkpoint, out, *flags):
    code = cli.run(
        ["encode", "--model", checkpoint, "--manifest", workspace["manifest"], "--out", str(out)]
        + list(flags)
    )
    assert code == 0
    with open(out) as f:
        return list(csv.reader(f))


def _check_encode_latent_csv(workspace, checkpoint, tmp_path):
    rows = _encode_rows(workspace, checkpoint, tmp_path / "latents.csv")
    assert len(rows) == 6 * 17 + 1
    assert rows[0][:3] == ["chunk_id", "level_type", "label"]
    assert len(rows[0]) == 3 + 8  # latent-dim 8 override
    values = [float(v) for v in rows[1][3:]]
    assert all(np.isfinite(values))


def test_encode_latent_csv(workspace, trained_checkpoint, tmp_path):
    _check_encode_latent_csv(workspace, trained_checkpoint, tmp_path)


def test_encode_latent_csv_vae_gmm(workspace, baseline_checkpoint, tmp_path):
    _check_encode_latent_csv(workspace, baseline_checkpoint, tmp_path)


@pytest.mark.parametrize("family", ["gmvae", "vae-gmm"])
def test_encode_balanced_writes_sampler_rows(workspace, checkpoints, tmp_path, family):
    rows = _encode_rows(workspace, checkpoints[family], tmp_path / "balanced.csv", "--balanced", "--seed", "3")
    _, vocab, chunks = cp.load_corpus(cp.load_manifest(workspace["manifest"]), heuristic_types=True)
    indices = cp.BalancedSampler([c.level_type for c in chunks], 3).draw(len(chunks))
    picked = [chunks[i] for i in indices]
    assert len(rows) == len(chunks) + 1
    assert [r[0] for r in rows[1:]] == [f"{c.level_id}:{c.offset[0]}:{c.offset[1]}" for c in picked]
    assert [r[1] for r in rows[1:]] == [c.level_type for c in picked]
    _, model, _ = ckpt.load_any(checkpoints[family])
    latents, labels = model.encode(cp.encode_chunks(chunks, vocab)[indices])
    assert [int(r[2]) for r in rows[1:]] == labels.tolist()
    assert np.array_equal(np.array([[float(v) for v in r[3:]] for r in rows[1:]]), latents)


def test_eval_cluster_report(workspace, trained_checkpoint, tmp_path):
    out = tmp_path / "cluster.json"
    code = cli.run(
        ["eval-cluster", "--model", trained_checkpoint, "--manifest", workspace["manifest"], "--out", str(out)]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert 0.0 <= payload["report"]["balanced_accuracy"] <= 1.0
    assert payload["report"]["k"] == 3
    assert payload["run_info"]["command"] == "eval-cluster"


def _check_eval_disentangle_report(checkpoint, tmp_path):
    out = tmp_path / "dis.json"
    code = cli.run(
        [
            "eval-disentangle", "--model", checkpoint, "--out", str(out),
            "--n-per-component", "40", "--n-train", "25", "--seed", "1",
        ]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    report = payload["report"]
    assert len(report["per_component_accuracy"]) == 3
    assert 1.0 >= report["p70"] >= report["p80"] >= report["p90"] >= 0.0


def test_eval_disentangle_report(trained_checkpoint, tmp_path):
    _check_eval_disentangle_report(trained_checkpoint, tmp_path)


def test_eval_disentangle_report_vae_gmm(baseline_checkpoint, tmp_path):
    _check_eval_disentangle_report(baseline_checkpoint, tmp_path)


def _check_eval_playability_report(workspace, checkpoint, tmp_path):
    out = tmp_path / "play.json"
    code = cli.run(
        [
            "eval-playability", "--model", checkpoint,
            "--manifest", workspace["manifest"], "--out", str(out),
            "--budget", "30", "--seed", "1",
        ]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["report"]["total"] == 3 * 10
    assert 0.0 <= payload["report"]["fraction"] <= 1.0


def test_eval_playability_report(workspace, trained_checkpoint, tmp_path):
    _check_eval_playability_report(workspace, trained_checkpoint, tmp_path)


def test_eval_playability_report_vae_gmm(workspace, baseline_checkpoint, tmp_path):
    _check_eval_playability_report(workspace, baseline_checkpoint, tmp_path)


def _check_densities_and_chart_pipeline(checkpoint, tmp_path):
    dens = tmp_path / "dens.csv"
    code = cli.run(
        [
            "densities", "--model", checkpoint, "--out", str(dens),
            "--n-per-component", "20", "--seed", "2",
        ]
    )
    assert code == 0
    with open(dens) as f:
        rows = list(csv.reader(f))
    assert len(rows) == 1 + 3
    chart_dir = tmp_path / "charts"
    code = cli.run(["chart", "--densities", str(dens), "--out-dir", str(chart_dir)])
    assert code == 0
    svgs = sorted(chart_dir.glob("*.svg"))
    assert len(svgs) == 3
    for svg in svgs:
        ET.fromstring(svg.read_text())


def test_densities_and_chart_pipeline(trained_checkpoint, tmp_path):
    _check_densities_and_chart_pipeline(trained_checkpoint, tmp_path)


def test_densities_and_chart_pipeline_vae_gmm(baseline_checkpoint, tmp_path):
    _check_densities_and_chart_pipeline(baseline_checkpoint, tmp_path)


def test_densities_from_corpus_source(workspace, trained_checkpoint, tmp_path):
    dens = tmp_path / "dens_corpus.csv"
    code = cli.run(
        [
            "densities", "--model", trained_checkpoint, "--source", "corpus",
            "--manifest", workspace["manifest"], "--out", str(dens),
        ]
    )
    # corpus labeling may leave a component empty on a tiny model: accept a
    # clean data-error exit as well
    assert code in (0, 2)


def test_baseline_checkpoint_and_eval(workspace, baseline_checkpoint, tmp_path):
    payload = read_header(baseline_checkpoint)
    assert payload["format"] == "levelmix-vae-gmm"
    assert payload["pca"]["m"] >= 1
    out = tmp_path / "cluster_baseline.json"
    code = cli.run(
        ["eval-cluster", "--model", baseline_checkpoint, "--manifest", workspace["manifest"], "--out", str(out)]
    )
    assert code == 0
    assert 0.0 <= json.loads(out.read_text())["report"]["balanced_accuracy"] <= 1.0


def test_generate_from_baseline(baseline_checkpoint, capsys):
    code = cli.run(["generate", "--model", baseline_checkpoint, "--component", "0", "--n", "2"])
    assert code == 0
    blocks = capsys.readouterr().out.strip().split("\n\n")
    assert len(blocks) == 2


def test_sweep_csv(workspace, tmp_path):
    out = tmp_path / "sweep.csv"
    code = cli.run(
        [
            "sweep", "--manifest", workspace["manifest"], "--out", str(out),
            "--k-list", "2,3", "--families", "gmvae,vae-gmm",
            "--epochs", "6", "--hidden-width", "32", "--latent-dim", "8",
            "--n-per-component", "30", "--n-train", "20", "--seed", "3",
        ]
    )
    assert code == 0
    with open(out) as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["family", "k", "p70", "p80", "p90"]
    assert len(rows) == 1 + 4  # 2 families x 2 k values
    families = {r[0] for r in rows[1:]}
    assert families == {"gmvae", "vae-gmm"}


def test_sweep_empty_k_list_usage_error(workspace, tmp_path):
    code = cli.run(
        ["sweep", "--manifest", workspace["manifest"], "--out", str(tmp_path / "s.csv"), "--k-list", ""]
    )
    assert code == 1


def test_render_chunk_ascii_roundtrip(toy_setup):
    vocab = toy_setup["vocab"]
    chunk = toy_setup["chunks"][5]
    lines = cp.chunk_to_lines(chunk, vocab)
    assert len(lines) == 16
    grid = cp.parse_level("\n".join(lines))
    ids = np.array([[vocab.id_of(c) for c in row] for row in grid.tiles])
    assert np.array_equal(ids, chunk.tiles)


def test_render_matches_source_level_window(toy_setup):
    # a corpus chunk's rendering equals the source level's window text
    vocab = toy_setup["vocab"]
    chunk = toy_setup["chunks"][10]
    level = next(lv for lv in toy_setup["levels"] if lv.level_id == chunk.level_id)
    r, c = chunk.offset
    expected = [row[c : c + 16] for row in level.tiles[r : r + 16]]
    assert cp.chunk_to_lines(chunk, vocab) == expected
