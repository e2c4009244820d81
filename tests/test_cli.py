import argparse
import csv
import dataclasses
import json
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from conftest import join_checkpoint, read_header, split_checkpoint
import levelmix
from levelmix import baseline as bl
from levelmix import checkpoints as ckpt
from levelmix import cli
from levelmix import corpus as cp
from levelmix import evaluation as ev
from levelmix import gmvae as gm
from levelmix import toygame
from levelmix.errors import UsageError

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


@pytest.mark.parametrize(
    "argv, named",
    [
        (["compare", "--manifest", "m", "--out", "o", "--seed", "3"], "--seed 3"),  # unknown flag
        (["train", "--manifest", "m", "--out", "o", "--k", "abc"], "'abc'"),  # not an integer
        (["train", "--manifest", "m", "--out", "o", "--k", "2", "--dtype", "float16"], "'float16'"),  # before the corpus
        (["train-baseline", "--manifest", "m", "--out", "o", "--k", "2", "--epochs", "1.5"], "'1.5'"),
        (["train", "--manifest", "m", "--k", "2"], "--out"),  # missing required flag
        (["train", "--manifest", "m", "--out", "o", "--k", "2", "--hist", "f"], "--hist"),  # abbreviated
        (["eval-playability", "--model", "c", "--manifest", "m", "--out", "o", "--bud", "5"], "--bud"),
        (["generate", "--model", "c", "--component", "0", "--n", "1.5"], "'1.5'"),
        (["sweep", "--manifest", "m", "--out", "o", "--k-list", "2", "--fam", "gmvae"], "--fam"),
        (["no-such-command"], "'no-such-command'"),
        ([], "command"),
    ],
)
def test_argparse_usage_errors_are_one_json_line(tmp_path, capsys, monkeypatch, argv, named):
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    assert cli.run(argv) == 1
    captured = capsys.readouterr()
    error = json.loads(captured.err)  # exactly one JSON document
    assert captured.err.count("\n") == 1 and captured.out == ""
    assert error["error"] == "usage" and error["type"] == "UsageError" and named in error["message"]
    assert os.listdir(tmp_path) == []


def _readme_commands():
    """Every `levelmix ...` command README.md quotes, in a code block or
    inline (where it may wrap), but the `levelmix <command>` placeholder."""
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md"), encoding="utf-8") as f:
        text = f.read()
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", text, re.S | re.M)
    commands = [line for block in blocks for line in block.splitlines() if line.startswith("levelmix ")]
    prose = re.sub(r"^```.*?^```", "", text, flags=re.S | re.M)
    commands += [" ".join(span.split()) for span in re.findall(r"`(levelmix [^`]+)`", prose)]
    return [c for c in commands if c != "levelmix <command>"]


def test_every_readme_command_parses():
    # so an example in README cannot drift from the flags
    commands = [shlex.split(c)[1:] for c in _readme_commands()]
    assert {"build-manifest", "train", "generate", "densities", "chart", "compare", "sweep"} <= {a[0] for a in commands}
    for argv in commands:
        try:
            assert cli.build_parser().parse_args(argv).command == argv[0]
        except UsageError as exc:
            pytest.fail(f"levelmix {' '.join(argv)}: {exc}")


@pytest.mark.parametrize("argv", [["--help"], ["train", "--help"], ["compare", "-h"]])
def test_help_exits_0(capsys, argv):
    assert cli.run(argv) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: levelmix") and captured.err == ""


def test_train_writes_checkpoint_and_history(workspace, trained_checkpoint):
    payload = read_header(trained_checkpoint)
    assert payload["format"] == "levelmix-gmvae"
    assert payload["run_info"]["command"] == "train"
    assert payload["run_info"]["seed"] == 7
    assert payload["run_info"]["version"]
    assert len(payload["history"]["total_loss"]) == 25
    assert payload["config"]["hidden_width"] == 32


def test_run_info_records_blas_threads_and_cpus(trained_checkpoint, monkeypatch):
    # byte-identical training needs the same BLAS thread count
    info = read_header(trained_checkpoint)["run_info"]
    assert info["openblas_num_threads"] == os.environ.get("OPENBLAS_NUM_THREADS")
    assert info["cpus"] == len(os.sched_getaffinity(0)) >= 1
    args = cli.build_parser().parse_args(["generate", "--model", "m", "--component", "0"])
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    assert cli._run_info("generate", args)["openblas_num_threads"] == "1"
    monkeypatch.delenv("OPENBLAS_NUM_THREADS")
    assert cli._run_info("generate", args)["openblas_num_threads"] is None


def test_import_levelmix_loads_no_module_of_the_package():
    # callers import the modules by name; the package itself holds only the version
    code = "import levelmix, sys; print(levelmix.__version__, sorted(m for m in sys.modules if m.startswith('levelmix.')))"
    src = os.path.dirname(os.path.dirname(levelmix.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout
    assert out == f"{levelmix.__version__} []\n"


def test_train_without_sched_getaffinity_records_the_cpu_count(workspace, tmp_path, monkeypatch):
    # macOS and Windows have no os.sched_getaffinity
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    out = tmp_path / "model.ckpt"
    argv = ["train", "--manifest", workspace["manifest"], "--k", "2", "--out", str(out)] + FAST_TRAIN
    assert cli.run(argv + ["--epochs", "1"]) == 0
    assert read_header(out)["run_info"]["cpus"] == os.cpu_count()


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


@pytest.mark.parametrize("value", ["0", "-1"])
@pytest.mark.parametrize(
    "command, flag",
    [("train", "--log-every"), ("train-baseline", "--log-every"), ("train", "--checkpoint-every")],
)
def test_period_flags_below_one_are_usage_errors(workspace, tmp_path, capsys, monkeypatch, command, flag, value):
    def no_corpus(*args, **kwargs):
        raise AssertionError("read the corpus before checking the period flags")

    monkeypatch.setattr(cp, "load_manifest", no_corpus)
    out = tmp_path / "model.json"
    argv = [command, "--manifest", workspace["manifest"], "--k", "2", "--out", str(out)] + FAST_TRAIN
    capsys.readouterr()
    assert cli.run(argv + ["--epochs", "2", flag, value]) == 1
    error = _single_error_line(capsys)
    assert error["error"] == "usage" and error["type"] == "InvalidConfig"
    assert value in error["message"]
    assert not out.exists()


_LOG_LINE = re.compile(r"epoch \d+/\d+ recon=\S+ kl=\S+ total=\S+ tau=\S+")


@pytest.mark.parametrize("command, every, lines", [("train", 2, 3), ("train-baseline", 3, 2)])
def test_log_every_prints_the_history_row_of_every_nth_epoch(workspace, tmp_path, capsys, command, every, lines):
    history = tmp_path / "history.csv"
    argv = [command, "--manifest", workspace["manifest"], "--k", "2", "--out", str(tmp_path / "model.json")]
    argv += FAST_TRAIN + ["--epochs", "6", "--log-every", str(every), "--history-csv", str(history)]
    capsys.readouterr()
    assert cli.run(argv) == 0
    logged = [line for line in capsys.readouterr().out.splitlines() if _LOG_LINE.fullmatch(line)]
    with open(history, newline="") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 6 and len(logged) == lines
    assert logged == [
        f"epoch {int(r['epoch']) + 1}/6 recon={float(r['recon_loss']):.4f} kl={float(r['kl_loss']):.4f} "
        f"total={float(r['total_loss']):.4f} tau={float(r['temperature']):.3f}"
        for r in rows
        if (int(r["epoch"]) + 1) % every == 0
    ]
    # the plain VAE has no temperature
    assert all(line.endswith(" tau=0.000") for line in logged) == (command == "train-baseline")


# each float field a flag sets, with the values no run can train with:
# NaN and inf everywhere, and a negative weight
_WEIGHTS = ("kl_weight", "recon_weight", "label_balance_weight")
_UNTRAINABLE = [
    (command, field, value)
    for command, cls in (("train", gm.GmvaeConfig), ("train-baseline", gm.VaeConfig))
    for field in ("learning_rate", "tau_start", "tau_min") + _WEIGHTS
    if field in {f.name for f in dataclasses.fields(cls)}
    for value in ("nan", "inf") + (("-1",) if field in _WEIGHTS else ())
]


@pytest.mark.parametrize("command, field, value", _UNTRAINABLE)
def test_untrainable_config_value_is_invalid_config_before_the_corpus_is_read(
    workspace, tmp_path, capsys, monkeypatch, command, field, value
):
    def no_corpus(*args, **kwargs):
        raise AssertionError("read the corpus before checking the config")

    monkeypatch.setattr(cp, "load_manifest", no_corpus)
    out = tmp_path / "model.ckpt"
    argv = [command, "--manifest", workspace["manifest"], "--k", "2", "--out", str(out), "--epochs", "1"]
    capsys.readouterr()
    assert cli.run(argv + ["--" + field.replace("_", "-"), value]) == 1
    error = _single_error_line(capsys)
    assert error["error"] == "usage" and error["type"] == "InvalidConfig" and field in error["message"]
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_training_data_is_uint8_in_every_dtype(workspace, tmp_path, dtype):
    # --dtype sets the model's dtype only; the corpus takes one byte per entry
    args = cli.build_parser().parse_args(
        ["train", "--manifest", workspace["manifest"], "--k", "2", "--out", str(tmp_path / "m"), "--dtype", dtype]
    )
    _, data, _ = cli._training_data(args)
    assert data.dtype == np.uint8 and set(np.unique(data)) == {0, 1}


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
    # the last network's blob claims a parameter more than the file holds
    max(header["networks"].values(), key=lambda blob: blob["offset"])["shape"][0] += 1


@_edit_header
def _int_blob(header):
    header["networks"]["decoder"]["dtype"] = "<i8"


@_edit_header
def _no_version(header):
    header.clear()
    header["format"] = "levelmix-gmvae"


@_edit_header
def _unknown_format(header):
    header["format"] = "something-else"


@_edit_header
def _future_version(header):
    header["format_version"] = 7


@_edit_header
def _float16_config(header):
    header["config"]["dtype"] = "float16"


@_edit_header
def _one_component_config(header):
    header["config"]["k"] = 1


@_edit_header
def _latent_dim_config(header):
    # the networks no longer have the shapes the config gives
    header["config"]["latent_dim"] += 1


@_edit_header
def _float_d_config(header):
    # a JSON float where an int sizes decode_generated's arrays
    header["config"]["d"] = float(header["config"]["d"])


@_edit_header
def _bool_tau_decay_config(header):
    header["config"]["tau_decay"] = True


@_edit_header
def _no_support(header):
    del header["support"]


@_edit_header
def _unsorted_support(header):
    support = header["support"]
    support[0], support[1] = support[1], support[0]


@_edit_header
def _duplicate_support(header):
    # the length still matches the first layers
    header["support"][1] = header["support"][0]


@_edit_header
def _negative_support(header):
    header["support"][0] = -1


@_edit_header
def _support_past_d(header):
    header["support"][-1] = header["config"]["d"]


@_edit_header
def _non_int_support(header):
    header["support"][0] = float(header["support"][0])


@_edit_header
def _bool_support(header):
    header["support"] = [True] + header["support"][1:]


@_edit_header
def _support_not_a_list(header):
    header["support"] = {"0": 0}


@_edit_header
def _short_support(header):
    # sorted and within d, but one column fewer than the first layers hold
    header["support"].pop()


SUPPORT_CORRUPTIONS = [
    _no_support, _unsorted_support, _duplicate_support, _negative_support, _support_past_d,
    _non_int_support, _bool_support, _support_not_a_list, _short_support,
]


def _assert_data_error(path, capsys):
    capsys.readouterr()
    code = cli.run(["generate", "--model", str(path), "--component", "0", "--n", "1"])
    assert code == 2
    lines = capsys.readouterr().err.strip().split("\n")
    assert len(lines) == 1
    error = json.loads(lines[0])
    assert error["error"] == "data" and error["type"] == "DataError"
    assert str(path) in error["message"]
    return error


@pytest.mark.parametrize(
    "corrupt",
    [
        _truncate, _drop_config, _short_blob, _int_blob, _no_version, _unknown_format,
        _future_version, _float16_config, _one_component_config, _latent_dim_config,
        _float_d_config, _bool_tau_decay_config,
    ],
)
def test_malformed_checkpoint_is_data_error(trained_checkpoint, tmp_path, capsys, corrupt):
    bad = tmp_path / "bad.json"
    with open(trained_checkpoint, "rb") as f:
        bad.write_bytes(corrupt(f.read()))
    _assert_data_error(bad, capsys)


@pytest.mark.parametrize("family", ["gmvae", "vae-gmm"])
@pytest.mark.parametrize("corrupt", SUPPORT_CORRUPTIONS)
def test_malformed_support_is_data_error(checkpoints, tmp_path, capsys, family, corrupt):
    bad = tmp_path / "bad.ckpt"
    with open(checkpoints[family], "rb") as f:
        bad.write_bytes(corrupt(f.read()))
    error = _assert_data_error(bad, capsys)
    assert "support" in error["message"]


@_edit_header
def _one_parameter_short(header):
    # within the file, but the config and the support give one more
    header["networks"]["decoder"]["shape"][0] -= 1


@_edit_header
def _huge_hidden_width(header):
    # nets this wide would not fit in any memory, and the config allows it
    header["config"]["hidden_width"] = gm.MAX_SIZE


@pytest.mark.parametrize("family", ["gmvae", "vae-gmm"])
@pytest.mark.parametrize(
    "field, value",
    [("d", 1024.0), ("kl_weight", False), ("latent_dim", gm.MAX_SIZE + 1)],
)
def test_config_field_of_the_wrong_type_or_size_is_data_error_naming_it(checkpoints, tmp_path, capsys, family, field, value):
    with open(checkpoints[family], "rb") as f:
        header, data = split_checkpoint(f.read())
    header["config"][field] = value
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(join_checkpoint(header, data))
    error = _assert_data_error(bad, capsys)
    assert f"InvalidConfig: {field} must be" in error["message"]


@pytest.mark.parametrize("corrupt, network", [(_one_parameter_short, "decoder"), (_huge_hidden_width, "label_net")])
def test_network_blob_of_the_wrong_size_is_data_error_naming_it(trained_checkpoint, tmp_path, capsys, corrupt, network):
    bad = tmp_path / "bad.ckpt"
    with open(trained_checkpoint, "rb") as f:
        bad.write_bytes(corrupt(f.read()))
    tracemalloc.start()
    try:
        error = _assert_data_error(bad, capsys)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert f"network {network} has a blob of shape" in error["message"]
    # the blob's shape is checked before any buffer is sized from the config
    assert peak < 8 * 2**20


@pytest.mark.parametrize("version", [3, 4, 5])
def test_format_3_checkpoint_is_data_error_naming_its_version(trained_checkpoint, tmp_path, capsys, version):
    # format 5 had a d-wide decoder beside the narrowed input nets, format 4
    # stored a weight blob, a bias blob and an activation per layer, and
    # format 3 had that layout without a support, with d-wide input nets;
    # the loader rejects the version before it reads any layout
    @_edit_header
    def as_old_format(header):
        header["format_version"] = version
        if version == 3:
            del header["support"]

    bad = tmp_path / f"v{version}.ckpt"
    with open(trained_checkpoint, "rb") as f:
        bad.write_bytes(as_old_format(f.read()))
    error = _assert_data_error(bad, capsys)
    assert f"format_version {version}" in error["message"]


@pytest.mark.parametrize("family", ["gmvae", "vae-gmm"])
def test_corpus_columns_outside_the_support_are_counted_on_stderr(workspace, checkpoints, tmp_path, capsys, family):
    # a model trained on one level type, read over the whole corpus
    _, vocab, chunks = cp.load_corpus(cp.load_manifest(workspace["manifest"]))
    data = cp.encode_chunks(chunks, vocab)
    one_type = data[[c.level_type == "overworld" for c in chunks]]
    fields = dict(d=data.shape[1], latent_dim=2, hidden_width=8, hidden_depth=1, epochs=1, rng_seed=1)
    path = tmp_path / "one_type.ckpt"
    if family == "gmvae":
        model = gm.build_model(gm.GmvaeConfig(k=2, **fields), vocab)
        gm.fit(model, one_type)
        ckpt.save_gmvae(path, model)
    else:
        model, _ = bl.fit_vae_gmm(one_type, bl.VaeConfig(**fields), 2, vocab=vocab)
        ckpt.save_vae_gmm(path, model)
    outside = np.setdiff1d(np.flatnonzero(data.any(axis=0)), model.support).size
    assert outside > 0 and len(model.support) == np.count_nonzero(one_type.any(axis=0))
    out = str(tmp_path / "out")
    for argv in (
        ["eval-cluster", "--out", out],
        ["encode", "--out", out],
        ["densities", "--source", "corpus", "--out", out],
    ):
        capsys.readouterr()
        assert cli.run(argv + ["--model", str(path), "--manifest", workspace["manifest"]]) == 0, argv
        assert capsys.readouterr().err.splitlines() == [
            f"warning: {outside} set one-hot columns are outside the model's support and are ignored"
        ]
    # a model's own training corpus sets no column outside its support
    capsys.readouterr()
    assert cli.run(["eval-cluster", "--out", out, "--model", checkpoints[family], "--manifest", workspace["manifest"]]) == 0
    assert capsys.readouterr().err == ""


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
        '{"levels": "ab"}',
        '{"levels": {"a.txt": "overworld"}}',
        '{"levels": ["a.txt"], "pad": false}',
        '{"levels": ["a.txt"], "pad": []}',
        '{"levels": ["a.txt"], "jump": 0}',
        '{"levels": ["a.txt"], "solidity": {"X": "solidd"}}',
        '{"levels": ["a.txt"], "solidity": {"XY": "solid"}}',
        "[" * 100_000,
    ],
    ids=[
        "not-json", "not-object", "no-path", "levels-not-list", "pad-not-object",
        "pad-rows-to-string", "pad-side-left", "jump-height-string", "background-number",
        "background-two-chars", "solidity-list", "level-type-number", "game-number",
        "levels-string", "levels-object", "pad-false", "pad-empty-array", "jump-zero",
        "solidity-misspelt-kind", "solidity-two-char-key", "deep-nesting",
    ],
)
@pytest.mark.parametrize("command", ["ingest", "train", "compare"])
def test_malformed_manifest_is_data_error(tmp_path, capsys, command, text):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(text)
    argv = [command, "--manifest", str(manifest)]
    if command == "train":
        argv += ["--k", "2", "--out", str(tmp_path / "m.json")] + FAST_TRAIN
    if command == "compare":
        argv += ["--out", str(tmp_path / "exp1.json"), "--seeds", "0", "--epochs", "1"]
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


def _command_parser(command):
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices[command]


def _flag_fields(cls):
    """The config fields a training command takes a flag for: all but the
    ones it sets itself."""
    return [f for f in dataclasses.fields(cls) if f.name not in ("d", "k", "rng_seed")]


@pytest.mark.parametrize(
    "command, cls",
    [("train", gm.GmvaeConfig), ("train-baseline", gm.VaeConfig), ("sweep", gm.GmvaeConfig), ("compare", gm.GmvaeConfig)],
)
def test_model_flags_are_the_config_fields(command, cls):
    actions = {a.dest: a for a in _command_parser(command)._actions}
    for f in _flag_fields(cls):
        action = actions[f.name]
        assert action.option_strings == ["--" + f.name.replace("_", "-")]
        assert action.default == f.default and type(action.default) is type(f.default)
        if f.name == "dtype":
            assert action.choices == ("float64", "float32")
        else:
            assert action.type is (float if f.default is None else type(f.default))
    mixture = {f.name for f in _flag_fields(gm.GmvaeConfig)} - {f.name for f in _flag_fields(gm.VaeConfig)}
    assert mixture == {"label_balance_weight", "tau_start", "tau_min", "tau_decay"}
    assert mixture & actions.keys() == (mixture if cls is gm.GmvaeConfig else set())


def test_model_flags_reach_the_config(workspace, monkeypatch):
    configs = []

    class NoTraining:
        """A run of the model's config that has trained all its epochs."""

        def __init__(self, model, *args):
            configs.append(model.config)
            self.model, self.epoch, self.history = model, model.config.epochs, gm.TrainingHistory()

    monkeypatch.setattr(gm, "TrainingRun", NoTraining)
    monkeypatch.setattr(ckpt, "save_gmvae", lambda *a, **k: None)
    argv = ["train", "--manifest", workspace["manifest"], "--out", "o", "--k", "4", "--seed", "9"]
    argv += ["--epochs", "3", "--learning-rate", "0.01", "--tau-decay", "0.5", "--dtype", "float32"]
    assert cli.run(argv) == 0
    (config,) = configs
    assert (config.k, config.rng_seed, config.epochs, config.learning_rate) == (4, 9, 3, 0.01)
    assert (config.tau_decay, config.dtype, config.hidden_width) == (0.5, "float32", 512)
    assert config.d == 256 * len(cp.load_corpus(cp.load_manifest(workspace["manifest"]))[1].chars)


def _without_vocab(checkpoint, tmp_path):
    with open(checkpoint, "rb") as f:
        header, data = split_checkpoint(f.read())
    header["vocab"] = None
    path = tmp_path / "no_vocab.json"
    path.write_bytes(join_checkpoint(header, data))
    return str(path)


@pytest.mark.parametrize("family", ["gmvae", "vae-gmm"])
@pytest.mark.parametrize(
    "command", ["generate", "eval-disentangle", "eval-playability", "densities", "eval-cluster", "encode"]
)
def test_checkpoint_without_vocab_is_data_error(workspace, checkpoints, tmp_path, capsys, family, command):
    model = _without_vocab(checkpoints[family], tmp_path)
    out = str(tmp_path / "out")
    # a corpus whose own vocab -XZo has the model's size but not its tiles
    retiled = ["--manifest", _retiled_manifest(workspace, tmp_path, "S", "Z"), "--out", out]
    argv = {
        "generate": ["--component", "0", "--n", "1"],
        "eval-disentangle": ["--out", out, "--n-per-component", "5", "--n-train", "3"],
        "eval-playability": ["--manifest", workspace["manifest"], "--out", out, "--budget", "6"],
        "densities": ["--out", out, "--n-per-component", "5"],
        "eval-cluster": retiled,
        "encode": retiled,
    }[command]
    capsys.readouterr()
    assert cli.run([command, "--model", model] + argv) == 2
    error = _single_error_line(capsys)
    assert error["error"] == "data" and error["type"] == "DataError"
    assert model in error["message"] and "vocabulary" in error["message"]


def _retiled_manifest(workspace, tmp_path, old, new):
    """A copy of the toy corpus with every `old` tile written as `new`."""
    root = os.path.dirname(workspace["manifest"])
    with open(workspace["manifest"]) as f:
        manifest = json.load(f)
    for entry in manifest["levels"]:
        with open(os.path.join(root, entry["path"])) as f:
            (tmp_path / entry["path"]).write_text(f.read().replace(old, new))
    path = tmp_path / "retiled.json"
    path.write_text(json.dumps(manifest))
    return str(path)


CORPUS_COMMANDS = {
    "eval-cluster": ["eval-cluster"],
    "encode": ["encode"],
    "densities": ["densities", "--source", "corpus"],
}


@pytest.mark.parametrize("command", sorted(CORPUS_COMMANDS))
def test_manifest_tile_outside_the_model_vocab_is_data_error(workspace, trained_checkpoint, tmp_path, capsys, command):
    # the manifest's vocab -XZo has the model's size (-SXo) but numbers X, Z
    # and o where the model has S, X and o
    manifest = _retiled_manifest(workspace, tmp_path, "S", "Z")
    out = tmp_path / "out"
    capsys.readouterr()
    argv = CORPUS_COMMANDS[command] + ["--model", trained_checkpoint, "--manifest", manifest, "--out", str(out)]
    assert cli.run(argv) == 2
    error = _single_error_line(capsys)
    assert error["error"] == "data" and error["type"] == "DataError"
    assert "'Z'" in error["message"]
    assert not out.exists()


def test_manifest_with_a_subset_vocab_is_read_in_the_model_vocab(workspace, trained_checkpoint, tmp_path):
    # without S the manifest's own vocab is -Xo, which numbers X and o as
    # the model numbers S and X
    manifest_path = _retiled_manifest(workspace, tmp_path, "S", "-")
    _, model, _ = ckpt.load_any(trained_checkpoint)
    manifest = cp.load_manifest(manifest_path)
    chunks = [
        chunk
        for level in cp.load_levels(manifest, heuristic_types=True)
        for chunk in cp.extract_chunks(level, model.vocab, axis=manifest.axis)
    ]
    data = cp.encode_chunks(chunks, model.vocab)
    labels = model.predict(data)

    def run(command):
        out = tmp_path / command
        argv = CORPUS_COMMANDS[command] + ["--model", trained_checkpoint, "--manifest", manifest_path, "--out", str(out)]
        assert cli.run(argv) == 0
        return out.read_text()

    report = ev.clustering_accuracy(labels, [c.level_type for c in chunks], model.k)
    assert json.loads(run("eval-cluster"))["report"] == report.to_dict()
    rows = list(csv.reader(run("encode").splitlines()))[1:]
    latents, _ = model.encode(data)
    assert [int(r[2]) for r in rows] == labels.tolist()
    assert np.array_equal(np.array([[float(v) for v in r[3:]] for r in rows]), latents)


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


@pytest.mark.parametrize("budget", ["2", "0", "-4"])
def test_eval_playability_budget_below_k_is_usage_error(workspace, trained_checkpoint, tmp_path, capsys, monkeypatch, budget):
    def no_generation(*args, **kwargs):
        raise AssertionError("generated chunks before checking the budget")

    monkeypatch.setattr(gm, "generate", no_generation)
    out = tmp_path / "play.json"
    argv = ["eval-playability", "--model", trained_checkpoint, "--manifest", workspace["manifest"]]
    capsys.readouterr()
    assert cli.run(argv + ["--out", str(out), "--budget", budget]) == 1
    error = _single_error_line(capsys)
    assert error["error"] == "usage" and error["type"] == "UsageError"
    assert f"budget {budget} is below k = 3" in error["message"]
    assert not out.exists()


def test_eval_playability_bad_tiles_are_data_errors(workspace, trained_checkpoint, tmp_path, capsys, monkeypatch):
    out = tmp_path / "play.json"
    argv = ["eval-playability", "--model", trained_checkpoint, "--out", str(out), "--budget", "30"]
    # a solidity map without one of the model's tiles
    with open(workspace["manifest"]) as f:
        manifest = json.load(f)
    manifest["levels"] = [dict(e, path=os.path.join(os.path.dirname(workspace["manifest"]), e["path"]))
                          for e in manifest["levels"]]
    del manifest["solidity"][toygame.COIN]
    uncovered = tmp_path / "uncovered.json"
    uncovered.write_text(json.dumps(manifest))
    capsys.readouterr()
    assert cli.run(argv + ["--manifest", str(uncovered)]) == 2
    error = _single_error_line(capsys)
    assert error["error"] == "data" and repr(toygame.COIN) in error["message"]
    # generated chunks holding a tile id outside the vocab reach the flood
    model = ckpt.load_any(trained_checkpoint)[1]
    bad = cp.Chunk(tiles=np.full((16, 16), model.vocab.size))
    monkeypatch.setattr(gm.GmvaeModel, "generate", lambda self, component, n, rng: [bad] * n)
    assert cli.run(argv + ["--manifest", workspace["manifest"]]) == 2
    error = _single_error_line(capsys)
    assert error["error"] == "data" and error["type"] == "IdOutOfRange"
    assert f"tile id {model.vocab.size} out of range" in error["message"]
    assert not out.exists()


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
    assert code == 0


def test_densities_and_chart_with_an_empty_corpus_component(workspace, trained_checkpoint, tmp_path, capsys):
    # without S, the toy corpus leaves a component of the toy model with no
    # chunk: its row is nan, the others are finite and chart skips it
    manifest = _retiled_manifest(workspace, tmp_path, "S", "-")
    _, model, _ = ckpt.load_any(trained_checkpoint)
    args = cli.build_parser().parse_args(["encode", "--model", "m", "--manifest", manifest, "--out", "o"])
    _, data = cli._model_corpus(args, model)
    empty = sorted(set(range(model.k)) - set(model.predict(data).tolist()))
    assert empty and len(empty) < model.k
    dens = tmp_path / "dens.csv"
    argv = ["densities", "--model", trained_checkpoint, "--source", "corpus", "--manifest", manifest, "--out", str(dens)]
    assert cli.run(argv) == 0
    with open(dens) as f:
        values = np.array([[float(v) for v in row[1:]] for row in list(csv.reader(f))[1:]])
    assert len(values) == model.k
    for i, row in enumerate(values):
        assert np.isnan(row).all() if i in empty else np.isfinite(row).all()
    capsys.readouterr()
    assert cli.run(["chart", "--densities", str(dens), "--out-dir", str(tmp_path / "charts")]) == 0
    written = sorted(p.name for p in (tmp_path / "charts").glob("*.svg"))
    assert written == [f"component_{i:02d}.svg" for i in range(model.k) if i not in empty]
    assert f"skipped components {empty}" in capsys.readouterr().out


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


def test_sweep_csv(workspace, tmp_path, monkeypatch):
    dtypes = []
    build = gm.build_model

    def recording_build(config, vocab=None):
        dtypes.append(config.dtype)
        return build(config, vocab)

    monkeypatch.setattr(gm, "build_model", recording_build)
    out = tmp_path / "sweep.csv"
    code = cli.run(
        [
            "sweep", "--manifest", workspace["manifest"], "--out", str(out),
            "--k-list", "2,3", "--families", "gmvae,vae-gmm", "--dtype", "float32",
            "--epochs", "6", "--hidden-width", "32", "--latent-dim", "8",
            "--n-per-component", "30", "--n-train", "20", "--seed", "3",
        ]
    )
    assert code == 0
    with open(out) as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["family", "k", "p70", "p80", "p90"]
    assert [(r[0], r[1]) for r in rows[1:]] == [
        ("gmvae", "2"), ("gmvae", "3"), ("vae-gmm", "2"), ("vae-gmm", "3"),
    ]
    assert dtypes == ["float32", "float32"]


def test_compare_writes_runs_in_seed_family_order(workspace, tmp_path, monkeypatch):
    dtypes = []
    start = gm.TrainingRun

    def recording_run(model, data, *args):
        dtypes.append((type(model).__name__, data.dtype, model.config.dtype))
        return start(model, data, *args)

    monkeypatch.setattr(gm, "TrainingRun", recording_run)
    out = tmp_path / "exp1.json"
    argv = ["compare", "--manifest", workspace["manifest"], "--out", str(out), "--k", "3", "--seeds", "0,1"]
    argv += ["--dtype", "float32", "--epochs", "2", "--hidden-width", "16", "--latent-dim", "4"]
    assert cli.run(argv) == 0
    # --dtype sets the models' dtype; the corpus stays uint8
    assert dtypes == [("GmvaeModel", np.uint8, "float32"), ("VaeModel", np.uint8, "float32")] * 2
    payload = json.loads(out.read_text())
    assert set(payload) == {"run_info", "report"}
    assert payload["run_info"]["command"] == "compare"
    assert payload["run_info"]["flags"]["seeds"] == "0,1"
    report = payload["report"]
    assert set(report) == {"runs", "median_gmvae", "median_vae_gmm", "families"}
    assert [(r["seed"], r["family"]) for r in report["runs"]] == [
        (0, "gmvae"), (0, "vae-gmm"), (1, "gmvae"), (1, "vae-gmm"),
    ]
    assert all(0.0 <= r["balanced_accuracy"] <= 1.0 for r in report["runs"])
    # the largest of 3 shares, and the largest of 3 softmax entries, for the GMVAE only
    for r in report["runs"]:
        assert 1 / 3 <= r["largest_share"] <= 1.0
        assert (1 / 3 <= r["mean_max_p"] <= 1.0) if r["family"] == "gmvae" else r["mean_max_p"] is None
    for family, key in (("gmvae", "median_gmvae"), ("vae-gmm", "median_vae_gmm")):
        runs = [r for r in report["runs"] if r["family"] == family]
        accuracies = [r["balanced_accuracy"] for r in runs]
        assert report[key] == float(np.median(accuracies))
        assert report["families"][family] == {
            "runs": 2,
            "mean_accuracy": float(np.mean(accuracies)),
            "at_one": sum(a == 1.0 for a in accuracies),
            "one_component": sum(r["largest_share"] == 1.0 for r in runs),
        }


@pytest.mark.parametrize("flags", [["--seeds", ""], ["--seeds", "a"], ["--seeds", "0,x"], ["--seed", "3"]])
def test_compare_bad_seed_flags_are_usage_errors(workspace, tmp_path, capsys, monkeypatch, flags):
    def no_training(*args, **kwargs):
        raise AssertionError("compare trained before it checked its flags")

    monkeypatch.setattr(gm, "TrainingRun", no_training)
    out = tmp_path / "exp1.json"
    argv = ["compare", "--manifest", workspace["manifest"], "--out", str(out), "--epochs", "1"]
    capsys.readouterr()
    assert cli.run(argv + flags) == 1
    assert not out.exists()
    error = _single_error_line(capsys)
    assert error["error"] == "usage" and flags[0] in error["message"]


@pytest.mark.parametrize(
    "argv",
    [
        ["train", "--manifest", "m", "--out", "o", "--k", "2", "--seed", "-1"],
        ["train-baseline", "--manifest", "m", "--out", "o", "--k", "2", "--seed", "-1"],
        ["generate", "--model", "c", "--component", "0", "--seed", "-1"],
        ["encode", "--model", "c", "--manifest", "m", "--out", "o", "--balanced", "--seed", "-1"],
        ["eval-disentangle", "--model", "c", "--out", "o", "--seed", "-1"],
        ["eval-playability", "--model", "c", "--manifest", "m", "--out", "o", "--seed", "-1"],
        ["densities", "--model", "c", "--out", "o", "--seed", "-1"],
        ["sweep", "--manifest", "m", "--out", "o", "--k-list", "2", "--seed", "-1"],
        ["compare", "--manifest", "m", "--out", "o", "--seeds", "-1"],
        ["compare", "--manifest", "m", "--out", "o", "--seeds", "0,-1"],
    ],
    ids=lambda argv: f"{argv[0]} {argv[-1]}",
)
def test_negative_seed_is_invalid_config_before_any_input_is_read(tmp_path, capsys, monkeypatch, argv):
    def no_input(*args, **kwargs):
        raise AssertionError("read a manifest or checkpoint before checking the seed")

    # numpy seeds no generator with a negative value
    monkeypatch.setattr(cp, "load_manifest", no_input)
    monkeypatch.setattr(ckpt, "load_any", no_input)
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    assert cli.run(argv) == 1
    error = _single_error_line(capsys)
    assert error["error"] == "usage" and error["type"] == "InvalidConfig"
    assert argv[-2] in error["message"] and "-1" in error["message"]
    assert os.listdir(tmp_path) == []


def test_sweep_non_integer_k_list_is_usage_error(workspace, tmp_path, capsys):
    capsys.readouterr()
    argv = ["sweep", "--manifest", workspace["manifest"], "--out", str(tmp_path / "s.csv"), "--k-list", "2,x"]
    assert cli.run(argv) == 1
    error = _single_error_line(capsys)
    assert error["error"] == "usage" and "--k-list" in error["message"]


@pytest.mark.parametrize("n_train", ["0", "20", "25"])
def test_eval_disentangle_bad_n_train_is_usage_error(checkpoints, tmp_path, capsys, n_train):
    out = tmp_path / "dis.json"
    argv = ["eval-disentangle", "--model", checkpoints["gmvae"], "--out", str(out), "--n-per-component", "20"]
    capsys.readouterr()
    assert cli.run(argv + ["--n-train", n_train]) == 1
    error = _single_error_line(capsys)
    assert error["error"] == "usage" and "n_train" in error["message"]
    assert not out.exists()


def test_sweep_bad_n_train_is_usage_error_before_training(workspace, tmp_path, capsys, monkeypatch):
    def no_training(*args, **kwargs):
        raise AssertionError("trained a model or read the corpus before checking --n-train")

    monkeypatch.setattr(gm, "TrainingRun", no_training)
    monkeypatch.setattr(cp, "load_manifest", no_training)
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--manifest", workspace["manifest"], "--out", str(out), "--k-list", "2"]
    capsys.readouterr()
    assert cli.run(argv + ["--n-per-component", "20", "--n-train", "20"]) == 1
    assert _single_error_line(capsys)["error"] == "usage"
    assert not out.exists()


def test_sweep_empty_k_list_usage_error(workspace, tmp_path):
    code = cli.run(
        ["sweep", "--manifest", workspace["manifest"], "--out", str(tmp_path / "s.csv"), "--k-list", ""]
    )
    assert code == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["train-baseline", "--k", "0"],
        ["train-baseline", "--k", "-1"],
        ["sweep", "--k-list", "0", "--families", "vae-gmm"],
        ["sweep", "--k-list", "2,-3", "--families", "vae-gmm"],
    ],
)
def test_component_count_below_one_is_invalid_config_before_training(workspace, tmp_path, capsys, monkeypatch, argv):
    def no_training(*args, **kwargs):
        raise AssertionError("trained a model before checking the component count")

    # every fit of either family, in the CLI or a sweep, starts a TrainingRun
    monkeypatch.setattr(gm, "TrainingRun", no_training)
    out, history = tmp_path / "out", tmp_path / "history.csv"
    argv = argv + ["--manifest", workspace["manifest"], "--out", str(out), "--epochs", "1"]
    if argv[0] == "train-baseline":
        argv += ["--history-csv", str(history)]
    capsys.readouterr()
    assert cli.run(argv) == 1
    error = _single_error_line(capsys)
    assert error["error"] == "usage" and error["type"] == "InvalidConfig" and argv[1] in error["message"]
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["generate", "--model", "c", "--component", "0", "--n", "100000000000"],
        ["generate", "--model", "c", "--component", "0", "--n", str(10**18)],
        ["densities", "--model", "c", "--out", "o", "--n-per-component", "100000000000"],
        ["eval-disentangle", "--model", "c", "--out", "o", "--n-train", str(10**18)],
        ["eval-playability", "--model", "c", "--manifest", "m", "--out", "o", "--budget", "100000000000"],
        ["sweep", "--manifest", "m", "--out", "o", "--k-list", "2", "--n-per-component", str(10**18)],
        ["train", "--manifest", "m", "--out", "o", "--k", "2", "--hidden-depth", str(10**18)],
        ["train", "--manifest", "m", "--out", "o", "--k", "2", "--hidden-width", str(10**18)],
        ["train", "--manifest", "m", "--out", "o", "--k", "2", "--latent-dim", str(10**18)],
        ["train", "--manifest", "m", "--out", "o", "--k", str(10**18)],
        ["train-baseline", "--manifest", "m", "--out", "o", "--k", "2", "--hidden-depth", str(10**18)],
        ["train-baseline", "--manifest", "m", "--out", "o", "--k", "2", "--batch-size", str(10**18)],
        ["sweep", "--manifest", "m", "--out", "o", "--k-list", f"2,{10**18}"],
        ["compare", "--manifest", "m", "--out", "o", "--k", str(10**18)],
    ],
    ids=lambda argv: f"{argv[0]} {argv[-2]}",
)
def test_a_size_past_the_bound_is_invalid_config_before_any_input_is_read(tmp_path, capsys, monkeypatch, argv):
    def no_input(*args, **kwargs):
        raise AssertionError("read a manifest or checkpoint before checking the sizes")

    # unbounded, each of these would size an array past memory or past numpy's byte limit
    monkeypatch.setattr(cp, "load_manifest", no_input)
    monkeypatch.setattr(ckpt, "load_any", no_input)
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    assert cli.run(argv) == 1
    error = _single_error_line(capsys)
    assert error["error"] == "usage" and error["type"] == "InvalidConfig"
    assert f"<= {gm.MAX_SIZE}" in error["message"] or f"at most {gm.MAX_SIZE}" in error["message"]
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("command", ["densities", "eval-disentangle"])
@pytest.mark.parametrize("family", ["gmvae", "vae-gmm"])
def test_a_memory_error_is_a_usage_error_line(checkpoints, tmp_path, capsys, monkeypatch, family, command):
    message = "Unable to allocate 7.28 TiB for an array with shape (1000000000, 1000) and data type float64"

    def out_of_memory(self, component, n, rng):
        raise MemoryError(message)

    # raised, not provoked: a real request that size could be granted and then kill the process
    monkeypatch.setattr(gm.GmvaeModel if family == "gmvae" else bl.VaeGmmModel, "generate", out_of_memory)
    out = tmp_path / "out"
    capsys.readouterr()
    assert cli.run([command, "--model", checkpoints[family], "--out", str(out)]) == 1
    error = _single_error_line(capsys)
    assert error == {"error": "usage", "type": "MemoryError", "message": message}
    assert not out.exists()


@pytest.mark.parametrize("families", ["gmvae", "vae-gmm,gmvae"])
def test_sweep_gmvae_component_count_below_two_is_invalid_config_before_training(
    workspace, tmp_path, capsys, monkeypatch, families
):
    def no_training(*args, **kwargs):
        raise AssertionError("trained a model before checking every --k-list entry")

    monkeypatch.setattr(gm, "TrainingRun", no_training)
    argv = ["sweep", "--k-list", "3,1", "--families", families, "--manifest", workspace["manifest"]]
    capsys.readouterr()
    assert cli.run(argv + ["--out", str(tmp_path / "sweep.csv"), "--epochs", "1"]) == 1
    error = _single_error_line(capsys)
    assert error["error"] == "usage" and error["type"] == "InvalidConfig"
    assert error["message"] == "k must be >= 2, got 1"
    assert os.listdir(tmp_path) == []


# each case at the default epochs: without the early refusal, it trains, then fails on writing or fitting
_REFUSED_BEFORE_TRAINING = {
    "train --out in a missing directory": (["train", "--k", "2", "--out", "missing/model.ckpt"], "--out"),
    "train --out a directory": (["train", "--k", "2", "--out", "."], "--out"),
    "train --history-csv in a missing directory": (
        ["train", "--k", "2", "--out", "model.ckpt", "--history-csv", "missing/history.csv"], "--history-csv"),
    # the history CSV and its sidecar, written last, would take the checkpoint's place
    "train --out and --history-csv of one file": (
        ["train", "--k", "2", "--out", "model.ckpt", "--history-csv", "./model.ckpt"],
        "--out model.ckpt and --history-csv ./model.ckpt"),
    "train-baseline --out and --history-csv of one file": (
        ["train-baseline", "--k", "2", "--out", "model.ckpt", "--history-csv", "model.ckpt"],
        "--out model.ckpt and --history-csv model.ckpt"),
    "train --out the --history-csv sidecar": (
        ["train", "--k", "2", "--out", "history.csv.run.json", "--history-csv", "history.csv"],
        "--out history.csv.run.json and --history-csv history.csv"),
    "compare --out in a missing directory": (["compare", "--out", "missing/compare.json"], "--out"),
    "sweep --out in a missing directory": (["sweep", "--k-list", "2", "--out", "missing/sweep.csv"], "--out"),
    "train-baseline k above the chunk count": (["train-baseline", "--k", "500", "--out", "model.ckpt"], None),
    "compare k above the chunk count": (["compare", "--k", "500", "--out", "compare.json"], None),
    "sweep k above the chunk count": (["sweep", "--k-list", "2,500", "--out", "sweep.csv"], None),
}


@pytest.mark.parametrize("case", list(_REFUSED_BEFORE_TRAINING))
def test_a_bad_output_path_or_baseline_k_is_refused_before_training(workspace, tmp_path, capsys, monkeypatch, case):
    def no_training(*args, **kwargs):
        raise AssertionError("trained an epoch before refusing")

    monkeypatch.setattr(gm.TrainingRun, "train_epoch", no_training)
    monkeypatch.chdir(tmp_path)
    argv, flag = _REFUSED_BEFORE_TRAINING[case]
    capsys.readouterr()
    if argv[0].startswith("train"):
        argv = argv + ["--log-every", "1"]
    assert cli.run(argv + ["--manifest", workspace["manifest"]]) == 2
    out, err = capsys.readouterr()
    error = json.loads(err)
    assert len(err.splitlines()) == 1 and "epoch" not in out
    if flag:
        assert error["type"] == "DataError" and error["message"].startswith(flag + " ")
    else:
        chunks = 6 * (32 - 15)
        assert error == {"error": "data", "type": "DegenerateData", "message": f"need at least k=500 points, got {chunks}"}
    assert os.listdir(tmp_path) == []


# (argv, the input flag, the output flag): each output, or the sidecar written
# beside it, names the input file
_OUTPUT_NAMES_AN_INPUT = {
    "generate --model": (["generate", "--model", "m.ckpt", "--component", "0", "--out", "m.ckpt"], "--model", "--out"),
    "encode --model": (["encode", "--model", "m.ckpt", "--manifest", "toy.json", "--out", "m.ckpt"], "--model", "--out"),
    "encode --manifest": (
        ["encode", "--model", "m.ckpt", "--manifest", "toy.json", "--out", "./toy.json"], "--manifest", "--out"),
    "eval-cluster --model": (
        ["eval-cluster", "--model", "m.ckpt", "--manifest", "toy.json", "--out", "m.ckpt"], "--model", "--out"),
    "eval-cluster --manifest": (
        ["eval-cluster", "--model", "m.ckpt", "--manifest", "toy.json", "--out", "toy.json"], "--manifest", "--out"),
    "eval-disentangle --model": (["eval-disentangle", "--model", "m.ckpt", "--out", "m.ckpt"], "--model", "--out"),
    "eval-playability --model": (
        ["eval-playability", "--model", "m.ckpt", "--manifest", "toy.json", "--out", "m.ckpt"], "--model", "--out"),
    "eval-playability --manifest": (
        ["eval-playability", "--model", "m.ckpt", "--manifest", "toy.json", "--out", "toy.json"], "--manifest", "--out"),
    "densities --model": (["densities", "--model", "m.ckpt", "--out", "m.ckpt"], "--model", "--out"),
    "densities --manifest": (
        ["densities", "--model", "m.ckpt", "--source", "corpus", "--manifest", "toy.json", "--out", "toy.json"],
        "--manifest", "--out"),
    "ingest --manifest": (["ingest", "--manifest", "toy.json", "--out", "toy.json"], "--manifest", "--out"),
    "ingest --manifest as the --out sidecar": (
        ["ingest", "--manifest", "dump.run.json", "--out", "dump"], "--manifest", "--out"),
    "train --manifest": (["train", "--k", "2", "--manifest", "toy.json", "--out", "toy.json"], "--manifest", "--out"),
    "train-baseline --manifest": (
        ["train-baseline", "--k", "2", "--manifest", "toy.json", "--out", "toy.json"], "--manifest", "--out"),
    "sweep --manifest": (["sweep", "--k-list", "2", "--manifest", "toy.json", "--out", "toy.json"], "--manifest", "--out"),
    "compare --manifest": (["compare", "--manifest", "toy.json", "--out", "toy.json"], "--manifest", "--out"),
    "train --history-csv": (
        ["train", "--k", "2", "--manifest", "toy.json", "--out", "m2.ckpt", "--history-csv", "toy.json"],
        "--manifest", "--history-csv"),
    "train-baseline --history-csv sidecar": (
        ["train-baseline", "--k", "2", "--manifest", "h.csv.run.json", "--out", "m2.ckpt", "--history-csv", "h.csv"],
        "--manifest", "--history-csv"),
}


@pytest.mark.parametrize("case", list(_OUTPUT_NAMES_AN_INPUT))
def test_an_output_that_names_an_input_is_refused_before_any_input_is_read(tmp_path, capsys, monkeypatch, case):
    def no_input(*args, **kwargs):
        raise AssertionError("read an input before refusing")

    monkeypatch.setattr(cp, "load_manifest", no_input)
    monkeypatch.setattr(ckpt, "load_any", no_input)
    monkeypatch.chdir(tmp_path)
    argv, input_flag, output_flag = _OUTPUT_NAMES_AN_INPUT[case]
    inputs = {argv[i + 1]: f"the bytes of {argv[i + 1]}".encode() for i in range(len(argv))
              if argv[i] in ("--model", "--manifest")}
    for name, data in inputs.items():
        (tmp_path / name).write_bytes(data)
    capsys.readouterr()
    assert cli.run(argv) == 2
    error = _single_error_line(capsys)
    input_path, output_path = argv[argv.index(input_flag) + 1], argv[argv.index(output_flag) + 1]
    assert error == {
        "error": "data",
        "type": "DataError",
        "message": f"{input_flag} {input_path} and {output_flag} {output_path} (or its sidecar) name one file",
    }
    assert sorted(os.listdir(tmp_path)) == sorted(os.path.normpath(name) for name in inputs)
    for name, data in inputs.items():
        assert (tmp_path / name).read_bytes() == data


def test_a_memory_error_in_generation_is_a_usage_error_line_from_sweep(workspace, tmp_path, capsys, monkeypatch):
    def out_of_memory(self, component, n, rng):
        raise MemoryError("generation")

    monkeypatch.setattr(gm.GmvaeModel, "generate", out_of_memory)
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--k-list", "2", "--families", "gmvae", "--manifest", workspace["manifest"], "--out", str(out)]
    capsys.readouterr()
    assert cli.run(argv + ["--epochs", "1", "--hidden-width", "16", "--latent-dim", "4"]) == 1
    assert _single_error_line(capsys) == {"error": "usage", "type": "MemoryError", "message": "generation"}
    assert not out.exists()


def test_eval_disentangle_out_in_a_missing_directory_is_refused_before_the_probe_trains(
    trained_checkpoint, tmp_path, capsys, monkeypatch
):
    def no_probe(*args, **kwargs):
        raise AssertionError("trained the probe before refusing")

    monkeypatch.setattr(ev, "train_probe", no_probe)
    capsys.readouterr()
    argv = ["eval-disentangle", "--model", trained_checkpoint, "--out", str(tmp_path / "missing" / "dis.json")]
    assert cli.run(argv) == 2
    error = _single_error_line(capsys)
    assert error["type"] == "DataError" and error["message"].startswith("--out ")
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize(
    "content",
    [
        b"",
        b"component,X,o\n0,1.0,abc\n",
        b"component,X,o\n0,1.0,0.5\n1,0.5\n",
        b"component,X,o\n0,1.0,\xff\n",
    ],
    ids=["empty", "not-a-number", "unequal-rows", "not-utf-8"],
)
def test_chart_of_a_malformed_densities_csv_is_data_error(tmp_path, capsys, content):
    dens = tmp_path / "dens.csv"
    dens.write_bytes(content)
    capsys.readouterr()
    assert cli.run(["chart", "--densities", str(dens), "--out-dir", str(tmp_path / "charts")]) == 2
    error = _single_error_line(capsys)
    assert error["error"] == "data" and error["type"] == "DataError" and str(dens) in error["message"]
    assert os.listdir(tmp_path) == ["dens.csv"]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-0.5", "1.5"])
def test_chart_of_a_density_outside_0_1_is_data_error_naming_its_cell(tmp_path, capsys, value):
    # component 0's row of nan only is an empty component's, which chart skips
    dens = tmp_path / "dens.csv"
    dens.write_text(f"component,X,o\n0,nan,nan\n1,{value},0.5\n")
    capsys.readouterr()
    assert cli.run(["chart", "--densities", str(dens), "--out-dir", str(tmp_path / "charts")]) == 2
    error = _single_error_line(capsys)
    assert error["error"] == "data" and error["type"] == "DataError"
    assert f"{dens}: density '{value}' of component '1', tile 'X' is not in [0, 1]" in error["message"]
    assert os.listdir(tmp_path) == ["dens.csv"]


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
