import base64
import contextlib
import io
import json
import os
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import small_gmvae_config, split_checkpoint
from levelmix import baseline as bl
from levelmix import checkpoints as ckpt
from levelmix import cli
from levelmix import gmvae as gm
from levelmix import toygame


def toy_model(family, dtype, toy_setup):
    """A one-epoch toy model of the family, with its history."""
    data = toy_setup["data"][:96]
    if family == "gmvae":
        model = gm.build_model(small_gmvae_config(data.shape[1], dtype=dtype, epochs=1), toy_setup["vocab"])
        return model, gm.train(model, data)
    config = bl.VaeConfig(d=data.shape[1], latent_dim=8, hidden_width=32, epochs=1, rng_seed=3, dtype=dtype)
    return bl.fit_vae_gmm(data, config, 3, gmm_seed=3, vocab=toy_setup["vocab"])


def save(family, path, model, history=None):
    (ckpt.save_gmvae if family == "gmvae" else ckpt.save_vae_gmm)(path, model, history)


def params(model):
    """Every saved array: network weights and biases, then PCA and GMM arrays."""
    nets = getattr(model, "vae", model).networks()
    arrays = [p for net in nets.values() for p in net.param_arrays()]
    if hasattr(model, "pca"):
        arrays += [model.pca.mean, model.pca.axes, model.pca.explained_variance]
        arrays += [model.gmm.weights, model.gmm.means, model.gmm.covariances]
    return arrays


def assert_same_params(saved, loaded):
    a, b = params(saved), params(loaded)
    assert len(a) == len(b)
    for p1, p2 in zip(a, b):
        assert p1.dtype == p2.dtype and p1.shape == p2.shape
        assert p1.tobytes() == p2.tobytes()


def v1_array(array, dtype=np.float64):
    """An array as format 1 wrote it: a nested list of float64."""
    return array.astype(np.float64).tolist()


def v2_array(array, dtype=np.float64):
    """An array as format 2 wrote it: base64 of its little-endian bytes in dtype."""
    a = np.ascontiguousarray(array, dtype=np.dtype(dtype).newbyteorder("<"))
    return {"dtype": a.dtype.str, "shape": list(a.shape), "data": base64.b64encode(a.tobytes()).decode("ascii")}


def json_payload(family, model, history, version=1):
    """The model as format 1 or 2 wrote it, as one JSON object."""
    array = v1_array if version == 1 else v2_array

    def net(n):
        return {
            "layers": [
                {
                    "activation": layer.activation,
                    "weight": array(layer.weight, n.dtype),
                    "bias": array(layer.bias, n.dtype),
                }
                for layer in n.layers
            ]
        }

    vae = getattr(model, "vae", model)
    vocab = model.vocab
    payload = {
        "format": ckpt.FORMAT_GMVAE if family == "gmvae" else ckpt.FORMAT_VAE_GMM,
        "format_version": version,
        "game": vocab.game,
        "config": vars(vae.config),
        "vocab": {"game": vocab.game, "chars": "".join(vocab.chars), "background": vocab.background_char},
        "networks": {name: net(n) for name, n in vae.networks().items()},
        "history": {
            "recon_loss": history.recon_loss,
            "kl_loss": history.kl_loss,
            "label_balance_loss": history.label_balance_loss,
            "total_loss": history.total_loss,
            "temperature": history.temperature,
        },
        "run_info": None,
    }
    if family == "vae-gmm":
        payload["pca"] = {
            "mean": array(model.pca.mean),
            "axes": array(model.pca.axes),
            "explained_variance": array(model.pca.explained_variance),
            "total_variance": model.pca.total_variance,
            "m": model.pca.m,
        }
        payload["gmm"] = {
            "weights": array(model.gmm.weights),
            "means": array(model.gmm.means),
            "covariances": array(model.gmm.covariances),
            "log_likelihood_trace": model.gmm.log_likelihood_trace,
        }
    return payload


def has_float_list(node):
    if isinstance(node, dict):
        return any(has_float_list(v) for v in node.values())
    if isinstance(node, list):
        return any(isinstance(v, float) or has_float_list(v) for v in node)
    return False


FAMILIES = [("gmvae", "float64"), ("gmvae", "float32"), ("vae-gmm", "float64"), ("vae-gmm", "float32")]


@pytest.mark.parametrize("family,dtype", FAMILIES)
def test_v1_checkpoint_loads_bit_exact(family, dtype, toy_setup, tmp_path):
    model, history = toy_model(family, dtype, toy_setup)
    path = tmp_path / "v1.json"
    path.write_text(json.dumps(json_payload(family, model, history), sort_keys=True, separators=(",", ":")))
    kind, loaded, loaded_history = ckpt.load_any(path)
    assert kind == family
    assert getattr(loaded, "vae", loaded).networks()["decoder"].dtype == np.dtype(dtype)
    assert_same_params(model, loaded)
    assert loaded_history.total_loss == history.total_loss


@pytest.mark.parametrize("family,dtype", FAMILIES)
def test_v2_checkpoint_loads_bit_exact(family, dtype, toy_setup, tmp_path):
    model, history = toy_model(family, dtype, toy_setup)
    path = tmp_path / "v2.json"
    path.write_text(json.dumps(json_payload(family, model, history, 2), sort_keys=True, separators=(",", ":")))
    kind, loaded, loaded_history = ckpt.load_any(path)
    assert kind == family
    assert_same_params(model, loaded)
    assert loaded_history.total_loss == history.total_loss


def blob_entries(node):
    """Every blob in a header, in no particular order."""
    if isinstance(node, dict):
        if "offset" in node:
            return [node]
        return [b for v in node.values() for b in blob_entries(v)]
    if isinstance(node, list):
        return [b for v in node for b in blob_entries(v)]
    return []


@pytest.mark.parametrize("family,dtype", FAMILIES)
def test_v3_save_writes_aligned_blobs_and_loads_writable(family, dtype, toy_setup, tmp_path):
    model, history = toy_model(family, dtype, toy_setup)
    path = tmp_path / "model.ckpt"
    save(family, path, model, history)
    raw = path.read_bytes()
    header, data = split_checkpoint(raw)
    assert header["format_version"] == 3
    assert not has_float_list(header["networks"])
    assert header["networks"]["decoder"]["layers"][0]["weight"]["dtype"] == np.dtype(dtype).newbyteorder("<").str
    assert (len(raw) - len(data)) % 64 == 0
    # blobs are 64-byte aligned, in write order, with zero bytes between them
    blobs = sorted(blob_entries(header), key=lambda b: b["offset"])
    assert len(blobs) == len(params(model))
    end = 0
    for blob in blobs:
        assert blob["offset"] % 64 == 0 and blob["offset"] >= end
        assert not any(data[end : blob["offset"]])
        end = blob["offset"] + int(np.prod(blob["shape"])) * np.dtype(blob["dtype"]).itemsize
    assert end == len(data)
    # an equal model gives identical bytes
    save(family, tmp_path / "again.ckpt", model, history)
    assert (tmp_path / "again.ckpt").read_bytes() == raw
    kind, loaded, _ = ckpt.load_any(path)
    assert kind == family
    assert_same_params(model, loaded)
    # every array is writable: network arrays are views
    # of their own net's parameter buffer, the PCA and GMM arrays own theirs
    nets = getattr(loaded, "vae", loaded).networks().values()
    net_arrays = [(p, net.params) for net in nets for p in net.param_arrays()]
    for net in nets:
        assert net.params.flags.owndata
    for p, buffer in net_arrays:
        assert p.flags.writeable and np.shares_memory(p, buffer)
    for p in params(loaded)[len(net_arrays):]:
        assert p.flags.writeable and p.flags.owndata
    # a loaded model can be trained further
    if family == "gmvae":
        gm.train(loaded, toy_setup["data"][:64])


def test_failed_save_keeps_previous_checkpoint(toy_setup, tmp_path, monkeypatch):
    model, history = toy_model("gmvae", "float64", toy_setup)
    path = tmp_path / "model.json"
    ckpt.save_gmvae(path, model, history)
    before = path.read_bytes()

    def fail_fsync(fd):
        raise OSError("disk full")

    monkeypatch.setattr(ckpt.os, "fsync", fail_fsync)
    with pytest.raises(OSError, match="disk full"):
        ckpt.save_gmvae(path, model, history, run_info={"command": "train"})
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["model.json"]


@pytest.fixture(scope="module")
def fuzz_workspace(tmp_path_factory):
    """A tiny toy corpus and a model of each family, as format-3 and
    format-2 bytes, with the length of the header part of each."""
    root = tmp_path_factory.mktemp("fuzz")
    manifest = str(toygame.write_corpus(root / "corpus", levels_per_type=1, cols=20, seed=2))
    files = {}
    for family, command in (("gmvae", "train"), ("vae-gmm", "train-baseline")):
        path = root / f"{family}.ckpt"
        argv = [command, "--manifest", manifest, "--k", "2", "--out", str(path), "--epochs", "1"]
        argv += ["--hidden-width", "8", "--hidden-depth", "1", "--latent-dim", "2", "--seed", "1"]
        assert cli.run(argv) == 0
        v3 = path.read_bytes()
        _, model, history = ckpt.load_any(path)
        v2 = json.dumps(json_payload(family, model, history, 2), sort_keys=True, separators=(",", ":")).encode()
        # format 2 is all header; format 3's header ends where its data section starts
        files[family, 2] = (v2, len(v2))
        files[family, 3] = (v3, len(v3) - len(split_checkpoint(v3)[1]))
    return {"root": root, "manifest": manifest, "files": files}


def assert_clean_exit(workspace, raw):
    """generate and eval-cluster on a damaged checkpoint exit 0, 2 or 3,
    each with at most one JSON error line and never an uncaught exception."""
    path = workspace["root"] / "damaged.ckpt"
    path.write_bytes(raw)
    for argv in (
        ["generate", "--model", str(path), "--component", "0", "--n", "1"],
        ["eval-cluster", "--model", str(path), "--manifest", workspace["manifest"],
         "--out", str(workspace["root"] / "cluster.json")],
    ):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.run(argv)
        lines = err.getvalue().splitlines()
        assert code in (0, 2, 3), (argv[0], code, lines)
        assert len(lines) == (code != 0), (argv[0], code, lines)
        if lines:
            assert json.loads(lines[0])["error"] == ("data" if code == 2 else "numeric")


FUZZ = settings(max_examples=50, deadline=None, derandomize=True)
FUZZ_FILES = pytest.mark.parametrize(
    "family,version", [("gmvae", 3), ("gmvae", 2), ("vae-gmm", 3), ("vae-gmm", 2)]
)
# damaged weights may be inf or nan, and numpy warns about the arithmetic
QUIET = pytest.mark.filterwarnings("ignore::RuntimeWarning")


@QUIET
@FUZZ_FILES
@FUZZ
@given(data=st.data())
def test_truncated_checkpoint_exits_cleanly(fuzz_workspace, family, version, data):
    raw, _ = fuzz_workspace["files"][family, version]
    assert_clean_exit(fuzz_workspace, raw[: data.draw(st.integers(0, len(raw) - 1))])


@QUIET
@FUZZ_FILES
@FUZZ
@given(data=st.data(), mask=st.integers(1, 255))
def test_checkpoint_with_a_flipped_byte_exits_cleanly(fuzz_workspace, family, version, data, mask):
    raw, header_end = fuzz_workspace["files"][family, version]
    # any byte, with half the draws in the header, where most of the
    # structure is but few of the bytes are
    at = data.draw(st.one_of(st.integers(0, header_end - 1), st.integers(0, len(raw) - 1)))
    damaged = bytearray(raw)
    damaged[at] ^= mask
    assert_clean_exit(fuzz_workspace, bytes(damaged))


@QUIET
@FUZZ_FILES
@FUZZ
@given(length=st.integers(0, 2**64 - 1))
def test_checkpoint_with_any_header_length_exits_cleanly(fuzz_workspace, family, version, length):
    # bytes 8-16 are format 3's header length; in format 2 they are JSON text
    raw, _ = fuzz_workspace["files"][family, version]
    assert_clean_exit(fuzz_workspace, raw[:8] + struct.pack("<Q", length) + raw[16:])
