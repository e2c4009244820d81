import json
import os

import numpy as np
import pytest

from conftest import small_gmvae_config
from levelmix import baseline as bl
from levelmix import checkpoints as ckpt
from levelmix import gmvae as gm


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


def v1_payload(family, model, history):
    """The model as format 1 wrote it: every array a nested list of float64."""

    def net(n):
        return {
            "layers": [
                {
                    "activation": layer.activation,
                    "weight": layer.weight.astype(np.float64).tolist(),
                    "bias": layer.bias.astype(np.float64).tolist(),
                }
                for layer in n.layers
            ]
        }

    vae = getattr(model, "vae", model)
    vocab = model.vocab
    payload = {
        "format": ckpt.FORMAT_GMVAE if family == "gmvae" else ckpt.FORMAT_VAE_GMM,
        "format_version": 1,
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
            "mean": model.pca.mean.tolist(),
            "axes": model.pca.axes.tolist(),
            "explained_variance": model.pca.explained_variance.tolist(),
            "total_variance": model.pca.total_variance,
            "m": model.pca.m,
        }
        payload["gmm"] = {
            "weights": model.gmm.weights.tolist(),
            "means": model.gmm.means.tolist(),
            "covariances": model.gmm.covariances.tolist(),
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
    path.write_text(json.dumps(v1_payload(family, model, history), sort_keys=True, separators=(",", ":")))
    kind, loaded, loaded_history = ckpt.load_any(path)
    assert kind == family
    assert getattr(loaded, "vae", loaded).networks()["decoder"].dtype == np.dtype(dtype)
    assert_same_params(model, loaded)
    assert loaded_history.total_loss == history.total_loss


@pytest.mark.parametrize("family,dtype", FAMILIES)
def test_v2_save_writes_blobs_and_loads_writable(family, dtype, toy_setup, tmp_path):
    model, history = toy_model(family, dtype, toy_setup)
    path = tmp_path / "v2.json"
    save(family, path, model, history)
    payload = json.loads(path.read_text())
    assert payload["format_version"] == 2
    assert not has_float_list(payload["networks"])
    assert payload["networks"]["decoder"]["layers"][0]["weight"]["dtype"] == np.dtype(dtype).newbyteorder("<").str
    kind, loaded, _ = ckpt.load_any(path)
    assert kind == family
    assert_same_params(model, loaded)
    # no array aliases frombuffer's read-only memory: network arrays are views
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

    def dump_then_fail(obj, f, **kwargs):
        f.write('{"config":')
        raise OSError("disk full")

    monkeypatch.setattr(ckpt.json, "dump", dump_then_fail)
    with pytest.raises(OSError, match="disk full"):
        ckpt.save_gmvae(path, model, history, run_info={"command": "train"})
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["model.json"]

