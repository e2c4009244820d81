"""JSON checkpoint formats for trained models.

A checkpoint is one JSON object: format, format_version, config, vocab,
networks, history and run_info (plus pca and gmm for the baseline). In format
version 2 every numpy array is a blob {"dtype": "<f8" | "<f4", "shape": [...],
"data": base64 of the array's little-endian bytes}, so parameters survive
save/load bit-exactly in the model's dtype with no decimal conversion.
Scalars and plain lists (history, total_variance, m, the EM trace) stay JSON
numbers. Version 1 files, which store arrays as nested float lists, are still
read. Files are written with sorted keys and fixed separators, so identical
models give identical bytes, and they are written to a temporary file that
is then renamed over the target, so a crash mid-save keeps the previous file.
"""

from __future__ import annotations

import base64
import contextlib
import json
import math
import os

import numpy as np

from .baseline import GmmModel, PcaProjection, VaeGmmModel, VaeModel
from .corpus import TileVocab
from .errors import DataError, InvalidConfig
from .gmvae import GmvaeConfig, GmvaeModel, TrainingHistory, VaeConfig
from .neuralnet import DenseNet

FORMAT_GMVAE = "levelmix-gmvae"
FORMAT_VAE_GMM = "levelmix-vae-gmm"
FORMAT_VERSION = 2
READABLE_VERSIONS = (1, 2)
BLOB_DTYPES = ("<f8", "<f4")


def _encode_array(array, dtype=np.float64):
    """An array as a format-2 blob of dtype's little-endian bytes."""
    a = np.ascontiguousarray(array, dtype=np.dtype(dtype).newbyteorder("<"))
    return {
        "dtype": a.dtype.str,
        "shape": list(a.shape),
        "data": base64.b64encode(a.tobytes()).decode("ascii"),
    }


def _array_shape(value):
    """The shape of a nested list (format 1) or a blob (format 2)."""
    if isinstance(value, list):
        return np.shape(value)
    shape = value["shape"]
    if not (isinstance(shape, list) and all(type(n) is int and n >= 0 for n in shape)):
        raise DataError(f"array shape {shape!r} is not a list of sizes")
    return tuple(shape)


def _decode_array(value, dtype=np.float64, out=None):
    """A nested list (format 1) or a blob (format 2) as an owned, writable
    array of dtype or, given out, written into out."""
    if isinstance(value, list):
        array = np.array(value, dtype=dtype)
    else:
        shape, blob_dtype = _array_shape(value), value["dtype"]
        if blob_dtype not in BLOB_DTYPES:
            raise DataError(f"array dtype {blob_dtype!r} is not one of {BLOB_DTYPES}")
        raw = base64.b64decode(value["data"], validate=True)
        expected = math.prod(shape) * np.dtype(blob_dtype).itemsize
        if len(raw) != expected:
            raise DataError(f"array of shape {list(shape)} {blob_dtype} has {len(raw)} bytes, expected {expected}")
        array = np.frombuffer(raw, dtype=blob_dtype).reshape(shape)
    if out is None:
        # astype copies, so a blob's array does not share frombuffer's read-only memory
        return array if isinstance(value, list) else array.astype(dtype)
    if array.shape != out.shape:
        raise DataError(f"array of shape {list(array.shape)} where {list(out.shape)} is expected")
    out[...] = array
    return out


def _net_to_dict(net):
    return {
        "layers": [
            {
                "activation": layer.activation,
                "weight": _encode_array(layer.weight, net.dtype),
                "bias": _encode_array(layer.bias, net.dtype),
            }
            for layer in net.layers
        ]
    }


def _net_from_dict(data, dtype):
    """The net the layer entries describe, each array decoded into its view
    of the net's parameter buffer."""
    entries = data["layers"]
    shapes = [_array_shape(entry["weight"]) for entry in entries]
    if not shapes or any(len(shape) != 2 for shape in shapes):
        raise DataError(f"layer weight shapes {shapes} are not a list of matrices")
    sizes = [shapes[0][1]] + [shape[0] for shape in shapes]
    net = DenseNet.zeros(sizes, [entry["activation"] for entry in entries], dtype)
    for entry, layer in zip(entries, net.layers):
        _decode_array(entry["weight"], net.dtype, out=layer.weight)
        _decode_array(entry["bias"], net.dtype, out=layer.bias)
    return net


def _vocab_to_dict(vocab):
    if vocab is None:
        return None
    return {
        "game": vocab.game,
        "chars": "".join(vocab.chars),
        "background": vocab.background_char,
    }


def _vocab_from_dict(data):
    if data is None:
        return None
    return TileVocab(
        game=data["game"], chars=tuple(data["chars"]), background_char=data["background"]
    )


def _history_from_dict(data):
    if data is None:
        return None
    return TrainingHistory(
        recon_loss=list(data["recon_loss"]),
        kl_loss=list(data["kl_loss"]),
        label_balance_loss=list(data.get("label_balance_loss", [])),
        total_loss=list(data["total_loss"]),
        temperature=list(data["temperature"]),
    )


def _dump(path, payload):
    """Write payload to <path>.tmp, sync it, then rename it over path, so a
    failed save leaves the previous file as it was."""
    tmp = os.fspath(path) + ".tmp"
    try:
        with open(tmp, "w") as f:
            json.dump(payload, f, sort_keys=True, separators=(",", ":"))
            f.write("\n")
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def _envelope(fmt, vocab, config, nets, history, run_info):
    return {
        "format": fmt,
        "format_version": FORMAT_VERSION,
        "game": vocab.game if vocab else "",
        "config": vars(config),
        "vocab": _vocab_to_dict(vocab),
        "networks": {name: _net_to_dict(net) for name, net in nets.items()},
        "history": None if history is None else vars(history),
        "run_info": run_info,
    }


def save_gmvae(path, model, history=None, run_info=None):
    _dump(path, _envelope(FORMAT_GMVAE, model.vocab, model.config, model.networks(), history, run_info))


def save_vae_gmm(path, model, history=None, run_info=None):
    payload = _envelope(FORMAT_VAE_GMM, model.vocab, model.vae.config, model.vae.networks(), history, run_info)
    payload["pca"] = {
        "mean": _encode_array(model.pca.mean),
        "axes": _encode_array(model.pca.axes),
        "explained_variance": _encode_array(model.pca.explained_variance),
        "total_variance": model.pca.total_variance,
        "m": model.pca.m,
    }
    payload["gmm"] = {
        "weights": _encode_array(model.gmm.weights),
        "means": _encode_array(model.gmm.means),
        "covariances": _encode_array(model.gmm.covariances),
        "log_likelihood_trace": model.gmm.log_likelihood_trace,
    }
    _dump(path, payload)


def _rebuild(model_cls, config_cls, payload):
    """A model_cls with the payload's validated config, vocab and networks."""
    model = model_cls.__new__(model_cls)
    model.config = config_cls(**payload["config"]).validate()
    model.vocab = _vocab_from_dict(payload["vocab"])
    for name in model.NETWORKS:
        setattr(model, name, _net_from_dict(payload["networks"][name], model.config.dtype))
    return model


def _gmvae_from_payload(payload):
    return _rebuild(GmvaeModel, GmvaeConfig, payload)


def _vae_gmm_from_payload(payload):
    vae = _rebuild(VaeModel, VaeConfig, payload)
    pca, gmm = payload["pca"], payload["gmm"]
    return VaeGmmModel(
        vae=vae,
        pca=PcaProjection(
            mean=_decode_array(pca["mean"]),
            axes=_decode_array(pca["axes"]),
            explained_variance=_decode_array(pca["explained_variance"]),
            total_variance=pca["total_variance"],
            m=pca["m"],
        ),
        gmm=GmmModel(
            weights=_decode_array(gmm["weights"]),
            means=_decode_array(gmm["means"]),
            covariances=_decode_array(gmm["covariances"]),
            log_likelihood_trace=list(gmm["log_likelihood_trace"]),
        ),
        vocab=vae.vocab,
    )


_KINDS = {
    FORMAT_GMVAE: ("gmvae", _gmvae_from_payload),
    FORMAT_VAE_GMM: ("vae-gmm", _vae_gmm_from_payload),
}


def _read(path, expected_format=None):
    """Parse the checkpoint at path once and build its model:
    (kind, model, history). Any malformed content raises DataError."""
    with open(path) as f:
        try:
            payload = json.load(f)
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
            raise DataError(f"{path}: not a JSON checkpoint ({exc})") from None
    fmt = payload.get("format") if isinstance(payload, dict) else None
    if expected_format is not None and fmt != expected_format:
        raise DataError(f"{path}: not a {expected_format} checkpoint")
    if fmt not in _KINDS:
        raise DataError(f"{path}: unknown checkpoint format {fmt!r}")
    version = payload.get("format_version")
    if version not in READABLE_VERSIONS:
        raise DataError(f"{path}: unsupported {fmt} format_version {version!r}")
    kind, build = _KINDS[fmt]
    try:
        return kind, build(payload), _history_from_dict(payload["history"])
    except (DataError, InvalidConfig, KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: malformed {fmt} checkpoint ({type(exc).__name__}: {exc})") from exc


def load_gmvae(path):
    _, model, history = _read(path, FORMAT_GMVAE)
    return model, history


def load_vae_gmm(path):
    _, model, history = _read(path, FORMAT_VAE_GMM)
    return model, history


def load_any(path):
    """(kind, model, history) for either checkpoint family."""
    return _read(path)


def history_to_csv(history):
    lines = ["epoch,recon_loss,kl_loss,label_balance_loss,total_loss,temperature"]
    balance = history.label_balance_loss or [0.0] * len(history)
    for i in range(len(history)):
        lines.append(
            f"{i},{history.recon_loss[i]!r},{history.kl_loss[i]!r},{balance[i]!r},"
            f"{history.total_loss[i]!r},{history.temperature[i]!r}"
        )
    return "\n".join(lines) + "\n"
