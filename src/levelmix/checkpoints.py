"""Checkpoint formats for trained models.

A checkpoint holds one envelope: format, format_version, config, vocab,
networks, history and run_info (plus pca and gmm for the baseline).

Format version 3, the only one written, is binary. It starts with the 8-byte
MAGIC, then the envelope's length as a little-endian uint64, then the
envelope as UTF-8 JSON. A data section follows at the first 64-byte boundary
after the envelope. Every numpy array in the envelope is a blob
{"dtype": "<f8" | "<f4", "shape": [...], "offset": n}: its little-endian
bytes in the model's dtype start n bytes into the data section. Blobs follow
in write order, each 64-byte aligned, with zero bytes between them. Loading
reads each blob straight into the array it fills (a network's blobs into
their views of the net's parameter buffer), so parameters survive save/load
bit-exactly with no decoding step. Scalars and plain lists (history,
total_variance, m, the EM trace) stay JSON numbers.

Versions 1 and 2 are JSON text and are still read: version 1 stores arrays
as nested float lists, version 2 as blobs whose "data" is the base64 of
their bytes.

The envelope is written with sorted keys and fixed separators and the
offsets follow from the shapes alone, so identical models give identical
bytes. Files are written to a temporary file that is then renamed over the
target, so a crash mid-save keeps the previous file.
"""

from __future__ import annotations

import base64
import contextlib
import json
import math
import os
import struct

import numpy as np

from .baseline import GmmModel, PcaProjection, VaeGmmModel, VaeModel
from .corpus import TileVocab
from .errors import DataError, InvalidConfig
from .gmvae import GmvaeConfig, GmvaeModel, TrainingHistory, VaeConfig
from .neuralnet import DenseNet

FORMAT_GMVAE = "levelmix-gmvae"
FORMAT_VAE_GMM = "levelmix-vae-gmm"
FORMAT_VERSION = 3
# the versions stored as JSON text, read by the JSON reader
READABLE_VERSIONS = (1, 2)
BLOB_DTYPES = ("<f8", "<f4")
# neither JSON nor UTF-8, so a file damaged in text mode is told apart
MAGIC = b"\x89LVLMIX\n"
HEADER_LENGTH = struct.Struct("<Q")
ALIGN = 64


def _aligned(n):
    return -(-n // ALIGN) * ALIGN


class _BlobWriter:
    """The arrays of one save, each with its blob entry. Offsets follow
    from the shapes alone, so the header can be written before any array."""

    def __init__(self):
        self.arrays = []  # (offset, contiguous little-endian array)
        self.end = 0

    def add(self, array, dtype=np.float64):
        a = np.ascontiguousarray(array, dtype=np.dtype(dtype).newbyteorder("<"))
        offset = _aligned(self.end)
        self.arrays.append((offset, a))
        self.end = offset + a.nbytes
        return {"dtype": a.dtype.str, "shape": list(a.shape), "offset": offset}


def _array_shape(value):
    """The shape of a nested list (format 1) or a blob (formats 2 and 3)."""
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


class _InlineArrays:
    """Arrays stored inside the JSON text (formats 1 and 2)."""

    shape = staticmethod(_array_shape)
    read = staticmethod(_decode_array)


class _BlobFile:
    """The data section of an open format-3 file: each blob is checked
    against the file's size, then read straight into the array it fills."""

    def __init__(self, f, start, size):
        self.f, self.start, self.size = f, start, size

    def shape(self, value):
        """The blob's shape, once its dtype, offset and extent are valid."""
        shape, blob_dtype, offset = _array_shape(value), value["dtype"], value["offset"]
        if blob_dtype not in BLOB_DTYPES:
            raise DataError(f"array dtype {blob_dtype!r} is not one of {BLOB_DTYPES}")
        if not (type(offset) is int and offset >= 0):
            raise DataError(f"array offset {offset!r} is not a byte offset")
        nbytes = math.prod(shape) * np.dtype(blob_dtype).itemsize
        if self.start + offset + nbytes > self.size:
            raise DataError(
                f"array of shape {list(shape)} {blob_dtype} at offset {offset} runs past the end of the file"
            )
        return shape

    def read(self, value, dtype=np.float64, out=None):
        """The blob in a new array of dtype or, given out, read into out."""
        shape = self.shape(value)
        if out is None:
            out = np.empty(shape, dtype)
        elif shape != out.shape:
            raise DataError(f"array of shape {list(shape)} where {list(out.shape)} is expected")
        if value["dtype"] != out.dtype.str:
            raise DataError(f"array dtype {value['dtype']!r} where {out.dtype.str!r} is expected")
        self.f.seek(self.start + value["offset"])
        # memoryview cannot cast an empty array, and there is nothing to read
        if out.nbytes and self.f.readinto(memoryview(out).cast("B")) != out.nbytes:
            raise DataError(f"array at offset {value['offset']} is cut short")
        return out


def _net_to_dict(net, blobs):
    return {
        "layers": [
            {
                "activation": layer.activation,
                "weight": blobs.add(layer.weight, net.dtype),
                "bias": blobs.add(layer.bias, net.dtype),
            }
            for layer in net.layers
        ]
    }


def _net_from_dict(data, sizes, activations, dtype, arrays):
    """The net of the given layer sizes and activations, each array read
    into its view of the net's parameter buffer."""
    entries = data["layers"]
    shapes = [(arrays.shape(entry["weight"]), arrays.shape(entry["bias"])) for entry in entries]
    expected = [((n_out, n_in), (n_out,)) for n_in, n_out in zip(sizes, sizes[1:])]
    # checked before the buffer is allocated, so a forged config cannot size it
    if shapes != expected:
        raise DataError(f"layer shapes {shapes} where the config gives {expected}")
    if [entry["activation"] for entry in entries] != activations:
        raise DataError(f"layer activations are not the config's {activations}")
    net = DenseNet.zeros(sizes, activations, dtype)
    for entry, layer in zip(entries, net.layers):
        arrays.read(entry["weight"], net.dtype, out=layer.weight)
        arrays.read(entry["bias"], net.dtype, out=layer.bias)
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


def _dump(path, payload, blobs):
    """Write the format-3 file to <path>.tmp, sync it, then rename it over
    path, so a failed save leaves the previous file as it was."""
    header = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")
    start = _aligned(len(MAGIC) + HEADER_LENGTH.size + len(header))
    tmp = os.fspath(path) + ".tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(MAGIC)
            f.write(HEADER_LENGTH.pack(len(header)))
            f.write(header)
            for offset, array in blobs.arrays:
                f.write(bytes(start + offset - f.tell()))
                f.write(memoryview(array))
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def _envelope(fmt, vocab, config, nets, history, run_info, blobs):
    return {
        "format": fmt,
        "format_version": FORMAT_VERSION,
        "game": vocab.game if vocab else "",
        "config": vars(config),
        "vocab": _vocab_to_dict(vocab),
        "networks": {name: _net_to_dict(net, blobs) for name, net in nets.items()},
        "history": None if history is None else vars(history),
        "run_info": run_info,
    }


def save_gmvae(path, model, history=None, run_info=None):
    blobs = _BlobWriter()
    payload = _envelope(FORMAT_GMVAE, model.vocab, model.config, model.networks(), history, run_info, blobs)
    _dump(path, payload, blobs)


def save_vae_gmm(path, model, history=None, run_info=None):
    blobs = _BlobWriter()
    payload = _envelope(
        FORMAT_VAE_GMM, model.vocab, model.vae.config, model.vae.networks(), history, run_info, blobs
    )
    payload["pca"] = {
        "mean": blobs.add(model.pca.mean),
        "axes": blobs.add(model.pca.axes),
        "explained_variance": blobs.add(model.pca.explained_variance),
        "total_variance": model.pca.total_variance,
        "m": model.pca.m,
    }
    payload["gmm"] = {
        "weights": blobs.add(model.gmm.weights),
        "means": blobs.add(model.gmm.means),
        "covariances": blobs.add(model.gmm.covariances),
        "log_likelihood_trace": model.gmm.log_likelihood_trace,
    }
    _dump(path, payload, blobs)


def _rebuild(model_cls, config_cls, payload, arrays):
    """A model_cls with the payload's validated config and vocab, and the
    networks of the shapes that config gives."""
    model = model_cls.__new__(model_cls)
    model.config = config_cls(**payload["config"]).validate()
    model.vocab = _vocab_from_dict(payload["vocab"])
    for name, (sizes, activations) in model.architecture().items():
        net = _net_from_dict(payload["networks"][name], sizes, activations, model.config.dtype, arrays)
        setattr(model, name, net)
    return model


def _gmvae_from_payload(payload, arrays):
    return _rebuild(GmvaeModel, GmvaeConfig, payload, arrays)


def _vae_gmm_from_payload(payload, arrays):
    vae = _rebuild(VaeModel, VaeConfig, payload, arrays)
    pca, gmm = payload["pca"], payload["gmm"]
    projection = PcaProjection(
        mean=arrays.read(pca["mean"]),
        axes=arrays.read(pca["axes"]),
        explained_variance=arrays.read(pca["explained_variance"]),
        total_variance=pca["total_variance"],
        m=pca["m"],
    )
    mixture = GmmModel(
        weights=arrays.read(gmm["weights"]),
        means=arrays.read(gmm["means"]),
        covariances=arrays.read(gmm["covariances"]),
        log_likelihood_trace=list(gmm["log_likelihood_trace"]),
    )
    shapes = [
        a.shape
        for a in (projection.mean, projection.axes, projection.explained_variance,
                  mixture.weights, mixture.means, mixture.covariances)
    ]
    ld, m, k = vae.config.latent_dim, projection.m, mixture.weights.size
    expected = [(ld,), (m, ld), (m,), (k,), (k, m), (k, m, m)]
    if shapes != expected:
        raise DataError(f"PCA and GMM array shapes {shapes} where latent_dim, m and k give {expected}")
    return VaeGmmModel(vae=vae, pca=projection, gmm=mixture, vocab=vae.vocab)


_KINDS = {
    FORMAT_GMVAE: ("gmvae", _gmvae_from_payload),
    FORMAT_VAE_GMM: ("vae-gmm", _vae_gmm_from_payload),
}


def _build(path, payload, versions, arrays):
    """(kind, model, history) from a parsed envelope whose arrays come from
    `arrays`. Any malformed content, an envelope that is not a JSON object
    included, raises DataError."""
    fmt = payload.get("format") if isinstance(payload, dict) else None
    if not isinstance(fmt, str) or fmt not in _KINDS:
        raise DataError(f"{path}: unknown checkpoint format {fmt!r}")
    version = payload.get("format_version")
    if version not in versions:
        raise DataError(f"{path}: unsupported {fmt} format_version {version!r}")
    kind, build = _KINDS[fmt]
    try:
        return kind, build(payload, arrays), _history_from_dict(payload["history"])
    except (DataError, InvalidConfig, KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: malformed {fmt} checkpoint ({type(exc).__name__}: {exc})") from exc


def _read_blob_file(path, f):
    """(kind, model, history) from the format-3 file open as f, just past
    its magic."""
    size = os.fstat(f.fileno()).st_size
    raw = f.read(HEADER_LENGTH.size)
    if len(raw) != HEADER_LENGTH.size:
        raise DataError(f"{path}: checkpoint ends inside its header length")
    (length,) = HEADER_LENGTH.unpack(raw)
    # checked before the read, so a forged length never sizes a buffer
    if length > size - len(MAGIC) - HEADER_LENGTH.size:
        raise DataError(f"{path}: header length {length} exceeds the {size}-byte file")
    try:
        payload = json.loads(f.read(length).decode("utf-8"))
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise DataError(f"{path}: checkpoint header is not JSON ({exc})") from None
    blobs = _BlobFile(f, _aligned(len(MAGIC) + HEADER_LENGTH.size + length), size)
    return _build(path, payload, (FORMAT_VERSION,), blobs)


def load_any(path):
    """(kind, model, history) for either checkpoint family, parsed once.
    Any malformed content raises DataError."""
    with open(path, "rb") as f:
        if f.read(len(MAGIC)) == MAGIC:
            return _read_blob_file(path, f)
    with open(path) as f:
        try:
            payload = json.load(f)
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
            raise DataError(f"{path}: not a JSON checkpoint ({exc})") from None
    return _build(path, payload, READABLE_VERSIONS, _InlineArrays)


def history_to_csv(history):
    lines = ["epoch,recon_loss,kl_loss,label_balance_loss,total_loss,temperature"]
    balance = history.label_balance_loss or [0.0] * len(history)
    for i in range(len(history)):
        lines.append(
            f"{i},{history.recon_loss[i]!r},{history.kl_loss[i]!r},{balance[i]!r},"
            f"{history.total_loss[i]!r},{history.temperature[i]!r}"
        )
    return "\n".join(lines) + "\n"
