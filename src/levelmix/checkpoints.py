"""Checkpoint formats for trained models.

A checkpoint holds one envelope: format, format_version, config, vocab,
support, networks, history and run_info (plus pca and gmm for the
baseline). The support is the sorted list of one-hot columns the model reads
and writes, as JSON integers; the label net's and the encoder trunk's first
layers are as wide as it (plus k for the trunk), and so is the decoder's
last layer.

Format version 6, the only one written, is binary. It starts with the 8-byte
MAGIC, then the envelope's length as a little-endian uint64, then the
envelope as UTF-8 JSON. A data section follows at the first 64-byte boundary
after the envelope. Every numpy array in the envelope is a blob
{"dtype": "<f8" | "<f4", "shape": [...], "offset": n}: its little-endian
bytes in the model's dtype start n bytes into the data section. Blobs follow
in write order, each 64-byte aligned, with zero bytes between them.
`networks` maps each name to one blob of its flat parameters, laid out as
DenseNet.params: layer by layer, the row-major (out, in) weight, then the
bias. The layer shapes and activations come from the config and the support.
Loading checks a blob's shape against the parameter count they give before
any buffer is allocated, then reads it straight into the net's params, so
parameters survive save/load bit-exactly with no decoding step. Scalars and
plain lists (history, total_variance, m, the EM trace) stay JSON numbers.

Only version 6 is read. Version 5 had this layout with a decoder that wrote
all d columns; version 4 stored a weight blob, a bias blob and an
activation per layer; version 3 had that layout without a support and with
d-wide input nets; versions 1 and 2 were JSON text. None of them loads any
more: a binary one is a DataError that names its format_version, and any
file without the magic is refused from its first 8 bytes. Loading rejects
a network with a NaN or infinite parameter and, when the vocab is not
null, a d other than 256 * the vocab's size and a support with no column
of some cell (column // vocab size); saving refuses a non-finite
parameter (a NumericError) before it opens any file.

The envelope is written with sorted keys and fixed separators and the
offsets follow from the shapes alone, so identical models give identical
bytes.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import json
import math
import os
import struct

import numpy as np

from .baseline import GmmModel, PcaProjection, VaeGmmModel, VaeModel
from .corpus import CHUNK_SIZE, TileVocab
from .errors import DataError, InvalidConfig, NumericError
from .gmvae import GmvaeConfig, GmvaeModel, TrainingHistory, VaeConfig, check_d
from .neuralnet import DenseNet, param_count

FORMAT_GMVAE = "levelmix-gmvae"
FORMAT_VAE_GMM = "levelmix-vae-gmm"
FORMAT_VERSION = 6
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


class _BlobFile:
    """The data section of an open checkpoint file: each blob is checked
    against the file's size, then read straight into the array it fills."""

    def __init__(self, f, start, size):
        self.f, self.start, self.size = f, start, size

    def shape(self, value):
        """The blob's shape, once its shape, dtype, offset and extent are valid."""
        shape, blob_dtype, offset = value["shape"], value["dtype"], value["offset"]
        if not (isinstance(shape, list) and all(type(n) is int and n >= 0 for n in shape)):
            raise DataError(f"array shape {shape!r} is not a list of sizes")
        shape = tuple(shape)
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
    return TrainingHistory(**{f.name: list(data[f.name]) for f in dataclasses.fields(TrainingHistory)})


@contextlib.contextmanager
def replacing(path):
    """The binary file every levelmix artifact is written through: open at
    <path>.tmp, then synced and renamed over path when the block ends, so a
    crash or a failed write keeps the previous file as it was. On failure
    the .tmp file is removed."""
    tmp = os.fspath(path) + ".tmp"
    try:
        with open(tmp, "wb") as f:
            yield f
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def _dump(path, payload, blobs):
    """Write the checkpoint file through replacing, one write per blob."""
    header = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")
    start = _aligned(len(MAGIC) + HEADER_LENGTH.size + len(header))
    with replacing(path) as f:
        f.write(MAGIC)
        f.write(HEADER_LENGTH.pack(len(header)))
        f.write(header)
        for offset, array in blobs.arrays:
            f.write(bytes(start + offset - f.tell()))
            f.write(memoryview(array))


def _finite_networks(model):
    """The model's networks by name, once every parameter is finite: a save
    refuses what a load refuses, before any file is opened."""
    networks = model.networks()
    for name, net in networks.items():
        if not np.isfinite(net.params).all():
            raise NumericError(f"network {name} has non-finite parameters; nothing was saved")
    return networks


def _envelope(fmt, model, history, run_info, blobs):
    """The envelope of the config, support and networks of a GmvaeModel or
    VaeModel, without a baseline's PCA and GMM."""
    return {
        "format": fmt,
        "format_version": FORMAT_VERSION,
        "config": vars(model.config),
        "vocab": _vocab_to_dict(model.vocab),
        "support": model.support.tolist(),
        "networks": {name: blobs.add(net.params, net.dtype) for name, net in _finite_networks(model).items()},
        "history": None if history is None else vars(history),
        "run_info": run_info,
    }


def save_gmvae(path, model, history=None, run_info=None):
    blobs = _BlobWriter()
    payload = _envelope(FORMAT_GMVAE, model, history, run_info, blobs)
    _dump(path, payload, blobs)


def save_vae_gmm(path, model, history=None, run_info=None):
    blobs = _BlobWriter()
    payload = _envelope(FORMAT_VAE_GMM, model.vae, history, run_info, blobs)
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


def _support(value, d):
    """The support as an index array, once it is a strictly increasing list
    of integers in [0, d)."""
    if not (isinstance(value, list) and all(type(c) is int and 0 <= c < d for c in value)):
        raise DataError(f"support is not a list of integers in [0, {d})")
    support = np.array(value, dtype=np.intp)
    if np.any(np.diff(support) <= 0):
        raise DataError("support is not strictly increasing")
    return support


def _rebuild(model_cls, config_cls, payload, arrays):
    """A model_cls with the payload's validated config, vocab and support,
    and the networks of the shapes they give, each read from its blob. It
    skips the constructor, which would size every net before its blob."""
    model = model_cls.__new__(model_cls)
    model.config = config_cls(**payload["config"]).validate()
    model.vocab = _vocab_from_dict(payload["vocab"])
    check_d(model.config, model.vocab)
    # checked before architecture() sizes any buffer from it
    model.support = _support(payload["support"], model.config.d)
    # a cell without a support column would be tile 0 in every generated chunk
    if model.vocab is not None:
        columns = np.bincount(model.support // model.vocab.size, minlength=CHUNK_SIZE * CHUNK_SIZE)
        if not columns.all():
            raise DataError(f"support has no column of cell {int(np.argmin(columns))}; generate could not fill it")
    for name, (sizes, activations) in model.architecture().items():
        blob, n = payload["networks"][name], param_count(sizes)
        # checked before the buffer is allocated, so a forged config cannot size it
        if arrays.shape(blob) != (n,):
            raise DataError(
                f"network {name} has a blob of shape {blob['shape']} where the config and the support give [{n}]"
            )
        net = DenseNet(sizes, activations, None, model.config.dtype)
        arrays.read(blob, net.dtype, out=net.params)
        if not np.isfinite(net.params).all():
            raise DataError(f"network {name} has non-finite parameters")
        setattr(model, name, net)
    return model


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
    return VaeGmmModel(vae=vae, pca=projection, gmm=mixture)


_KINDS = {
    FORMAT_GMVAE: ("gmvae", functools.partial(_rebuild, GmvaeModel, GmvaeConfig)),
    FORMAT_VAE_GMM: ("vae-gmm", _vae_gmm_from_payload),
}


def _build(path, payload, arrays):
    """(kind, model, history) from a parsed envelope whose arrays come from
    `arrays`. Any malformed content, an envelope that is not a JSON object
    included, raises DataError."""
    fmt = payload.get("format") if isinstance(payload, dict) else None
    if not isinstance(fmt, str) or fmt not in _KINDS:
        raise DataError(f"{path}: unknown checkpoint format {fmt!r}")
    version = payload.get("format_version")
    if version != FORMAT_VERSION:
        raise DataError(f"{path}: unsupported {fmt} format_version {version!r}")
    kind, build = _KINDS[fmt]
    try:
        return kind, build(payload, arrays), _history_from_dict(payload["history"])
    except (DataError, InvalidConfig, KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: malformed {fmt} checkpoint ({type(exc).__name__}: {exc})") from exc


def load_any(path):
    """(kind, model, history) for either checkpoint family, parsed once.
    A file without the magic, JSON text included, is refused after its
    first 8 bytes; any malformed content raises DataError, which names the
    format_version of a file of an older binary format."""
    with open(path, "rb") as f:
        if f.read(len(MAGIC)) != MAGIC:
            raise DataError(f"{path}: not a levelmix checkpoint (no checkpoint magic)")
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
        except (ValueError, RecursionError) as exc:  # JSONDecodeError, UnicodeDecodeError, deep nesting
            raise DataError(f"{path}: checkpoint header is not JSON ({exc})") from None
        blobs = _BlobFile(f, _aligned(len(MAGIC) + HEADER_LENGTH.size + length), size)
        return _build(path, payload, blobs)


def history_to_csv(history):
    """The history as CSV: an epoch column, then one column per
    TrainingHistory field, in field order."""
    names = [f.name for f in dataclasses.fields(TrainingHistory)]
    columns = [getattr(history, name) for name in names]
    lines = [",".join(["epoch", *names])]
    lines += [",".join([str(i), *(repr(c[i]) for c in columns)]) for i in range(len(history))]
    return "\n".join(lines) + "\n"
