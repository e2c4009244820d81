import json
import struct

import numpy as np
import pytest

from levelmix import baseline as bl
from levelmix import checkpoints as ckpt
from levelmix import corpus as cp
from levelmix import gmvae as gm
from levelmix import toygame


@pytest.fixture(scope="session")
def toy_setup():
    levels = toygame.make_corpus(levels_per_type=3, cols=48, seed=1)
    vocab = cp.build_vocab(levels, game="toy")
    chunks = [c for lv in levels for c in cp.extract_chunks(lv, vocab, axis="horizontal")]
    data = cp.encode_chunks(chunks, vocab)
    types = [c.level_type for c in chunks]
    return {"levels": levels, "vocab": vocab, "chunks": chunks, "data": data, "types": types}


def small_gmvae_config(d, **overrides):
    base = dict(
        d=d,
        k=3,
        latent_dim=16,
        hidden_width=64,
        hidden_depth=3,
        batch_size=64,
        epochs=100,
        rng_seed=3,
    )
    base.update(overrides)
    return gm.GmvaeConfig(**base)


@pytest.fixture(scope="session")
def trained_gmvae(toy_setup):
    config = small_gmvae_config(toy_setup["data"].shape[1])
    model = gm.build_model(config, toy_setup["vocab"])
    history = gm.train(
        model, toy_setup["data"], level_types=toy_setup["types"], sampler="balanced"
    )
    return model, history


@pytest.fixture(scope="session")
def trained_vae_gmm(toy_setup):
    config = bl.VaeConfig(
        d=toy_setup["data"].shape[1],
        latent_dim=16,
        hidden_width=64,
        hidden_depth=3,
        batch_size=64,
        epochs=100,
        rng_seed=3,
    )
    model, history = bl.fit_vae_gmm(
        toy_setup["data"],
        config,
        3,
        gmm_seed=3,
        vocab=toy_setup["vocab"],
        level_types=toy_setup["types"],
        sampler="balanced",
    )
    return model, history


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)


def split_checkpoint(raw):
    """(header, data section) of a format-3 checkpoint's bytes."""
    assert raw[:8] == ckpt.MAGIC
    (length,) = struct.unpack_from("<Q", raw, 8)
    end = 16 + length
    return json.loads(raw[16:end]), raw[end + -end % 64 :]


def join_checkpoint(header, data):
    """A format-3 checkpoint of header and an unchanged data section, which
    starts at the first 64-byte boundary after the header."""
    head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return ckpt.MAGIC + struct.pack("<Q", len(head)) + head + bytes(-(16 + len(head)) % 64) + data


def read_header(path):
    with open(path, "rb") as f:
        return split_checkpoint(f.read())[0]
