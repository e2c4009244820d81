"""The levelmix names the benchmark in perfbench/ calls and wraps.

perfbench/ is read, never changed: its tracer wraps module globals and class
attributes by name, so deleting or renaming one of them breaks the benchmark
before any of its own gates run.
"""

import os
import sys

import numpy as np
import pytest

from levelmix import baseline as bl
from levelmix import corpus as cp
from levelmix import evaluation as ev
from levelmix import gmvae as gm
from levelmix import neuralnet as nn
from levelmix import playability as pl
from levelmix import toygame

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


@pytest.fixture(scope="module")
def perfbench():
    """perfbench's tracer and workloads modules, imported without writing
    bytecode into perfbench/."""
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    sys.path.insert(0, PERFBENCH)
    try:
        import tracer
        import workloads
    finally:
        sys.path.remove(PERFBENCH)
        sys.dont_write_bytecode = dont_write
    return tracer, workloads


def counting(monkeypatch, module, name):
    """Replace module.name by a wrapper that records each call's first argument."""
    calls = []
    original = getattr(module, name)

    def counted(first, *args, **kwargs):
        calls.append(first)
        return original(first, *args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_tracer_installs_and_removes_its_wrappers(perfbench):
    tracer, workloads = perfbench
    assert set(workloads.WORKLOADS) == {"train-smb-f64", "baseline-ki-f32", "eval-smb-k10"}
    step, loss = gm.training_step, bl.vae_loss_and_grads
    with tracer.Tracer():
        assert gm.training_step is not step and bl.vae_loss_and_grads is not loss
    assert gm.training_step is step and bl.vae_loss_and_grads is loss


@pytest.mark.parametrize("family", ["gmvae", "vae"])
def test_both_families_train_through_training_step(toy_setup, monkeypatch, family):
    # so the tracer's wrapper on gmvae.training_step sees every step of both
    calls = counting(monkeypatch, gm, "training_step")
    data = toy_setup["data"][:100]
    fields = dict(d=data.shape[1], latent_dim=4, hidden_width=16, hidden_depth=1, batch_size=32, epochs=1)
    if family == "gmvae":
        gm.train(gm.build_model(gm.GmvaeConfig(k=2, **fields)), data)
    else:
        bl.train_vae(data, bl.VaeConfig(**fields))
    # ceil(100 / 32) steps in the one epoch
    assert [type(model).__name__ for model in calls] == [{"gmvae": "GmvaeModel", "vae": "VaeModel"}[family]] * 4


@pytest.mark.parametrize("family", ["gmvae", "vae"])
def test_tracer_names_the_networks_of_fits_training_copies(perfbench, toy_setup, family):
    # fit trains copies of the networks that read the raw input; the tracer
    # registers them at each step, so no forward, backward or Adam span of a
    # training run falls in the "other" group
    tracer, _ = perfbench
    data = toy_setup["data"][:100]
    fields = dict(d=data.shape[1], latent_dim=4, hidden_width=16, hidden_depth=1, batch_size=32, epochs=1)
    with tracer.Tracer() as t:
        if family == "gmvae":
            gm.train(gm.build_model(gm.GmvaeConfig(k=2, **fields)), data)
        else:
            bl.train_vae(data, bl.VaeConfig(**fields))
    groups = {s[tracer.ATTRS]["net"] for s in t.spans
              if s[tracer.NAME] in ("neuralnet.forward", "neuralnet.backward", "neuralnet.adam")}
    expected = {"encoder_trunk", "enc_heads", "decoder"}
    assert groups == (expected | {"label_net", "prior_nets"} if family == "gmvae" else expected)


def test_fit_vae_gmm_trains_its_vae_once_through_the_train_vae_global(toy_setup, monkeypatch):
    # baseline-ki-f32 wraps the module global bl.train_vae around fit_vae_gmm
    # and reads its first call's time as the training time
    trained = []
    train_vae = bl.train_vae

    def recording(*args, **kwargs):
        trained.append(train_vae(*args, **kwargs))
        return trained[-1]

    monkeypatch.setattr(bl, "train_vae", recording)
    data = toy_setup["data"][:100]
    fields = dict(d=data.shape[1], latent_dim=4, hidden_width=16, hidden_depth=1, batch_size=32, epochs=1)
    model, history = bl.fit_vae_gmm(data, bl.VaeConfig(**fields), 2)
    assert len(trained) == 1
    assert model.vae is trained[0][0] and history is trained[0][1]


def test_playability_suite_calls_no_crossable(toy_setup, monkeypatch):
    # the tracer times each call of the module global pl.crossable; the suite
    # answers with flood_crossable, so only the astar_vs_bfs gate calls it
    searched = counting(monkeypatch, pl, "crossable")
    vocab, chunks = toy_setup["vocab"], toy_setup["chunks"]
    rules = pl.PlayabilityRules(game="toy", solidity=dict(toygame.SOLIDITY), axis="horizontal")
    result = pl.playability_suite(lambda component, n, rng: chunks[component * n : (component + 1) * n],
                                  3, rules, vocab, np.random.default_rng(0), total_budget=30)
    assert result.total == 30 and searched == []
    assert pl.crossable(cp.chunk_to_lines(chunks[0], vocab), rules)[0] and len(searched) == 1


def test_generate_decodes_each_chunk_through_the_decode_global(trained_gmvae, monkeypatch):
    # the tracer's decode_ms_per_chunk times gmvae.decode once per chunk
    calls = counting(monkeypatch, gm, "decode")
    chunks = gm.generate(trained_gmvae[0], 1, 5, np.random.default_rng(0))
    assert len(chunks) == len(calls) == 5


def test_disentanglement_encodes_each_chunk_through_its_one_hot_encode_global(toy_setup, monkeypatch):
    # the tracer's one_hot_ms_per_chunk times evaluation.one_hot_encode once per chunk
    calls = counting(monkeypatch, ev, "one_hot_encode")
    chunks = toy_setup["chunks"]
    ev.disentanglement(lambda component, n, rng: chunks[component * n : (component + 1) * n],
                       2, toy_setup["vocab"], np.random.default_rng(0), n_per_component=6, n_train=4)
    assert [id(c) for c in calls] == [id(c) for c in chunks[:12]]


def test_generate_and_hard_labels_run_each_network_through_forward_cached(trained_gmvae, toy_setup, monkeypatch):
    # the tracer's forward_ms.* and hard_labels_ms time DenseNet.forward_cached,
    # so every network forward of these two commands must pass through it
    model = trained_gmvae[0]
    calls = counting(monkeypatch, nn.DenseNet, "forward_cached")
    gm.generate(model, 1, 5, np.random.default_rng(0))
    assert calls == [model.prior_mean_net, model.prior_var_net, model.decoder]
    calls.clear()
    gm.hard_labels(model, toy_setup["data"][:20])
    assert calls == [model.label_net]
