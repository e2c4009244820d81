"""The levelmix names the benchmark in perfbench/ calls and wraps.

perfbench/ is read, never changed: its tracer wraps module globals and class
attributes by name, so deleting or renaming one of them breaks the benchmark
before any of its own gates run.
"""

import os
import sys

import pytest

from levelmix import baseline as bl
from levelmix import gmvae as gm

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
    calls = []
    step = gm.training_step

    def counted(model, *args, **kwargs):
        calls.append(type(model).__name__)
        return step(model, *args, **kwargs)

    monkeypatch.setattr(gm, "training_step", counted)
    data = toy_setup["data"][:100]
    fields = dict(d=data.shape[1], latent_dim=4, hidden_width=16, hidden_depth=1, batch_size=32, epochs=1)
    if family == "gmvae":
        gm.train(gm.build_model(gm.GmvaeConfig(k=2, **fields)), data)
    else:
        bl.train_vae(data, bl.VaeConfig(**fields))
    # ceil(100 / 32) steps in the one epoch
    assert calls == [{"gmvae": "GmvaeModel", "vae": "VaeModel"}[family]] * 4
