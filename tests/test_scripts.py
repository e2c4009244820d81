"""Smoke runs of the experiment scripts on the toy corpus at tiny sizes."""

import importlib.util
import json
import os
import sys

import numpy as np
import pytest

from levelmix import experiments
from levelmix import toygame

SCRIPTS = os.path.join(os.path.dirname(__file__), os.pardir, "scripts")
TINY = ["--epochs", "2", "--hidden-width", "16", "--latent-dim", "4"]


def _run_script(name, argv, monkeypatch):
    spec = importlib.util.spec_from_file_location(name, os.path.join(SCRIPTS, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(sys, "argv", [f"{name}.py"] + argv)
    module.main()


@pytest.fixture(scope="module")
def manifest(tmp_path_factory):
    root = tmp_path_factory.mktemp("scripts")
    return str(toygame.write_corpus(root / "corpus", levels_per_type=2, cols=32, seed=2))


def test_run_experiment1_writes_summary(manifest, tmp_path, monkeypatch):
    dtypes = []
    compare = experiments.clustering_comparison

    def recording_compare(data, *args, **kwargs):
        dtypes.append(data.dtype)
        return compare(data, *args, **kwargs)

    monkeypatch.setattr(experiments, "clustering_comparison", recording_compare)
    out = tmp_path / "exp1.json"
    _run_script(
        "run_experiment1",
        ["--manifest", manifest, "--out", str(out), "--k", "3", "--seeds", "0,1", "--dtype", "float32"] + TINY,
        monkeypatch,
    )
    assert dtypes == [np.float32]
    summary = json.loads(out.read_text())
    assert set(summary) == {"runs", "median_gmvae", "median_vae_gmm"}
    assert [(r["seed"], r["family"]) for r in summary["runs"]] == [
        (0, "gmvae"), (0, "vae-gmm"), (1, "gmvae"), (1, "vae-gmm"),
    ]
    assert all(0.0 <= r["balanced_accuracy"] <= 1.0 for r in summary["runs"])


def test_toy_demo_runs_every_step(tmp_path, monkeypatch):
    _run_script("toy_demo", ["--workdir", str(tmp_path), "--epochs", "2"], monkeypatch)
    for name in ("model.json", "cluster.json", "latents.csv", "densities.csv", "playability.json"):
        assert (tmp_path / name).exists(), name
    assert len(list((tmp_path / "charts").glob("*.svg"))) == 3
