"""Smoke runs of the experiment scripts on the toy corpus at tiny sizes."""

import csv
import importlib.util
import json
import os
import sys

import pytest

from levelmix import gmvae as gm
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


def test_run_sweep_writes_rows_in_requested_dtype(manifest, tmp_path, monkeypatch):
    dtypes = []
    build = gm.build_model

    def recording_build(config, vocab=None):
        dtypes.append(config.dtype)
        return build(config, vocab)

    monkeypatch.setattr(gm, "build_model", recording_build)
    out = tmp_path / "sweep.csv"
    _run_script(
        "run_sweep",
        ["--manifest", manifest, "--out", str(out), "--k-list", "2,3", "--dtype", "float32",
         "--n-per-component", "20", "--n-train", "10"] + TINY,
        monkeypatch,
    )
    with open(out) as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["family", "k", "p70", "p80", "p90"]
    assert [(r[0], r[1]) for r in rows[1:]] == [
        ("gmvae", "2"), ("gmvae", "3"), ("vae-gmm", "2"), ("vae-gmm", "3"),
    ]
    assert dtypes == ["float32", "float32"]


def test_run_experiment1_writes_summary(manifest, tmp_path, monkeypatch):
    out = tmp_path / "exp1.json"
    _run_script(
        "run_experiment1",
        ["--manifest", manifest, "--out", str(out), "--k", "3", "--seeds", "0,1"] + TINY,
        monkeypatch,
    )
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
