"""A smoke run of the toy demo script at a tiny size."""

import importlib.util
import os
import sys

SCRIPTS = os.path.join(os.path.dirname(__file__), os.pardir, "scripts")


def _run_script(name, argv, monkeypatch):
    spec = importlib.util.spec_from_file_location(name, os.path.join(SCRIPTS, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(sys, "argv", [f"{name}.py"] + argv)
    module.main()


def test_toy_demo_runs_every_step(tmp_path, monkeypatch):
    _run_script("toy_demo", ["--workdir", str(tmp_path), "--epochs", "2"], monkeypatch)
    for name in ("model.ckpt", "cluster.json", "latents.csv", "densities.csv", "playability.json"):
        assert (tmp_path / name).exists(), name
    assert len(list((tmp_path / "charts").glob("*.svg"))) == 3
