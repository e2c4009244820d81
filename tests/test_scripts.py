"""Smoke runs of the scripts at a tiny size."""

import importlib.util
import os
import sys

SCRIPTS = os.path.join(os.path.dirname(__file__), os.pardir, "scripts")


def _load_script(name):
    spec = importlib.util.spec_from_file_location(name, os.path.join(SCRIPTS, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run_script(name, argv, monkeypatch):
    module = _load_script(name)
    monkeypatch.setattr(sys, "argv", [f"{name}.py"] + argv)
    module.main()


def test_toy_demo_runs_every_step(tmp_path, monkeypatch):
    _run_script("toy_demo", ["--workdir", str(tmp_path), "--epochs", "2"], monkeypatch)
    for name in ("model.ckpt", "cluster.json", "latents.csv", "densities.csv", "playability.json"):
        assert (tmp_path / name).exists(), name
    assert len(list((tmp_path / "charts").glob("*.svg"))) == 3


def test_quality_toy_entry_has_the_shape_test_quality_reads(tmp_path, monkeypatch):
    # the script sets OPENBLAS_NUM_THREADS on import; monkeypatch puts back
    # the value (or the absence) it had before
    monkeypatch.setitem(os.environ, "OPENBLAS_NUM_THREADS", "1")
    quality_toy = _load_script("quality_toy")
    flags = list(quality_toy.MODEL_FLAGS)
    flags[flags.index("--epochs") + 1] = "2"
    monkeypatch.setattr(quality_toy, "MODEL_FLAGS", flags)
    monkeypatch.setattr(quality_toy, "SEEDS", range(1))
    entry = quality_toy.run_compare(str(tmp_path), "float64", "uniform")
    assert sorted(entry) == ["command", "dtype", "families", "run_info", "runs", "sampler"]
    assert (entry["dtype"], entry["sampler"]) == ("float64", "uniform")
    assert entry["command"].startswith("levelmix compare ")
    # the rebuild in test_quality.py replaces these flags' values
    argv = entry["command"].split()[1:]
    assert (tmp_path / argv[argv.index("--manifest") + 1]).is_file()
    assert argv[argv.index("--out") + 1] == "float64-uniform.json"
    assert (argv[argv.index("--seeds") + 1], argv[argv.index("--epochs") + 1]) == ("0", "2")
    assert [(run["seed"], run["family"]) for run in entry["runs"]] == [(0, "gmvae"), (0, "vae-gmm")]
    assert all("minutes" not in run and "mean_max_p" in run for run in entry["runs"])
    assert sorted(entry["families"]) == ["gmvae", "vae-gmm"]
    assert entry["run_info"]["openblas_num_threads"] == "1"
