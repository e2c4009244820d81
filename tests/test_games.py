"""The paper's vertical game, Kid Icarus, through the CLI at toy width: a
ki-shaped corpus from perfbench/corpora.py, cut to its first two levels.
The corpus, like the real ki manifest, gives its levels no type."""

import csv
import json
import os
import sys

import pytest

from conftest import read_header
from levelmix import checkpoints as ckpt
from levelmix import cli
from levelmix import corpus as cp
from levelmix import gmvae as gm
from levelmix import vglc

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
TOY_WIDTH = ["--epochs", "2", "--hidden-width", "32", "--latent-dim", "8", "--seed", "5"]
FAMILIES = {"gmvae": "train", "vae-gmm": "train-baseline"}


@pytest.fixture(scope="module")
def ki_manifest(tmp_path_factory):
    """The path of a two-level manifest of perfbench's ki-shaped corpus,
    imported without writing bytecode into perfbench/."""
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    sys.path.insert(0, PERFBENCH)
    try:
        import corpora
    finally:
        sys.path.remove(PERFBENCH)
        sys.dont_write_bytecode = dont_write
    root = tmp_path_factory.mktemp("ki")
    # write_ki's smallest corpus: six levels of at least 120 rows
    with open(corpora.write_ki(str(root), seed=1, solidity=vglc.SOLIDITY["ki"], chunks=700), encoding="utf-8") as f:
        manifest = json.load(f)
    manifest["levels"] = manifest["levels"][:2]  # the first holds every tile
    path = root / "ki-2.json"
    path.write_text(json.dumps(manifest), encoding="utf-8")
    return str(path)


@pytest.fixture(scope="module")
def ki_typed(ki_manifest):
    """A copy of the ki manifest that gives each level a hand-written type."""
    with open(ki_manifest, encoding="utf-8") as f:
        manifest = json.load(f)
    for entry, level_type in zip(manifest["levels"], ("tower", "ruin")):
        entry["type"] = level_type
    path = os.path.join(os.path.dirname(ki_manifest), "ki-2-typed.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(manifest, f)
    return path


@pytest.fixture(scope="module")
def ki_models(ki_manifest, tmp_path_factory):
    """The --out-dir of a toy run of each family on the untyped ki manifest, by family."""
    root = tmp_path_factory.mktemp("ki-runs")
    for family, command in FAMILIES.items():
        argv = [command, "--manifest", ki_manifest, "--k", "3", "--out-dir", str(root / family)] + TOY_WIDTH
        assert cli.run(argv) == 0, command
    return {family: root / family for family in FAMILIES}


def test_the_vertical_game_through_the_cli(ki_manifest, ki_typed, ki_models, tmp_path, capsys):
    manifest = cp.load_manifest(ki_manifest)
    levels = cp.load_levels(manifest)
    assert manifest.axis == "vertical" and len(levels) == 2
    assert [level.level_type for level in levels] == [None, None]
    # a 16-column level gives one window per row offset
    assert all(level.cols == 16 for level in levels)
    chunks = sum(level.rows - 15 for level in levels)

    capsys.readouterr()
    assert cli.run(["ingest", "--manifest", ki_manifest]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert (summary["vocab_size"], summary["d"], summary["chunks"]) == (7, 256 * 7, chunks)

    for family, out_dir in ki_models.items():
        assert sorted(os.listdir(out_dir)) == ["history.csv", "model.ckpt", "run.json"]
        model_path = str(out_dir / "model.ckpt")
        _, model, _ = ckpt.load_any(model_path)
        assert read_header(model_path)["config"]["d"] == 256 * model.vocab.size == 256 * 7
        cut = [c for level in levels for c in cp.extract_chunks(level, model.vocab, axis="vertical")]
        assert len(cut) == chunks

        # the types are the typed copy's, not a guess
        cluster = tmp_path / f"{family}-cluster.json"
        assert cli.run(["eval-cluster", "--model", model_path, "--manifest", ki_typed, "--out", str(cluster)]) == 0
        with open(cluster, encoding="utf-8") as f:
            report = json.load(f)["report"]
        assert report["type_names"] == ["ruin", "tower"]
        assert sum(map(sum, report["confusion"])) == chunks

        encoded = tmp_path / f"{family}-latents.csv"
        assert cli.run(["encode", "--model", model_path, "--manifest", ki_manifest, "--out", str(encoded)]) == 0
        with open(encoded, encoding="utf-8", newline="") as f:
            rows = list(csv.reader(f))[1:]
        assert [row[0] for row in rows] == [f"{c.level_id}:{c.offset[0]}:{c.offset[1]}" for c in cut]
        assert {row[1] for row in rows} == {""}  # an untyped level's column is empty

        densities = tmp_path / f"{family}-densities.csv"
        argv = ["densities", "--model", model_path, "--source", "corpus", "--manifest", ki_manifest]
        assert cli.run(argv + ["--out", str(densities)]) == 0
        with open(densities, encoding="utf-8", newline="") as f:
            header, *density_rows = csv.reader(f)
        assert header[1:] == [c for c in model.vocab.chars if c != "-"] and len(density_rows) == 3
        assert cli.run(["chart", "--densities", str(densities), "--out-dir", str(tmp_path / f"{family}-charts")]) == 0
        assert "run.json" in os.listdir(tmp_path / f"{family}-charts")

        disentangle = tmp_path / f"{family}-disentangle.json"
        argv = ["eval-disentangle", "--model", model_path, "--out", str(disentangle)]
        assert cli.run(argv + ["--n-per-component", "8", "--n-train", "4"]) == 0
        with open(disentangle, encoding="utf-8") as f:
            assert 0.0 <= json.load(f)["report"]["p70"] <= 1.0

        capsys.readouterr()
        assert cli.run(["generate", "--model", model_path, "--component", "2", "--n", "2"]) == 0
        blocks = capsys.readouterr().out.strip().split("\n\n")
        assert [[len(row) for row in block.split("\n")] for block in blocks] == [[16] * 16] * 2

        play = tmp_path / f"{family}-play.json"
        argv = ["eval-playability", "--model", model_path, "--manifest", ki_manifest, "--out", str(play)]
        assert cli.run(argv + ["--budget", "6"]) == 0
        with open(play, encoding="utf-8") as f:
            report = json.load(f)["report"]
        assert report["total"] == 6 and 0.0 <= report["fraction"] <= 1.0


def test_sweep_and_compare_on_the_vertical_game(ki_typed, tmp_path, monkeypatch):
    trained = []
    start = gm.TrainingRun

    def recording_run(model, data, *args):
        trained.append((type(model).__name__, model.config.rng_seed, data.shape[1]))
        return start(model, data, *args)

    monkeypatch.setattr(gm, "TrainingRun", recording_run)
    sweep = tmp_path / "sweep.csv"
    argv = ["sweep", "--manifest", ki_typed, "--k-list", "2", "--n-per-component", "8", "--n-train", "4"]
    assert cli.run(argv + ["--out", str(sweep)] + TOY_WIDTH) == 0
    with open(sweep, encoding="utf-8", newline="") as f:
        rows = list(csv.reader(f))
    assert [row[:2] for row in rows] == [["family", "k"], ["gmvae", "2"], ["vae-gmm", "2"]]

    compare = tmp_path / "compare.json"
    argv = ["compare", "--manifest", ki_typed, "--seeds", "0", "--k", "2", "--out", str(compare)]
    assert cli.run(argv + TOY_WIDTH[:-2]) == 0
    with open(compare, encoding="utf-8") as f:
        runs = json.load(f)["report"]["runs"]
    assert [(r["seed"], r["family"]) for r in runs] == [(0, "gmvae"), (0, "vae-gmm")]
    # sweep's rows at --seed 5, then compare's runs at seed 0, each on the ki vocab's d
    assert trained == [("GmvaeModel", 5, 256 * 7), ("VaeModel", 5, 256 * 7), ("GmvaeModel", 0, 256 * 7), ("VaeModel", 0, 256 * 7)]


@pytest.mark.parametrize(
    "command", ["eval-cluster", "compare", "train", "train-baseline", "sweep", "encode --balanced"]
)
def test_commands_that_need_level_types_refuse_the_untyped_manifest(
    ki_manifest, ki_models, tmp_path, capsys, monkeypatch, command
):
    def no_run(*args, **kwargs):
        raise AssertionError("trained on a corpus without level types")

    monkeypatch.setattr(gm, "TrainingRun", no_run)
    model, out = ["--model", str(ki_models["gmvae"] / "model.ckpt")], ["--out", str(tmp_path / "o")]
    balanced = ["--sampler", "balanced"] + TOY_WIDTH
    argv = {
        "eval-cluster": ["eval-cluster"] + model + out,
        "compare": ["compare", "--seeds", "0"] + out + TOY_WIDTH[:-2],
        "train": ["train", "--k", "3", "--out-dir", str(tmp_path / "run")] + balanced,
        "train-baseline": ["train-baseline", "--k", "3", "--out-dir", str(tmp_path / "run")] + balanced,
        "sweep": ["sweep", "--k-list", "2", "--n-per-component", "8", "--n-train", "4"] + out + balanced,
        "encode --balanced": ["encode", "--balanced"] + model + out,
    }[command]
    capsys.readouterr()
    assert cli.run(argv + ["--manifest", ki_manifest]) == 2
    captured = capsys.readouterr()
    error = json.loads(captured.err)  # exactly one JSON document
    assert captured.err.count("\n") == 1 and captured.out == ""
    assert error["type"] == "MissingLabels" and "ki-00.txt" in error["message"] and ki_manifest in error["message"]
    assert os.listdir(tmp_path) == []
