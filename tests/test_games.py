"""The paper's vertical game, Kid Icarus, through the CLI at toy width: a
ki-shaped corpus from perfbench/corpora.py, cut to its first two levels."""

import json
import os
import sys

import pytest

from conftest import read_header
from levelmix import checkpoints as ckpt
from levelmix import cli
from levelmix import corpus as cp
from levelmix import vglc

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
TOY_WIDTH = ["--epochs", "2", "--hidden-width", "32", "--latent-dim", "8", "--seed", "5"]


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


def test_the_vertical_game_through_the_cli(ki_manifest, tmp_path, capsys):
    manifest = cp.load_manifest(ki_manifest)
    levels = cp.load_levels(manifest, heuristic_types=True)
    assert manifest.axis == "vertical" and len(levels) == 2
    # a 16-column level gives one window per row offset
    assert all(level.cols == 16 for level in levels)
    chunks = sum(level.rows - 15 for level in levels)

    capsys.readouterr()
    assert cli.run(["ingest", "--manifest", ki_manifest]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert (summary["vocab_size"], summary["d"], summary["chunks"]) == (7, 256 * 7, chunks)

    for command in ("train", "train-baseline"):
        out_dir = tmp_path / command
        argv = [command, "--manifest", ki_manifest, "--k", "3", "--out-dir", str(out_dir)] + TOY_WIDTH
        assert cli.run(argv) == 0, command
        assert sorted(os.listdir(out_dir)) == ["history.csv", "model.ckpt", "run.json"]
        model_path = str(out_dir / "model.ckpt")
        _, model, _ = ckpt.load_any(model_path)
        assert read_header(model_path)["config"]["d"] == 256 * model.vocab.size == 256 * 7
        cut = [c for level in levels for c in cp.extract_chunks(level, model.vocab, axis="vertical")]
        assert len(cut) == chunks

        cluster = tmp_path / f"{command}-cluster.json"
        assert cli.run(["eval-cluster", "--model", model_path, "--manifest", ki_manifest, "--out", str(cluster)]) == 0
        with open(cluster, encoding="utf-8") as f:
            assert sum(map(sum, json.load(f)["report"]["confusion"])) == chunks

        capsys.readouterr()
        assert cli.run(["generate", "--model", model_path, "--component", "2", "--n", "2"]) == 0
        blocks = capsys.readouterr().out.strip().split("\n\n")
        assert [[len(row) for row in block.split("\n")] for block in blocks] == [[16] * 16] * 2

        play = tmp_path / f"{command}-play.json"
        argv = ["eval-playability", "--model", model_path, "--manifest", ki_manifest, "--out", str(play)]
        assert cli.run(argv + ["--budget", "6"]) == 0
        with open(play, encoding="utf-8") as f:
            report = json.load(f)["report"]
        assert report["total"] == 6 and 0.0 <= report["fraction"] <= 1.0
