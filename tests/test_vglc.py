"""Manifest building from a level-corpus checkout: vglc.build_manifest and
`levelmix build-manifest`, on a fake checkout of toy levels."""

import json
import os

import pytest

from levelmix import cli
from levelmix import corpus as cp
from levelmix import toygame
from levelmix import vglc
from levelmix.errors import DataError

LEVELS = toygame.make_corpus(levels_per_type=1, cols=24, seed=4)


def write_levels(directory, levels=LEVELS):
    os.makedirs(directory, exist_ok=True)
    for level in levels:
        with open(os.path.join(directory, f"{level.level_id}.txt"), "w") as f:
            f.write("\n".join(level.tiles) + "\n")


@pytest.fixture
def checkout(tmp_path):
    """A checkout with the toy levels in the first level directory of smb
    and of ki."""
    root = tmp_path / "checkout"
    for game in ("smb", "ki"):
        write_levels(root / vglc.GAME_DIRS[game][0])
    return root


def build(root, game, **kwargs):
    """The manifest, as the JSON that build-manifest writes reads back."""
    return json.loads(json.dumps(vglc.build_manifest(str(root), game, **kwargs)))


def level_dirs(manifest):
    return {os.path.dirname(entry["path"]) for entry in manifest["levels"]}


def test_the_first_level_directory_with_level_files_wins(tmp_path):
    root = tmp_path / "checkout"
    first, second, third = (root / d for d in vglc.GAME_DIRS["smb"])
    os.makedirs(first)  # exists, but holds no .txt file
    write_levels(second, LEVELS[:1])
    write_levels(third, LEVELS)
    assert level_dirs(build(root, "smb")) == {str(second)}
    write_levels(first, LEVELS[:2])
    manifest = build(root, "smb")
    assert level_dirs(manifest) == {str(first)} and len(manifest["levels"]) == 2


def test_levels_dir_overrides_discovery(checkout, tmp_path):
    elsewhere = tmp_path / "elsewhere"
    write_levels(elsewhere, LEVELS[:2])
    manifest = build(checkout, "smb", levels_dir=str(elsewhere))
    assert level_dirs(manifest) == {str(elsewhere)}
    assert [os.path.basename(e["path"]) for e in manifest["levels"]] == sorted(
        f"{level.level_id}.txt" for level in LEVELS[:2]
    )


def test_heuristic_types_for_smb_only(checkout):
    expected = {f"{level.level_id}.txt": level.level_type for level in LEVELS}
    smb = build(checkout, "smb")
    assert {os.path.basename(e["path"]): e["type"] for e in smb["levels"]} == expected
    assert not any("type" in e for e in build(checkout, "smb", heuristic_types=False)["levels"])
    assert not any("type" in e for e in build(checkout, "ki")["levels"])


def test_smb_levels_are_padded_and_ki_levels_are_not(checkout):
    smb, ki = build(checkout, "smb"), build(checkout, "ki")
    assert smb["pad"] == {"rows_to": 16, "side": "top"} and "pad" not in ki
    assert (smb["axis"], ki["axis"]) == ("horizontal", "vertical")
    assert smb["solidity"] == vglc.SOLIDITY["smb"]


def test_a_level_file_that_is_not_text_is_a_data_error(checkout):
    (checkout / vglc.GAME_DIRS["smb"][0] / "broken.txt").write_bytes(b"\xff\xfe--\n--\n")
    with pytest.raises(DataError, match="broken.txt: level file is not text"):
        build(checkout, "smb")


def test_build_manifest_command_writes_the_manifest_and_its_summary(checkout, tmp_path, capsys):
    out = tmp_path / "cli.json"
    assert cli.run(["build-manifest", "--corpus-root", str(checkout), "--game", "smb", "--out", str(out)]) == 0
    built = capsys.readouterr()
    assert out.read_text() == json.dumps(vglc.build_manifest(str(checkout), "smb"), indent=2)
    with open(str(out) + ".run.json") as f:
        run_info = json.load(f)
    assert run_info["command"] == "build-manifest" and run_info["flags"]["game"] == "smb"

    # the manifest loads, and its summary is ingest's
    manifest = cp.load_manifest(str(out))
    _, vocab, chunks = cp.load_corpus(manifest)
    assert {c.level_type for c in chunks} == set(toygame.TYPES)
    assert cli.run(["ingest", "--manifest", str(out)]) == 0
    summary = json.loads(built.out)
    assert summary == json.loads(capsys.readouterr().out)
    assert (summary["vocab_size"], summary["chunks"]) == (vocab.size, len(chunks))

    # a toy corpus is not the published one: reported on stderr, not refused
    warnings = built.err.splitlines()
    assert warnings == [f"warning: {delta}" for delta in vglc.check_against_reference(
        "smb", summary["vocab_size"], summary["d"], summary["chunks"])]
    assert len(warnings) == 3


def test_build_manifest_command_without_heuristic_types(checkout, tmp_path, capsys):
    out = tmp_path / "cli.json"
    argv = ["build-manifest", "--corpus-root", str(checkout), "--game", "smb", "--out", str(out)]
    assert cli.run(argv + ["--no-heuristic-types"]) == 0
    levels = json.loads(out.read_text())["levels"]
    assert not any("type" in e for e in levels)

    # no later command guesses the types the manifest leaves out
    run = tmp_path / "run"
    argv = ["train", "--manifest", str(out), "--k", "2", "--out-dir", str(run)]
    assert cli.run(argv + ["--epochs", "1", "--hidden-width", "8", "--latent-dim", "2"]) == 0
    for command in (
        ["eval-cluster", "--model", str(run / "model.ckpt")],
        ["compare", "--seeds", "0", "--k", "2", "--epochs", "1", "--hidden-width", "8", "--latent-dim", "2"],
    ):
        report = tmp_path / "report.json"
        capsys.readouterr()
        assert cli.run(command + ["--manifest", str(out), "--out", str(report)]) == 2
        error = json.loads(capsys.readouterr().err)
        assert error["type"] == "MissingLabels" and os.path.basename(levels[0]["path"]) in error["message"]
        assert not report.exists()


@pytest.mark.parametrize(
    "case, code, kind",
    [
        ("unknown game", 1, "usage"),
        ("missing checkout", 2, "data"),
        ("no level files", 2, "data"),
        ("empty levels dir", 2, "data"),
        ("level not text", 2, "data"),
    ],
)
def test_build_manifest_command_errors_are_one_json_line(checkout, tmp_path, capsys, case, code, kind):
    root, game, extra = checkout, "smb", []
    if case == "unknown game":
        game = "zz"
    elif case == "missing checkout":
        root = tmp_path / "nowhere"
    elif case == "no level files":
        root = tmp_path / "bare"
        os.makedirs(root / vglc.GAME_DIRS["smb"][0])
        (root / vglc.GAME_DIRS["smb"][0] / "level.lvl").write_text("--\n")
    elif case == "empty levels dir":
        os.makedirs(tmp_path / "empty")
        extra = ["--levels-dir", str(tmp_path / "empty")]
    else:
        (checkout / vglc.GAME_DIRS["smb"][0] / "broken.txt").write_bytes(b"\xff\xfe--\n")
    out = tmp_path / "out.json"
    capsys.readouterr()
    assert cli.run(["build-manifest", "--corpus-root", str(root), "--game", game, "--out", str(out)] + extra) == code
    captured = capsys.readouterr()
    error = json.loads(captured.err)  # exactly one JSON document
    assert captured.err.count("\n") == 1 and captured.out == ""
    assert error["error"] == kind
    if kind == "usage":
        assert "'zz'" in error["message"] and not out.exists()


def test_build_manifest_command_writes_nothing_when_the_corpus_does_not_load(checkout, tmp_path, capsys):
    # ki levels get no heuristic type, so a level that is not text is met
    # only when the corpus loads
    (checkout / vglc.GAME_DIRS["ki"][0] / "broken.txt").write_bytes(b"\xff\xfe--\n")
    out = tmp_path / "ki.json"
    capsys.readouterr()
    assert cli.run(["build-manifest", "--corpus-root", str(checkout), "--game", "ki", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    error = json.loads(captured.err)
    assert captured.err.count("\n") == 1 and captured.out == ""
    assert error["type"] == "DataError" and "broken.txt" in error["message"]
    assert not out.exists() and not os.path.exists(str(out) + ".run.json")
