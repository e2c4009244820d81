"""Manifest builders for a local checkout of the common video-game level
corpus. The corpus itself is never downloaded here; point these helpers at
an existing checkout directory.

Reference figures for the three supported games (chunk counts from
stride-1 16x16 windows and the resulting one-hot dimensions):

    smb: 2698 chunks, 12 tiles, d = 3072
    ki:  1142 chunks,  7 tiles, d = 1792
    mm:  3330 chunks, 17 tiles, d = 4352

Games are configured with the traversal axis, solidity defaults and padding:
the horizontal-game level files are 14 rows tall in the corpus and are padded
to 16 with background rows on top so a 16x16 window fits.
"""

from __future__ import annotations

import glob
import os

from .corpus import classify_level_type, read_level
from .errors import DataError

EXPECTED_CHUNKS = {"smb": 2698, "ki": 1142, "mm": 3330}
EXPECTED_VOCAB = {"smb": 12, "ki": 7, "mm": 17}
EXPECTED_D = {game: 256 * t for game, t in EXPECTED_VOCAB.items()}

# candidate level directories inside a corpus checkout, first match wins
GAME_DIRS = {
    "smb": ["Super Mario Bros/Processed", "Super Mario Bros", "SuperMarioBros/Processed"],
    "ki": ["Kid Icarus/Processed", "Kid Icarus", "KidIcarus/Processed"],
    "mm": ["Mega Man/Processed", "Mega Man", "MegaMan/Processed", "Megaman/Processed"],
}

GAME_AXIS = {"smb": "horizontal", "ki": "vertical", "mm": "both"}

# movement solidity; enemies and hazards are passable for the playability agent
SOLIDITY = {
    "smb": {
        "X": "solid", "S": "solid", "Q": "solid", "?": "solid",
        "[": "solid", "]": "solid", "<": "solid", ">": "solid",
        "E": "hazard",
        "-": "passable", "o": "passable", "P": "passable",
    },
    "ki": {
        "#": "solid", "T": "solid", "M": "solid", "D": "solid",
        "H": "hazard",
        "-": "passable", "P": "passable",
    },
    "mm": {},  # playability is not defined for mixed-axis games
}

PAD = {"smb": {"rows_to": 16, "side": "top"}, "ki": None, "mm": None}


def find_levels_dir(corpus_root, game):
    for candidate in GAME_DIRS[game]:
        path = os.path.join(corpus_root, candidate)
        if os.path.isdir(path) and glob.glob(os.path.join(path, "*.txt")):
            return path
    raise DataError(
        f"no level directory for {game!r} under {corpus_root} "
        f"(tried {GAME_DIRS[game]})"
    )


def build_manifest(corpus_root, game, levels_dir=None, heuristic_types=True):
    """The manifest dict of one game of a corpus checkout.

    Level-type labels for smb come from the structural heuristic (ceiling
    rows, missing ground line), the one place a type is guessed: commands
    read types from the manifest alone. Edit the manifest to override them,
    or to type ki and mm levels.
    """
    if game not in GAME_DIRS:
        raise DataError(f"unknown game {game!r}; expected one of {sorted(GAME_DIRS)}")
    directory = levels_dir or find_levels_dir(corpus_root, game)
    level_files = sorted(glob.glob(os.path.join(directory, "*.txt")))
    if not level_files:
        raise DataError(f"no .txt level files in {directory}")
    entries = [{"path": os.path.abspath(p)} for p in level_files]
    if heuristic_types and game == "smb":
        for entry in entries:
            entry["type"] = classify_level_type(read_level(entry["path"]))
    manifest = {
        "game": game,
        "axis": GAME_AXIS[game],
        "background": "-",
        "levels": entries,
        "solidity": SOLIDITY[game],
        "jump": {"max_height": 4, "max_span": 5},
    }
    if PAD[game]:
        manifest["pad"] = PAD[game]
    return manifest


def check_against_reference(game, vocab_size, d, chunk_count):
    """Compare an ingest against the published figures; returns a list of
    human-readable deltas (empty when everything matches)."""
    deltas = []
    if vocab_size != EXPECTED_VOCAB[game]:
        deltas.append(f"{game}: vocab size {vocab_size} != expected {EXPECTED_VOCAB[game]}")
    if d != EXPECTED_D[game]:
        deltas.append(f"{game}: d {d} != expected {EXPECTED_D[game]}")
    if chunk_count != EXPECTED_CHUNKS[game]:
        deltas.append(
            f"{game}: chunk count {chunk_count} != expected {EXPECTED_CHUNKS[game]} "
            f"(delta {chunk_count - EXPECTED_CHUNKS[game]:+d})"
        )
    return deltas
