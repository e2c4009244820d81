"""A small synthetic platformer corpus with three visually distinct level
types, used by the test suite and the demo workflow. Not a real game's data;
it exists so the full pipeline can run end to end without any external
corpus.

Types mirror the usual platformer taxonomy: "overworld" levels have a ground
line along the bottom with occasional gaps and scattered blocks,
"underworld" levels add a solid ceiling, and "jumpy" levels are floating
platforms with no ground line.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .corpus import LevelGrid

BACKGROUND = "-"
GROUND = "X"
BLOCK = "S"
COIN = "o"

SOLIDITY = {BACKGROUND: "passable", GROUND: "solid", BLOCK: "solid", COIN: "passable"}

TYPES = ("overworld", "underworld", "jumpy")


def make_level(level_type, cols=64, rows=16, seed=0, level_id=None):
    rng = np.random.default_rng(seed)
    grid = [[BACKGROUND] * cols for _ in range(rows)]

    if level_type == "overworld":
        for c in range(cols):
            grid[rows - 1][c] = GROUND
            grid[rows - 2][c] = GROUND
        # occasional two-wide gaps, never in the first or last chunk column
        c = 8
        while c < cols - 18:
            if rng.random() < 0.15:
                for gc in (c, c + 1):
                    grid[rows - 1][gc] = BACKGROUND
                    grid[rows - 2][gc] = BACKGROUND
                c += 6
            else:
                c += 1
        for _ in range(cols // 6):
            c = int(rng.integers(0, cols))
            r = int(rng.integers(rows - 7, rows - 4))
            grid[r][c] = BLOCK
        for _ in range(cols // 8):
            grid[int(rng.integers(2, rows - 6))][int(rng.integers(0, cols))] = COIN
    elif level_type == "underworld":
        for c in range(cols):
            grid[0][c] = GROUND
            grid[1][c] = GROUND
            grid[rows - 1][c] = GROUND
        for _ in range(cols // 5):
            c = int(rng.integers(0, cols))
            height = int(rng.integers(1, 4))
            for r in range(rows - 1 - height, rows - 1):
                grid[r][c] = BLOCK
    elif level_type == "jumpy":
        # staggered platforms, three tiles apart vertically
        for band, r in enumerate(range(rows - 2, 2, -3)):
            offset = (band * 3) % 5
            c = offset
            while c < cols - 3:
                width = 3 + int(rng.integers(0, 3))
                for pc in range(c, min(c + width, cols)):
                    grid[r][pc] = BLOCK
                c += width + 2 + int(rng.integers(0, 2))
        for _ in range(cols // 8):
            grid[int(rng.integers(1, rows - 3))][int(rng.integers(0, cols))] = COIN
    else:
        raise ValueError(f"unknown level type {level_type!r}")

    rows_text = ["".join(r) for r in grid]
    return LevelGrid(
        rows=rows,
        cols=cols,
        tiles=rows_text,
        level_id=level_id or f"toy-{level_type}-{seed}",
        level_type=level_type,
    )


def make_corpus(levels_per_type=3, cols=64, seed=0):
    """A list of LevelGrids covering all three types."""
    levels = []
    for i, level_type in enumerate(TYPES):
        for j in range(levels_per_type):
            levels.append(make_level(level_type, cols=cols, seed=seed + 17 * i + j))
    return levels


def write_corpus(directory, levels_per_type=3, cols=64, seed=0):
    """Write level files plus a manifest; returns the manifest path."""
    os.makedirs(directory, exist_ok=True)
    entries = []
    for level in make_corpus(levels_per_type=levels_per_type, cols=cols, seed=seed):
        name = f"{level.level_id}.txt"
        with open(os.path.join(directory, name), "w", encoding="utf-8") as f:
            f.write("\n".join(level.tiles) + "\n")
        entries.append({"path": name, "type": level.level_type})
    manifest = {
        "game": "toy",
        "axis": "horizontal",
        "background": BACKGROUND,
        "levels": entries,
        "solidity": SOLIDITY,
        "jump": {"max_height": 4, "max_span": 5},
    }
    path = os.path.join(directory, "toy.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=2)
    return path
