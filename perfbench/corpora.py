"""Seeded synthetic level corpora with the reference shapes of vglc.py.

smb-shaped: 12 horizontal levels, 14 rows tall (the manifest pads them to 16),
every tile of vglc.SOLIDITY["smb"], and four levels of each heuristic level
type (overworld, underworld, jumpy), 2698 chunks at d = 3072.

ki-shaped: 6 vertical levels, 16 columns wide, the 7 tiles of
vglc.SOLIDITY["ki"], 1142 chunks at d = 1792.

Gaps and step heights stay inside the default jump limits (height 4, span 5).
About 92% of the smb chunks are crossable; the others start or end over a gap.
"""

from __future__ import annotations

import json
import os

import numpy as np

SMB_LEVELS = 12
SMB_ROWS = 14
SMB_TYPES = ("overworld", "underworld", "jumpy")
KI_LEVELS = 6
KI_COLS = 16
WINDOW = 16


def _widths(rng, count, total, low):
    """`count` sizes of at least `low` that sum to `total`."""
    cuts = np.sort(rng.choice(np.arange(1, total - count * low), size=count - 1, replace=False))
    parts = np.diff(np.concatenate([[0], cuts, [total - count * low]]))
    return [int(p) + low for p in parts]


def _smb_level(rng, level_type, cols):
    rows = SMB_ROWS
    g = [["-"] * cols for _ in range(rows)]
    ground = rows - 1
    if level_type in ("overworld", "underworld"):
        for c in range(cols):
            g[ground][c] = "X"
            g[ground - 1][c] = "X"
        c = 20
        while c < cols - 20:  # gaps of 1-2 columns
            if rng.random() < 0.03:
                for gc in range(c, c + int(rng.integers(1, 3))):
                    g[ground][gc] = g[ground - 1][gc] = "-"
                c += 8
            c += 1
        floor = ground - 2
        if level_type == "underworld":
            for c in range(cols):
                g[0][c] = "X"
        for c in range(6, cols - 6, 9):  # pipes, brick rows and question blocks
            kind = rng.random()
            if g[floor + 1][c] != "X" or g[floor + 1][c + 1] != "X":
                continue
            if kind < 0.25:
                height = int(rng.integers(1, 3))
                for r in range(floor - height + 1, floor + 1):
                    g[r][c], g[r][c + 1] = "[", "]"
                g[floor - height][c], g[floor - height][c + 1] = "<", ">"
            elif kind < 0.6:
                r = floor - 3
                for bc in range(c, c + int(rng.integers(2, 5))):
                    g[r][bc] = "S" if rng.random() < 0.6 else ("?" if rng.random() < 0.5 else "Q")
            elif kind < 0.8:
                g[floor][c] = "E"
            else:
                g[floor - 4][c] = "o"
    else:  # jumpy: floating platforms, nothing in the bottom row
        r, c = ground - 2, 0
        while c < cols:
            width = int(rng.integers(14, 23))
            for pc in range(c, min(c + width, cols)):
                g[r][pc] = "X" if rng.random() < 0.7 else "S"
            if rng.random() < 0.3 and r - 1 > 1:
                g[r - 1][c + width // 2 if c + width // 2 < cols else c] = "o"
            c += width + int(rng.integers(1, 3))
            r = int(np.clip(r + rng.integers(-2, 3), 5, ground - 1))
    return ["".join(row) for row in g]


def _ki_level(rng, rows):
    cols = KI_COLS
    g = [["-"] * cols for _ in range(rows)]
    for r in range(rows):
        g[r][0] = g[r][cols - 1] = "#"
    for r in range(rows - 1, 0, -3):  # a ledge every three rows with a gap in it
        start = int(rng.integers(1, cols - 6))
        width = int(rng.integers(4, 9))
        tile = "#" if rng.random() < 0.6 else ("T" if rng.random() < 0.5 else "M")
        for c in range(start, min(start + width, cols - 1)):
            g[r][c] = tile
        if rng.random() < 0.1:
            g[r - 1][start] = "H"
        elif rng.random() < 0.05:
            g[r - 1][start] = "D"
    return ["".join(row) for row in g]


def _write(directory, game, levels, manifest_extra):
    os.makedirs(directory, exist_ok=True)
    entries = []
    for i, (lines, level_type) in enumerate(levels):
        name = f"{game}-{i:02d}.txt"
        with open(os.path.join(directory, name), "w") as f:
            f.write("\n".join(lines) + "\n")
        entry = {"path": name}
        if level_type is not None:
            entry["type"] = level_type
        entries.append(entry)
    manifest = {"game": game, "background": "-", "levels": entries, **manifest_extra}
    path = os.path.join(directory, f"{game}.json")
    with open(path, "w") as f:
        json.dump(manifest, f, indent=2)
    return path


def write_smb(directory, seed, solidity, chunks):
    """Write the smb-shaped corpus and its manifest; returns the manifest path."""
    rng = np.random.default_rng([seed, 1])
    widths = _widths(rng, SMB_LEVELS, chunks + SMB_LEVELS * (WINDOW - 1), 160)
    types = [SMB_TYPES[i % 3] for i in range(SMB_LEVELS)]
    levels = [(_smb_level(rng, t, w), t) for t, w in zip(types, widths)]
    # the two tiles that are rare in real smb levels: one start marker, one coin
    first = [list(row) for row in levels[0][0]]
    first[SMB_ROWS - 3][1] = "P"
    first[SMB_ROWS - 8][3] = "o"
    levels[0] = (["".join(row) for row in first], levels[0][1])
    return _write(directory, "smb", levels, {
        "axis": "horizontal",
        "pad": {"rows_to": 16, "side": "top"},
        "solidity": solidity,
        "jump": {"max_height": 4, "max_span": 5},
    })


def write_ki(directory, seed, solidity, chunks):
    """Write the ki-shaped corpus and its manifest; returns the manifest path."""
    rng = np.random.default_rng([seed, 2])
    heights = _widths(rng, KI_LEVELS, chunks + KI_LEVELS * (WINDOW - 1), 120)
    levels = [(_ki_level(rng, h), None) for h in heights]
    # every tile at least once, in the first level
    first = [list(row) for row in levels[0][0]]
    for r, tile in zip((4, 7, 10, 13, 16), "#TMDH"):
        first[r][2] = tile
    first[len(first) - 2][7] = "P"
    levels[0] = (["".join(row) for row in first], None)
    return _write(directory, "ki", levels, {
        "axis": "vertical",
        "solidity": solidity,
        "jump": {"max_height": 4, "max_span": 5},
    })
