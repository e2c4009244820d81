"""Level-corpus handling: parse character-grid level files, build tile
vocabularies, slide 16x16 windows into chunks, and convert chunks to and
from flat one-hot vectors.

Levels are plain text, one character per tile, rows separated by newlines
(the format used by the common level-corpus repositories). A JSON manifest
describes one game: its level files, optional per-level type labels, the
tile solidity map and the traversal axis.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import (
    DataError,
    EmptyLevel,
    IdOutOfRange,
    LengthMismatch,
    LevelTooSmall,
    MissingLabels,
    RaggedRows,
)

CHUNK_SIZE = 16
AXES = ("horizontal", "vertical", "both")
PAD_SIDES = ("top", "bottom")
# what a manifest's solidity map may call a tile, for the playability agent
SOLID, PASSABLE, HAZARD = "solid", "passable", "hazard"
SOLIDITY_KINDS = (SOLID, PASSABLE, HAZARD)
# padding only has to make a 16-row window fit; every row past that is a row
# of background windows, and pad_level builds each one as a string. The jump
# fields share the bound: a flood runs one round per unit of jump height and
# holds max_span + 1 planes of the chunks, and a 16x16 chunk has no use for
# either past 16
MAX_PAD_ROWS = 256


@dataclass
class LevelGrid:
    rows: int
    cols: int
    tiles: list  # list of row strings, row 0 = top
    level_id: str = ""
    level_type: Optional[str] = None


def parse_level(text, level_id="", level_type=None):
    """Parse raw level file contents into a rectangular LevelGrid."""
    if text is None:
        raise EmptyLevel(f"{level_id or 'level'}: empty input")
    lines = text.split("\n")
    # tolerate a trailing newline / trailing blank lines
    while lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise EmptyLevel(f"{level_id or 'level'}: no rows")
    width = len(lines[0])
    if width == 0:
        raise EmptyLevel(f"{level_id or 'level'}: empty first row")
    for i, line in enumerate(lines):
        if len(line) != width:
            raise RaggedRows(
                f"{level_id or 'level'}: row {i} has {len(line)} chars, expected {width}"
            )
    return LevelGrid(rows=len(lines), cols=width, tiles=lines, level_id=level_id, level_type=level_type)


def pad_level(level, rows_to, side="top", fill="-"):
    """Pad a level with rows of `fill` until it is `rows_to` rows tall."""
    if level.rows >= rows_to:
        return level
    extra = [fill * level.cols] * (rows_to - level.rows)
    tiles = extra + list(level.tiles) if side == "top" else list(level.tiles) + extra
    return LevelGrid(rows_to, level.cols, tiles, level.level_id, level.level_type)


@dataclass(frozen=True)
class TileVocab:
    game: str
    chars: tuple  # ascending character code; index == tile id
    background_char: str = "-"

    @property
    def size(self):
        return len(self.chars)

    @property
    def char_to_id(self):
        return {c: i for i, c in enumerate(self.chars)}

    def id_of(self, char):
        try:
            return self.chars.index(char)
        except ValueError:
            raise IdOutOfRange(f"character {char!r} not in vocab for {self.game}") from None

    @property
    def background_id(self):
        return self.id_of(self.background_char)


def build_vocab(levels, game="", background_char="-"):
    """Vocabulary over every character in the given levels.

    Ids are assigned by ascending character code so the mapping does not
    depend on file order or platform.
    """
    if not levels:
        raise EmptyLevel("need at least one level to build a vocab")
    chars = set()
    for level in levels:
        for row in level.tiles:
            chars.update(row)
    return TileVocab(game=game, chars=tuple(sorted(chars)), background_char=background_char)


@dataclass
class Chunk:
    tiles: np.ndarray  # (16, 16) integer tile ids
    level_id: str = ""
    offset: tuple = (0, 0)  # (row, col) of the window's top-left corner
    level_type: Optional[str] = None

    def __post_init__(self):
        self.tiles = np.asarray(self.tiles, dtype=np.int64)
        if self.tiles.shape != (CHUNK_SIZE, CHUNK_SIZE):
            raise LengthMismatch(f"chunk must be 16x16, got {self.tiles.shape}")


def _check_ids(ids, size):
    """IdOutOfRange naming the first id outside [0, size), in row-major order."""
    bad = (ids < 0) | (ids >= size)
    if bad.any():
        raise IdOutOfRange(f"tile id {ids.flat[np.argmax(bad)]} out of range [0, {size})")


def chunk_to_lines(chunk, vocab):
    """Render a chunk back to its 16 row strings."""
    _check_ids(chunk.tiles, vocab.size)
    # index the vocab's code points, then read them back as one string
    codes = np.array([ord(c) for c in vocab.chars], dtype="<u4")
    text = codes[chunk.tiles].tobytes().decode("utf-32-le", "surrogatepass")
    return [text[i : i + CHUNK_SIZE] for i in range(0, len(text), CHUNK_SIZE)]


def level_to_ids(level, vocab):
    """The level's tile ids in vocab; a character the vocab lacks is a
    DataError naming it and the vocab."""
    lookup = vocab.char_to_id
    try:
        return np.array([[lookup[c] for c in row] for row in level.tiles], dtype=np.int64)
    except KeyError as exc:
        raise DataError(
            f"{level.level_id}: tile character {exc.args[0]!r} is not in the vocab {''.join(vocab.chars)!r}"
        ) from None


def extract_chunks(level, vocab, axis="horizontal"):
    """All 16x16 chunks of a level, one at each tile offset.

    The traversal axis orders the sweep (columns first for horizontal levels,
    rows first for vertical ones); every anchor position where the window
    fits is visited exactly once, so identical window contents from
    overlapping positions are retained, never deduplicated. Levels smaller
    than the window in either dimension are rejected.
    """
    if axis not in AXES:
        raise DataError(f"unknown traversal axis {axis!r}")
    if level.rows < CHUNK_SIZE or level.cols < CHUNK_SIZE:
        raise LevelTooSmall(
            f"{level.level_id}: {level.rows}x{level.cols} cannot fit a {CHUNK_SIZE}x{CHUNK_SIZE} window"
        )
    ids = level_to_ids(level, vocab)
    row_anchors = range(level.rows - CHUNK_SIZE + 1)
    col_anchors = range(level.cols - CHUNK_SIZE + 1)
    if axis == "vertical":
        anchors = [(r, c) for c in col_anchors for r in row_anchors]
    else:
        # horizontal sweeps advance along columns; "both" visits the same
        # full anchor grid, ordered row-major
        anchors = [(r, c) for r in row_anchors for c in col_anchors]
    return [
        Chunk(
            tiles=ids[r : r + CHUNK_SIZE, c : c + CHUNK_SIZE].copy(),
            level_id=level.level_id,
            offset=(r, c),
            level_type=level.level_type,
        )
        for r, c in anchors
    ]


def one_hot_encode(chunk, vocab):
    """Flatten a chunk to a one-hot float64 vector of length 256 * vocab
    size: the one row of _one_hot for this chunk."""
    return _one_hot(chunk.tiles[None], vocab.size, np.float64)[0]


def encode_chunks(chunks, vocab):
    """The chunks' one-hot encodings as the rows of one (n, d) uint8 matrix,
    one byte per entry: row i is one_hot_encode(chunks[i], vocab). 0 and 1
    are exact in every dtype, so the networks cast the rows they read to
    their own dtype with no change in value."""
    return _one_hot(np.stack([c.tiles for c in chunks]), vocab.size, np.uint8)


def _one_hot(tiles, t, dtype):
    """The (n, 256 * t) one-hot rows of n stacked tile-id grids.

    Layout is cell-major: entry [cell * t + tile_id] with cell = row * 16 + col.
    This ordering is part of the checkpoint format and must not change.
    """
    ids = tiles.reshape(-1)
    _check_ids(ids, t)
    out = np.zeros((len(tiles), ids.size // len(tiles) * t), dtype=dtype)
    out.reshape(-1)[np.arange(ids.size) * t + ids] = 1
    return out


def decode(values, vocab, level_id="", offset=(0, 0)):
    """Per-cell argmax of a flat vector back to a 16x16 integer chunk.

    Ties break toward the lowest tile id. Floating values keep their dtype
    (a float32 decoder's output is not copied to float64, which would not
    change its argmax); other values are read as float64.
    """
    values = np.asarray(values)
    if values.dtype.kind != "f":
        values = values.astype(np.float64)
    t = vocab.size
    d = CHUNK_SIZE * CHUNK_SIZE * t
    if values.shape != (d,):
        raise LengthMismatch(f"expected length {d}, got {values.shape}")
    ids = values.reshape(CHUNK_SIZE * CHUNK_SIZE, t).argmax(axis=1)
    return Chunk(
        tiles=ids.reshape(CHUNK_SIZE, CHUNK_SIZE),
        level_id=level_id,
        offset=offset,
    )


def classify_level_type(level):
    """Heuristic level-type label: ground (X) in the top row means
    underworld, no ground in the bottom row means jumpy, anything else
    overworld."""
    if "X" in level.tiles[0]:
        return "underworld"
    if "X" not in level.tiles[-1]:
        return "jumpy"
    return "overworld"


class BalancedSampler:
    """Index sampler weighting each chunk by 1 / (count of its type),
    so the expected draw frequency is equal across level types. Owns a seeded
    RNG; intended for a single consumer."""

    def __init__(self, level_types, rng_seed):
        if any(t is None for t in level_types):
            raise MissingLabels("every chunk needs a level_type label")
        self.level_types = list(level_types)
        counts = {}
        for t in self.level_types:
            counts[t] = counts.get(t, 0) + 1
        weights = np.array([1.0 / counts[t] for t in self.level_types], dtype=np.float64)
        self.probabilities = weights / weights.sum()
        self.rng = np.random.default_rng(rng_seed)

    def draw(self, n):
        return self.rng.choice(len(self.level_types), size=n, p=self.probabilities)


@dataclass
class DatasetManifest:
    game: str
    level_paths: list
    level_types: list  # parallel to level_paths, entries may be None
    solidity: dict = field(default_factory=dict)  # char -> solid|passable|hazard
    axis: str = "horizontal"
    background: str = "-"
    pad_rows_to: Optional[int] = None
    pad_side: str = "top"
    jump_max_height: int = 4
    jump_max_span: int = 5
    path: Optional[str] = None

    def __post_init__(self):
        if self.axis not in AXES:
            raise DataError(f"manifest axis must be one of {AXES}, got {self.axis!r}")


def load_manifest(path):
    with open(path, encoding="utf-8") as f:
        try:
            raw = json.load(f)
        except (ValueError, RecursionError) as exc:  # JSONDecodeError, UnicodeDecodeError, deep nesting
            raise DataError(f"{path}: manifest is not JSON ({exc})") from None
    try:
        return manifest_from_json(raw, path)
    except (AttributeError, KeyError, TypeError) as exc:  # a value of the wrong JSON type
        raise DataError(f"{path}: malformed manifest ({type(exc).__name__}: {exc})") from None


_JSON_KINDS = {str: "a string", int: "an integer", dict: "an object", list: "an array", type(None): "null"}


def _checked(value, kinds, what, path):
    """value if it has one of the JSON kinds (str, int, dict, list, None),
    else a DataError naming the manifest field; no field takes a boolean."""
    if isinstance(value, bool) or not isinstance(value, kinds):
        names = " or ".join(_JSON_KINDS[k] for k in kinds)
        raise DataError(f"{path}: manifest {what} must be {names}, got {value!r}")
    return value


def _count(value, what, path, limit=None):
    """An integer manifest field that counts tiles: in [0, limit], or just
    non-negative without a limit; else a DataError naming the field."""
    _checked(value, (int,), what, path)
    if value < 0 or (limit is not None and value > limit):
        bound = ">= 0" if limit is None else f"in [0, {limit}]"
        raise DataError(f"{path}: manifest {what} must be {bound}, got {value}")
    return value


def manifest_from_json(raw, path):
    """The DatasetManifest of a manifest's parsed JSON; relative level
    paths are taken from path's directory, and errors name path."""
    base = os.path.dirname(os.path.abspath(path))
    level_paths, level_types = [], []
    for entry in _checked(raw.get("levels", []), (list,), "levels", path):
        if isinstance(entry, str):
            rel, ltype = entry, None
        else:
            rel = _checked(entry["path"], (str,), "level path", path)
            ltype = _checked(entry.get("type"), (str, type(None)), "level type", path)
        rel = os.path.expandvars(rel)
        level_paths.append(rel if os.path.isabs(rel) else os.path.join(base, rel))
        level_types.append(ltype)
    if not level_paths:
        raise DataError(f"{path}: manifest lists no levels")
    pad = _checked(raw.get("pad"), (dict, type(None)), "pad", path) or {}
    jump = _checked(raw.get("jump"), (dict, type(None)), "jump", path) or {}
    rows_to = pad.get("rows_to")
    if rows_to is not None:
        _count(rows_to, "pad.rows_to", path, MAX_PAD_ROWS)
    pad_side = _checked(pad.get("side", "top"), (str,), "pad.side", path)
    if pad_side not in PAD_SIDES:
        raise DataError(f"{path}: manifest pad.side must be one of {PAD_SIDES}, got {pad_side!r}")
    background = _checked(raw.get("background", "-"), (str,), "background", path)
    if len(background) != 1:
        raise DataError(f"{path}: manifest background must be one tile character, got {background!r}")
    solidity = _checked(raw.get("solidity", {}), (dict,), "solidity", path)
    for char, kind in solidity.items():
        if len(char) != 1:
            raise DataError(f"{path}: manifest solidity keys must be one tile character, got {char!r}")
        if kind not in SOLIDITY_KINDS:
            raise DataError(f"{path}: manifest solidity of {char!r} must be one of {SOLIDITY_KINDS}, got {kind!r}")
    return DatasetManifest(
        game=_checked(raw.get("game", ""), (str,), "game", path),
        level_paths=level_paths,
        level_types=level_types,
        solidity=solidity,
        axis=raw.get("axis", "horizontal"),
        background=background,
        pad_rows_to=rows_to,
        pad_side=pad_side,
        jump_max_height=_count(jump.get("max_height", 4), "jump.max_height", path, MAX_PAD_ROWS),
        jump_max_span=_count(jump.get("max_span", 5), "jump.max_span", path, MAX_PAD_ROWS),
        path=os.path.abspath(path),
    )


def read_level(path, level_type=None):
    """Parse one level file, named by its file name; a missing file, or one
    that is not text, is a DataError."""
    if not os.path.exists(path):
        raise DataError(f"level file not found: {path}")
    with open(path, encoding="utf-8") as f:
        try:
            text = f.read()
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: level file is not text ({exc})") from None
    return parse_level(text, level_id=os.path.basename(path), level_type=level_type)


def load_levels(manifest, heuristic_types=False):
    """Parse every level in the manifest; missing files are a DataError.

    With heuristic_types, unlabeled levels get classify_level_type labels.
    """
    levels = []
    for lv_path, lv_type in zip(manifest.level_paths, manifest.level_types):
        level = read_level(lv_path, level_type=lv_type)
        if level.level_type is None and heuristic_types:
            # classify before padding: added background rows would hide a ceiling
            level.level_type = classify_level_type(level)
        if manifest.pad_rows_to:
            level = pad_level(level, manifest.pad_rows_to, manifest.pad_side, manifest.background)
        levels.append(level)
    return levels


def load_corpus(manifest, heuristic_types=False):
    """Manifest -> (levels, vocab, chunks)."""
    levels = load_levels(manifest, heuristic_types=heuristic_types)
    vocab = build_vocab(levels, game=manifest.game, background_char=manifest.background)
    chunks = []
    for level in levels:
        chunks.extend(extract_chunks(level, vocab, axis=manifest.axis))
    return levels, vocab, chunks


def chunk_dump(chunks, vocab):
    """JSON lines text, one chunk per line as 16 strings of 16 characters."""
    records = (
        {"level_id": c.level_id, "offset": list(c.offset), "type": c.level_type, "rows": chunk_to_lines(c, vocab)}
        for c in chunks
    )
    return "".join(json.dumps(record) + "\n" for record in records)
