"""Chunk playability under a discrete platformer movement model.

The agent walks on supported cells, jumps up to max_jump_height tiles, and
drifts horizontally at most one tile per vertical step while airborne, with
at most max_jump_span horizontal moves per airborne phase. Hazard tiles are
treated as passable for movement. Horizontal games must cross from any
standable cell in the leftmost column to one in the rightmost column;
vertical games from the bottom row to the top row. Falling off the bottom of
the grid or rising above its top row ends the attempt.

flood_crossable answers a stack of grids at once with a bit-parallel flood
over that move model, and playability_suite counts playable chunks with it.
bfs_crossable, a queue-based flood over the move set of _moves, is its
independent oracle. crossable answers one grid of character rows with
flood_crossable.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .corpus import CHUNK_SIZE, SOLID, SOLIDITY_KINDS, TileVocab, _check_ids
from .errors import LengthMismatch, RaggedRows, UncoveredTile, UnsupportedGame, UsageError


@dataclass
class PlayabilityRules:
    game: str
    solidity: dict  # tile char -> solid | passable | hazard
    axis: str  # horizontal: left->right, vertical: bottom->top
    max_jump_height: int = 4
    max_jump_span: int = 5

    def __post_init__(self):
        if self.axis not in ("horizontal", "vertical"):
            raise UnsupportedGame(
                f"{self.game or 'game'}: playability needs a horizontal or vertical axis, "
                f"got {self.axis!r} (mixed-axis games have no start/finish criteria)"
            )
        for char, kind in self.solidity.items():
            if kind not in SOLIDITY_KINDS:
                raise UncoveredTile(f"tile {char!r} has unknown solidity {kind!r}")


def rules_from_manifest(manifest):
    return PlayabilityRules(
        game=manifest.game,
        solidity=dict(manifest.solidity),
        axis=manifest.axis,
        max_jump_height=manifest.jump_max_height,
        max_jump_span=manifest.jump_max_span,
    )


def _check_rows(rows):
    lengths = set(map(len, rows))
    if len(lengths) > 1:
        raise RaggedRows(f"playability needs rows of one length, got lengths {sorted(lengths)}")


def _moves(rows, rules):
    """(starts, successors, is_goal): the movement model on one grid of
    equal-length character rows under `rules`, for the BFS oracle.

    Cells are indices into the grid flattened row-major inside a frame of
    blocked cells: (r, c) is (r + 1) * w + c + 1, where w is the grid's
    width plus 2, so no move needs a bounds check. A state is (cell,
    ascent_left, drift_left); grounded states carry ascent -1 and full drift
    so landing always reaches one canonical state.
    """
    text = "".join(rows)
    missing = set(text).difference(rules.solidity)
    if missing:
        char = next(c for c in text if c in missing)
        raise UncoveredTile(f"tile {char!r} missing from the solidity map")
    _check_rows(rows)
    height, width = len(rows), len(rows[0])
    # cell codes: 1 solid, 2 open (passable or hazard), 0 the blocked frame
    w = width + 2
    table = {ord(char): "\1" if kind == SOLID else "\2" for char, kind in rules.solidity.items() if len(char) == 1}
    edge = "\0" * (w + 1)
    framed = edge + "\0\0".join(row.translate(table) for row in rows) + edge
    cells = np.frombuffer(framed.encode("latin-1"), np.uint8)
    is_open = cells == 2
    passable = is_open.tobytes()
    standable = (is_open[:-w] & (cells[w:] == 1)).tobytes() + bytes(w)
    jump, span = rules.max_jump_height, rules.max_jump_span
    n = len(cells)
    if rules.axis == "horizontal":
        # stand somewhere in the rightmost column, having entered at the left
        starts = [(i, -1, span) for i in range(w + 1, n - w, w) if standable[i]]

        def is_goal(state):
            return state[1] < 0 and state[0] % w == width

    else:
        # occupy the top row in any movement phase, having entered from the
        # bottom edge: standing on any bottom-row solid, or on the window
        # boundary itself where the bottom row is open
        bottom = height * w + 1
        starts = [(i, -1, span) for i in range(bottom - w, bottom - w + width) if standable[i]]
        starts += [(i, -1, span) for i in range(bottom, bottom + width) if passable[i]]

        def is_goal(state):
            return w <= state[0] < 2 * w

    def successors(state):
        i, ascent, drift = state
        out = []
        if ascent < 0:  # standing
            for j in (i - 1, i + 1):
                if passable[j]:
                    # walk, or walk off a ledge
                    out.append((j, -1, span) if standable[j] else (j, 0, span))
            out.append((i, jump, span))  # launch a jump
            return out
        if ascent > 0:  # rising
            j = i - w
            if passable[j]:
                out.append((j, ascent - 1, drift))
            if drift > 0:
                for k in (j - 1, j + 1):
                    if passable[k]:
                        out.append((k, ascent - 1, drift - 1))
            out.append((i, 0, drift))  # cut the jump short
            return out
        # falling
        if standable[i]:  # ground directly below: land in place
            return [(i, -1, span)]
        j = i + w
        if passable[j]:
            out.append((j, -1, span) if standable[j] else (j, 0, drift))
        if drift > 0:
            for k in (j - 1, j + 1):
                if passable[k]:
                    out.append((k, -1, span) if standable[k] else (k, 0, drift - 1))
        return out

    return starts, successors, is_goal


def bfs_crossable(rows, rules):
    """Plain breadth-first flood over the same move set; reachability oracle."""
    starts, successors, is_goal = _moves(rows, rules)
    seen = set(starts)
    queue = deque(starts)
    while queue:
        state = queue.popleft()
        if is_goal(state):
            return True
        for nxt in successors(state):
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return False


# The flood keeps each grid row of each chunk as one uint32 bitmask: bit c + 1
# is column c, and bits 0 and width + 1 are the blocked frame of _moves, so a
# shift by one column never wraps into a passable cell. Arrays are laid out
# (row, chunk), or (row, drift left, chunk) for airborne states.
_MAX_FLOOD_WIDTH = 30


def _tile_bits(tiles, rules, vocab):
    """(passable, solid) bit rows of each grid, each (height, n) uint32.

    Checks the whole stack once: any id out of range is an IdOutOfRange,
    then any tile the solidity map lacks an UncoveredTile, each naming the
    first such tile in the stack's row-major order.
    """
    width = tiles.shape[2]
    if width > _MAX_FLOOD_WIDTH:
        raise LengthMismatch(f"the flood takes rows of at most {_MAX_FLOOD_WIDTH} tiles, got {width}")
    _check_ids(tiles, vocab.size)
    kinds = [rules.solidity.get(char) for char in vocab.chars]
    uncovered = np.array([kind is None for kind in kinds])[tiles]
    if uncovered.any():
        char = vocab.chars[tiles.flat[np.argmax(uncovered)]]
        raise UncoveredTile(f"tile {char!r} missing from the solidity map")
    weights = np.left_shift(np.uint32(1), np.arange(1, width + 1, dtype=np.uint32))
    rows = tiles.transpose(1, 0, 2)

    def bits(flags):
        return np.bitwise_or.reduce(np.array(flags)[rows] * weights, axis=-1)

    return bits([kind not in (None, SOLID) for kind in kinds]), bits([kind == SOLID for kind in kinds])


def _walk(seeds, ground):
    """The seeds and every ground cell that a walk along its row from a seed
    reaches over ground cells: two occluded fills, doubling the stride."""
    right, left = seeds, seeds
    ground_right, ground_left = ground, ground
    stride = 1
    while stride < _MAX_FLOOD_WIDTH:
        right = right | (ground_right & (right << stride))
        left = left | (ground_left & (left >> stride))
        ground_right = ground_right & (ground_right << stride)
        ground_left = ground_left & (ground_left >> stride)
        stride *= 2
    return right | left


def _rise(launch, passable, jump, span):
    """(falling, top) for jumps launched from the standing cells `launch`.

    falling, (height, span + 1, n), holds every falling state that a jump
    reaches, by cutting it short or by running out of ascent, indexed by the
    drift it has left; top marks the chunks where a rising state reaches the
    top row.
    """
    level = np.zeros((launch.shape[0], span + 1, launch.shape[1]), np.uint32)
    level[:, span] = launch
    falling = np.zeros_like(level)
    top = np.zeros(launch.shape[1], bool)
    open_cells = passable[:, None]
    for _ in range(jump):
        falling |= level  # cut the jump short
        up = np.zeros_like(level)
        up[:-1] = level[1:]
        side = up[:, 1:]
        level = up & open_cells
        level[:, :-1] |= ((side << 1) | (side >> 1)) & open_cells
        top |= level[0].any(axis=0)
    falling |= level  # ascent spent: the state falls
    return falling, top


def _fall(falling, passable, standable):
    """The standing cells where the falling states land, sweeping the rows
    from the top; a falling state drops one row per step, with or without
    one column of drift. `falling` is consumed."""
    land = np.zeros_like(passable)
    for r in range(len(passable)):
        here = falling[r]
        land[r] = np.bitwise_or.reduce(here, axis=0) & standable[r]
        if r + 1 < len(passable):
            drop = here & ~standable[r]
            side = drop[1:]
            below = passable[r + 1]
            falling[r + 1] |= drop & below
            falling[r + 1, :-1] |= ((side << 1) | (side >> 1)) & below
    return land


def flood_crossable(tiles, rules, vocab):
    """Whether each grid of a stack of tile ids, (n, height, width), can be
    crossed under `rules`: one bool per grid, equal to bfs_crossable's.

    One bit-parallel flood answers every grid at once. Each round walks the
    new standing cells along their ground, launches every jump and every
    walk off a ledge from them, and lets all of it fall until it lands; a
    grid leaves the batch at its goal or once a round finds no new standing
    cell. A grid with no start never enters it.
    """
    tiles = np.asarray(tiles)
    n, height, width = tiles.shape
    passable, solid = _tile_bits(tiles, rules, vocab)
    standable = np.zeros_like(passable)
    standable[:-1] = passable[:-1] & solid[1:]
    horizontal = rules.axis == "horizontal"
    new = np.zeros_like(passable)
    if horizontal:
        # standing in the leftmost column, to stand in the rightmost
        new = standable & np.uint32(2)
        goal = np.uint32(1 << width)
    else:
        # standing on a bottom-row solid, or on the open bottom row itself,
        # to occupy the top row in any movement phase
        if height > 1:
            new[-2] = standable[-2]
        new[-1] = passable[-1]
    crossed = np.zeros(n, bool)
    live = np.flatnonzero(new.any(axis=0))
    passable, standable, new = passable[:, live], standable[:, live], new[:, live]
    standing = np.zeros_like(new)
    while live.size:
        new = _walk(new, standable)
        standing |= new
        falling, top = _rise(new, passable, rules.max_jump_height, rules.max_jump_span)
        falling[:, -1] |= ((new << 1) | (new >> 1)) & passable & ~standable  # walk off a ledge
        if horizontal:
            done = (standing & goal).any(axis=0)
        else:
            done = standing[0].astype(bool) | top
        crossed[live[done]] = True
        new = _fall(falling, passable, standable) & ~standing
        keep = ~done & new.any(axis=0)
        live = live[keep]
        passable, standable, new, standing = passable[:, keep], standable[:, keep], new[:, keep], standing[:, keep]
    return crossed


def crossable(rows, rules):
    """(whether one grid of character rows can be crossed, None):
    flood_crossable on that grid alone. The benchmark's astar_vs_bfs gate
    compares it with bfs_crossable."""
    _check_rows(rows)
    vocab = TileVocab(game=rules.game, chars=tuple(sorted(set("".join(rows)))))
    lookup = vocab.char_to_id
    ids = np.array([[[lookup[c] for c in row] for row in rows]])
    return bool(flood_crossable(ids, rules, vocab)[0]), None


@dataclass
class PlayabilityResult:
    total: int
    playable_count: int
    per_component: list = field(default_factory=list)  # (playable, total) per component

    @property
    def fraction(self):
        return self.playable_count / self.total if self.total else 0.0

    def to_dict(self):
        return {
            "total": self.total,
            "playable": self.playable_count,
            "fraction": self.fraction,
            "per_component": [
                {"component": i, "playable": p, "total": t}
                for i, (p, t) in enumerate(self.per_component)
            ],
        }


def playability_suite(generate_fn, k, rules, vocab, rng, total_budget=10000):
    """Sample floor(total_budget / k) chunks from each component, aggregate,
    and report the playable fraction. Every component is generated, in
    component order from `rng`, before any chunk is answered, so an error
    from a later component's generator comes before a bad tile in an
    earlier component. One flood_crossable then answers the stacked tile
    ids of the whole suite. A budget below k, which leaves a component no
    chunk, is a UsageError before any chunk is generated."""
    if total_budget < k:
        raise UsageError(f"budget {total_budget} is below k = {k}: each component needs at least one chunk")
    per = total_budget // k
    tiles = [
        np.array([ch.tiles for ch in generate_fn(component, per, rng)], np.int64).reshape(-1, CHUNK_SIZE, CHUNK_SIZE)
        for component in range(k)
    ]
    crossed = flood_crossable(np.concatenate(tiles), rules, vocab)
    parts = np.split(crossed, np.cumsum([len(t) for t in tiles])[:-1])
    per_component = [(int(ok.sum()), len(ok)) for ok in parts]
    return PlayabilityResult(total=len(crossed), playable_count=int(crossed.sum()), per_component=per_component)
