from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import FUZZ
from levelmix import corpus as cp
from levelmix import playability as pl
from levelmix.errors import IdOutOfRange, LengthMismatch, LevelMixError, RaggedRows, UncoveredTile, UnsupportedGame

SOLIDITY = {"-": "passable", "X": "solid", "E": "hazard"}


def horizontal_rules(**overrides):
    kw = dict(game="t", solidity=dict(SOLIDITY), axis="horizontal")
    kw.update(overrides)
    return pl.PlayabilityRules(**kw)


def vertical_rules(**overrides):
    kw = dict(game="t", solidity=dict(SOLIDITY), axis="vertical")
    kw.update(overrides)
    return pl.PlayabilityRules(**kw)


GRID_VOCAB = cp.TileVocab(game="t", chars=("-", "E", "X"))


def grid_ids(grids, vocab=GRID_VOCAB):
    """The (n, height, width) tile ids of equal-shape row-string grids."""
    lookup = vocab.char_to_id
    return np.array([[[lookup[c] for c in row] for row in rows] for rows in grids])


def flood_matches_bfs(grids, rules, vocab=GRID_VOCAB):
    answers = pl.flood_crossable(grid_ids(grids, vocab), rules, vocab)
    assert answers.dtype == bool and answers.shape == (len(grids),)
    assert answers.tolist() == [pl.bfs_crossable(rows, rules) for rows in grids]
    return answers


def crosses(rows, rules):
    """flood_crossable's answer on one grid of '-', 'E' and 'X' rows, which
    must equal bfs_crossable's."""
    return bool(flood_matches_bfs([rows], rules)[0])


def flat_ground_chunk():
    rows = ["-" * 16] * 14 + ["X" * 16] * 2
    return rows


def test_flat_ground_playable():
    assert crosses(flat_ground_chunk(), horizontal_rules())


def test_solid_wall_unplayable():
    rows = ["-" * 8 + "X" + "-" * 7] * 14 + ["X" * 16] * 2
    assert not crosses(rows, horizontal_rules())


def test_wall_with_gap_playable():
    # wall spans all but the top rows: a 4-high jump clears it
    wall_col = 8
    rows = []
    for r in range(16):
        if r >= 10 and r < 14:
            rows.append("-" * wall_col + "X" + "-" * (16 - wall_col - 1))
        elif r >= 14:
            rows.append("X" * 16)
        else:
            rows.append("-" * 16)
    assert crosses(rows, horizontal_rules())


def test_pit_too_wide_unplayable():
    # a 12-wide pit exceeds the maximal airborne span
    rows = ["-" * 16] * 14 + ["XX" + "-" * 12 + "XX"] * 2
    assert not crosses(rows, horizontal_rules())


def test_small_pit_playable():
    rows = ["-" * 16] * 14 + ["XXXXX" + "--" + "XXXXXXXXX"] * 2
    assert crosses(rows, horizontal_rules())


def test_hazard_is_passable_for_movement():
    rows = ["-" * 16] * 14 + ["E" * 16] + ["X" * 16]
    assert crosses(rows, horizontal_rules())


def test_no_start_unplayable():
    rows = ["-" * 16] * 16  # nothing to stand on anywhere
    assert not crosses(rows, horizontal_rules())


def test_vertical_ladder_of_platforms_playable():
    rows = ["-" * 16 for _ in range(16)]
    # platforms every 3 rows, wide enough to hop between
    for r in (1, 4, 7, 10, 13):
        rows[r] = "--XXXX----XXXX--"
    assert crosses(rows, vertical_rules())


def test_vertical_unreachable_top():
    rows = ["-" * 16 for _ in range(16)]
    rows[13] = "XXXXXXXXXXXXXXXX"  # one low platform, gap of 13 rows above
    assert not crosses(rows, vertical_rules())


def test_uncovered_tile_raises():
    rows = ["?" * 16] * 16
    with pytest.raises(UncoveredTile):
        pl.crossable(rows, horizontal_rules())


def test_ragged_rows_raise():
    rows = ["-" * 16] * 15 + ["X" * 15]
    with pytest.raises(RaggedRows):
        pl.crossable(rows, horizontal_rules())
    with pytest.raises(RaggedRows):
        pl.bfs_crossable(rows, vertical_rules())


def test_mixed_axis_rules_rejected():
    with pytest.raises(UnsupportedGame):
        pl.PlayabilityRules(game="mm", solidity=dict(SOLIDITY), axis="both")


def test_crossable_accepts_rendered_chunks(toy_setup):
    vocab = toy_setup["vocab"]
    rules = pl.PlayabilityRules(game="toy", solidity=dict(toygame_solidity()), axis="horizontal")
    flat = cp.Chunk(tiles=np.zeros((16, 16), dtype=np.int64))
    flat.tiles[14:, :] = vocab.id_of("X")
    ok, _ = pl.crossable(cp.chunk_to_lines(flat, vocab), rules)
    assert ok


def toygame_solidity():
    from levelmix import toygame

    return toygame.SOLIDITY


def test_playable_deterministic():
    rows = flat_ground_chunk()
    r1 = pl.crossable(rows, horizontal_rules())
    r2 = pl.crossable(rows, horizontal_rules())
    assert r1 == r2


def random_grid(seed, height=8, width=8, density=None):
    rng = np.random.default_rng(seed)
    if density is None:
        density = rng.uniform(0.1, 0.6)
    cells = rng.random((height, width)) < density
    return ["".join("X" if cells[r, c] else "-" for c in range(width)) for r in range(height)]


def test_flood_equals_bfs_on_many_random_grids():
    # exhaustive sweep of seeded 8x8 grids across densities, both axes
    grids = [random_grid(seed) for seed in range(300)]
    for rules in (horizontal_rules(), vertical_rules()):
        flood_matches_bfs(grids, rules)


@settings(FUZZ, max_examples=200)
@given(
    st.integers(min_value=0, max_value=2**31 - 1),
    st.floats(min_value=0.05, max_value=0.7),
    st.sampled_from(["horizontal", "vertical"]),
)
def test_flood_equals_bfs_on_one_random_grid_property(seed, density, axis):
    rows = random_grid(seed, density=density)
    crosses(rows, horizontal_rules() if axis == "horizontal" else vertical_rules())


JUMPS = ({}, {"max_jump_height": 6, "max_jump_span": 2})


def astar_cases(toy_setup):
    """Seeded random grids of three shapes, with hazards, on both axes with
    the default and one other jump, then every toy-corpus chunk."""
    cases = []
    for make in (horizontal_rules, vertical_rules):
        for jump in JUMPS:
            rules = make(**jump)
            for seed in range(100):
                for height, width in ((8, 8), (16, 16), (12, 20)):
                    rng = np.random.default_rng([seed, height, width])
                    density = rng.uniform(0.1, 0.6)
                    kinds = rng.choice(3, size=(height, width), p=[0.95 - density, density, 0.05])
                    cases.append((["".join("-XE"[k] for k in row) for row in kinds], rules))
    toy = pl.PlayabilityRules(game="toy", solidity=dict(toygame_solidity()), axis="horizontal")
    cases += [(cp.chunk_to_lines(chunk, toy_setup["vocab"]), toy) for chunk in toy_setup["chunks"]]
    return cases


def test_jump_height_limit_respected():
    # a ledge 5 tiles up is unreachable with max_jump_height 4
    rows = ["-" * 16 for _ in range(16)]
    rows[15] = "X" * 8 + "-" * 8
    rows[9] = "-" * 8 + "X" * 8  # ledge top at row 9, standing row 8
    reachable_5 = crosses(rows, horizontal_rules(max_jump_height=6))
    reachable_4 = crosses(rows, horizontal_rules(max_jump_height=4))
    assert reachable_5 and not reachable_4


def test_crossable_is_the_flood_on_one_grid_of_rows(toy_setup):
    # crossable, the flood on one grid of rows: ragged rows, the first
    # uncovered tile in row-major order, more columns than the flood takes,
    # and bfs_crossable's answer on every grid
    with pytest.raises(RaggedRows):
        pl.crossable(["-" * 16] * 15 + ["X" * 15], horizontal_rules())
    # '?' comes first in row-major order, '!' in column-major and vocab order
    rows = ["-" * 16] * 14 + ["X?" + "X" * 14, "!" + "X" * 15]
    with pytest.raises(UncoveredTile, match="tile '\\?'"):
        pl.crossable(rows, horizontal_rules())
    assert pl.crossable(["-" * 30, "X" * 30], horizontal_rules()) == (True, None)
    with pytest.raises(LengthMismatch):
        pl.crossable(["-" * 31, "X" * 31], horizontal_rules())
    for rows, rules in astar_cases(toy_setup):
        assert pl.crossable(rows, rules) == (pl.bfs_crossable(rows, rules), None)


def test_flood_equals_bfs_on_the_astar_cases(toy_setup):
    # one stack per rule set and grid shape: both axes, both jumps, three
    # shapes, and every toy-corpus chunk
    stacks = defaultdict(list)
    for rows, rules in astar_cases(toy_setup):
        stacks[id(rules), len(rows), len(rows[0])].append((rows, rules))
    assert len(stacks) == 2 * len(JUMPS) * 3 + 1
    for cases in stacks.values():
        rules = cases[0][1]
        vocab = toy_setup["vocab"] if rules.game == "toy" else GRID_VOCAB
        answers = flood_matches_bfs([rows for rows, _ in cases], rules, vocab)
        assert 0 < answers.sum() < len(answers)


@settings(FUZZ, max_examples=100)
@given(
    st.integers(min_value=0, max_value=2**31 - 1),
    st.floats(min_value=0.05, max_value=0.7),
    st.sampled_from(["horizontal", "vertical"]),
    st.sampled_from(JUMPS),
)
def test_flood_equals_bfs_property(seed, density, axis, jump):
    # a stack of 16x16 grids with hazards
    kinds = np.random.default_rng(seed).choice(3, size=(8, 16, 16), p=[0.95 - density, density, 0.05])
    grids = [["".join("-XE"[k] for k in row) for row in grid] for grid in kinds]
    flood_matches_bfs(grids, (horizontal_rules if axis == "horizontal" else vertical_rules)(**jump))


def test_flood_edge_cases():
    # no start anywhere; a start in the top row of a vertical game; one-row
    # and one-column grids; no jump and no drift
    flood_matches_bfs([["-" * 16] * 16, flat_ground_chunk()], horizontal_rules())
    flood_matches_bfs([["-" * 16] * 16, ["X" * 16] * 16], vertical_rules())
    assert flood_matches_bfs([["-X", "XX"], ["X-", "X-"]], vertical_rules()).all()
    for shape in ((1, 5), (5, 1), (2, 30)):
        grids = [random_grid(seed, *shape) for seed in range(40)]
        for rules in (horizontal_rules(), vertical_rules(), horizontal_rules(max_jump_height=0, max_jump_span=0)):
            flood_matches_bfs(grids, rules)
    assert pl.flood_crossable(np.zeros((0, 16, 16), np.int64), horizontal_rules(), GRID_VOCAB).shape == (0,)
    # a row and its frame fill the uint32 at 30 tiles
    with pytest.raises(LengthMismatch):
        pl.flood_crossable(np.zeros((1, 4, 31), np.int64), horizontal_rules(), GRID_VOCAB)


def test_playability_suite_counts(toy_setup):
    vocab = toy_setup["vocab"]
    rules = pl.PlayabilityRules(game="toy", solidity=dict(toygame_solidity()), axis="horizontal")
    flat = cp.Chunk(tiles=np.zeros((16, 16), dtype=np.int64))
    flat.tiles[14:, :] = vocab.id_of("X")

    def gen(component, n, rng):
        return [flat] * n

    result = pl.playability_suite(gen, 3, rules, vocab, np.random.default_rng(0), total_budget=100)
    assert result.total == 3 * (100 // 3)
    assert result.fraction == 1.0
    assert result.per_component == [(33, 33)] * 3


def test_playability_suite_flat_generator_fraction_one():
    # arithmetic of floor(budget / k) with k = 10
    vocab = cp.TileVocab(game="t", chars=("-", "X"))
    flat = cp.Chunk(tiles=np.zeros((16, 16), dtype=np.int64))
    flat.tiles[15, :] = 1
    rules = pl.PlayabilityRules(game="t", solidity={"-": "passable", "X": "solid"}, axis="horizontal")
    gen = lambda component, n, rng: [flat] * n
    result = pl.playability_suite(gen, 10, rules, vocab, np.random.default_rng(0), total_budget=10000)
    assert result.total == 10_000
    assert result.per_component == [(1000, 1000)] * 10
    assert result.fraction == 1.0


def test_rules_from_manifest(tmp_path):
    from levelmix import toygame

    manifest_path = toygame.write_corpus(tmp_path / "toy", levels_per_type=1, cols=20, seed=0)
    manifest = cp.load_manifest(manifest_path)
    rules = pl.rules_from_manifest(manifest)
    assert rules.axis == "horizontal"
    assert rules.max_jump_height == 4
    assert rules.max_jump_span == 5
    assert rules.solidity["X"] == "solid"


def walled_chunk(vocab):
    # ground with a wall no jump clears
    chunk = cp.Chunk(tiles=np.full((16, 16), vocab.id_of("-")))
    chunk.tiles[14:] = vocab.id_of("X")
    chunk.tiles[2:, 8] = vocab.id_of("X")
    return chunk


@pytest.mark.parametrize("axis", ["horizontal", "vertical"])
def test_playability_suite_counts_equal_per_chunk_bfs(toy_setup, axis):
    # components return different numbers of chunks and mix playable and
    # unplayable ones in different shares, so a suite that answers True (or
    # False) everywhere, or splits the stacked answers at the wrong chunk,
    # fails
    vocab, chunks = toy_setup["vocab"], toy_setup["chunks"]
    rules = pl.PlayabilityRules(game="toy", solidity=dict(toygame_solidity()), axis=axis)
    walled = walled_chunk(vocab)
    calls = []

    def gen(component, n, rng):
        calls.append((component, n, rng))
        picks = rng.choice(len(chunks), size=n - 13 * component, replace=False)
        return [walled if i % 3 < component else chunks[j] for i, j in enumerate(picks)]

    suite_rng = np.random.default_rng(1)
    result = pl.playability_suite(gen, 4, rules, vocab, suite_rng, total_budget=240)
    assert [(c, n) for c, n, _ in calls] == [(0, 60), (1, 60), (2, 60), (3, 60)]
    assert all(r is suite_rng for _, _, r in calls)
    expected, flooded = [], []
    rng = np.random.default_rng(1)
    for component in range(4):
        sample = gen(component, 60, rng)
        expected.append((sum(pl.bfs_crossable(cp.chunk_to_lines(c, vocab), rules) for c in sample), len(sample)))
        answers = pl.flood_crossable(np.array([c.tiles for c in sample]), rules, vocab)
        flooded.append((int(answers.sum()), len(answers)))
    assert result.per_component == expected == flooded
    assert [t for _, t in expected] == [60, 47, 34, 21]
    assert result.playable_count == sum(p for p, _ in expected) and result.total == 162
    assert len({p / t for p, t in expected}) > 1 and 0 < result.playable_count < result.total


def _error(chunk, rules, vocab):
    try:
        pl.bfs_crossable(cp.chunk_to_lines(chunk, vocab), rules)
    except LevelMixError as exc:
        return exc
    return None


@pytest.mark.parametrize(
    "order, expected",
    [
        (["id"], IdOutOfRange),
        (["uncovered"], UncoveredTile),
        (["both"], IdOutOfRange),
        (["uncovered", "id"], IdOutOfRange),
        (["id", "uncovered"], IdOutOfRange),
    ],
)
def test_playability_suite_raises_any_bad_id_before_any_uncovered_tile(toy_setup, order, expected):
    # a tile id >= vocab.size, and a vocab tile missing from the solidity map
    vocab = cp.TileVocab(game="toy", chars=toy_setup["vocab"].chars + ("~",))
    rules = pl.PlayabilityRules(game="toy", solidity=dict(toygame_solidity()), axis="horizontal")
    good = toy_setup["chunks"][:3]
    broken = []
    for fault in order:
        chunk = cp.Chunk(tiles=good[0].tiles.copy())
        if fault in ("uncovered", "both"):
            chunk.tiles[9, 4] = chunk.tiles[5, 11] = vocab.id_of("~")
        if fault in ("id", "both"):
            chunk.tiles[12, 2], chunk.tiles[13, 1] = vocab.size + 3, vocab.size
        broken.append(chunk)
    chunks = good + broken
    # the message names the stack's first bad tile of its kind: the one the
    # first chunk that has such a tile raises on its own
    first = next(e for e in (_error(c, rules, vocab) for c in chunks) if type(e) is expected)
    with pytest.raises(expected) as suite:
        pl.playability_suite(lambda component, n, rng: chunks, 1, rules, vocab, np.random.default_rng(0),
                             total_budget=len(chunks))
    assert str(suite.value) == str(first)
