import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from conftest import FUZZ
from levelmix import corpus as cp
from levelmix import toygame
from levelmix.errors import (
    DataError,
    EmptyLevel,
    IdOutOfRange,
    LengthMismatch,
    LevelTooSmall,
    MissingLabels,
    RaggedRows,
)


def test_parse_smallest_rectangle():
    grid = cp.parse_level("XX\n--")
    assert (grid.rows, grid.cols) == (2, 2)
    assert grid.tiles == ["XX", "--"]


def test_parse_tolerates_trailing_newline():
    assert cp.parse_level("XX\n--\n").rows == 2


def test_parse_ragged_rows():
    with pytest.raises(RaggedRows):
        cp.parse_level("XX\nX")


def test_parse_empty():
    with pytest.raises(EmptyLevel):
        cp.parse_level("")
    with pytest.raises(EmptyLevel):
        cp.parse_level("\n\n")


def test_vocab_single_level():
    grid = cp.parse_level("AB\nBA")
    vocab = cp.build_vocab([grid], game="t", background_char="A")
    assert vocab.size == 2
    assert vocab.chars == ("A", "B")


def test_vocab_deterministic_order():
    # ascending character code regardless of appearance order
    g1 = cp.parse_level("Za\n-X")
    vocab = cp.build_vocab([g1])
    assert vocab.chars == ("-", "X", "Z", "a")
    assert vocab.id_of("-") == 0
    assert vocab.chars[3] == "a"


def test_vocab_bijective(toy_setup):
    vocab = toy_setup["vocab"]
    for char in vocab.chars:
        assert vocab.chars[vocab.id_of(char)] == char
    for i in range(vocab.size):
        assert vocab.id_of(vocab.chars[i]) == i


def test_vocab_id_out_of_range(toy_setup):
    vocab = toy_setup["vocab"]
    with pytest.raises(IdOutOfRange):
        vocab.id_of("@")


def make_grid(rows, cols, fill="-"):
    return cp.LevelGrid(rows, cols, [fill * cols] * rows, level_id="t")


def test_extract_exact_window():
    vocab = cp.TileVocab(game="t", chars=("-",))
    assert len(cp.extract_chunks(make_grid(16, 16), vocab)) == 1


def test_extract_width17():
    vocab = cp.TileVocab(game="t", chars=("-",))
    chunks = cp.extract_chunks(make_grid(16, 17), vocab, axis="horizontal")
    assert len(chunks) == 2
    assert [c.offset for c in chunks] == [(0, 0), (0, 1)]


def test_extract_chunk_count_formula():
    # horizontal level of height 16: chunks == cols - 15
    vocab = cp.TileVocab(game="t", chars=("-",))
    for cols in (16, 20, 33):
        assert len(cp.extract_chunks(make_grid(16, cols), vocab)) == cols - 15


def test_extract_vertical_axis():
    vocab = cp.TileVocab(game="t", chars=("-",))
    chunks = cp.extract_chunks(make_grid(20, 16), vocab, axis="vertical")
    assert len(chunks) == 5
    assert [c.offset for c in chunks] == [(r, 0) for r in range(5)]


def test_extract_both_axes_counts_each_window_once():
    vocab = cp.TileVocab(game="t", chars=("-",))
    assert len(cp.extract_chunks(make_grid(16, 16), vocab, axis="both")) == 1
    # 18x17: every fitting anchor exactly once
    assert len(cp.extract_chunks(make_grid(18, 17), vocab, axis="both")) == 3 * 2


def test_extract_too_small():
    vocab = cp.TileVocab(game="t", chars=("-",))
    with pytest.raises(LevelTooSmall):
        cp.extract_chunks(make_grid(15, 40), vocab)
    with pytest.raises(LevelTooSmall):
        cp.extract_chunks(make_grid(40, 15), vocab, axis="vertical")


def test_extract_inherits_type_and_retains_duplicates():
    grid = cp.LevelGrid(16, 18, ["-" * 18] * 16, level_id="L", level_type="jumpy")
    vocab = cp.TileVocab(game="t", chars=("-",))
    chunks = cp.extract_chunks(grid, vocab)
    assert all(c.level_type == "jumpy" for c in chunks)
    # identical contents from overlapping windows are all retained
    assert len(chunks) == 3
    assert all(np.array_equal(chunks[0].tiles, c.tiles) for c in chunks)


def test_one_hot_length_and_layout(toy_setup):
    vocab = toy_setup["vocab"]
    chunk = toy_setup["chunks"][0]
    flat = cp.one_hot_encode(chunk, vocab)
    assert flat.shape == (256 * vocab.size,)
    # cell-major: block [cell*T : (cell+1)*T] is the one-hot of that cell
    t = vocab.size
    for cell in (0, 17, 255):
        r, c = divmod(cell, 16)
        block = flat[cell * t : (cell + 1) * t]
        assert block.sum() == 1.0
        assert block[chunk.tiles[r, c]] == 1.0


def test_one_hot_all_background():
    vocab = cp.TileVocab(game="t", chars=("-", "X"))
    chunk = cp.Chunk(tiles=np.zeros((16, 16), dtype=int))
    flat = cp.one_hot_encode(chunk, vocab)
    assert flat.sum() == 256.0


def test_decode_argmax_and_ties():
    vocab = cp.TileVocab(game="t", chars=("-", "X", "o"))
    flat = np.zeros(256 * 3)
    flat[0:3] = (0.2, 0.7, 0.1)
    chunk = cp.decode(flat, vocab)
    assert chunk.tiles[0, 0] == 1
    # tie: lowest id wins
    flat[3:6] = (0.5, 0.5, 0.0)
    assert cp.decode(flat, vocab).tiles[0, 1] == 0


def test_decode_length_mismatch():
    vocab = cp.TileVocab(game="t", chars=("-", "X"))
    with pytest.raises(LengthMismatch):
        cp.decode(np.zeros(100), vocab)


def test_roundtrip_all_corpus_chunks(toy_setup):
    vocab = toy_setup["vocab"]
    for chunk in toy_setup["chunks"]:
        again = cp.decode(cp.one_hot_encode(chunk, vocab), vocab)
        assert np.array_equal(chunk.tiles, again.tiles)


@FUZZ
@given(st.integers(min_value=0, max_value=2**31 - 1), st.integers(min_value=2, max_value=9))
def test_roundtrip_random_chunks(seed, t):
    grid_rng = np.random.default_rng(seed)
    vocab = cp.TileVocab(game="t", chars=tuple(chr(ord("A") + i) for i in range(t)))
    chunk = cp.Chunk(tiles=grid_rng.integers(0, t, size=(16, 16)))
    assert np.array_equal(cp.decode(cp.one_hot_encode(chunk, vocab), vocab).tiles, chunk.tiles)


def test_encode_chunks_equals_stacked_one_hot(toy_setup):
    vocab, chunks = toy_setup["vocab"], toy_setup["chunks"]
    data = cp.encode_chunks(chunks, vocab)
    # one byte per entry
    assert data.dtype == np.uint8
    # entry for entry, the float64 rows of one_hot_encode
    assert np.array_equal(data, np.stack([cp.one_hot_encode(c, vocab) for c in chunks]))


@pytest.mark.parametrize("bad", ["negative", "vocab-size"])
def test_out_of_range_ids_raise(toy_setup, bad):
    vocab = toy_setup["vocab"]
    chunk = cp.Chunk(tiles=toy_setup["chunks"][5].tiles.copy())
    chunk.tiles[3, 7] = -1 if bad == "negative" else vocab.size
    chunks = [toy_setup["chunks"][0], chunk]
    with pytest.raises(IdOutOfRange, match=f"tile id {chunk.tiles[3, 7]} out of range"):
        cp.encode_chunks(chunks, vocab)
    with pytest.raises(IdOutOfRange, match=f"tile id {chunk.tiles[3, 7]} out of range"):
        cp.chunk_to_lines(chunk, vocab)


def test_chunk_to_lines_renders_every_vocab_char():
    # NUL and a lone surrogate (a checkpoint's JSON vocab can hold one) included
    vocab = cp.TileVocab(game="t", chars=("\0", "-", "X", "\ud800", "\U0001f344"))
    tiles = np.random.default_rng(0).integers(0, vocab.size, size=(16, 16))
    lines = cp.chunk_to_lines(cp.Chunk(tiles=tiles), vocab)
    assert lines == ["".join(vocab.chars[t] for t in row) for row in tiles]


def test_balanced_sampler_uniform_when_balanced():
    sampler = cp.BalancedSampler(["A"] * 100 + ["B"] * 100, rng_seed=0)
    assert np.allclose(sampler.probabilities, 1.0 / 200)


def test_balanced_sampler_imbalanced_frequencies():
    # Monte-Carlo: 900/100 split should draw each type half the time
    types = ["A"] * 900 + ["B"] * 100
    sampler = cp.BalancedSampler(types, rng_seed=7)
    draws = sampler.draw(100_000)
    frac_b = np.mean(draws >= 900)
    assert abs(frac_b - 0.5) < 0.02


def test_balanced_sampler_chi_square():
    types = ["A"] * 500 + ["B"] * 200 + ["C"] * 50
    sampler = cp.BalancedSampler(types, rng_seed=11)
    draws = sampler.draw(100_000)
    labels = np.array(types)[draws]
    counts = np.array([(labels == t).sum() for t in ("A", "B", "C")])
    chi2 = float(((counts - counts.mean()) ** 2 / counts.mean()).sum())
    p_value = stats.chi2.sf(chi2, df=2)
    assert p_value > 0.01


def test_balanced_sampler_single_type():
    sampler = cp.BalancedSampler(["only"] * 10, rng_seed=0)
    assert set(sampler.draw(100).tolist()) <= set(range(10))


def test_balanced_sampler_missing_labels():
    with pytest.raises(MissingLabels):
        cp.BalancedSampler(["A", None], rng_seed=0)


def test_heuristic_level_types():
    over = toygame.make_level("overworld", seed=0)
    under = toygame.make_level("underworld", seed=0)
    jumpy = toygame.make_level("jumpy", seed=0)
    assert cp.classify_level_type(over) == "overworld"
    assert cp.classify_level_type(under) == "underworld"
    assert cp.classify_level_type(jumpy) == "jumpy"


def test_manifest_roundtrip(tmp_path):
    manifest_path = toygame.write_corpus(tmp_path / "toy", levels_per_type=2, cols=32, seed=5)
    manifest = cp.load_manifest(manifest_path)
    levels, vocab, chunks = cp.load_corpus(manifest)
    assert len(levels) == 6
    assert vocab.game == "toy"
    assert all(c.level_type in toygame.TYPES for c in chunks)
    # chunk count formula over the corpus
    assert len(chunks) == sum(lv.cols - 15 for lv in levels)


def test_manifest_vocab_deterministic(tmp_path):
    path = toygame.write_corpus(tmp_path / "toy", levels_per_type=2, cols=32, seed=5)
    v1 = cp.load_corpus(cp.load_manifest(path))[1]
    v2 = cp.load_corpus(cp.load_manifest(path))[1]
    assert v1 == v2


def test_pad_level():
    grid = cp.parse_level("XX\nXX", level_id="p")
    padded = cp.pad_level(grid, 4, side="top", fill="-")
    assert padded.rows == 4
    assert padded.tiles == ["--", "--", "XX", "XX"]


def test_chunk_dump_roundtrip(toy_setup):
    vocab = toy_setup["vocab"]
    chunks = toy_setup["chunks"][:10]
    lines = cp.chunk_dump(chunks, vocab).strip().split("\n")
    assert len(lines) == 10
    for chunk, line in zip(chunks, lines):
        record = json.loads(line)
        tiles = [[vocab.id_of(c) for c in row] for row in record["rows"]]
        assert np.array_equal(chunk.tiles, tiles)
        assert record["type"] == chunk.level_type
        assert tuple(record["offset"]) == chunk.offset
        assert record["level_id"] == chunk.level_id


def write_manifest(directory, value):
    path = os.path.join(directory, "manifest.json")
    with open(path, "w") as f:
        json.dump(value, f)
    return path


@pytest.mark.parametrize(
    "field, value",
    [
        ("pad", {"rows_to": cp.MAX_PAD_ROWS + 1}),
        ("pad", {"rows_to": 10**9}),
        ("pad", {"rows_to": -1}),
        ("jump", {"max_height": -1}),
        ("jump", {"max_span": -1}),
        ("jump", {"max_height": 4, "max_span": -5}),
        # a flood runs one round per unit of height and holds max_span + 1 planes
        ("jump", {"max_height": cp.MAX_PAD_ROWS + 1}),
        ("jump", {"max_span": cp.MAX_PAD_ROWS + 1}),
        ("jump", {"max_height": 10**9, "max_span": 5}),
    ],
)
def test_manifest_bounds_are_data_errors(tmp_path, field, value):
    # checked through load_manifest alone: a manifest past the bound is never padded
    path = write_manifest(tmp_path, {"levels": ["a.txt"], field: value})
    with pytest.raises(DataError, match=f"manifest {field}\\."):
        cp.load_manifest(path)


def test_manifest_bounds_are_inclusive(tmp_path):
    for jump in (0, cp.MAX_PAD_ROWS):
        raw = {"levels": ["a.txt"], "pad": {"rows_to": cp.MAX_PAD_ROWS}, "jump": {"max_height": jump, "max_span": jump}}
        manifest = cp.load_manifest(write_manifest(tmp_path, raw))
        assert (manifest.pad_rows_to, manifest.jump_max_height, manifest.jump_max_span) == (cp.MAX_PAD_ROWS, jump, jump)


def test_level_file_that_is_not_text_is_data_error(tmp_path):
    (tmp_path / "a.txt").write_bytes(b"\xff\xfe--\n--\n")
    manifest = cp.load_manifest(write_manifest(tmp_path, {"levels": ["a.txt"]}))
    with pytest.raises(DataError, match="level file is not text"):
        cp.load_levels(manifest)


JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)


PLAUSIBLE_MANIFEST = st.fixed_dictionaries(
    {"levels": st.lists(
        st.one_of(st.text(max_size=6), st.fixed_dictionaries(
            {"path": st.text(max_size=6)}, optional={"type": st.none() | st.text(max_size=6)},
        )),
        min_size=1, max_size=3,
    )},
    optional={
        "game": st.text(max_size=6),
        "axis": st.sampled_from(cp.AXES),
        "background": st.characters(),
        "pad": st.fixed_dictionaries({}, optional={
            "rows_to": st.integers(-2, cp.MAX_PAD_ROWS + 2),
            "side": st.sampled_from(cp.PAD_SIDES),
        }),
        "solidity": st.dictionaries(st.text(max_size=2), st.sampled_from(["solid", "passable", "hazard"])),
        "jump": st.fixed_dictionaries({}, optional={"max_height": st.integers(-2, 8), "max_span": st.integers(-2, 8)}),
    },
)


@st.composite
def manifest_shaped(draw):
    """A plausible manifest, near the bounds, with at most one field (or
    one pad or jump entry) replaced by any JSON value."""
    raw = draw(PLAUSIBLE_MANIFEST)
    if draw(st.booleans()):
        target = raw
        key = draw(st.sampled_from(sorted(raw)))
        if key in ("pad", "jump") and raw[key] and draw(st.booleans()):
            target, key = raw[key], draw(st.sampled_from(sorted(raw[key])))
        target[key] = draw(JSON)
    return raw


def is_count(value, limit=None):
    return type(value) is int and 0 <= value and (limit is None or value <= limit)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(FUZZ, max_examples=300)
@given(st.one_of(JSON, manifest_shaped()))
def test_any_json_manifest_loads_or_is_a_data_error(fuzz_dir, value):
    path = write_manifest(fuzz_dir, value)
    try:
        manifest = cp.load_manifest(path)
    except DataError:
        return
    assert isinstance(manifest.game, str) and manifest.axis in cp.AXES
    assert manifest.level_paths and all(isinstance(p, str) and os.path.isabs(p) for p in manifest.level_paths)
    assert len(manifest.level_types) == len(manifest.level_paths)
    assert all(t is None or isinstance(t, str) for t in manifest.level_types)
    assert isinstance(manifest.solidity, dict)
    assert all(len(char) == 1 and kind in cp.SOLIDITY_KINDS for char, kind in manifest.solidity.items())
    assert isinstance(manifest.background, str) and len(manifest.background) == 1
    assert manifest.pad_rows_to is None or is_count(manifest.pad_rows_to, cp.MAX_PAD_ROWS)
    assert manifest.pad_side in cp.PAD_SIDES
    assert is_count(manifest.jump_max_height) and is_count(manifest.jump_max_span)


@settings(FUZZ, max_examples=300)
@given(st.one_of(st.text(), st.text(alphabet="-X\n\r ")))
def test_any_text_parses_or_is_a_data_error(text):
    try:
        level = cp.parse_level(text)
    except DataError:
        return
    assert level.rows == len(level.tiles) >= 1 and level.cols >= 1
    assert all(len(row) == level.cols and "\n" not in row for row in level.tiles)


def test_a_manifest_and_its_levels_read_as_utf8_whatever_the_locale(tmp_path):
    # under the C locale without UTF-8 mode, open() without an encoding reads ASCII
    rows = ["-" * 20] * 14 + ["-\u00e9" * 10, "X" * 20]
    (tmp_path / "level.txt").write_text("\n".join(rows) + "\n", encoding="utf-8")
    manifest = {"game": "t", "levels": ["level.txt"], "solidity": {"-": "passable", "X": "solid", "\u00e9": "solid"}}
    (tmp_path / "m.json").write_text(json.dumps(manifest, ensure_ascii=False), encoding="utf-8")
    src = os.path.dirname(os.path.dirname(cp.__file__))
    code = "import sys; from levelmix import cli; sys.exit(cli.run(sys.argv[1:]))"
    outputs = []
    for env in ({"PYTHONUTF8": "1"}, {"PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0", "LC_ALL": "C"}):
        result = subprocess.run(
            [sys.executable, "-c", code, "ingest", "--manifest", str(tmp_path / "m.json")],
            env={**os.environ, "PYTHONPATH": src, **env}, capture_output=True, encoding="utf-8",
        )
        assert result.returncode == 0, result.stderr
        outputs.append(result.stdout)
    summary = json.loads(outputs[0])
    assert (summary["vocab"], summary["chunks"]) == ("-X\u00e9", 5)
    assert outputs[1] == outputs[0]
