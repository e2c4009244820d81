"""QUALITY_toy.json, the toy seed-set record (scripts/quality_toy.py),
against the code: its shape, and one of its runs rebuilt."""

import json
import os
import subprocess
import sys

import pytest

from levelmix import cli, toygame

RECORD = os.path.join(os.path.dirname(__file__), os.pardir, "QUALITY_toy.json")
# the rebuilt runs: one seed of two records of the latest change, one in
# each dtype
SEED = 0


@pytest.fixture(scope="module")
def quality():
    with open(RECORD) as f:
        return json.load(f)


def test_every_pair_holds_both_sides_of_every_record(quality):
    for pair in quality["pairs"]:
        # the change side's code is named by src/'s tree hash, which its
        # commit does not know; a parent side may be its commit with a note
        assert len(pair["change"]["src_tree"]) == 40
        for side in (pair["parent"], pair["change"]):
            assert side["commit"] and side["numpy"] and side["blas"]
            assert side["src_tree"] or side["note"]
            assert [(r["dtype"], r["sampler"]) for r in side["records"]] == [
                ("float64", "uniform"), ("float64", "balanced"), ("float32", "uniform"), ("float32", "balanced"),
            ]
            for r in side["records"]:
                assert [(run["seed"], run["family"]) for run in r["runs"]] == [
                    (seed, family) for seed in range(16) for family in ("gmvae", "vae-gmm")
                ]
                assert r["run_info"]["openblas_num_threads"] == "1"
                assert r["command"].startswith("levelmix compare ")


@pytest.mark.parametrize("dtype, sampler", [("float64", "uniform"), ("float32", "balanced")])
def test_a_rebuilt_run_equals_the_record(quality, tmp_path, dtype, sampler):
    # the record runs at one BLAS thread, since the thread count moves the
    # last bits of a sum, and so does the rebuild, in its own process. A
    # numpy or BLAS build other than the side's `numpy` and `blas` may move
    # them too: accuracies and shares are counts of chunks, and they match
    (entry,) = [r for r in quality["pairs"][-1]["change"]["records"] if (r["dtype"], r["sampler"]) == (dtype, sampler)]
    argv = entry["command"].split()[1:]
    manifest = toygame.write_corpus(tmp_path / "corpus", **quality["corpus"]["toygame.write_corpus"])
    out = tmp_path / "compare.json"
    for flag, value in (("--manifest", manifest), ("--out", out), ("--seeds", SEED)):
        argv[argv.index(flag) + 1] = str(value)
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "levelmix.cli", *argv], env=env, capture_output=True, text=True, timeout=600
    )
    assert result.returncode == 0, result.stderr
    with open(out) as f:
        payload = json.load(f)
    assert payload["run_info"]["openblas_num_threads"] == "1"
    rebuilt = payload["report"]["runs"]
    recorded = [run for run in entry["runs"] if run["seed"] == SEED]
    assert len(rebuilt) == len(recorded) == 2
    for got, expected in zip(rebuilt, recorded):
        got_p, expected_p = got.pop("mean_max_p"), expected["mean_max_p"]
        del got["minutes"]
        assert got == {k: v for k, v in expected.items() if k != "mean_max_p"}
        if expected_p is None:
            assert got_p is None
        else:
            assert got_p == pytest.approx(expected_p, rel=1e-9)
