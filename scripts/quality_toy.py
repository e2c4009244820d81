#!/usr/bin/env python3
"""The toy seed-set quality record, QUALITY_toy.json.

Runs `levelmix compare` on the toy corpus at the small test configuration
(k=3, latent 16, width 64, depth 3, 100 epochs), seeds 0-15, once for each
dtype and sampler, at one BLAS thread, and writes the result as one side
of a parent -> change pair:

    python scripts/quality_toy.py --side parent --title "what the change does"
    python scripts/quality_toy.py --side change --title "what the change does"

A side names the measured code (the commit, and git's tree hash of src/ as
it was on disk, which names it after the commit too) and the numpy and BLAS
it ran on, and holds, per (dtype, sampler), the command line, the compare
report's runs and per-family summary (mean accuracy, runs at 1.0, runs with
every chunk in one component) and its run_info. A pair whose title is new is
appended; an existing one gets the side replaced.
"""

import os

# training bytes depend on the BLAS thread count; set before numpy loads
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402

import numpy as np  # noqa: E402

from levelmix import cli, toygame  # noqa: E402

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
RECORD = os.path.join(ROOT, "QUALITY_toy.json")
CORPUS = {"levels_per_type": 3, "cols": 48, "seed": 1}
SEEDS = range(16)
DTYPES = ("float64", "float32")
SAMPLERS = ("uniform", "balanced")
MODEL_FLAGS = [
    "--k", "3", "--latent-dim", "16", "--hidden-width", "64", "--hidden-depth", "3",
    "--batch-size", "64", "--epochs", "100",
]


def run_compare(workdir, dtype, sampler):
    """One record entry: compare's runs (without their minutes) and family
    summary, run in workdir with paths relative to it."""
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        manifest = os.path.relpath(toygame.write_corpus("corpus", **CORPUS))
        out = f"{dtype}-{sampler}.json"
        argv = ["compare", "--manifest", manifest, "--out", out, "--dtype", dtype, "--sampler", sampler,
                "--seeds", ",".join(str(s) for s in SEEDS)] + MODEL_FLAGS
        if cli.run(argv) != 0:
            raise SystemExit(f"levelmix {' '.join(argv)} failed")
        with open(out) as f:
            payload = json.load(f)
    finally:
        os.chdir(cwd)
    report = payload["report"]
    return {
        "dtype": dtype,
        "sampler": sampler,
        "command": "levelmix " + " ".join(argv),
        "runs": [{k: v for k, v in run.items() if k != "minutes"} for run in report["runs"]],
        "families": report["families"],
        "run_info": payload["run_info"],
    }


def git(*args, env=None):
    return subprocess.run(["git", "-C", ROOT, *args], capture_output=True, text=True, check=True, env=env).stdout.strip()


def head_commit():
    """HEAD's hash, with +dirty when src/ has uncommitted changes."""
    return git("rev-parse", "HEAD") + ("+dirty" if git("status", "--porcelain", "--", "src") else "")


def src_tree():
    """git's tree hash of src/ as it is on disk: `git rev-parse <commit>:src`
    gives the same hash for every commit that holds this code."""
    with tempfile.TemporaryDirectory() as tmp:
        env = dict(os.environ, GIT_INDEX_FILE=os.path.join(tmp, "index"))
        git("add", "--", "src", env=env)
        return git("write-tree", "--prefix=src/", env=env)


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--side", required=True, choices=("parent", "change"))
    parser.add_argument("--title", required=True, help="the change the pair measures")
    parser.add_argument("--commit", default=None, help="the measured code's commit (default: HEAD)")
    parser.add_argument("--note", default=None, help="how the measured code differs from the commit, if it does")
    args = parser.parse_args()

    with tempfile.TemporaryDirectory() as workdir:
        records = [run_compare(workdir, dtype, sampler) for dtype in DTYPES for sampler in SAMPLERS]
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    side = {
        "commit": args.commit or head_commit(),
        "src_tree": src_tree(),
        "numpy": np.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "note": args.note,
        "records": records,
    }

    if os.path.exists(RECORD):
        with open(RECORD) as f:
            quality = json.load(f)
    else:
        quality = {"corpus": {"toygame.write_corpus": CORPUS}, "openblas_num_threads": 1, "pairs": []}
    pair = next((p for p in quality["pairs"] if p["title"] == args.title), None)
    if pair is None:
        pair = {"title": args.title, "parent": None, "change": None}
        quality["pairs"].append(pair)
    pair[args.side] = side
    with open(RECORD, "w") as f:
        json.dump(quality, f, indent=1, sort_keys=True)
        f.write("\n")
    for r in records:
        print(r["dtype"], r["sampler"], json.dumps(r["families"], sort_keys=True))


if __name__ == "__main__":
    main()
