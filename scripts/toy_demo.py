#!/usr/bin/env python3
"""End-to-end demo on the bundled synthetic game: write a small corpus,
train a 3-component model, cluster, generate, and emit density charts.
Runs in a couple of minutes on a laptop; no external data needed.

    python scripts/toy_demo.py --workdir /tmp/levelmix-demo
"""

import argparse
import os

from levelmix import cli, toygame


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--epochs", type=int, default=100)
    parser.add_argument("--seed", type=int, default=3)
    args = parser.parse_args()

    os.makedirs(args.workdir, exist_ok=True)
    manifest = toygame.write_corpus(os.path.join(args.workdir, "corpus"), levels_per_type=3, cols=48, seed=1)
    # train writes model.ckpt, history.csv and run.json in the workdir
    model = os.path.join(args.workdir, "model.ckpt")
    small = ["--hidden-width", "64", "--latent-dim", "16", "--epochs", str(args.epochs), "--seed", str(args.seed)]

    steps = [
        ["ingest", "--manifest", manifest],
        ["train", "--manifest", manifest, "--k", "3", "--sampler", "balanced", "--out-dir", args.workdir] + small,
        ["eval-cluster", "--model", model, "--manifest", manifest, "--out", os.path.join(args.workdir, "cluster.json")],
        ["generate", "--model", model, "--component", "0", "--n", "3"],
        ["encode", "--model", model, "--manifest", manifest, "--out", os.path.join(args.workdir, "latents.csv")],
        ["densities", "--model", model, "--out", os.path.join(args.workdir, "densities.csv"), "--n-per-component", "100"],
        ["chart", "--densities", os.path.join(args.workdir, "densities.csv"), "--out-dir", os.path.join(args.workdir, "charts")],
        ["eval-playability", "--model", model, "--manifest", manifest, "--out", os.path.join(args.workdir, "playability.json"), "--budget", "300"],
    ]
    for step in steps:
        print(f"\n$ levelmix {' '.join(step)}")
        code = cli.run(step)
        if code != 0:
            raise SystemExit(code)
    print(f"\nartifacts in {args.workdir}")


if __name__ == "__main__":
    main()
