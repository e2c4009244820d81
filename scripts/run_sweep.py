#!/usr/bin/env python3
"""Disentanglement-proportion sweep over a grid of component counts for both
model families, written as CSV (family, k, p70, p80, p90).

The published grid is 2,4,6,8,10,15,20,30,40,50 at 10000 epochs; that is a
multi-day CPU job, so the default here is the reduced grid 2,4,10 at 2000
epochs.

    python scripts/run_sweep.py --manifest smb.json --out sweep.csv
"""

import argparse
import csv

from levelmix import baseline as bl
from levelmix import corpus as cp
from levelmix import experiments
from levelmix import gmvae as gm


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--manifest", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--k-list", default="2,4,10")
    parser.add_argument("--epochs", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--latent-dim", type=int, default=64)
    parser.add_argument("--hidden-width", type=int, default=512)
    parser.add_argument("--dtype", choices=("float64", "float32"), default="float64")
    parser.add_argument("--n-per-component", type=int, default=500)
    parser.add_argument("--n-train", type=int, default=300)
    args = parser.parse_args()

    manifest = cp.load_manifest(args.manifest)
    _, vocab, chunks = cp.load_corpus(manifest, heuristic_types=True)
    data = cp.encode_chunks(chunks, vocab)
    k_values = [int(k) for k in args.k_list.split(",")]
    shared = dict(
        d=data.shape[1],
        latent_dim=args.latent_dim,
        hidden_width=args.hidden_width,
        epochs=args.epochs,
        rng_seed=args.seed,
        dtype=args.dtype,
    )
    rows = experiments.disentanglement_sweep(
        data,
        vocab,
        k_values,
        gm.GmvaeConfig(k=k_values[0], **shared).validate(),
        bl.VaeConfig(**shared).validate(),
        n_per_component=args.n_per_component,
        n_train=args.n_train,
        log=print,
    )
    with open(args.out, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["family", "k", "p70", "p80", "p90"])
        writer.writerows(rows)
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
