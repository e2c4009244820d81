#!/usr/bin/env python3
"""Reduced replication of the 3-component clustering comparison: train the
mixture-prior model and the VAE+PCA+GMM baseline on one corpus over several
seeds, then report median balanced clustering accuracies.

Full-size horizontal-game runs at 2000 epochs take a few CPU-hours; use
--hidden-width/--epochs to scale down for a smoke run.

    python scripts/run_experiment1.py --manifest smb.json --out exp1.json
"""

import argparse

from levelmix import baseline as bl
from levelmix import corpus as cp
from levelmix import experiments
from levelmix import gmvae as gm


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--manifest", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--k", type=int, default=3)
    parser.add_argument("--epochs", type=int, default=2000)
    parser.add_argument("--seeds", default="0,1,2", help="comma-separated seeds")
    parser.add_argument("--latent-dim", type=int, default=64)
    parser.add_argument("--hidden-width", type=int, default=512)
    parser.add_argument("--dtype", choices=("float64", "float32"), default="float64")
    args = parser.parse_args()

    manifest = cp.load_manifest(args.manifest)
    _, vocab, chunks = cp.load_corpus(manifest, heuristic_types=True)
    data = cp.encode_chunks(chunks, vocab, args.dtype)
    types = [c.level_type for c in chunks]
    print(f"{manifest.game}: {len(chunks)} chunks, d={data.shape[1]}")

    shared = dict(
        d=data.shape[1],
        latent_dim=args.latent_dim,
        hidden_width=args.hidden_width,
        epochs=args.epochs,
        dtype=args.dtype,
    )
    result = experiments.clustering_comparison(
        data,
        types,
        args.k,
        [int(s) for s in args.seeds.split(",")],
        gm.GmvaeConfig(k=args.k, **shared).validate(),
        bl.VaeConfig(**shared).validate(),
        log=print,
    )
    summary = result.to_dict()
    experiments.save_json(args.out, summary)
    print(
        f"median balanced accuracy: mixture {summary['median_gmvae']:.3f} "
        f"vs baseline {summary['median_vae_gmm']:.3f} -> {args.out}"
    )


if __name__ == "__main__":
    main()
