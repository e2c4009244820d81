"""Multi-run experiment drivers: the reduced clustering comparison between
the mixture-prior model and the VAE+PCA+GMM baseline, and the component-count
sweep of disentanglement proportions. Used by the scripts in scripts/, the
sweep command and the acceptance suite.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import time
from dataclasses import dataclass, field

import numpy as np

from . import baseline as bl
from . import evaluation as ev
from . import gmvae as gm


@dataclass
class ComparisonRun:
    seed: int
    family: str
    balanced_accuracy: float
    minutes: float


@dataclass
class ComparisonResult:
    runs: list = field(default_factory=list)

    def median(self, family):
        values = [r.balanced_accuracy for r in self.runs if r.family == family]
        return float(np.median(values)) if values else float("nan")

    def to_dict(self):
        return {
            "runs": [vars(r) for r in self.runs],
            "median_gmvae": self.median("gmvae"),
            "median_vae_gmm": self.median("vae-gmm"),
        }


def clustering_comparison(
    data,
    level_types,
    k,
    seeds,
    epochs,
    latent_dim=64,
    hidden_width=512,
    sampler="balanced",
    dtype="float64",
    log=None,
):
    """Train both model families per seed and score balanced clustering
    accuracy against the level-type labels."""
    result = ComparisonResult()
    for seed in seeds:
        t0 = time.time()
        config = gm.GmvaeConfig(
            d=data.shape[1], k=k, latent_dim=latent_dim, hidden_width=hidden_width,
            epochs=epochs, rng_seed=seed, dtype=dtype,
        )
        model = gm.build_model(config)
        gm.train(model, data, level_types=level_types, sampler=sampler)
        labels = gm.hard_labels(model, data)
        acc = ev.clustering_accuracy(labels, level_types, k).balanced_accuracy
        result.runs.append(ComparisonRun(seed, "gmvae", acc, (time.time() - t0) / 60))
        if log:
            log(f"gmvae seed={seed}: balanced accuracy {acc:.3f}")

        t0 = time.time()
        vae_config = bl.VaeConfig(
            d=data.shape[1], latent_dim=latent_dim, hidden_width=hidden_width,
            epochs=epochs, rng_seed=seed, dtype=dtype,
        )
        pipeline, _ = bl.fit_vae_gmm(
            data, vae_config, k, gmm_seed=seed, level_types=level_types, sampler=sampler
        )
        acc = ev.clustering_accuracy(pipeline.predict(data), level_types, k).balanced_accuracy
        result.runs.append(ComparisonRun(seed, "vae-gmm", acc, (time.time() - t0) / 60))
        if log:
            log(f"vae-gmm seed={seed}: balanced accuracy {acc:.3f}")
    return result


def disentanglement_sweep(
    data,
    vocab,
    k_values,
    gmvae_config,
    vae_config,
    level_types=None,
    sampler="uniform",
    n_per_component=500,
    n_train=300,
    families=("gmvae", "vae-gmm"),
    log=None,
):
    """Rows of (family, k, p70, p80, p90) over the component grid.

    gmvae_config and vae_config are templates: a gmvae row trains
    gmvae_config with k replaced, a vae-gmm row fits a k-component mixture
    (seeded with vae_config.rng_seed) on a VAE trained with vae_config. The
    template of a family not in families may be None. Each row's probe RNG is
    seeded with its config's rng_seed + k.
    """
    rows = []
    for family in families:
        for k in k_values:
            if family == "gmvae":
                seed = gmvae_config.rng_seed
                model = gm.build_model(dataclasses.replace(gmvae_config, k=k).validate(), vocab)
                gm.train(model, data, level_types=level_types, sampler=sampler)
                generator = functools.partial(gm.generate, model)
            else:
                seed = vae_config.rng_seed
                model, _ = bl.fit_vae_gmm(
                    data, vae_config, k, gmm_seed=seed, vocab=vocab,
                    level_types=level_types, sampler=sampler,
                )
                generator = model.generate
            report = ev.disentanglement(
                generator, k, vocab, np.random.default_rng(seed + k),
                n_per_component=n_per_component, n_train=n_train,
            )
            rows.append((family, k, report.p70, report.p80, report.p90))
            if log:
                log(
                    f"{family} k={k}: p70={report.p70:.3f} "
                    f"p80={report.p80:.3f} p90={report.p90:.3f}"
                )
    return rows


def save_json(path, payload):
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")
