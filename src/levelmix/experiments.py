"""Multi-run experiment drivers: the reduced clustering comparison between
the mixture-prior model and the VAE+PCA+GMM baseline, and the component-count
sweep of disentanglement proportions. The comparison runs behind the compare
command, the sweep behind the sweep command; the acceptance suite runs both.
"""

from __future__ import annotations

import dataclasses
import json
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import baseline as bl
from . import evaluation as ev
from . import gmvae as gm
from . import neuralnet as nn


FAMILIES = ("gmvae", "vae-gmm")


@dataclass
class ComparisonRun:
    """One trained model's clustering of the corpus. largest_share is the
    share of chunks in its largest component (1.0: all in one), and
    mean_max_p, for a GMVAE only, the mean over chunks of q(y|x)'s largest
    probability (1/k: a uniform posterior)."""

    seed: int
    family: str
    balanced_accuracy: float
    largest_share: float
    mean_max_p: Optional[float]
    minutes: float


@dataclass
class ComparisonResult:
    runs: list = field(default_factory=list)

    def median(self, family):
        values = [r.balanced_accuracy for r in self.runs if r.family == family]
        return float(np.median(values)) if values else float("nan")

    def summary(self, family):
        """The family's mean accuracy, its runs at accuracy 1.0 and its
        runs with every chunk in one component: a median hides the runs
        that fail."""
        runs = [r for r in self.runs if r.family == family]
        return {
            "runs": len(runs),
            "mean_accuracy": float(np.mean([r.balanced_accuracy for r in runs])) if runs else float("nan"),
            "at_one": sum(r.balanced_accuracy == 1.0 for r in runs),
            "one_component": sum(r.largest_share == 1.0 for r in runs),
        }

    def to_dict(self):
        return {
            "runs": [vars(r) for r in self.runs],
            "median_gmvae": self.median("gmvae"),
            "median_vae_gmm": self.median("vae-gmm"),
            "families": {family: self.summary(family) for family in FAMILIES},
        }


def train_family(family, config, k, data, vocab=None, level_types=None, sampler="uniform"):
    """Train one model family with k components from its config template and
    return the model, which offers k, generate, predict and encode whatever
    the family. A gmvae trains config with k replaced; a vae-gmm fits a
    k-component mixture, seeded with config.rng_seed, on a VAE trained with
    config."""
    if family == "gmvae":
        model = gm.build_model(dataclasses.replace(config, k=k).validate(), vocab)
        gm.train(model, data, level_types=level_types, sampler=sampler)
        return model
    model, _ = bl.fit_vae_gmm(
        data, config, k, gmm_seed=config.rng_seed, vocab=vocab,
        level_types=level_types, sampler=sampler,
    )
    return model


def clustering_comparison(
    data,
    level_types,
    k,
    seeds,
    gmvae_config,
    vae_config,
    sampler="balanced",
    log=None,
):
    """Train both model families per seed and score balanced clustering
    accuracy against the level-type labels, with each run's largest
    component share and a GMVAE's mean max q(y|x) (ComparisonRun).
    gmvae_config and vae_config are templates whose rng_seed is replaced by
    each seed."""
    result = ComparisonResult()
    templates = {"gmvae": gmvae_config, "vae-gmm": vae_config}
    for seed in seeds:
        for family, template in templates.items():
            t0 = time.time()
            config = dataclasses.replace(template, rng_seed=seed)
            model = train_family(family, config, k, data, level_types=level_types, sampler=sampler)
            mean_max_p = None
            if family == "gmvae":
                # the one label-net forward that hard_labels makes
                logits = gm.label_logits(model, data)
                labels = np.argmax(logits, axis=1)
                mean_max_p = float(np.mean(np.max(nn.softmax(logits), axis=1)))
            else:
                labels = model.predict(data)
            acc = ev.clustering_accuracy(labels, level_types, k).balanced_accuracy
            share = float(np.max(np.bincount(labels, minlength=k)) / len(labels))
            result.runs.append(ComparisonRun(seed, family, acc, share, mean_max_p, (time.time() - t0) / 60))
            if log:
                log(f"{family} seed={seed}: balanced accuracy {acc:.3f}, largest share {share:.3f}")
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

    gmvae_config and vae_config are the templates train_family trains each
    row from; the template of a family not in families may be None. Each
    row's probe RNG is seeded with its config's rng_seed + k.
    """
    ev.check_probe_split(n_per_component, n_train)
    templates = {"gmvae": gmvae_config, "vae-gmm": vae_config}
    rows = []
    for family in families:
        config = templates[family]
        for k in k_values:
            model = train_family(
                family, config, k, data, vocab=vocab, level_types=level_types, sampler=sampler
            )
            report = ev.disentanglement(
                model.generate, k, vocab, np.random.default_rng(config.rng_seed + k),
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
