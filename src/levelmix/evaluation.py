"""Quantitative evaluation: balanced clustering accuracy under the optimal
component-to-type assignment, and the report of the two families' clustering
comparison (Experiment 1) built from it; the disentanglement metric driven by
an MLP probe on generated chunks; tile-density summaries for the radial
charts; and latent CSV export.
"""

from __future__ import annotations

import csv
import io
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from . import neuralnet as nn
from .corpus import CHUNK_SIZE, one_hot_encode
from .errors import (
    EmptyComponent,
    GeneratorFailure,
    MissingLabels,
    UsageError,
)
from .neuralnet import AdamState, DenseNet


@dataclass
class ClusterReport:
    k: int
    type_names: list  # column order of the confusion matrix
    confusion: np.ndarray  # (k, n_types) counts
    assignment: dict  # type name -> component index
    balanced_accuracy: float

    def to_dict(self):
        return {**asdict(self), "confusion": self.confusion.tolist()}


def clustering_accuracy(labels, level_types, k):
    """Balanced (macro) accuracy: each level type is matched to a distinct
    component so that the mean per-type correct fraction is maximal.

    Matching is solved as a linear assignment on the per-type fraction
    matrix; for fewer components than types the unmatched types score zero.
    """
    # imported here: scipy.optimize costs 0.5-0.7 s and 49 MB at start-up,
    # and no other function needs it
    from scipy.optimize import linear_sum_assignment

    labels = np.asarray(labels) if len(labels) else np.zeros(0, dtype=np.intp)  # [] is float64
    if len(labels) != len(level_types):
        raise MissingLabels("labels and level_types differ in length")
    if any(t is None for t in level_types):
        raise MissingLabels("every chunk needs a level_type")
    if np.any((labels < 0) | (labels >= k)):
        raise MissingLabels(f"labels must lie in [0, {k})")
    type_names = sorted(set(level_types))
    type_index = {t: j for j, t in enumerate(type_names)}
    confusion = np.zeros((k, len(type_names)), dtype=np.int64)
    np.add.at(confusion, (labels, np.array([type_index[t] for t in level_types], dtype=np.intp)), 1)
    fractions = confusion / np.maximum(confusion.sum(axis=0, keepdims=True), 1)
    # maximize sum of per-type fractions over injective type->component maps
    rows, cols = linear_sum_assignment(-fractions)
    assignment = {type_names[j]: int(i) for i, j in zip(rows, cols)}
    matched = fractions[rows, cols].sum()
    accuracy = float(matched / len(type_names))
    return ClusterReport(
        k=k,
        type_names=type_names,
        confusion=confusion,
        assignment=assignment,
        balanced_accuracy=accuracy,
    )


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
    """The runs of both families, gmvae and vae-gmm, over the seeds of a
    clustering comparison."""

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
            "families": {family: self.summary(family) for family in ("gmvae", "vae-gmm")},
        }


# ---------------------------------------------------------------------------
# Disentanglement


@dataclass
class DisentanglementReport:
    k: int
    per_component_accuracy: list  # validation accuracy per component
    p70: float
    p80: float
    p90: float
    probe: str

    def to_dict(self):
        return asdict(self)


PROBE_HIDDEN = 256
PROBE_DEPTH = 2
PROBE_LR = 1e-3
PROBE_EPOCHS = 50
PROBE_BATCH = 64
PROBE_PATIENCE = 5


def _softmax_xent_and_grad(logits, targets):
    """Mean cross-entropy of softmax(logits) against integer targets, with
    d(loss)/d(logits)."""
    p = nn.softmax(logits, axis=-1)
    n = logits.shape[0]
    eps = 1e-12
    loss = -float(np.mean(np.log(p[np.arange(n), targets] + eps)))
    grad = p.copy()
    grad[np.arange(n), targets] -= 1.0
    return loss, grad / n


def train_probe(train_x, train_y, val_x, val_y, k, rng_seed=0):
    """The k-way MLP probe: 2 hidden layers of 256 relu units, softmax
    output trained with Adam 1e-3 for up to 50 epochs of batch 64, early
    stopped when validation accuracy stops improving."""
    rng = np.random.default_rng(rng_seed)
    d = train_x.shape[1]
    net = DenseNet(
        [d] + [PROBE_HIDDEN] * PROBE_DEPTH + [k],
        ["relu"] * PROBE_DEPTH + ["linear"],
        rng,
    )
    opt = AdamState(net, learning_rate=PROBE_LR)
    n = train_x.shape[0]
    best_acc = -1.0
    best_params = None
    stale = 0
    for _ in range(PROBE_EPOCHS):
        order = rng.permutation(n)
        for b in range(0, n, PROBE_BATCH):
            idx = order[b : b + PROBE_BATCH]
            logits, cache = net.forward_cached(train_x[idx])
            _, d_logits = _softmax_xent_and_grad(logits, train_y[idx])
            net.backward(cache, d_logits, input_tail=0)
            opt.step(net)
        val_pred = np.argmax(net.forward(val_x), axis=1)
        acc = float(np.mean(val_pred == val_y))
        if acc > best_acc + 1e-12:
            best_acc = acc
            best_params = net.params.copy()
            stale = 0
        else:
            stale += 1
            if stale >= PROBE_PATIENCE:
                break
    if best_params is not None:
        net.params[...] = best_params
    return net


def check_probe_split(n_per_component, n_train):
    """UsageError unless the probe gets training and validation chunks."""
    if not 1 <= n_train < n_per_component:
        raise UsageError(f"need 1 <= n_train < n_per_component, got {n_train} and {n_per_component}")


def disentanglement(generate_fn, k, vocab, rng, n_per_component=500, n_train=300):
    """Generate n_per_component chunks per component, train the probe on the
    training split, and score each component by the probe's accuracy on that
    component's validation chunks.

    generate_fn(component, n, rng) must return n chunks, or the count is a
    GeneratorFailure; what it raises propagates as it is. A model's generate
    method bound to its vocab fits directly (loading refuses a support
    without a column of some cell). The chunks' one-hot rows are one uint8
    block, and only the validation rows are copied to float64.
    """
    check_probe_split(n_per_component, n_train)
    n_val = n_per_component - n_train
    d = CHUNK_SIZE * CHUNK_SIZE * vocab.size
    block = np.zeros((k, n_per_component, d), dtype=np.uint8)
    for component in range(k):
        chunks = generate_fn(component, n_per_component, rng)
        if len(chunks) != n_per_component:
            raise GeneratorFailure(
                f"component {component}: expected {n_per_component} chunks, got {len(chunks)}"
            )
        for i, chunk in enumerate(chunks):
            block[component, i] = one_hot_encode(chunk, vocab)
    # one validation forward per component: a GEMM's rows depend on its row count
    train_x, val_x = block[:, :n_train].reshape(-1, d), block[:, n_train:].astype(np.float64)
    del block
    train_y, val_y = (np.repeat(np.arange(k, dtype=np.int64), n) for n in (n_train, n_val))
    probe_seed = int(rng.integers(2**31))
    net = train_probe(train_x, train_y, val_x.reshape(-1, d), val_y, k, probe_seed)
    accuracies = []
    for component in range(k):
        pred = np.argmax(net.forward(val_x[component]), axis=1)
        accuracies.append(float(np.mean(pred == component)))
    accs = np.array(accuracies)
    return DisentanglementReport(
        k=k,
        per_component_accuracy=accuracies,
        p70=float(np.mean(accs >= 0.70)),
        p80=float(np.mean(accs >= 0.80)),
        p90=float(np.mean(accs >= 0.90)),
        probe=f"mlp {PROBE_DEPTH}x{PROBE_HIDDEN} relu, adam {PROBE_LR}, "
        f"<= {PROBE_EPOCHS} epochs, batch {PROBE_BATCH}, early stop on val plateau",
    )


# ---------------------------------------------------------------------------
# Tile densities


@dataclass
class TileDensityMatrix:
    values: np.ndarray  # (k, retained tiles), each column max-normalized
    tile_chars: list  # column order, background excluded
    k: int

    def to_csv(self):
        out = io.StringIO()
        writer = csv.writer(out)
        writer.writerow(["component"] + list(self.tile_chars))
        for i in range(self.k):
            writer.writerow([i] + [repr(float(v)) for v in self.values[i]])
        return out.getvalue()


def tile_densities(chunk_groups, vocab):
    """Mean per-chunk count of every tile, per component, normalized per tile
    by its maximum over the components that have chunks; the background
    column is dropped. A component without chunks gets a row of nan;
    EmptyComponent is raised only when no component has any.

    chunk_groups: list of chunk lists, index = component.
    """
    t = vocab.size
    k = len(chunk_groups)
    empty = [not chunks for chunks in chunk_groups]
    if all(empty):
        raise EmptyComponent(f"none of the {k} components has chunks")
    raw = np.zeros((k, t), dtype=np.float64)
    for i, chunks in enumerate(chunk_groups):
        if chunks:
            raw[i] = np.bincount(np.stack([c.tiles for c in chunks]).reshape(-1), minlength=t) / len(chunks)
    maxima = raw.max(axis=0)
    normalized = np.divide(raw, maxima, out=np.zeros_like(raw), where=maxima > 0)
    normalized[empty] = np.nan
    keep = [i for i in range(t) if i != vocab.background_id]
    return TileDensityMatrix(
        values=normalized[:, keep],
        tile_chars=[vocab.chars[i] for i in keep],
        k=k,
    )


# ---------------------------------------------------------------------------
# Latent export


def export_latents(chunk_ids, level_types, labels, latents):
    """CSV text of rows (chunk id, level_type, hard label, latent means), header
    included; floats written with repr so a round-trip parse is lossless."""
    latents = np.asarray(latents, dtype=np.float64)
    text = io.StringIO()
    writer = csv.writer(text)
    dim = latents.shape[1]
    writer.writerow(["chunk_id", "level_type", "label"] + [f"z{i}" for i in range(dim)])
    for cid, ltype, lab, row in zip(chunk_ids, level_types, labels, latents):
        writer.writerow([cid, "" if ltype is None else ltype, int(lab)] + [repr(float(v)) for v in row])
    return text.getvalue()

