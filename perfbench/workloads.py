"""The three benchmark workloads.

Each workload makes the same public levelmix calls, in the same order, as the
CLI command it stands for, on corpora generated from the seed. A workload has
a set-up (repeated, and reported as a median), an optional one-off set-up
step, a timed unit, and correctness gates checked outside the timed part.

Every workload makes the calls behind every end-to-end metric, each measured
on the same public call everywhere:
  train_chunks_per_s        gmvae.train / baseline.train_vae
  ckpt_mb (and ckpt_save_s) checkpoints.save_gmvae / save_vae_gmm
  (ckpt_load_s)             checkpoints.load_any
The eval workload saves the model it evaluates in its set-up and loads it back
in its unit; baseline-ki-f32 loads its checkpoint back in the round-trip gate.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import math
import os
import time
from collections import defaultdict

import numpy as np

import corpora
from levelmix import baseline as bl
from levelmix import checkpoints as ck
from levelmix import corpus as cp
from levelmix import evaluation as ev
from levelmix import gmvae as gm
from levelmix import playability as pl
from levelmix import vglc

ASTAR_SAMPLE = 30  # corpus chunks checked against the BFS oracle


class Run:
    """Counts public calls and gates, and collects the measurements."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.trace = False  # a --trace 1 run
        self.measures = defaultdict(list)
        self.info = {}
        self.gate_s = 0.0  # gate work inside a unit; taken out of its wall time

    @contextlib.contextmanager
    def untimed(self):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.gate_s += time.perf_counter() - t0

    def call(self, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.failed += 1
            raise

    def timed(self, key, fn, *args, **kwargs):
        """call() and append its duration in seconds to measures[key]."""
        t0 = time.perf_counter()
        result = self.call(fn, *args, **kwargs)
        self.measures[key].append(time.perf_counter() - t0)
        return result

    def gate(self, name, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{name}: {detail}")
        return ok


@contextlib.contextmanager
def clocked(owner, attr, sink):
    """Time every call of owner.attr into `sink`; one clock pair per call."""
    original = getattr(owner, attr)

    @functools.wraps(original)
    def clock(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            sink.append(time.perf_counter() - t0)

    setattr(owner, attr, clock)
    try:
        yield
    finally:
        setattr(owner, attr, original)


# -- gates -------------------------------------------------------------------


def param_digest(model):
    """sha256 over every parameter's dtype, shape and bytes, in a fixed order."""
    h = hashlib.sha256()

    def add(name, arr):
        arr = np.ascontiguousarray(arr)
        h.update(f"{name}:{arr.dtype.str}:{arr.shape};".encode())
        h.update(arr.tobytes())

    vae = getattr(model, "vae", None)
    nets = (vae or model).networks()
    for name in sorted(nets):
        for i, layer in enumerate(nets[name].layers):
            add(f"{name}.{i}.w", layer.weight)
            add(f"{name}.{i}.b", layer.bias)
    if vae is not None:
        for field in ("mean", "axes", "explained_variance"):
            add(f"pca.{field}", getattr(model.pca, field))
        add("pca.total", np.float64(model.pca.total_variance))
        for field in ("weights", "means", "covariances"):
            add(f"gmm.{field}", getattr(model.gmm, field))
    return h.hexdigest()


def param_count(model):
    nets = getattr(model, "vae", model).networks()
    return sum(p.size for net in nets.values() for p in net.param_arrays())


def check_history(run, history, epochs):
    values = [
        v for series in (history.recon_loss, history.kl_loss, history.total_loss, history.temperature)
        for v in series
    ]
    run.gate(
        "history", len(history) == epochs and all(math.isfinite(v) for v in values),
        f"{len(history)} epochs, expected {epochs}",
    )


def check_round_trip(run, path, model, kind):
    """load_any(save(model)) must give bit-identical parameters; the load is
    timed as ckpt_load_s."""
    loaded_kind, loaded, _ = run.timed("load_s", ck.load_any, path)
    run.gate("round_trip", loaded_kind == kind and param_digest(loaded) == param_digest(model),
             "loaded parameters differ from the saved model")


def check_astar(run, chunks, rules, vocab, seed):
    rng = np.random.default_rng([seed, 9])
    for i in rng.choice(len(chunks), size=ASTAR_SAMPLE, replace=False):
        rows = cp.chunk_to_lines(chunks[i], vocab)
        if not run.gate("astar_vs_bfs", pl.crossable(rows, rules)[0] == pl.bfs_crossable(rows, rules), f"chunk {i}"):
            return


def check_disentanglement(run, report):
    p = (report.p70, report.p80, report.p90)
    run.gate("disentangle_order", 1.0 >= p[0] >= p[1] >= p[2] >= 0.0, f"p70/p80/p90 = {p}")


def check_reference(run, game, vocab, chunks):
    deltas = vglc.check_against_reference(game, vocab.size, cp.CHUNK_SIZE**2 * vocab.size, len(chunks))
    run.gate("reference_shape", not deltas, "; ".join(deltas))


# -- workloads ---------------------------------------------------------------


class TrainSmb:
    """`levelmix train` at paper width: smb corpus, k = 10, float64."""

    name = "train-smb-f64"
    k = 10
    epochs = 3  # soft, then hard labels; the one save is about a third of the unit

    def setup(self, run, seed, workdir):
        path = corpora.write_smb(workdir, seed, vglc.SOLIDITY["smb"], vglc.EXPECTED_CHUNKS["smb"])
        manifest = run.call(cp.load_manifest, path)
        _, vocab, chunks = run.call(cp.load_corpus, manifest)
        data = run.call(cp.encode_chunks, chunks, vocab)
        check_reference(run, "smb", vocab, chunks)
        config = gm.GmvaeConfig(d=data.shape[1], k=self.k, epochs=self.epochs, rng_seed=seed).validate()
        model = run.call(gm.build_model, config, vocab)
        # warm-up: one forward and backward pass, parameters untouched
        noise = np.random.default_rng([seed, 4])
        batch = data[: config.batch_size]
        gm.gmvae_loss_and_grads(
            model, batch, 1.0, False,
            noise.gumbel(size=(len(batch), self.k)), noise.standard_normal((len(batch), config.latent_dim)),
        )
        return dict(seed=seed, workdir=workdir, manifest=manifest, vocab=vocab, chunks=chunks,
                    data=data, config=config, model=model, rules=pl.rules_from_manifest(manifest))

    def fresh(self, run, state):
        state["model"] = run.call(gm.build_model, state["config"], state["vocab"])

    def unit(self, run, state):
        model, data = state["model"], state["data"]
        state["model"] = None  # a unit trains its model once
        history = run.timed("train_s", gm.train, model, data, level_types=None, sampler="uniform")
        run.measures["train_chunks_per_s"].append(len(data) * self.epochs / run.measures["train_s"][-1])
        path = os.path.join(state["workdir"], "gmvae.json")
        run.timed("save_s", ck.save_gmvae, path, model, history, run_info={"command": "train", "seed": state["seed"]})
        run.measures["ckpt_bytes"].append(os.path.getsize(path))
        return dict(model=model, history=history, path=path)

    def check(self, run, state, out):
        # the GMVAE checkpoint round trip is gated on eval-smb-k10, which loads
        # a k = 10 float64 checkpoint in its unit anyway
        run.info["params_sha256"] = param_digest(out["model"])
        check_history(run, out["history"], self.epochs)
        check_astar(run, state["chunks"], state["rules"], state["vocab"], state["seed"])

    def digest(self, out):
        return param_digest(out["model"])

    def params(self, out):
        return param_count(out["model"])


class BaselineKi:
    """`levelmix train-baseline`: ki corpus, k = 3, float32 VAE, PCA and GMM."""

    name = "baseline-ki-f32"
    k = 3
    epochs = 10  # training is about 60% of the unit

    def setup(self, run, seed, workdir):
        path = corpora.write_ki(workdir, seed, vglc.SOLIDITY["ki"], vglc.EXPECTED_CHUNKS["ki"])
        manifest = run.call(cp.load_manifest, path)
        _, vocab, chunks = run.call(cp.load_corpus, manifest)
        data = run.call(cp.encode_chunks, chunks, vocab)
        check_reference(run, "ki", vocab, chunks)
        config = bl.VaeConfig(d=data.shape[1], epochs=self.epochs, rng_seed=seed, dtype="float32").validate()
        # fit_vae_gmm builds its own VAE; warm up on a throwaway one
        warm = bl.VaeModel(config)
        batch = data[: config.batch_size]
        bl.vae_loss_and_grads(warm, batch, np.random.default_rng([seed, 4]).standard_normal((len(batch), config.latent_dim)))
        return dict(seed=seed, workdir=workdir, manifest=manifest, vocab=vocab, chunks=chunks,
                    data=data, config=config, rules=pl.rules_from_manifest(manifest))

    def fresh(self, run, state):
        pass

    def unit(self, run, state):
        seed, vocab, data = state["seed"], state["vocab"], state["data"]
        train_s = []
        with clocked(bl, "train_vae", train_s):
            model, history = run.call(bl.fit_vae_gmm, data, state["config"], self.k, gmm_seed=seed, vocab=vocab,
                                      level_types=None, sampler="uniform")
        run.measures["train_chunks_per_s"].append(len(data) * self.epochs / train_s[0])
        path = os.path.join(state["workdir"], "vae_gmm.json")
        run.timed("save_s", ck.save_vae_gmm, path, model, history, run_info={"command": "train-baseline", "seed": seed})
        run.measures["ckpt_bytes"].append(os.path.getsize(path))
        run.info["pca_axes"] = model.pca.m
        return dict(model=model, history=history, path=path)

    def check(self, run, state, out):
        run.info["params_sha256"] = param_digest(out["model"])
        check_history(run, out["history"], self.epochs)
        check_round_trip(run, out["path"], out["model"], "vae-gmm")
        check_astar(run, state["chunks"], state["rules"], state["vocab"], state["seed"])

    digest = TrainSmb.digest
    params = TrainSmb.params


class EvalSmb:
    """The eval commands on a paper-width k = 10 smb checkpoint: eval-cluster,
    eval-disentangle and eval-playability at the CLI defaults (playability
    with a smaller budget), then densities on generated chunks. Each command
    loads the checkpoint, as the CLI does, after the previous command's model
    is released, as it would be in a new process.

    eval-disentangle runs in the traced run only. Its probe stops early after
    6 to 20 epochs, depending on the seed's samples, so it would make wall_s
    differ by up to 15 s between seeds. Its time is reported per-layer.
    """

    name = "eval-smb-k10"
    k = 10
    epochs = 1
    train_chunks = 2048  # train_chunks_per_s: one epoch on this many chunks
    probe_n, probe_train, play_budget, density_n = 500, 300, 1000, 500

    setup = TrainSmb.setup

    def once(self, run, state):
        """Write the checkpoint the unit reads, then train for train_chunks_per_s.

        The checkpoint holds the model as built. Only 0 to 2% of its samples
        are playable, so A* mostly searches chunks it cannot cross. Two training
        steps make 99% of the samples playable, and one epoch makes every
        sample decode to the same flat-ground chunk. The corpus generator,
        about 93% playable, gives A* the other kind of traffic.
        """
        seed, data, model = state["seed"], state.pop("data"), state.pop("model")
        path = os.path.join(state["workdir"], "gmvae.json")
        run.timed("save_s", ck.save_gmvae, path, model, run_info={"command": "build", "seed": seed})
        run.measures["ckpt_bytes"].append(os.path.getsize(path))
        state["path"], state["ckpt_sha256"] = path, param_digest(model)
        # the saved model is trained afterwards, and then dropped
        pick = np.sort(np.random.default_rng([seed, 3]).choice(len(data), self.train_chunks, replace=False))
        history = run.timed("train_s", gm.train, model, data[pick], level_types=None, sampler="uniform")
        run.measures["train_chunks_per_s"].append(self.train_chunks / run.measures["train_s"][-1])
        check_history(run, history, self.epochs)
        by_type = defaultdict(list)
        for chunk in state["chunks"]:
            by_type[chunk.level_type].append(chunk)
        state["by_type"] = [by_type[t] for t in corpora.SMB_TYPES]

    def fresh(self, run, state):
        pass

    def unit(self, run, state):
        seed, path, manifest_path, workdir = state["seed"], state["path"], state["manifest"].path, state["workdir"]
        out = {}

        # eval-cluster
        _, model, _ = run.timed("load_s", ck.load_any, path)
        with run.untimed():  # for the round-trip gate
            out["loaded_sha256"], out["params"] = param_digest(model), param_count(model)
        manifest = run.call(cp.load_manifest, manifest_path)
        _, vocab, chunks = run.call(cp.load_corpus, manifest, heuristic_types=True)
        data = run.call(cp.encode_chunks, chunks, model.vocab or vocab)
        labels = run.call(gm.hard_labels, model, data)
        cluster = run.call(ev.clustering_accuracy, labels, [c.level_type for c in chunks], model.config.k)
        _write_json(os.path.join(workdir, "cluster.json"), cluster.to_dict())
        out["cluster"] = cluster.to_dict()
        del data, chunks, model

        if run.trace:  # eval-disentangle
            _, model, _ = run.timed("load_s", ck.load_any, path)
            rng = np.random.default_rng([seed, 6])
            report = run.timed("disentangle_s", ev.disentanglement, functools.partial(gm.generate, model),
                               model.config.k, model.vocab, rng, n_per_component=self.probe_n,
                               n_train=self.probe_train)
            _write_json(os.path.join(workdir, "disentangle.json"), report.to_dict())
            out["report"] = report
            del model

        # eval-playability, on the model's samples and on corpus chunks per level type
        _, model, _ = run.timed("load_s", ck.load_any, path)
        manifest = run.call(cp.load_manifest, manifest_path)
        rules = run.call(pl.rules_from_manifest, manifest)
        missing = [c for c in model.vocab.chars if c not in rules.solidity]
        run.gate("solidity_covers_vocab", not missing, f"missing {missing}")
        rng = np.random.default_rng([seed, 7])
        pools = state["by_type"]

        def corpus_chunks(component, n, rng):
            pool = pools[component]
            return [pool[i] for i in rng.integers(len(pool), size=n)]

        suites, seconds = [], []
        for generate_fn, k in ((functools.partial(gm.generate, model), model.config.k), (corpus_chunks, len(pools))):
            t0 = time.perf_counter()
            suites.append(run.call(pl.playability_suite, generate_fn, k, rules, model.vocab, rng,
                                   total_budget=self.play_budget))
            seconds.append(time.perf_counter() - t0)
        run.measures["play_chunks_per_s"].append(sum(r.total for r in suites) / sum(seconds))
        # per generator (model samples, corpus chunks), generation included;
        # the first unit's figures
        run.info["playable_share"] = [round(r.fraction, 4) for r in suites]
        run.info.setdefault("playability_ms_per_chunk", [round(1e3 * t / r.total, 4) for t, r in zip(seconds, suites)])
        _write_json(os.path.join(workdir, "playability.json"), [s.to_dict() for s in suites])
        out["playability"] = [s.to_dict() for s in suites]
        del model

        # densities on generated chunks
        _, model, _ = run.timed("load_s", ck.load_any, path)
        rng = np.random.default_rng([seed, 8])
        groups = [run.call(gm.generate, model, i, self.density_n, rng) for i in range(model.config.k)]
        matrix = run.call(ev.tile_densities, groups, model.vocab)
        with open(os.path.join(workdir, "densities.csv"), "w") as f:
            f.write(matrix.to_csv())
        out["densities"] = matrix.to_csv()
        return out

    def check(self, run, state, out):
        run.gate("round_trip", out["loaded_sha256"] == state["ckpt_sha256"],
                 "loaded parameters differ from the saved model")
        acc = out["cluster"]["balanced_accuracy"]
        run.gate("cluster_accuracy_range", 0.0 <= acc <= 1.0, f"balanced accuracy {acc}")
        if "report" in out:
            check_disentanglement(run, out["report"])
        check_astar(run, state["chunks"], state["rules"], state["vocab"], state["seed"])
        run.info["balanced_accuracy"] = acc
        run.info["params_sha256"] = state["ckpt_sha256"]

    def digest(self, out):
        results = {k: out[k] for k in ("cluster", "playability", "densities")}
        if "report" in out:
            results["report"] = out["report"].to_dict()
        results["params"] = out["loaded_sha256"]
        return hashlib.sha256(json.dumps(results, sort_keys=True).encode()).hexdigest()

    def params(self, out):
        return out["params"]


def _write_json(path, payload):
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")


WORKLOADS = {w.name: w for w in (TrainSmb(), BaselineKi(), EvalSmb())}
