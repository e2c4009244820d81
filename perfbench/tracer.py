"""Span tracer that wraps levelmix's public functions from outside the package.

Each wrapper is installed at the name its callers look up (a module global
such as `levelmix.gmvae.decode`, or a class attribute such as
`DenseNet.backward`), so no file under src/ changes. Spans are kept in memory
as [name, layer, parent, start, end, attrs] and written out by `dump`. A span's
self time is its duration minus the durations of its direct children; calls
are strictly nested because levelmix is single-threaded.
"""

from __future__ import annotations

import functools
import json
import math
import os
import statistics
import time
import weakref
from collections import defaultdict

import numpy as np

NAME, LAYER, PARENT, START, END, ATTRS = range(6)

# model networks are reported in these groups; "probe" is the disentanglement MLP
NET_GROUPS = {
    "label_net": "label_net",
    "encoder_trunk": "encoder_trunk",
    "decoder": "decoder",
    "enc_mean_head": "enc_heads",
    "enc_var_head": "enc_heads",
    "prior_mean_net": "prior_nets",
    "prior_var_net": "prior_nets",
}
NETS = ("label_net", "encoder_trunk", "decoder", "enc_heads", "prior_nets", "probe")


class _JsonProxy:
    """Stands in for the json module inside levelmix.checkpoints."""

    def __init__(self, module):
        self.load, self.loads, self._module = module.load, module.loads, module

    def __getattr__(self, attr):
        return getattr(self._module, attr)


class Tracer:
    def __init__(self):
        self.spans = []
        self.overhead_s = 0.0  # time in the wrappers outside the wrapped calls
        self._stack = []
        self._patches = []
        self._nets = {}  # id(net) -> (weakref, group)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()

    # -- recording ---------------------------------------------------------

    def _wrap(self, owner, attr, layer, attrs_fn=None, name=None, model=None):
        """Replace owner.attr with a span-recording wrapper. `model(args)`,
        when given, names the model whose networks are registered before the
        call; `attrs_fn(args, kwargs, result)` adds attributes after it."""
        original = getattr(owner, attr)
        name = name or f"{layer}.{attr}"
        spans, stack = self.spans, self._stack

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            entered = time.perf_counter()
            if model is not None:
                self._register(model(args))
            span = [name, layer, stack[-1] if stack else -1, 0.0, 0.0, None]
            spans.append(span)
            stack.append(len(spans) - 1)
            span[START] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            if attrs_fn is not None:
                span[ATTRS] = attrs_fn(args, kwargs, result)
            self.overhead_s += time.perf_counter() - span[END] + span[START] - entered
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def _register(self, model):
        for net_name, net in model.networks().items():
            self._nets[id(net)] = (weakref.ref(net), NET_GROUPS[net_name])

    def _net_group(self, net):
        parent = self._stack[-1] if self._stack else -1
        while parent >= 0:
            if self.spans[parent][NAME] == "evaluation.train_probe":
                return "probe"
            parent = self.spans[parent][PARENT]
        ref, group = self._nets.get(id(net), (None, None))
        return group if ref is not None and ref() is net else "other"

    def install(self):
        """Wrap the public entry points of the levelmix modules."""
        from levelmix import baseline as bl
        from levelmix import checkpoints as ck
        from levelmix import corpus as cp
        from levelmix import evaluation as ev
        from levelmix import gmvae as gm
        from levelmix import neuralnet as nn
        from levelmix import playability as pl

        def first(args):
            return args[0]

        # neuralnet: nets are named by identity, flops and bytes come from shapes
        def forward_attrs(args, kwargs, result):
            net, x = args[0], np.asarray(args[1])
            rows = x.shape[0] if x.ndim > 1 else 1
            flops = sum(2 * rows * lay.in_dim * lay.out_dim for lay in net.layers)
            return {"net": self._net_group(net), "flops": flops}

        def backward_attrs(args, kwargs, result):
            net, cache = args[0], args[1]
            a_in = cache[0][0]
            rows = a_in.shape[0] if a_in.ndim > 1 else 1
            flops = sum(4 * rows * lay.in_dim * lay.out_dim for lay in net.layers)
            return {"net": self._net_group(net), "flops": flops}

        def adam_attrs(args, kwargs, result):
            net = args[1]
            params = net.param_arrays()
            return {
                "net": self._net_group(net),
                # four reads (p, g, m, v) and three writes (p, m, v) per parameter
                "bytes": 7 * sum(p.nbytes for p in params),
            }

        self._wrap(nn.DenseNet, "forward_cached", "neuralnet", forward_attrs, "neuralnet.forward")
        self._wrap(nn.DenseNet, "backward", "neuralnet", backward_attrs, "neuralnet.backward")
        self._wrap(nn.AdamState, "step", "neuralnet", adam_attrs, "neuralnet.adam")
        for fn in ("bce_loss", "kl_diag", "sample_gumbel", "gumbel_softmax", "gumbel_softmax_backward"):
            self._wrap(nn, fn, "neuralnet")

        # gmvae
        self._wrap(gm, "build_model", "gmvae")
        self._wrap(gm, "train", "gmvae", model=first)
        self._wrap(gm, "training_step", "gmvae", model=first)
        self._wrap(gm, "hard_labels", "gmvae", model=first)
        self._wrap(gm, "generate", "gmvae", lambda a, k, r: {"chunks": len(r)}, model=first)
        self._wrap(gm, "decode", "corpus", name="corpus.decode")

        # baseline: train_vae builds its own model, so its nets register on
        # every loss call
        self._wrap(bl, "train_vae", "baseline")
        self._wrap(bl, "vae_loss_and_grads", "baseline", model=first)
        self._wrap(bl, "vae_encode", "baseline", name="baseline.encode", model=first)
        self._wrap(bl, "pca_fit", "baseline", lambda a, k, r: {"axes": int(r.m)})
        self._wrap(bl, "gmm_fit", "baseline")
        self._wrap(bl, "_em_run", "baseline", lambda a, k, r: {"iters": len(r.log_likelihood_trace)}, "baseline.em_run")
        self._wrap(bl, "fit_vae_gmm", "baseline")

        # checkpoints: the json module is replaced, for checkpoints only, by a
        # proxy whose parse functions are wrapped, so parses per load are counted
        def size_attrs(args, kwargs, result):
            return {"bytes": os.path.getsize(args[0])}

        self._wrap(ck, "save_gmvae", "checkpoints", size_attrs)
        self._wrap(ck, "save_vae_gmm", "checkpoints", size_attrs)
        self._wrap(ck, "load_any", "checkpoints", size_attrs)
        self._patches.append((ck, "json", ck.json))
        ck.json = _JsonProxy(ck.json)
        self._wrap(ck.json, "load", "checkpoints", name="checkpoints.json_parse")
        self._wrap(ck.json, "loads", "checkpoints", name="checkpoints.json_parse")

        # evaluation
        self._wrap(ev, "disentanglement", "evaluation")
        self._wrap(ev, "train_probe", "evaluation")
        self._wrap(ev, "one_hot_encode", "evaluation")
        self._wrap(ev, "clustering_accuracy", "evaluation")
        self._wrap(ev, "tile_densities", "evaluation")

        # playability: one span per A* search, tagged with its outcome
        self._wrap(pl, "crossable", "playability", lambda a, k, r: {"ok": bool(r[0])})
        self._wrap(
            pl, "playability_suite", "playability",
            lambda a, k, r: {"playable": r.playable_count, "total": r.total},
        )

        # corpus
        self._wrap(cp, "load_corpus", "corpus")
        self._wrap(cp, "encode_chunks", "corpus")

    def remove(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def dump(path, header, phases):
    """Write the header and then every span of each (phase, tracer) as JSON lines."""
    with open(path, "w") as f:
        f.write(json.dumps(header, sort_keys=True) + "\n")
        for phase, tracer in phases:
            for i, s in enumerate(tracer.spans):
                f.write(json.dumps({
                    "phase": phase, "id": i, "name": s[NAME], "layer": s[LAYER], "parent": s[PARENT],
                    "start": s[START], "end": s[END], "attrs": s[ATTRS],
                }) + "\n")


# -- per-layer metrics -------------------------------------------------------

MS = 1e3


def _self_times(spans):
    children = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            children[s[PARENT]] += s[END] - s[START]
    return [s[END] - s[START] - c for s, c in zip(spans, children)]


def _ratio(num, den):
    return num / den if den else 0.0


def _quantile(values, q):
    """Nearest-rank quantile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _under(spans, i, name):
    parent = spans[i][PARENT]
    while parent >= 0:
        if spans[parent][NAME] == name:
            return True
        parent = spans[parent][PARENT]
    return False


def layer_metrics(setup_spans, spans, traced_wall_s, overhead_s):
    """Per-layer metrics of one traced unit as {name: (value, unit)}.

    Times are totals over the unit in ms unless the name says per chunk or
    gives a percentile; a layer the workload does not call reports 0.
    """
    own = _self_times(spans)
    total = defaultdict(float)  # span name -> inclusive seconds
    self_total = defaultdict(float)  # span name -> self seconds
    count = defaultdict(int)
    net_time = defaultdict(float)  # (kind, net) -> seconds
    flops = adam_bytes = matmul_s = adam_s = 0.0
    chunks_generated = playable = attempted_play = em_iters = probe_steps = 0
    crossable = {True: [], False: []}
    parses_in_loads = pca_axes = 0
    save_bytes = load_bytes = 0
    for i, s in enumerate(spans):
        name, dur, attrs = s[NAME], s[END] - s[START], s[ATTRS] or {}
        total[name] += dur
        self_total[name] += own[i]
        count[name] += 1
        if name in ("neuralnet.forward", "neuralnet.backward", "neuralnet.adam"):
            kind = name.split(".")[1]
            net_time[kind, attrs["net"]] += own[i]
            if kind == "adam":
                adam_bytes += attrs["bytes"]
                adam_s += own[i]
                probe_steps += attrs["net"] == "probe"
            else:
                flops += attrs["flops"]
                matmul_s += own[i]
        elif name == "gmvae.generate":
            chunks_generated += attrs["chunks"]
        elif name == "playability.crossable":
            crossable[attrs["ok"]].append(dur * MS)
        elif name == "playability.playability_suite":
            playable += attrs["playable"]
            attempted_play += attrs["total"]
        elif name == "baseline.em_run":
            em_iters += attrs["iters"]
        elif name == "baseline.pca_fit":
            pca_axes = attrs["axes"]
        elif name == "checkpoints.json_parse":
            parses_in_loads += _under(spans, i, "checkpoints.load_any")
        elif name.startswith("checkpoints.save"):
            save_bytes += attrs["bytes"]
        elif name == "checkpoints.load_any":
            load_bytes += attrs["bytes"]

    per_call = defaultdict(list)  # corpus loading also runs during set-up
    for s in list(setup_spans) + list(spans):
        per_call[s[NAME]].append((s[END] - s[START]) * MS)

    m = {}
    for kind in ("forward", "backward", "adam"):
        for net in NETS:
            m[f"{kind}_ms.{net}"] = (net_time[kind, net] * MS, "ms")
    m["loss_ms"] = ((self_total["neuralnet.bce_loss"] + self_total["neuralnet.kl_diag"]) * MS, "ms")
    m["gumbel_ms"] = (
        sum(self_total[f"neuralnet.{f}"] for f in ("sample_gumbel", "gumbel_softmax", "gumbel_softmax_backward")) * MS,
        "ms",
    )
    m["adam_gbps"] = (_ratio(adam_bytes, adam_s) / 1e9, "GB/s")
    m["matmul_gflops"] = (_ratio(flops, matmul_s) / 1e9, "GFLOP/s")

    m["step_self_ms"] = (self_total["gmvae.training_step"] * MS, "ms")
    m["steps"] = (count["gmvae.training_step"] + count["baseline.vae_loss_and_grads"], "count")
    m["generate_ms_per_chunk"] = (_ratio(total["gmvae.generate"] * MS, chunks_generated), "ms")
    m["hard_labels_ms"] = (total["gmvae.hard_labels"] * MS, "ms")

    m["vae_step_self_ms"] = ((self_total["baseline.train_vae"] + self_total["baseline.vae_loss_and_grads"]) * MS, "ms")
    m["encode_ms"] = (total["baseline.encode"] * MS, "ms")
    m["pca_fit_ms"] = (total["baseline.pca_fit"] * MS, "ms")
    m["gmm_fit_ms"] = (total["baseline.gmm_fit"] * MS, "ms")
    m["em_iters"] = (em_iters, "count")
    m["pca_axes"] = (pca_axes, "count")

    save_s = total["checkpoints.save_gmvae"] + total["checkpoints.save_vae_gmm"]
    m["save_mb_per_s"] = (_ratio(save_bytes / 1e6, save_s), "MB/s")
    m["load_mb_per_s"] = (_ratio(load_bytes / 1e6, total["checkpoints.load_any"]), "MB/s")
    m["json_parses_per_load"] = (_ratio(parses_in_loads, count["checkpoints.load_any"]), "count")

    m["probe_ms"] = (total["evaluation.train_probe"] * MS, "ms")
    m["probe_steps"] = (probe_steps, "count")
    m["one_hot_ms_per_chunk"] = (
        _ratio(total["evaluation.one_hot_encode"] * MS, count["evaluation.one_hot_encode"]), "ms",
    )
    m["cluster_ms"] = (total["evaluation.clustering_accuracy"] * MS, "ms")
    m["densities_ms"] = (total["evaluation.tile_densities"] * MS, "ms")

    for q in (50, 90):
        for ok, label in ((True, "playable"), (False, "unplayable")):
            m[f"crossable_ms_p{q}.{label}"] = (_quantile(crossable[ok], q / 100), "ms")
    m["playable"] = (playable, "count")
    m["total"] = (attempted_play, "count")

    m["decode_ms_per_chunk"] = (_ratio(total["corpus.decode"] * MS, count["corpus.decode"]), "ms")
    for name in ("load_corpus", "encode_chunks"):
        calls = per_call[f"corpus.{name}"]
        m[f"{name}_ms"] = (statistics.median(calls) if calls else 0.0, "ms")

    # how much of the training call the step spans explain
    train_s = total["gmvae.train"] + total["baseline.train_vae"]
    steps_s = sum(
        s[END] - s[START]
        for s in spans
        if s[PARENT] >= 0 and spans[s[PARENT]][NAME] in ("gmvae.train", "baseline.train_vae")
    )
    m["train_span_coverage"] = (_ratio(steps_s, train_s), "ratio")
    # share of the traced unit inside top-level spans
    roots = sum(s[END] - s[START] for s in spans if s[PARENT] < 0)
    m["trace_coverage"] = (_ratio(roots, traced_wall_s), "ratio")
    m["trace_overhead_s"] = (overhead_s, "s")
    return m


# counts made by the tracer or derived from array sizes, not timed
COMPUTED = (
    "params", "adam_gbps (bytes)", "matmul_gflops (flops)", "json_parses_per_load",
    "probe_steps", "em_iters", "pca_axes", "steps", "playable", "total",
)
