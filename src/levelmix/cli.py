"""Command-line pipeline: build-manifest, ingest, train, train-baseline,
generate, encode, eval-cluster, eval-disentangle, eval-playability,
densities, chart, sweep, compare.

Every command that trains (train, train-baseline, sweep and compare) goes
through _runs: it makes every refusal before any run trains, reads the
corpus once, and gives the one train(family, k, seed) of the CLI, which
drives one TrainingRun per model an epoch at a time.

train and train-baseline write model.ckpt (where --checkpoint-every also
saves), history.csv and run.json in --out-dir, and chart component_NN.svg and
run.json; every other command writes --out, and a CSV or text --out gets a
sidecar <out>.run.json. Every artifact records the resolved command, flags,
seed and package version (run_info, inline in a checkpoint or JSON report),
with the BLAS thread setting and the usable CPU count, so a run can be
reproduced exactly. Every file is written through ckpt.replacing, so a failed
write keeps the previous file, and no command writes over its own input
(_check_outputs). Exit codes: 0 success, 1 usage error or MemoryError, 2 data
error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import os
import re
import sys
import time

import numpy as np

from . import __version__
from . import baseline as bl
from . import charts
from . import checkpoints as ckpt
from . import corpus as cp
from . import evaluation as ev
from . import gmvae as gm
from . import neuralnet as nn
from . import playability as pl
from . import vglc
from .errors import (
    DataError,
    InvalidConfig,
    LevelMixError,
    MissingLabels,
    NumericError,
    UsageError,
)

DEFAULT_SEED = 42
FAMILIES = ("gmvae", "vae-gmm")
# the names a training run writes in its --out-dir
MODEL, HISTORY, RUN_JSON = "model.ckpt", "history.csv", "run.json"
# as regular expressions, those and chart's: run.json and the names
# f"component_{i:02d}.svg" gives
_RUN_FILES = "|".join(map(re.escape, (MODEL, HISTORY, RUN_JSON)))
_CHART_FILES = r"component_(\d\d|[1-9]\d\d+)\.svg|" + re.escape(RUN_JSON)


def _run_info(command, args):
    flags = {k: v for k, v in vars(args).items() if k != "func"}
    return {
        "command": command,
        "flags": flags,
        "seed": flags.get("seed"),
        "version": __version__,
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        # macOS and Windows have no sched_getaffinity: there, the machine's CPUs
        "cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
    }


def _json(payload):
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _write(path, text, args=None):
    """Write text to path through ckpt.replacing and, given args, the
    command's run_info to the sidecar <path>.run.json."""
    with ckpt.replacing(path) as f:
        f.write(text.encode("utf-8"))
    if args is not None:
        _write(path + ".run.json", _json(_run_info(args.command, args)))


def _out_file(args, name):
    """The path of name in --out-dir, which is made at the command's first write."""
    os.makedirs(args.out_dir, exist_ok=True)
    return os.path.join(args.out_dir, name)


def _save_report(args, report):
    """The --out JSON artifact: the command's run_info and the report."""
    _write(args.out, _json({"run_info": _run_info(args.command, args), "report": report.to_dict()}))


def _list(text, flag, choices=None):
    """The entries of a comma-separated list flag (--k-list, --seeds,
    --families): integers, or names drawn from choices. An empty list, an
    entry of neither kind or a repeated entry, which would train and count
    the same run twice, is a UsageError naming flag."""
    entries = [v.strip() for v in text.split(",") if v.strip()]
    try:
        values = entries if choices else [int(v) for v in entries]
    except ValueError:
        values = []
    if not values or (choices and not set(values) <= set(choices)):
        kind = f"names drawn from {','.join(choices)}" if choices else "integers"
        raise UsageError(f"{flag} must be a non-empty comma-separated list of {kind}, got {text!r}")
    repeated = next((v for i, v in enumerate(values) if v in values[:i]), None)
    if repeated is not None:
        raise UsageError(f"{flag} lists {repeated} more than once, got {text!r}")
    return values


def period(text):
    """The epochs of --log-every or --checkpoint-every, refused below 1 as the flags are parsed."""
    if int(text) < 1:
        raise InvalidConfig(f"--log-every and --checkpoint-every take at least 1 epoch, got {text}")
    return int(text)


def _at_least(values, low, flag):
    """values, or an InvalidConfig naming flag if one of them is below low."""
    if min(values) < low:
        raise InvalidConfig(f"{flag} takes values of at least {low}, got {min(values)}")
    return values


def seed(text):
    """A --seed, refused below 0 as the flag is parsed: numpy seeds no generator with a negative value."""
    return _at_least([int(text)], 0, "--seed")[0]


def count(text):
    """A chunk count (--n, --n-per-component, --n-train, --budget), refused
    above gm.MAX_SIZE as the flag is parsed, before any array is sized from
    it; the commands check its lower bound."""
    value = int(text)
    if value > gm.MAX_SIZE:
        raise InvalidConfig(f"--n, --n-per-component, --n-train and --budget take at most {gm.MAX_SIZE}, got {value}")
    return value


# the config fields a training command sets itself, not from a flag of
# the same name: d from the corpus, k and rng_seed from its own flags
_SET_BY_COMMAND = ("d", "k", "rng_seed")


def _config(family, args, k, rng_seed):
    """The validated config template of a family's model, a GmvaeConfig with
    k components for a gmvae and a VaeConfig (which has no k) for a vae-gmm:
    each field from the flag of the same name, except the fields the command
    sets itself. d, which the corpus gives, is 1 until _runs' train sets it,
    so a flag no run can train with is refused before the corpus is read."""
    cls, set_by_command = (gm.GmvaeConfig, {"k": k}) if family == "gmvae" else (bl.VaeConfig, {})
    flags = {f.name: getattr(args, f.name) for f in dataclasses.fields(cls) if f.name not in _SET_BY_COMMAND}
    return cls(**flags, d=1, rng_seed=rng_seed, **set_by_command).validate()


def _load_model(args):
    """The model in the --model checkpoint. Both families offer k,
    generate, predict and encode, so no command asks which family it is."""
    _, model, _ = ckpt.load_any(args.model)
    return model


def _corpus(args, model=None):
    """(vocab, chunks, data) of the --manifest corpus: data is
    encode_chunks' uint8 one-hot matrix, whatever --dtype, which sets only a
    model's dtype. Given a model, each level is cut in its vocab (a tile the
    vocab lacks is a DataError naming it); the model ignores set columns
    outside its support, and a warning on stderr counts them."""
    _, vocab, chunks = cp.load_corpus(cp.load_manifest(args.manifest), vocab=getattr(model, "vocab", None))
    data = cp.encode_chunks(chunks, vocab)
    if model is not None:
        outside = np.setdiff1d(np.flatnonzero(data.any(axis=0)), model.support).size
        if outside:
            print(f"warning: {outside} set one-hot columns are outside the model's support and are ignored", file=sys.stderr)
    return vocab, chunks, data


def _level_types(args, chunks):
    """Each chunk's level type, for a command that scores a clustering or
    draws balanced batches. Types come from the manifest alone, so a level
    without one is a MissingLabels naming the manifest and the level, raised
    before any run trains or any file is written."""
    untyped = next((c.level_id for c in chunks if c.level_type is None), None)
    if untyped is not None:
        raise MissingLabels(f'{args.manifest}: level {untyped} has no "type"; clustering scores and balanced draws need one per level')
    return [c.level_type for c in chunks]


def _ingest(manifest):
    """Print the corpus summary of a DatasetManifest; returns (summary, vocab, chunks)."""
    levels, vocab, chunks = cp.load_corpus(manifest)
    summary = {
        "game": manifest.game,
        "levels": len(levels),
        "vocab_size": vocab.size,
        "vocab": "".join(vocab.chars),
        "d": cp.CHUNK_SIZE * cp.CHUNK_SIZE * vocab.size,
        "chunks": len(chunks),
    }
    print(json.dumps(summary, indent=2))
    return summary, vocab, chunks


def cmd_ingest(args):
    _, vocab, chunks = _ingest(cp.load_manifest(args.manifest))
    if args.out:
        _write(args.out, cp.chunk_dump(chunks, vocab), args)
    return 0


def cmd_build_manifest(args):
    manifest = vglc.build_manifest(
        args.corpus_root, args.game, levels_dir=args.levels_dir, heuristic_types=not args.no_heuristic_types
    )
    # loaded before anything is written, so a corpus that fails leaves no file
    summary, _, _ = _ingest(cp.manifest_from_json(manifest, args.out))
    _write(args.out, json.dumps(manifest, indent=2), args)
    # a corpus that differs from the published figures is reported, not refused
    for delta in vglc.check_against_reference(args.game, summary["vocab_size"], summary["d"], summary["chunks"]):
        print(f"warning: {delta}", file=sys.stderr)
    return 0


def _runs(args, runs, typed=False):
    """The run driver of train, train-baseline, sweep and compare, given
    their (family, k, seed) runs. Before any run trains it validates each
    run's config, reads the corpus once, asks _level_types if typed or the
    sampler is balanced, and checks the largest vae-gmm k against the chunk
    count. Returns (data, level_types, train): train(family, k, seed) trains
    one TrainingRun, with train's --log-every line and --checkpoint-every
    save of the gmvae (without run_info), fits a vae-gmm's mixture seeded
    with seed (baseline.fit_pca_gmm), and returns (model, history)."""
    configs = {(family, k, seed): _config(family, args, k, seed) for family, k, seed in runs}
    vocab, chunks, data = _corpus(args)
    level_types = _level_types(args, chunks) if typed or args.sampler == "balanced" else None
    gmm_ks = [k for family, k, _ in runs if family == "vae-gmm"]
    if gmm_ks:
        bl.check_gmm_k(max(gmm_ks), len(data))
    log_every, save_every = getattr(args, "log_every", None), getattr(args, "checkpoint_every", None)

    def train(family, k, seed):
        config = dataclasses.replace(configs[family, k, seed], d=data.shape[1])
        model = gm.build_model(config, vocab) if family == "gmvae" else bl.VaeModel(config, vocab)
        run = gm.TrainingRun(model, data, level_types, args.sampler)
        while run.epoch < config.epochs:
            recon, kl, total, tau = run.train_epoch()
            if log_every and run.epoch % log_every == 0:
                print(f"epoch {run.epoch}/{config.epochs} recon={recon:.4f} kl={kl:.4f} total={total:.4f} tau={tau:.3f}")
            if save_every and run.epoch % save_every == 0:
                ckpt.save_gmvae(_out_file(args, MODEL), model, run.history)
        if family == "vae-gmm":
            model = bl.fit_pca_gmm(model, data, k, gmm_seed=seed)
        return model, run.history

    return data, level_types, train


def cmd_train(args):
    """train (a gmvae) and train-baseline (a vae-gmm), each a run written to --out-dir."""
    family = "gmvae" if args.command == "train" else "vae-gmm"
    if family == "vae-gmm":
        _at_least([args.k], 1, "--k")  # a GmvaeConfig bounds its own k
    run = (family, args.k, args.seed)
    _, _, train = _runs(args, [run])
    model, history = train(*run)
    path, run_info = _out_file(args, MODEL), _run_info(args.command, args)
    save = ckpt.save_gmvae if family == "gmvae" else ckpt.save_vae_gmm
    save(path, model, history, run_info=run_info)
    _write(_out_file(args, HISTORY), ckpt.history_to_csv(history))
    _write(_out_file(args, RUN_JSON), _json(run_info))
    detail = f"{len(history)} epochs" if family == "gmvae" else f"pca kept {model.pca.m} axes"
    print(f"saved {path} ({detail})")
    return 0


def cmd_generate(args):
    model = _load_model(args)
    chunks = model.generate(args.component, args.n, np.random.default_rng(args.seed))
    rendered = ["\n".join(cp.chunk_to_lines(c, model.vocab)) for c in chunks]
    text = ("\n\n").join(rendered) + "\n"
    if args.out:
        _write(args.out, text, args)
    else:
        print(text, end="")
    return 0


def cmd_encode(args):
    model = _load_model(args)
    _, chunks, data = _corpus(args, model)
    indices = np.arange(len(chunks))
    if args.balanced:
        indices = cp.BalancedSampler(_level_types(args, chunks), args.seed).draw(len(chunks))
    latents, labels = model.encode(data[indices])
    picked = [chunks[i] for i in indices]
    ids = [f"{c.level_id}:{c.offset[0]}:{c.offset[1]}" for c in picked]
    _write(args.out, ev.export_latents(ids, [c.level_type for c in picked], labels, latents), args)
    print(f"wrote {len(ids)} rows to {args.out}")
    return 0


def cmd_eval_cluster(args):
    model = _load_model(args)
    _, chunks, data = _corpus(args, model)
    level_types = _level_types(args, chunks)
    report = ev.clustering_accuracy(model.predict(data), level_types, model.k)
    _save_report(args, report)
    print(f"balanced accuracy {report.balanced_accuracy:.4f} -> {args.out}")
    return 0


def cmd_eval_disentangle(args):
    model = _load_model(args)
    report = ev.disentanglement(
        model.generate,
        model.k,
        model.vocab,
        np.random.default_rng(args.seed),
        n_per_component=args.n_per_component,
        n_train=args.n_train,
    )
    _save_report(args, report)
    print(
        f"p70={report.p70:.3f} p80={report.p80:.3f} p90={report.p90:.3f} -> {args.out}"
    )
    return 0


def cmd_eval_playability(args):
    model = _load_model(args)
    manifest = cp.load_manifest(args.manifest)
    rules = pl.rules_from_manifest(manifest)
    missing = [c for c in model.vocab.chars if c not in rules.solidity]
    if missing:
        raise DataError(f"solidity map misses vocab tiles {missing!r}")
    result = pl.playability_suite(
        model.generate,
        model.k,
        rules,
        model.vocab,
        np.random.default_rng(args.seed),
        total_budget=args.budget,
    )
    _save_report(args, result)
    print(f"playable {result.playable_count}/{result.total} = {result.fraction:.4f} -> {args.out}")
    return 0


def _density_groups(args, model):
    if args.source == "generated":
        rng = np.random.default_rng(args.seed)
        return [model.generate(i, args.n_per_component, rng) for i in range(model.k)]
    _, chunks, data = _corpus(args, model)
    groups = [[] for _ in range(model.k)]
    for chunk, lab in zip(chunks, model.predict(data)):
        groups[int(lab)].append(chunk)
    return groups


def cmd_densities(args):
    if args.source == "corpus" and not args.manifest:
        raise UsageError("--source corpus needs --manifest")
    if args.source == "generated" and args.manifest:
        raise UsageError("--source generated reads no --manifest")
    model = _load_model(args)
    matrix = ev.tile_densities(_density_groups(args, model), model.vocab)
    _write(args.out, matrix.to_csv(), args)
    print(f"wrote {matrix.k} x {len(matrix.tile_chars)} density matrix to {args.out}")
    return 0


def _matrix_from_csv(path):
    """The TileDensityMatrix of a densities CSV: a header row, then one row
    per component of a density in [0, 1] per tile, or of nan only for a
    component without chunks. A file it cannot read is a DataError that
    names it, and a density out of range one that names its cell."""
    try:
        with open(path, encoding="utf-8", newline="") as f:
            header, *rows = csv.reader(f)
        values = [[float(v) for v in row[1:]] for row in rows]
    except (ValueError, csv.Error) as exc:  # UnicodeDecodeError is a ValueError
        raise DataError(f"{path}: not a densities CSV: {exc}") from None
    if any(len(row) != len(header) for row in rows):
        raise DataError(f"{path}: not a densities CSV: a row's length differs from the header's")
    values = np.array(values).reshape(len(rows), len(header[1:]))
    # nan and inf fail both comparisons; a row of nan only is an empty component's
    bad = ~((values >= 0) & (values <= 1)) & ~np.isnan(values).all(axis=1, keepdims=True)
    if bad.any():
        i, j = np.argwhere(bad)[0] + (0, 1)
        raise DataError(f"{path}: density {rows[i][j]!r} of component {rows[i][0]!r}, tile {header[j]!r} is not in [0, 1]")
    return ev.TileDensityMatrix(values=values, tile_chars=header[1:], k=len(values))


def cmd_chart(args):
    documents = charts.emit_radial_charts(_matrix_from_csv(args.densities))
    for i, doc in enumerate(documents):
        if doc is not None:
            _write(_out_file(args, f"component_{i:02d}.svg"), doc)
    _write(_out_file(args, RUN_JSON), _json(_run_info("chart", args)))
    skipped = [i for i, doc in enumerate(documents) if doc is None]
    print(f"wrote {len(documents) - len(skipped)} charts to {args.out_dir}")
    if skipped:
        print(f"skipped components {skipped}: their density rows are nan (no chunks)")
    return 0


def cmd_sweep(args):
    k_list = _at_least(_list(args.k_list, "--k-list"), 1, "--k-list")
    families = _list(args.families, "--families", FAMILIES)
    ev.check_probe_split(args.n_per_component, args.n_train)
    runs = [(family, k, args.seed) for family in families for k in k_list]
    _, _, train = _runs(args, runs)
    rows = []
    for family, k, seed in runs:
        model, _ = train(family, k, seed)
        report = ev.disentanglement(
            model.generate, k, model.vocab, np.random.default_rng(seed + k),
            n_per_component=args.n_per_component, n_train=args.n_train,
        )
        rows.append((family, k, report.p70, report.p80, report.p90))
        print(f"{family} k={k}: p70={report.p70:.3f} p80={report.p80:.3f} p90={report.p90:.3f}")
    text = io.StringIO()
    csv.writer(text).writerows([("family", "k", "p70", "p80", "p90"), *rows])
    _write(args.out, text.getvalue(), args)
    return 0


def cmd_compare(args):
    seeds = _at_least(_list(args.seeds, "--seeds"), 0, "--seeds")
    runs = [(family, args.k, seed) for seed in seeds for family in FAMILIES]
    data, level_types, train = _runs(args, runs, typed=True)
    result = ev.ComparisonResult()
    for family, k, seed in runs:
        t0 = time.perf_counter()
        model, _ = train(family, k, seed)
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
        result.runs.append(ev.ComparisonRun(seed, family, acc, share, mean_max_p, (time.perf_counter() - t0) / 60))
        print(f"{family} seed={seed}: balanced accuracy {acc:.3f}, largest share {share:.3f}")
    _save_report(args, result)
    medians = f"gmvae {result.median('gmvae'):.3f}, vae-gmm {result.median('vae-gmm'):.3f}"
    print(f"median balanced accuracy: {medians} -> {args.out}")
    return 0


def _add_model_flags(p, cls):
    """The corpus and sampler flags of a command that trains, and one
    flag per field of the config `cls` (VaeConfig, or GmvaeConfig for the
    mixture fields too) but those the command sets itself. A flag takes its
    field's name, default and the default's type; a None default is a
    float. Each command adds its own seed flag: compare takes a list of
    seeds."""
    p.add_argument("--manifest", required=True)
    for f in dataclasses.fields(cls):
        if f.name in _SET_BY_COMMAND:
            continue
        flag = "--" + f.name.replace("_", "-")
        if f.name == "dtype":
            p.add_argument(flag, choices=gm.DTYPES, default=f.default,
                           help="the model's parameters and arithmetic; the corpus stays uint8")
        else:
            p.add_argument(flag, type=float if f.default is None else type(f.default), default=f.default)
    p.add_argument("--sampler", choices=gm.SAMPLERS, default="uniform")


def _add_training_run_flags(p, cls):
    """Flags of a single training run: train and train-baseline."""
    p.add_argument("--k", type=int, required=True, help="mixture component count")
    p.add_argument("--log-every", type=period, default=None)
    p.add_argument("--out-dir", required=True, help="writes model.ckpt, history.csv and run.json here")
    p.add_argument("--seed", type=seed, default=DEFAULT_SEED)
    _add_model_flags(p, cls)


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors are UsageErrors, so they exit 1
    with the one-line JSON error, and which takes no abbreviated flags (a
    short flag would otherwise name whichever flag it prefixes, so compare's
    --seed would be --seeds). Subparsers are of the same class."""

    def __init__(self, *args, **kwargs):
        kwargs.setdefault("allow_abbrev", False)
        super().__init__(*args, **kwargs)

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def build_parser():
    parser = _Parser(
        prog="levelmix",
        description="mixture-prior VAEs over tile-grid level chunks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-manifest", help="write a manifest for one game of a level-corpus checkout")
    p.add_argument("--corpus-root", required=True, help="checkout directory")
    p.add_argument("--game", required=True, choices=sorted(vglc.GAME_DIRS))
    p.add_argument("--out", required=True)
    p.add_argument("--levels-dir", default=None, help="override the level directory")
    p.add_argument("--no-heuristic-types", action="store_true")
    p.set_defaults(func=cmd_build_manifest)

    p = sub.add_parser("ingest", help="parse a corpus and report chunk counts")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", default=None, help="optional chunk dump (JSON lines)")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("train", help="train a mixture-prior model")
    _add_training_run_flags(p, gm.GmvaeConfig)
    p.add_argument("--checkpoint-every", type=period, default=None, help="also save model.ckpt every N epochs")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("train-baseline", help="train the VAE + PCA + GMM pipeline")
    _add_training_run_flags(p, bl.VaeConfig)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("generate", help="sample chunks from one component")
    p.add_argument("--model", required=True)
    p.add_argument("--component", type=int, required=True)
    p.add_argument("--n", type=count, default=6)
    p.add_argument("--seed", type=seed, default=DEFAULT_SEED)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("encode", help="export latent means and hard labels to CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--balanced", action="store_true", help="balanced re-draw before encoding")
    p.add_argument("--seed", type=seed, default=DEFAULT_SEED)
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("eval-cluster", help="balanced clustering accuracy against level types")
    p.add_argument("--model", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval_cluster)

    p = sub.add_parser("eval-disentangle", help="probe-based disentanglement proportions")
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=seed, default=DEFAULT_SEED)
    p.add_argument("--n-per-component", type=count, default=500)
    p.add_argument("--n-train", type=count, default=300)
    p.set_defaults(func=cmd_eval_disentangle)

    p = sub.add_parser(
        "eval-playability", help="playable fraction of generated chunks (a flood over the platformer move model)"
    )
    p.add_argument("--model", required=True)
    p.add_argument("--manifest", required=True, help="supplies solidity map and axis")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=seed, default=DEFAULT_SEED)
    p.add_argument("--budget", type=count, default=10000)
    p.set_defaults(func=cmd_eval_playability)

    p = sub.add_parser("densities", help="per-component normalized tile densities")
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--source", choices=("generated", "corpus"), default="generated")
    p.add_argument("--manifest", default=None)
    p.add_argument("--n-per-component", type=count, default=500)
    p.add_argument("--seed", type=seed, default=DEFAULT_SEED)
    p.set_defaults(func=cmd_densities)

    p = sub.add_parser("chart", help="radial bar chart SVGs from a density CSV")
    p.add_argument("--densities", required=True)
    p.add_argument("--out-dir", required=True, help="writes component_NN.svg and run.json here")
    p.set_defaults(func=cmd_chart)

    p = sub.add_parser("sweep", help="disentanglement proportions over a k grid")
    p.add_argument("--k-list", required=True, help="comma-separated component counts")
    p.add_argument("--families", default="gmvae,vae-gmm")
    p.add_argument("--n-per-component", type=count, default=500)
    p.add_argument("--n-train", type=count, default=300)
    p.add_argument("--seed", type=seed, default=DEFAULT_SEED)
    p.add_argument("--out", required=True)
    _add_model_flags(p, gm.GmvaeConfig)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("compare", help="Experiment 1: clustering accuracy of both families")
    p.add_argument("--k", type=int, default=3, help="mixture component count")
    p.add_argument("--seeds", default="0,1,2", help="comma-separated seeds")
    p.add_argument("--out", required=True)
    _add_model_flags(p, gm.GmvaeConfig)
    p.set_defaults(func=cmd_compare)

    return parser


def _check_outputs(args):
    """Refuse, before any input is read, an output no file can be written to,
    and an input (--model, --manifest, --densities) whose realpath is a name
    the command writes in its output directory's realpath: --out and its
    sidecar, or the --out-dir names above, each also as the <name>.tmp that
    ckpt.replacing renames over it. An --out's directory must exist, and an
    --out-dir, made at the first write, must lie in an existing directory."""
    if getattr(args, "out_dir", None) is not None:
        flag, target = "--out-dir", args.out_dir
        if os.path.exists(target) and not os.path.isdir(target):
            raise DataError(f"--out-dir {target} is a file, not a directory")
        parent, directory = os.path.dirname(os.path.normpath(target)), target
        names = _CHART_FILES if args.command == "chart" else _RUN_FILES
    elif getattr(args, "out", None) is not None:
        flag, target = "--out", args.out
        if os.path.isdir(target or "."):
            raise DataError(f"--out {target} is a directory, not a file")
        parent = directory = os.path.dirname(target)
        names = re.escape(os.path.basename(target)) + r"(\.run\.json)?"
    else:
        return
    if not os.path.isdir(parent or "."):
        raise DataError(f"{flag} {target}: {parent} is not an existing directory")
    for input_flag in ("--model", "--manifest", "--densities"):
        path = getattr(args, input_flag[2:], None)
        if path is None:
            continue
        real_dir, name = os.path.split(os.path.realpath(path))
        if real_dir == os.path.realpath(directory or ".") and re.fullmatch(rf"({names})(\.tmp)?", name):
            raise DataError(f"{input_flag} {path} is {os.path.join(directory, name)}, which {args.command} writes")


def run(argv):
    try:
        args = build_parser().parse_args(argv)
        _check_outputs(args)
        return args.func(args)
    except SystemExit as exc:  # --help
        return 1 if exc.code not in (0, None) else 0
    except (UsageError, MemoryError) as exc:
        _report_error("usage", exc)
        return 1
    except NumericError as exc:
        _report_error("numeric", exc)
        return 3
    except (LevelMixError, OSError) as exc:  # DataError, and any other package error
        _report_error("data", exc)
        return 2


def _report_error(kind, exc):
    print(
        json.dumps({"error": kind, "type": type(exc).__name__, "message": str(exc)}),
        file=sys.stderr,
    )


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
