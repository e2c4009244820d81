import ast
import base64
import contextlib
import io
import json
import os
import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import FUZZ, join_checkpoint, small_gmvae_config, split_checkpoint
from levelmix import baseline as bl
from levelmix import checkpoints as ckpt
from levelmix import cli
from levelmix import gmvae as gm
from levelmix import neuralnet as nn
from levelmix import toygame
from levelmix.errors import DataError, NumericError


def toy_model(family, dtype, toy_setup):
    """A one-epoch toy model of the family, with its history."""
    data = toy_setup["data"][:96]
    if family == "gmvae":
        model = gm.build_model(small_gmvae_config(data.shape[1], dtype=dtype, epochs=1), toy_setup["vocab"])
        return model, gm.train(model, data)
    config = bl.VaeConfig(d=data.shape[1], latent_dim=8, hidden_width=32, epochs=1, rng_seed=3, dtype=dtype)
    return bl.fit_vae_gmm(data, config, 3, gmm_seed=3, vocab=toy_setup["vocab"])


def save(family, path, model, history=None):
    (ckpt.save_gmvae if family == "gmvae" else ckpt.save_vae_gmm)(path, model, history)


def params(model):
    """Every saved array: network weights and biases, then PCA and GMM arrays."""
    nets = getattr(model, "vae", model).networks()
    arrays = [p for net in nets.values() for p in net.param_arrays()]
    if hasattr(model, "pca"):
        arrays += [model.pca.mean, model.pca.axes, model.pca.explained_variance]
        arrays += [model.gmm.weights, model.gmm.means, model.gmm.covariances]
    return arrays


def assert_same_params(saved, loaded):
    a, b = params(saved), params(loaded)
    assert len(a) == len(b)
    for p1, p2 in zip(a, b):
        assert p1.dtype == p2.dtype and p1.shape == p2.shape
        assert p1.tobytes() == p2.tobytes()


def v1_array(array, dtype=np.float64):
    """An array as format 1 wrote it: a nested list of float64."""
    return array.astype(np.float64).tolist()


def v2_array(array, dtype=np.float64):
    """An array as format 2 wrote it: base64 of its little-endian bytes in dtype."""
    a = np.ascontiguousarray(array, dtype=np.dtype(dtype).newbyteorder("<"))
    return {"dtype": a.dtype.str, "shape": list(a.shape), "data": base64.b64encode(a.tobytes()).decode("ascii")}


def old_payload(family, model, history, version, array=None):
    """The model's envelope as format 1, 2 or 4 wrote it: a weight, a bias
    and an activation per layer. Formats 1 and 2 put each array in the JSON
    text; format 4 takes array=_BlobWriter.add, and stores the support."""
    array = array or (v1_array if version == 1 else v2_array)

    def net(n):
        return {
            "layers": [
                {
                    "activation": layer.activation,
                    "weight": array(layer.weight, n.dtype),
                    "bias": array(layer.bias, n.dtype),
                }
                for layer in n.layers
            ]
        }

    vae = getattr(model, "vae", model)
    vocab = model.vocab
    payload = {
        "format": ckpt.FORMAT_GMVAE if family == "gmvae" else ckpt.FORMAT_VAE_GMM,
        "format_version": version,
        "game": vocab.game,
        "config": vars(vae.config),
        "vocab": {"game": vocab.game, "chars": "".join(vocab.chars), "background": vocab.background_char},
        "networks": {name: net(n) for name, n in vae.networks().items()},
        "history": {
            "recon_loss": history.recon_loss,
            "kl_loss": history.kl_loss,
            "label_balance_loss": history.label_balance_loss,
            "total_loss": history.total_loss,
            "temperature": history.temperature,
        },
        "run_info": None,
    }
    if version == 4:
        payload["support"] = vae.support.tolist()
    if family == "vae-gmm":
        payload["pca"] = {
            "mean": array(model.pca.mean),
            "axes": array(model.pca.axes),
            "explained_variance": array(model.pca.explained_variance),
            "total_variance": model.pca.total_variance,
            "m": model.pca.m,
        }
        payload["gmm"] = {
            "weights": array(model.gmm.weights),
            "means": array(model.gmm.means),
            "covariances": array(model.gmm.covariances),
            "log_likelihood_trace": model.gmm.log_likelihood_trace,
        }
    return payload


def format_5_bytes(family, model, history, path):
    """The model as format 5 saved it: format 6's layout under version 5,
    with a decoder that writes all d columns (zero outside the support)."""
    vae = getattr(model, "vae", model)
    narrow, last = vae.decoder, vae.decoder.layers[-1]
    sizes = [layer.in_dim for layer in narrow.layers] + [vae.config.d]
    wide = nn.DenseNet(sizes, [layer.activation for layer in narrow.layers], None, narrow.dtype)
    hidden = narrow.params.size - last.weight.size - last.bias.size
    wide.params[:hidden] = narrow.params[:hidden]
    wide.layers[-1].weight[vae.support] = last.weight
    wide.layers[-1].bias[vae.support] = last.bias
    vae.decoder = wide
    try:
        save(family, path, model, history)
    finally:
        vae.decoder = narrow
    header, data = split_checkpoint(path.read_bytes())
    header["format_version"] = 5
    return join_checkpoint(header, data)


FAMILIES = [("gmvae", "float64"), ("gmvae", "float32"), ("vae-gmm", "float64"), ("vae-gmm", "float32")]


@pytest.mark.parametrize("family", ["gmvae", "vae-gmm"])
@pytest.mark.parametrize("version", [1, 2])
def test_json_checkpoint_exits_2_as_not_a_checkpoint(family, version, toy_setup, tmp_path):
    # formats 1 and 2 are JSON text, without the magic like any other file
    # that is not a checkpoint
    model, history = toy_model(family, "float64", toy_setup)
    path = tmp_path / f"v{version}.json"
    path.write_text(json.dumps(old_payload(family, model, history, version), sort_keys=True, separators=(",", ":")))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.run(["generate", "--model", str(path), "--component", "0", "--n", "1"])
    lines = err.getvalue().splitlines()
    assert code == 2 and len(lines) == 1
    error = json.loads(lines[0])
    assert error["error"] == "data" and error["type"] == "DataError"
    assert "not a levelmix checkpoint" in error["message"] and str(path) in error["message"]


def test_a_large_json_file_is_refused_from_its_first_bytes(tmp_path):
    # a checkpoint family's envelope of tens of MB, as JSON text: its
    # format and format_version are never parsed
    path = tmp_path / "large.json"
    filler = "0" * (20 * 2**20)
    path.write_text(json.dumps({"format": ckpt.FORMAT_GMVAE, "format_version": 2, "networks": filler}))
    tracemalloc.start()
    try:
        with pytest.raises(DataError, match="not a levelmix checkpoint"):
            ckpt.load_any(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_file_without_the_magic_is_not_a_checkpoint(tmp_path):
    cases = (("empty", b""), ("text", b"not json"), ("list", b"[1, 2]"), ("other", b'{"format": "x"}'))
    for name, raw in cases + (("deep", b"[" * 100_000),):
        path = tmp_path / name
        path.write_bytes(raw)
        with pytest.raises(DataError, match="not a levelmix checkpoint"):
            ckpt.load_any(path)


def test_deeply_nested_header_is_data_error(tmp_path):
    header = b"[" * 100_000
    path = tmp_path / "deep.ckpt"
    path.write_bytes(ckpt.MAGIC + struct.pack("<Q", len(header)) + header)
    with pytest.raises(DataError, match="header is not JSON"):
        ckpt.load_any(path)


def blob_entries(node):
    """Every blob in a header, in no particular order."""
    if isinstance(node, dict):
        if "offset" in node:
            return [node]
        return [b for v in node.values() for b in blob_entries(v)]
    if isinstance(node, list):
        return [b for v in node for b in blob_entries(v)]
    return []


@pytest.mark.parametrize("family,dtype", FAMILIES)
def test_save_writes_aligned_blobs_and_loads_writable(family, dtype, toy_setup, tmp_path):
    model, history = toy_model(family, dtype, toy_setup)
    path = tmp_path / "model.ckpt"
    save(family, path, model, history)
    raw = path.read_bytes()
    header, data = split_checkpoint(raw)
    assert header["format_version"] == 6
    assert header["support"] == model.support.tolist()
    # one blob per network: its flat parameters, in the model's dtype
    nets = getattr(model, "vae", model).networks()
    assert list(header["networks"]) == sorted(nets)
    for name, net in nets.items():
        blob = header["networks"][name]
        assert blob["shape"] == [net.params.size] and blob["dtype"] == np.dtype(dtype).newbyteorder("<").str
    assert (len(raw) - len(data)) % 64 == 0
    # blobs are 64-byte aligned, in write order, with zero bytes between them
    blobs = sorted(blob_entries(header), key=lambda b: b["offset"])
    assert len(blobs) == len(nets) + (6 if family == "vae-gmm" else 0)
    end = 0
    for blob in blobs:
        assert blob["offset"] % 64 == 0 and blob["offset"] >= end
        assert not any(data[end : blob["offset"]])
        end = blob["offset"] + int(np.prod(blob["shape"])) * np.dtype(blob["dtype"]).itemsize
    assert end == len(data)
    # an equal model gives identical bytes
    save(family, tmp_path / "again.ckpt", model, history)
    assert (tmp_path / "again.ckpt").read_bytes() == raw
    kind, loaded, _ = ckpt.load_any(path)
    assert kind == family
    assert_same_params(model, loaded)
    # every array is writable: network arrays are views
    # of their own net's parameter buffer, the PCA and GMM arrays own theirs
    nets = getattr(loaded, "vae", loaded).networks().values()
    net_arrays = [(p, net.params) for net in nets for p in net.param_arrays()]
    for net in nets:
        assert net.params.flags.owndata
    for p, buffer in net_arrays:
        assert p.flags.writeable and np.shares_memory(p, buffer)
    for p in params(loaded)[len(net_arrays):]:
        assert p.flags.writeable and p.flags.owndata
    # a loaded model can be trained further
    if family == "gmvae":
        gm.train(loaded, toy_setup["data"][:64])


@pytest.mark.parametrize("family,dtype", FAMILIES)
def test_a_trained_narrowed_model_round_trips(family, dtype, toy_setup, tmp_path):
    model, history = toy_model(family, dtype, toy_setup)
    data = toy_setup["data"]
    # trained on the first 96 chunks, so the whole corpus sets columns
    # outside the support
    assert 0 < len(model.support) < np.count_nonzero(data.any(axis=0))
    path = tmp_path / "model.ckpt"
    save(family, path, model, history)
    _, loaded, loaded_history = ckpt.load_any(path)
    assert_same_params(model, loaded)
    assert loaded.support.dtype == np.intp and np.array_equal(loaded.support, model.support)
    # the decoder writes the support's columns only, and is stored so
    assert getattr(loaded, "vae", loaded).decoder.layers[-1].out_dim == len(model.support)
    save(family, tmp_path / "again.ckpt", loaded, loaded_history)
    assert (tmp_path / "again.ckpt").read_bytes() == path.read_bytes()
    assert np.array_equal(loaded.predict(data), model.predict(data))
    (latents, labels), (loaded_latents, loaded_labels) = model.encode(data), loaded.encode(data)
    assert np.array_equal(loaded_labels, labels) and loaded_latents.tobytes() == latents.tobytes()
    for component in range(model.k):
        chunks, loaded_chunks = (m.generate(component, 5, np.random.default_rng(component)) for m in (model, loaded))
        assert all(np.array_equal(a.tiles, b.tiles) for a, b in zip(chunks, loaded_chunks))


@pytest.mark.parametrize("artifact", ["checkpoint", "eval-cluster", "densities"])
def test_failed_save_keeps_previous_checkpoint(toy_setup, tmp_path, monkeypatch, capsys, artifact):
    # a checkpoint, a JSON report and a CSV are all written through ckpt.replacing
    model, history = toy_model("gmvae", "float64", toy_setup)
    model_path = tmp_path / "model.ckpt"
    ckpt.save_gmvae(model_path, model, history)
    out = tmp_path / "out"
    out.mkdir()
    path = out / artifact
    path.write_bytes(b"the previous file\n")

    def fail_fsync(fd):
        raise OSError("disk full")

    monkeypatch.setattr(ckpt.os, "fsync", fail_fsync)
    if artifact == "checkpoint":
        with pytest.raises(OSError, match="disk full"):
            ckpt.save_gmvae(path, model, history, run_info={"command": "train"})
    else:
        argv = [artifact, "--model", str(model_path), "--out", str(path)]
        if artifact == "eval-cluster":
            # the corpus toy_setup is cut from
            argv += ["--manifest", toygame.write_corpus(tmp_path / "corpus", levels_per_type=3, cols=48, seed=1)]
        else:
            argv += ["--n-per-component", "5"]
        capsys.readouterr()
        assert cli.run(argv) == 2
        error = capsys.readouterr().err.splitlines()[-1]
        assert json.loads(error) == {"error": "data", "type": "OSError", "message": "disk full"}
    assert path.read_bytes() == b"the previous file\n"
    assert os.listdir(out) == [artifact]


def _opens_that_write(tree):
    """The name of the function around each open() call in tree whose mode
    writes, or may: a mode that is not a string constant counts."""
    owner = {}
    for node in ast.walk(tree):  # breadth first, so an inner def's name overrides its outer def's
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner.update((child, node.name) for child in ast.walk(node))
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "open"):
            continue
        modes = node.args[1:2] + [k.value for k in node.keywords if k.arg == "mode"]
        if not modes or (isinstance(modes[0], ast.Constant) and not set(str(modes[0].value)) & set("wax+")):
            continue
        yield owner.get(node, "<module>")


def test_every_file_levelmix_writes_goes_through_replacing():
    src = os.path.dirname(ckpt.__file__)
    writers = []
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), encoding="utf-8") as f:
                writers += [f"{name[:-3]}.{function}" for function in _opens_that_write(ast.parse(f.read()))]
    # write_corpus writes a fresh toy corpus (its levels and manifest) for tests and demos, not a run's artifact
    assert writers == ["checkpoints.replacing", "toygame.write_corpus", "toygame.write_corpus"]


@pytest.mark.parametrize("family", ["gmvae", "vae-gmm"])
def test_save_refuses_a_non_finite_parameter_naming_the_network(toy_setup, tmp_path, family):
    # a load refuses such a network, so a save must not write one
    model, history = toy_model(family, "float64", toy_setup)
    decoder = getattr(model, "vae", model).decoder
    kept, fresh = tmp_path / "kept.ckpt", tmp_path / "fresh.ckpt"
    save(family, kept, model, history)
    before = kept.read_bytes()
    decoder.params[-1] = np.nan
    for path in (kept, fresh):
        with pytest.raises(NumericError, match="network decoder has non-finite parameters"):
            save(family, path, model, history)
    assert kept.read_bytes() == before
    assert os.listdir(tmp_path) == ["kept.ckpt"]


@pytest.mark.parametrize("family", ["gmvae", "vae-gmm"])
def test_a_loaded_model_makes_its_gradient_buffers_only_when_it_trains(toy_setup, tmp_path, family):
    model, history = toy_model(family, "float64", toy_setup)
    path = tmp_path / "model.ckpt"
    save(family, path, model, history)
    tracemalloc.start()
    try:
        _, loaded, _ = ckpt.load_any(path)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    networks = getattr(loaded, "vae", loaded).networks()
    param_bytes = sum(net.params.nbytes for net in networks.values())
    # one parameter buffer per network and little else, not a gradient
    # buffer beside each
    assert param_bytes <= held < 1.25 * param_bytes
    loaded.generate(0, 5, np.random.default_rng(0))
    loaded.predict(toy_setup["data"])
    # grads is a cached property: made on first use, then kept on the net
    assert not any("grads" in vars(net) for net in networks.values())
    decoder = networks["decoder"]
    _, cache = decoder.forward_cached(np.ones((2, decoder.layers[0].in_dim)))
    decoder.backward(cache, np.ones((2, decoder.layers[-1].out_dim)), input_tail=0)
    assert [name for name, net in networks.items() if "grads" in vars(net)] == ["decoder"]
    grads = decoder.grads
    assert grads is decoder.grads and grads.flags.owndata
    assert grads.dtype == decoder.params.dtype and grads.shape == decoder.params.shape
    # each layer's gradients lie where its parameters lie in params
    for layer, (dw, db) in zip(decoder.layers, decoder._grad_views):
        for grad, param in ((dw, layer.weight), (db, layer.bias)):
            assert grad.shape == param.shape and np.shares_memory(grad, grads)
            assert grad.ctypes.data - grads.ctypes.data == param.ctypes.data - decoder.params.ctypes.data


@pytest.fixture(scope="module")
def fuzz_workspace(tmp_path_factory):
    """A tiny toy corpus and a trained model of each family, as format-6,
    format-5, format-4 and format-2 bytes, with the length of the header
    part of each. Formats 5, 4 and 2 no longer load, so their damaged copies
    test the exit-2 paths of an old version behind the magic and of a file
    without the magic."""
    root = tmp_path_factory.mktemp("fuzz")
    manifest = str(toygame.write_corpus(root / "corpus", levels_per_type=1, cols=20, seed=2))
    files = {}
    for family, command in (("gmvae", "train"), ("vae-gmm", "train-baseline")):
        path = root / f"{family}.ckpt"
        argv = [command, "--manifest", manifest, "--k", "2", "--out", str(path), "--epochs", "1"]
        argv += ["--hidden-width", "8", "--hidden-depth", "1", "--latent-dim", "2", "--seed", "1"]
        assert cli.run(argv) == 0
        _, model, history = ckpt.load_any(path)
        v4, blobs = root / f"{family}.v4.ckpt", ckpt._BlobWriter()
        ckpt._dump(v4, old_payload(family, model, history, 4, blobs.add), blobs)
        v2 = json.dumps(old_payload(family, model, history, 2), sort_keys=True, separators=(",", ":")).encode()
        v5 = format_5_bytes(family, model, history, root / f"{family}.v5.ckpt")
        # format 2 is all header; a binary header ends where its data section starts
        files[family, 2] = (v2, len(v2))
        for version, raw in ((6, path.read_bytes()), (5, v5), (4, v4.read_bytes())):
            files[family, version] = (raw, len(raw) - len(split_checkpoint(raw)[1]))
    return {"root": root, "manifest": manifest, "files": files}


def assert_clean_exit(workspace, raw):
    """generate and eval-cluster on a damaged checkpoint exit 0, 2 or 3,
    each with at most one JSON error line and never an uncaught exception.
    A damaged support may still load, and eval-cluster then counts the
    corpus columns outside it in one warning line, with exit 0."""
    path = workspace["root"] / "damaged.ckpt"
    path.write_bytes(raw)
    for argv in (
        ["generate", "--model", str(path), "--component", "0", "--n", "1"],
        ["eval-cluster", "--model", str(path), "--manifest", workspace["manifest"],
         "--out", str(workspace["root"] / "cluster.json")],
    ):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.run(argv)
        lines = err.getvalue().splitlines()
        if code == 0 and lines and argv[0] == "eval-cluster":
            assert lines.pop(0).endswith("set one-hot columns are outside the model's support and are ignored")
        assert code in (0, 2, 3), (argv[0], code, lines)
        assert len(lines) == (code != 0), (argv[0], code, lines)
        if lines:
            assert json.loads(lines[0])["error"] == ("data" if code == 2 else "numeric")


FUZZ_FILES = pytest.mark.parametrize(
    "family,version", [(family, version) for family in ("gmvae", "vae-gmm") for version in (6, 5, 4, 2)]
)
# damaged weights may be inf or nan, and numpy warns about the arithmetic
QUIET = pytest.mark.filterwarnings("ignore::RuntimeWarning")


@pytest.mark.parametrize("family", ["gmvae", "vae-gmm"])
def test_a_trained_format_5_file_exits_2_naming_its_version(fuzz_workspace, family):
    # its d-wide decoder no longer matches the support, but the version is
    # checked first, so the error names it and not a blob's shape
    path = fuzz_workspace["root"] / "v5.ckpt"
    path.write_bytes(fuzz_workspace["files"][family, 5][0])
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.run(["generate", "--model", str(path), "--component", "0", "--n", "1"])
    lines = err.getvalue().splitlines()
    assert code == 2 and len(lines) == 1
    error = json.loads(lines[0])
    assert error["type"] == "DataError" and "format_version 5" in error["message"]


@QUIET
@FUZZ_FILES
@FUZZ
@given(data=st.data())
def test_truncated_checkpoint_exits_cleanly(fuzz_workspace, family, version, data):
    raw, _ = fuzz_workspace["files"][family, version]
    assert_clean_exit(fuzz_workspace, raw[: data.draw(st.integers(0, len(raw) - 1))])


@QUIET
@FUZZ_FILES
@FUZZ
@given(data=st.data(), mask=st.integers(1, 255))
def test_checkpoint_with_a_flipped_byte_exits_cleanly(fuzz_workspace, family, version, data, mask):
    raw, header_end = fuzz_workspace["files"][family, version]
    # any byte, with half the draws in the header, where most of the
    # structure is but few of the bytes are
    at = data.draw(st.one_of(st.integers(0, header_end - 1), st.integers(0, len(raw) - 1)))
    damaged = bytearray(raw)
    damaged[at] ^= mask
    assert_clean_exit(fuzz_workspace, bytes(damaged))


@QUIET
@FUZZ_FILES
@FUZZ
@given(length=st.integers(0, 2**64 - 1))
def test_checkpoint_with_any_header_length_exits_cleanly(fuzz_workspace, family, version, length):
    # bytes 8-16 are a binary format's header length; in format 2 they are JSON text
    raw, _ = fuzz_workspace["files"][family, version]
    assert_clean_exit(fuzz_workspace, raw[:8] + struct.pack("<Q", length) + raw[16:])


JSON_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-2**70, 2**70), st.floats(), st.text(max_size=3))


@QUIET
@pytest.mark.parametrize("family", ["gmvae", "vae-gmm"])
@FUZZ
@given(data=st.data())
def test_checkpoint_with_any_support_exits_cleanly(fuzz_workspace, family, data):
    raw, _ = fuzz_workspace["files"][family, 6]
    header, blobs = split_checkpoint(raw)
    support, d = header["support"], header["config"]["d"]
    header["support"] = data.draw(st.one_of(
        # valid supports of the stored length, which load with other columns
        st.lists(st.integers(0, d - 1), min_size=len(support), max_size=len(support), unique=True).map(sorted),
        # the stored support with one entry replaced
        st.tuples(st.integers(0, len(support) - 1), JSON_SCALARS).map(
            lambda edit: support[: edit[0]] + [edit[1]] + support[edit[0] + 1 :]
        ),
        st.lists(JSON_SCALARS, max_size=len(support) + 2),
        JSON_SCALARS,
    ))
    assert_clean_exit(fuzz_workspace, join_checkpoint(header, blobs))


@pytest.mark.parametrize("family", ["gmvae", "vae-gmm"])
def test_a_d_other_than_the_vocabs_exits_2_naming_both(fuzz_workspace, family):
    # a forged d would size decode_generated's (n, d) arrays; the support
    # and every blob still fit it
    raw, _ = fuzz_workspace["files"][family, 6]
    header, blobs = split_checkpoint(raw)
    d = header["config"]["d"]
    header["config"]["d"] = d + 256 * 5
    path = fuzz_workspace["root"] / "forged-d.ckpt"
    path.write_bytes(join_checkpoint(header, blobs))
    message = f"config d={d + 256 * 5} does not match 256 * vocab size {d // 256} = {d}"
    with pytest.raises(DataError, match=re.escape(message)):
        ckpt.load_any(path)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.run(["generate", "--model", str(path), "--component", "0", "--n", "1"])
    lines = err.getvalue().splitlines()
    assert code == 2 and len(lines) == 1
    error = json.loads(lines[0])
    assert error["type"] == "DataError" and message in error["message"]


@pytest.mark.parametrize("family", ["gmvae", "vae-gmm"])
def test_a_support_without_a_column_of_some_cell_exits_2_naming_it(toy_setup, tmp_path, family):
    # cell 0's columns are 0 .. vocab size - 1: without them every argmax
    # there would pick tile 0, whatever the decoder wrote
    model, history = toy_model(family, "float64", toy_setup)
    vae = getattr(model, "vae", model)
    vae.narrow(vae.support[vae.support >= toy_setup["vocab"].size])
    path = tmp_path / "no-cell-0.ckpt"
    save(family, path, model, history)
    message = "support has no column of cell 0"
    with pytest.raises(DataError, match=message):
        ckpt.load_any(path)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.run(["generate", "--model", str(path), "--component", "0", "--n", "1"])
    lines = err.getvalue().splitlines()
    assert code == 2 and len(lines) == 1
    error = json.loads(lines[0])
    assert error["type"] == "DataError" and message in error["message"]


@pytest.mark.parametrize("family", ["gmvae", "vae-gmm"])
@pytest.mark.parametrize("value", [np.nan, -np.inf])
def test_non_finite_parameter_exits_2_naming_the_network(fuzz_workspace, family, value):
    raw, _ = fuzz_workspace["files"][family, 6]
    header, data = split_checkpoint(raw)
    # the decoder's last parameter: its last layer's last bias
    blob = header["networks"]["decoder"]
    value = np.array([value], dtype=blob["dtype"]).tobytes()
    at = len(raw) - len(data) + blob["offset"] + (blob["shape"][0] - 1) * len(value)
    damaged = bytearray(raw)
    damaged[at : at + len(value)] = value
    path = fuzz_workspace["root"] / "non-finite.ckpt"
    path.write_bytes(bytes(damaged))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.run(["generate", "--model", str(path), "--component", "0", "--n", "1"])
    lines = err.getvalue().splitlines()
    assert code == 2 and len(lines) == 1
    error = json.loads(lines[0])
    assert error["error"] == "data" and "network decoder has non-finite parameters" in error["message"]
