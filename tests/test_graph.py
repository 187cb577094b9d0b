import json
import math
import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetforge import cli, executor, frontend, passes
from jetforge import graph as g
from jetforge.artifacts import ArtifactError


def chain_graph(kinds):
    """Simple conv chain with optional extras for structural tests."""
    nodes = []
    prev = "input"
    for i, kind in enumerate(kinds):
        nid = f"n{i}"
        if kind == "conv":
            nodes.append(g.conv_node(nid, [prev], nid, out_ch=4, kernel=3,
                                     stride=1, pad=1, has_bias=False))
        elif kind == "up":
            nodes.append(g.LayerNode(nid, g.UPSAMPLE, [prev], nid, {"factor": 2}))
        prev = nid
    return g.Graph(nodes=nodes, input_id="input",
                   input_shape=g.TensorShape(1, 3, 32, 32))


def test_conv_shape_stride2():
    # floor((608 + 2 - 3)/2) + 1 = 304, floor((352 + 2 - 3)/2) + 1 = 176
    node = g.conv_node("c", ["input"], "c", out_ch=64, kernel=3, stride=2, pad=1,
                       has_bias=False)
    gr = g.Graph(nodes=[node], input_shape=g.TensorShape(1, 32, 608, 352))
    shapes = g.infer_shapes(gr)
    assert shapes["c"] == g.TensorShape(1, 64, 304, 176)


def test_upsample_and_concat_shapes():
    up = g.LayerNode("up", g.UPSAMPLE, ["input"], "up", {"factor": 2})
    gr = g.Graph(nodes=[up], input_shape=g.TensorShape(1, 256, 19, 11))
    assert g.infer_shapes(gr)["up"] == g.TensorShape(1, 256, 38, 22)

    a = g.conv_node("a", ["input"], "a", out_ch=256, kernel=1, stride=1, pad=0, has_bias=False)
    b = g.conv_node("b", ["input"], "b", out_ch=128, kernel=1, stride=1, pad=0, has_bias=False)
    cat = g.LayerNode("cat", g.CONCAT, ["a", "b"], "cat")
    gr = g.Graph(nodes=[a, b, cat], input_shape=g.TensorShape(1, 3, 38, 22))
    assert g.infer_shapes(gr)["cat"] == g.TensorShape(1, 384, 38, 22)


def test_underflow_shape():
    node = g.conv_node("c", ["input"], "c", out_ch=1, kernel=7, stride=1, pad=0,
                       has_bias=False)
    gr = g.Graph(nodes=[node], input_shape=g.TensorShape(1, 1, 4, 4))
    with pytest.raises(g.UnderflowShape):
        g.infer_shapes(gr)



@pytest.mark.parametrize("kind", [g.CONV, g.MAXPOOL])
@pytest.mark.parametrize("key", ["kernel", "stride"])
def test_kernel_or_stride_below_one_is_a_shape_fault_naming_the_node(kind, key):
    """validate reports it and compile raises it, where both used to divide by zero."""
    gr = _small_weighted_graph()
    if kind == g.CONV:
        node = g.conv_node("n", ["a"], "n", out_ch=2, kernel=1, stride=1, pad=0, has_bias=True)
        gr.weights[("n", "kernel")] = np.ones(4, dtype=np.float32)
        gr.weights[("n", "bias")] = np.zeros(2, dtype=np.float32)
    else:
        node = g.LayerNode("n", g.MAXPOOL, ["a"], "n", {"kernel": 2, "stride": 2})
    node.attrs[key] = 0
    gr.nodes.append(node)
    with pytest.raises(g.GraphError, match=f"^n: attrs: {key}: expected a positive integer, got 0$"):
        g.infer_shapes(gr)
    assert g.Diagnostic("n", f"attrs: {key}: expected a positive integer, got 0") in g.validate(gr)
    with pytest.raises(g.GraphError, match=f"^n: attrs: {key}: expected a positive integer, got 0$"):
        executor.compile(gr)


def test_add_shape_mismatch():
    a = g.conv_node("a", ["input"], "a", out_ch=4, kernel=3, stride=1, pad=1, has_bias=False)
    b = g.conv_node("b", ["input"], "b", out_ch=4, kernel=3, stride=2, pad=1, has_bias=False)
    add = g.LayerNode("add", g.ADD, ["a", "b"], "add")
    gr = g.Graph(nodes=[a, b, add], input_shape=g.TensorShape(1, 3, 32, 32))
    with pytest.raises(g.ShapeMismatch):
        g.infer_shapes(gr)


@settings(max_examples=30, deadline=None)
@given(st.randoms(use_true_random=False))
def test_shape_inference_order_independent(rnd):
    """Any valid topological order of the node list yields identical shapes."""
    base = chain_graph(["conv", "conv", "conv", "conv"])
    # add a parallel branch joined by concat
    branch = g.conv_node("side", ["n0"], "side", out_ch=2, kernel=1, stride=1,
                         pad=0, has_bias=False)
    join = g.LayerNode("join", g.CONCAT, ["n3", "side"], "join")
    base.nodes.extend([branch, join])
    want = g.infer_shapes(base)

    shuffled = base.copy()
    rnd.shuffle(shuffled.nodes)  # infer_shapes resolves via worklist, order-free
    assert g.infer_shapes(shuffled) == want


def test_validate_no_input():
    assert [d.reason for d in g.validate(g.Graph(nodes=[]))] == ["no input"]


def test_validate_cycle_names_nodes():
    a = g.LayerNode("a", g.ACTIVATION, ["b"], "a", {"act": g.RELU})
    b = g.LayerNode("b", g.ACTIVATION, ["a"], "b", {"act": g.RELU})
    diags = g.validate(g.Graph(nodes=[a, b], input_shape=g.TensorShape(1, 1, 32, 32)))
    cycle = [d for d in diags if "cycle" in d.reason]
    assert cycle and "a" in cycle[0].reason and "b" in cycle[0].reason


def test_unreached_nodes_reported_in_list_order():
    """validate and infer_shapes name the nodes a topological walk never
    reaches (the cycle and what hangs off it) in node-list order."""
    ok = g.activation_node("ok", ["input"], "ok", g.RELU)
    c = g.activation_node("c", ["b"], "c", g.RELU)
    a = g.activation_node("a", ["b"], "a", g.RELU)
    b = g.LayerNode("b", g.ADD, ["a", "ok"], "b")
    gr = g.Graph(nodes=[c, ok, a, b], input_shape=g.TensorShape(1, 1, 32, 32))
    cycle = [d for d in g.validate(gr) if "cycle" in d.reason]
    assert [(d.node_id, d.reason) for d in cycle] == [("c", "cycle involving nodes: c, a, b")]
    with pytest.raises(g.ShapeMismatch) as exc:
        g.infer_shapes(gr)
    assert str(exc.value) == "c: cycle involving nodes: c, a, b"


def test_dangling_input_gives_its_one_diagnostic(tiny_detector):
    gr = tiny_detector.copy()
    gr.node_by_id("conv1").inputs = ["nope"]
    assert g.validate(gr) == [g.Diagnostic("conv1", "input tensor 'nope' is never produced")]


def test_validate_flags_anchor_indices_outside_the_anchors(tiny_detector, tmp_path):
    gr = tiny_detector.copy()
    gr.node_by_id("yolo6").attrs["anchor_indices"] = [2]
    assert g.validate(gr) == [g.Diagnostic("yolo6", "attrs: anchor_indices: [2] outside the "
                                                    "model's 2 anchors")]
    with pytest.raises(g.GraphError):
        g.save_container(gr, tmp_path / "x.uir")


def test_validate_yolo_head_channels():
    # 3 anchors x (5 + 6 classes) = 33 input channels is valid
    conv = g.conv_node("c", ["input"], "c", out_ch=33, kernel=1, stride=1, pad=0,
                       has_bias=True)
    head = g.LayerNode("y", g.YOLO_HEAD, ["c"], "y",
                       {"anchor_indices": [0, 1, 2], "num_classes": 6})
    anchors = g.GraphMetadata(anchors=[(10, 13), (16, 30), (33, 23)])
    gr = g.Graph(nodes=[conv, head], input_shape=g.TensorShape(1, 3, 32, 32), metadata=anchors)
    assert g.validate(gr) == []

    bad_head = g.LayerNode("y", g.YOLO_HEAD, ["c"], "y",
                           {"anchor_indices": [0, 1], "num_classes": 6})
    gr = g.Graph(nodes=[conv, bad_head], input_shape=g.TensorShape(1, 3, 32, 32),
                 metadata=anchors)
    assert any("channels" in d.reason for d in g.validate(gr))


def test_an_unknown_kind_is_one_diagnostic_and_a_shape_fault_naming_the_node(tiny_detector):
    gr = tiny_detector.copy()
    gr.nodes[1].kind = "foo"
    assert g.validate(gr) == [g.Diagnostic("bn0", "kind: expected one of " + ", ".join(g.KINDS)
                                           + ', got "foo"')]
    for infer in (g.infer_shapes, executor.compile):
        with pytest.raises(g.GraphError, match="^" + re.escape(
                "bn0: kind: expected one of " + ", ".join(g.KINDS) + ', got "foo"') + "$"):
            infer(gr)


@pytest.mark.parametrize("index,inputs,reason", [
    (1, [], "batchnorm needs one input, got 0"),
    (1, ["conv0", "input"], "batchnorm needs one input, got 2"),
    (9, ["act2"], "add needs at least two inputs, got 1"),
    (16, ["up8"], "concat needs at least two inputs, got 1")],
    ids=["batchnorm-of-none", "batchnorm-of-two", "add-of-one", "concat-of-one"])
def test_an_input_count_its_kind_refuses_is_one_diagnostic_and_a_shape_fault_naming_the_node(
        tiny_detector, index, inputs, reason):
    gr = tiny_detector.copy()
    node = gr.nodes[index]
    node.inputs = inputs
    assert g.validate(gr) == [g.Diagnostic(node.id, f"inputs: {reason}")]
    where = "^" + re.escape(f"{node.id}: inputs: {reason}") + "$"
    for infer in (g.infer_shapes, executor.compile):
        with pytest.raises(g.GraphError, match=where):
            infer(gr)
    with pytest.raises(g.GraphError, match=where):
        executor.execute(gr, np.zeros(gr.input_shape, dtype=np.float32))


_IN_MEMORY_FAULTS = {
    "stride-missing": lambda gr: gr.node_by_id("conv0").attrs.pop("stride"),
    "stride-a-string": lambda gr: gr.node_by_id("conv0").attrs.update(stride="2"),
    "kernel-zero": lambda gr: gr.node_by_id("conv0").attrs.update(kernel=0),
    "eps-below-zero": lambda gr: gr.node_by_id("bn0").attrs.update(eps=-10.0),
    "unknown-kind": lambda gr: setattr(gr.node_by_id("bn0"), "kind", "foo"),
    "two-inputs": lambda gr: setattr(gr.node_by_id("bn0"), "inputs", ["conv0", "input"]),
    "attrs-none": lambda gr: setattr(gr.node_by_id("conv0"), "attrs", None),
    "kind-a-list": lambda gr: setattr(gr.node_by_id("bn0"), "kind", ["batchnorm"]),
    "inputs-a-string": lambda gr: setattr(gr.node_by_id("bn0"), "inputs", "conv0"),
    "output-a-number": lambda gr: setattr(gr.node_by_id("yolo12"), "output", 3),
    "id-none": lambda gr: setattr(gr.node_by_id("act0"), "id", None),
}
_ENTRY_POINTS = {
    "infer_shapes": g.infer_shapes,
    "compile": executor.compile,
    "execute": lambda gr: executor.execute(gr, np.zeros(gr.input_shape, dtype=np.float32)),
    "model_stats": frontend.model_stats,
    "apply_passes": lambda gr: passes.apply_passes(gr, ["fuse-conv-bn", "decompose-leaky",
                                                        "fold-scale"]),
}


@pytest.mark.parametrize("entry", _ENTRY_POINTS.values(), ids=_ENTRY_POINTS)
@pytest.mark.parametrize("edit", _IN_MEMORY_FAULTS.values(), ids=_IN_MEMORY_FAULTS)
def test_every_entry_point_raises_the_one_fault_validate_lists_in_its_words(
        tiny_detector, edit, entry):
    """A missing or wrong-typed attribute, an attribute out of its bound, an
    unknown kind, a wrong input count or a node field not of its type of an
    in-memory graph: validate lists it once, and each stage that reads
    shapes raises it as a GraphError in the same words, not as a KeyError
    or TypeError."""
    gr = tiny_detector.copy()
    edit(gr)
    diags = g.validate(gr)
    assert len(diags) == 1
    with pytest.raises(g.GraphError) as exc:
        entry(gr)
    assert str(exc.value) == str(diags[0])


def _produce_act0_twice(nodes):
    nodes[4].output, nodes[5].inputs = "act0", ["act0"]  # bn1, read by act1


def _produce_the_input(nodes):
    nodes[0].output, nodes[1].inputs = "input", ["input"]  # conv0, read by bn0


def _reuse_an_id(nodes):
    nodes[4].id = "act0"  # bn1


@pytest.mark.parametrize("edit,node,reason", [
    (_produce_act0_twice, "bn1", "tensor 'act0' produced more than once"),
    (_produce_the_input, "conv0", "tensor 'input' produced more than once"),
    (_reuse_an_id, "act0", "duplicate node id")],
    ids=["tensor-twice", "graph-input", "node-id-twice"])
def test_a_tensor_produced_twice_or_an_id_used_twice_is_one_diagnostic_and_a_shape_fault(
        tiny_detector, edit, node, reason):
    """One tensor, one shape: shape inference, and so compile and execute,
    refuse what validate reports, instead of a second producer overwriting
    the first."""
    gr = tiny_detector.copy()
    edit(gr.nodes)
    assert g.validate(gr) == [g.Diagnostic(node, reason)]
    where = "^" + re.escape(f"{node}: {reason}") + "$"
    for infer in (g.infer_shapes, executor.compile):
        with pytest.raises(g.GraphError, match=where):
            infer(gr)
    with pytest.raises(g.GraphError, match=where):
        executor.execute(gr, np.zeros(gr.input_shape, dtype=np.float32))


@pytest.mark.parametrize("key", [("ghost", "kernel"), ("conv0", "scale_factors")],
                         ids=["no-such-node", "role-its-kind-lacks"])
def test_a_weight_no_node_declares_is_one_diagnostic_and_refused_by_save_and_compile(
        tiny_detector, tmp_path, key):
    gr = tiny_detector.copy()
    gr.weights[key] = np.zeros(1, dtype=np.float32)
    reason = f"weights for role '{key[1]}', which no node of this id declares"
    assert g.validate(gr) == [g.Diagnostic(key[0], reason)]
    with pytest.raises(g.GraphError, match=re.escape(f"{key[0]}: {reason}")):
        g.save_container(gr, tmp_path / "x.uir")
    assert not (tmp_path / "x.uir").exists()
    with pytest.raises(executor.ExecutionError, match="^" + re.escape(f"{key[0]}: {reason}")):
        executor.compile(gr)


def test_validate_input_multiple_of_32():
    conv = g.conv_node("c", ["input"], "c", out_ch=1, kernel=1, stride=1, pad=0,
                       has_bias=True)
    gr = g.Graph(nodes=[conv], input_shape=g.TensorShape(1, 3, 30, 64))
    assert any("multiples of 32" in d.reason for d in g.validate(gr))


def _small_weighted_graph():
    conv = g.conv_node("c", ["input"], "c", out_ch=2, kernel=1, stride=1, pad=0,
                       has_bias=True)
    bn = g.LayerNode("bn", g.BATCHNORM, ["c"], "bn", {"eps": 1e-6})
    act = g.activation_node("a", ["bn"], "a", g.LEAKY, 0.1)
    gr = g.Graph(nodes=[conv, bn, act], input_shape=g.TensorShape(1, 3, 32, 32))
    gr.weights[("c", "kernel")] = np.arange(6, dtype=np.float32) * 0.25 - 0.5
    gr.weights[("c", "bias")] = np.array([0.5, -0.25], dtype=np.float32)
    gr.weights[("bn", "bn_gamma")] = np.array([1.0, 2.0], dtype=np.float32)
    gr.weights[("bn", "bn_beta")] = np.array([0.0, 0.5], dtype=np.float32)
    gr.weights[("bn", "bn_mean")] = np.array([0.1, 0.2], dtype=np.float32)
    gr.weights[("bn", "bn_var")] = np.array([1.0, 0.5], dtype=np.float32)
    gr.metadata.class_names = ["x"]
    gr.metadata.anchors = [(8.0, 8.0)]
    return gr


def test_container_roundtrip_bit_identical(tmp_path):
    gr = _small_weighted_graph()
    p1, p2 = tmp_path / "a.uir", tmp_path / "b.uir"
    g.save_container(gr, p1)
    loaded = g.load_container(p1)
    g.save_container(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()
    for key, arr in gr.weights.items():
        assert np.array_equal(loaded.weights[key], arr)
    assert [n.id for n in loaded.nodes] == [n.id for n in gr.nodes]
    assert loaded.metadata.anchors == gr.metadata.anchors


def test_container_roundtrip_with_qparams(tmp_path):
    gr = _small_weighted_graph()
    gr.qparams = {"input": g.QuantParams.from_range(-1.0, 1.0),
                  "c": g.QuantParams.from_range(-2.0, 2.0),
                  "bn": g.QuantParams.from_range(0.0, 4.0),
                  "a": g.QuantParams.from_range(-0.5, 3.5)}
    p1, p2 = tmp_path / "q1.uir", tmp_path / "q2.uir"
    g.save_container(gr, p1)
    loaded = g.load_container(p1)
    assert loaded.qparams == gr.qparams
    g.save_container(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_container_bad_magic(tmp_path):
    path = tmp_path / "bad.uir"
    path.write_bytes(b"XXXX" + b"\x00" * 32)
    with pytest.raises(g.BadMagic):
        g.load_container(path)


def test_container_bad_version(tmp_path):
    gr = _small_weighted_graph()
    path = tmp_path / "v.uir"
    g.save_container(gr, path)
    data = bytearray(path.read_bytes())
    data[4] = 99
    path.write_bytes(bytes(data))
    with pytest.raises(g.VersionUnsupported):
        g.load_container(path)


def test_container_truncated(tmp_path):
    gr = _small_weighted_graph()
    path = tmp_path / "t.uir"
    g.save_container(gr, path)
    data = path.read_bytes()
    path.write_bytes(data[:10])
    with pytest.raises(g.TruncatedFile):
        g.load_container(path)


def test_container_manifest_weight_mismatch(tmp_path):
    gr = _small_weighted_graph()
    path = tmp_path / "m.uir"
    g.save_container(gr, path)
    data = path.read_bytes()
    path.write_bytes(data[:-8])  # drop two floats from the blob
    with pytest.raises(g.ManifestWeightMismatch):
        g.load_container(path)


def _edit_manifest(path, edit, blob_floats: int | None = None):
    """Apply `edit` to the manifest of the container at `path`; with
    `blob_floats`, also cut or zero-pad its blob to that many floats."""
    data = path.read_bytes()
    (mlen,) = struct.unpack_from("<Q", data, 8)
    manifest = json.loads(data[16:16 + mlen])
    edit(manifest)
    text = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode()
    blob = data[16 + mlen:]
    if blob_floats is not None:
        blob = blob[:blob_floats * 4].ljust(blob_floats * 4, b"\0")
    path.write_bytes(data[:8] + struct.pack("<Q", len(text)) + text + blob)


def _rewrite_weight_len(path, index: int, value, blob_floats: int):
    """Set weights[index].len in the manifest of the container at `path` to
    `value`, and cut or zero-pad its blob to `blob_floats` floats."""
    _edit_manifest(path, lambda m: m["weights"][index].update(len=value), blob_floats)


def test_container_bytes_after_the_blob(tmp_path):
    path = tmp_path / "x.uir"
    g.save_container(_small_weighted_graph(), path)
    path.write_bytes(path.read_bytes() + b"\0" * 4)
    with pytest.raises(g.ManifestWeightMismatch):
        g.load_container(path)


@pytest.mark.parametrize("overshoot", [1, 2**62], ids=["one-byte", "2**62"])
def test_container_manifest_length_past_the_end(tmp_path, overshoot):
    path = tmp_path / "x.uir"
    g.save_container(_small_weighted_graph(), path)
    size = path.stat().st_size
    mlen = size - 16 + 1 if overshoot == 1 else overshoot
    data = path.read_bytes()
    path.write_bytes(data[:8] + struct.pack("<Q", mlen) + data[16:])
    with pytest.raises(g.TruncatedFile, match=f"manifest declares {mlen} bytes"):
        g.load_container(path)


@pytest.mark.parametrize("size", [0, 4, 15])
def test_container_header_shorter_than_16_bytes(tmp_path, size):
    path = tmp_path / "x.uir"
    g.save_container(_small_weighted_graph(), path)
    path.write_bytes(path.read_bytes()[:size])
    with pytest.raises(g.TruncatedFile, match=f"only {size} bytes"):
        g.load_container(path)


@pytest.mark.parametrize("value", [-1, "4", 4.0, True], ids=repr)
def test_container_weight_len_that_is_no_count(tmp_path, value):
    # the blob matches the total the manifest declares, read as a number, so
    # only the check on `len` itself can reject the file
    path = tmp_path / "x.uir"
    gr = _small_weighted_graph()
    g.save_container(gr, path)
    total = sum(a.size for a in gr.weights.values())
    first = g.graph_manifest(gr)["weights"][0]["len"]
    _rewrite_weight_len(path, 0, value, total - first + int(value))
    where = re.escape(f"{path}: weights: 0: len: expected a non-negative integer, got ")
    with pytest.raises(ArtifactError, match="^" + where):
        g.load_container(path)


def test_container_repeated_weight_entry(tmp_path):
    # weights[1] (the bias) takes weights[0]'s (layer, role); the blob still
    # matches the declared total, so only the repeat can reject the file
    path = tmp_path / "x.uir"
    g.save_container(_small_weighted_graph(), path)
    _edit_manifest(path, lambda m: m["weights"][1].update(layer="c", role="kernel"))
    where = re.escape(f'{path}: weights: 1: layer, role: expected a (layer, role) not listed '
                      f'before, got ["c", "kernel"]')
    with pytest.raises(ArtifactError, match="^" + where):
        g.load_container(path)


@pytest.mark.parametrize("field,value", [("layer", [1]), ("layer", None), ("role", 7)],
                         ids=repr)
def test_container_weight_layer_or_role_that_is_no_string(tmp_path, field, value):
    path = tmp_path / "x.uir"
    g.save_container(_small_weighted_graph(), path)
    _edit_manifest(path, lambda m: m["weights"][1].update({field: value}))
    where = re.escape(f"{path}: weights: 1: {field}: expected a string, got ")
    with pytest.raises(ArtifactError, match="^" + where):
        g.load_container(path)


@pytest.mark.parametrize("field,value", [
    ("shape", [1, 3]), ("shape", [1, 3, 32, True]), ("shape", [1, 3, 32, 0]),
    ("shape", [1, 3, 32, 32.0]), ("shape", "1x3x32x32"), ("id", 5), ("id", None)], ids=repr)
def test_container_input_shape_or_id_malformed(tmp_path, field, value):
    path = tmp_path / "x.uir"
    g.save_container(_small_weighted_graph(), path)
    _edit_manifest(path, lambda m: m["input"].update({field: value}))
    with pytest.raises(ArtifactError, match="^" + re.escape(f"{path}: input: {field}: expected ")):
        g.load_container(path)


@pytest.mark.parametrize("edit,where", [
    (lambda nodes: nodes[0]["attrs"].pop("stride"), "conv0: attrs: missing stride"),
    (lambda nodes: nodes[1]["attrs"].pop("eps"), "bn0: attrs: missing eps"),
    (lambda nodes: nodes[9].update(inputs=["act2"]), "add3: inputs: add needs"),
    (lambda nodes: nodes[0].update(kind=["conv"]), "nodes: 0: kind: expected a string")],
    ids=["missing-stride", "missing-eps", "add-of-one-input", "kind-not-a-string"])
def test_container_node_without_what_its_kind_needs(tmp_path, tiny_detector, edit, where):
    path = tmp_path / "x.uir"
    g.save_container(tiny_detector, path)
    _edit_manifest(path, lambda m: edit(m["nodes"]))
    with pytest.raises(ArtifactError, match="^" + re.escape(f"{path}: {where}")):
        g.load_container(path)


def _node(manifest, nid) -> dict:
    return next(n for n in manifest["nodes"] if n["id"] == nid)


def _trade_conv5_weight_lens(manifest):
    # the kernel's and the bias's declared lengths swap; the blob total stays
    entry = {e["role"]: e for e in manifest["weights"] if e["layer"] == "conv5"}
    entry["kernel"]["len"], entry["bias"]["len"] = entry["bias"]["len"], entry["kernel"]["len"]


_CONTAINER_GRAPH_FAULTS = {
    "conv2-out-ch-9": lambda m: _node(m, "conv2")["attrs"].update(out_ch=9),
    "conv5-weight-lengths-traded": _trade_conv5_weight_lens,
    "input-never-produced": lambda m: _node(m, "conv1").update(inputs=["ghost"]),
    "head-num-classes": lambda m: _node(m, "yolo6")["attrs"].update(num_classes=5),
    "weight-role-undeclared": lambda m: m["weights"].append(
        {"layer": "conv0", "role": "scale_factors", "len": 0}),
    "conv-stride-zero": lambda m: _node(m, "conv0")["attrs"].update(stride=0),
}


@pytest.mark.parametrize("edit", _CONTAINER_GRAPH_FAULTS.values(), ids=_CONTAINER_GRAPH_FAULTS)
def test_a_container_loads_exactly_when_save_container_would_write_its_graph(
        tiny_detector, tmp_path, monkeypatch, capsys, edit):
    """The loader reads the format, then refuses the graph with the first
    fault validate lists; the CLI exits 1 with that one line."""
    path = tmp_path / "x.uir"
    g.save_container(tiny_detector, path)
    _edit_manifest(path, edit)
    with monkeypatch.context() as m:
        m.setattr(g, "validate", lambda graph: [])
        held = g.load_container(path)  # the graph the file holds, unjudged
    diags = g.validate(held)
    assert diags
    with pytest.raises(g.GraphError, match="^refusing to save invalid graph: "):
        g.save_container(held, tmp_path / "y.uir")
    with pytest.raises(ArtifactError) as exc:
        g.load_container(path)
    assert str(exc.value) == f"{path}: {diags[0]}"
    for argv in (["detect", "-m", str(path), "-i", str(tmp_path / "frame.ppm")],
                 ["optimize", "-m", str(path), "-o", str(tmp_path / "y.uir")]):
        assert cli.main(argv) == cli.EXIT_INVALID
        assert capsys.readouterr().err == f"error: {path}: {diags[0]}\n"
    assert not (tmp_path / "y.uir").exists()


# --------------------------------------------------------------------------
# one attribute table for every reader: KINDS[kind].attrs, run by _node_faults
# --------------------------------------------------------------------------

def _json_type(value) -> str:
    return {bool: "boolean", int: "number", float: "number", str: "string", list: "array",
            dict: "object", type(None): "null"}[type(value)]


_ACCEPTED = [2, "leaky", True, [0]]  # the first one a field takes gives its JSON type
_OF_EACH_TYPE = ["2", 2, True, None, [2], {}]
_OUTSIDE = {"number": [0, -1, 1, 2.0, 2.5, math.nan], "string": ["tanh"], "array": [[], [0.5]],
            "boolean": []}


def _attr_cases():
    """(kind, key, value) for each attribute of KINDS: a value of each
    other JSON type, and every value of its own type its field refuses; then
    a value breaking each rule between fields."""
    for kind, table in ((k, entry.attrs) for k, entry in g.KINDS.items()):
        for key, field in table.items():
            own = _json_type(next(v for v in _ACCEPTED if field.test(v)))
            yield from ((kind, key, v) for v in _OF_EACH_TYPE if _json_type(v) != own)
            yield from ((kind, key, v) for v in _OUTSIDE[own] if not field.test(v))
    yield from [(g.ACTIVATION, "alpha", 1.5), (g.YOLO_HEAD, "anchor_indices", [2])]


_ATTR_CASES = list(_attr_cases())


def test_the_attr_cases_cover_every_attribute():
    assert {(kind, key) for kind, key, _ in _ATTR_CASES} == {
        (kind, key) for kind, entry in g.KINDS.items() for key in entry.attrs}
    # validate used to raise TypeError on the first and accept the second
    assert (g.CONV, "stride", "2") in _ATTR_CASES and (g.UPSAMPLE, "factor", 2.5) in _ATTR_CASES


@pytest.fixture(scope="module")
def every_kind_graph(tiny_detector, tmp_path_factory):
    """(a graph with a node of every kind of KINDS, its container)."""
    graph = tiny_detector.copy()
    graph.nodes += [g.LayerNode("pool", g.MAXPOOL, ["input"], "pool", {"kernel": 2, "stride": 2}),
                    g.LayerNode("scale", g.SCALE, ["input"], "scale", {"factor": 0.5})]
    path = tmp_path_factory.mktemp("kinds") / "kinds.uir"
    g.save_container(graph, path)
    assert set(g.KINDS) <= {n.kind for n in graph.nodes}
    return graph, path


@pytest.mark.parametrize("kind,key,value", _ATTR_CASES, ids=repr)
def test_an_attr_the_node_rules_refuse_fails_load_and_validate_alike(
        every_kind_graph, kind, key, value, tmp_path, capsys):
    graph, saved = every_kind_graph
    i = next(i for i, n in enumerate(graph.nodes) if n.kind == kind)
    path = tmp_path / "x.uir"
    path.write_bytes(saved.read_bytes())
    _edit_manifest(path, lambda m: m["nodes"][i]["attrs"].update({key: value}))
    assert cli.main(["optimize", "-m", str(path)]) == cli.EXIT_INVALID
    err = capsys.readouterr().err.splitlines()
    node = graph.nodes[i].id
    assert len(err) == 1 and err[0].startswith(f"error: {path}: {node}: attrs: {key}: "), err

    edited = graph.copy()
    edited.nodes[i].attrs[key] = value
    diags = [d for d in g.validate(edited) if d.node_id == node]
    assert diags and err[0] == f"error: {path}: {diags[0]}"


def test_validate_reports_every_refused_attr_of_a_node_without_raising(tiny_detector):
    gr = tiny_detector.copy()
    gr.nodes[0].attrs.update(stride="2", kernel=0, act=["leaky"])
    del gr.nodes[0].attrs["pad"]
    assert g.validate(gr) == [
        g.Diagnostic("conv0", "attrs: kernel: expected a positive integer, got 0"),
        g.Diagnostic("conv0", 'attrs: stride: expected a positive integer, got "2"'),
        g.Diagnostic("conv0", "attrs: missing pad"),
        g.Diagnostic("conv0", 'attrs: act: expected linear, relu or leaky, got ["leaky"]')]


@pytest.mark.parametrize("anchors", [
    [[1]], [[8, 8, 8]], [[0, 8]], [[-1.5, 8]], [[True, 8]], [["8", 8]], [[8, None]], "8,8",
    [8, 8], [[8, 8], [4]]], ids=repr)
def test_container_anchors_that_are_no_positive_pairs(tmp_path, anchors):
    path = tmp_path / "x.uir"
    g.save_container(_small_weighted_graph(), path)
    _edit_manifest(path, lambda m: m["metadata"].update(anchors=anchors))
    where = re.escape(f"{path}: metadata: anchors: expected a list of [w, h] pairs of positive ")
    with pytest.raises(ArtifactError, match="^" + where):
        g.load_container(path)


@pytest.mark.parametrize("field,value,expected", [
    ("id", ["conv0"], "a string"), ("id", None, "a string"), ("output", 5, "a string"),
    ("inputs", "input", "a list of strings"), ("inputs", [["input"]], "a list of strings"),
    ("inputs", None, "a list of strings")], ids=repr)
def test_container_node_id_output_and_inputs_of_the_wrong_type(tmp_path, tiny_detector, field,
                                                               value, expected):
    path = tmp_path / "x.uir"
    g.save_container(tiny_detector, path)
    _edit_manifest(path, lambda m: m["nodes"][0].update({field: value}))
    where = re.escape(f"{path}: nodes: 0: {field}: expected {expected}, got ")
    with pytest.raises(ArtifactError, match="^" + where):
        g.load_container(path)


@pytest.mark.parametrize("value", ["x", ["quantizable"], None, "QUANTIZABLE"], ids=repr)
def test_container_node_precision_class_that_is_no_class(tmp_path, tiny_detector, value):
    path = tmp_path / "x.uir"
    g.save_container(tiny_detector, path)
    _edit_manifest(path, lambda m: m["nodes"][3].update(precision_class=value))
    where = re.escape(f"{path}: nodes: 3: precision_class: expected quantizable or plugin_only, "
                      f"got {json.dumps(value)}")
    with pytest.raises(ArtifactError, match="^" + where):
        g.load_container(path)


def test_container_node_without_a_precision_class_loads_as_quantizable(tmp_path, tiny_detector):
    path = tmp_path / "x.uir"
    g.save_container(tiny_detector, path)
    _edit_manifest(path, lambda m: m["nodes"][3].pop("precision_class"))
    assert g.load_container(path).nodes[3].precision_class == g.QUANTIZABLE


@pytest.mark.parametrize("field,value,expected", [
    ("class_names", 5, "a list of strings"), ("class_names", "car", "a list of strings"),
    ("class_names", ["car", 1], "a list of strings"), ("class_names", None, "a list of strings"),
    ("extra", [1], "a JSON object"), ("extra", "x", "a JSON object")], ids=repr)
def test_container_class_names_and_extra_of_the_wrong_type(tmp_path, field, value, expected):
    path = tmp_path / "x.uir"
    g.save_container(_small_weighted_graph(), path)
    _edit_manifest(path, lambda m: m["metadata"].update({field: value}))
    where = re.escape(f"{path}: metadata: {field}: expected {expected}, got ")
    with pytest.raises(ArtifactError, match="^" + where):
        g.load_container(path)


# edits of a from_range(-1.0, 3.0) record, and the field each one breaks
_BAD_QPARAMS = [
    ({"scale": 0}, "scale"), ({"scale": 4.0 / 255.0 * (1 + 2**-40)}, "scale"),
    ({"scale": "0.0157"}, "scale"), ({"scale": None}, "scale"),
    ({"zero_point": -96}, "zero_point"), ({"zero_point": -64.0}, "zero_point"),
    ({"zero_point": True}, "zero_point"), ({"lo": float("nan")}, "lo"),
    ({"hi": float("inf")}, "hi"), ({"lo": "-1"}, "lo"), ({"hi": None}, "hi"),
    ({"lo": 3.0}, "hi"), ({"lo": 5.0}, "hi"), ({"lo": True}, "lo")]


@pytest.mark.parametrize("edit,field", _BAD_QPARAMS, ids=repr)
def test_qparams_record_that_from_range_did_not_write(edit, field):
    record = {**g.QuantParams.from_range(-1.0, 3.0).to_dict(), **edit}
    where = re.escape(f"x.uir: qparams: conv0: {field}: expected ")
    with pytest.raises(ArtifactError, match="^" + where):
        g.QuantParams.from_dict(record, "x.uir", "qparams", "conv0")


def test_qparams_record_from_range_loads_as_written():
    for lo, hi in [(-1.0, 3.0), (0, 6), (-0.1234567, 1e-3), (-1e4, 1e4)]:
        qp = g.QuantParams.from_range(lo, hi)
        record = json.loads(json.dumps(qp.to_dict()))
        assert g.QuantParams.from_dict(record, "x.uir", "qparams", "t") == qp


def test_container_with_a_zero_input_scale_fails_to_load(tmp_path, tiny_quantized):
    """A scale that disagrees with lo and hi used to load, and an i8 run
    then divided by it and returned saturated heads."""
    path = tmp_path / "x.uir"
    g.save_container(tiny_quantized, path)
    assert g.load_container(path).qparams == tiny_quantized.qparams
    _edit_manifest(path, lambda m: m["qparams"]["input"].update(scale=0))
    where = re.escape(f"{path}: qparams: input: scale: expected ")
    with pytest.raises(ArtifactError, match="^" + where):
        g.load_container(path)


def test_container_weights_own_their_memory(tmp_path):
    path = tmp_path / "x.uir"
    g.save_container(_small_weighted_graph(), path)
    for arr in g.load_container(path).weights.values():
        assert arr.dtype == np.float32
        assert arr.flags.c_contiguous and arr.flags.owndata and arr.base is None


def test_container_load_holds_one_copy_of_the_weights(tmp_path):
    gr = _small_weighted_graph()
    big = 1 << 21  # 8 MiB of float32 kernel
    gr.nodes[0] = g.conv_node("c", ["input"], "c", out_ch=2, kernel=1, stride=1, pad=0,
                              has_bias=True)
    gr.input_shape = g.TensorShape(1, big // 2, 32, 32)
    gr.weights[("c", "kernel")] = np.ones(big, dtype=np.float32)
    path = tmp_path / "big.uir"
    g.save_container(gr, path)
    tracemalloc.start()
    try:
        loaded = g.load_container(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(loaded.weights[("c", "kernel")], gr.weights[("c", "kernel")])
    assert peak < 1.25 * big * 4


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_layers=st.integers(1, 5))
def test_container_roundtrip_random_graphs(tmp_path_factory, seed, n_layers):
    rng = np.random.default_rng(seed)
    nodes = []
    prev = "input"
    gr = g.Graph(nodes=nodes, input_shape=g.TensorShape(1, 2, 32, 32))
    for i in range(n_layers):
        nid = f"c{i}"
        in_c = 2 if i == 0 else 3
        nodes.append(g.conv_node(nid, [prev], nid, out_ch=3, kernel=1, stride=1,
                                 pad=0, has_bias=True))
        gr.weights[(nid, "kernel")] = rng.normal(size=3 * in_c).astype(np.float32)
        gr.weights[(nid, "bias")] = rng.normal(size=3).astype(np.float32)
        prev = nid
    tmp = tmp_path_factory.mktemp("rt")
    p1, p2 = tmp / "a.uir", tmp / "b.uir"
    g.save_container(gr, p1)
    g.save_container(g.load_container(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_qparams_boundary_mapping():
    qp = g.QuantParams.from_range(-1.0, 3.0)
    assert qp.quantize(np.array([-1.0]))[0] == -128
    assert qp.quantize(np.array([3.0]))[0] == 127
    assert -128 <= qp.zero_point <= 127


def _quantize_formula(qp, x):
    q = np.floor(np.asarray(x, dtype=np.float64) / qp.scale + 0.5) + qp.zero_point
    return np.clip(q, -128, 127).astype(np.int8)


@pytest.mark.parametrize("lo,hi", [(-16.0, 47.75), (-1.0, 1.0), (0.0, 6.0), (2.0, 3.0)])
def test_qparams_quantize_matches_formula_at_half_boundaries(lo, hi):
    """quantize/dequantize equal the plain float64 formulas bit for bit, at
    exact .5 boundaries (exact with the power-of-two scale 0.25 of the first
    range) and one ulp either side of them."""
    qp = g.QuantParams.from_range(lo, hi)
    halves = (np.arange(-700, 700) + 0.5) * qp.scale
    xs = np.concatenate([halves, np.nextafter(halves, -np.inf), np.nextafter(halves, np.inf)])
    for x in (xs, xs.astype(np.float32).reshape(3, 20, 70)):
        q = qp.quantize(x)
        assert q.dtype == np.int8 and q.shape == x.shape
        assert np.array_equal(q, _quantize_formula(qp, x))
        deq = ((q.astype(np.float64) - qp.zero_point) * qp.scale).astype(np.float32)
        assert np.array_equal(qp.dequantize(q), deq)
    if qp.scale == 0.25:
        assert np.array_equal(qp.quantize(halves[:3]), np.array([-128, -128, -128]))
        assert qp.quantize(0.125) == qp.zero_point + 1  # 0.5 rounds up


def test_qparams_scalar_return_types():
    qp = g.QuantParams.from_range(-1.0, 3.0)
    for x in (1.3, np.float32(1.3), np.array(1.3), 2):
        q = qp.quantize(x)
        assert isinstance(q, np.int8) and q == _quantize_formula(qp, x)
    for q in (np.int8(5), np.array(5, dtype=np.int8)):
        assert isinstance(qp.dequantize(q), np.float32)
    assert qp.quantize(np.array([1.3])).shape == (1,)


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=-50, max_value=49), st.floats(min_value=0.5, max_value=100))
def test_qparams_roundtrip_bound(lo, width):
    qp = g.QuantParams.from_range(lo, lo + width)
    xs = np.linspace(lo, lo + width, 257)
    err = np.abs(qp.dequantize(qp.quantize(xs)).astype(np.float64) - xs)
    # scale/2 quantization bound plus float32 representation error of the output
    assert err.max() <= qp.scale / 2 + np.abs(xs).max() * 2e-7 + 1e-12
