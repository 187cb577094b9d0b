import hashlib
import tracemalloc
import warnings

import numpy as np
import pytest

from jetforge import executor, fixtures, frontend, passes
from jetforge import graph as g


def random_conv_bn_net(rng, n_layers=None, channels=3, size=12):
    """Random conv(+bn)(+act) chain with occasional shortcut, plus weights."""
    n_layers = n_layers or int(rng.integers(3, 11))
    body = []
    same_shape_run = 0
    for _ in range(n_layers):
        bn = bool(rng.integers(2))
        act = rng.choice(["leaky", "relu", "linear"])
        stride = 1
        lines = ["[convolutional]"]
        if bn:
            lines.append("batch_normalize=1")
        lines += [f"filters={channels}", "size=3", f"stride={stride}", "pad=1",
                  f"activation={act}"]
        body.append("\n".join(lines))
        same_shape_run += 1
        if same_shape_run >= 2 and rng.random() < 0.3:
            body.append("[shortcut]\nfrom=-2")
    cfg = f"[net]\nwidth={size * 32}\nheight={size * 32}\nchannels={channels}\n" \
          + "\n\n".join(body) + "\n"
    gr = frontend.parse_cfg(cfg)
    gr = frontend.load_weights(fixtures.random_weights(gr, seed=int(rng.integers(1 << 30))), gr)
    # randomize bn stats away from identity; gains stay <= ~1 so values hold
    # the O(1) regime the fusion tolerances are stated for
    for node in gr.nodes:
        if node.kind == g.BATCHNORM:
            c = gr.weights[(node.id, "bn_gamma")].size
            gr.weights[(node.id, "bn_gamma")] = rng.uniform(0.5, 1.1, c).astype(np.float32)
            gr.weights[(node.id, "bn_beta")] = rng.uniform(-0.3, 0.3, c).astype(np.float32)
            gr.weights[(node.id, "bn_mean")] = rng.uniform(-0.3, 0.3, c).astype(np.float32)
            gr.weights[(node.id, "bn_var")] = rng.uniform(0.8, 2.0, c).astype(np.float32)
    return gr


def with_chains(gr, rng):
    """Insert a second batchnorm after some batchnorms, and a per-channel
    then a scalar scale after some convs. The original node's output is
    renamed so its consumers read the end of the inserted chain. Half the
    second batchnorms fork instead: an add reads both batchnorms, so the
    first one's output has two consumers."""
    nodes = []
    for node in gr.nodes:
        nodes.append(node)
        if node.kind not in (g.CONV, g.BATCHNORM) or rng.random() < 0.5:
            continue
        tail, node.output = node.output, f"{node.id}_pre"
        if node.kind == g.BATCHNORM:
            c = gr.weights[(node.id, "bn_gamma")].size
            fork = rng.random() < 0.5
            bn = g.LayerNode(f"{node.id}x", g.BATCHNORM, [node.output],
                             f"{node.id}x" if fork else tail, dict(node.attrs))
            for role, lo, hi in (("bn_gamma", 0.5, 1.1), ("bn_beta", -0.3, 0.3),
                                 ("bn_mean", -0.3, 0.3), ("bn_var", 0.8, 2.0)):
                gr.weights[(bn.id, role)] = rng.uniform(lo, hi, c).astype(np.float32)
            nodes.append(bn)
            if fork:
                nodes.append(g.LayerNode(f"{node.id}_y", g.ADD, [node.output, bn.output], tail))
        else:
            s1 = g.LayerNode(f"{node.id}_s1", g.SCALE, [node.output], f"{node.id}_s1")
            gr.weights[(s1.id, "scale_factors")] = rng.uniform(
                0.5, 1.5, node.attrs["out_ch"]).astype(np.float32)
            s2 = g.LayerNode(f"{node.id}_s2", g.SCALE, [s1.output], tail,
                             {"factor": float(rng.uniform(0.5, 1.5))})
            nodes.extend([s1, s2])
    gr.nodes = nodes
    assert g.validate(gr) == []
    return gr


# The restart-on-every-match passes that _fold_into_conv replaced, kept as
# the reference its single sweep must reproduce exactly.

def _rewire(nodes, old_tensor, new_tensor):
    for n in nodes:
        n.inputs = [new_tensor if t == old_tensor else t for t in n.inputs]


def _consumer_count(nodes, tensor):
    return sum(t == tensor for n in nodes for t in n.inputs)


def restart_fuse_conv_bn(graph):
    out = graph.copy()
    report = passes.PassReport("fuse-conv-bn", nodes_before=len(graph.nodes), nodes_after=0)
    macs_before = frontend.model_stats(graph).total_macs

    changed = True
    while changed:
        changed = False
        producers = {n.output: n for n in out.nodes}
        for bn in list(out.nodes):
            if bn.kind != g.BATCHNORM:
                continue
            conv = producers.get(bn.inputs[0])
            if conv is None or conv.kind != g.CONV or conv.attrs.get("act", g.LINEAR) != g.LINEAR:
                continue
            if _consumer_count(out.nodes, conv.output) != 1:
                continue
            gamma = out.weights[(bn.id, "bn_gamma")].astype(np.float64)
            beta = out.weights[(bn.id, "bn_beta")].astype(np.float64)
            mean = out.weights[(bn.id, "bn_mean")].astype(np.float64)
            var = out.weights[(bn.id, "bn_var")].astype(np.float64)
            inv = gamma / np.sqrt(var + bn.attrs["eps"])

            kernel = out.weights[(conv.id, "kernel")].astype(np.float64)
            oc = conv.attrs["out_ch"]
            kernel = (kernel.reshape(oc, -1) * inv[:, None]).reshape(-1)
            bias = out.weights.get((conv.id, "bias"))
            bias = bias.astype(np.float64) if bias is not None else np.zeros(oc)
            bias = (bias - mean) * inv + beta

            out.weights[(conv.id, "kernel")] = kernel.astype(np.float32)
            out.weights[(conv.id, "bias")] = bias.astype(np.float32)
            conv.attrs["has_bias"] = True
            for role in ("bn_gamma", "bn_beta", "bn_mean", "bn_var"):
                out.weights.pop((bn.id, role), None)
            out.nodes.remove(bn)
            _rewire(out.nodes, bn.output, conv.output)
            report.removed.append(bn.id)
            changed = True
            break

    changed = True
    while changed:
        changed = False
        producers = {n.output: n for n in out.nodes}
        for act in list(out.nodes):
            if act.kind != g.ACTIVATION or act.attrs["act"] not in (g.RELU, g.LINEAR):
                continue
            conv = producers.get(act.inputs[0])
            if conv is None or conv.kind != g.CONV or conv.attrs.get("act", g.LINEAR) != g.LINEAR:
                continue
            if _consumer_count(out.nodes, conv.output) != 1:
                continue
            conv.attrs["act"] = act.attrs["act"]
            out.nodes.remove(act)
            _rewire(out.nodes, act.output, conv.output)
            report.removed.append(act.id)
            changed = True
            break

    report.nodes_after = len(out.nodes)
    report.mac_delta = frontend.model_stats(out).total_macs - macs_before
    return out, report


def restart_fold_scale(graph):
    out = graph.copy()
    report = passes.PassReport("fold-scale", nodes_before=len(graph.nodes), nodes_after=0)
    macs_before = frontend.model_stats(graph).total_macs

    changed = True
    while changed:
        changed = False
        producers = {n.output: n for n in out.nodes}
        for scale in list(out.nodes):
            if scale.kind != g.SCALE:
                continue
            conv = producers.get(scale.inputs[0])
            if conv is None or conv.kind != g.CONV or conv.attrs.get("act", g.LINEAR) != g.LINEAR:
                continue
            if _consumer_count(out.nodes, conv.output) != 1:
                continue
            oc = conv.attrs["out_ch"]
            factor = scale.attrs.get("factor")
            if factor is not None:
                per_ch = np.full(oc, factor, dtype=np.float64)
            else:
                per_ch = out.weights[(scale.id, "scale_factors")].astype(np.float64)
            kernel = out.weights[(conv.id, "kernel")].astype(np.float64)
            kernel = (kernel.reshape(oc, -1) * per_ch[:, None]).reshape(-1)
            out.weights[(conv.id, "kernel")] = kernel.astype(np.float32)
            if conv.attrs["has_bias"]:
                bias = out.weights[(conv.id, "bias")].astype(np.float64)
                out.weights[(conv.id, "bias")] = (bias * per_ch).astype(np.float32)
            out.weights.pop((scale.id, "scale_factors"), None)
            out.nodes.remove(scale)
            _rewire(out.nodes, scale.output, conv.output)
            report.removed.append(scale.id)
            changed = True
            break

    report.nodes_after = len(out.nodes)
    report.mac_delta = frontend.model_stats(out).total_macs - macs_before
    return out, report


RESTART_PASSES = {**passes.PASSES, "fuse-conv-bn": restart_fuse_conv_bn,
                  "fold-scale": restart_fold_scale}

PASS_LISTS = (["fuse-conv-bn"], ["fold-scale"],
              ["fuse-conv-bn", "decompose-leaky", "fold-scale"],
              ["relu-swap", "fuse-conv-bn"],
              ["decompose-leaky", "fuse-conv-bn", "fold-scale"])


def assert_sweep_matches_restart(gr, names):
    swept, reports = passes.apply_passes(gr, names)
    want, want_reports = gr, []
    for name in names:
        want, report = RESTART_PASSES[name](want)
        want_reports.append(report)
    assert [r.to_dict() for r in reports] == [r.to_dict() for r in want_reports], names
    assert swept.nodes == want.nodes, names
    assert list(swept.weights) == list(want.weights), names
    for key, arr in want.weights.items():
        assert swept.weights[key].dtype == arr.dtype, key
        assert swept.weights[key].tobytes() == arr.tobytes(), key


def outputs_close(g1, g2, x, rtol=1e-4, atol=1e-6):
    """Head outputs of both graphs match; rewrites may rename terminal
    tensors, so outputs pair up positionally."""
    t1 = executor.execute(g1, x)
    t2 = executor.execute(g2, x)
    outs1, outs2 = g1.output_tensors(), g2.output_tensors()
    assert len(outs1) == len(outs2)
    for ta, tb in zip(outs1, outs2):
        np.testing.assert_allclose(t1.as_f32(ta), t2.as_f32(tb),
                                   rtol=rtol, atol=atol, err_msg=f"{ta} vs {tb}")


def test_fuse_identity_bn_keeps_kernel(rng):
    cfg = ("[net]\nwidth=32\nheight=32\nchannels=2\n"
           "[convolutional]\nbatch_normalize=1\nfilters=3\nsize=3\nstride=1\npad=1\n"
           "activation=leaky\n")
    gr = frontend.parse_cfg(cfg)
    gr = frontend.load_weights(fixtures.random_weights(gr, seed=5), gr)
    eps = gr.node_by_id("bn0").attrs["eps"]
    gr.weights[("bn0", "bn_var")] = np.full(3, 1.0 - eps, dtype=np.float32)
    kernel_before = gr.weights[("conv0", "kernel")].copy()
    fused, report = passes.fuse_conv_bn(gr)
    assert report.removed == ["bn0"]
    np.testing.assert_array_almost_equal_nulp(
        fused.weights[("conv0", "kernel")], kernel_before, nulp=1)
    assert np.allclose(fused.weights[("conv0", "bias")], 0.0)


def test_fuse_random_net_equivalence(rng):
    for _ in range(5):
        gr = random_conv_bn_net(rng, size=2)
        fused, _ = passes.fuse_conv_bn(gr)
        x = rng.normal(0, 0.5, size=tuple(gr.input_shape)).astype(np.float32)
        outputs_close(gr, fused, x, rtol=1e-5, atol=1e-6)


def test_fuse_yolov3_removes_72_bns(yolov3_weighted):
    fused, report = passes.fuse_conv_bn(yolov3_weighted)
    assert report.nodes_before - report.nodes_after == 72
    assert len(report.removed) == 72
    assert all(rid.startswith("bn") for rid in report.removed)
    assert report.mac_delta == 0
    assert g.validate(fused) == []


def test_decompose_scalar_semantics():
    # the emitted subgraph evaluated in float64: s = a*x; y = s + ((1-a)/a)*relu(s)
    act = g.activation_node("L", ["input"], "L", g.LEAKY, 0.1)
    gr = g.Graph(nodes=[act], input_shape=g.TensorShape(1, 1, 32, 32))
    rewritten, report = passes.decompose_leaky(gr)
    assert report.created == ["L_s", "L_r", "L_e", "L_y"]
    s_factor = rewritten.node_by_id("L_s").attrs["factor"]
    e_factor = rewritten.node_by_id("L_e").attrs["factor"]
    for x in (-2.0, 1.0, 0.0, 37.5):
        s = s_factor * x
        y = s + e_factor * max(s, 0.0)
        want = x if x >= 0 else 0.1 * x
        assert abs(y - want) < 1e-7
    assert abs(s_factor * -2.0 - (-0.2)) < 1e-12


def test_decompose_yolov3_counts(yolov3_weighted):
    rewritten, report = passes.decompose_leaky(yolov3_weighted)
    assert len(report.created) == 72 * 4 == 288
    assert len(report.removed) == 72
    assert report.nodes_after - report.nodes_before == 72 * 3
    assert g.validate(rewritten) == []


def test_decompose_alpha_out_of_range():
    act = g.activation_node("L", ["input"], "L", g.LEAKY, 0.1)
    act.attrs["alpha"] = 0.0
    gr = g.Graph(nodes=[act], input_shape=g.TensorShape(1, 1, 32, 32))
    with pytest.raises(passes.AlphaOutOfRange):
        passes.decompose_leaky(gr)


def test_fold_scale_arithmetic():
    conv = g.conv_node("c", ["input"], "c", out_ch=1, kernel=1, stride=1, pad=0,
                       has_bias=True)
    scale = g.LayerNode("s", g.SCALE, ["c"], "s", {"factor": 0.1})
    gr = g.Graph(nodes=[conv, scale], input_shape=g.TensorShape(1, 2, 32, 32))
    gr.weights[("c", "kernel")] = np.array([2.0, -4.0], dtype=np.float32)
    gr.weights[("c", "bias")] = np.array([1.0], dtype=np.float32)
    folded, report = passes.fold_scale_into_conv(gr)
    assert report.removed == ["s"]
    np.testing.assert_allclose(folded.weights[("c", "kernel")], [0.2, -0.4], atol=1e-9)
    np.testing.assert_allclose(folded.weights[("c", "bias")], [0.1], atol=1e-9)

    # scalar 1.0 leaves the kernel unchanged
    gr.weights[("c", "kernel")] = np.array([2.0, -4.0], dtype=np.float32)
    scale.attrs["factor"] = 1.0
    folded, _ = passes.fold_scale_into_conv(gr)
    np.testing.assert_array_equal(folded.weights[("c", "kernel")], [2.0, -4.0])


def test_fold_after_decompose_yolov3(yolov3_weighted):
    fused, _ = passes.fuse_conv_bn(yolov3_weighted)
    decomposed, _ = passes.decompose_leaky(fused)
    folded, report = passes.fold_scale_into_conv(decomposed)
    assert len(report.removed) == 72  # exactly the alpha scales fold
    # each former leaky node is now exactly three nodes: relu, scale, add
    assert len(folded.nodes) == len(fused.nodes) + 2 * 72
    for former in (n.id for n in yolov3_weighted.nodes
                   if n.kind == g.ACTIVATION and n.attrs["act"] == g.LEAKY):
        survivors = [n.id for n in folded.nodes if n.id.startswith(former + "_")]
        assert sorted(survivors) == sorted([f"{former}_r", f"{former}_e", f"{former}_y"])


def test_plan_precision_counts(yolov3_graph):
    plan = passes.plan_precision(yolov3_graph, passes.I8, passes.LEAKY_AS_PLUGIN)
    assert plan.conversion_count == 144

    plan_f16 = passes.plan_precision(yolov3_graph, passes.F16, passes.LEAKY_AS_PLUGIN)
    assert plan_f16.conversion_count == 144


def test_plan_precision_native_decomposed(yolov3_weighted):
    rewritten, _ = passes.decompose_leaky(yolov3_weighted)
    plan = passes.plan_precision(rewritten, passes.I8, passes.LEAKY_NATIVE)
    assert plan.conversion_count == 0


def test_plan_single_conv_no_conversions():
    conv = g.conv_node("c", ["input"], "c", out_ch=1, kernel=1, stride=1, pad=0,
                       has_bias=True)
    gr = g.Graph(nodes=[conv], input_shape=g.TensorShape(1, 1, 32, 32))
    plan = passes.plan_precision(gr, passes.F16)
    assert plan.conversion_count == 0


def test_plan_chain_conversions_two_per_interior_plugin():
    """On chains, conversions = 2 x interior plugin count (plugins apart)."""
    rng = np.random.default_rng(9)
    for _ in range(10):
        n = int(rng.integers(4, 10))
        plugin_at = sorted(rng.choice(np.arange(1, n - 1), size=rng.integers(1, 3),
                                      replace=False))
        # keep plugins non-adjacent so each has quantizable neighbors both sides
        plugin_at = [p for i, p in enumerate(plugin_at) if i == 0 or p - plugin_at[i - 1] > 1]
        nodes = []
        prev = "input"
        for i in range(n):
            node = g.activation_node(f"n{i}", [prev], f"n{i}", g.RELU)
            if i in plugin_at:
                node.precision_class = g.PLUGIN_ONLY
            nodes.append(node)
            prev = f"n{i}"
        gr = g.Graph(nodes=nodes, input_shape=g.TensorShape(1, 1, 32, 32))
        plan = passes.plan_precision(gr, passes.I8)
        assert plan.conversion_count == 2 * len(plugin_at)


def test_plan_shared_tensor_converts_once():
    """A pinned node's output feeding two quantized consumers converts once."""
    pinned = g.activation_node("p", ["input"], "p", g.LEAKY, 0.1)
    c1 = g.activation_node("c1", ["p"], "c1", g.RELU)
    c2 = g.activation_node("c2", ["p"], "c2", g.RELU)
    gr = g.Graph(nodes=[pinned, c1, c2], input_shape=g.TensorShape(1, 1, 32, 32))
    plan = passes.plan_precision(gr, passes.I8, passes.LEAKY_AS_PLUGIN)
    assert plan.conversion_count == 1  # p's output once; p has no producer edge


def test_relu_swap(yolov3_weighted, rng):
    swapped, report = passes.replace_leaky_with_relu(yolov3_weighted)
    relus = [n for n in swapped.nodes
             if n.kind == g.ACTIVATION and n.attrs["act"] == g.RELU]
    assert len(relus) == 72
    assert report.warnings and "retraining" in report.warnings[0]

    # no leaky -> unchanged, no warning
    again, report2 = passes.replace_leaky_with_relu(swapped)
    assert not report2.warnings

    # sanity negative-test: outputs differ on negative inputs
    act = g.activation_node("L", ["input"], "L", g.LEAKY, 0.1)
    gr = g.Graph(nodes=[act], input_shape=g.TensorShape(1, 1, 32, 32))
    swapped_tiny, _ = passes.replace_leaky_with_relu(gr)
    x = np.full((1, 1, 32, 32), -1.0, dtype=np.float32)
    a = executor.execute(gr, x).as_f32("L")
    b = executor.execute(swapped_tiny, x).as_f32("L")
    assert not np.allclose(a, b)


def test_pass_idempotence(rng):
    gr = random_conv_bn_net(rng, size=1)
    for name in ("fuse-conv-bn", "decompose-leaky", "fold-scale", "relu-swap"):
        once, _ = passes.PASSES[name](gr)
        twice, report = passes.PASSES[name](once)
        assert len(twice.nodes) == len(once.nodes), name
        assert not report.removed and not report.created, name
        x = rng.normal(0, 0.3, size=tuple(gr.input_shape)).astype(np.float32)
        outputs_close(once, twice, x, rtol=0, atol=0)


def scale_chain():
    """conv c -> scale s1 (factor 2) -> scale s2 (factor 3), listed in
    dataflow order."""
    conv = g.conv_node("c", ["input"], "c", out_ch=4, kernel=3, stride=1, pad=1,
                       has_bias=False)
    s1 = g.LayerNode("s1", g.SCALE, ["c"], "s1", {"factor": 2.0})
    s2 = g.LayerNode("s2", g.SCALE, ["s1"], "s2", {"factor": 3.0})
    gr = g.Graph(nodes=[conv, s1, s2], input_shape=g.TensorShape(1, 2, 32, 32))
    gr.weights[("c", "kernel")] = np.full(4 * 2 * 9, 0.1, dtype=np.float32)
    return gr


def assert_same_nodes_and_weights(got, want, what):
    """The same nodes, in any list order, and the same weight bytes."""
    assert (sorted(got.nodes, key=lambda n: n.id)
            == sorted(want.nodes, key=lambda n: n.id)), what
    assert weights_digest(got) == weights_digest(want), what


def test_every_pass_gives_the_sorted_lists_result_on_any_order_of_the_node_list(
        tiny_detector, rng):
    """A fold used to follow the node list, so on [s2, s1, c] fold-scale
    folded s1 alone (kernel x2), and a second run s2 (x6)."""
    chain = scale_chain()
    cases = [(chain, [chain.nodes[i] for i in (2, 1, 0)])]
    for _ in range(3):
        chained = with_chains(tiny_detector.copy(), rng)
        cases += [(chained, [chained.nodes[i] for i in rng.permutation(len(chained.nodes))])
                  for _ in range(3)]
    for ordered, nodes in cases:
        shuffled = ordered.copy()
        shuffled.nodes = [n.copy() for n in nodes]
        for name, run in passes.PASSES.items():
            once, _ = run(shuffled)
            assert_same_nodes_and_weights(once, run(ordered)[0], name)
            assert_same_nodes_and_weights(run(once)[0], once, name)


def test_pass_composition_preserves_semantics(rng):
    for _ in range(5):
        gr = random_conv_bn_net(rng, size=2)
        rewritten, _ = passes.apply_passes(
            gr, ["fuse-conv-bn", "decompose-leaky", "fold-scale"])
        for _ in range(3):
            x = rng.normal(0, 0.5, size=tuple(gr.input_shape)).astype(np.float32)
            outputs_close(gr, rewritten, x)


def test_pass_report_accounting(yolov3_weighted):
    for name in ("fuse-conv-bn", "decompose-leaky", "fold-scale"):
        graph, report = passes.PASSES[name](yolov3_weighted)
        assert report.nodes_after == len(graph.nodes)
        assert (report.nodes_after
                == report.nodes_before - len(report.removed) + len(report.created))


def test_fuse_never_increases_nodes(rng):
    for _ in range(5):
        gr = random_conv_bn_net(rng, size=1)
        fused, _ = passes.fuse_conv_bn(gr)
        assert len(fused.nodes) <= len(gr.nodes)
        folded, _ = passes.fold_scale_into_conv(fused)
        assert len(folded.nodes) <= len(fused.nodes)


def test_relu_variant_fuses_fully(yolov3_weighted):
    swapped, _ = passes.replace_leaky_with_relu(yolov3_weighted)
    fused, _ = passes.fuse_conv_bn(swapped)
    # conv+bn+relu blocks collapse into single conv nodes
    assert len(fused.nodes) == 105
    kinds = {n.kind for n in fused.nodes}
    assert g.ACTIVATION not in kinds and g.BATCHNORM not in kinds


def test_sweep_matches_restart_loops_on_random_nets(rng):
    def inserted(gr):
        return {n.id for n in gr.nodes if n.id.endswith(("x", "_s1", "_s2"))}

    folded = set()
    for _ in range(12):
        gr = with_chains(random_conv_bn_net(rng, size=1), rng)
        for names in PASS_LISTS:
            assert_sweep_matches_restart(gr, names)
        rewritten, _ = passes.apply_passes(gr, ["fuse-conv-bn", "fold-scale"])
        folded |= inserted(gr) - inserted(rewritten)
    # both links of bn->bn and scale->scale chains were folded somewhere
    assert {i[-1] for i in folded} >= {"x", "1", "2"}


def test_sweep_matches_restart_loops_on_yolov3(yolov3_weighted):
    for names in PASS_LISTS[2:4]:
        assert_sweep_matches_restart(yolov3_weighted, names)


def test_each_fold_allocates_about_one_kernel(rng):
    """A fold writes the float64 products straight into the new float32
    kernel: folding a batchnorm, then a per-channel scale, into a conv of
    1.2M weights peaks below 2x the kernel's bytes above what is held, and
    the result equals the restart loops' float64 round trip byte for byte."""
    oc, ic, k = 256, 512, 3
    conv = g.conv_node("c", ["input"], "c", out_ch=oc, kernel=k, stride=1, pad=1,
                       has_bias=False)
    bn = g.LayerNode("bn", g.BATCHNORM, ["c"], "bn", {"eps": 1e-5})
    scale = g.LayerNode("s", g.SCALE, ["bn"], "s")
    gr = g.Graph(nodes=[conv, bn, scale], input_shape=g.TensorShape(1, ic, 32, 32))
    gr.weights[("c", "kernel")] = rng.normal(0, 0.1, oc * ic * k * k).astype(np.float32)
    for role, lo, hi in (("bn_gamma", 0.5, 1.1), ("bn_beta", -0.3, 0.3),
                         ("bn_mean", -0.3, 0.3), ("bn_var", 0.8, 2.0)):
        gr.weights[("bn", role)] = rng.uniform(lo, hi, oc).astype(np.float32)
    gr.weights[("s", "scale_factors")] = rng.uniform(0.5, 1.5, oc).astype(np.float32)
    kernel_bytes = gr.weights[("c", "kernel")].nbytes
    assert kernel_bytes >= 4 * 10**6

    peaks, folded = [], gr
    tracemalloc.start()
    try:
        for fold in (passes.fuse_conv_bn, passes.fold_scale_into_conv):
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            folded, report = fold(folded)
            peaks.append(tracemalloc.get_traced_memory()[1] - held)
            assert len(report.removed) == 1
    finally:
        tracemalloc.stop()
    assert [n.id for n in folded.nodes] == ["c"]
    assert max(peaks) < 2 * kernel_bytes, [p / kernel_bytes for p in peaks]
    assert_sweep_matches_restart(gr, ["fuse-conv-bn", "fold-scale"])


def test_passes_never_write_weight_arrays(rng):
    """Copies share weight arrays, so passes must not write them in place:
    every pass runs on read-only arrays and leaves its input unchanged."""
    for model in (with_chains(random_conv_bn_net(rng, size=1), rng),
                  fixtures.build_tiny_detector()):
        for arr in model.weights.values():
            arr.flags.writeable = False
        nodes_before = [n.copy() for n in model.nodes]
        weights_before = {k: v.tobytes() for k, v in model.weights.items()}

        copy = model.copy()
        assert all(copy.weights[k] is v for k, v in model.weights.items())
        for a, b in zip(copy.nodes, model.nodes):
            assert a == b and a is not b
            assert a.inputs is not b.inputs and a.attrs is not b.attrs

        for names in PASS_LISTS + (["relu-swap"], ["decompose-leaky"]):
            passes.apply_passes(model, names)
        assert model.nodes == nodes_before
        assert {k: v.tobytes() for k, v in model.weights.items()} == weights_before


def test_loaded_and_folded_weights_are_read_only(rng, tmp_path):
    """Program.matches trusts that weights are never written in place: a
    weight load_container reads, a kernel fuse-conv-bn binds and a bias
    fold-scale binds each raise ValueError on a write."""
    oc = 4
    conv = g.conv_node("c", ["input"], "c", out_ch=oc, kernel=3, stride=1, pad=1,
                       has_bias=False)
    bn = g.LayerNode("bn", g.BATCHNORM, ["c"], "bn", {"eps": 1e-5})
    scale = g.LayerNode("s", g.SCALE, ["bn"], "s")
    gr = g.Graph(nodes=[conv, bn, scale], input_shape=g.TensorShape(1, 2, 32, 32))
    gr.weights[("c", "kernel")] = rng.normal(0, 0.1, oc * 2 * 9).astype(np.float32)
    for role in ("bn_gamma", "bn_beta", "bn_mean", "bn_var"):
        gr.weights[("bn", role)] = rng.uniform(0.5, 1.5, oc).astype(np.float32)
    gr.weights[("s", "scale_factors")] = rng.uniform(0.5, 1.5, oc).astype(np.float32)
    g.save_container(gr, tmp_path / "m.uir")
    loaded = g.load_container(tmp_path / "m.uir")
    fused, _ = passes.fuse_conv_bn(loaded)
    folded, _ = passes.fold_scale_into_conv(fused)
    for weights, key in ((loaded.weights, ("bn", "bn_var")), (fused.weights, ("c", "kernel")),
                         (folded.weights, ("c", "bias"))):
        with pytest.raises(ValueError, match="read-only"):
            weights[key][0] = 1.0


# --------------------------------------------------------------------------
# folds that are not finite, and the folded weights pinned
# --------------------------------------------------------------------------

def test_a_batchnorm_eps_below_zero_is_refused_by_validate_and_by_the_fold(tiny_detector):
    gr = tiny_detector.copy()
    gr.node_by_id("bn0").attrs["eps"] = -10.0
    assert g.Diagnostic("bn0", "attrs: eps: expected a positive number, got -10.0") \
        in g.validate(gr)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(g.GraphError,
                           match=r"^bn0: attrs: eps: expected a positive number, got -10\.0$"):
            passes.apply_passes(gr, ["fuse-conv-bn"])


def conv_then(kind, out_ch=4, in_ch=2, **values):
    """A conv without bias, kernel values 0.1, read by one batchnorm (beta,
    mean and var 0, gamma 1) or per-channel scale (factors 1); `values`
    replaces any of these weights, by role, with one value per channel."""
    conv = g.conv_node("c", ["input"], "c", out_ch=out_ch, kernel=3, stride=1, pad=1,
                       has_bias=False)
    defaults = ({"bn_gamma": 1.0, "bn_beta": 0.0, "bn_mean": 0.0, "bn_var": 0.0}
                if kind == g.BATCHNORM else {"scale_factors": 1.0})
    node = g.LayerNode("n", kind, ["c"], "n", {"eps": 1e-5} if kind == g.BATCHNORM else {})
    gr = g.Graph(nodes=[conv, node], input_shape=g.TensorShape(1, in_ch, 8, 8))
    gr.weights[("c", "kernel")] = np.full(out_ch * in_ch * 9, 0.1, dtype=np.float32)
    for role, value in {**defaults, **values}.items():
        gr.weights[("n", role)] = np.full(out_ch, value, dtype=np.float32)
    return gr


@pytest.mark.parametrize("kind,values,fault", [
    (g.BATCHNORM, {"bn_gamma": 3e38}, "a scaled kernel value is not finite in float32"),
    (g.BATCHNORM, {"bn_gamma": 3e38, "bn_mean": 1.0}, "its bias is not finite"),
    (g.BATCHNORM, {"bn_var": np.nan}, "its multiplier is not finite"),
    (g.SCALE, {"scale_factors": np.inf}, "its multiplier is not finite")],
    ids=["bn-kernel-overflow", "bn-bias-overflow", "bn-nan-var", "scale-inf"])
def test_a_fold_that_is_not_finite_names_the_conv_and_the_folded_node(kind, values, fault):
    """gamma 3e38 over sqrt(eps) is finite in float64, but a kernel value
    0.1 times it is not finite in float32, nor is the bias -mean times it."""
    gr = conv_then(kind, **values)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(passes.PassError, match=f"^folding n into c: {fault}$"):
            passes.apply_passes(gr, ["fuse-conv-bn", "fold-scale"])


THREE_PASSES = ["fuse-conv-bn", "decompose-leaky", "fold-scale"]
# sha256 over every weight, in sorted (node, role) order, after THREE_PASSES
FOLDED_DIGESTS = {
    "tiny": "0be597987b96e4ab8737f8e9aac28954a6bc1a102949f2e5e27c9193c8bf16d7",
    "yolov3-160x96": "c0d9eac92229579f0ed5dce7a4c686688305e4f4a1fba7bc3e6fc6e87dda12be",
}


def weights_digest(gr) -> str:
    h = hashlib.sha256()
    for (node, role), arr in sorted(gr.weights.items()):
        h.update(f"{node}/{role}:".encode())
        h.update(arr.tobytes())
    return h.hexdigest()


@pytest.fixture(scope="module")
def yolov3_160x96():
    gr = frontend.parse_cfg(fixtures.yolov3_cfg(160, 96))
    return frontend.load_weights(fixtures.random_weights(gr, seed=3), gr)


@pytest.mark.parametrize("cpus", [1, 2])
def test_the_folded_weights_are_pinned_whether_folds_run_in_one_block_or_two(
        tiny_detector, yolov3_160x96, cpus, monkeypatch):
    """The folds are elementwise IEEE operations, so these digests hold on
    any machine. On two CPUs 39 of yolov3's 75 kernels (those of at least
    2**18 values) fold in two blocks, each once per fold pass; the tiny
    detector's never split."""
    monkeypatch.setattr(executor, "cpus", lambda: cpus)
    blocks, in_blocks = [], executor._in_blocks

    def counted(fn, bounds):
        blocks.append(len(bounds) - 1)
        in_blocks(fn, bounds)
    monkeypatch.setattr(executor, "_in_blocks", counted)
    for name, model in (("tiny", tiny_detector), ("yolov3-160x96", yolov3_160x96)):
        blocks.clear()
        folded, _ = passes.apply_passes(model, THREE_PASSES)
        assert weights_digest(folded) == FOLDED_DIGESTS[name]
        split = 0 if name == "tiny" or cpus == 1 else 2 * 39
        assert blocks.count(2) == split and blocks.count(1) == len(blocks) - split
