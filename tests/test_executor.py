import hashlib
import threading
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jetforge import executor
from jetforge import graph as g


def one_conv_graph(kernel, bias=None, stride=1, pad=1, act=g.LINEAR, in_shape=(1, 1, 32, 32)):
    kernel = np.asarray(kernel, dtype=np.float32)
    out_ch, in_c, k, _ = kernel.shape
    node = g.conv_node("c", ["input"], "c", out_ch=out_ch, kernel=k, stride=stride,
                       pad=pad, has_bias=bias is not None, act=act,
                       alpha=0.1 if act == g.LEAKY else None)
    gr = g.Graph(nodes=[node], input_shape=g.TensorShape(*in_shape))
    gr.weights[("c", "kernel")] = kernel.reshape(-1)
    if bias is not None:
        gr.weights[("c", "bias")] = np.asarray(bias, dtype=np.float32)
    return gr


def test_identity_convolution():
    kernel = np.zeros((1, 1, 3, 3), dtype=np.float32)
    kernel[0, 0, 1, 1] = 1.0
    gr = one_conv_graph(kernel, bias=[0.0])
    x = np.random.default_rng(0).normal(size=(1, 1, 32, 32)).astype(np.float32)
    trace = executor.execute(gr, x)
    assert np.array_equal(trace.as_f32("c"), x)


def test_two_channel_dot_product():
    # weights [2, -1] over 2 input channels: out = 2*x1 - x2 at every pixel
    kernel = np.array([[[[2.0]], [[-1.0]]]], dtype=np.float32)
    gr = one_conv_graph(kernel, pad=0, in_shape=(1, 2, 32, 32))
    rng = np.random.default_rng(1)
    x = rng.normal(size=(1, 2, 32, 32)).astype(np.float32)
    got = executor.execute(gr, x).as_f32("c")
    want = 2.0 * x[:, :1] - x[:, 1:2]
    assert np.allclose(got, want, atol=1e-6)
    # and a 2x2 hand-check
    hand = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32)
    x[0, 0, :2, :2] = hand
    x[0, 1, :2, :2] = hand * 10
    got = executor.execute(gr, x).as_f32("c")
    assert np.allclose(got[0, 0, :2, :2], 2 * hand - 10 * hand, atol=1e-6)


def test_f16_rounds_2049_to_2048():
    kernel = np.ones((1, 1, 1, 1), dtype=np.float32)
    gr = one_conv_graph(kernel, pad=0)
    x = np.full((1, 1, 32, 32), 2049.0, dtype=np.float32)
    got = executor.execute(gr, x, mode=executor.F16).as_f32("c")
    assert np.all(got == 2048.0)


def test_leaky_values():
    assert executor.leaky(-2.0, 0.1) == pytest.approx(-0.2)
    assert executor.leaky(3.0, 0.1) == 3.0
    assert executor.leaky(0.0, 0.1) == 0.0


def test_upsample_replication():
    x = np.array([[[[7.0]]]], dtype=np.float32)
    assert np.array_equal(executor.upsample_nearest(x, 2),
                          np.full((1, 1, 2, 2), 7.0, dtype=np.float32))
    x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]], dtype=np.float32)
    want = np.array([[[[1, 1, 2, 2], [1, 1, 2, 2], [3, 3, 4, 4], [3, 3, 4, 4]]]],
                    dtype=np.float32)
    assert np.array_equal(executor.upsample_nearest(x, 2), want)


def test_batchnorm_formula():
    x = np.full((1, 1, 2, 2), 5.0, dtype=np.float32)
    eps = 1e-6

    def batchnorm(gamma, beta, mean, var):
        node = g.LayerNode("bn", g.BATCHNORM, ["input"], "bn", {"eps": eps})
        gr = g.Graph(nodes=[node], input_shape=g.TensorShape(1, 1, 2, 2))
        for role, value in zip(g.KINDS[g.BATCHNORM].roles, (gamma, beta, mean, var)):
            gr.weights[("bn", role)] = np.array([value], dtype=np.float32)
        return executor.execute(gr, x).as_f32("bn")

    # gamma=2, beta=1, mean=3, var=4-eps: 2*(5-3)/2 + 1 = 3
    got = batchnorm(2.0, 1.0, 3.0, 4.0 - eps)
    assert np.allclose(got, 3.0, atol=1e-6)
    # identity parameters
    got = batchnorm(1.0, 0.0, 0.0, 1.0 - eps)
    assert np.allclose(got, x, atol=1e-6)
    # var=0 stays finite thanks to eps
    got = batchnorm(1.0, 0.0, 0.0, 0.0)
    assert np.all(np.isfinite(got))


def test_maxpool():
    x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
    node = g.LayerNode("p", g.MAXPOOL, ["input"], "p", {"kernel": 2, "stride": 2})
    gr = g.Graph(nodes=[node], input_shape=g.TensorShape(1, 1, 4, 4))
    got = executor.execute(gr, x).as_f32("p")
    assert np.array_equal(got[0, 0], [[5, 7], [13, 15]])


def test_execution_is_deterministic(tiny_detector, rng):
    x = rng.normal(0.3, 0.1, size=(1, 3, 64, 96)).astype(np.float32)
    t1 = executor.execute(tiny_detector, x)
    t2 = executor.execute(tiny_detector, x)
    for key in t1.buffers:
        assert np.array_equal(t1.buffers[key].data, t2.buffers[key].data)


def _forward_by_hand(gr, x):
    """Independent nested-loop forward for small graphs (oracle)."""
    tensors = {gr.input_id: np.asarray(x, dtype=np.float64)}
    for node in gr.nodes:
        a = node.attrs
        if node.kind == g.CONV:
            src = tensors[node.inputs[0]]
            _, c, h, w = src.shape
            k, s, p = a["kernel"], a["stride"], a["pad"]
            oh = (h + 2 * p - k) // s + 1
            ow = (w + 2 * p - k) // s + 1
            kernel = gr.weights[(node.id, "kernel")].astype(np.float64).reshape(
                a["out_ch"], c, k, k)
            out = np.zeros((1, a["out_ch"], oh, ow))
            padded = np.pad(src, ((0, 0), (0, 0), (p, p), (p, p)))
            for o in range(a["out_ch"]):
                for i in range(oh):
                    for j in range(ow):
                        acc = 0.0
                        for ci in range(c):
                            for ki in range(k):
                                for kj in range(k):
                                    acc += (kernel[o, ci, ki, kj]
                                            * padded[0, ci, i * s + ki, j * s + kj])
                        out[0, o, i, j] = acc
            if a["has_bias"]:
                out += gr.weights[(node.id, "bias")].astype(np.float64)[None, :, None, None]
            if a.get("act") == g.LEAKY:
                out = np.where(out >= 0, out, a["alpha"] * out)
            elif a.get("act") == g.RELU:
                out = np.maximum(out, 0)
            tensors[node.output] = out
        elif node.kind == g.BATCHNORM:
            src = tensors[node.inputs[0]]
            gamma = gr.weights[(node.id, "bn_gamma")].astype(np.float64)
            beta = gr.weights[(node.id, "bn_beta")].astype(np.float64)
            mean = gr.weights[(node.id, "bn_mean")].astype(np.float64)
            var = gr.weights[(node.id, "bn_var")].astype(np.float64)
            out = (gamma[None, :, None, None] * (src - mean[None, :, None, None])
                   / np.sqrt(var[None, :, None, None] + a["eps"])
                   + beta[None, :, None, None])
            tensors[node.output] = out
        elif node.kind == g.ACTIVATION:
            src = tensors[node.inputs[0]]
            if a["act"] == g.LEAKY:
                tensors[node.output] = np.where(src >= 0, src, a["alpha"] * src)
            elif a["act"] == g.RELU:
                tensors[node.output] = np.maximum(src, 0)
            else:
                tensors[node.output] = src
        elif node.kind == g.ADD:
            tensors[node.output] = sum(tensors[t] for t in node.inputs)
        elif node.kind == g.MAXPOOL:
            src = tensors[node.inputs[0]]
            k, s = a["kernel"], a["stride"]
            _, c, h, w = src.shape
            oh, ow = (h - k) // s + 1, (w - k) // s + 1
            out = np.zeros((1, c, oh, ow))
            for ci in range(c):
                for i in range(oh):
                    for j in range(ow):
                        out[0, ci, i, j] = src[0, ci, i * s:i * s + k, j * s:j * s + k].max()
            tensors[node.output] = out
        else:
            raise AssertionError(node.kind)
    return tensors


def test_f32_matches_hand_forward_six_layers(rng):
    """Reference executor vs an independent nested-loop forward."""
    from jetforge import fixtures, frontend
    cfg = """
[net]
width=32
height=32
channels=2

[convolutional]
batch_normalize=1
filters=3
size=3
stride=1
pad=1
activation=leaky

[convolutional]
batch_normalize=1
filters=3
size=3
stride=2
pad=1
activation=leaky

[convolutional]
filters=2
size=1
stride=1
activation=linear

[shortcut]
from=-1

[maxpool]
size=2
stride=2

[convolutional]
filters=1
size=1
stride=1
activation=leaky
"""
    gr = frontend.parse_cfg(cfg)
    gr = frontend.load_weights(fixtures.random_weights(gr, seed=3), gr)
    # give batchnorm stats some spread so the test is not identity-only
    # (attenuating values keep both sides in the O(1) regime of the 1e-6 bound)
    gr.weights[("bn0", "bn_gamma")] = np.array([0.9, 0.5, 0.7], dtype=np.float32)
    gr.weights[("bn0", "bn_mean")] = np.array([0.1, -0.2, 0.0], dtype=np.float32)
    gr.weights[("bn0", "bn_var")] = np.array([1.0, 2.0, 1.5], dtype=np.float32)
    x = rng.normal(0.0, 0.5, size=(1, 2, 32, 32)).astype(np.float32)
    trace = executor.execute(gr, x)
    oracle = _forward_by_hand(gr, x)
    for tid in oracle:
        if tid == "input":
            continue
        np.testing.assert_allclose(trace.as_f32(tid), oracle[tid], atol=1e-6,
                                   err_msg=tid)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=-60000, max_value=60000), min_size=1, max_size=16))
def test_f16_fixed_point_on_representable(values):
    """f16 rounding is the identity for values already on the binary16 grid."""
    grid = np.array(values, dtype=np.float32).astype(np.float16).astype(np.float32)
    again = executor._f16(grid)
    assert np.array_equal(grid, again)


def test_nonfinite_detected():
    kernel = np.full((1, 1, 1, 1), 1e30, dtype=np.float32)
    chain = [
        g.conv_node("c1", ["input"], "c1", 1, 1, 1, 0, has_bias=False),
        g.conv_node("c2", ["c1"], "c2", 1, 1, 1, 0, has_bias=False),
    ]
    gr = g.Graph(nodes=chain, input_shape=g.TensorShape(1, 1, 32, 32))
    gr.weights[("c1", "kernel")] = kernel.reshape(-1)
    gr.weights[("c2", "kernel")] = kernel.reshape(-1)
    x = np.full((1, 1, 32, 32), 1e30, dtype=np.float32)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(executor.NonFiniteDetected,
                           match=r"^non-finite values in output of node 'c1'$"):
            executor.execute(gr, x)


@pytest.mark.parametrize("factor", [1e30, None], ids=["attr", "weights"])
def test_an_f32_scale_that_overflows_is_named_without_a_warning(factor):
    """3e38 is near float32's largest value; scaled by 1e30 it overflows
    to inf, and the node is named instead of numpy warning."""
    attrs = {} if factor is None else {"factor": factor}
    gr = g.Graph(nodes=[g.LayerNode("s", g.SCALE, ["input"], "s", attrs)],
                 input_shape=g.TensorShape(1, 2, 32, 32))
    if factor is None:
        gr.weights[("s", "scale_factors")] = np.array([1.0, 1e30], dtype=np.float32)
    x = np.full((1, 2, 32, 32), 3e38, dtype=np.float32)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(executor.NonFiniteDetected,
                           match=r"^non-finite values in output of node 's'$"):
            executor.execute(gr, x)


def test_a_split_gemm_that_overflows_is_named_without_a_warning(monkeypatch):
    """The row blocks that worker threads compute overflow as the
    caller's block does, and warn nothing either."""
    monkeypatch.setattr(executor, "gemm_parts", lambda: 2)
    gr = one_conv_graph(np.full((64, 64, 3, 3), 1e20), in_shape=(1, 64, 64, 64))
    assert executor._split_rows(64 * 64, 64 * 9, 64) is not None
    x = np.full((1, 64, 64, 64), 1e20, dtype=np.float32)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(executor.NonFiniteDetected,
                           match=r"^non-finite values in output of node 'c'$"):
            executor.execute(gr, x)


@pytest.mark.parametrize("mode", executor.MODES)
@pytest.mark.parametrize("retention", [executor.RETAIN_ALL, executor.RETAIN_HEADS])
@pytest.mark.parametrize("pixels", [[np.nan], [np.inf], [np.nan, np.inf]], ids=["nan", "inf", "both"])
def test_a_non_finite_input_is_named_in_every_mode(tiny_quantized, rng, mode, retention, pixels):
    """The input is checked as its mode reads it, before any node runs: in
    i8 before it is quantized, so no level stands for NaN or inf."""
    x = rng.uniform(0, 1, size=(1, 3, 64, 96)).astype(np.float32)
    for i, value in enumerate(pixels):
        x[0, i, 5 + i, 7] = value
    with pytest.raises(executor.NonFiniteDetected, match=r"^non-finite values in input 'input'$"):
        executor.execute(tiny_quantized, x, mode=mode, retention=retention)


def test_an_f16_input_that_rounds_to_inf_is_named():
    """65504 is binary16's largest value; 65520 and above round to inf."""
    gr = one_conv_graph(np.full((1, 1, 1, 1), 0.5), pad=0)
    x = np.full((1, 1, 32, 32), 65504.0, dtype=np.float32)
    assert np.all(executor.execute(gr, x, mode=executor.F16).as_f32("c") == 32752.0)
    x[0, 0, 4, 5] = 65520.0
    with pytest.raises(executor.NonFiniteDetected,
                       match=r"^non-finite values in input 'input'$"):
        executor.execute(gr, x, mode=executor.F16)


def test_an_f16_layer_output_that_rounds_to_inf_is_named_without_a_warning():
    """The input is finite in binary16; the conv's output, 2 * 40000, rounds
    to inf. The rounding warns nothing: the node is named instead."""
    gr = one_conv_graph(np.full((1, 1, 1, 1), 2.0), pad=0)
    x = np.full((1, 1, 32, 32), 40000.0, dtype=np.float32)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(executor.NonFiniteDetected,
                           match=r"^non-finite values in output of node 'c'$"):
            executor.execute(gr, x, mode=executor.F16)


def test_input_shape_mismatch(tiny_detector):
    with pytest.raises(executor.ShapeMismatch):
        executor.execute(tiny_detector, np.zeros((1, 3, 32, 32), dtype=np.float32))


def test_i8_requires_qparams(tiny_optimized):
    x = np.zeros(tuple(tiny_optimized.input_shape), dtype=np.float32)
    with pytest.raises(executor.MissingQParams):
        executor.execute(tiny_optimized, x, mode=executor.I8)


def test_retention_heads_only(tiny_detector, rng):
    x = rng.uniform(0, 1, size=(1, 3, 64, 96)).astype(np.float32)
    trace = executor.execute(tiny_detector, x, retention=executor.RETAIN_HEADS)
    assert set(trace.buffers) == {"yolo6", "yolo12"}
    full = executor.execute(tiny_detector, x, retention=executor.RETAIN_ALL)
    assert "conv0" in full.buffers and "input" in full.buffers


def test_plan_pins_nodes_to_f32(tiny_quantized, rng):
    """A pinned node runs unquantized: its trace buffer stays float."""
    x = rng.uniform(0, 1, size=(1, 3, 64, 96)).astype(np.float32)
    plan = {n.id: "i8" for n in tiny_quantized.nodes}
    some_node = tiny_quantized.nodes[3].id
    plan[some_node] = "f32"
    trace = executor.execute(tiny_quantized, x, mode=executor.I8, plan=plan)
    out = tiny_quantized.nodes[3].output
    assert trace.buffers[out].dtype == executor.F32


_I8_HEAD_DIGESTS = """
import hashlib, sys
import numpy as np
from jetforge import executor, graph
gr = graph.load_container(sys.argv[1])
trace = executor.execute(gr, np.load(sys.argv[2]), mode=executor.I8,
                         retention=executor.RETAIN_HEADS)
for head in sorted(trace.buffers):
    print(head, hashlib.sha256(trace.buffers[head].data.tobytes()).hexdigest())
"""


def test_i8_heads_identical_across_blas_thread_counts(tiny_quantized, tmp_path):
    """Integer conv sums are exact in float64, so their summation order (the
    BLAS kernel, its thread count) cannot change an i8 result."""
    import hashlib
    import os
    import subprocess
    import sys

    from jetforge import fixtures, tensorio
    model, frame = tmp_path / "tiny_i8.uir", tmp_path / "frame.npy"
    g.save_container(tiny_quantized, model)
    img, _ = fixtures.random_scene(np.random.default_rng(27), negative_chance=0.0)
    x = tensorio.image_to_nchw(img)
    np.save(frame, x)

    src = os.path.dirname(os.path.dirname(executor.__file__))
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-c", _I8_HEAD_DIGESTS, str(model), str(frame)],
                              capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout)
    here = executor.execute(tiny_quantized, x, mode=executor.I8,
                            retention=executor.RETAIN_HEADS)
    want = "".join(f"{h} {hashlib.sha256(here.buffers[h].data.tobytes()).hexdigest()}\n"
                   for h in sorted(here.buffers))
    assert digests == [want, want]


def test_i8_conv_beyond_the_static_int32_proof_runs_while_its_data_fit():
    """A one-conv i8 graph whose 150000-tap 1x1 kernel fails the static
    int32 proof: execute runs it while the data keep every accumulator
    within int32, and raises AccumulatorOverflow once they do not."""
    taps = 150000
    kernel = np.ones((1, taps, 1, 1), dtype=np.float32)
    gr = one_conv_graph(kernel, pad=0, in_shape=(1, taps, 1, 2))
    x_q = g.QuantParams.from_range(-1.0, 1.0)
    gr.qparams = {"input": x_q, "c": g.QuantParams.from_range(-4000.0, 4000.0)}
    levels, scales = executor.quantize_kernel(kernel)
    max_abs_x = max(127 - x_q.zero_point, x_q.zero_point + 128)
    assert max_abs_x * np.abs(levels.astype(np.int64)).sum() > executor.INT32_MAX

    x = np.zeros((1, taps, 1, 2), dtype=np.float32)
    x[0, :3000, 0, 1] = 1.0  # 3000 full-scale taps: 3000 * 128 * 127 fits
    got = executor.execute(gr, x, mode=executor.I8).as_f32("c")
    want = np.array([0, 3000 * 128 * 127]) * x_q.scale * scales[0]
    assert np.abs(got.ravel() - want).max() <= gr.qparams["c"].scale / 2 + 1e-3
    with pytest.raises(executor.AccumulatorOverflow):
        executor.execute(gr, np.ones_like(x), mode=executor.I8)


def test_importing_the_executor_leaves_quant_unloaded():
    import subprocess
    import sys
    code = "import sys, jetforge.executor; print('jetforge.quant' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


@pytest.mark.parametrize("order", ["reversed", "shuffled"])
def test_execution_follows_the_dataflow_not_the_node_list(tiny_quantized, order):
    """A node list in any valid order gives the same heads as the sorted one."""
    from jetforge import fixtures, tensorio
    moved = tiny_quantized.copy()
    if order == "reversed":
        moved.nodes.reverse()
    else:
        moved.nodes = [moved.nodes[i] for i in
                       np.random.default_rng(5).permutation(len(moved.nodes))]
    assert moved.nodes != tiny_quantized.nodes and g.validate(moved) == []
    img, _ = fixtures.random_scene(np.random.default_rng(8), negative_chance=0.0)
    x = tensorio.image_to_nchw(img)
    for mode in (executor.F32, executor.I8):
        want = executor.execute(tiny_quantized, x, mode=mode, retention=executor.RETAIN_HEADS)
        got = executor.execute(moved, x, mode=mode, retention=executor.RETAIN_HEADS)
        assert sorted(got.buffers) == sorted(want.buffers)
        for head, buf in want.buffers.items():
            assert np.array_equal(got.buffers[head].data, buf.data), (mode, head)


def test_compile_runs_the_nodes_in_the_order_infer_shapes_lists_their_outputs(tiny_detector):
    """infer_shapes lists the input, then each node output in dataflow order
    (the topological sweep's); compile takes its step order from that list
    instead of sweeping the graph again."""
    moved = tiny_detector.copy()
    moved.nodes = [moved.nodes[i] for i in np.random.default_rng(3).permutation(len(moved.nodes))]
    tensors = list(g.infer_shapes(moved))
    assert tensors[0] == moved.input_id
    assert tensors[1:] == [n.output for n in g._topo_order(moved)[0]]
    assert tensors[1:] != [n.output for n in moved.nodes]
    steps = [s.output for s in executor.compile(moved, retention=executor.RETAIN_ALL).steps]
    assert steps == tensors[1:]


# --------------------------------------------------------------------------
# pad-free im2col
# --------------------------------------------------------------------------

def _im2col_padded(x, k, stride, pad):
    """The patch matrix from an explicitly zero-padded copy (oracle)."""
    _, c, h, w = x.shape
    padded = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    oh, ow = (h + 2 * pad - k) // stride + 1, (w + 2 * pad - k) // stride + 1
    cols = np.empty((c, k, k, oh, ow), dtype=x.dtype)
    for kh in range(k):
        for kw in range(k):
            cols[:, kh, kw] = padded[0, :, kh:kh + (oh - 1) * stride + 1:stride,
                                     kw:kw + (ow - 1) * stride + 1:stride]
    return cols.reshape(c * k * k, oh * ow)


@settings(max_examples=60, deadline=None)
@given(k=st.integers(1, 4), stride=st.integers(1, 3), pad=st.integers(0, 3),
       h=st.integers(1, 9), w=st.integers(1, 9), n=st.integers(1, 3), seed=st.integers(0, 2**16))
def test_im2col_equals_the_padded_copy(k, stride, pad, h, w, n, seed):
    from hypothesis import assume
    assume(h + 2 * pad >= k and w + 2 * pad >= k)
    x = np.random.default_rng(seed).normal(size=(n, 2, h, w)).astype(np.float32)
    got = executor._im2col(x, k, stride, pad)
    want = np.stack([_im2col_padded(x[i:i + 1], k, stride, pad) for i in range(n)])
    assert got.shape == want.shape and got.flags.c_contiguous
    assert np.array_equal(got, want)


@settings(max_examples=80, deadline=None)
@given(k=st.integers(1, 4), stride=st.integers(1, 3), h=st.integers(1, 9),
       w=st.integers(1, 9), int8=st.booleans(), seed=st.integers(0, 2**16))
def test_maxpool_equals_the_sliding_window_max(k, stride, h, w, int8, seed):
    from hypothesis import assume
    assume(k <= h and k <= w)
    rng = np.random.default_rng(seed)
    if int8:
        x = rng.integers(-128, 128, size=(1, 3, h, w)).astype(np.int8)
    else:
        x = rng.normal(size=(1, 3, h, w)).astype(np.float32)
    windows = np.lib.stride_tricks.sliding_window_view(x, (k, k), axis=(2, 3))
    want = windows[:, :, ::stride, ::stride].max(axis=(4, 5))
    got = executor.maxpool2d(x, k, stride)
    assert got.dtype == x.dtype and got.shape == want.shape
    assert np.array_equal(got, want)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("k,stride,pad", [(1, 1, 0), (3, 1, 1), (3, 2, 1)])
def test_conv2d_returns_contiguous_array_of_operand_dtype(dtype, k, stride, pad):
    rng = np.random.default_rng(3)
    x = rng.normal(size=(1, 2, 7, 6)).astype(dtype)
    kernel = rng.normal(size=(4, 2, k, k)).astype(dtype)
    for bias in (None, rng.normal(size=4).astype(dtype)):
        out = executor.conv2d(x, kernel, bias, stride, pad)
        assert out.dtype == dtype and out.flags.c_contiguous
        assert out.shape == (1, 4, g.conv_out_dim(7, k, stride, pad),
                             g.conv_out_dim(6, k, stride, pad))


# --------------------------------------------------------------------------
# compiled programs and their cache
# --------------------------------------------------------------------------

def _scene(seed):
    from jetforge import fixtures, tensorio
    img, _ = fixtures.random_scene(np.random.default_rng(seed), negative_chance=0.0)
    return tensorio.image_to_nchw(img)


def _trace_bytes(trace):
    return {t: (b.dtype, b.data.dtype.str, b.data.tobytes(), b.qparams)
            for t, b in trace.buffers.items()}


def _same_as_fresh(gr, x, plan=None):
    """Each mode's trace on `gr` (its programs cached) equals the one of a
    copy, which starts without programs."""
    for mode in executor.MODES:
        got = executor.execute(gr, x, mode=mode, plan=plan)
        want = executor.execute(gr.copy(), x, mode=mode, plan=plan)
        assert _trace_bytes(got) == _trace_bytes(want), mode


def test_program_cache_follows_every_edit(tiny_quantized):
    gr = tiny_quantized.copy()
    x = _scene(41)
    _same_as_fresh(gr, x)

    gr.weights[("conv2", "kernel")] = gr.weights[("conv2", "kernel")] * np.float32(0.5)
    _same_as_fresh(gr, x)

    gr.node_by_id("act1_e").attrs["factor"] = 5.0
    _same_as_fresh(gr, x)

    lo, hi = gr.qparams["conv1"].lo, gr.qparams["conv1"].hi
    gr.qparams["conv1"] = g.QuantParams.from_range(2 * lo, 2 * hi)  # edited in place
    _same_as_fresh(gr, x)
    gr.qparams = {**gr.qparams, "act1_e": g.QuantParams.from_range(0.0, 1.0)}
    _same_as_fresh(gr, x)

    plan = {"act2_r": executor.F32}
    _same_as_fresh(gr, x, plan)
    plan["act2_e"] = executor.F32  # the same dict, edited
    _same_as_fresh(gr, x, plan)


def test_interleaved_modes_equal_separate_fresh_runs(tiny_quantized):
    shared = tiny_quantized.copy()
    for seed in (3, 4):
        x = _scene(seed)
        for mode in (executor.F32, executor.F16, executor.I8, executor.F16, executor.F32):
            got = executor.execute(shared, x, mode=mode)
            want = executor.execute(tiny_quantized.copy(), x, mode=mode)
            assert _trace_bytes(got) == _trace_bytes(want), (seed, mode)


def test_executed_graph_dies_without_the_cycle_collector(tiny_quantized):
    """A program holds nothing of its graph, so the graph and its cached
    programs are freed by reference counting alone."""
    import gc
    import weakref
    gc.disable()
    try:
        gr = tiny_quantized.copy()
        for mode in executor.MODES:
            executor.execute(gr, _scene(5), mode=mode, plan={"act0_r": executor.F32})
        assert len(gr._programs) == 3
        ref = weakref.ref(gr)
        del gr
        assert ref() is None
    finally:
        gc.enable()


def test_graph_copy_and_equality_ignore_the_cache(tiny_quantized):
    gr = tiny_quantized.copy()
    executor.execute(gr, _scene(6), mode=executor.I8)
    assert gr._programs and not gr.copy()._programs
    assert gr == tiny_quantized.copy()


# --------------------------------------------------------------------------
# int8 elementwise tables and f16 rounding
# --------------------------------------------------------------------------

_LEVELS = np.arange(-128, 128).astype(np.int8)

_RANGES = st.one_of(
    st.tuples(st.floats(-50.0, 50.0), st.floats(1e-3, 100.0)).map(lambda t: (t[0], t[0] + t[1])),
    st.sampled_from([(-1e30, 1e30), (-3e38, 3e38), (1e-30, 2e-30), (0.0, 1e-40),
                     (1000.0, 1000.5), (-7.0, -6.0)]))

_FACTORS = st.one_of(st.floats(-100.0, 100.0), st.sampled_from([1e38, -3e38, 0.0]))


def _elementwise_graph(kind, factor, ranges):
    shape = g.TensorShape(1, 1, 1, 256)
    if kind == "add":
        nodes = [g.activation_node("a", ["input"], "a", g.LINEAR),
                 g.activation_node("b", ["input"], "b", g.LINEAR),
                 g.LayerNode("y", g.ADD, ["a", "b"], "y")]
    elif kind == "relu":
        nodes = [g.activation_node("y", ["input"], "y", g.RELU)]
    elif kind == "scale":
        nodes = [g.LayerNode("y", g.SCALE, ["input"], "y", {"factor": factor})]
    else:
        nodes = [g.LayerNode("y", g.YOLO_HEAD, ["input"], "y",
                             {"anchor_indices": [0], "num_classes": 1})]
    gr = g.Graph(nodes=nodes, input_shape=shape)
    gr.qparams = {t: g.QuantParams.from_range(*r) for t, r in zip(("input", "a", "b", "y"), ranges)}
    return gr


@settings(max_examples=80, deadline=None)
@given(kind=st.sampled_from(["relu", "scale", "yolo_head", "add"]), factor=_FACTORS,
       ranges=st.tuples(_RANGES, _RANGES, _RANGES, _RANGES))
def test_i8_tables_equal_dequantize_float_quantize(kind, factor, ranges):
    """Every level (every pair for add) looked up gives what dequantize ->
    the float op -> quantize gives, and NonFiniteDetected fires exactly
    when an input holds a level whose float value is not finite."""
    gr = _elementwise_graph(kind, factor, ranges)
    q = gr.qparams
    with np.errstate(all="ignore"):
        if kind == "add":
            a = np.repeat(_LEVELS, 256)
            b = np.tile(_LEVELS, 256)
            ins = {"a": a, "b": b}
            y = q["a"].dequantize(a) + q["b"].dequantize(b)
        else:
            ins = {"input": _LEVELS}
            x = q["input"].dequantize(_LEVELS)
            y = {"relu": lambda: np.maximum(x, 0), "yolo_head": lambda: x,
                 "scale": lambda: x * np.float32(factor)}[kind]()
        finite = np.isfinite(y)
        want = q["y"].quantize(y[finite])

    program = executor.compile(gr, executor.I8)
    step = next(s for s in program.steps if s.output == "y")
    assert program.kept["y"].dtype == executor.I8 and program.kept["y"].qparams == q["y"]

    def run(mask):
        return step.run({t: v[mask].reshape(1, 1, 1, -1) for t, v in ins.items()})

    out = run(finite)
    assert out.dtype == np.int8 and np.array_equal(out.ravel(), want)
    if not finite.all():
        with pytest.raises(executor.NonFiniteDetected, match="'y'"):
            run(np.ones_like(finite))
        with pytest.raises(executor.NonFiniteDetected):
            run(~finite & (np.cumsum(~finite) == 1))  # one bad level among none else


def test_scale_that_overflows_float32_raises_only_on_the_bad_levels():
    gr = _elementwise_graph("scale", 1e38, [(-10.0, 10.0)] * 4)
    small = np.full((1, 1, 1, 256), 0.02, dtype=np.float32)  # x * 1e38 stays finite
    assert np.all(np.isfinite(executor.execute(gr, small, mode=executor.I8).as_f32("y")))
    big = np.full((1, 1, 1, 256), 9.0, dtype=np.float32)
    with pytest.raises(executor.NonFiniteDetected, match="'y'"):
        executor.execute(gr, big, mode=executor.I8)


def test_f16_rounds_relu_fed_by_a_pinned_f32_node():
    """The output round of relu is skipped only for binary16 inputs: fed by
    a node pinned to f32, relu still rounds."""
    kernel = np.full((1, 1, 1, 1), 1 + 2.0 ** -12, dtype=np.float32)  # not a binary16 value
    gr = one_conv_graph(kernel, pad=0)
    gr.nodes.append(g.activation_node("r", ["c"], "r", g.RELU))
    x = np.ones((1, 1, 32, 32), dtype=np.float32)
    pinned = executor.execute(gr, x, mode=executor.F16, plan={"c": executor.F32})
    assert np.all(pinned.as_f32("c") == np.float32(1 + 2.0 ** -12))
    assert np.all(pinned.as_f32("r") == 1.0)
    plain = executor.execute(gr, x, mode=executor.F16)
    assert np.all(plain.as_f32("c") == 1.0) and np.all(plain.as_f32("r") == 1.0)


def _assert_rounds_like_astype(bits: np.ndarray):
    """executor._f16 on the float32 patterns `bits` gives astype's bit
    patterns, and NaN wherever astype gives NaN."""
    x = bits.view(np.float32)
    with np.errstate(over="ignore", invalid="ignore"):
        want = x.astype(np.float16).astype(np.float32)
        got = executor._f16(x)
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    same = got.view(np.uint32)[~nan] == want.view(np.uint32)[~nan]
    assert same.all(), f"first mismatch at pattern {bits[~nan][~same][0]:#010x}"


@pytest.mark.parametrize("exponent", [*range(102, 114), 141, 142, 143])
@pytest.mark.parametrize("sign", [0, 1])
def test_f16_round_equals_astype_on_every_pattern_at_the_binary16_borders(exponent, sign):
    """Exponents 102-112 are binary16 subnormals (102: half the smallest
    one), 113 its smallest normals; 141-143 hold its largest values and the
    round to inf at 65520."""
    first = (sign << 31) | (exponent << 23)
    _assert_rounds_like_astype(np.arange(first, first + 2**23, dtype=np.uint32))


def test_f16_round_equals_astype_on_zeros_infinities_and_nan_payloads():
    edges = [np.array([0, 0x80000000, 0x7F800000, 0xFF800000], dtype=np.uint32)]
    for top in (0x7FFFFFFF, 0xFFFFFFFF):  # quiet NaNs whose rounding carries into the sign
        edges.append(np.arange(top - 2**13 + 1, top + 1, dtype=np.uint64).astype(np.uint32))
    for low in (0x7F800001, 0xFF800001):  # signalling NaNs: the smallest and largest payloads
        edges.append(np.arange(low, low + 2**13, dtype=np.uint32))
        edges.append(np.arange(low + 0x3FE000, low + 0x3FFFFF, dtype=np.uint32))
    _assert_rounds_like_astype(np.concatenate(edges))


def test_f16_round_equals_astype_on_random_patterns():
    rng = np.random.default_rng(16)
    _assert_rounds_like_astype(rng.integers(0, 2**32, size=2**20, dtype=np.uint32))


_F16_CLASSES = {  # float32 patterns of each range the round tells apart
    "subnormal": [0x33000000, 0x387FFFFF, 0xB3800001, 0x38000000, 0x00000001, 0x80400000],
    "overflow": [0x477FF000, 0xC77FF000, 0x4F000000],
    "inf": [0x7F800000, 0xFF800000],
    "nan": [0x7FC00000, 0xFFFFFFFF, 0x7FFFF000, 0x7F800001],
}


@pytest.mark.parametrize("classes", [["subnormal"], ["overflow"], ["inf"], ["nan"],
                                     ["subnormal", "overflow", "inf", "nan"]], ids=repr)
def test_f16_round_of_arrays_mixing_normal_values_with_other_ranges(classes):
    rng = np.random.default_rng(17)
    normal = rng.normal(0.0, 100.0, size=4096).astype(np.float32).view(np.uint32)
    normal[:4] = [0, 0x80000000, 0x38800000, 0x477FEFFF]  # zeros and the normal range's ends
    mixed = normal.copy()
    others = np.concatenate([np.array(_F16_CLASSES[c], dtype=np.uint32) for c in classes])
    mixed[rng.choice(mixed.size, size=others.size, replace=False)] = others
    _assert_rounds_like_astype(mixed)
    _assert_rounds_like_astype(mixed.reshape(4, 32, 32)[:, ::2, 1::3])  # a strided view


def test_f16_round_leaves_its_argument_unchanged():
    x = np.array([1 + 2.0 ** -12, 1e-6, 1e5, np.nan], dtype=np.float32)
    before = x.copy()
    with np.errstate(over="ignore"):
        executor._f16(x)
    assert np.array_equal(x.view(np.uint32), before.view(np.uint32))


def test_f16_rounding_in_place_writes_no_input_weight_or_retained_buffer(tiny_detector, rng):
    """yolo_head and a linear activation hand back their input. Fed by a
    node pinned to f32, they round a copy: the caller's input, every graph
    weight and every buffer a RETAIN_ALL trace holds keep the values they
    had when they were made."""
    gr = tiny_detector.copy()
    gr.nodes.insert(gr.nodes.index(gr.node_by_id("yolo6")),
                    g.activation_node("lin5", ["conv5"], "lin5", g.LINEAR))
    gr.node_by_id("yolo6").inputs = ["lin5"]
    gr.weights[("conv11", "kernel")] = rng.normal(size=11 * 12).astype(np.float32)  # was zero
    plan = {"conv5": executor.F32, "conv11": executor.F32}
    x = rng.normal(0.3, 0.1, size=(1, 3, 64, 96)).astype(np.float32)
    x_before = x.copy()
    weights_before = {k: w.copy() for k, w in gr.weights.items()}

    trace = executor.execute(gr, x, mode=executor.F16, retention=executor.RETAIN_ALL, plan=plan)
    assert np.array_equal(x, x_before)
    assert all(np.array_equal(gr.weights[k], w) for k, w in weights_before.items())
    for pinned, rounded in (("conv5", "lin5"), ("conv11", "yolo12")):
        assert not np.array_equal(trace.as_f32(pinned), executor._f16(trace.as_f32(pinned)))
        assert np.array_equal(trace.as_f32(rounded), executor._f16(trace.as_f32(pinned)))

    program = executor.compile(gr, executor.F16, plan)
    made = {}

    def snapshot(step):
        def run(arrays):
            y = step.run(arrays)
            made[step.output] = y.copy()
            return y
        return step._replace(run=run)

    program.steps = [snapshot(s) for s in program.steps]
    trace = program.run(x)
    assert np.array_equal(x, x_before)
    assert set(made) == set(trace.buffers) - {gr.input_id}
    for t, data in made.items():
        assert np.array_equal(trace.buffers[t].data, data), t


# --------------------------------------------------------------------------
# the block scheduler (see "Blocks" in the executor)
# --------------------------------------------------------------------------

@pytest.fixture(scope="module", params=[(160, 96), (320, 192)], ids=["160x96", "320x192"])
def yolov3_ranged(request):
    """yolov3 with random weights (seed 3) after the three passes, with i8
    ranges from the min and max of one f32 trace, and its input."""
    from jetforge import fixtures, frontend, passes
    gr = frontend.parse_cfg(fixtures.yolov3_cfg(*request.param))
    gr = frontend.load_weights(fixtures.random_weights(gr, seed=3), gr)
    gr, _ = passes.apply_passes(gr, ["fuse-conv-bn", "decompose-leaky", "fold-scale"])
    x = np.random.default_rng(5).uniform(0.0, 1.0, tuple(gr.input_shape)).astype(np.float32)
    trace = executor.execute(gr, x, retention=executor.RETAIN_ALL)
    gr.qparams = {t: g.QuantParams.from_range(float(b.data.min()) - 0.5, float(b.data.max()) + 0.5)
                  for t, b in trace.buffers.items()}
    return gr, x


def _count_blocks(monkeypatch) -> list[str]:
    """Patch the block routine to record the thread of each block."""
    threads, rows = [], executor._gemm_rows

    def counted(*args):
        threads.append(threading.current_thread().name)
        rows(*args)
    monkeypatch.setattr(executor, "_gemm_rows", counted)
    return threads


@pytest.mark.parametrize("mode", executor.MODES)
def test_split_gemms_give_the_heads_of_unsplit_ones(yolov3_ranged, mode, monkeypatch):
    """f32, f16 and i8 heads of yolov3 are byte-identical whether each large
    conv GEMM runs whole (one CPU) or in row blocks across two threads."""
    gr, x = yolov3_ranged
    blocks = _count_blocks(monkeypatch)
    heads = {}
    for parts in (1, 2):
        monkeypatch.setattr(executor, "gemm_parts", lambda: parts)
        trace = executor.execute(gr, x, mode=mode, retention=executor.RETAIN_HEADS)
        heads[parts] = {t: b.data.tobytes() for t, b in trace.buffers.items()}
        assert (len(blocks) > 0) == (parts == 2)
    assert heads[1] == heads[2]


@settings(max_examples=300, deadline=None)
@given(m=st.integers(1, 2048), k=st.integers(1, 5000), n=st.integers(1, 20000),
       parts=st.integers(1, 8))
def test_split_blocks_start_on_16_rows_and_keep_the_mac_floor(m, k, n, parts):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(executor, "gemm_parts", lambda: parts)
        bounds = executor._split_rows(m, k, n)
    if parts == 1 or m * k * n < 2 * executor._SPLIT_MIN_MACS:
        assert bounds is None
    if parts > 1 and m % (16 * parts) == 0 and m * k * n >= parts * executor._SPLIT_MIN_MACS:
        assert bounds == list(range(0, m + 1, m // parts))  # equal blocks, one per CPU
    if bounds is None:
        return
    assert bounds[0] == 0 and bounds[-1] == m and 2 <= len(bounds) - 1 <= parts
    assert all(b % 16 == 0 for b in bounds[:-1])
    assert all((hi - lo) * k * n >= executor._SPLIT_MIN_MACS for lo, hi in zip(bounds, bounds[1:]))


def test_a_gemm_whose_halves_fall_below_the_floor_is_not_split(monkeypatch):
    floor = executor._SPLIT_MIN_MACS
    monkeypatch.setattr(executor, "gemm_parts", lambda: 2)
    assert executor._split_rows(32, 2**18, 1) == [0, 16, 32]  # two blocks of exactly the floor
    assert executor._split_rows(32, 2**18 - 1, 1) is None
    assert executor._split_rows(20, 2**19, 1) is None  # 16 + 4 rows: the second is half the floor
    assert 2 * 16 * 2**18 == 2 * floor
    blocks = _count_blocks(monkeypatch)
    rng = np.random.default_rng(6)
    a = rng.normal(size=(64, 1000)).astype(np.float32)
    b = rng.normal(size=(1000, 65)).astype(np.float32)  # 64 * 1000 * 65 < 2 * 2**22
    assert executor._matmul(a, b).tobytes() == (a @ b).tobytes() and blocks == []


def _large_operands(seed):
    rng = np.random.default_rng(seed)
    return (rng.normal(size=(256, 2304)).astype(np.float32),
            rng.normal(size=(2304, 60)).astype(np.float32))


def _hold_the_worker(monkeypatch, a_held, worker_action):
    """Patch the block routine: in a worker, on operand `a_held`, set the
    event returned and run `worker_action`; in a caller on it, first wait
    for the event, so that a worker's block is the one held."""
    busy, rows = threading.Event(), executor._gemm_rows

    def held(a, b, out, lo, hi):
        if a is a_held and threading.current_thread().name.startswith("jetforge-gemm"):
            busy.set()
            worker_action()
        elif a is a_held:
            assert busy.wait(30)
        rows(a, b, out, lo, hi)
    monkeypatch.setattr(executor, "_gemm_rows", held)
    return busy


def test_the_caller_computes_the_blocks_of_a_busy_worker_without_waiting(monkeypatch):
    monkeypatch.setattr(executor, "gemm_parts", lambda: 2)
    a_held, b_held = _large_operands(7)
    release, worker_done = threading.Event(), threading.Event()

    def hold():
        release.wait(30)
        worker_done.set()
    busy = _hold_the_worker(monkeypatch, a_held, hold)
    results = {}
    first = threading.Thread(target=lambda: results.update(held=executor._matmul(a_held, b_held)))
    first.start()
    try:
        assert busy.wait(30)
        a, b = _large_operands(8)
        blocks = _count_blocks(monkeypatch)
        got = executor._matmul(a, b)  # the worker is held: this caller computes both blocks
        assert not worker_done.is_set()
        assert got.tobytes() == (a @ b).tobytes()
        assert blocks == ["MainThread", "MainThread"]
    finally:
        release.set()
        first.join(60)
    assert results["held"].tobytes() == (a_held @ b_held).tobytes()


def test_an_error_in_a_worker_reaches_the_caller_and_the_next_call_works(monkeypatch):
    monkeypatch.setattr(executor, "gemm_parts", lambda: 2)
    a, b = _large_operands(9)

    def fail():
        raise MemoryError("worker out of memory")
    _hold_the_worker(monkeypatch, a, fail)
    with pytest.raises(MemoryError, match="worker out of memory"):
        executor._matmul(a, b)
    assert executor._matmul(a.copy(), b).tobytes() == (a @ b).tobytes()
    kernel = a.reshape(256, 256, 3, 3)
    x = np.random.default_rng(10).normal(size=(1, 256, 6, 10)).astype(np.float32)
    gr = one_conv_graph(kernel, in_shape=x.shape)
    want = (a @ executor._im2col(x, 3, 1, 1)).reshape(1, 256, 6, 10)
    assert executor.execute(gr, x).as_f32("c").tobytes() == want.tobytes()


def test_a_run_that_splits_no_gemm_leaves_the_thread_pool_unloaded():
    """The tiny detector's convs are far below the split floor, and its
    kernels far below the fold's."""
    import subprocess
    import sys
    code = ("import sys, numpy as np\n"
            "from jetforge import executor, fixtures, passes\n"
            "gr = fixtures.build_tiny_detector()\n"
            "folded, _ = passes.apply_passes(gr, ['fuse-conv-bn', 'decompose-leaky', "
            "'fold-scale'])\n"
            "x = np.full(tuple(gr.input_shape), 0.5, dtype=np.float32)\n"
            "for model in (gr, folded):\n"
            "    for mode in ('f32', 'f16'):\n"
            "        executor.execute(model, x, mode=mode)\n"
            "print('concurrent.futures' in sys.modules, executor._workers)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False None\n"


def _conv_bn_graph(gamma):
    """A conv of 64 x 1024 x 3 x 3 random weights, which two CPUs fold in
    two blocks of 32 rows, read by a batchnorm with the given gamma."""
    rng = np.random.default_rng(13)
    gr = one_conv_graph(rng.normal(0, 0.1, (64, 1024, 3, 3)), in_shape=(1, 1024, 8, 8))
    gr.nodes.append(g.LayerNode("bn", g.BATCHNORM, ["c"], "bn", {"eps": 1e-5}))
    for role, value in zip(g.KINDS[g.BATCHNORM].roles, (gamma, 0.1, 0.2, rng.uniform(0, 2, 64))):
        gr.weights[("bn", role)] = np.broadcast_to(value, (64,)).astype(np.float32)
    return gr


def _fold_blocks(monkeypatch, worker_first=False):
    """Patch the scheduler to record (thread, lo, hi) of each block; with
    `worker_first`, the caller's first block waits until a worker has
    started one."""
    blocks, started, in_blocks = [], threading.Event(), executor._in_blocks

    def recorded(fn, bounds):
        def block(lo, hi):
            name = threading.current_thread().name
            if name.startswith("jetforge-gemm"):
                started.set()
            elif worker_first and lo == bounds[0]:
                assert started.wait(30)
            blocks.append((name.split("_")[0], lo, hi))
            fn(lo, hi)
        in_blocks(block, bounds)
    monkeypatch.setattr(executor, "_in_blocks", recorded)
    return blocks


def test_a_split_fold_gives_the_bytes_of_one_block_while_the_worker_is_held(monkeypatch):
    """With the worker busy on another caller's GEMM, a fold on two CPUs is
    computed in two blocks by its caller and gives the bytes of one block."""
    from jetforge import passes
    gr = _conv_bn_graph(np.random.default_rng(14).uniform(0.5, 1.5, 64))
    monkeypatch.setattr(executor, "cpus", lambda: 1)
    want, _ = passes.fuse_conv_bn(gr)
    monkeypatch.setattr(executor, "cpus", lambda: 2)
    monkeypatch.setattr(executor, "gemm_parts", lambda: 2)
    a_held, b_held = _large_operands(15)
    release = threading.Event()
    busy = _hold_the_worker(monkeypatch, a_held, lambda: release.wait(30))
    first = threading.Thread(target=executor._matmul, args=(a_held, b_held))
    first.start()
    try:
        assert busy.wait(30)
        blocks = _fold_blocks(monkeypatch)
        got, _ = passes.fuse_conv_bn(gr)
        assert blocks == [("MainThread", 0, 32), ("MainThread", 32, 64)]
    finally:
        release.set()
        first.join(60)
    assert not first.is_alive()
    assert got.weights.keys() == want.weights.keys()
    assert all(got.weights[k].tobytes() == want.weights[k].tobytes() for k in want.weights)


def test_an_overflow_in_a_workers_rows_of_a_fold_reaches_the_caller(monkeypatch):
    """Only rows 32-63, the worker's block, overflow float32: the caller
    gets the PassError the one-block fold raises, with no warning, and the
    pool then folds as before."""
    from jetforge import passes
    gamma = np.ones(64)
    gamma[32:] = 3e38
    monkeypatch.setattr(executor, "cpus", lambda: 2)
    blocks = _fold_blocks(monkeypatch, worker_first=True)
    fault = "^folding bn into c: a scaled kernel value is not finite in float32$"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(passes.PassError, match=fault):
            passes.fuse_conv_bn(_conv_bn_graph(gamma))
        assert ("jetforge-gemm", 32, 64) in blocks
        good = _conv_bn_graph(np.ones(64))
        got, _ = passes.fuse_conv_bn(good)
        monkeypatch.setattr(executor, "cpus", lambda: 1)
        with pytest.raises(passes.PassError, match=fault):
            passes.fuse_conv_bn(_conv_bn_graph(gamma))
        want, _ = passes.fuse_conv_bn(good)
    assert got.weights[("c", "kernel")].tobytes() == want.weights[("c", "kernel")].tobytes()


def test_one_cpu_starts_no_thread_and_two_start_one_that_persists(monkeypatch):
    monkeypatch.setattr(executor, "_workers", None)
    a, b = _large_operands(11)
    before = set(threading.enumerate())
    monkeypatch.setattr(executor, "gemm_parts", lambda: 1)
    assert executor._matmul(a, b).tobytes() == (a @ b).tobytes()
    assert executor._workers is None and set(threading.enumerate()) == before
    monkeypatch.setattr(executor, "gemm_parts", lambda: 2)
    for _ in range(3):
        assert executor._matmul(a, b).tobytes() == (a @ b).tobytes()
    (worker,) = set(threading.enumerate()) - before
    assert worker.name.startswith("jetforge-gemm")


def test_a_forked_child_starts_workers_of_its_own(monkeypatch):
    import os
    import signal
    monkeypatch.setattr(executor, "gemm_parts", lambda: 2)
    a, b = _large_operands(12)
    want = (a @ b).tobytes()
    assert executor._matmul(a, b).tobytes() == want  # the parent's worker runs
    parent_workers = executor._workers
    pid = os.fork()
    if pid == 0:  # the child: exit 0 only when a worker of its own gives the bytes
        signal.alarm(60)
        ok = False
        try:
            _hold_the_worker(monkeypatch, a, lambda: None)  # the caller waits for a worker
            ok = (executor._workers is None and executor._matmul(a, b).tobytes() == want
                  and executor._workers is not parent_workers)
        finally:
            os._exit(0 if ok else 1)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0


def test_gemm_parts_share_the_cpus_with_blas_threads(monkeypatch):
    """Two CPUs give two row blocks with BLAS on one thread and one block
    with BLAS on two."""
    import os
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    for threads, parts in ((1, 2), (2, 1), (4, 1)):
        monkeypatch.setattr(executor, "blas_threads", lambda: threads)
        assert executor.gemm_parts() == parts


def test_blas_threads_reads_the_count_openblas_runs_on():
    import os
    import subprocess
    import sys
    code = "from jetforge import executor; print(executor.blas_threads())"
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == threads + "\n"


# --------------------------------------------------------------------------
# tile-width padding (see "Tile-width padding" in the executor)
# --------------------------------------------------------------------------

def test_im2col_widened_holds_the_patches_then_zeros():
    rng = np.random.default_rng(13)
    for k, stride, pad, shape in ((3, 1, 1, (1, 4, 3, 5)), (3, 2, 0, (1, 2, 9, 7)),
                                  (1, 1, 0, (1, 3, 3, 5))):
        x = rng.normal(size=shape).astype(np.float32)
        want = executor._im2col(x, k, stride, pad)
        got = executor._im2col(x, k, stride, pad, width=want.shape[2] + 7)
        assert got.shape == (1, want.shape[1], want.shape[2] + 7) and got.flags.c_contiguous
        assert np.array_equal(got[..., :want.shape[2]], want) and not got[..., want.shape[2]:].any()


@settings(max_examples=60, deadline=None)
@given(out_ch=st.integers(1, 160), c=st.integers(1, 48), k=st.sampled_from([1, 3]),
       stride=st.integers(1, 2), h=st.integers(1, 20), w=st.integers(1, 20),
       bias=st.booleans(), f64=st.booleans(), parts=st.integers(1, 2),
       seed=st.integers(0, 2**16))
def test_padded_conv_gives_the_bytes_of_the_unpadded_gemm(out_ch, c, k, stride, h, w, bias,
                                                           f64, parts, seed):
    """Inside the padding rule the GEMM runs on 16-column multiples and
    gives the bytes of kernel2d @ cols; outside it, it is not padded.
    float64 operands hold integers, as those of the i8 accumulator do."""
    from hypothesis import assume
    pad = k // 2
    assume(h + 2 * pad >= k and w + 2 * pad >= k)
    rng = np.random.default_rng(seed)
    if f64:
        x = rng.integers(-128, 128, size=(1, c, h, w)).astype(np.float64)
        kernel = rng.integers(-127, 128, size=(out_ch, c, k, k)).astype(np.float64)
        b = rng.integers(-2**20, 2**20, size=out_ch).astype(np.float64) if bias else None
    else:
        x = rng.normal(size=(1, c, h, w)).astype(np.float32)
        kernel = rng.normal(size=(out_ch, c, k, k)).astype(np.float32)
        b = rng.normal(size=out_ch).astype(np.float32) if bias else None
    cols = executor._im2col(x, k, stride, pad)
    _, kk, n = cols.shape
    inside = n % 16 != 0 and n >= 2 and out_ch >= 2 and out_ch * kk * n > 10**6
    assert executor._tile_width(out_ch, kk, n) == (-(-n // 16) * 16 if inside else n)
    want = kernel.reshape(out_ch, -1) @ cols
    if b is not None:
        want += b[:, None]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(executor, "gemm_parts", lambda: parts)
        got = executor.conv2d(x, kernel, b, stride, pad)
    assert got.flags.c_contiguous and got.dtype == x.dtype
    assert got.tobytes() == want.tobytes()


# --------------------------------------------------------------------------
# fused conv tails (see "Fused conv tails" in the executor)
# --------------------------------------------------------------------------

def _head_bytes(trace):
    return {t: b.data.tobytes() for t, b in trace.buffers.items()}


@pytest.mark.parametrize("mode", executor.MODES)
def test_fused_padded_heads_equal_an_unpadded_retain_all_trace(yolov3_ranged, mode,
                                                               monkeypatch):
    """yolov3 heads from RETAIN_HEADS (fused tails, padded GEMMs) are the
    bytes of a RETAIN_ALL trace that neither fuses nor pads."""
    gr, x = yolov3_ranged
    program = executor.compile(gr, mode, retention=executor.RETAIN_HEADS)
    assert (len(gr.nodes), len(program.steps)) == (321, 105)
    got = _head_bytes(program.run(x))
    with monkeypatch.context() as mp:
        mp.setattr(executor, "_tile_width", lambda m, k, n: n)
        full = executor.compile(gr, mode).run(x)
    assert len(full.buffers) == len(gr.nodes) + 1
    assert got == {t: full.buffers[t].data.tobytes() for t in got} and len(got) == 3


@pytest.mark.parametrize("mode", executor.MODES)
def test_fused_tiny_heads_equal_a_retain_all_trace(tiny_quantized, mode):
    x = _scene(9)
    heads = executor.execute(tiny_quantized, x, mode=mode, retention=executor.RETAIN_HEADS)
    full = executor.execute(tiny_quantized, x, mode=mode, retention=executor.RETAIN_ALL)
    assert _head_bytes(heads) == {t: full.buffers[t].data.tobytes() for t in heads.buffers}
    steps = executor.compile(tiny_quantized, mode, retention=executor.RETAIN_HEADS).steps
    assert (len(tiny_quantized.nodes), len(steps)) == (27, 12)


def _trace_digest(trace) -> str:
    """sha256 over the trace's buffers in order: each one's tensor id, dtype,
    array dtype and shape, range, then its bytes."""
    h = hashlib.sha256()
    for t, b in trace.buffers.items():
        qp = None if b.qparams is None else (b.qparams.scale, b.qparams.zero_point)
        h.update(repr((t, b.dtype, b.data.dtype.str, b.data.shape, qp)).encode())
        h.update(b.data.tobytes())
    return h.hexdigest()


# the tiny detector's traces of scene 9 in every mode and retention; the f32
# and f16 ones hold on a fixed machine configuration only (see "One window
# routine" in the executor)
TINY_TRACE_DIGESTS = {
    ("f32", "all"): "f775fb09c6d88b23e4414713c09407190ee910e748b9d2bef15f28ede770175a",
    ("f32", "heads"): "0f406b1825c7c72b87e938dd3ce5fc28307e83d7f496b2f27c0e25887bde398d",
    ("f16", "all"): "ecf467248c89a3356ac2ba1a9fe3fdf2c4a929090da6cd4ec91e368addf615e8",
    ("f16", "heads"): "a6e29d1e2c2bb5c38ac854ded851d6d1ae7e46a5424314b778fb42c1523bd6a2",
    ("i8", "all"): "32e709b40d78e439eabe76d9c716061239b3a7f54d0982445ddba8c0d630ae0c",
    ("i8", "heads"): "5a75189ed25f169cf6d8293e37ab2d8eaf65e912e9c2c50ec1918c83298037d8"}


def test_tiny_traces_keep_their_bytes_formats_and_order(tiny_quantized):
    """Every buffer, its format and its place in the trace, in every mode and
    retention: one kept set decides fusion, frees and the trace."""
    x = _scene(9)
    got = {(mode, retention): _trace_digest(executor.execute(tiny_quantized, x, mode=mode,
                                                             retention=retention))
           for mode in executor.MODES for retention in (executor.RETAIN_ALL,
                                                        executor.RETAIN_HEADS)}
    assert got == TINY_TRACE_DIGESTS


@pytest.mark.parametrize("mode", [executor.F16, executor.I8])
def test_a_tail_node_pinned_to_another_mode_leaves_its_conv_unfused(tiny_quantized, mode):
    x = _scene(10)
    plan = {"act0_r": executor.F32}
    program = executor.compile(tiny_quantized, mode, plan, executor.RETAIN_HEADS)
    outputs = [s.output for s in program.steps]
    assert "conv0" in outputs and "act0_r" in outputs and "act1" in outputs
    assert "conv1" not in outputs and len(outputs) == 15
    full = executor.execute(tiny_quantized, x, mode=mode, plan=plan)
    heads = program.run(x)
    assert _head_bytes(heads) == {t: full.buffers[t].data.tobytes() for t in heads.buffers}


def test_yolov3_pinned_tail_heads_equal_a_retain_all_trace(yolov3_ranged):
    gr, x = yolov3_ranged
    plan = {"act0_r": executor.F32}
    program = executor.compile(gr, executor.I8, plan, executor.RETAIN_HEADS)
    assert len(program.steps) == 108 and program.steps[0].output == "conv0"
    heads = _head_bytes(program.run(x))
    full = executor.execute(gr, x, mode=executor.I8, plan=plan)
    assert heads == {t: full.buffers[t].data.tobytes() for t in heads}


def test_retain_all_compiles_unfused_and_a_heads_program_keeps_the_heads(tiny_optimized):
    """The retention given to compile decides what a trace holds: a heads
    program returns the heads alone, an all program every tensor."""
    x = _scene(11)
    heads = {n.output for n in tiny_optimized.head_nodes()}
    program = executor.compile(tiny_optimized, retention=executor.RETAIN_HEADS)
    assert set(program.run(x).buffers) == heads
    program = executor.compile(tiny_optimized)
    assert len(program.steps) == len(tiny_optimized.nodes)
    assert len(program.run(x).buffers) == len(tiny_optimized.nodes) + 1
    gr = tiny_optimized.copy()
    executor.execute(gr, x, retention=executor.RETAIN_HEADS)
    trace = executor.execute(gr, x, retention=executor.RETAIN_ALL)
    assert len(trace.buffers) == len(gr.nodes) + 1 and len(gr._programs) == 2


@pytest.mark.parametrize("retention", ["All", "everything", None])
def test_an_unknown_retention_is_refused(tiny_optimized, retention):
    x = _scene(12)
    with pytest.raises(executor.ExecutionError, match=f"unknown retention '{retention}'"):
        executor.execute(tiny_optimized, x, retention=retention)
    with pytest.raises(executor.ExecutionError, match=f"unknown retention '{retention}'"):
        executor.compile(tiny_optimized, retention=retention)


@pytest.mark.parametrize("mode", executor.MODES)
@pytest.mark.parametrize("plan, message", [
    ({"conv0": "F16"}, "plan pins node 'conv0' to unknown mode 'F16'"),
    ({"act0_r": None}, "plan pins node 'act0_r' to unknown mode 'None'"),
    ({"conv0": executor.F32, "conv99": executor.F16},
     "plan pins node 'conv99' to 'f16', but the graph has no such node"),
])
def test_a_plan_with_an_unknown_mode_or_node_is_refused(tiny_quantized, mode, plan, message):
    gr = tiny_quantized.copy()
    with pytest.raises(executor.ExecutionError, match=message):
        executor.execute(gr, _scene(13), mode=mode, plan=plan)
    assert not gr._programs


@pytest.mark.parametrize("mode", executor.MODES)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_mixed_plans_keep_heads_and_formats(tiny_quantized, mode, data):
    """Random nodes pinned to random modes: the heads of a RETAIN_HEADS
    program (fused tails) are the bytes of a RETAIN_ALL trace, and every
    buffer of that trace has the dtype and range its node's precision
    implies: the mode's float dtype, or i8 in the output's range (max-pool
    and upsample move levels, so they keep their input's). up8's own range
    is widened, so that it differs from its input's."""
    gr = tiny_quantized.copy()
    lo, hi = gr.qparams["up8"].lo, gr.qparams["up8"].hi
    gr.qparams = q = {**gr.qparams, "up8": g.QuantParams.from_range(2 * lo - 1, 2 * hi + 1)}
    plan = data.draw(st.dictionaries(st.sampled_from([n.id for n in gr.nodes]),
                                     st.sampled_from(executor.MODES)), label="plan")
    x = _scene(14)
    heads = executor.compile(gr, mode, plan, executor.RETAIN_HEADS).run(x)
    full = executor.compile(gr, mode, plan).run(x)
    assert set(heads.buffers) == {n.output for n in gr.head_nodes()}
    full_bytes = _trace_bytes(full)
    assert _trace_bytes(heads) == {t: full_bytes[t] for t in heads.buffers}

    want = {gr.input_id: (executor.I8, q[gr.input_id]) if mode == executor.I8
            else (executor.F32, None)}
    for node in g._topo_order(gr)[0]:
        prec = plan.get(node.id, mode)
        if prec != executor.I8:
            want[node.output] = (prec, None)
        elif node.kind in (g.MAXPOOL, g.UPSAMPLE):
            src_dtype, src_q = want[node.inputs[0]]
            want[node.output] = (executor.I8, src_q if src_dtype == executor.I8
                                 else q[node.inputs[0]])
        else:
            want[node.output] = (executor.I8, q[node.output])
    assert {t: (b.dtype, b.qparams) for t, b in full.buffers.items()} == want
    for b in full.buffers.values():
        assert b.data.dtype == (np.int8 if b.dtype == executor.I8 else np.float32)


def _tail_graph(weight, factor, ranges=None):
    """conv c (1x1, one channel, weight `weight`) -> relu r -> scale e
    (`factor`) -> add y = c + e -> yolo head h, the shape decompose-leaky
    and fold-scale leave; `ranges` maps tensors to i8 (lo, hi), and the
    head takes y's."""
    nodes = [g.conv_node("c", ["input"], "c", out_ch=1, kernel=1, stride=1, pad=0,
                         has_bias=False),
             g.activation_node("r", ["c"], "r", g.RELU),
             g.LayerNode("e", g.SCALE, ["r"], "e", {"factor": factor}),
             g.LayerNode("y", g.ADD, ["c", "e"], "y"),
             g.LayerNode("h", g.YOLO_HEAD, ["y"], "h", {"anchor_indices": [0], "num_classes": 1})]
    gr = g.Graph(nodes=nodes, input_shape=g.TensorShape(1, 1, 1, 4))
    gr.weights[("c", "kernel")] = np.array([weight], dtype=np.float32)
    if ranges:
        gr.qparams = {t: g.QuantParams.from_range(*r) for t, r in ranges.items()}
        gr.qparams["h"] = gr.qparams["y"]
    return gr


_BIG = (0.0, 3e38)
# mode -> node that overflows -> (conv weight, scale factor, input value,
# i8 ranges of input, c, r, e, y)
_OVERFLOWS = {
    executor.F32: {"c": (1e30, 0.5, 1e10, None), "e": (1.0, 1e38, 10.0, None),
                   "y": (1.0, 1.0, 3e38, None)},
    executor.F16: {"c": (300.0, 0.5, 300.0, None), "e": (1.0, 1e5, 10.0, None),
                   "y": (1.0, 1.0, 40000.0, None)},
    executor.I8: {"c": (1e30, 0.5, 1e10, [(0.0, 1e10)] + [_BIG] * 4),
                  "e": (1.0, 2.0, 3e38, [_BIG] * 5),  # y's table marks this level too
                  "y": (1.0, 1.0, 3e38, [_BIG] * 5)},
}


@pytest.mark.parametrize("mode", executor.MODES)
@pytest.mark.parametrize("where", ["c", "e", "y"])
def test_a_fused_tail_names_the_node_the_separate_steps_name(mode, where):
    """The overflow is in the conv, in the scale or in the add: the fused
    step raises NonFiniteDetected naming the node the unfused steps name,
    and on finite data both give the same head."""
    weight, factor, value, ranges = _OVERFLOWS[mode][where]
    gr = _tail_graph(weight, factor, ranges and dict(zip(("input", "c", "r", "e", "y"), ranges)))
    assert len(executor.compile(gr, mode, retention=executor.RETAIN_HEADS).steps) == 2
    x = np.array([0.0, 1.0, value, -value], dtype=np.float32).reshape(1, 1, 1, 4)
    messages = []
    for retention in (executor.RETAIN_ALL, executor.RETAIN_HEADS):
        with pytest.raises(executor.NonFiniteDetected, match=f"node '{where}'") as err:
            executor.execute(gr, x, mode=mode, retention=retention)
        messages.append(str(err.value))
    assert messages[0] == messages[1]
    small = np.array([0.0, 0.25, 0.5, -0.5], dtype=np.float32).reshape(1, 1, 1, 4)
    heads = executor.execute(gr, small, mode=mode, retention=executor.RETAIN_HEADS)
    full = executor.execute(gr, small, mode=mode, retention=executor.RETAIN_ALL)
    assert heads.buffers["h"].data.tobytes() == full.buffers["h"].data.tobytes()


@settings(max_examples=60, deadline=None)
@given(ranges=st.tuples(_RANGES, _RANGES, _RANGES, _RANGES), factor=_FACTORS)
@example(ranges=(_BIG,) * 4, factor=2.0)  # the top levels mark both the scale and the add
def test_the_fused_i8_tail_looks_up_what_the_separate_steps_give(ranges, factor):
    """For each of the 256 levels of s, the fused tail's lookup gives the
    level the relu, scale and add steps of a RETAIN_ALL program give, fed
    their levels as in test_i8_tables_equal_dequantize_float_quantize, or
    both raise NonFiniteDetected naming the same node. That is every (s, e)
    pair the lookup can reach."""
    gr = _tail_graph(1.0, factor, dict(zip(("input", "c", "r", "e", "y"), [(0.0, 1.0), *ranges])))
    q = gr.qparams
    steps = {s.output: s.run for s in executor.compile(gr, executor.I8).steps}
    lookup, y_q = executor._tail_table(q["c"], tuple(gr.nodes[1:4]),
                                       lambda node, role: gr.weights[(node.id, role)],
                                       q.__getitem__)
    assert y_q == q["y"]

    def separate(s):
        r = steps["r"]({"c": s})
        return steps["y"]({"c": s, "e": steps["e"]({"r": r})})

    for level in _LEVELS:
        s = np.full((1, 1, 1, 1), level, dtype=np.int8)
        got = []
        for run in (separate, lambda s: lookup([s])):
            try:
                with np.errstate(all="ignore"):
                    got.append(run(s).tobytes())
            except executor.NonFiniteDetected as err:
                got.append(str(err))
        assert got[0] == got[1], (int(level), got)


# --------------------------------------------------------------------------
# one declaration per kind: graph.KINDS and executor.OPS
# --------------------------------------------------------------------------

# (kind, attrs, inputs, output shape from a (1, 6, 32, 32) input, i8 path)
_KIND_CASES = [
    (g.CONV, {"out_ch": 6, "kernel": 3, "stride": 2, "pad": 1, "has_bias": True}, 1,
     (1, 6, 16, 16), executor.GEMM),
    (g.BATCHNORM, {"eps": 1e-3}, 1, (1, 6, 32, 32), executor.FLOAT),
    (g.ACTIVATION, {"act": g.LEAKY, "alpha": 0.1}, 1, (1, 6, 32, 32), executor.TABLE),
    (g.SCALE, {"factor": 0.5}, 1, (1, 6, 32, 32), executor.TABLE),
    (g.SCALE, {}, 1, (1, 6, 32, 32), executor.FLOAT),
    (g.UPSAMPLE, {"factor": 2}, 1, (1, 6, 64, 64), executor.LEVELS),
    (g.MAXPOOL, {"kernel": 2, "stride": 2}, 1, (1, 6, 16, 16), executor.LEVELS),
    (g.ADD, {}, 2, (1, 6, 32, 32), executor.TABLE),
    (g.ADD, {}, 3, (1, 6, 32, 32), executor.FLOAT),
    (g.CONCAT, {}, 2, (1, 12, 32, 32), executor.FLOAT),
    (g.YOLO_HEAD, {"anchor_indices": [0], "num_classes": 1}, 1, (1, 6, 32, 32), executor.TABLE),
]


def test_every_kind_is_declared_in_kinds_and_ops_and_has_a_case():
    assert set(g.KINDS) == set(executor.OPS) == {kind for kind, *_ in _KIND_CASES}


@pytest.mark.parametrize("kind,attrs,inputs,shape,path", _KIND_CASES,
                         ids=[f"{c[0]}-{c[2]}-{c[4]}" for c in _KIND_CASES])
def test_a_kind_infers_its_shape_takes_its_weights_and_compiles_to_its_i8_path(
        kind, attrs, inputs, shape, path, monkeypatch):
    """A one-node graph of each kind: its KINDS entry's shape rule and
    weight counts, and the int8 path of its OPS entry, which compile takes."""
    node = g.LayerNode("n", kind, ["input"] * inputs, "n", dict(attrs))
    gr = g.Graph(nodes=[node], input_shape=g.TensorShape(1, 6, 32, 32),
                 metadata=g.GraphMetadata(anchors=[(8.0, 8.0)]))
    shapes = g.infer_shapes(gr)
    assert shapes["n"] == shape
    for role, count in g.KINDS[kind].weights(node.attrs, 6).items():
        assert role in g.KINDS[kind].roles
        gr.weights[("n", role)] = np.full(count, 0.5, dtype=np.float32)
    assert g._check_weights(gr, shapes) == [] and g.validate(gr) == []

    taken = []
    for name, took in (("quantized_conv", executor.GEMM), ("_level_table", executor.TABLE),
                       ("_float_step", executor.FLOAT)):
        def spy(*args, _run=getattr(executor, name), _took=took, **kwargs):
            taken.append(_took)
            return _run(*args, **kwargs)
        monkeypatch.setattr(executor, name, spy)
    gr.qparams = {t: g.QuantParams.from_range(-4.0, 4.0) for t in ("input", "n")}
    program = executor.compile(gr, executor.I8)
    assert executor.OPS[kind].i8(node) == path
    assert taken == ([] if path == executor.LEVELS else [path])
    x = np.random.default_rng(0).uniform(-2, 2, (1, 6, 32, 32)).astype(np.float32)
    assert program.run(x).buffers["n"].data.shape == shape


# --------------------------------------------------------------------------
# batches (see "Batches" in the executor)
# --------------------------------------------------------------------------

def _image_bytes(trace, i):
    """_trace_bytes of image i's slice of every buffer of a batch's trace."""
    return {t: (b.dtype, b.data.dtype.str, b.data[i:i + 1].tobytes(), b.qparams)
            for t, b in trace.buffers.items()}


@settings(max_examples=30, deadline=None)
@given(data=st.data(), n=st.integers(2, 5), seed=st.integers(0, 2**16),
       mode=st.sampled_from(executor.MODES),
       retention=st.sampled_from([executor.RETAIN_ALL, executor.RETAIN_HEADS]),
       pinned=st.booleans())
def test_each_image_of_a_batch_has_the_bytes_of_its_own_run(tiny_quantized, data, n, seed,
                                                            mode, retention, pinned):
    """Tiny-detector scenes run as one batch: every image's slice of every
    buffer is its n = 1 trace, byte for byte, with or without a plan that
    pins one node to another mode."""
    plan = None
    if pinned:
        node = data.draw(st.sampled_from([nd.id for nd in tiny_quantized.nodes]), label="node")
        other = data.draw(st.sampled_from([m for m in executor.MODES if m != mode]), label="to")
        plan = {node: other}
    images = [_scene(seed + i) for i in range(n)]
    program = executor.compile(tiny_quantized, mode, plan, retention)
    batch = program.run(np.concatenate(images))
    for i, x in enumerate(images):
        assert _image_bytes(batch, i) == _trace_bytes(program.run(x)), i


def _padded_convs(gr) -> int:
    """How many of the graph's convs widen their patch matrix."""
    shapes, count = g.infer_shapes(gr), 0
    for node in gr.nodes:
        if node.kind == g.CONV:
            a, out = node.attrs, shapes[node.output]
            k = shapes[node.inputs[0]].c * a["kernel"] ** 2
            count += executor._tile_width(a["out_ch"], k, out.h * out.w) != out.h * out.w
    return count


@pytest.mark.parametrize("yolov3_ranged", [(160, 96)], indirect=True, ids=["160x96"])
def test_yolov3_heads_of_a_batch_of_two_equal_its_single_runs(yolov3_ranged, monkeypatch):
    """yolov3 f32 heads of two frames in one call, whole GEMMs and split
    ones, padded to 16 columns where the rule says: each frame's heads are
    those of its own call."""
    gr, x = yolov3_ranged
    assert _padded_convs(gr) > 0
    frames = [x, np.random.default_rng(6).uniform(0.0, 1.0, x.shape).astype(np.float32)]
    blocks = _count_blocks(monkeypatch)
    program = executor.compile(gr, executor.F32, retention=executor.RETAIN_HEADS)
    for parts in (1, 2):
        monkeypatch.setattr(executor, "gemm_parts", lambda: parts)
        batch = program.run(np.concatenate(frames))
        assert (len(blocks) > 0) == (parts == 2)
        for i, frame in enumerate(frames):
            assert _image_bytes(batch, i) == _trace_bytes(program.run(frame)), (parts, i)


@pytest.mark.parametrize("mode", [executor.F32, executor.I8])
def test_a_non_finite_step_output_names_the_first_image_at_fault(mode):
    """Images 1 and 2 of four overflow the scale, in f32 and in an i8 table
    lookup; the error names image 1. Alone, image 1 gives the one-image
    message."""
    gr = _elementwise_graph("scale", 1e38, [(-10.0, 10.0)] * 4)
    x = np.full((4, 1, 1, 256), 0.02, dtype=np.float32)  # x * 1e38 stays finite
    x[1:3, 0, 0, 7] = 9.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(executor.NonFiniteDetected,
                           match=r"^non-finite values in output of node 'y' in image 1$"):
            executor.execute(gr, x, mode=mode)
        with pytest.raises(executor.NonFiniteDetected,
                           match=r"^non-finite values in output of node 'y'$"):
            executor.execute(gr, x[1:2], mode=mode)


@pytest.mark.parametrize("mode", executor.MODES)
def test_a_non_finite_input_names_the_first_image_at_fault(tiny_quantized, mode):
    x = np.concatenate([_scene(20), _scene(21), _scene(22)])
    x[2, 1, 5, 7] = np.nan
    with pytest.raises(executor.NonFiniteDetected,
                       match=r"^non-finite values in input 'input' in image 2$"):
        executor.execute(tiny_quantized, x, mode=mode)


def test_an_accumulator_overflow_names_the_first_image_at_fault():
    """The 150000-tap conv of the static-proof test: image 0 fits int32,
    images 1 and 2 do not."""
    taps = 150000
    gr = one_conv_graph(np.ones((1, taps, 1, 1), dtype=np.float32), pad=0,
                        in_shape=(1, taps, 1, 2))
    gr.qparams = {"input": g.QuantParams.from_range(-1.0, 1.0),
                  "c": g.QuantParams.from_range(-4000.0, 4000.0)}
    x = np.ones((3, taps, 1, 2), dtype=np.float32)
    x[0] = 0.0
    with pytest.raises(executor.AccumulatorOverflow,
                       match=r"^conv accumulator would reach \d+ \(> int32\) in image 1; "
                             r"needs wider accumulation$"):
        executor.execute(gr, x, mode=executor.I8)
    with pytest.raises(executor.AccumulatorOverflow,
                       match=r"^conv accumulator would reach \d+ \(> int32\); "
                             r"needs wider accumulation$"):
        executor.execute(gr, x[1:2], mode=executor.I8)


@pytest.mark.parametrize("shape", [(0, 3, 64, 96), (2, 4, 64, 96), (2, 3, 63, 96),
                                   (2, 3, 64, 97), (3, 64, 96)],
                         ids=["n0", "c", "h", "w", "3d"])
def test_an_input_of_no_images_or_another_image_shape_is_refused(tiny_detector, shape):
    x = np.zeros(shape, dtype=np.float32)
    with pytest.raises(executor.ShapeMismatch):
        executor.execute(tiny_detector, x)
    with pytest.raises(executor.ShapeMismatch):
        executor.compile(tiny_detector).run(x)
