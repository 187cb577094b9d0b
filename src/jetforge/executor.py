"""Deterministic reference interpreter for Graphs.

Three precision modes:

* f32: plain float32.
* f16: every weight and every layer output is rounded to IEEE binary16
         (round-to-nearest-even) while arithmetic stays in float32. This
         simulates half-float inference without half hardware.
* i8: convolutions run in true integer arithmetic (32-bit accumulation
         over (q - zero_point) * q_w products); max-pool and upsample act
         directly on int8 values; all other layers dequantize, compute in
         float32 and requantize to the output tensor's calibrated range.

A precision plan (node id -> mode) may pin individual nodes to f32, which
models plugin layers: pinned nodes compute on dequantized inputs and their
outputs are converted back at the first quantized consumer.

Convolution is im2col + matmul. In f32/f16 the float32 matmul makes results
bit-stable across runs on a fixed machine configuration only. The i8
matmul sums integers exactly in float64 (see quant.conv_accumulator), so i8
results are bit-identical across BLAS builds and thread counts; see README
for the reproducibility contract.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import quant
from .graph import (ACTIVATION, ADD, BATCHNORM, CONCAT, CONV, LEAKY, LINEAR,
                    MAXPOOL, RELU, SCALE, UPSAMPLE, YOLO_HEAD, Graph,
                    QuantParams, _topo_order, conv_out_dim, infer_shapes)

F32 = "f32"
F16 = "f16"
I8 = "i8"
MODES = (F32, F16, I8)

RETAIN_ALL = "all"
RETAIN_HEADS = "heads"


class ExecutionError(Exception):
    pass


class MissingQParams(ExecutionError):
    pass


class ShapeMismatch(ExecutionError):
    pass


class NonFiniteDetected(ExecutionError):
    pass


@dataclass
class TensorBuffer:
    dtype: str  # f32 | f16 | i8
    data: np.ndarray  # n,c,h,w; float32 for f32/f16, int8 for i8
    qparams: QuantParams | None = None

    def as_f32(self) -> np.ndarray:
        if self.dtype == I8:
            return self.qparams.dequantize(self.data)
        return self.data


@dataclass
class ExecutionTrace:
    mode: str
    buffers: dict[str, TensorBuffer] = field(default_factory=dict)

    def as_f32(self, tensor_id: str) -> np.ndarray:
        return self.buffers[tensor_id].as_f32()


def leaky(x, alpha: float):
    """Leaky ReLU: x if x >= 0 else alpha * x."""
    x = np.asarray(x)
    return np.where(x >= 0, x, alpha * x)


def apply_activation(x: np.ndarray, act: str, alpha: float | None = None) -> np.ndarray:
    if act == LINEAR:
        return x
    if act == RELU:
        return np.maximum(x, 0)
    if act == LEAKY:
        return leaky(x, alpha)
    raise ExecutionError(f"unknown activation '{act}'")


def upsample_nearest(x: np.ndarray, factor: int) -> np.ndarray:
    """Replicate each pixel factor x factor."""
    return np.repeat(np.repeat(x, factor, axis=2), factor, axis=3)


def batchnorm(x: np.ndarray, gamma, beta, mean, var, eps: float) -> np.ndarray:
    """y = gamma * (x - mean) / sqrt(var + eps) + beta, per channel."""
    inv = (np.asarray(gamma) / np.sqrt(np.asarray(var) + eps)).astype(np.float32)
    shift = (np.asarray(beta) - np.asarray(mean) * inv).astype(np.float32)
    return x * inv[None, :, None, None] + shift[None, :, None, None]


def maxpool2d(x: np.ndarray, kernel: int, stride: int) -> np.ndarray:
    _, _, h, w = x.shape
    oh, ow = conv_out_dim(h, kernel, stride, 0), conv_out_dim(w, kernel, stride, 0)
    out = None
    for kh in range(kernel):
        for kw in range(kernel):
            window = x[:, :, kh:kh + (oh - 1) * stride + 1:stride,
                          kw:kw + (ow - 1) * stride + 1:stride]
            out = window if out is None else np.maximum(out, window)
    return out


def _im2col(x: np.ndarray, kernel: int, stride: int, pad: int) -> np.ndarray:
    """n=1 NCHW -> [out_h*out_w, c*kernel*kernel] patch matrix (zero padded)."""
    _, c, h, w = x.shape
    if pad:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    oh, ow = conv_out_dim(h, kernel, stride, pad), conv_out_dim(w, kernel, stride, pad)
    cols = np.empty((c, kernel, kernel, oh, ow), dtype=x.dtype)
    for kh in range(kernel):
        for kw in range(kernel):
            cols[:, kh, kw] = x[0, :, kh:kh + (oh - 1) * stride + 1:stride,
                                      kw:kw + (ow - 1) * stride + 1:stride]
    return cols.reshape(c * kernel * kernel, oh * ow).T


def conv2d(x: np.ndarray, kernel: np.ndarray, bias: np.ndarray | None,
           stride: int, pad: int) -> np.ndarray:
    """Direct f32 convolution; kernel is [out_ch, in_ch, k, k]."""
    out_ch, in_c, k, _ = kernel.shape
    _, _, h, w = x.shape
    oh, ow = conv_out_dim(h, k, stride, pad), conv_out_dim(w, k, stride, pad)
    cols = _im2col(x, k, stride, pad)
    out = cols @ kernel.reshape(out_ch, in_c * k * k).T
    if bias is not None:
        out = out + bias[None, :]
    return np.ascontiguousarray(out.T.reshape(1, out_ch, oh, ow), dtype=np.float32)


def _f16(x: np.ndarray) -> np.ndarray:
    return x.astype(np.float16).astype(np.float32)


def _check_finite(node_id: str, x: np.ndarray) -> None:
    if not np.all(np.isfinite(x)):
        raise NonFiniteDetected(f"non-finite values in output of node '{node_id}'")


def execute(graph: Graph, input_data: np.ndarray, mode: str = F32,
            retention: str = RETAIN_ALL, plan: dict[str, str] | None = None) -> ExecutionTrace:
    """Run the graph on one input tensor (float32 n,c,h,w, n = 1). Nodes run
    in dataflow order, whatever the order of the node list."""
    if mode not in MODES:
        raise ExecutionError(f"unknown mode '{mode}'")
    x = np.ascontiguousarray(input_data, dtype=np.float32)
    if graph.input_shape is None or tuple(x.shape) != tuple(graph.input_shape):
        raise ShapeMismatch(
            f"input shape {tuple(x.shape)} does not match graph input {graph.input_shape}")
    infer_shapes(graph)  # raises on a shape or ordering fault before any node runs
    qparams = graph.qparams or {}
    node_mode = {n.id: (plan.get(n.id, mode) if plan else mode) for n in graph.nodes}

    buffers: dict[str, TensorBuffer] = {}
    if mode == F16:
        x = _f16(x)
    if mode == I8:
        in_q = _require_qparams(qparams, graph.input_id)
        buffers[graph.input_id] = TensorBuffer(I8, in_q.quantize(x), in_q)
    else:
        buffers[graph.input_id] = TensorBuffer(F32, x)

    remaining_uses = {graph.input_id: 0}
    for n in graph.nodes:
        for t in n.inputs:
            remaining_uses[t] = remaining_uses.get(t, 0) + 1
        remaining_uses.setdefault(n.output, 0)

    head_outputs = {n.output for n in graph.head_nodes()}
    trace = ExecutionTrace(mode=mode)

    for node in _topo_order(graph)[0]:
        prec = node_mode[node.id]
        if prec == I8:
            buf = _run_node_i8(graph, node, buffers, qparams)
        else:
            buf = _run_node_float(graph, node, buffers, f16=(prec == F16))
        buffers[node.output] = buf

        if retention == RETAIN_ALL or node.output in head_outputs:
            trace.buffers[node.output] = buf
        for t in node.inputs:
            remaining_uses[t] -= 1
            if remaining_uses[t] == 0 and retention != RETAIN_ALL and t not in head_outputs:
                buffers.pop(t, None)

    if retention == RETAIN_ALL:
        trace.buffers[graph.input_id] = buffers[graph.input_id]
    return trace


def _require_qparams(qparams: dict[str, QuantParams], tensor_id: str) -> QuantParams:
    qp = qparams.get(tensor_id)
    if qp is None:
        raise MissingQParams(f"no quantization range for tensor '{tensor_id}'")
    return qp


def _run_node_float(graph: Graph, node, buffers, f16: bool) -> TensorBuffer:
    """f32 evaluation; with f16=True weights and the node output are rounded
    to the binary16 grid (accumulation stays f32)."""
    w = graph.weights
    rnd = _f16 if f16 else (lambda a: a)
    kind = node.kind

    if kind == CONV:
        a = node.attrs
        kernel = w[(node.id, "kernel")].reshape(
            a["out_ch"], -1, a["kernel"], a["kernel"])
        bias = w.get((node.id, "bias")) if a["has_bias"] else None
        x = buffers[node.inputs[0]].as_f32()
        y = conv2d(x, rnd(kernel), rnd(bias) if bias is not None else None,
                   a["stride"], a["pad"])
        y = apply_activation(y, a.get("act", LINEAR), a.get("alpha"))
    elif kind == BATCHNORM:
        x = buffers[node.inputs[0]].as_f32()
        y = batchnorm(x, rnd(w[(node.id, "bn_gamma")]), rnd(w[(node.id, "bn_beta")]),
                      rnd(w[(node.id, "bn_mean")]), rnd(w[(node.id, "bn_var")]),
                      node.attrs["eps"])
    elif kind == ACTIVATION:
        x = buffers[node.inputs[0]].as_f32()
        y = apply_activation(x, node.attrs["act"], node.attrs.get("alpha"))
    elif kind == SCALE:
        x = buffers[node.inputs[0]].as_f32()
        factor = node.attrs.get("factor")
        if factor is None:
            factors = rnd(w[(node.id, "scale_factors")])
            y = x * factors[None, :, None, None]
        else:
            y = x * np.float32(factor)
    elif kind == UPSAMPLE:
        y = upsample_nearest(buffers[node.inputs[0]].as_f32(), node.attrs["factor"])
    elif kind == MAXPOOL:
        y = maxpool2d(buffers[node.inputs[0]].as_f32(),
                      node.attrs["kernel"], node.attrs["stride"])
    elif kind == ADD:
        y = buffers[node.inputs[0]].as_f32()
        for t in node.inputs[1:]:
            y = y + buffers[t].as_f32()
    elif kind == CONCAT:
        y = np.concatenate([buffers[t].as_f32() for t in node.inputs], axis=1)
    elif kind == YOLO_HEAD:
        y = buffers[node.inputs[0]].as_f32()
    else:
        raise ExecutionError(f"{node.id}: cannot execute kind '{kind}'")

    y = rnd(np.ascontiguousarray(y, dtype=np.float32))
    _check_finite(node.id, y)
    return TensorBuffer(F16 if f16 else F32, y)


def _input_i8(buffers, qparams, tensor_id) -> TensorBuffer:
    buf = buffers[tensor_id]
    if buf.dtype == I8:
        return buf
    qp = _require_qparams(qparams, tensor_id)
    return TensorBuffer(I8, qp.quantize(buf.data), qp)


def _run_node_i8(graph: Graph, node, buffers, qparams) -> TensorBuffer:
    w = graph.weights
    kind = node.kind

    if kind == CONV:
        a = node.attrs
        # quantized per node and dropped after it: a model-wide float64 copy
        # would be twice the size of the float32 weights
        levels, scales = quant.weight_levels(w[(node.id, "kernel")].reshape(a["out_ch"], -1))
        q_kernel = levels.reshape(a["out_ch"], -1, a["kernel"], a["kernel"])
        bias = w.get((node.id, "bias")) if a["has_bias"] else None
        xb = _input_i8(buffers, qparams, node.inputs[0])
        real = quant.quantized_conv(xb.data, xb.qparams, q_kernel, scales, bias,
                                    a["stride"], a["pad"])
        real = apply_activation(real, a.get("act", LINEAR), a.get("alpha"))
        _check_finite(node.id, real)
        out_q = _require_qparams(qparams, node.output)
        return TensorBuffer(I8, out_q.quantize(real), out_q)

    if kind == MAXPOOL:
        xb = _input_i8(buffers, qparams, node.inputs[0])
        y = maxpool2d(xb.data, node.attrs["kernel"], node.attrs["stride"])
        return TensorBuffer(I8, y, xb.qparams)

    if kind == UPSAMPLE:
        xb = _input_i8(buffers, qparams, node.inputs[0])
        y = upsample_nearest(xb.data, node.attrs["factor"])
        return TensorBuffer(I8, y, xb.qparams)

    # remaining kinds: dequantize, compute in f32, requantize to own range
    float_buf = _run_node_float(graph, node, buffers, f16=False)
    out_q = _require_qparams(qparams, node.output)
    return TensorBuffer(I8, out_q.quantize(float_buf.data), out_q)
