"""Deterministic reference interpreter for Graphs.

Three precision modes:

* f32: plain float32.
* f16: every weight and every layer output is rounded to IEEE binary16
         (round-to-nearest-even) while arithmetic stays in float32. This
         simulates half-float inference without half hardware (see "f16
         rounding" below).
* i8: convolutions run in true integer arithmetic (32-bit accumulation
         over (q - zero_point) * q_w products, see "Integer convolution"
         below); max-pool and upsample act directly on int8 values; all
         other layers dequantize, compute in float32 and requantize to the
         output tensor's calibrated range.

A precision plan (node id -> mode) may pin individual nodes to f32, which
models plugin layers: pinned nodes compute on dequantized inputs and their
outputs are converted back at the first quantized consumer.

Compile once, run many. `compile(graph, mode, plan)` does everything that
does not depend on the input, once: shape inference, the dataflow order,
when each tensor is last used, each node's mode and the format of every
buffer, and the weights each mode reads (binary16-rounded kernels, biases,
batchnorm coefficients and scale vectors for f16; for i8 the int8 weight
levels, the per-channel output multipliers and each integer conv's checks).
`Program.run(x, retention)` then only computes. A program holds no
reference to its graph.

`execute()` is the one entry point. It keeps each graph's programs in a
private cache keyed by mode and plan, and reuses a program only while the
graph still holds everything compile read: the input id and shape, every
node's id, kind, inputs, output and attrs (in list order), the identity of
every weight array read, and the value of every quantization range read.
Editing any of these recompiles on the next call. Weight arrays are never
written in place (see graph), so identity stands for content. `Graph.copy`
starts with an empty cache.

int8 elementwise layers by table. An i8 `activation`, scalar `scale` or
`yolo_head` node maps one int8 level to one int8 level, and a two-input
`add` maps a pair of levels. Compile runs the node's float path on every
level (every pair for `add`) once, with the input and output ranges of
this program, and keeps the 256 (65,536) resulting levels; a run is one
table lookup. The table is the float path's output, so the result is the
same by construction. Levels whose float value is not finite are marked,
and NonFiniteDetected is raised only when an input holds one. Other kinds,
and inputs that come from nodes a plan pins to a float mode, run the float
path.

One window routine. `_im2col` lays out every kernel window of a tensor as
a [c*k*k, out_h*out_w] patch matrix, and it has two callers. `conv2d` is
every convolution: one GEMM kernel[out_ch, c*k*k] @ patches in the
operands' dtype, float32 for f32 and f16, float64 for the i8 accumulator
and its overflow bound (integer_conv). `maxpool2d` is the max over each
column's k*k taps. The float32 GEMM makes f32/f16 results bit-stable
across runs on a fixed machine configuration only.

GEMM split. A large GEMM is split by rows of the kernel (output channels)
into one block per CPU this process may run on (`gemm_parts`). The caller
computes the first block; worker threads, started on first use, compute
the others with `np.matmul(a[lo:hi], b, out=out[lo:hi])` into the same
output, and numpy releases the GIL around each BLAS call. The caller then
takes back every block no worker has started (cancelling its future), so
it waits only on a block already being computed: a worker the host is slow
to run costs at most the serial time. The bytes do not change. Each output
element is still one dot product over all of K, and the row blocks go
through the same blocked BLAS kernel as the whole GEMM: split points are
multiples of 16 rows, and every block keeps at least 2**22 multiply-adds,
far above the ~10**6 below which OpenBLAS's small-matrix kernel sums K in
another order. A GEMM that cannot be split so, and every GEMM on one CPU,
is the plain `a @ b`.

f16 rounding. A step rounds its output in place, on the float32 bits u,
and gives what `x.astype(np.float16).astype(np.float32)` gives, bit for bit
(astype remains the reference the tests check against). Three ranges of
|x| are told apart on the input bits:
* zeros and 2**-14 <= |x| < 65520, binary16's normal range: the integer
  round to 10 mantissa bits, (u + 0x0FFF + ((u >> 13) & 1)) & 0xFFFFE000,
  which adds just under half of the 13 dropped bits' unit, and one more
  when the kept part is odd, so ties go to even (IEEE 754-2008 4.3.1);
* 0 < |x| < 2**-14, binary16's subnormals, multiples of 2**-24:
  (|x| + 0.5) - 0.5 in float32. The unit in the last place of 0.5 is
  2**-24, so the sum rounds to that grid with ties to even, and the
  difference is exact; the sign is copied back, so -0 stays -0;
* |x| >= 65520, inf and NaN: astype on these values alone.
A maximum and a minimum over the bits tell which ranges occur, so a
branch builds its mask only when the array holds a value of its range.
Rounding in place writes only arrays the step allocated: the f16 weights
and the input are rounded copies, and a step whose op result shares memory
with one of its inputs (yolo_head and a linear activation hand back their
input) rounds a copy of it.

Integer convolution. Weights are quantized once, at compile: symmetric int8
levels per output channel (zero point 0), so the conv of activation levels
q with weight levels q_w is a plain integer dot product of (q - zero_point)
and q_w. Its accumulators are the float64 GEMM of conv2d. Compile proves
that every partial sum is an integer below 2**53 (check_float64_exact),
which float64 holds exactly, so the accumulators equal int64 arithmetic bit
for bit whatever the BLAS build or its thread count: i8 results are
reproducible across machines, unlike float32 ones; see README for the
reproducibility contract. Compile also proves the int32 bound per output
channel, max|q - zero_point| * sum|q_w,c| <= INT32_MAX; only the channels
it cannot prove get a data bound on each call, and AccumulatorOverflow is
raised only when that bound exceeds int32.
"""

from __future__ import annotations

import copy
import os
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .graph import (ACTIVATION, ADD, BATCHNORM, CONCAT, CONV, LEAKY, LINEAR,
                    MAXPOOL, RELU, SCALE, UPSAMPLE, YOLO_HEAD, Graph,
                    QuantParams, _topo_order, conv_out_dim, infer_shapes)

F32 = "f32"
F16 = "f16"
I8 = "i8"
MODES = (F32, F16, I8)

RETAIN_ALL = "all"
RETAIN_HEADS = "heads"

# every int8 level, at the index of its uint8 byte: tables built over it are
# looked up with the levels' bytes
_LEVELS = np.arange(256, dtype=np.uint8).view(np.int8)
# rows of the 256x256 add table built at once: bounds the float64
# temporaries at 32 KiB
_TABLE_ROWS = 16
INT32_MAX = 2**31 - 1
WEIGHT_QMAX = 127
# float64 represents every integer of magnitude below this exactly
FLOAT64_EXACT_LIMIT = 2**53
# float32 bit patterns of |x|: binary16's smallest normal, 2**-14, and
# 65520, from which binary16 rounds to inf
_F16_MIN_NORMAL = 0x38800000
_F16_OVERFLOW = 0x477FF000
# the fewest multiply-adds a block of a split GEMM computes, and the row
# multiple its split points fall on (see "GEMM split")
_SPLIT_MIN_MACS = 2**22
_SPLIT_ROWS = 16


class ExecutionError(Exception):
    pass


class MissingQParams(ExecutionError):
    pass


class ShapeMismatch(ExecutionError):
    pass


class NonFiniteDetected(ExecutionError):
    pass


class AccumulatorOverflow(ExecutionError):
    pass


class InexactAccumulation(ExecutionError):
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


def _bn_affine(gamma, beta, mean, var, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """batchnorm's per-channel (inv, shift), broadcastable over n,c,h,w."""
    inv = (np.asarray(gamma) / np.sqrt(np.asarray(var) + eps)).astype(np.float32)
    shift = (np.asarray(beta) - np.asarray(mean) * inv).astype(np.float32)
    return inv[None, :, None, None], shift[None, :, None, None]


def batchnorm(x: np.ndarray, gamma, beta, mean, var, eps: float) -> np.ndarray:
    """y = gamma * (x - mean) / sqrt(var + eps) + beta, per channel."""
    inv, shift = _bn_affine(gamma, beta, mean, var, eps)
    return x * inv + shift


def maxpool2d(x: np.ndarray, kernel: int, stride: int) -> np.ndarray:
    """Max over each kernel x kernel window of an n=1 NCHW tensor, unpadded;
    exact on floats and int8 levels alike, as max does not depend on order."""
    _, c, h, w = x.shape
    oh, ow = conv_out_dim(h, kernel, stride, 0), conv_out_dim(w, kernel, stride, 0)
    windows = _im2col(x, kernel, stride, 0).reshape(c, kernel * kernel, oh * ow)
    return windows.max(axis=1).reshape(1, c, oh, ow)


def _inside(tap: int, stride: int, pad: int, size: int, out: int) -> tuple[int, int]:
    """[first, last) output positions i whose tap i * stride + tap - pad
    lands inside [0, size)."""
    return max(0, -((tap - pad) // stride)), min(out, (size - 1 + pad - tap) // stride + 1)


def _im2col(x: np.ndarray, kernel: int, stride: int, pad: int) -> np.ndarray:
    """n=1 NCHW -> [c*kernel*kernel, out_h*out_w] patch matrix in C order.
    Taps that fall in the padding are zero. A 1x1, stride-1, unpadded conv
    gets x itself, which already has this layout."""
    _, c, h, w = x.shape
    if kernel == 1 and stride == 1 and pad == 0:
        return x[0].reshape(c, h * w)
    oh, ow = conv_out_dim(h, kernel, stride, pad), conv_out_dim(w, kernel, stride, pad)
    cols = (np.zeros if pad else np.empty)((c, kernel, kernel, oh, ow), dtype=x.dtype)
    for kh in range(kernel):
        i0, i1 = _inside(kh, stride, pad, h, oh)
        for kw in range(kernel):
            j0, j1 = _inside(kw, stride, pad, w, ow)
            if i0 < i1 and j0 < j1:
                top, left = i0 * stride + kh - pad, j0 * stride + kw - pad
                cols[:, kh, kw, i0:i1, j0:j1] = x[0, :, top:top + (i1 - i0 - 1) * stride + 1:stride,
                                                        left:left + (j1 - j0 - 1) * stride + 1:stride]
    return cols.reshape(c * kernel * kernel, oh * ow)


def conv2d(x: np.ndarray, kernel: np.ndarray, bias: np.ndarray | None,
           stride: int, pad: int) -> np.ndarray:
    """Convolution of an n=1 NCHW tensor with kernel [out_ch, in_ch, k, k]:
    one GEMM kernel[out_ch, K] @ im2col[K, out_h*out_w] in the operands'
    dtype (split by rows when large, see "GEMM split" above), the bias
    added in place. Returns a C-contiguous
    [1, out_ch, out_h, out_w] array."""
    out_ch, _, k, _ = kernel.shape
    _, _, h, w = x.shape
    oh, ow = conv_out_dim(h, k, stride, pad), conv_out_dim(w, k, stride, pad)
    out = _matmul(kernel.reshape(out_ch, -1), _im2col(x, k, stride, pad))
    if bias is not None:
        out += bias[:, None]
    return out.reshape(1, out_ch, oh, ow)


def gemm_parts() -> int:
    """How many row blocks a large GEMM is split into: one per CPU this
    process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _split_rows(m: int, k: int, n: int) -> list[int] | None:
    """The row bounds [0, ..., m] of an [m, k] @ [k, n] GEMM split into up
    to gemm_parts() blocks, each starting on a multiple of _SPLIT_ROWS and
    holding at least _SPLIT_MIN_MACS multiply-adds; None when it is not
    split."""
    row_macs = k * n
    if m * row_macs < 2 * _SPLIT_MIN_MACS:
        return None
    for parts in range(min(gemm_parts(), m * row_macs // _SPLIT_MIN_MACS), 1, -1):
        bounds = [(m * i // parts + _SPLIT_ROWS // 2) // _SPLIT_ROWS * _SPLIT_ROWS
                  for i in range(parts)] + [m]
        if all((hi - lo) * row_macs >= _SPLIT_MIN_MACS for lo, hi in zip(bounds, bounds[1:])):
            return bounds
    return None


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for 2-d a and b, split by rows of a when large (see "GEMM
    split" above). The caller computes the first block, then every block
    no worker has started (cancelling a future claims it), then waits for
    the blocks workers are computing; a worker's error is raised here."""
    bounds = _split_rows(a.shape[0], a.shape[1], b.shape[1])
    if bounds is None:
        return a @ b
    out = np.empty((a.shape[0], b.shape[1]), dtype=np.result_type(a, b))
    blocks = list(zip(bounds, bounds[1:]))
    workers = _row_workers(len(blocks) - 1)
    futures = [workers.submit(_gemm_rows, a, b, out, lo, hi) for lo, hi in blocks[1:]]
    try:
        _gemm_rows(a, b, out, *blocks[0])
        for future, (lo, hi) in zip(futures, blocks[1:]):
            if future.cancel():
                _gemm_rows(a, b, out, lo, hi)
    finally:  # after an error too, no worker writes `out` once this returns
        for future in futures:
            if not future.cancel():
                future.result()
    return out


def _gemm_rows(a: np.ndarray, b: np.ndarray, out: np.ndarray, lo: int, hi: int) -> None:
    np.matmul(a[lo:hi], b, out=out[lo:hi])


_workers = None  # the ThreadPoolExecutor of _row_workers, once made


def _row_workers(count: int):
    """The ThreadPoolExecutor whose threads compute blocks of split GEMMs
    next to their callers, started as blocks arrive: as many as the first
    split needs, `count`. They end with the interpreter. The module is
    imported on the first split, so a process that splits no GEMM does not
    hold it (about 0.8 MiB with the logging module it loads)."""
    global _workers
    if _workers is None:
        from concurrent.futures import ThreadPoolExecutor
        _workers = ThreadPoolExecutor(count, thread_name_prefix="jetforge-gemm")
    return _workers


def _forget_row_workers() -> None:
    """A forked child has none of its parent's threads: it starts workers
    of its own."""
    global _workers
    _workers = None


os.register_at_fork(after_in_child=_forget_row_workers)


def quantize_kernel(kernel: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(int8 levels, float64 scales) of symmetric per-output-channel weights,
    computed in place on one float64 temporary: scale_c = max|w_c| / 127
    (1.0 for all-zero channels); levels round half-up and clamp to
    [-WEIGHT_QMAX, WEIGHT_QMAX]."""
    k = np.asarray(kernel, dtype=np.float32)
    flat = k.reshape(k.shape[0], -1)
    maxabs = np.maximum(flat.max(axis=1), -flat.min(axis=1))
    scales = np.where(maxabs > 0, maxabs / 127.0, 1.0).astype(np.float64)
    levels = flat / scales[:, None]
    levels += 0.5
    np.floor(levels, out=levels)
    np.clip(levels, -WEIGHT_QMAX, WEIGHT_QMAX, out=levels)
    return levels.astype(np.int8).reshape(k.shape), scales


def check_float64_exact(taps: int, max_abs_x: int) -> None:
    """Raise InexactAccumulation unless a `taps`-long dot product of integers
    |x| <= max_abs_x and |w| <= WEIGHT_QMAX is exact in float64 in any
    summation order: every partial sum must stay below 2**53."""
    if taps * max_abs_x * WEIGHT_QMAX >= FLOAT64_EXACT_LIMIT:
        raise InexactAccumulation(
            f"{taps} taps of |x| <= {max_abs_x} times |w| <= {WEIGHT_QMAX} can reach "
            f"2**53; float64 accumulation would not be exact")


def integer_conv(levels: np.ndarray, zero_point: int, stride: int,
                 pad: int) -> Callable[[np.ndarray], np.ndarray]:
    """The convolution with int8 weight levels [out_ch, in_ch, k, k] in
    [-WEIGHT_QMAX, WEIGHT_QMAX], prepared once with its checks (see
    "Integer convolution" above): a function from int8 activation levels to
    the float64 [1, out_ch, out_h, out_w] sums of (q - zero_point) * q_w.
    A channel's data bound is conv2d of |q - zero_point| and |q_w,c|, exact
    because the padding is zero, so the windows of |x| are the absolute
    windows of x."""
    max_abs_x = max(127 - zero_point, zero_point + 128)
    check_float64_exact(levels[0].size, max_abs_x)
    abs_sums = np.abs(levels.reshape(len(levels), -1)).sum(axis=1, dtype=np.int64)
    unproven = np.flatnonzero(max_abs_x * abs_sums > INT32_MAX)
    abs_unproven = np.abs(levels[unproven].astype(np.float64)) if unproven.size else None

    def run(x_q: np.ndarray) -> np.ndarray:
        shifted = x_q.astype(np.float64)
        shifted -= zero_point
        if abs_unproven is not None:
            worst = conv2d(np.abs(shifted), abs_unproven, None, stride, pad).max(initial=0)
            if worst > INT32_MAX:
                raise AccumulatorOverflow(
                    f"conv accumulator would reach {int(worst)} (> int32); "
                    f"needs wider accumulation")
        return conv2d(shifted, levels.astype(np.float64), None, stride, pad)
    return run


def quantized_conv(levels: np.ndarray, scales: np.ndarray, bias: np.ndarray | None,
                   x_params: QuantParams, stride: int,
                   pad: int) -> Callable[[np.ndarray], np.ndarray]:
    """integer_conv prepared for input range `x_params`, then
    real = acc * (scale_in * scale_c) + bias in float64, returned as
    float32; the multipliers are computed once."""
    accumulate = integer_conv(levels, x_params.zero_point, stride, pad)
    multipliers = (x_params.scale * scales)[:, None, None]
    bias = None if bias is None else bias[:, None, None]

    def run(x_q: np.ndarray) -> np.ndarray:
        real = accumulate(x_q)
        real *= multipliers
        if bias is not None:
            real += bias
        return real.astype(np.float32)
    return run


def _round_f16(x: np.ndarray) -> None:
    """Round the float32 array `x` in place to binary16 values, exactly as
    `x.astype(np.float16).astype(np.float32)` does (see "f16 rounding"
    above). The ranges are told apart on the input bits; a range's branch
    runs only when the array holds one of its values."""
    u = x.view(np.uint32)
    a = u & 0x7FFFFFFF  # the bits of |x|
    big = small = None
    if a.max(initial=0) >= _F16_OVERFLOW:
        big = np.flatnonzero(a >= _F16_OVERFLOW)
        big_values = np.take(x, big).astype(np.float16).astype(np.float32)
    a -= 1  # 0 wraps round to the top, so the min is the smallest nonzero |x|, less 1
    if a.min(initial=_F16_MIN_NORMAL) < _F16_MIN_NORMAL - 1:
        small = np.flatnonzero(a < _F16_MIN_NORMAL - 1)
        s = np.take(x, small)
        small_values = np.copysign((np.abs(s) + 0.5) - 0.5, s)
    np.right_shift(u, 13, out=a)
    a &= 1
    a += 0x0FFF
    u += a
    u &= 0xFFFFE000
    if small is not None:
        np.put(x, small, small_values)
    if big is not None:
        np.put(x, big, big_values)


def _f16(x: np.ndarray) -> np.ndarray:
    """A float32 copy of `x` rounded to binary16 values."""
    y = np.array(x, dtype=np.float32)
    _round_f16(y)
    return y


def _check_finite(node_id: str, x: np.ndarray) -> None:
    if not np.isfinite(x).all():
        raise NonFiniteDetected(f"non-finite values in output of node '{node_id}'")


def _check_input(shape, x: np.ndarray) -> None:
    if shape is None or tuple(x.shape) != tuple(shape):
        raise ShapeMismatch(f"input shape {tuple(x.shape)} does not match graph input {shape}")


def execute(graph: Graph, input_data: np.ndarray, mode: str = F32,
            retention: str = RETAIN_ALL, plan: dict[str, str] | None = None) -> ExecutionTrace:
    """Run the graph on one input tensor (float32 n,c,h,w, n = 1). Nodes run
    in dataflow order, whatever the order of the node list. The graph's
    program for (mode, plan) is compiled on first use and reused while the
    graph is unchanged (see the module docstring)."""
    if mode not in MODES:
        raise ExecutionError(f"unknown mode '{mode}'")
    x = np.ascontiguousarray(input_data, dtype=np.float32)
    _check_input(graph.input_shape, x)
    key = (mode, tuple(sorted(plan.items())) if plan else None)
    program = graph._programs.get(key)
    if program is None or not program.matches(graph):
        program = graph._programs[key] = compile(graph, mode, plan)
    return program.run(x, retention)


class _Format(NamedTuple):
    """What compile knows of a tensor's buffer before any data exist."""
    dtype: str
    qparams: QuantParams | None = None
    f16_grid: bool = False  # every value is already a binary16 value


class _Step(NamedTuple):
    output: str
    run: Callable[[dict], TensorBuffer]
    head: bool              # kept in every trace
    frees: tuple[str, ...]  # tensors this step uses last (heads excepted)


@dataclass(eq=False)
class Program:
    """A graph compiled for one mode and plan. Holds what its steps read and
    a snapshot of what compile read from the graph, never the graph."""

    mode: str
    input_id: str
    input_shape: tuple[int, ...]
    input_qparams: QuantParams | None
    steps: list[_Step]
    nodes_read: list[tuple]
    weights_read: list[tuple[tuple[str, str], np.ndarray | None]]
    qparams_read: list[tuple[str, QuantParams]]

    def matches(self, graph: Graph) -> bool:
        """Whether `graph` still holds everything this program was compiled
        from."""
        if (graph.input_id != self.input_id or graph.input_shape is None
                or tuple(graph.input_shape) != self.input_shape
                or len(graph.nodes) != len(self.nodes_read)):
            return False
        for n, (nid, kind, inputs, output, attrs) in zip(graph.nodes, self.nodes_read):
            if (n.id != nid or n.kind != kind or n.inputs != inputs or n.output != output
                    or n.attrs != attrs):
                return False
        weights = graph.weights
        if any(weights.get(key) is not arr for key, arr in self.weights_read):
            return False
        qparams = graph.qparams or {}
        return all(qparams.get(t) == qp for t, qp in self.qparams_read)

    def run(self, x: np.ndarray, retention: str = RETAIN_ALL) -> ExecutionTrace:
        """Run on one input tensor (float32 n,c,h,w, n = 1)."""
        x = np.ascontiguousarray(x, dtype=np.float32)
        _check_input(self.input_shape, x)
        if self.mode == F16:
            x = _f16(x)
        if self.mode == I8:
            first = TensorBuffer(I8, self.input_qparams.quantize(x), self.input_qparams)
        else:
            first = TensorBuffer(F32, x)
        buffers = {self.input_id: first}
        keep_all = retention == RETAIN_ALL
        trace = ExecutionTrace(mode=self.mode)
        for step in self.steps:
            buf = buffers[step.output] = step.run(buffers)
            if keep_all or step.head:
                trace.buffers[step.output] = buf
            if not keep_all:
                for t in step.frees:
                    del buffers[t]
        if keep_all:
            trace.buffers[self.input_id] = first
        return trace


def compile(graph: Graph, mode: str = F32, plan: dict[str, str] | None = None) -> Program:
    """Prepare `graph` to run in `mode`, with `plan` pinning nodes to other
    modes. Raises on a shape or ordering fault, and MissingQParams for a
    range an i8 node needs, before any node runs."""
    if mode not in MODES:
        raise ExecutionError(f"unknown mode '{mode}'")
    infer_shapes(graph)  # raises on a shape or ordering fault
    order = _topo_order(graph)[0]
    graph_qparams = graph.qparams or {}
    weights_read: dict[tuple[str, str], np.ndarray | None] = {}
    qparams_read: dict[str, QuantParams] = {}

    def weight(node, role):
        """The graph's array, recorded for the cache check; a missing bias
        is None, any other missing role a KeyError."""
        arr = weights_read[(node.id, role)] = graph.weights.get((node.id, role))
        if arr is None and role != "bias":
            raise KeyError((node.id, role))
        return arr

    def require(tensor_id):
        qp = graph_qparams.get(tensor_id)
        if qp is None:
            raise MissingQParams(f"no quantization range for tensor '{tensor_id}'")
        qparams_read[tensor_id] = qp
        return qp

    input_qparams = require(graph.input_id) if mode == I8 else None
    formats = {graph.input_id: _Format(I8, input_qparams) if mode == I8
               else _Format(F32, f16_grid=(mode == F16))}
    last_use = {t: i for i, node in enumerate(order) for t in node.inputs}
    heads = {n.output for n in graph.head_nodes()}
    steps = []
    for i, node in enumerate(order):
        prec = plan.get(node.id, mode) if plan else mode
        ins = [formats[t] for t in node.inputs]
        if prec == I8:
            run, formats[node.output] = _i8_step(node, ins, weight, require)
        else:
            run, formats[node.output] = _float_step(node, ins, prec == F16, weight)
        frees = tuple(t for t in dict.fromkeys(node.inputs) if last_use[t] == i and t not in heads)
        steps.append(_Step(node.output, run, node.output in heads, frees))

    return Program(
        mode=mode, input_id=graph.input_id, input_shape=tuple(graph.input_shape),
        input_qparams=input_qparams, steps=steps,
        nodes_read=[(n.id, n.kind, list(n.inputs), n.output, copy.deepcopy(n.attrs))
                    for n in graph.nodes],
        weights_read=list(weights_read.items()), qparams_read=list(qparams_read.items()))


def _node_op(node, weight, f16: bool) -> Callable[[list[np.ndarray]], np.ndarray]:
    """The node's computation on its input arrays (float32; max-pool and
    upsample also move int8 levels), with its weights read once and rounded
    to binary16 when f16."""
    rnd = _f16 if f16 else (lambda a: a)
    kind, a = node.kind, node.attrs

    if kind == CONV:
        kernel = rnd(weight(node, "kernel").reshape(a["out_ch"], -1, a["kernel"], a["kernel"]))
        bias = weight(node, "bias") if a["has_bias"] else None
        bias = rnd(bias) if bias is not None else None
        stride, pad, act, alpha = a["stride"], a["pad"], a.get("act", LINEAR), a.get("alpha")
        return lambda xs: apply_activation(conv2d(xs[0], kernel, bias, stride, pad), act, alpha)
    if kind == BATCHNORM:
        inv, shift = _bn_affine(*(rnd(weight(node, role)) for role in
                                  ("bn_gamma", "bn_beta", "bn_mean", "bn_var")), a["eps"])
        return lambda xs: xs[0] * inv + shift
    if kind == ACTIVATION:
        act, alpha = a["act"], a.get("alpha")
        return lambda xs: apply_activation(xs[0], act, alpha)
    if kind == SCALE:
        if a.get("factor") is None:
            factors = rnd(weight(node, "scale_factors"))[None, :, None, None]
        else:
            factors = np.float32(a["factor"])
        return lambda xs: xs[0] * factors
    if kind == UPSAMPLE:
        factor = a["factor"]
        return lambda xs: upsample_nearest(xs[0], factor)
    if kind == MAXPOOL:
        k, stride = a["kernel"], a["stride"]
        return lambda xs: maxpool2d(xs[0], k, stride)
    if kind == ADD:
        def add(xs):
            y = xs[0]
            for t in xs[1:]:
                y = y + t
            return y
        return add
    if kind == CONCAT:
        return lambda xs: np.concatenate(xs, axis=1)
    if kind == YOLO_HEAD:
        return lambda xs: xs[0]
    raise ExecutionError(f"{node.id}: cannot execute kind '{kind}'")


def _keeps_f16_grid(node) -> bool:
    """Whether the node's output values are all among its input values (or
    zero), so binary16 inputs give a binary16 output."""
    if node.kind == ACTIVATION:
        return node.attrs["act"] == RELU
    return node.kind in (MAXPOOL, UPSAMPLE, CONCAT, YOLO_HEAD)


def _float_step(node, ins: list[_Format], f16: bool, weight):
    """f32 evaluation; with f16 the weights and the node output are rounded
    to the binary16 grid (accumulation stays f32). Rounding a binary16
    value again is the identity, so the output round is skipped where it
    cannot change a value. The output is rounded in place, on a copy when
    it shares memory with an input, which the trace or a later step may
    read."""
    op = _node_op(node, weight, f16)
    node_id, inputs, dtype = node.id, tuple(node.inputs), F16 if f16 else F32
    round_out = f16 and not (_keeps_f16_grid(node) and all(f.f16_grid for f in ins))

    def run(buffers):
        xs = [buffers[t].as_f32() for t in inputs]
        y = np.ascontiguousarray(op(xs), dtype=np.float32)
        if round_out:
            if any(np.may_share_memory(y, x) for x in xs):
                y = y.copy()
            _round_f16(y)
        _check_finite(node_id, y)
        return TensorBuffer(dtype, y)
    return run, _Format(dtype, f16_grid=f16)


def _i8_levels(tensor_id: str, fmt: _Format, require):
    """(a function reading the tensor's int8 levels from the buffers, their
    QuantParams); float buffers are quantized to the tensor's own range."""
    if fmt.dtype == I8:
        return (lambda buffers: buffers[tensor_id].data), fmt.qparams
    qp = require(tensor_id)
    return (lambda buffers: qp.quantize(buffers[tensor_id].data)), qp


def _i8_step(node, ins: list[_Format], weight, require):
    kind, a, node_id = node.kind, node.attrs, node.id

    if kind == CONV:
        read, x_params = _i8_levels(node.inputs[0], ins[0], require)
        levels, scales = quantize_kernel(weight(node, "kernel").reshape(
            a["out_ch"], -1, a["kernel"], a["kernel"]))
        bias = weight(node, "bias") if a["has_bias"] else None
        real_conv = quantized_conv(levels, scales, bias, x_params, a["stride"], a["pad"])
        act, alpha = a.get("act", LINEAR), a.get("alpha")
        out_q = require(node.output)

        def conv(buffers):
            real = apply_activation(real_conv(read(buffers)), act, alpha)
            _check_finite(node_id, real)
            return TensorBuffer(I8, out_q.quantize(real), out_q)
        return conv, _Format(I8, out_q)

    if kind in (MAXPOOL, UPSAMPLE):
        read, qp = _i8_levels(node.inputs[0], ins[0], require)
        op = _node_op(node, weight, f16=False)
        return (lambda buffers: TensorBuffer(I8, op([read(buffers)]), qp)), _Format(I8, qp)

    out_q = require(node.output)
    tabled = (kind in (ACTIVATION, YOLO_HEAD) or (kind == SCALE and a.get("factor") is not None)
              or (kind == ADD and len(node.inputs) == 2))
    if tabled and all(f.dtype == I8 for f in ins):
        table, bad = _level_table(_node_op(node, weight, f16=False),
                                  [f.qparams for f in ins], out_q)
        return _lookup(node_id, node.inputs, table, bad, out_q), _Format(I8, out_q)

    # remaining kinds: dequantize, compute in f32, requantize to own range
    float_run, _ = _float_step(node, ins, False, weight)
    return ((lambda buffers: TensorBuffer(I8, out_q.quantize(float_run(buffers).data), out_q)),
            _Format(I8, out_q))


def _level_table(op, in_qparams: list[QuantParams], out_q: QuantParams):
    """(out_q's levels of op on every input level or pair of levels, the
    entries whose float value is not finite, or None when all are finite),
    flat and indexed by the input levels' uint8 bytes (the first input's in
    the high byte)."""
    with np.errstate(all="ignore"):  # the marked entries raise when an input hits them
        values = [qp.dequantize(_LEVELS) for qp in in_qparams]
        if len(values) == 1:
            y = np.ascontiguousarray(op(values), dtype=np.float32)
            bad, table = ~np.isfinite(y), out_q.quantize(y)
        else:
            table = np.empty((256, 256), dtype=np.int8)
            bad = np.empty((256, 256), dtype=bool)
            for r in range(0, 256, _TABLE_ROWS):
                rows = slice(r, r + _TABLE_ROWS)
                y = np.ascontiguousarray(op([values[0][rows, None], values[1][None, :]]),
                                         dtype=np.float32)
                bad[rows], table[rows] = ~np.isfinite(y), out_q.quantize(y)
    return table.ravel(), (bad.ravel() if bad.any() else None)


def _lookup(node_id: str, inputs: list[str], table: np.ndarray, bad: np.ndarray | None,
            out_q: QuantParams):
    if len(inputs) == 1:
        (t,) = inputs

        def index(buffers):
            return buffers[t].data.view(np.uint8)
    else:
        t0, t1 = inputs

        def index(buffers):
            i = buffers[t0].data.view(np.uint8).astype(np.uint16)
            i <<= 8
            i |= buffers[t1].data.view(np.uint8)
            return i

    def run(buffers):
        i = index(buffers)
        if bad is not None and bad.take(i).any():
            raise NonFiniteDetected(f"non-finite values in output of node '{node_id}'")
        return TensorBuffer(I8, table.take(i), out_q)
    return run
