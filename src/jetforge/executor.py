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
outputs are converted back at the first quantized consumer. compile refuses
a plan that names a node the graph does not hold or a mode not in MODES.

Compile once, run many. `compile(graph, mode, plan, retention)` does
everything that does not depend on the input, once: shape inference, the
dataflow order, when each tensor is last used, each node's mode and the
format of every buffer, which tensors the trace keeps and which buffers
are freed, and the weights each mode reads (binary16-rounded kernels,
biases, batchnorm coefficients and scale vectors for f16; for i8 the int8
weight levels, the per-channel output multipliers and each integer conv's
checks). `Program.run(x)` then only computes. Its steps pass bare arrays,
whose formats compile already knows: a step reads each input as compile
chose (the array itself, its int8 levels dequantized, or a float array
quantized), and only the tensors the trace keeps are wrapped in a
TensorBuffer. A program holds no reference to its graph.

`execute()` is the one entry point. It keeps each graph's programs in a
private cache keyed by mode, plan and retention, and reuses a program only
while the graph still holds everything compile read: the input id and
shape, every node's id, kind, inputs, output and attrs (in list order),
the identity of every weight array read, and the value of every
quantization range read. Editing any of these recompiles on the next call.
Weight arrays are never written in place (see graph), so identity stands
for content. `Graph.copy` starts with an empty cache.

int8 elementwise layers by table. An i8 `activation`, scalar `scale` or
`yolo_head` node maps one int8 level to one int8 level, and a two-input
`add` maps a pair of levels. One builder makes every table: it runs the
node's float path once on the dequantized levels the table is indexed
with, with the input and output ranges of this program, and quantizes the
result. A node's table is indexed with all 256 levels of its input (the
256x256 grid of pairs for `add`); a run is one table lookup. The table is
the float path's output, so the result is the same by construction.
Levels whose float value is not finite are marked, and NonFiniteDetected
is raised only when an input holds one; one lookup routine indexes, checks
the marks and takes, for every table. Other kinds, and inputs that come
from nodes a plan pins to a float mode, run the float path.

Finiteness. Every step checks its output, and `Program.run` checks the
input as its mode reads it: after the binary16 round in f16 (so a finite
input above 65504 that rounds to inf is refused), before the quantize in
i8. A non-finite input raises NonFiniteDetected naming the input tensor
before any node runs.

Weights. Compile checks every weight against its node, as validate does:
a weight that is missing or of the wrong length for its node's shapes, or
a negative bn_var, raises ExecutionError naming the node and the role.

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
is the plain `a @ b`. BLAS's own threads count against the CPUs: with
OpenBLAS on two threads, two CPUs give one block.

Tile-width padding. OpenBLAS's float32 micro-kernel on AVX-512 computes
16 columns at a time, and a patch matrix of 15 output pixels runs at about
a quarter of the rate of a 16-column one (Goto and van de Geijn, ACM TOMS
34(3), 2008). `conv2d` therefore widens the patch matrix of an
[m, K] @ [K, N] GEMM to the next multiple of 16 columns, zero beyond N,
and keeps the first N columns of the product, when N % 16 != 0, N >= 2,
m >= 2 and m * K * N > 10**6. Each kept element is the same dot product
through the same blocked kernel, so no byte changes: on OpenBLAS 0.3.31
(SkylakeX kernel), a sweep of 2,583 random float32 shapes inside this
rule changed none, at one and at two BLAS threads. Outside it the
unpadded GEMM is not on that kernel (N = 1 or m = 1 go to GEMV, at most
10**6 multiply-adds to the small-matrix kernel), and padding changed
2,822 of 4,965 shapes, so those run as they are. The float64 GEMMs are
the i8 accumulator's, padded by the same rule: their sums of integers are
exact in any order (see "Integer convolution"), and that is what keeps
them byte-identical; with non-integer float64 operands padding can change
a sum.

Fused conv tails. decompose-leaky and fold-scale leave each leaky conv as
conv -> relu -> scale(c) -> add(s, e): s is the conv output and
y = s + c * max(s, 0). A program compiled for RETAIN_HEADS runs these four
nodes as one step when s, relu(s) and e are not heads, all four nodes have
one precision under the plan, and the add reads [s, e]. In f32 and f16 the
step makes the same float32 operations in the same order, with the same
binary16 rounds of s, e and y, in place on the GEMM's output; in i8 it
quantizes the conv to s's levels and looks them up in one 256-entry table
of y. The builder makes it from the 256 levels of s: the relu's table on
them gives the levels of r, the scale's table on those the levels of e,
and the add's table on the pairs (s, e) the levels of y, each the float
path on the levels the separate step would read. Finiteness: y = s + e is
finite only when s and e are, and e = c * relu(s), so the step checks y
alone. When y is not finite it checks s, then e, then y, and raises the
NonFiniteDetected the separate steps would raise, naming the conv, the
scale or the add; in i8 the lookup checks the relu's, the scale's and the
add's marks, each indexed by s, in that order. A RETAIN_ALL trace
publishes every tensor, so a program compiled for it fuses nothing.

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
import functools
import os
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, NamedTuple

import numpy as np

from .graph import (ACTIVATION, ADD, BATCHNORM, CONCAT, CONV, LEAKY, LINEAR,
                    MAXPOOL, RELU, SCALE, UPSAMPLE, YOLO_HEAD, Graph,
                    QuantParams, _check_weights, _topo_order, conv_out_dim,
                    infer_shapes)

F32 = "f32"
F16 = "f16"
I8 = "i8"
MODES = (F32, F16, I8)

RETAIN_ALL = "all"
RETAIN_HEADS = "heads"

# every int8 level, at the index of its uint8 byte: tables built over it are
# looked up with the levels' bytes
_LEVELS = np.arange(256, dtype=np.uint8).view(np.int8)
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
# the column multiple a patch matrix is padded to, and the multiply-adds a
# GEMM must exceed to be padded (see "Tile-width padding")
_TILE_COLS = 16
_PAD_MIN_MACS = 10**6


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


def _im2col(x: np.ndarray, kernel: int, stride: int, pad: int,
            width: int | None = None) -> np.ndarray:
    """n=1 NCHW -> [c*kernel*kernel, out_h*out_w] patch matrix in C order,
    or with `width` columns, the patches in the first out_h*out_w and zeros
    after them. Taps that fall in the padding are zero. A 1x1, stride-1,
    unpadded conv that is not widened gets x itself, which already has
    this layout."""
    _, c, h, w = x.shape
    oh, ow = conv_out_dim(h, kernel, stride, pad), conv_out_dim(w, kernel, stride, pad)
    n = oh * ow
    width = n if width is None else width
    if kernel == 1 and stride == 1 and pad == 0 and width == n:
        return x[0].reshape(c, n)
    cols = (np.zeros if pad or width != n else np.empty)((c * kernel * kernel, width),
                                                          dtype=x.dtype)
    patches = cols[:, :n].reshape(c, kernel, kernel, oh, ow)  # a view of the first n columns
    for kh in range(kernel):
        i0, i1 = _inside(kh, stride, pad, h, oh)
        for kw in range(kernel):
            j0, j1 = _inside(kw, stride, pad, w, ow)
            if i0 < i1 and j0 < j1:
                top, left = i0 * stride + kh - pad, j0 * stride + kw - pad
                patches[:, kh, kw, i0:i1, j0:j1] = x[0, :, top:top + (i1 - i0 - 1) * stride + 1:stride,
                                                           left:left + (j1 - j0 - 1) * stride + 1:stride]
    return cols


def _tile_width(m: int, k: int, n: int) -> int:
    """The column count conv2d gives the patch matrix of an [m, k] @ [k, n]
    GEMM (see "Tile-width padding" above)."""
    if n % _TILE_COLS and n >= 2 and m >= 2 and m * k * n > _PAD_MIN_MACS:
        return -(-n // _TILE_COLS) * _TILE_COLS
    return n


def conv2d(x: np.ndarray, kernel: np.ndarray, bias: np.ndarray | None,
           stride: int, pad: int) -> np.ndarray:
    """Convolution of an n=1 NCHW tensor with kernel [out_ch, in_ch, k, k]:
    one GEMM kernel[out_ch, K] @ im2col[K, out_h*out_w] in the operands'
    dtype (split by rows when large, see "GEMM split" above; widened to a
    multiple of 16 columns when skinny, see "Tile-width padding"; float64
    operands are integers, as the i8 accumulator's are), the bias added in
    place. Returns a C-contiguous [1, out_ch, out_h, out_w] array."""
    out_ch, _, k, _ = kernel.shape
    _, _, h, w = x.shape
    oh, ow = conv_out_dim(h, k, stride, pad), conv_out_dim(w, k, stride, pad)
    a = kernel.reshape(out_ch, -1)
    n = oh * ow
    width = _tile_width(out_ch, a.shape[1], n)
    out = _matmul(a, _im2col(x, k, stride, pad, width))
    if width != n:
        out = np.ascontiguousarray(out[:, :n])
    if bias is not None:
        out += bias[:, None]
    return out.reshape(1, out_ch, oh, ow)


def gemm_parts() -> int:
    """How many row blocks a large GEMM is split into: one per CPU this
    process may run on, shared out among the threads BLAS runs each block
    on."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    return max(1, cpus // blas_threads())


@functools.cache
def blas_threads() -> int:
    """The thread count numpy's bundled OpenBLAS reports, read once; 1 when
    no such library or count is found."""
    import ctypes
    import glob
    libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            count = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            if count is not None:
                count.argtypes, count.restype = [], ctypes.c_int
                return max(1, count())
    return 1


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
        with np.errstate(over="ignore"):  # inf is binary16's value; a finiteness check names it
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


def _check_input(shape, x) -> None:
    if shape is None or np.shape(x) != tuple(shape):
        raise ShapeMismatch(f"input shape {np.shape(x)} does not match graph input {shape}")


def execute(graph: Graph, input_data: np.ndarray, mode: str = F32,
            retention: str = RETAIN_ALL, plan: dict[str, str] | None = None) -> ExecutionTrace:
    """Run the graph on one input tensor (float32 n,c,h,w, n = 1). Nodes run
    in dataflow order, whatever the order of the node list. The graph's
    program for (mode, plan, retention) is compiled on first use and reused
    while the graph is unchanged (see the module docstring)."""
    _check_input(graph.input_shape, input_data)
    key = (mode, tuple(sorted(plan.items())) if plan else None, retention)
    program = graph._programs.get(key)
    if program is None or not program.matches(graph):
        program = graph._programs[key] = compile(graph, mode, plan, retention)
    return program.run(input_data)


class _Format(NamedTuple):
    """What compile knows of a tensor's array before any data exist: the
    dtype and range of its TensorBuffer in a trace."""
    dtype: str
    qparams: QuantParams | None = None
    f16_grid: bool = False  # every value is already a binary16 value


class _Step(NamedTuple):
    output: str
    run: Callable[[dict], np.ndarray]
    fmt: _Format            # of the output array
    kept: bool              # the trace holds the output
    frees: tuple[str, ...]  # tensors this step uses last that the trace does not hold


@dataclass(eq=False)
class Program:
    """A graph compiled for one mode, plan and retention. Holds what its
    steps read and a snapshot of what compile read from the graph, never
    the graph."""

    mode: str
    input_id: str
    input_shape: tuple[int, ...]
    input_fmt: _Format
    input_kept: bool
    steps: list[_Step]
    nodes_read: list[tuple]
    weights_read: list[tuple[tuple[str, str], np.ndarray]]
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

    def run(self, x: np.ndarray) -> ExecutionTrace:
        """Run on one input tensor (float32 n,c,h,w, n = 1). The trace holds
        the tensors of the retention this program was compiled for."""
        x = np.ascontiguousarray(x, dtype=np.float32)
        _check_input(self.input_shape, x)
        fmt = self.input_fmt
        if self.mode == F16:
            x = _f16(x)
        if not np.isfinite(x).all():  # as the mode reads it: rounded, not yet quantized
            raise NonFiniteDetected(f"non-finite values in input '{self.input_id}'")
        if self.mode == I8:
            x = fmt.qparams.quantize(x)
        arrays = {self.input_id: x}
        trace = ExecutionTrace(mode=self.mode)
        for step in self.steps:
            y = arrays[step.output] = step.run(arrays)
            if step.kept:
                trace.buffers[step.output] = TensorBuffer(step.fmt.dtype, y, step.fmt.qparams)
            for t in step.frees:
                del arrays[t]
        if self.input_kept:
            trace.buffers[self.input_id] = TensorBuffer(fmt.dtype, x, fmt.qparams)
        return trace


def compile(graph: Graph, mode: str = F32, plan: dict[str, str] | None = None,
            retention: str = RETAIN_ALL) -> Program:
    """Prepare `graph` to run in `mode`, with `plan` pinning nodes to other
    modes, for traces of `retention`; a RETAIN_HEADS program fuses conv
    tails (see "Fused conv tails" above). Raises on an unknown mode,
    retention or plan entry, on a shape or ordering fault, on a weight that
    is missing or of the wrong length or a negative bn_var (naming the node
    and the role, as validate does), and MissingQParams for a range an i8
    node needs, before any node runs."""
    if mode not in MODES:
        raise ExecutionError(f"unknown mode '{mode}'")
    if retention not in (RETAIN_ALL, RETAIN_HEADS):
        raise ExecutionError(f"unknown retention '{retention}'")
    plan = plan or {}
    node_ids = {n.id for n in graph.nodes}
    for node_id, prec in plan.items():
        if node_id not in node_ids:
            raise ExecutionError(f"plan pins node '{node_id}' to '{prec}', "
                                 f"but the graph has no such node")
        if prec not in MODES:
            raise ExecutionError(f"plan pins node '{node_id}' to unknown mode '{prec}'")
    faults = _check_weights(graph, infer_shapes(graph))  # raises on a shape or ordering fault
    if faults:
        raise ExecutionError("; ".join(map(str, faults)))
    order = _topo_order(graph)[0]
    graph_qparams = graph.qparams or {}
    weights_read: dict[tuple[str, str], np.ndarray] = {}
    qparams_read: dict[str, QuantParams] = {}

    def weight(node, role):
        """The graph's array, recorded for the cache check."""
        arr = weights_read[(node.id, role)] = graph.weights[(node.id, role)]
        return arr

    def require(tensor_id):
        qp = graph_qparams.get(tensor_id)
        if qp is None:
            raise MissingQParams(f"no quantization range for tensor '{tensor_id}'")
        qparams_read[tensor_id] = qp
        return qp

    input_fmt = (_Format(I8, require(graph.input_id)) if mode == I8
                 else _Format(F32, f16_grid=(mode == F16)))
    formats = {graph.input_id: input_fmt}
    last_use = {t: i for i, node in enumerate(order) for t in node.inputs}
    heads = {n.output for n in graph.head_nodes()}
    keep_all = retention == RETAIN_ALL
    precision = {n.id: plan.get(n.id, mode) for n in order}
    tails = {} if keep_all else _leaky_tails(graph, order, heads, precision)
    fused = {n.id for tail in tails.values() for n in tail}
    steps = []
    for i, node in enumerate(order):
        if node.id in fused:
            continue
        prec, tail = precision[node.id], tails.get(node.id)
        ins = [formats[t] for t in node.inputs]
        output = tail[-1].output if tail else node.output
        if prec == I8:
            run, fmt = _i8_step(node, ins, weight, require, tail)
        else:
            run, fmt = _float_step(node, ins, prec == F16, weight, tail)
        formats[output] = fmt
        frees = () if keep_all else tuple(t for t in dict.fromkeys(node.inputs)
                                          if last_use[t] == i and t not in heads)
        steps.append(_Step(output, run, fmt, keep_all or output in heads, frees))

    return Program(
        mode=mode, input_id=graph.input_id, input_shape=tuple(graph.input_shape),
        input_fmt=input_fmt, input_kept=keep_all, steps=steps,
        nodes_read=[(n.id, n.kind, list(n.inputs), n.output, copy.deepcopy(n.attrs))
                    for n in graph.nodes],
        weights_read=list(weights_read.items()), qparams_read=list(qparams_read.items()))


def _leaky_tails(graph: Graph, order, heads: set[str],
                 precision: dict[str, str]) -> dict[str, tuple]:
    """conv id -> (relu, scale, add) for every conv whose output s feeds
    only the tail relu(s) -> scale(c) -> add(s, e) that decompose-leaky and
    fold-scale leave, with s, relu(s) and e not heads and all four nodes of
    one precision (see "Fused conv tails" above)."""
    readers = graph.consumers()

    def sole_reader(tensor_id):
        found = readers.get(tensor_id, [])
        return found[0] if len(found) == 1 else None

    tails = {}
    for conv in order:
        s = conv.output
        found = readers.get(s, [])
        if conv.kind != CONV or len(found) != 2 or s in heads:
            continue
        relu, add = sorted(found, key=lambda n: n.kind != ACTIVATION)
        scale = sole_reader(relu.output)
        if (relu.kind != ACTIVATION or relu.attrs["act"] != RELU or scale is None
                or scale.kind != SCALE or scale.attrs.get("factor") is None
                or sole_reader(scale.output) is not add or add.kind != ADD
                or add.inputs != [s, scale.output]
                or relu.output in heads or scale.output in heads
                or len({precision[n.id] for n in (conv, relu, scale, add)}) != 1):
            continue
        tails[conv.id] = (relu, scale, add)
    return tails


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


def _float_step(node, ins: list[_Format], f16: bool, weight, tail=None):
    """f32 evaluation; with f16 the weights and the node output are rounded
    to the binary16 grid (accumulation stays f32). Rounding a binary16
    value again is the identity, so the output round is skipped where it
    cannot change a value. The output is rounded in place, on a copy when
    it shares memory with an input, which the trace or a later step may
    read. A conv with a `tail` runs it too (see _float_tail_step)."""
    op = _node_op(node, weight, f16)
    reads = [_f32_reader(t, fmt) for t, fmt in zip(node.inputs, ins)]
    node_id, fmt = node.id, _Format(F16 if f16 else F32, f16_grid=f16)
    if tail:
        return _float_tail_step(node_id, reads, op, tail, f16), fmt
    round_out = f16 and not (_keeps_f16_grid(node) and all(f.f16_grid for f in ins))

    def run(arrays):
        xs = [read(arrays) for read in reads]
        y = np.ascontiguousarray(op(xs), dtype=np.float32)
        if round_out:
            if any(np.may_share_memory(y, x) for x in xs):
                y = y.copy()
            _round_f16(y)
        _check_finite(node_id, y)
        return y
    return run, fmt


def _float_tail_step(conv_id: str, reads, conv_op, tail, f16: bool):
    """The step of a conv and its leaky tail (relu, scale, add): s = the
    conv, e = c * max(s, 0), y = s + e, each a float32 array operation as in
    the separate steps, and with f16 each of s, e and y rounded to binary16
    where those steps round it (relu keeps s's grid). The relu and the
    scale write the buffer y ends up in; s is the GEMM's output. Only y is
    checked: when it is not finite, s, then e, then y name the node (see
    "Fused conv tails" above)."""
    _, scale, add = tail
    factor = np.float32(scale.attrs["factor"])

    def excess(s):
        e = np.maximum(s, 0)
        e *= factor
        if f16:
            _round_f16(e)
        return e

    def run(arrays):
        s = np.ascontiguousarray(conv_op([read(arrays) for read in reads]), dtype=np.float32)
        if f16:
            _round_f16(s)  # the conv's output is a new array
        y = excess(s)
        np.add(s, y, out=y)
        if f16:
            _round_f16(y)
        if not np.isfinite(y).all():
            _check_finite(conv_id, s)
            _check_finite(scale.id, excess(s))
            _check_finite(add.id, y)
        return y
    return run


def _f32_reader(tensor_id: str, fmt: _Format):
    """A function reading the tensor's float32 values from the arrays: the
    array itself, or int8 levels dequantized (the float twin of
    _i8_levels)."""
    if fmt.dtype == I8:
        qp = fmt.qparams
        return lambda arrays: qp.dequantize(arrays[tensor_id])
    return itemgetter(tensor_id)


def _i8_levels(tensor_id: str, fmt: _Format, require):
    """(a function reading the tensor's int8 levels from the arrays, their
    QuantParams); float arrays are quantized to the tensor's own range."""
    if fmt.dtype == I8:
        return itemgetter(tensor_id), fmt.qparams
    qp = require(tensor_id)
    return (lambda arrays: qp.quantize(arrays[tensor_id])), qp


def _i8_step(node, ins: list[_Format], weight, require, tail=None):
    """The node's i8 step; a conv with a `tail` looks its levels up in the
    tail's table of y (see _tail_table)."""
    kind, a, node_id = node.kind, node.attrs, node.id

    if kind == CONV:
        read, x_params = _i8_levels(node.inputs[0], ins[0], require)
        levels, scales = quantize_kernel(weight(node, "kernel").reshape(
            a["out_ch"], -1, a["kernel"], a["kernel"]))
        bias = weight(node, "bias") if a["has_bias"] else None
        real_conv = quantized_conv(levels, scales, bias, x_params, a["stride"], a["pad"])
        act, alpha = a.get("act", LINEAR), a.get("alpha")
        out_q = require(node.output)

        def conv(arrays):
            real = apply_activation(real_conv(read(arrays)), act, alpha)
            _check_finite(node_id, real)
            return out_q.quantize(real)
        if not tail:
            return conv, _Format(I8, out_q)
        lookup, y_q = _tail_table(out_q, tail, weight, require)
        return (lambda arrays: lookup([conv(arrays)])), _Format(I8, y_q)

    if kind in (MAXPOOL, UPSAMPLE):
        read, qp = _i8_levels(node.inputs[0], ins[0], require)
        op = _node_op(node, weight, f16=False)
        return (lambda arrays: op([read(arrays)])), _Format(I8, qp)

    out_q = require(node.output)
    tabled = (kind in (ACTIVATION, YOLO_HEAD) or (kind == SCALE and a.get("factor") is not None)
              or (kind == ADD and len(node.inputs) == 2))
    if tabled and all(f.dtype == I8 for f in ins):
        # every level of each input, on its own axis: one table index per
        # level, or per pair of levels
        grid = np.ix_(*[_LEVELS] * len(ins))
        table, bad = _level_table(_node_op(node, weight, f16=False),
                                  [(q, f.qparams) for q, f in zip(grid, ins)], out_q)
        lookup = _lookup(table, [] if bad is None else [(node_id, bad)])
        inputs = tuple(node.inputs)
        return (lambda arrays: lookup([arrays[t] for t in inputs])), _Format(I8, out_q)

    # remaining kinds: dequantize, compute in f32, requantize to own range
    float_run, _ = _float_step(node, ins, False, weight)
    return (lambda arrays: out_q.quantize(float_run(arrays))), _Format(I8, out_q)


def _level_table(op, inputs: list[tuple[np.ndarray, QuantParams]], out_q: QuantParams):
    """(out_q's levels of op on the dequantized values of `inputs`, (int8
    levels, QuantParams) pairs that broadcast together, the entries whose
    float value is not finite, or None when all are finite), flat in C
    order."""
    with np.errstate(all="ignore"):  # the marked entries raise when an input hits them
        y = np.ascontiguousarray(op([qp.dequantize(q) for q, qp in inputs]), dtype=np.float32)
        bad = ~np.isfinite(y)
        return out_q.quantize(y).ravel(), (bad.ravel() if bad.any() else None)


def _tail_table(s_q: QuantParams, tail, weight, require):
    """(the lookup of y's levels from [the levels of s], y's QuantParams)
    for the leaky tail relu -> scale -> add(s, e) in i8: each node's table
    over the 256 levels of s, evaluated on the levels its input holds there
    (r for the scale, the pairs (s, e) for the add). The lookup checks the
    three nodes' marks in dataflow order, so it names the node the separate
    lookups would name."""
    relu, scale, add = tail
    r_q, e_q, y_q = (require(n.output) for n in tail)
    r, r_bad = _level_table(_node_op(relu, weight, f16=False), [(_LEVELS, s_q)], r_q)
    e, e_bad = _level_table(_node_op(scale, weight, f16=False), [(r, r_q)], e_q)
    y, y_bad = _level_table(_node_op(add, weight, f16=False), [(_LEVELS, s_q), (e, e_q)], y_q)
    marks = [(n.id, bad) for n, bad in zip(tail, (r_bad, e_bad, y_bad)) if bad is not None]
    return _lookup(y, marks), y_q


def _level_index(levels: list[np.ndarray]) -> np.ndarray:
    """The table index of one input's int8 levels, their uint8 bytes, or of
    a pair's, the uint16 first << 8 | second."""
    if len(levels) == 1:
        return levels[0].view(np.uint8)
    i = levels[0].view(np.uint8).astype(np.uint16)
    i <<= 8
    i |= levels[1].view(np.uint8)
    return i


def _lookup(table: np.ndarray, marks: list[tuple[str, np.ndarray]]):
    """A function from input levels (see _level_index) to the table's
    levels. `marks` are (node id, marked entries) in dataflow order; when
    the levels hit one, NonFiniteDetected names the first node hit."""
    any_bad = np.logical_or.reduce([bad for _, bad in marks]) if marks else None

    def run(levels):
        i = _level_index(levels)
        if any_bad is not None and any_bad.take(i).any():
            node_id = next(n for n, bad in marks if bad.take(i).any())
            raise NonFiniteDetected(f"non-finite values in output of node '{node_id}'")
        return table.take(i)
    return run
