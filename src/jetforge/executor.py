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
format of every buffer, and the weights each mode reads. The retention
becomes one set of kept tensors, the input and every node output for
RETAIN_ALL, the head outputs for RETAIN_HEADS, and fusion, frees and the
trace all read that one set: a kept tensor is never fused away or freed,
and every other buffer is freed by the step that uses it last, so
`Program.kept` and each step's `frees` give the live set after every step.
One accessor, `weight(node, role)`, gives every builder a node's weight in
the form the node's mode reads: binary16-rounded for an f16 node, the
graph's array otherwise; from it i8 prepares the int8 weight levels, the
per-channel output multipliers and each integer conv's checks.
`Program.run(x)` then only computes, on a batch of any n >= 1 images (see
"Batches"). Its steps pass bare arrays, whose formats compile already
knows: a step reads each input as compile chose (the array itself, its
int8 levels dequantized, or a float array quantized), and the kept tensors
are wrapped in TensorBuffers once, after the last step. A program holds no
reference to its graph.

`execute()` is the one entry point. It keeps each graph's programs in a
private cache keyed by mode, plan and retention, and reuses a program only
while the graph still holds everything compile read: the input id and
shape, every node's id, kind, inputs, output and attrs (in list order),
the identity of every weight array read, and the value of every
quantization range read. Editing any of these recompiles on the next call.
Weight arrays are never written in place (see graph), so identity stands
for content. `Graph.copy` starts with an empty cache.

Kinds. `OPS` declares how each node kind runs: its float op, whether its
output keeps its inputs' binary16 grid, and its int8 path, an integer GEMM
(conv), a move of int8 levels (max-pool, upsample), a table, or the float
path on dequantized inputs, requantized to the output's range.

int8 elementwise layers by table: the nodes whose `OPS` entry names the
table path. An i8 `activation`, scalar `scale` or `yolo_head` node maps one
int8 level to one int8 level, and a two-input `add` maps a pair of levels.
One builder makes every table: it runs the node's float path once on the
dequantized levels the table is indexed with, with the input and output
ranges of this program, and quantizes the result. A node's table is
indexed with all 256 levels of its input (the 256x256 grid of pairs for
`add`); a run is one table lookup. The table is the float path's output,
so the result is the same by construction. Levels whose float value is not
finite are marked, and NonFiniteDetected is raised only when an input
holds one; one lookup routine indexes, checks the marks and takes, for
every table. A table node whose inputs come from nodes a plan pins to a
float mode runs the float path.

Finiteness. Every step checks its output, and `Program.run` checks the
input as its mode reads it: after the binary16 round in f16 (so a finite
input above 65504 that rounds to inf is refused), before the quantize in
i8. A non-finite input raises NonFiniteDetected naming the input tensor
before any node runs.

Batches. An input holds n >= 1 images of the graph input's c, h and w;
one image is the smallest batch and takes the same path. Each image's
slice of every buffer has the bytes of its n = 1 run, because no value of
one image is computed with another's: the elementwise steps, tables,
binary16 rounds and finiteness checks run once over the batch and act on
each value alone, max-pool reduces within an image's windows, and a conv
makes one GEMM per image on the shapes of an n = 1 call (a stacked
`np.matmul`, one BLAS call per matrix), so its row blocks, its tile-width
padding and its float64 accumulator are those of n = 1. One wide GEMM over
the n * out_h * out_w columns of all images would be fewer calls, but it
puts other shapes through BLAS, whose blocking may sum K in another order,
so the executor never makes one. When n > 1, NonFiniteDetected and
AccumulatorOverflow name the first image at fault (" in image i", counted
from 0) after the step that raises; with one image their messages are
those of an unbatched run. An n = 0 input, or one of another c, h or w,
raises ShapeMismatch.

Weights. Compile checks every weight against its node, as validate does:
a weight that is missing or of the wrong length for its node's shapes, or
a negative bn_var, raises ExecutionError naming the node and the role.

One window routine. `_im2col` lays out every kernel window of each image
as a [c*k*k, out_h*out_w] patch matrix, [n, c*k*k, out_h*out_w] for the
batch, and it has two callers. `conv2d` is every convolution: per image
one GEMM kernel[out_ch, c*k*k] @ patches in the operands' dtype, float32
for f32 and f16, float64 for the i8 accumulator and its overflow bound
(integer_conv). `maxpool2d` is the max over each column's k*k taps. The
float32 GEMM makes f32/f16 results bit-stable across runs on a fixed
machine configuration only.

Blocks. One scheduler, `_in_blocks(fn, bounds)`, runs `fn(lo, hi)` on
each block [lo, hi) of rows that `bounds` marks. The caller computes the
first block; worker threads, started on first use, compute the others, and
numpy releases the GIL around each BLAS call and each elementwise loop. The
caller then takes back every block no worker has started (cancelling its
future), so it waits only on a block already being computed: a worker the
host is slow to run costs at most the serial time. A worker's error is
raised in the caller once no worker writes any more. One block is computed
by the caller alone and starts no thread. The scheduler has two callers,
each with its own floor on a block:
* `_matmul` splits a large GEMM by rows of the kernel (output channels)
  into one block per CPU not taken by BLAS's own threads (`gemm_parts`),
  each `np.matmul(a[lo:hi], b, out=out[..., lo:hi, :])` into the same
  output, one BLAS call per image of a batch. Its floor is there for the
  bytes. Each output element is still one dot product over all of K, and
  the row blocks go through the same blocked BLAS kernel as the whole
  GEMM: split points are multiples of 16 rows, and every block keeps at
  least 2**22 multiply-adds, far above the ~10**6 below which OpenBLAS's
  small-matrix kernel sums K in another order. A GEMM that cannot be split
  so, and every GEMM on one CPU, is the plain `a @ b`, stacked over a
  batch. With OpenBLAS on two threads, two CPUs give one block.
* `in_row_blocks(fn, rows, size)` splits an elementwise job over rows, the
  fold passes' kernel scaling, into one block per CPU (`cpus`), as no BLAS
  runs inside. Its floor, 2**17 values a block, is there for the cost: an
  elementwise result is the same however its rows are split, and a smaller
  block costs more to hand over than it saves. The tiny detector's largest
  weight (576 values) starts no thread.

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
y = s + c * max(s, 0). A program runs these four nodes as one step when
s, relu(s) and e are not kept, all four nodes have one precision under the
plan, and the add reads [s, e]. In f32 and f16 the
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
add's marks, each indexed by s, in that order. A RETAIN_ALL program keeps
every tensor, so by the same rule it fuses nothing.

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
and q_w. Its accumulators are the float64 GEMM of conv2d. One bound makes
them exact: in any summation order, every partial sum of an output is at
most sum |q - zero_point| * |q_w,c| over its window in magnitude, and
integer_conv holds that sum to INT32_MAX before it returns anything.
Compile proves it per output channel, max|q - zero_point| * sum|q_w,c| <=
INT32_MAX; only the channels it cannot prove get a data bound on each
call, which raises AccumulatorOverflow where an int32 accumulator would
overflow. INT32_MAX is far below 2**53, so every partial sum is an integer
float64 holds exactly, and the accumulators equal int32 arithmetic bit for
bit whatever the BLAS build or its thread count: i8 results are
reproducible across machines, unlike float32 ones; see README for the
reproducibility contract.
"""

from __future__ import annotations

import copy
import functools
import operator
import os
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from . import Error
from .graph import (ACTIVATION, ADD, BATCHNORM, CONCAT, CONV, KINDS, LEAKY, LINEAR,
                    MAXPOOL, RELU, SCALE, UPSAMPLE, YOLO_HEAD, Graph,
                    QuantParams, _check_weights, conv_out_dim, infer_shapes)

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
# float32 bit patterns of |x|: binary16's smallest normal, 2**-14, and
# 65520, from which binary16 rounds to inf
_F16_MIN_NORMAL = 0x38800000
_F16_OVERFLOW = 0x477FF000
# the fewest multiply-adds a block of a split GEMM computes, and the row
# multiple its split points fall on; the fewest values a block of a split
# elementwise job computes (see "Blocks")
_SPLIT_MIN_MACS = 2**22
_SPLIT_ROWS = 16
_SPLIT_MIN_VALUES = 2**17
# the column multiple a patch matrix is padded to, and the multiply-adds a
# GEMM must exceed to be padded (see "Tile-width padding")
_TILE_COLS = 16
_PAD_MIN_MACS = 10**6


class ExecutionError(Error):
    pass


class MissingQParams(ExecutionError):
    pass


class ShapeMismatch(ExecutionError):
    pass


class NonFiniteDetected(ExecutionError):
    pass


class AccumulatorOverflow(ExecutionError):
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
    """Max over each kernel x kernel window of an NCHW tensor of n >= 1
    images, unpadded; exact on floats and int8 levels alike, as max does not
    depend on order, and an image's windows hold its own values only."""
    n, c, h, w = x.shape
    oh, ow = conv_out_dim(h, kernel, stride, 0), conv_out_dim(w, kernel, stride, 0)
    windows = _im2col(x, kernel, stride, 0).reshape(n, c, kernel * kernel, oh * ow)
    return windows.max(axis=2).reshape(n, c, oh, ow)


def _inside(tap: int, stride: int, pad: int, size: int, out: int) -> tuple[int, int]:
    """[first, last) output positions i whose tap i * stride + tap - pad
    lands inside [0, size)."""
    return max(0, -((tap - pad) // stride)), min(out, (size - 1 + pad - tap) // stride + 1)


def _im2col(x: np.ndarray, kernel: int, stride: int, pad: int,
            width: int | None = None) -> np.ndarray:
    """NCHW of n >= 1 images -> [n, c*kernel*kernel, out_h*out_w], one patch
    matrix per image in C order, or with `width` columns, the patches in the
    first out_h*out_w and zeros after them. Taps that fall in the padding
    are zero. A 1x1, stride-1, unpadded conv that is not widened gets a view
    of x, which already has this layout."""
    n, c, h, w = x.shape
    oh, ow = conv_out_dim(h, kernel, stride, pad), conv_out_dim(w, kernel, stride, pad)
    pixels = oh * ow
    width = pixels if width is None else width
    if kernel == 1 and stride == 1 and pad == 0 and width == pixels:
        return x.reshape(n, c, pixels)
    cols = (np.zeros if pad or width != pixels else np.empty)(
        (n, c * kernel * kernel, width), dtype=x.dtype)
    # views of each image's first `pixels` columns and of x, with the images'
    # channels on one axis, as a one-image call has them
    patches = cols[:, :, :pixels].reshape(n * c, kernel, kernel, oh, ow)
    planes = x.reshape(n * c, h, w)
    for kh in range(kernel):
        i0, i1 = _inside(kh, stride, pad, h, oh)
        for kw in range(kernel):
            j0, j1 = _inside(kw, stride, pad, w, ow)
            if i0 < i1 and j0 < j1:
                top, left = i0 * stride + kh - pad, j0 * stride + kw - pad
                end, right = top + (i1 - i0 - 1) * stride + 1, left + (j1 - j0 - 1) * stride + 1
                patches[:, kh, kw, i0:i1, j0:j1] = planes[:, top:end:stride, left:right:stride]
    return cols


def _tile_width(m: int, k: int, n: int) -> int:
    """The column count conv2d gives the patch matrix of an [m, k] @ [k, n]
    GEMM (see "Tile-width padding" above)."""
    if n % _TILE_COLS and n >= 2 and m >= 2 and m * k * n > _PAD_MIN_MACS:
        return -(-n // _TILE_COLS) * _TILE_COLS
    return n


def conv2d(x: np.ndarray, kernel: np.ndarray, bias: np.ndarray | None,
           stride: int, pad: int) -> np.ndarray:
    """Convolution of an NCHW tensor of n >= 1 images with kernel
    [out_ch, in_ch, k, k]: per image one GEMM kernel[out_ch, K] @
    im2col[K, out_h*out_w] in the operands' dtype, on the shapes of a
    one-image call (split by rows when large, see "Blocks" above; widened to
    a multiple of 16 columns when skinny, see "Tile-width padding"; float64
    operands are integers, as the i8 accumulator's are), the bias added in
    place. Returns a C-contiguous [n, out_ch, out_h, out_w] array."""
    out_ch, _, k, _ = kernel.shape
    n, _, h, w = x.shape
    oh, ow = conv_out_dim(h, k, stride, pad), conv_out_dim(w, k, stride, pad)
    a = kernel.reshape(out_ch, -1)
    pixels = oh * ow
    width = _tile_width(out_ch, a.shape[1], pixels)
    out = _matmul(a, _im2col(x, k, stride, pad, width))
    if width != pixels:
        out = np.ascontiguousarray(out[:, :, :pixels])
    if bias is not None:
        out += bias[:, None]
    return out.reshape(n, out_ch, oh, ow)


def cpus() -> int:
    """How many CPUs this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def gemm_parts() -> int:
    """How many row blocks a large GEMM is split into: one per CPU this
    process may run on, shared out among the threads BLAS runs each block
    on."""
    return max(1, cpus() // blas_threads())


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
    """a @ b for a 2-d a and b one matrix [K, N] or a stack [n, K, N]: one
    GEMM per matrix of b, on the same shapes whatever n, split by rows of a
    when large (see "Blocks" above)."""
    bounds = _split_rows(a.shape[0], a.shape[1], b.shape[-1])
    if bounds is None:
        return np.matmul(a, b)
    out = np.empty(b.shape[:-2] + (a.shape[0], b.shape[-1]), dtype=np.result_type(a, b))
    _in_blocks(functools.partial(_gemm_rows, a, b, out), bounds)
    return out


def _gemm_rows(a: np.ndarray, b: np.ndarray, out: np.ndarray, lo: int, hi: int) -> None:
    np.matmul(a[lo:hi], b, out=out[..., lo:hi, :])


def in_row_blocks(fn: Callable[[int, int], None], rows: int, size: int) -> None:
    """fn(lo, hi) over rows [0, rows) of an elementwise job of `size` values,
    in up to one block per CPU of at least _SPLIT_MIN_VALUES values each
    (see "Blocks" above); fn writes rows lo to hi of its result."""
    parts = max(1, min(cpus(), rows, size // _SPLIT_MIN_VALUES))
    _in_blocks(fn, [rows * i // parts for i in range(parts)] + [rows])


def _in_blocks(fn: Callable[[int, int], None], bounds: list[int]) -> None:
    """fn(lo, hi) once for each block [lo, hi) of `bounds`: the caller
    computes the first block, then every block no worker has started
    (cancelling a future claims it), then waits for the blocks workers are
    computing; a worker's error is raised here."""
    blocks = list(zip(bounds, bounds[1:]))
    futures = [_row_workers(len(blocks) - 1).submit(fn, lo, hi) for lo, hi in blocks[1:]]
    try:
        fn(*blocks[0])
        for future, (lo, hi) in zip(futures, blocks[1:]):
            if future.cancel():
                fn(lo, hi)
    finally:  # after an error too, no worker writes a result once this returns
        for future in futures:
            if not future.cancel():
                future.result()


_workers = None  # the ThreadPoolExecutor of _row_workers, once made


def _row_workers(count: int):
    """The ThreadPoolExecutor whose threads compute blocks next to their
    callers, started as blocks arrive: as many as the first split needs,
    `count`. They end with the interpreter. Like Program.run, they ignore
    overflow, which the finiteness checks name. The module is imported on
    the first split, so a process that splits nothing does not hold it
    (about 0.8 MiB with the logging module it loads)."""
    global _workers
    if _workers is None:
        from concurrent.futures import ThreadPoolExecutor
        _workers = ThreadPoolExecutor(count, thread_name_prefix="jetforge-gemm",
                                      initializer=functools.partial(
                                          np.seterr, over="ignore", invalid="ignore"))
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


def integer_conv(levels: np.ndarray, zero_point: int, stride: int,
                 pad: int) -> Callable[[np.ndarray], np.ndarray]:
    """The convolution with int8 weight levels [out_ch, in_ch, k, k] in
    [-WEIGHT_QMAX, WEIGHT_QMAX], prepared once with its checks (see
    "Integer convolution" above): a function from int8 activation levels to
    the float64 [n, out_ch, out_h, out_w] sums of (q - zero_point) * q_w.
    A channel's data bound is conv2d of |q - zero_point| and |q_w,c|, exact
    because the padding is zero, so the windows of |x| are the absolute
    windows of x. The static bound is a float64 product, so a zero point
    far outside [-128, 127] cannot wrap it round as int64 would. In a batch
    AccumulatorOverflow names the first image at fault."""
    max_abs_x = max(127 - zero_point, zero_point + 128)
    abs_sums = np.abs(levels.reshape(len(levels), -1)).sum(axis=1, dtype=np.float64)
    unproven = np.flatnonzero(max_abs_x * abs_sums > INT32_MAX)
    abs_unproven = np.abs(levels[unproven].astype(np.float64)) if unproven.size else None

    def run(x_q: np.ndarray) -> np.ndarray:
        shifted = x_q.astype(np.float64)
        shifted -= zero_point
        if abs_unproven is not None:
            bound = conv2d(np.abs(shifted), abs_unproven, None, stride, pad)
            worst = bound.reshape(len(bound), -1).max(axis=1, initial=0)
            over = worst > INT32_MAX
            if over.any():
                raise AccumulatorOverflow(
                    f"conv accumulator would reach {int(worst[over.argmax()])} (> int32)"
                    f"{_in_image(over)}; needs wider accumulation")
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


def _in_image(bad: np.ndarray) -> str:
    """'' for one image; for a batch, ' in image i' naming the first image
    whose part of `bad` (booleans, [n, ...]) holds a True."""
    if len(bad) == 1:
        return ""
    return f" in image {int(bad.reshape(len(bad), -1).any(axis=1).argmax())}"


def _non_finite(what: str, x: np.ndarray) -> NonFiniteDetected:
    return NonFiniteDetected(f"non-finite values in {what}{_in_image(~np.isfinite(x))}")


def _check_finite(node_id: str, x: np.ndarray) -> None:
    if not np.isfinite(x).all():
        raise _non_finite(f"output of node '{node_id}'", x)


def _check_input(shape, x) -> None:
    """x must hold n >= 1 images of the graph input's c, h and w."""
    got = np.shape(x)
    if shape is None or len(got) != 4 or got[0] < 1 or got[1:] != tuple(shape)[1:]:
        raise ShapeMismatch(f"input shape {got} does not match graph input {shape}")


def execute(graph: Graph, input_data: np.ndarray, mode: str = F32,
            retention: str = RETAIN_ALL, plan: dict[str, str] | None = None) -> ExecutionTrace:
    """Run the graph on a batch (float32 n,c,h,w, n >= 1 images of the
    graph input's c, h and w); each image's slice of every buffer has the
    bytes of its own n = 1 run (see "Batches" in the module docstring).
    Nodes run in dataflow order, whatever the order of the node list. The
    graph's program for (mode, plan, retention) is compiled on first use and
    reused while the graph is unchanged (see the module docstring)."""
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
    frees: tuple[str, ...]  # tensors this step uses last that the program does not keep


@dataclass(eq=False)
class Program:
    """A graph compiled for one mode, plan and retention. Holds what its
    steps read and a snapshot of what compile read from the graph, never
    the graph."""

    mode: str
    input_id: str
    input_shape: tuple[int, ...]
    input_fmt: _Format
    steps: list[_Step]
    kept: dict[str, _Format]  # the trace's tensors, in its order, and their formats
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
        """Run on a batch (float32 n,c,h,w, n >= 1 images); a program does
        not depend on n, and each image's slice of every buffer has the
        bytes of its n = 1 run. The trace holds the tensors the program
        keeps, in the order of `kept`."""
        x = np.ascontiguousarray(x, dtype=np.float32)
        _check_input(self.input_shape, x)
        if self.mode == F16:
            x = _f16(x)
        if not np.isfinite(x).all():  # as the mode reads it: rounded, not yet quantized
            raise _non_finite(f"input '{self.input_id}'", x)
        if self.mode == I8:
            x = self.input_fmt.qparams.quantize(x)
        arrays = {self.input_id: x}
        # an overflow's inf or NaN is named by the steps' finiteness checks
        with np.errstate(over="ignore", invalid="ignore"):
            for step in self.steps:
                arrays[step.output] = step.run(arrays)
                for t in step.frees:
                    del arrays[t]
        return ExecutionTrace({t: TensorBuffer(f.dtype, arrays[t], f.qparams)
                               for t, f in self.kept.items()})


def compile(graph: Graph, mode: str = F32, plan: dict[str, str] | None = None,
            retention: str = RETAIN_ALL) -> Program:
    """Prepare `graph` to run in `mode`, with `plan` pinning nodes to other
    modes, for traces of `retention`; a conv tail none of whose inner
    tensors the retention keeps is fused (see "Fused conv tails" above).
    Raises on an unknown mode or retention; on the first structural,
    field, attribute or shape fault `validate` lists, as infer_shapes'
    GraphError in validate's words; on an unknown plan entry; on a weight
    that is missing or of the wrong length or a negative bn_var (naming the
    node and the role, as validate does); and MissingQParams for a range an
    i8 node needs; all before any node runs."""
    if mode not in MODES:
        raise ExecutionError(f"unknown mode '{mode}'")
    if retention not in (RETAIN_ALL, RETAIN_HEADS):
        raise ExecutionError(f"unknown retention '{retention}'")
    shapes = infer_shapes(graph)  # raises validate's first graph fault
    plan = plan or {}
    node_ids = {n.id for n in graph.nodes}
    for node_id, prec in plan.items():
        if node_id not in node_ids:
            raise ExecutionError(f"plan pins node '{node_id}' to '{prec}', "
                                 f"but the graph has no such node")
        if prec not in MODES:
            raise ExecutionError(f"plan pins node '{node_id}' to unknown mode '{prec}'")
    faults = _check_weights(graph, shapes)
    if faults:
        raise ExecutionError("; ".join(map(str, faults)))
    producers = graph.producers()  # shapes lists the input, then each output in dataflow order
    order = [producers[t] for t in list(shapes)[1:]]
    graph_qparams = graph.qparams or {}
    precision = {n.id: plan.get(n.id, mode) for n in order}
    weights_read: dict[tuple[str, str], np.ndarray] = {}
    qparams_read: dict[str, QuantParams] = {}

    def weight(node, role):
        """The graph's array in the form the node's mode reads, rounded to
        binary16 in f16; the array is recorded for the cache check."""
        arr = weights_read[(node.id, role)] = graph.weights[(node.id, role)]
        return _f16(arr) if precision[node.id] == F16 else arr

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
    kept = ({n.output for n in order} | {graph.input_id} if retention == RETAIN_ALL
            else {n.output for n in graph.head_nodes()})
    tails = _leaky_tails(graph, order, kept, precision)
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
        steps.append(_Step(output, run, tuple(t for t in dict.fromkeys(node.inputs)
                                              if last_use[t] == i and t not in kept)))

    return Program(
        mode=mode, input_id=graph.input_id, input_shape=tuple(graph.input_shape),
        input_fmt=input_fmt, steps=steps,
        kept={t: formats[t] for t in [s.output for s in steps] + [graph.input_id] if t in kept},
        nodes_read=[(n.id, n.kind, list(n.inputs), n.output, copy.deepcopy(n.attrs))
                    for n in graph.nodes],
        weights_read=list(weights_read.items()), qparams_read=list(qparams_read.items()))


def _leaky_tails(graph: Graph, order, kept: set[str],
                 precision: dict[str, str]) -> dict[str, tuple]:
    """conv id -> (relu, scale, add) for every conv whose output s feeds
    only the tail relu(s) -> scale(c) -> add(s, e) that decompose-leaky and
    fold-scale leave, with s, relu(s) and e not kept and all four nodes of
    one precision (see "Fused conv tails" above)."""
    readers = graph.consumers()

    def sole_reader(tensor_id):
        found = readers.get(tensor_id, [])
        return found[0] if len(found) == 1 else None

    tails = {}
    for conv in order:
        s = conv.output
        found = readers.get(s, [])
        if conv.kind != CONV or len(found) != 2 or s in kept:
            continue
        relu, add = sorted(found, key=lambda n: n.kind != ACTIVATION)
        scale = sole_reader(relu.output)
        if (relu.kind != ACTIVATION or relu.attrs["act"] != RELU or scale is None
                or scale.kind != SCALE or scale.attrs.get("factor") is None
                or sole_reader(scale.output) is not add or add.kind != ADD
                or add.inputs != [s, scale.output]
                or relu.output in kept or scale.output in kept
                or len({precision[n.id] for n in (conv, relu, scale, add)}) != 1):
            continue
        tails[conv.id] = (relu, scale, add)
    return tails


def _conv_op(node, weight):
    a = node.attrs
    kernel = weight(node, "kernel").reshape(a["out_ch"], -1, a["kernel"], a["kernel"])
    bias = weight(node, "bias") if a["has_bias"] else None
    stride, pad, act, alpha = a["stride"], a["pad"], a.get("act", LINEAR), a.get("alpha")
    return lambda xs: apply_activation(conv2d(xs[0], kernel, bias, stride, pad), act, alpha)


def _batchnorm_op(node, weight):
    inv, shift = _bn_affine(*(weight(node, role) for role in KINDS[BATCHNORM].roles),
                            node.attrs["eps"])
    return lambda xs: xs[0] * inv + shift


def _scale_op(node, weight):
    factor = node.attrs.get("factor")
    factors = (weight(node, "scale_factors")[None, :, None, None] if factor is None
               else np.float32(factor))
    return lambda xs: xs[0] * factors


def _unary_op(fn, *keys):
    """The builder of fn(x, *the node's `keys` attributes) on one input."""
    def build(node, weight):
        args = [node.attrs.get(key) for key in keys]
        return lambda xs: fn(xs[0], *args)
    return build


# a node's int8 path: an integer GEMM, a move of int8 levels, one table
# lookup, or its float path on dequantized inputs, requantized
GEMM, LEVELS, TABLE, FLOAT = "gemm", "levels", "table", "float"


class Op(NamedTuple):
    """How one node kind runs:
    * build(node, weight): the node's computation on its input arrays
      (float32; max-pool and upsample also move int8 levels), with its
      weights read once through compile's `weight`, in the node's form;
    * keeps_grid(node): whether the output values are all among its input
      values (or zero), so binary16 inputs give a binary16 output;
    * i8(node): its int8 path, GEMM, LEVELS, TABLE or FLOAT."""

    build: Callable
    keeps_grid: Callable = lambda node: False
    i8: Callable = lambda node: FLOAT


_ALWAYS = lambda node: True  # noqa: E731

OPS = {
    CONV: Op(_conv_op, i8=lambda n: GEMM),
    BATCHNORM: Op(_batchnorm_op),
    ACTIVATION: Op(_unary_op(apply_activation, "act", "alpha"),
                   keeps_grid=lambda n: n.attrs["act"] == RELU, i8=lambda n: TABLE),
    SCALE: Op(_scale_op, i8=lambda n: TABLE if n.attrs.get("factor") is not None else FLOAT),
    UPSAMPLE: Op(_unary_op(upsample_nearest, "factor"), keeps_grid=_ALWAYS, i8=lambda n: LEVELS),
    MAXPOOL: Op(_unary_op(maxpool2d, "kernel", "stride"), keeps_grid=_ALWAYS,
                i8=lambda n: LEVELS),
    ADD: Op(lambda n, weight: lambda xs: functools.reduce(operator.add, xs),
            i8=lambda n: TABLE if len(n.inputs) == 2 else FLOAT),
    CONCAT: Op(lambda n, weight: lambda xs: np.concatenate(xs, axis=1), keeps_grid=_ALWAYS),
    YOLO_HEAD: Op(lambda n, weight: operator.itemgetter(0), keeps_grid=_ALWAYS,
                  i8=lambda n: TABLE),
}


def _float_step(node, ins: list[_Format], f16: bool, weight, tail=None):
    """f32 evaluation; with f16 the node output is rounded to the binary16
    grid, as `weight` rounds the weights (accumulation stays f32). Rounding
    a binary16 value again is the identity, so the output round is skipped
    where it cannot change a value. The output is rounded in place, on a
    copy when it shares memory with an input, which the trace or a later
    step may read. A conv with a `tail` runs it too (see
    _float_tail_step)."""
    op = OPS[node.kind].build(node, weight)
    reads = [_f32_reader(t, fmt) for t, fmt in zip(node.inputs, ins)]
    node_id, fmt = node.id, _Format(F16 if f16 else F32, f16_grid=f16)
    if tail:
        return _float_tail_step(node_id, reads, op, tail, f16), fmt
    round_out = f16 and not (OPS[node.kind].keeps_grid(node) and all(f.f16_grid for f in ins))

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
    return operator.itemgetter(tensor_id)


def _i8_levels(tensor_id: str, fmt: _Format, require):
    """(a function reading the tensor's int8 levels from the arrays, their
    QuantParams); float arrays are quantized to the tensor's own range."""
    if fmt.dtype == I8:
        return operator.itemgetter(tensor_id), fmt.qparams
    qp = require(tensor_id)
    return (lambda arrays: qp.quantize(arrays[tensor_id])), qp


def _i8_step(node, ins: list[_Format], weight, require, tail=None):
    """The node's i8 step, on the path its OPS entry names; a conv with a
    `tail` looks its levels up in the tail's table of y (see _tail_table)."""
    path, a, node_id = OPS[node.kind].i8(node), node.attrs, node.id

    if path == GEMM:
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

    if path == LEVELS:
        read, qp = _i8_levels(node.inputs[0], ins[0], require)
        op = OPS[node.kind].build(node, weight)
        return (lambda arrays: op([read(arrays)])), _Format(I8, qp)

    out_q = require(node.output)
    if path == TABLE and all(f.dtype == I8 for f in ins):
        # every level of each input, on its own axis: one table index per
        # level, or per pair of levels
        grid = np.ix_(*[_LEVELS] * len(ins))
        table, bad = _level_table(OPS[node.kind].build(node, weight),
                                  [(q, f.qparams) for q, f in zip(grid, ins)], out_q)
        lookup = _lookup(table, [] if bad is None else [(node_id, bad)])
        inputs = tuple(node.inputs)
        return (lambda arrays: lookup([arrays[t] for t in inputs])), _Format(I8, out_q)

    # FLOAT, and tables of float inputs: dequantize, compute in f32, requantize to own range
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
    r, r_bad = _level_table(OPS[relu.kind].build(relu, weight), [(_LEVELS, s_q)], r_q)
    e, e_bad = _level_table(OPS[scale.kind].build(scale, weight), [(r, r_q)], e_q)
    y, y_bad = _level_table(OPS[add.kind].build(add, weight), [(_LEVELS, s_q), (e, e_q)], y_q)
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
    the levels hit one, NonFiniteDetected names the first node hit and, in
    a batch, the first image that hits it."""
    any_bad = np.logical_or.reduce([bad for _, bad in marks]) if marks else None

    def run(levels):
        i = _level_index(levels)
        if any_bad is not None and any_bad.take(i).any():
            node_id, hit = next((n, hit) for n, bad in marks if (hit := bad.take(i)).any())
            raise NonFiniteDetected(f"non-finite values in output of node '{node_id}'"
                                    f"{_in_image(hit)}")
        return table.take(i)
    return run
