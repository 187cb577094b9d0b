"""Post-training quantization: histogram collection over a calibration set,
entropy (KL-divergence) range selection and the ranges file.

Activation ranges are affine per tensor (lo -> -128, hi -> 127). Weights
are quantized by the executor when it compiles a graph for i8, which also
owns the integer convolution and its float64/int32 exactness contract.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from . import Error, artifacts
from .executor import ExecutionError, execute
from .graph import Graph, QuantParams, infer_shapes

# cuts the entropy scan evaluates together: bounds its [cuts, levels]
# temporaries at a few hundred KiB each whatever the bin count
SCAN_CHUNK = 64

# bytes the trace of one calibration call may hold: images are run in
# batches of max(1, CALIBRATION_BATCH_BYTES // one image's trace bytes),
# 5 for the tiny detector (564,480 B an image); a yolov3 trace is far over
# it, so yolov3 runs one image a call
CALIBRATION_BATCH_BYTES = 3 * 2 ** 20


class QuantError(Error):
    pass


class LengthMismatch(QuantError):
    pass


class EmptyCalibrationSet(QuantError):
    pass


class InvalidCalibrationConfig(QuantError):
    pass


@dataclass
class CalibrationConfig:
    image_count: int = 1000
    seed: int = 0
    bin_count: int = 2048
    levels: int = 256

    def validate(self) -> None:
        """Raise InvalidCalibrationConfig unless image_count >= 1, seed >= 0,
        bin_count >= 2 and levels >= 1."""
        _require_at_least("image_count", self.image_count, 1)
        _require_at_least("seed", self.seed, 0)
        _require_at_least("bin_count", self.bin_count, 2)
        _require_at_least("levels", self.levels, 1)


def _require_at_least(name: str, value, minimum: int) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
        raise InvalidCalibrationConfig(f"{name} must be an integer >= {minimum}, got {value!r}")


@dataclass
class ActivationHistogram:
    tensor_id: str
    bin_count: int
    lo: float          # observed min
    hi: float          # observed max
    edges: np.ndarray  # bin_count + 1 uniform edges
    counts: np.ndarray # int64 per-bin counts

    @property
    def bin_width(self) -> float:
        return float(self.edges[1] - self.edges[0])


# --------------------------------------------------------------------------
# histogram collection (two passes: range, then counts at fixed edges, one
# sort and one search per traced tensor per batch)
# --------------------------------------------------------------------------

def _canonical_sample(images, count: int, seed: int) -> list:
    """Seeded sample that does not depend on the order images were listed in:
    candidates are ranked by content digest before drawing."""
    items = list(images)
    if not items:
        raise EmptyCalibrationSet("no calibration images")
    keyed = sorted(
        (hashlib.sha1(np.ascontiguousarray(im, dtype=np.float32)).hexdigest(), i)
        for i, im in enumerate(items)
    )
    ordered = [items[i] for _, i in keyed]
    if len(ordered) <= count:
        return ordered
    rng = np.random.default_rng(seed)
    picked = rng.choice(len(ordered), size=count, replace=False)
    return [ordered[i] for i in sorted(picked)]


def _float32_keys(edges: np.ndarray) -> np.ndarray:
    """Float32 keys that count float32 data as np.histogram counts it against
    the float64 `edges`: the number of values below key i is the number
    below edges[i] for every left edge, and the number at or below the
    closed last edge for the last. A left edge's key is the smallest float32
    >= it, since a float32 v is < e exactly when v < that key; the last
    edge's is the smallest float32 > it, since v <= e exactly when v < that
    key (inf past the largest float32, which every finite value is below)."""
    keys = edges.astype(np.float32)
    up = keys < edges
    up[-1] = keys[-1] <= edges[-1]
    with np.errstate(over="ignore"):
        keys[up] = np.nextafter(keys[up], np.float32(np.inf))
    return keys


def _below(values: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """How many of `values` lie below each of the ascending float32 `keys`."""
    return np.searchsorted(np.sort(values, axis=None), keys)


def _per_image_bytes(graph: Graph) -> int:
    """The float32 bytes of every tensor a RETAIN_ALL trace of one image
    holds, the input included."""
    return 4 * sum(math.prod(shape) for shape in infer_shapes(graph).values())


def _each_batch(graph: Graph, sample: list, size: int, visit) -> None:
    """visit(buffers) for the RETAIN_ALL trace of each batch of `size`
    images of `sample`, in order. A batch is concatenated only when its call
    comes and its trace dies when visit returns, so one batch and one trace
    are alive at a time. A batch that cannot be joined or run (an image of
    another shape, a non-finite value) is run again one image a call, which
    raises the error of the first image at fault as an unbatched run
    does."""
    for start in range(0, len(sample), size):
        batch = sample[start:start + size]
        try:
            trace = execute(graph, batch[0] if len(batch) == 1 else np.concatenate(batch))
        except (ExecutionError, ValueError):
            for im in batch:
                execute(graph, im)
            raise
        visit(trace.buffers)
        del trace


def collect_histograms(graph: Graph, images, config: CalibrationConfig | None = None
                       ) -> dict[str, ActivationHistogram]:
    """One histogram per traced tensor over the sampled calibration images.
    The executor checks every traced tensor: a non-finite image or
    activation raises its NonFiniteDetected.

    Both passes run the sample in batches of max(1, CALIBRATION_BATCH_BYTES
    // the trace bytes of one image) images; a batch gives each image the
    bytes of its own run (see "Batches" in the executor), and neither the
    ranges nor the integer counts depend on how the images are grouped.
    Pass one finds each tensor's range and fixes its edges. Pass two runs
    the images again, and each traced tensor of each batch is sorted once
    and searched once for its keys; the numbers of values below each key
    add up over the batches, and their differences are the counts. The
    counts equal np.histogram's at the same edges, bit for bit: the keys
    are float32 values that split float32 data exactly where the float64
    edges do (see _float32_keys)."""
    config = config or CalibrationConfig()
    config.validate()
    sample = _canonical_sample(images, config.image_count, config.seed)
    size = max(1, CALIBRATION_BATCH_BYTES // _per_image_bytes(graph))

    lo: dict[str, float] = {}
    hi: dict[str, float] = {}

    def find_range(buffers):
        for tid, buf in buffers.items():
            mn, mx = float(buf.data.min()), float(buf.data.max())
            lo[tid] = min(lo.get(tid, mn), mn)
            hi[tid] = max(hi.get(tid, mx), mx)
    _each_batch(graph, sample, size, find_range)

    bins = config.bin_count
    edges: dict[str, np.ndarray] = {}
    for tid in lo:
        a, b = lo[tid], hi[tid]
        if a == b:
            # constant tensor: unit-wide histogram around the value
            a, b = a - 0.5, b + 0.5
        edges[tid] = np.linspace(a, b, bins + 1)
    keys = {tid: _float32_keys(e) for tid, e in edges.items()}
    # each tensor's running count of values below each key
    below = {tid: np.zeros(bins + 1, dtype=np.int64) for tid in lo}

    def count(buffers):
        for tid, buf in buffers.items():
            below[tid] += _below(buf.data, keys[tid])
    _each_batch(graph, sample, size, count)

    return {tid: ActivationHistogram(tensor_id=tid, bin_count=bins, lo=lo[tid], hi=hi[tid],
                                     edges=edges[tid], counts=np.diff(below[tid]))
            for tid in sorted(lo)}


# --------------------------------------------------------------------------
# KL divergence and entropy calibration
# --------------------------------------------------------------------------

def kl_divergence(p: np.ndarray, q: np.ndarray) -> float:
    """sum over p_i > 0 of p_i * ln(p_i / q_i); +inf where q lacks support."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape:
        raise LengthMismatch(f"P has {p.shape}, Q has {q.shape}")
    mask = p > 0
    if np.any(q[mask] == 0):
        return float("inf")
    return float(np.sum(p[mask] * np.log(p[mask] / q[mask])))


def candidate_divergence(counts: np.ndarray, j: int, levels: int) -> float:
    """KL cost of clipping the histogram at bin j and representing it with
    `levels` values.

    Reference P: bins [0, j) with all clipped mass folded into bin j-1, so
    discarding a heavy tail is penalized. Candidate Q: the raw kept bins
    grouped into `levels` contiguous buckets, each bucket's mass spread
    uniformly over its occupied bins (bin j-1 counts as occupied once any
    outlier mass lands there). Both normalized.
    """
    counts = np.asarray(counts, dtype=np.float64)
    outliers = counts[j:].sum()
    p = counts[:j].copy()
    p[j - 1] += outliers
    total = p.sum()
    if total == 0:
        return float("inf")
    p /= total

    support = counts[:j] > 0
    if outliers > 0:
        support[j - 1] = True
    bounds = (np.arange(levels + 1, dtype=np.int64) * j) // levels
    sums = np.add.reduceat(counts[:j], bounds[:-1])
    occupied = np.add.reduceat(support.astype(np.float64), bounds[:-1])
    values = np.divide(sums, occupied, out=np.zeros_like(sums), where=occupied > 0)
    q = np.repeat(values, np.diff(bounds))
    q[~support] = 0.0
    qs = q.sum()
    if qs == 0:
        return float("inf")
    q /= qs
    return kl_divergence(p, q)


def _scan_candidates(counts: np.ndarray, levels: int) -> int:
    """Cut j in levels..bins minimizing candidate_divergence(counts, j,
    levels) over integer `counts`; ties go to the larger range (the largest
    such j), and bins is returned when every cut is infinite. This is the
    exhaustive search's answer, ties included, from one vectorized pass.

    _cut_divergences first approximates every cut at once from prefix sums.
    With N the total count, C_j = counts[:j].sum() the kept mass, O_j = N - C_j
    the outlier mass, P the reference histogram (counts[:j] with O_j folded
    into bin j-1), and for each of the cut's `levels` buckets b its count
    sum S_b, its occupied bin count n_b and its reference mass P_b (S_b, plus
    O_j in the last bucket):

        KL_j = (sum_i P_i ln P_i - sum_b P_b ln(S_b / n_b)) / N + ln(C_j / N)

    N, C_j, O_j, S_b and n_b come exactly from integer prefix sums; only
    sum_i P_i ln P_i (a float prefix sum of c ln c) and the bucket logarithms
    round. The infinite cuts are marked from those integers alone: N = 0, or
    outlier mass folded into an empty last bucket (O_j > 0 and S_last = 0,
    which covers C_j = 0), exactly where candidate_divergence returns inf.

    Tolerance. With u = 2**-53 and M = 2 ln N + ln bins + 1, which bounds
    every logarithm either computation takes (|ln(p_i / q_i)|, ln P_i,
    |ln(S_b / n_b)|, |ln(C_j / N)|), candidate_divergence is within
    (bins + 6) u (M + 1) of the exact KL and the prefix-sum value within
    (bins + levels + 10) u (M + 1), so the two differ by at most
    e = 2 (2 bins + levels + 16) u (M + 1), the factor 2 absorbing
    second-order terms and a last-ulp np.log. The exact minimizer's
    approximate value therefore lies within 2e of the smallest approximate
    value (about 1e-10 for 2048 bins, 256 levels and N = 1e7).

    Exact re-check. Every cut whose approximate KL lies within 2e of the
    minimum is evaluated again with candidate_divergence in ascending j
    under the exhaustive loop's `kl <= best_kl` rule, which returns the
    loop's j. On real activation histograms the shortlist holds one cut.
    """
    counts = np.asarray(counts, dtype=np.int64)
    bins = counts.size
    if levels > bins:
        return bins
    approx = _cut_divergences(counts, levels)
    best = approx.min()
    if best == np.inf:
        return bins
    shortlist = levels + np.flatnonzero(approx <= best + _scan_tolerance(
        int(counts.sum()), bins, levels))
    best_j, best_kl = bins, float("inf")
    for j in shortlist.tolist():
        kl = candidate_divergence(counts, j, levels)
        if kl <= best_kl:
            best_kl, best_j = kl, j
    return best_j


def _scan_tolerance(total: int, bins: int, levels: int) -> float:
    """2e, the shortlist width derived in _scan_candidates."""
    u = 2.0 ** -53
    e = 2 * (2 * bins + levels + 16) * u * (2 * math.log(total) + math.log(bins) + 2)
    return 2 * e


def _cut_divergences(counts: np.ndarray, levels: int) -> np.ndarray:
    """The prefix-sum approximation of candidate_divergence(counts, j, levels)
    for j = levels..bins (see _scan_candidates); +inf exactly where
    candidate_divergence is +inf. Cuts are evaluated SCAN_CHUNK at a time so
    the [cuts, levels] temporaries stay small."""
    bins = counts.size
    total = int(counts.sum())
    out = np.full(bins - levels + 1, np.inf)
    if total == 0:
        return out
    kept = np.concatenate(([0], np.cumsum(counts)))           # C_j = kept[j]
    occupied = np.concatenate(([0], np.cumsum(counts > 0)))   # occupied bins below j
    c = counts.astype(np.float64)
    plogp = np.concatenate(([0.0], np.cumsum(c * np.log(np.maximum(c, 1.0)))))
    steps = np.arange(levels + 1, dtype=np.int64)
    for start in range(levels, bins + 1, SCAN_CHUNK):
        cuts = np.arange(start, min(start + SCAN_CHUNK, bins + 1))
        bounds = steps * cuts[:, None] // levels                # [cuts, levels + 1]
        sums = np.diff(kept[bounds], axis=1)                    # S_b
        occ = np.diff(occupied[bounds], axis=1)                 # n_b
        outliers = total - kept[cuts]                           # O_j
        last = counts[cuts - 1]
        occ[:, -1] += (outliers > 0) & (last == 0)              # bin j-1 holds the outliers
        infinite = (outliers > 0) & (sums[:, -1] == 0)

        s = sums.astype(np.float64)
        log_mean = np.log(s / np.maximum(occ, 1), out=np.zeros_like(s), where=sums > 0)
        bucket = (s * log_mean).sum(axis=1) + outliers * log_mean[:, -1]
        folded = (last + outliers).astype(np.float64)           # P at bin j-1
        ref = plogp[cuts - 1] + folded * np.log(np.maximum(folded, 1.0))
        kl = (ref - bucket) / total + np.log(np.maximum(kept[cuts], 1) / total)
        out[cuts - levels] = np.where(infinite, np.inf, kl)
    return out


def _fold_absolute(hist: ActivationHistogram) -> tuple[np.ndarray, np.ndarray]:
    """Histogram of |x| with the same bin count over [0, max(|lo|, |hi|)].
    Each source bin contributes its full count at its center's magnitude."""
    m = max(abs(hist.lo), abs(hist.hi))
    edges = np.linspace(0.0, m, hist.bin_count + 1)
    centers = np.abs((hist.edges[:-1] + hist.edges[1:]) / 2.0)
    idx = np.minimum((centers / (m / hist.bin_count)).astype(np.int64), hist.bin_count - 1)
    counts = np.zeros(hist.bin_count, dtype=np.int64)
    np.add.at(counts, idx, hist.counts)
    return counts, edges


def entropy_calibrate(hist: ActivationHistogram, levels: int = 256) -> tuple[float, float]:
    """Pick clip boundaries minimizing the KL divergence between the observed
    activation distribution and its `levels`-value quantized rendition.

    Non-negative tensors scan upper cut edges with lo fixed at 0; signed
    tensors scan a folded |x| histogram and return the symmetric range
    (-T*128/127, T). A histogram with all mass in one bin falls back to that
    bin's edges widened by one bin width on each side.

    The first scanned bin's count is replaced by its neighbor's, so exact
    zeros (which quantize losslessly at any range) cannot dominate the
    divergence tradeoff.

    The cut is the one the exhaustive search over every j in levels..bins
    with candidate_divergence picks, ties included: _scan_candidates
    evaluates all cuts at once from integer prefix sums, then re-checks the
    cuts within a stated rounding tolerance of the minimum exactly.

    Raises InvalidCalibrationConfig unless levels >= 1 and the histogram has
    at least two bins.
    """
    _require_at_least("levels", levels, 1)
    _require_at_least("bin_count", hist.bin_count, 2)
    nonzero = np.flatnonzero(hist.counts)
    if nonzero.size == 0:
        raise QuantError(f"histogram for '{hist.tensor_id}' is empty")
    if nonzero.size == 1:
        b = int(nonzero[0])
        w = hist.bin_width
        return float(hist.edges[b] - w), float(hist.edges[b + 1] + w)

    if hist.lo >= 0:
        counts, edges = hist.counts.copy(), hist.edges
    else:
        counts, edges = _fold_absolute(hist)
    counts[0] = counts[1]
    j = _scan_candidates(counts, levels)

    if hist.lo >= 0:
        return 0.0, float(edges[j])
    t = float(edges[j])
    return -t * 128.0 / 127.0, t


def calibrate_graph(graph: Graph, images, config: CalibrationConfig | None = None
                    ) -> dict[str, QuantParams]:
    config = config or CalibrationConfig()
    hists = collect_histograms(graph, images, config)
    out = {}
    for tid, hist in hists.items():
        lo, hi = entropy_calibrate(hist, config.levels)
        out[tid] = QuantParams.from_range(lo, hi)
    return out


# --------------------------------------------------------------------------
# ranges file (the calibration-cache analog)
# --------------------------------------------------------------------------

def save_ranges(path, qparams: dict[str, QuantParams], meta: dict | None = None) -> None:
    artifacts.write_json(path, {"meta": meta or {},
                                "tensors": {t: q.to_dict() for t, q in qparams.items()}})


_RANGES_FIELDS = {"tensors": artifacts.OBJECT, "meta": artifacts.optional(artifacts.OBJECT)}


def load_ranges(path) -> tuple[dict[str, QuantParams], dict]:
    doc = artifacts.read_json(path, _RANGES_FIELDS)
    return ({t: QuantParams.from_dict(d, path, "tensors", t) for t, d in doc["tensors"].items()},
            doc.get("meta", {}))
