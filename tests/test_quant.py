import hashlib
import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jetforge import executor, quant
from jetforge import graph as g
from jetforge.artifacts import ArtifactError


def make_hist(counts, lo, hi, tensor_id="t"):
    counts = np.asarray(counts, dtype=np.int64)
    return quant.ActivationHistogram(
        tensor_id=tensor_id, bin_count=counts.size, lo=lo, hi=hi,
        edges=np.linspace(lo, hi, counts.size + 1), counts=counts)


# --------------------------------------------------------------------------
# KL divergence
# --------------------------------------------------------------------------

def test_kl_identity_is_zero():
    p = np.array([0.25, 0.5, 0.25])
    assert quant.kl_divergence(p, p) == 0.0


def test_kl_known_value():
    assert quant.kl_divergence([1.0, 0.0], [0.5, 0.5]) == pytest.approx(math.log(2))


def test_kl_missing_support_is_infinite():
    assert quant.kl_divergence([0.5, 0.5], [1.0, 0.0]) == float("inf")


def test_kl_length_mismatch():
    with pytest.raises(quant.LengthMismatch):
        quant.kl_divergence([1.0], [0.5, 0.5])


# --------------------------------------------------------------------------
# entropy calibration vs an independently coded exhaustive oracle
# --------------------------------------------------------------------------

def oracle_best_cut(counts, levels):
    """Exhaustive KL search written from scratch: for every cut j build the
    outlier-folded reference and the level-grouped candidate, take the argmin
    with ties toward larger j. Independent of the library implementation."""
    counts = np.asarray(counts, dtype=np.float64)
    n = counts.size
    best = (float("inf"), -1)
    for j in range(levels, n + 1):
        ref = counts[:j].copy()
        ref[-1] += counts[j:].sum()
        if ref.sum() == 0:
            continue
        p = ref / ref.sum()

        raw = counts[:j]
        occupied = raw > 0
        if counts[j:].sum() > 0:
            occupied = occupied.copy()
            occupied[-1] = True
        q = np.zeros(j)
        for gi in range(levels):
            a = gi * j // levels
            b = (gi + 1) * j // levels
            occ = occupied[a:b]
            if occ.sum() == 0:
                continue
            q[a:b][occ] = raw[a:b].sum() / occ.sum()
        if q.sum() == 0:
            continue
        q = q / q.sum()

        kl = 0.0
        for pi, qi in zip(p, q):
            if pi > 0:
                if qi == 0:
                    kl = float("inf")
                    break
                kl += pi * math.log(pi / qi)
        if kl <= best[0]:
            best = (kl, j)
    return best[1]


def fixture_histograms(rng):
    """The 25-histogram diverse fixture family: uniform, half-gaussian,
    gaussian+outlier, degenerate-ish, random."""
    out = []
    bins = 64
    out.append(("uniform", np.full(bins, 100)))
    xs = np.arange(bins)
    out.append(("half_gauss", (10000 * np.exp(-0.5 * (xs / 12.0) ** 2)).astype(int) + 1))
    go = (10000 * np.exp(-0.5 * (xs / 8.0) ** 2)).astype(int)
    go[-1] += 3
    out.append(("gauss_outlier", go))
    spike = np.zeros(bins, dtype=int)
    spike[1] = 5
    spike[40] = 100000
    out.append(("two_spikes", spike))
    ramp = np.maximum(0, 1000 - 16 * xs).astype(int)
    ramp[0] = 50000
    out.append(("zero_heavy_ramp", ramp))
    for i in range(20):
        counts = rng.integers(0, 1000, size=bins)
        counts[rng.integers(bins)] *= rng.integers(1, 50)
        out.append((f"random_{i}", counts))
    return out


def test_entropy_calibrate_matches_exhaustive_oracle(rng):
    levels = 16
    for name, counts in fixture_histograms(rng):
        counts = np.asarray(counts, dtype=np.int64)
        if np.count_nonzero(counts) <= 1:
            continue
        hist = make_hist(counts, 0.0, 1.0, tensor_id=name)
        lo, hi = quant.entropy_calibrate(hist, levels=levels)
        scanned = counts.copy()
        scanned[0] = scanned[1]
        want_j = oracle_best_cut(scanned, levels)
        assert lo == 0.0, name
        assert hi == pytest.approx(hist.edges[want_j]), name


def test_entropy_calibrate_uniform_keeps_full_range():
    hist = make_hist(np.full(64, 1000), 0.0, 2.0)
    lo, hi = quant.entropy_calibrate(hist, levels=16)
    assert (lo, hi) == (0.0, 2.0)


def test_entropy_calibrate_excludes_far_outlier():
    # half-gaussian bulk, one far bin holding 0.01% of the mass
    xs = np.arange(64)
    counts = (1e6 * np.exp(-0.5 * (xs / 10.0) ** 2)).astype(np.int64)
    counts[60] = max(1, int(counts.sum() * 1e-4))
    hist = make_hist(counts, 0.0, 1.0)
    lo, hi = quant.entropy_calibrate(hist, levels=16)
    assert hi < hist.edges[60]


def test_entropy_calibrate_degenerate_single_bin():
    counts = np.zeros(64, dtype=np.int64)
    counts[10] = 500
    hist = make_hist(counts, 0.0, 64.0)
    lo, hi = quant.entropy_calibrate(hist, levels=16)
    # that bin's edges widened by one bin width
    assert lo == pytest.approx(hist.edges[10] - 1.0)
    assert hi == pytest.approx(hist.edges[11] + 1.0)


def test_entropy_calibrate_symmetric_for_signed():
    rng = np.random.default_rng(3)
    values = rng.normal(0, 1, 20000)
    counts, edges = np.histogram(values, bins=256)
    hist = quant.ActivationHistogram("t", 256, float(values.min()), float(values.max()),
                                     edges, counts.astype(np.int64))
    lo, hi = quant.entropy_calibrate(hist, levels=32)
    assert lo < 0 < hi
    assert lo == pytest.approx(-hi * 128.0 / 127.0)


# --------------------------------------------------------------------------
# the vectorized cut scan vs the exhaustive loop it replaced
# --------------------------------------------------------------------------

def exhaustive_scan(counts, levels):
    """The per-cut loop _scan_candidates replaced: candidate_divergence at
    every j in levels..bins, `kl <= best_kl` so ties go to the larger j."""
    bins = len(counts)
    best_j, best_kl = bins, float("inf")
    for j in range(levels, bins + 1):
        kl = quant.candidate_divergence(counts, j, levels)
        if kl <= best_kl:
            best_kl, best_j = kl, j
    return best_j


def scanned_counts(hist):
    """The counts entropy_calibrate hands to _scan_candidates."""
    counts = hist.counts.copy() if hist.lo >= 0 else quant._fold_absolute(hist)[0]
    counts[0] = counts[1]
    return counts


def assert_scan_matches_loop(counts, levels):
    counts = np.asarray(counts, dtype=np.int64)
    assert quant._scan_candidates(counts, levels) == exhaustive_scan(counts, levels)
    if levels > counts.size:
        return
    # the approximation is infinite exactly where the scalar divergence is,
    # and elsewhere within the stated bound e (half the shortlist width)
    approx = quant._cut_divergences(counts, levels)
    exact = np.array([quant.candidate_divergence(counts, j, levels)
                      for j in range(levels, counts.size + 1)])
    assert np.array_equal(np.isinf(approx), np.isinf(exact))
    finite = np.isfinite(exact)
    if finite.any():
        bound = quant._scan_tolerance(int(counts.sum()), counts.size, levels) / 2
        assert np.abs(approx[finite] - exact[finite]).max() <= bound


@st.composite
def adversarial_histograms(draw):
    """Integer histograms shaped to break a vectorized scan: exact ties,
    long zero runs, outlier mass folded onto an empty bin j-1, and cuts
    that are all (or all but one) infinite."""
    bins = draw(st.integers(2, 96))
    levels = draw(st.integers(1, bins + 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = draw(st.sampled_from(["uniform", "periodic", "zero_runs", "sparse_tail",
                                  "all_zero", "last_bin_only", "random"]))
    if shape == "uniform":
        counts = np.full(bins, draw(st.integers(1, 10**6)))
    elif shape == "periodic":
        pattern = rng.integers(0, 50, size=draw(st.integers(1, 8)))
        counts = np.resize(pattern, bins)
    elif shape == "zero_runs":
        counts = rng.integers(1, 1000, size=bins)
        for _ in range(draw(st.integers(1, 4))):
            a = int(rng.integers(bins))
            counts[a:a + int(rng.integers(1, bins))] = 0
    elif shape == "sparse_tail":
        # a few occupied bins and a far tail: many cuts fold outliers onto
        # an empty bin j-1, some onto an empty last bucket (infinite)
        counts = np.zeros(bins, dtype=np.int64)
        occupied = rng.choice(bins, size=int(rng.integers(1, min(bins, 6) + 1)), replace=False)
        counts[occupied] = rng.integers(1, 10**6, size=occupied.size)
    elif shape == "all_zero":
        counts = np.zeros(bins, dtype=np.int64)
    elif shape == "last_bin_only":
        counts = np.zeros(bins, dtype=np.int64)
        counts[-1] = draw(st.integers(1, 10**9))
    else:
        counts = rng.integers(0, 10 ** int(rng.integers(1, 10)), size=bins)
    return np.asarray(counts, dtype=np.int64), levels


@settings(max_examples=300, deadline=None)
@given(adversarial_histograms())
# exact ties: KL is 0.0 at cuts 4..32 and at cuts 39 and 40, so the `<=`
# rule must keep the largest
@example((np.append(np.full(4, 5), np.zeros(28, dtype=np.int64)), 4))
@example((np.resize([3, 0], 40), 4))
# all cuts infinite, and all but j = bins infinite
@example((np.zeros(50, dtype=np.int64), 8))
@example((np.append(np.zeros(49, dtype=np.int64), 9), 8))
def test_scan_matches_exhaustive_loop(case):
    counts, levels = case
    assert_scan_matches_loop(counts, levels)


def test_scan_matches_loop_on_full_size_tiny_detector_tensors(tiny_optimized):
    """2048 bins, 256 levels: histograms of real tiny-detector activations,
    one signed (scanned through the folded |x| histogram), one non-negative."""
    from jetforge import fixtures
    images = fixtures.calibration_images(8, seed=1)
    hists = quant.collect_histograms(tiny_optimized, images,
                                     quant.CalibrationConfig(image_count=8, seed=0))
    for tid in ("conv5", "act0_e"):
        hist = hists[tid]
        assert hist.bin_count == 2048
        counts = scanned_counts(hist)
        assert np.count_nonzero(counts) > 300, tid
        assert_scan_matches_loop(counts, 256)


def test_scan_memory_stays_flat():
    """The cuts are evaluated in chunks: one 2048-bin, 256-level scan peaks
    at about 1.1 MiB; all 1793 cuts at once would take about 22 MiB."""
    xs = np.arange(2048)
    counts = (1e7 * np.exp(-0.5 * (xs / 300.0) ** 2)).astype(np.int64) + 1
    tracemalloc.start()
    try:
        quant._scan_candidates(counts, 256)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, peak


# --------------------------------------------------------------------------
# calibration settings
# --------------------------------------------------------------------------

@pytest.mark.parametrize("field,value", [
    ("image_count", 0), ("image_count", -1), ("bin_count", 0), ("bin_count", 1),
    ("levels", 0), ("levels", -3), ("levels", 2.5), ("seed", -1),
])
def test_invalid_calibration_config_fails_loudly(field, value):
    config = quant.CalibrationConfig(image_count=1)
    setattr(config, field, value)
    images = [np.ones((1, 1, 32, 32), dtype=np.float32)]
    with pytest.raises(quant.InvalidCalibrationConfig, match=field):
        quant.collect_histograms(zero_output_graph(), images, config)
    with pytest.raises(quant.InvalidCalibrationConfig, match=field):
        quant.calibrate_graph(zero_output_graph(), images, config)


@pytest.mark.parametrize("levels", [0, -3])
def test_entropy_calibrate_rejects_levels_below_one(levels):
    hist = make_hist(np.arange(64), 0.0, 1.0)
    with pytest.raises(quant.InvalidCalibrationConfig, match="levels"):
        quant.entropy_calibrate(hist, levels=levels)


def test_entropy_calibrate_rejects_single_bin_histogram():
    with pytest.raises(quant.InvalidCalibrationConfig, match="bin_count"):
        quant.entropy_calibrate(make_hist([5], 0.0, 1.0), levels=16)


# --------------------------------------------------------------------------
# histogram collection
# --------------------------------------------------------------------------

def zero_output_graph():
    conv = g.conv_node("c", ["input"], "c", out_ch=1, kernel=1, stride=1, pad=0,
                       has_bias=False)
    gr = g.Graph(nodes=[conv], input_shape=g.TensorShape(1, 1, 32, 32))
    gr.weights[("c", "kernel")] = np.zeros(1, dtype=np.float32)
    return gr


def test_constant_zero_activation_single_bin():
    gr = zero_output_graph()
    images = [np.ones((1, 1, 32, 32), dtype=np.float32)]
    hists = quant.collect_histograms(gr, images, quant.CalibrationConfig(image_count=1))
    h = hists["c"]
    assert np.count_nonzero(h.counts) == 1
    b = int(np.flatnonzero(h.counts)[0])
    assert h.edges[b] <= 0.0 <= h.edges[b + 1]


def test_observed_range_is_union():
    conv = g.conv_node("c", ["input"], "c", out_ch=1, kernel=1, stride=1, pad=0,
                       has_bias=False)
    gr = g.Graph(nodes=[conv], input_shape=g.TensorShape(1, 1, 32, 32))
    gr.weights[("c", "kernel")] = np.ones(1, dtype=np.float32)
    a = np.linspace(0, 1, 1024, dtype=np.float32).reshape(1, 1, 32, 32)
    b = np.linspace(0, 2, 1024, dtype=np.float32).reshape(1, 1, 32, 32)
    hists = quant.collect_histograms(gr, [a, b], quant.CalibrationConfig(image_count=2))
    assert hists["c"].hi == pytest.approx(2.0)
    assert hists["c"].lo == pytest.approx(0.0)


def test_histograms_order_independent(tiny_detector):
    from jetforge import fixtures
    images = fixtures.calibration_images(12, seed=4)
    cfg = quant.CalibrationConfig(image_count=8, seed=9)
    h1 = quant.collect_histograms(tiny_detector, images, cfg)
    h2 = quant.collect_histograms(tiny_detector, images[::-1], cfg)
    assert set(h1) == set(h2)
    for tid in h1:
        assert np.array_equal(h1[tid].counts, h2[tid].counts), tid
        assert h1[tid].lo == h2[tid].lo and h1[tid].hi == h2[tid].hi


def test_observed_range_grows_monotonically(tiny_detector):
    from jetforge import fixtures
    images = fixtures.calibration_images(10, seed=6)
    prev = None
    for n in (2, 5, 10):
        cfg = quant.CalibrationConfig(image_count=n, seed=0)
        hists = quant.collect_histograms(tiny_detector, images[:n], cfg)
        if prev is not None:
            for tid in prev:
                assert hists[tid].lo <= prev[tid].lo
                assert hists[tid].hi >= prev[tid].hi
        prev = hists


@st.composite
def count_cases(draw):
    """float64 edges made as collect_histograms makes them (linspace over
    [lo, hi], or lo - 0.5 .. hi + 0.5 for a constant tensor) and one float32
    tensor, holding values on and next to the float32-rounded edges, split
    at random points into pieces shaped as traced tensors are, as the
    batches of pass two hand it over."""
    bins = draw(st.integers(2, 2048))
    # 1e-40 and 1e-44 scale values into binary32's subnormals
    scale = draw(st.sampled_from([1.0, 1e-30, 1e30, 1e-40, 1e-44]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        lo = hi = np.float32(rng.uniform(-4, 4) * scale)
    else:
        lo, hi = np.sort(rng.uniform(-4, 4, size=2) * scale).astype(np.float32)
    a, b = float(lo), float(hi)
    if a == b:
        a, b = a - 0.5, b + 0.5
    edges = np.linspace(a, b, bins + 1)

    rounded = edges.astype(np.float32)
    near = np.concatenate([rounded, np.nextafter(rounded, np.float32(-np.inf)),
                           np.nextafter(rounded, np.float32(np.inf))])
    n = draw(st.integers(1, 40_000))
    spread = rng.uniform(float(lo), float(hi), size=n).astype(np.float32)
    on_edges = rng.random(n) < draw(st.sampled_from([0.0, 0.1, 0.9]))
    data = np.where(on_edges, rng.choice(near, size=n), spread)
    cuts = np.sort(rng.integers(0, n, size=draw(st.integers(0, 24))))
    return edges, [piece.reshape(1, 1, 1, -1) for piece in np.split(data, cuts)]


@settings(max_examples=200, deadline=None)
@given(count_cases())
def test_summed_piece_counts_equal_np_histogram(case):
    """The counts collect_histograms makes, one sort and one search per
    piece added into an int64 running count, are np.histogram's counts of
    the whole tensor at the float64 edges."""
    edges, pieces = case
    keys = quant._float32_keys(edges)
    below = np.zeros(edges.size, dtype=np.int64)
    for piece in pieces:
        below += quant._below(piece, keys)
    want, _ = np.histogram(np.concatenate(pieces, axis=None), bins=edges)
    got = np.diff(below)
    assert got.dtype == want.dtype == np.int64
    assert np.array_equal(got, want)


def histograms_digest(hists) -> str:
    h = hashlib.sha256()
    for tid, hist in sorted(hists.items()):
        h.update(tid.encode())
        h.update(hist.counts.astype("<i8").tobytes())
        h.update(hist.edges.astype("<f8").tobytes())
    return h.hexdigest()


def test_tiny_detector_histograms_are_pinned(tiny_optimized):
    """The counts and edges of the tiny detector's 28 traced tensors over
    200 images, pinned to the digest that np.histogram's counts at the
    same edges give."""
    from jetforge import fixtures
    images = fixtures.calibration_images(200, seed=1)
    hists = quant.collect_histograms(tiny_optimized, images,
                                     quant.CalibrationConfig(image_count=200, seed=0))
    assert len(hists) == 28
    assert histograms_digest(hists) == (
        "6b5b3c86ef05bcd1aca95a5e65816c002ff8420ace2d4c61b06157143ec764b8")


def test_calibration_runs_in_batches_of_the_budget(tiny_optimized, monkeypatch):
    """One tiny-detector image's RETAIN_ALL trace holds 141,120 float32
    values, so the budget gives batches of 5: 12 images are 5 + 5 + 2
    calls a pass. With the budget below one image's bytes every call holds
    one image. The histograms are the same either way."""
    from jetforge import fixtures
    images = fixtures.calibration_images(12, seed=1)
    config = quant.CalibrationConfig(image_count=12, seed=0)
    assert quant._per_image_bytes(tiny_optimized) == 141120 * 4
    assert quant.CALIBRATION_BATCH_BYTES // (141120 * 4) == 5
    calls = []

    def spy(graph, x, *args, **kwargs):
        calls.append(len(x))
        return executor.execute(graph, x, *args, **kwargs)
    monkeypatch.setattr(quant, "execute", spy)
    batched = quant.collect_histograms(tiny_optimized, images, config)
    assert calls == [5, 5, 2] * 2
    calls.clear()
    monkeypatch.setattr(quant, "CALIBRATION_BATCH_BYTES", 141120 * 4 - 1)
    single = quant.collect_histograms(tiny_optimized, images, config)
    assert calls == [1] * 24
    assert histograms_digest(batched) == histograms_digest(single)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_a_non_finite_calibration_image_is_named_as_the_input(value):
    """The executor checks the input of every calibration trace, so the
    image is named, not the conv that would turn it into NaN."""
    bad = np.ones((1, 1, 32, 32), dtype=np.float32)
    bad[0, 0, 3, 4] = value
    images = [np.zeros((1, 1, 32, 32), dtype=np.float32), bad]
    with pytest.raises(executor.NonFiniteDetected, match=r"^non-finite values in input 'input'$"):
        quant.collect_histograms(zero_output_graph(), images, quant.CalibrationConfig(image_count=2))


@pytest.mark.parametrize("shape", [(1, 1, 16, 16), (1, 32, 32)], ids=["4d", "3d"])
def test_a_calibration_image_of_another_shape_is_named_by_its_shape(shape):
    """Both images fall in one batch; the error is the one the image's own
    call raises, naming its shape."""
    images = [np.zeros((1, 1, 32, 32), dtype=np.float32), np.ones(shape, dtype=np.float32)]
    with pytest.raises(executor.ShapeMismatch,
                       match=re.escape(f"input shape {shape} does not match graph input")):
        quant.collect_histograms(zero_output_graph(), images, quant.CalibrationConfig(image_count=2))


def test_empty_calibration_set():
    with pytest.raises(quant.EmptyCalibrationSet):
        quant.collect_histograms(zero_output_graph(), [], quant.CalibrationConfig())


# --------------------------------------------------------------------------
# weight quantization and integer convolution (both in the executor)
# --------------------------------------------------------------------------

def test_quantize_weights_example():
    kernel = np.array([[0.5, -1.27]], dtype=np.float32)
    q, scales = executor.quantize_kernel(kernel)
    assert scales[0] == pytest.approx(0.01)
    assert q.tolist() == [[50, -127]]


def test_quantize_weights_zero_channel():
    kernel = np.zeros((2, 3), dtype=np.float32)
    kernel[1] = [0.1, 0.2, -0.3]
    q, scales = executor.quantize_kernel(kernel)
    assert scales[0] == 1.0
    assert np.all(q[0] == 0)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_quantize_weights_roundtrip_bound(seed):
    rng = np.random.default_rng(seed)
    kernel = rng.normal(0, rng.uniform(0.01, 10), size=(4, 250)).astype(np.float32)
    q, scales = executor.quantize_kernel(kernel)
    deq = q.astype(np.float64) * scales[:, None]
    err = np.abs(deq - kernel)
    assert np.all(err <= scales[:, None] / 2 + 1e-12)


def test_quantized_conv_identity_bound():
    qp = g.QuantParams.from_range(-1.0, 1.0)
    xs = (qp.dequantize(np.arange(-128, 128, dtype=np.int8))
          .reshape(1, 1, 16, 16).astype(np.float32))
    kernel = np.ones((1, 1, 1, 1), dtype=np.float32)
    q_kernel, scales = executor.quantize_kernel(kernel)
    out = executor.quantized_conv(q_kernel, scales, None, qp, 1, 0)(qp.quantize(xs))
    assert np.abs(out - xs).max() <= qp.scale / 2 + 1e-7


def test_quantized_conv_vs_f32_oracle(rng):
    x = rng.uniform(-1, 1, size=(1, 3, 12, 12)).astype(np.float32)
    kernel = rng.normal(0, 0.4, size=(4, 3, 3, 3)).astype(np.float32)
    bias = rng.normal(0, 0.1, size=4).astype(np.float32)
    ref = executor.conv2d(x, kernel, bias, stride=1, pad=1)

    in_q = g.QuantParams.from_range(float(x.min()), float(x.max()))
    q_kernel, scales = executor.quantize_kernel(kernel)
    got = executor.quantized_conv(q_kernel, scales, bias, in_q, 1, 1)(in_q.quantize(x))

    out_q = g.QuantParams.from_range(float(ref.min()), float(ref.max()))
    assert np.abs(got - ref).mean() <= 2 * out_q.scale


def test_quantized_conv_integer_accumulation_bit_exact(rng):
    """The vectorized integer conv equals a naive per-element integer loop."""
    x = rng.uniform(-1, 1, size=(1, 2, 6, 6)).astype(np.float32)
    kernel = rng.normal(0, 0.5, size=(3, 2, 3, 3)).astype(np.float32)
    in_q = g.QuantParams.from_range(-1.0, 1.0)
    q_x = in_q.quantize(x)
    q_kernel, scales = executor.quantize_kernel(kernel)
    got = executor.quantized_conv(q_kernel, scales, None, in_q, stride=1, pad=1)(q_x)

    padded = np.zeros((1, 2, 8, 8), dtype=np.int64)
    padded[0, :, 1:7, 1:7] = q_x[0].astype(np.int64) - in_q.zero_point
    want = np.zeros((1, 3, 6, 6), dtype=np.float64)
    for o in range(3):
        for i in range(6):
            for j in range(6):
                acc = 0
                for c in range(2):
                    for ki in range(3):
                        for kj in range(3):
                            acc += int(padded[0, c, i + ki, j + kj]) * int(q_kernel[o, c, ki, kj])
                want[0, o, i, j] = acc * in_q.scale * scales[o]
    assert np.array_equal(got, want.astype(np.float32))


def test_quantized_input_at_lo_maps_to_minus_128():
    qp = g.QuantParams.from_range(-0.7, 1.3)
    x = np.full((1, 1, 4, 4), -0.7, dtype=np.float32)
    assert np.all(qp.quantize(x) == -128)
    assert np.all(qp.quantize(np.full((2,), 1.3, dtype=np.float32)) == 127)


def test_accumulator_overflow_detected():
    # 150000 taps of (q - zp) * q_w = 128 * 127 each exceeds int32
    qp = g.QuantParams.from_range(-1.0, 1.0)
    x = np.full((1, 150000, 1, 1), 1.0, dtype=np.float32)
    kernel = np.full((1, 150000, 1, 1), 1.0, dtype=np.float32)
    q_kernel, scales = executor.quantize_kernel(kernel)
    conv = executor.quantized_conv(q_kernel, scales, None, qp, 1, 0)
    with pytest.raises(executor.AccumulatorOverflow):
        conv(qp.quantize(x))


def _int64_conv_oracle(x_q, zero_point, q_kernel, stride, pad):
    """[out_ch, out_h * out_w] int64 sums of (q - zero_point) * q_w."""
    k = q_kernel.shape[2]
    shifted = x_q[0].astype(np.int64) - zero_point
    padded = np.pad(shifted, ((0, 0), (pad, pad), (pad, pad)))
    windows = np.lib.stride_tricks.sliding_window_view(padded, (k, k), axis=(1, 2))
    windows = windows[:, ::stride, ::stride]
    acc = np.einsum("chwij,ocij->ohw", windows, q_kernel.astype(np.int64))
    return acc.reshape(q_kernel.shape[0], -1)


@pytest.mark.parametrize("x_range,q_in,signs", [
    ((0.0, 1.0), 127, "same"),     # zero point -128: q - zp = +255
    ((-1.0, 0.0), -128, "same"),   # zero point 127: q - zp = -255
    ((0.0, 1.0), 127, "mixed"),
])
def test_conv_accumulator_exact_at_worst_case_magnitude(x_range, q_in, signs):
    """K = 4608 (yolov3's largest conv, 3x3x512) with every |q - zp| = 255 and
    |q_w| = 127: the float64 GEMM accumulator equals int64 bit for bit."""
    qp = g.QuantParams.from_range(*x_range)
    assert abs(q_in - qp.zero_point) == 255
    x_q = np.full((1, 512, 3, 3), q_in, dtype=np.int8)
    rng = np.random.default_rng(5)
    sign = np.sign(q_in - qp.zero_point)
    if signs == "same":
        q_kernel = np.full((4, 512, 3, 3), 127 * sign, dtype=np.int8)
    else:
        q_kernel = (127 * rng.choice([-1, 1], size=(4, 512, 3, 3))).astype(np.int8)
    q_kernel[3] = 127 * sign  # one all-same-sign channel in every case

    acc = executor.integer_conv(q_kernel, qp.zero_point, stride=1, pad=1)(x_q).reshape(4, -1)
    want = _int64_conv_oracle(x_q, qp.zero_point, q_kernel, stride=1, pad=1)
    assert acc.dtype == np.float64
    assert want[3, 4] == 4608 * 255 * 127  # the centre tap sees no padding
    assert np.array_equal(acc.astype(np.int64), want)
    assert np.array_equal(acc, want.astype(np.float64))

    scales = np.linspace(0.001, 0.01, 4)
    got = executor.quantized_conv(q_kernel, scales, None, qp, stride=1, pad=1)(x_q)
    ref = (want.astype(np.float64) * (qp.scale * scales)[:, None]).astype(np.float32)
    assert np.array_equal(got.reshape(4, -1), ref)


def test_overflow_fallback_runs_when_data_stay_in_range():
    """The 150000-tap layer of test_accumulator_overflow_detected fails the
    static bound, but fed its zero point (plus a few thousand full-scale
    taps) every accumulator fits in int32: the data bound lets it run."""
    qp = g.QuantParams.from_range(-1.0, 1.0)
    x = np.zeros((1, 150000, 1, 2), dtype=np.float32)
    x[0, :3000, 0, 1] = 1.0
    kernel = np.full((1, 150000, 1, 1), 1.0, dtype=np.float32)
    q_kernel, scales = executor.quantize_kernel(kernel)
    x_q = qp.quantize(x)
    assert np.all(x_q[0, 3000:] == qp.zero_point)
    max_abs_x = max(127 - qp.zero_point, qp.zero_point + 128)
    assert max_abs_x * np.abs(q_kernel.astype(np.int64)).sum() > executor.INT32_MAX

    acc = executor.integer_conv(q_kernel, qp.zero_point, stride=1, pad=0)(x_q).reshape(1, -1)
    want = _int64_conv_oracle(x_q, qp.zero_point, q_kernel, stride=1, pad=0)
    assert want.tolist() == [[0, 3000 * 128 * 127]]
    assert np.array_equal(acc, want.astype(np.float64))
    out = executor.quantized_conv(q_kernel, scales, None, qp, 1, 0)(x_q)
    assert np.array_equal(out.reshape(1, -1),
                          (want * (qp.scale * scales)[:, None]).astype(np.float32))


def _one_by_one_conv(shifts, weights, zero_point):
    """int8 levels x [1, taps, 1, 1] with x - zero_point == shifts and the
    levels [1, taps, 1, 1] of `weights`, for a 1x1 conv of one output."""
    x_q = (np.asarray(shifts, dtype=np.int64) + zero_point).astype(np.int8).reshape(1, -1, 1, 1)
    return x_q, np.asarray(weights, dtype=np.int8).reshape(1, -1, 1, 1)


@pytest.mark.parametrize("last_shift,want", [(127, executor.INT32_MAX), (128, None)],
                         ids=["int32-max", "one-more"])
def test_an_accumulator_of_int32_max_is_exact_and_one_more_overflows(last_shift, want):
    """66,311 taps of 255 * 127, plus 255 * 7 and 127 * 1, sum to INT32_MAX:
    compile cannot prove the channel, so the data bound decides. At the
    bound the float64 accumulator equals int64 arithmetic; one more raises."""
    qp = g.QuantParams.from_range(0.0, 1.0)  # zero point -128: q - zp reaches 255
    taps = 66_313
    shifts = np.full(taps, 255)
    shifts[-1] = last_shift
    weights = np.full(taps, executor.WEIGHT_QMAX)
    weights[-2:] = 7, 1
    x_q, q_kernel = _one_by_one_conv(shifts, weights, qp.zero_point)
    conv = executor.integer_conv(q_kernel, qp.zero_point, stride=1, pad=0)
    oracle = _int64_conv_oracle(x_q, qp.zero_point, q_kernel, stride=1, pad=0)
    if want is None:
        assert oracle.tolist() == [[executor.INT32_MAX + 1]]
        with pytest.raises(executor.AccumulatorOverflow):
            conv(x_q)
        return
    assert oracle.tolist() == [[want]]
    acc = conv(x_q)
    assert acc.dtype == np.float64
    assert np.array_equal(acc.reshape(1, -1), oracle.astype(np.float64))


@pytest.mark.parametrize("shape", [(2, 3, 3, 3), (2, 512, 3, 3)], ids=["27-taps", "4608-taps"])
def test_a_zero_point_no_int32_accumulator_holds_overflows_on_the_first_call(shape):
    """from_range(1e12, 1e12 + 1) has zero point about -2.55e14, so every
    |q - zp| * |q_w| is far beyond int32: integer_conv prepares and the
    first call raises, as an int32 engine would overflow."""
    qp = g.QuantParams.from_range(1e12, 1e12 + 1)
    assert qp.zero_point < -2 * 10**14
    rng = np.random.default_rng(9)
    q_kernel = rng.integers(-127, 128, size=shape).astype(np.int8)
    x_q = rng.integers(-128, 128, size=(1, shape[1], 4, 4)).astype(np.int8)
    conv = executor.integer_conv(q_kernel, qp.zero_point, stride=1, pad=1)
    with pytest.raises(executor.AccumulatorOverflow):
        conv(x_q)
    real = executor.quantized_conv(q_kernel, np.ones(shape[0]), None, qp, stride=1, pad=1)
    with pytest.raises(executor.AccumulatorOverflow):
        real(x_q)


def test_a_static_bound_beyond_int64_does_not_wrap_round():
    """max|q - zp| = 2**47 over 2**17 taps of weight 1: the static bound is
    2**64, which int64 would wrap round to 0 and call proven."""
    zero_point = 127 - 2**47
    q_kernel = np.ones((1, 2**17, 1, 1), dtype=np.int8)
    x_q = np.full((1, 2**17, 1, 1), 127, dtype=np.int8)
    with pytest.raises(executor.AccumulatorOverflow):
        executor.integer_conv(q_kernel, zero_point, stride=1, pad=0)(x_q)


def test_ranges_file_roundtrip(tmp_path):
    params = {"a": g.QuantParams.from_range(-1.0, 1.0),
              "b": g.QuantParams.from_range(0.0, 6.0)}
    path = tmp_path / "ranges.json"
    quant.save_ranges(path, params, {"seed": 7})
    loaded, meta = quant.load_ranges(path)
    assert meta["seed"] == 7
    assert loaded == params


def test_ranges_file_with_a_record_from_range_did_not_write(tmp_path):
    path = tmp_path / "ranges.json"
    quant.save_ranges(path, {"a": g.QuantParams.from_range(-1.0, 1.0)})
    doc = json.loads(path.read_text())
    doc["tensors"]["a"]["zero_point"] += 1
    path.write_text(json.dumps(doc))
    with pytest.raises(ArtifactError, match="^" + re.escape(f"{path}: tensors: a: zero_point: ")):
        quant.load_ranges(path)


def test_missing_ranges_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        quant.load_ranges(tmp_path / "absent.json")


def test_activation_roundtrip_bound_one_million_values():
    rng = np.random.default_rng(8)
    qp = g.QuantParams.from_range(-3.0, 5.0)
    xs = rng.uniform(-3.0, 5.0, size=1_000_000)
    err = np.abs(qp.dequantize(qp.quantize(xs)).astype(np.float64) - xs)
    assert err.max() <= qp.scale / 2 + 5e-7


def test_i8_head_outputs_track_f32(tiny_optimized, tiny_quantized):
    """Per-head correlation between i8 and f32 execution stays >= 0.99."""
    from jetforge import fixtures, tensorio
    rng = np.random.default_rng(314)
    for _ in range(4):
        img, _ = fixtures.random_scene(rng, negative_chance=0.0)
        x = tensorio.image_to_nchw(img)
        tf = executor.execute(tiny_optimized, x, retention=executor.RETAIN_HEADS)
        tq = executor.execute(tiny_quantized, x, mode=executor.I8,
                              retention=executor.RETAIN_HEADS)
        for head in ("yolo6", "yolo12"):
            a = tf.as_f32(head).ravel().astype(np.float64)
            b = tq.as_f32(head).ravel().astype(np.float64)
            corr = np.corrcoef(a, b)[0, 1]
            assert corr >= 0.99, (head, corr)


def test_calibration_deterministic(tiny_optimized):
    from jetforge import fixtures
    images = fixtures.calibration_images(10, seed=2)
    cfg = quant.CalibrationConfig(image_count=10, seed=5)
    a = quant.calibrate_graph(tiny_optimized, images, cfg)
    b = quant.calibrate_graph(tiny_optimized, images, cfg)
    assert a == b
