"""Graph rewrite passes: conv+batchnorm folding (with native activation
inlining), leaky-ReLU decomposition into natively quantizable layers,
scale-into-conv folding, leaky->ReLU swapping, and precision planning.

All passes are pure: they copy the graph, never mutate the input, and leave
non-matching patterns untouched. Applying any pass twice equals applying it
once. The copy shares the input's weight arrays; passes only rebind
`weights[key]` to new arrays and never write an array in place.

Every pass runs the same way: `_pass(name)` enters a body in `PASSES`, and
the entered function copies the graph, creates the `PassReport`, runs the
body on the copy (the body only rewrites and records what it removed,
created or warns about), then fills in `nodes_after` and `mac_delta`.

One fold rule: a batchnorm or scale folds into a conv as a per-channel
float64 multiplier and a float64 bias. Each float32 kernel row times its
multiplier is the float64 product, rounded to float32 once per fold. The
rows are scaled in blocks (`executor.in_row_blocks`), one per CPU for a
large kernel; each value is the same product whichever block holds it. A
fold whose multiplier, float32 bias or scaled kernel value is not finite
raises PassError naming the conv and the folded node.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from . import executor, frontend
from .executor import F16, F32, I8
from .graph import (ACTIVATION, ADD, BATCHNORM, CONV, KINDS, LEAKY, LINEAR, PLUGIN_ONLY, RELU,
                    SCALE, Graph, LayerNode, activation_node)

LEAKY_AS_PLUGIN = "leaky_as_plugin"
LEAKY_NATIVE = "leaky_native"


class PassError(Exception):
    pass


class AlphaOutOfRange(PassError):
    pass


@dataclass
class PassReport:
    name: str
    nodes_before: int
    nodes_after: int
    removed: list[str] = field(default_factory=list)
    created: list[str] = field(default_factory=list)
    mac_delta: int = 0
    warnings: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return asdict(self)


PASSES = {}


def _pass(name: str):
    """Register `body(out, report)` as the pass `name`. The registered
    function keeps the body's name and docstring."""
    def register(body):
        def run(graph: Graph) -> tuple[Graph, PassReport]:
            macs_before = frontend.model_stats(graph).total_macs  # refuses a faulty input
            out = graph.copy()
            report = PassReport(name, nodes_before=len(graph.nodes), nodes_after=0)
            body(out, report)
            report.nodes_after = len(out.nodes)
            report.mac_delta = frontend.model_stats(out).total_macs - macs_before
            return out, report
        run.__name__, run.__qualname__, run.__doc__ = body.__name__, body.__qualname__, body.__doc__
        PASSES[name] = run
        return run
    return register


def _fold_into_conv(out: Graph, report: PassReport, matches, fold) -> None:
    """Fold every node `matches` accepts into the convolution that produces
    its first input, when that conv has no inline activation and the node is
    its only consumer. `fold(weights, conv, node)` rebinds the conv's weights
    and attrs, with numpy's floating-point warnings off; the node's
    consumers are rewired to the conv's output.

    One sweep in list order over a live producer map and per-tensor consumer
    lists (one entry per input slot). On a topologically ordered node list,
    which the frontend, the container loader and every pass produce, a fold
    changes only what later nodes see, so the sweep folds the same nodes in
    the same order as rescanning from the start after every fold.
    """
    producers = out.producers()
    consumers = out.consumers()
    kept = []
    for node in out.nodes:
        conv = producers.get(node.inputs[0]) if matches(node) else None
        if (conv is None or conv.kind != CONV or conv.attrs.get("act", LINEAR) != LINEAR
                or len(consumers[conv.output]) != 1):
            kept.append(node)
            continue
        with np.errstate(all="ignore"):  # _scale_conv names what is not finite
            fold(out.weights, conv, node)
        readers = consumers.pop(node.output, [])
        for reader in readers:
            reader.inputs = [conv.output if t == node.output else t for t in reader.inputs]
        consumers[conv.output] = readers
        report.removed.append(node.id)
    out.nodes = kept


def _scale_conv(weights, conv: LayerNode, node: LayerNode, multiplier: np.ndarray,
                bias: np.ndarray | None) -> None:
    """The fold rule: kernel row c becomes the float64 product of the row and
    `multiplier[c]`, rounded to float32 once; `bias`, when given, replaces
    the conv's bias, rounded to float32. `node` is the node folded in. Both
    new arrays are bound read-only."""
    if bias is not None:
        bias = bias.astype(np.float32)
    for what, values in (("multiplier", multiplier), ("bias", bias)):
        if values is not None and not np.isfinite(values).all():
            raise PassError(f"folding {node.id} into {conv.id}: its {what} is not finite")
    rows = conv.attrs["out_ch"]
    kernel = weights[(conv.id, "kernel")].reshape(rows, -1)
    scaled = np.empty(kernel.size, dtype=np.float32)
    out = scaled.reshape(rows, -1)

    def scale_rows(lo: int, hi: int) -> None:
        with np.errstate(over="raise", invalid="raise"):  # per thread, so set in the block
            np.multiply(kernel[lo:hi], multiplier[lo:hi, None], dtype=np.float64,
                        out=out[lo:hi])
    try:
        executor.in_row_blocks(scale_rows, rows, scaled.size)
    except FloatingPointError:
        raise PassError(f"folding {node.id} into {conv.id}: a scaled kernel value is not "
                        "finite in float32") from None
    scaled.flags.writeable = False
    weights[(conv.id, "kernel")] = scaled
    if bias is not None:
        bias.flags.writeable = False
        weights[(conv.id, "bias")] = bias


def _fold_bn(weights, conv: LayerNode, bn: LayerNode) -> None:
    gamma, beta, mean, var = (weights.pop((bn.id, role)).astype(np.float64)
                              for role in KINDS[BATCHNORM].roles)
    inv = gamma / np.sqrt(var + bn.attrs["eps"])
    bias = weights.get((conv.id, "bias"))
    bias = bias.astype(np.float64) if bias is not None else np.zeros(conv.attrs["out_ch"])
    _scale_conv(weights, conv, bn, inv, (bias - mean) * inv + beta)
    conv.attrs["has_bias"] = True


def _fold_activation(weights, conv: LayerNode, act: LayerNode) -> None:
    conv.attrs["act"] = act.attrs["act"]


def _fold_scale(weights, conv: LayerNode, scale: LayerNode) -> None:
    factor = scale.attrs.get("factor")
    factors = weights.pop((scale.id, "scale_factors"), None)
    per_ch = (factors.astype(np.float64) if factor is None
              else np.full(conv.attrs["out_ch"], factor, dtype=np.float64))
    bias = weights[(conv.id, "bias")] * per_ch if conv.attrs["has_bias"] else None
    _scale_conv(weights, conv, scale, per_ch, bias)


@_pass("fuse-conv-bn")
def fuse_conv_bn(out: Graph, report: PassReport) -> None:
    """Fold batchnorm into the preceding convolution and inline native
    activations (relu/linear) that directly follow a conv.

    kernel' = kernel * gamma / sqrt(var + eps) per output channel,
    bias'   = (bias - mean) * gamma / sqrt(var + eps) + beta.

    Leaky activations are left standing: they model plugin layers, which
    do not fuse. Only sole-consumer patterns are touched. All batchnorms
    fold before any activation, so a linear activation between a conv and
    a batchnorm keeps the batchnorm standing.
    """
    _fold_into_conv(out, report, lambda n: n.kind == BATCHNORM, _fold_bn)
    _fold_into_conv(out, report,
                    lambda n: n.kind == ACTIVATION and n.attrs["act"] in (RELU, LINEAR),
                    _fold_activation)


@_pass("decompose-leaky")
def decompose_leaky(out: Graph, report: PassReport) -> None:
    """Replace every leaky activation with natively quantizable layers:

        s = alpha * x;  y = s + ((1 - alpha) / alpha) * relu(s)

    The first scale is the conv's sole consumer afterwards (both branches
    read the scale's output), which is what lets fold_scale_into_conv absorb
    it, mirroring a fused engine's treatment of the leading scale.
    """
    new_nodes: list[LayerNode] = []
    for node in out.nodes:
        if node.kind != ACTIVATION or node.attrs["act"] != LEAKY:
            new_nodes.append(node)
            continue
        alpha = node.attrs["alpha"]
        if not 0.0 < alpha < 1.0:
            raise AlphaOutOfRange(f"{node.id}: alpha {alpha} not in (0,1)")
        s_id, r_id, e_id = f"{node.id}_s", f"{node.id}_r", f"{node.id}_e"
        scale1 = LayerNode(s_id, SCALE, [node.inputs[0]], s_id, {"factor": alpha})
        relu = activation_node(r_id, [s_id], r_id, RELU)
        scale2 = LayerNode(e_id, SCALE, [r_id], e_id, {"factor": (1.0 - alpha) / alpha})
        add = LayerNode(f"{node.id}_y", ADD, [s_id, e_id], node.output)
        new_nodes.extend([scale1, relu, scale2, add])
        report.removed.append(node.id)
        report.created.extend([scale1.id, relu.id, scale2.id, add.id])
    out.nodes = new_nodes


@_pass("fold-scale")
def fold_scale_into_conv(out: Graph, report: PassReport) -> None:
    """Multiply a scale layer into the preceding convolution's kernel and
    bias when the scale is that conv's only consumer and the conv has no
    inline activation (scaling does not commute with one in general)."""
    _fold_into_conv(out, report, lambda n: n.kind == SCALE, _fold_scale)


@_pass("relu-swap")
def replace_leaky_with_relu(out: Graph, report: PassReport) -> None:
    """Swap every leaky activation for a plain ReLU. The weights are NOT
    equivalent under this rewrite; the report carries a warning that the
    network requires retraining before its outputs mean anything."""
    swapped = 0
    for node in out.nodes:
        if node.kind == ACTIVATION and node.attrs["act"] == LEAKY:
            node.attrs = {"act": RELU}
            swapped += 1
        elif node.kind == CONV and node.attrs.get("act") == LEAKY:
            node.attrs["act"] = RELU
            node.attrs.pop("alpha", None)
            swapped += 1
    if swapped:
        report.warnings.append(
            f"replaced {swapped} leaky activations with ReLU: existing weights are NOT "
            "valid for this structure without retraining; expect degraded accuracy until "
            "the model is retrained")


def apply_passes(graph: Graph, names: list[str]) -> tuple[Graph, list[PassReport]]:
    reports = []
    for name in names:
        if name not in PASSES:
            raise PassError(f"unknown pass '{name}' (have: {', '.join(sorted(PASSES))})")
        graph, report = PASSES[name](graph)
        reports.append(report)
    return graph, reports


# --------------------------------------------------------------------------
# precision planning
# --------------------------------------------------------------------------

@dataclass
class PrecisionPlan:
    node_precision: dict[str, str]
    conversions: list[tuple[str, str, str]]  # (tensor id, from, to)

    @property
    def conversion_count(self) -> int:
        return len(self.conversions)


def _is_pinned(node: LayerNode, plugin_policy: str) -> bool:
    return node.precision_class == PLUGIN_ONLY or (
        plugin_policy == LEAKY_AS_PLUGIN and node.kind == ACTIVATION and node.attrs["act"] == LEAKY)


def plan_precision(graph: Graph, mode: str, plugin_policy: str = LEAKY_NATIVE) -> PrecisionPlan:
    """Assign per-node precision and enumerate conversion points.

    Plugin-pinned nodes run in f32 regardless of mode. A conversion point is
    a tensor that must be rematerialized at a different precision: one per
    unique (tensor, target precision) pair over internal edges, so a tensor
    feeding several same-precision consumers converts once.
    """
    if mode not in (I8, F16):
        raise PassError(f"plan mode must be i8 or f16, got '{mode}'")
    if plugin_policy not in (LEAKY_AS_PLUGIN, LEAKY_NATIVE):
        raise PassError(f"unknown plugin policy '{plugin_policy}'")

    precision = {n.id: (F32 if _is_pinned(n, plugin_policy) else mode) for n in graph.nodes}
    producers = graph.producers()

    seen: set[tuple[str, str]] = set()
    conversions: list[tuple[str, str, str]] = []
    for node in graph.nodes:
        for t in node.inputs:
            producer = producers.get(t)
            if producer is None:
                continue  # graph input: feeding it is preprocessing, not a conversion
            src, dst = precision[producer.id], precision[node.id]
            if src != dst and (t, dst) not in seen:
                seen.add((t, dst))
                conversions.append((t, src, dst))
    return PrecisionPlan(node_precision=precision, conversions=conversions)
