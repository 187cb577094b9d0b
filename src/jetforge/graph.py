"""Network graph IR: typed layer nodes, shape inference, validation and the
serialized model container every other stage exchanges.

Layout is N,C,H,W row-major with batch fixed to 1. Graphs are treated as
immutable after construction: rewrite passes copy, never mutate in place.
`Graph.copy` copies nodes but shares weight arrays, so no code writes a
weight array in place; a changed weight is a new array bound to its key.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import artifacts

FORMAT_MAGIC = b"UIR1"
FORMAT_VERSION = 1

# node kinds
CONV = "conv"
BATCHNORM = "batchnorm"
ACTIVATION = "activation"
SCALE = "scale"
UPSAMPLE = "upsample"
ADD = "add"
CONCAT = "concat"
MAXPOOL = "maxpool"
YOLO_HEAD = "yolo_head"

KINDS = {CONV, BATCHNORM, ACTIVATION, SCALE, UPSAMPLE, ADD, CONCAT, MAXPOOL, YOLO_HEAD}

# activation functions (also valid as a conv node's inline `act` attribute)
LINEAR = "linear"
RELU = "relu"
LEAKY = "leaky"

QUANTIZABLE = "quantizable"
PLUGIN_ONLY = "plugin_only"

# weight roles, in on-disk blob order per kind
WEIGHT_ROLES = {
    CONV: ("kernel", "bias"),
    BATCHNORM: ("bn_gamma", "bn_beta", "bn_mean", "bn_var"),
    SCALE: ("scale_factors",),
}


class GraphError(Exception):
    pass


class ShapeMismatch(GraphError):
    pass


class UnderflowShape(GraphError):
    pass


class BadMagic(GraphError):
    pass


class VersionUnsupported(GraphError):
    pass


class TruncatedFile(GraphError):
    pass


class ManifestWeightMismatch(GraphError):
    pass


class TensorShape(NamedTuple):
    n: int
    c: int
    h: int
    w: int


@dataclass(frozen=True)
class QuantParams:
    """Affine per-tensor activation range: lo maps to -128, hi to 127."""

    FIELDS = frozenset({"lo", "hi", "scale", "zero_point"})

    lo: float
    hi: float
    scale: float
    zero_point: int

    @classmethod
    def from_range(cls, lo: float, hi: float) -> "QuantParams":
        if not lo < hi:
            raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
        scale = (hi - lo) / 255.0
        zero_point = int(-128 - _round_half_up(lo / scale))
        return cls(lo=float(lo), hi=float(hi), scale=scale, zero_point=zero_point)

    def to_dict(self) -> dict:
        return {"lo": self.lo, "hi": self.hi, "scale": self.scale, "zero_point": self.zero_point}

    @classmethod
    def from_dict(cls, d, where, *keys) -> "QuantParams":
        """The record `to_dict` wrote; `where` and `keys` locate it for
        errors. Its scale and zero point must be the ones from_range gives
        for its lo and hi, which is how every record is made."""
        d = artifacts.require(d, cls.FIELDS, where, *keys)
        for name in ("lo", "hi"):
            if not artifacts.finite_number(d[name]):
                artifacts.reject(d[name], "a finite number", where, *keys, name)
        if not d["lo"] < d["hi"]:
            artifacts.reject(d["hi"], f"a number above lo {d['lo']}", where, *keys, "hi")
        if type(d["zero_point"]) is not int:  # bool is not an integer
            artifacts.reject(d["zero_point"], "an integer", where, *keys, "zero_point")
        qp = cls.from_range(d["lo"], d["hi"])
        for name in ("scale", "zero_point"):
            if not artifacts.finite_number(d[name]) or d[name] != getattr(qp, name):
                artifacts.reject(d[name], f"{getattr(qp, name)!r}, from lo and hi", where,
                                 *keys, name)
        return qp

    def quantize(self, x: np.ndarray) -> np.ndarray:
        """clip(floor(x / scale + 0.5) + zero_point, -128, 127) as int8, in
        float64 on one temporary. Scalars and 0-d arrays give an int8 scalar."""
        q = np.array(x, dtype=np.float64)
        q /= self.scale
        q += 0.5
        np.floor(q, out=q)
        q += self.zero_point
        np.clip(q, -128, 127, out=q)
        return _unwrap_0d(q.astype(np.int8))

    def dequantize(self, q: np.ndarray) -> np.ndarray:
        """(q - zero_point) * scale as float32, in float64 on one temporary."""
        r = np.array(q, dtype=np.float64)
        r -= self.zero_point
        r *= self.scale
        return _unwrap_0d(r.astype(np.float32))


def _unwrap_0d(a: np.ndarray):
    # numpy arithmetic turns 0-d arrays into scalars; in-place arithmetic does not
    return a[()] if a.ndim == 0 else a


def _round_half_up(x):
    # deterministic scalar/array rounding, halves toward +inf
    return np.floor(np.asarray(x, dtype=np.float64) + 0.5)


@dataclass
class LayerNode:
    id: str
    kind: str
    inputs: list[str]
    output: str
    attrs: dict = field(default_factory=dict)
    precision_class: str = QUANTIZABLE

    def copy(self) -> "LayerNode":
        return LayerNode(
            id=self.id,
            kind=self.kind,
            inputs=list(self.inputs),
            output=self.output,
            attrs=dict(self.attrs),
            precision_class=self.precision_class,
        )


def conv_node(nid, inputs, output, out_ch, kernel, stride, pad, has_bias, act=LINEAR, alpha=None):
    attrs = {"out_ch": out_ch, "kernel": kernel, "stride": stride, "pad": pad,
             "has_bias": has_bias, "act": act}
    if alpha is not None:
        attrs["alpha"] = alpha
    return LayerNode(nid, CONV, list(inputs), output, attrs)


def activation_node(nid, inputs, output, act, alpha=None):
    attrs = {"act": act}
    if alpha is not None:
        attrs["alpha"] = alpha
    return LayerNode(nid, ACTIVATION, list(inputs), output, attrs)


@dataclass
class GraphMetadata:
    class_names: list[str] = field(default_factory=list)
    anchors: list[tuple[float, float]] = field(default_factory=list)
    extra: dict = field(default_factory=dict)


@dataclass
class Graph:
    """Directed acyclic network plus its weights.

    `weights` maps (layer id, role) -> flat float32 array. `qparams`, when
    present, carries per-tensor activation ranges produced by calibration.
    """

    nodes: list[LayerNode]
    input_id: str | None = "input"
    input_shape: TensorShape | None = None
    weights: dict[tuple[str, str], np.ndarray] = field(default_factory=dict)
    metadata: GraphMetadata = field(default_factory=GraphMetadata)
    qparams: dict[str, QuantParams] | None = None
    # the executor's compiled programs by (mode, plan); not copied or compared
    _programs: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def node_by_id(self, nid: str) -> LayerNode:
        for n in self.nodes:
            if n.id == nid:
                return n
        raise KeyError(nid)

    def producers(self) -> dict[str, LayerNode]:
        return {n.output: n for n in self.nodes}

    def consumers(self) -> dict[str, list[LayerNode]]:
        out: dict[str, list[LayerNode]] = {}
        for n in self.nodes:
            for t in n.inputs:
                out.setdefault(t, []).append(n)
        return out

    def copy(self) -> "Graph":
        return Graph(
            nodes=[n.copy() for n in self.nodes],
            input_id=self.input_id,
            input_shape=self.input_shape,
            weights=dict(self.weights),
            metadata=GraphMetadata(
                class_names=list(self.metadata.class_names),
                anchors=[tuple(a) for a in self.metadata.anchors],
                extra=dict(self.metadata.extra),
            ),
            qparams=dict(self.qparams) if self.qparams is not None else None,
        )

    def head_nodes(self) -> list[LayerNode]:
        return [n for n in self.nodes if n.kind == YOLO_HEAD]

    def output_tensors(self) -> list[str]:
        """Head outputs if any, otherwise tensors nothing consumes."""
        heads = [n.output for n in self.head_nodes()]
        if heads:
            return heads
        consumed = {t for n in self.nodes for t in n.inputs}
        return [n.output for n in self.nodes if n.output not in consumed]


def conv_out_dim(size: int, kernel: int, stride: int, pad: int) -> int:
    return (size + 2 * pad - kernel) // stride + 1


def _topo_order(graph: Graph, given=()) -> tuple[list[LayerNode], list[LayerNode]]:
    """(nodes in an order where every input is produced first, nodes never
    reached). The graph input and the tensors in `given` count as produced.
    Sweeps the pending list until a sweep resolves nothing, so the node list
    may be in any order; unreached nodes (a cycle or a dangling input) keep
    their list order."""
    resolved = {graph.input_id, *given}
    order: list[LayerNode] = []
    pending = list(graph.nodes)
    while pending:
        remaining = []
        for node in pending:
            if resolved.issuperset(node.inputs):
                order.append(node)
                resolved.add(node.output)
            else:
                remaining.append(node)
        if len(remaining) == len(pending):
            break
        pending = remaining
    return order, pending


def infer_shapes(graph: Graph) -> dict[str, TensorShape]:
    """Resolve every tensor's shape; order-independent over valid topo orders."""
    if graph.input_id is None or graph.input_shape is None:
        raise ShapeMismatch("graph has no input")
    shapes: dict[str, TensorShape] = {graph.input_id: graph.input_shape}
    order, stuck = _topo_order(graph)
    for node in order:
        shapes[node.output] = _node_output_shape(node, [shapes[t] for t in node.inputs])
    if stuck:
        raise ShapeMismatch("unresolvable inputs (cycle or dangling reference): "
                            + ", ".join(n.id for n in stuck))
    return shapes


def _node_output_shape(node: LayerNode, in_shapes: list[TensorShape]) -> TensorShape:
    kind = node.kind
    s = in_shapes[0]
    if kind == CONV:
        a = node.attrs
        oh = conv_out_dim(s.h, a["kernel"], a["stride"], a["pad"])
        ow = conv_out_dim(s.w, a["kernel"], a["stride"], a["pad"])
        if oh < 1 or ow < 1:
            raise UnderflowShape(f"{node.id}: conv output {oh}x{ow} underflows")
        return TensorShape(s.n, a["out_ch"], oh, ow)
    if kind == MAXPOOL:
        a = node.attrs
        oh = conv_out_dim(s.h, a["kernel"], a["stride"], 0)
        ow = conv_out_dim(s.w, a["kernel"], a["stride"], 0)
        if oh < 1 or ow < 1:
            raise UnderflowShape(f"{node.id}: maxpool output {oh}x{ow} underflows")
        return TensorShape(s.n, s.c, oh, ow)
    if kind == UPSAMPLE:
        f = node.attrs["factor"]
        return TensorShape(s.n, s.c, s.h * f, s.w * f)
    if kind == ADD:
        for other in in_shapes[1:]:
            if other != s:
                raise ShapeMismatch(f"{node.id}: add inputs {s} vs {other}")
        return s
    if kind == CONCAT:
        c = s.c
        for other in in_shapes[1:]:
            if (other.n, other.h, other.w) != (s.n, s.h, s.w):
                raise ShapeMismatch(f"{node.id}: concat inputs {s} vs {other}")
            c += other.c
        return TensorShape(s.n, c, s.h, s.w)
    if kind in (BATCHNORM, ACTIVATION, SCALE, YOLO_HEAD):
        return s
    raise GraphError(f"{node.id}: unknown kind {kind}")


@dataclass(frozen=True)
class Diagnostic:
    node_id: str
    reason: str

    def __str__(self):
        return f"{self.node_id}: {self.reason}"


def validate(graph: Graph) -> list[Diagnostic]:
    """Structural + invariant checks. Empty list means the graph is sound.

    Weight-length checks only run once any weights are attached, so skeleton
    graphs straight from the cfg parser validate before loading weights.
    """
    diags: list[Diagnostic] = []
    if graph.input_id is None or graph.input_shape is None or not graph.nodes:
        diags.append(Diagnostic("<graph>", "no input"))
        return diags

    ishape = graph.input_shape
    if min(ishape) < 1:
        diags.append(Diagnostic("<graph>", f"input dims must be >= 1, got {ishape}"))
    if ishape.h % 32 or ishape.w % 32:
        diags.append(Diagnostic("<graph>", f"input h,w must be multiples of 32, got {ishape.h}x{ishape.w}"))

    seen_ids = set()
    producers: dict[str, str] = {}
    for n in graph.nodes:
        if n.id in seen_ids:
            diags.append(Diagnostic(n.id, "duplicate node id"))
        seen_ids.add(n.id)
        if n.output in producers or n.output == graph.input_id:
            diags.append(Diagnostic(n.id, f"tensor '{n.output}' produced more than once"))
        producers[n.output] = n.id
        if n.kind not in KINDS:
            diags.append(Diagnostic(n.id, f"unknown kind '{n.kind}'"))

    known = set(producers) | {graph.input_id}
    dangling = set()
    for n in graph.nodes:
        for t in n.inputs:
            if t not in known:
                dangling.add(t)
                diags.append(Diagnostic(n.id, f"input tensor '{t}' is never produced"))

    # a dangling input is reported above; only a real cycle leaves nodes stuck
    _, stuck = _topo_order(graph, dangling)
    if stuck:
        diags.append(Diagnostic(stuck[0].id, "cycle involving nodes: "
                                + ", ".join(n.id for n in stuck)))

    for n in graph.nodes:
        diags.extend(Diagnostic(n.id, reason)
                     for _, reason in _node_faults(n, len(graph.metadata.anchors)))

    # shape inference cannot get past a dangling input or a cycle
    if (graph.weights or not diags) and not (dangling or stuck):
        try:
            shapes = infer_shapes(graph)
        except GraphError as e:
            diags.append(Diagnostic("<graph>", f"shape inference failed: {e}"))
            return diags
        if graph.weights:
            diags.extend(_check_weights(graph, shapes))
        diags.extend(_check_shape_invariants(graph, shapes))
    return diags


def _node_faults(n: LayerNode, anchor_count: int) -> list[tuple[str, str]]:
    """(field, reason) for each rule of its kind that the node breaks; the
    field is `attrs: <key>` or `inputs`. Assumes the attributes have the
    types of _ATTR_TYPES."""
    out = []
    a = n.attrs
    if n.kind == CONV:
        for key in ("out_ch", "kernel", "stride"):
            if a.get(key, 0) < 1:
                out.append((f"attrs: {key}", f"conv {key} must be >= 1"))
        if a.get("pad", 0) < 0:
            out.append(("attrs: pad", "conv pad must be >= 0"))
        if a.get("act", LINEAR) not in (LINEAR, RELU, LEAKY):
            out.append(("attrs: act", f"unknown activation '{a.get('act')}'"))
    elif n.kind == ACTIVATION:
        if a.get("act") not in (LINEAR, RELU, LEAKY):
            out.append(("attrs: act", f"unknown activation '{a.get('act')}'"))
    elif n.kind == UPSAMPLE:
        if int(a.get("factor", 0)) < 2:
            out.append(("attrs: factor",
                        f"upsample factor must be an integer >= 2, got {a.get('factor')}"))
    elif n.kind == MAXPOOL:
        for key in ("kernel", "stride"):
            if a.get(key, 0) < 1:
                out.append((f"attrs: {key}", "maxpool kernel and stride must be >= 1"))
                break
    elif n.kind == YOLO_HEAD:
        if not a.get("anchor_indices"):
            out.append(("attrs: anchor_indices", "yolo head needs at least one anchor index"))
        outside = [i for i in a.get("anchor_indices") or () if not 0 <= i < anchor_count]
        if outside:
            out.append(("attrs: anchor_indices", f"anchor indices {outside} outside the "
                                                 f"model's {anchor_count} anchors"))
        if a.get("num_classes", 0) < 1:
            out.append(("attrs: num_classes", "yolo head needs num_classes >= 1"))
    if (n.kind in (CONV, ACTIVATION) and a.get("act") == LEAKY
            and not 0.0 < a.get("alpha", 0.0) < 1.0):
        out.append(("attrs: alpha", f"leaky alpha must be in (0,1), got {a.get('alpha')}"))
    if n.kind in (ADD, CONCAT) and len(n.inputs) < 2:
        out.append(("inputs", f"{n.kind} needs at least two inputs"))
    return out


def _check_shape_invariants(graph: Graph, shapes: dict[str, TensorShape]) -> list[Diagnostic]:
    out = []
    for n in graph.nodes:
        if n.kind == YOLO_HEAD:
            c = shapes[n.inputs[0]].c
            want = len(n.attrs["anchor_indices"]) * (5 + n.attrs["num_classes"])
            if c != want:
                out.append(Diagnostic(
                    n.id, f"head input has {c} channels, expected {want} "
                          f"({len(n.attrs['anchor_indices'])} anchors x (5+{n.attrs['num_classes']}))"))
    return out


def _expected_weight_lens(node: LayerNode, in_c: int) -> dict[str, int]:
    a = node.attrs
    if node.kind == CONV:
        lens = {"kernel": a["out_ch"] * in_c * a["kernel"] * a["kernel"]}
        if a["has_bias"]:
            lens["bias"] = a["out_ch"]
        return lens
    if node.kind == BATCHNORM:
        return {r: in_c for r in WEIGHT_ROLES[BATCHNORM]}
    if node.kind == SCALE and node.attrs.get("factor") is None:
        return {"scale_factors": in_c}
    return {}


def _check_weights(graph: Graph, shapes: dict[str, TensorShape]) -> list[Diagnostic]:
    out = []
    for n in graph.nodes:
        in_c = shapes[n.inputs[0]].c if n.inputs else 0
        for role, want in _expected_weight_lens(n, in_c).items():
            arr = graph.weights.get((n.id, role))
            if arr is None:
                out.append(Diagnostic(n.id, f"missing weights for role '{role}'"))
            elif arr.size != want:
                out.append(Diagnostic(n.id, f"role '{role}' has {arr.size} values, expected {want}"))
        if n.kind == BATCHNORM:
            var = graph.weights.get((n.id, "bn_var"))
            if var is not None and np.any(var < 0):
                out.append(Diagnostic(n.id, "bn_var has negative entries"))
    return out


# --------------------------------------------------------------------------
# container serialization
# --------------------------------------------------------------------------

# fields the loader reads from each manifest record
_MANIFEST_FIELDS = frozenset({"input", "metadata", "nodes", "weights"})
_INPUT_FIELDS = frozenset({"id", "shape"})
_METADATA_FIELDS = frozenset({"class_names", "anchors"})
_NODE_FIELDS = frozenset({"id", "kind", "inputs", "output", "attrs"})
_WEIGHT_FIELDS = frozenset({"layer", "role", "len"})


_INTEGER = (lambda v: type(v) is int, "an integer")  # bool is not an integer
_NUMBER = (artifacts.finite_number, "a finite number")
_BOOLEAN = (lambda v: type(v) is bool, "a boolean")
_STRING = (lambda v: type(v) is str, "a string")
_INTEGERS = (lambda v: type(v) is list and all(type(i) is int for i in v), "a list of integers")

# per kind: the JSON type of each node attribute the stages read
_ATTR_TYPES = {
    CONV: {"out_ch": _INTEGER, "kernel": _INTEGER, "stride": _INTEGER, "pad": _INTEGER,
           "has_bias": _BOOLEAN, "act": _STRING, "alpha": _NUMBER},
    BATCHNORM: {"eps": _NUMBER},
    ACTIVATION: {"act": _STRING, "alpha": _NUMBER},
    SCALE: {"factor": _NUMBER},
    UPSAMPLE: {"factor": _INTEGER},
    MAXPOOL: {"kernel": _INTEGER, "stride": _INTEGER},
    YOLO_HEAD: {"anchor_indices": _INTEGERS, "num_classes": _INTEGER},
}
# per kind: the attributes every node of the kind holds
_REQUIRED_ATTRS = {
    CONV: frozenset({"out_ch", "kernel", "stride", "pad", "has_bias"}),
    BATCHNORM: frozenset({"eps"}),
    ACTIVATION: frozenset({"act"}),
    UPSAMPLE: frozenset({"factor"}),
    MAXPOOL: frozenset({"kernel", "stride"}),
    YOLO_HEAD: frozenset({"anchor_indices", "num_classes"}),
}


def _node_to_json(n: LayerNode) -> dict:
    return {"id": n.id, "kind": n.kind, "inputs": n.inputs, "output": n.output,
            "attrs": n.attrs, "precision_class": n.precision_class}


def _node_from_json(d: dict) -> LayerNode:
    return LayerNode(id=d["id"], kind=d["kind"], inputs=list(d["inputs"]),
                     output=d["output"], attrs=dict(d["attrs"]),
                     precision_class=d.get("precision_class", QUANTIZABLE))


def graph_manifest(graph: Graph, tool_meta: dict | None = None) -> dict:
    weights_index = []
    for n in graph.nodes:
        for role in WEIGHT_ROLES.get(n.kind, ()):
            if (n.id, role) in graph.weights:
                weights_index.append({"layer": n.id, "role": role,
                                      "len": int(graph.weights[(n.id, role)].size)})
    manifest = {
        "input": {"id": graph.input_id, "shape": list(graph.input_shape)},
        "metadata": {
            "class_names": graph.metadata.class_names,
            "anchors": [list(a) for a in graph.metadata.anchors],
            "extra": graph.metadata.extra,
        },
        "nodes": [_node_to_json(n) for n in graph.nodes],
        "qparams": None if graph.qparams is None else {
            t: q.to_dict() for t, q in graph.qparams.items()},
        "weights": weights_index,
        "tool": tool_meta or {},
    }
    return manifest


def save_container(graph: Graph, path, tool_meta: dict | None = None) -> None:
    diags = validate(graph)
    if diags:
        raise GraphError("refusing to save invalid graph: " + "; ".join(map(str, diags)))
    manifest = graph_manifest(graph, tool_meta)
    blob = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as f:
        f.write(FORMAT_MAGIC)
        f.write(struct.pack("<I", FORMAT_VERSION))
        f.write(struct.pack("<Q", len(blob)))
        f.write(blob)
        for entry in manifest["weights"]:
            arr = graph.weights[(entry["layer"], entry["role"])]
            f.write(np.ascontiguousarray(arr, dtype="<f4"))


def _weight_len(entry: dict, path, i: int) -> int:
    n = entry["len"]
    if type(n) is not int or n < 0:  # bool is not a count
        artifacts.reject(n, "a non-negative integer", path, "weights", i, "len")
    return n


def _weight_key(entry: dict, path, i: int) -> tuple[str, str]:
    for field in ("layer", "role"):
        if type(entry[field]) is not str:
            artifacts.reject(entry[field], "a string", path, "weights", i, field)
    return entry["layer"], entry["role"]


def _input(inp: dict, path) -> tuple[str, TensorShape]:
    if type(inp["id"]) is not str:
        artifacts.reject(inp["id"], "a string", path, "input", "id")
    shape = inp["shape"]
    if (type(shape) is not list or len(shape) != 4
            or any(type(d) is not int or d < 1 for d in shape)):  # bool is not a dimension
        artifacts.reject(shape, "a list of 4 positive integers", path, "input", "shape")
    return inp["id"], TensorShape(*shape)


def _anchors(meta: dict, path) -> list[tuple[float, float]]:
    anchors = meta["anchors"]
    if type(anchors) is not list or not all(
            type(a) is list and len(a) == 2
            and all(artifacts.finite_number(v) and v > 0 for v in a) for a in anchors):
        artifacts.reject(anchors, "a list of [w, h] pairs of positive numbers", path,
                         "metadata", "anchors")
    return [tuple(a) for a in anchors]


def _class_names(meta: dict, path) -> list[str]:
    names = meta["class_names"]
    if type(names) is not list or not all(type(n) is str for n in names):
        artifacts.reject(names, "a list of strings", path, "metadata", "class_names")
    return list(names)


def _nodes(records: list[dict], anchor_count: int, path) -> list[LayerNode]:
    """The nodes of the manifest, each checked against validate's rules
    for its kind once its fields and attributes have the types the stages
    read."""
    nodes = []
    for i, d in enumerate(records):
        for key in ("id", "kind", "output"):
            if type(d[key]) is not str:
                artifacts.reject(d[key], "a string", path, "nodes", i, key)
        if type(d["inputs"]) is not list or not all(type(t) is str for t in d["inputs"]):
            artifacts.reject(d["inputs"], "a list of strings", path, "nodes", i, "inputs")
        kind = d["kind"]
        attrs = artifacts.require(d["attrs"], _REQUIRED_ATTRS.get(kind, artifacts.NO_FIELDS),
                                  path, "nodes", i, "attrs")
        for key, (is_type, expected) in _ATTR_TYPES.get(kind, {}).items():
            if key in attrs and not is_type(attrs[key]):
                artifacts.reject(attrs[key], expected, path, "nodes", i, "attrs", key)
        node = _node_from_json(d)
        faults = _node_faults(node, anchor_count)
        if faults:
            field, reason = faults[0]
            raise artifacts.ArtifactError(f"{path}: nodes: {i}: {field}: {reason}")
        nodes.append(node)
    return nodes


def load_container(path) -> Graph:
    """The graph a container holds. Reads the header and the manifest, checks
    them and the declared weight sizes against the file size, then reads
    each weight from the file into its own float32 array, so the weights
    are held once."""
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        header = f.read(16)
        if len(header) < 16:
            raise TruncatedFile(f"{path}: only {len(header)} bytes")
        if header[:4] != FORMAT_MAGIC:
            raise BadMagic(f"{path}: magic {header[:4]!r}, expected {FORMAT_MAGIC!r}")
        (version,) = struct.unpack_from("<I", header, 4)
        if version != FORMAT_VERSION:
            raise VersionUnsupported(f"{path}: format version {version}")
        (mlen,) = struct.unpack_from("<Q", header, 8)
        if size - 16 < mlen:
            raise TruncatedFile(f"{path}: manifest declares {mlen} bytes, file holds {size - 16}")
        manifest = artifacts.parse_json(f.read(mlen), path, _MANIFEST_FIELDS)
        input_id, input_shape = _input(
            artifacts.require(manifest["input"], _INPUT_FIELDS, path, "input"), path)
        meta = artifacts.require(manifest["metadata"], _METADATA_FIELDS, path, "metadata")
        anchors = _anchors(meta, path)
        class_names = _class_names(meta, path)
        extra = meta.get("extra", {})
        if not isinstance(extra, dict):
            artifacts.reject(extra, "a JSON object", path, "metadata", "extra")
        nodes = _nodes(artifacts.require_each(manifest["nodes"], _NODE_FIELDS, path, "nodes"),
                       len(anchors), path)
        entries = artifacts.require_each(manifest["weights"], _WEIGHT_FIELDS, path, "weights")

        lens: dict[tuple[str, str], int] = {}  # in blob order
        for i, e in enumerate(entries):
            key = _weight_key(e, path, i)
            if key in lens:
                artifacts.reject(list(key), "a (layer, role) not listed before", path,
                                 "weights", i, "layer, role")
            lens[key] = _weight_len(e, path, i)
        want_floats, blob_bytes = sum(lens.values()), size - 16 - mlen
        if blob_bytes != want_floats * 4:
            raise ManifestWeightMismatch(
                f"{path}: manifest declares {want_floats} floats, blob holds {blob_bytes // 4}")
        weights: dict[tuple[str, str], np.ndarray] = {}
        for (layer, role), n in lens.items():
            arr = np.empty(n, dtype="<f4")
            if f.readinto(arr) != arr.nbytes:
                raise TruncatedFile(f"{path}: file ends inside weights {layer} {role}")
            weights[(layer, role)] = arr.astype(np.float32, copy=False)

    qp = manifest.get("qparams")
    return Graph(
        nodes=nodes,
        input_id=input_id,
        input_shape=input_shape,
        weights=weights,
        metadata=GraphMetadata(
            class_names=class_names,
            anchors=anchors,
            extra=dict(extra),
        ),
        qparams=None if qp is None else {
            t: QuantParams.from_dict(d, path, "qparams", t)
            for t, d in artifacts.require(qp, artifacts.NO_FIELDS, path, "qparams").items()},
    )
