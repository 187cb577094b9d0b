"""Network graph IR: typed layer nodes, shape inference, validation and the
serialized model container every other stage exchanges.

`KINDS` declares each node kind once: its attributes, input count, weight
roles and their lengths, output-shape rule, rules between fields and MACs.
Shape inference, validation, the container loader, the cfg reader, the
passes and the model stats all read it; executor's `OPS` declares how each
kind runs.

One graph checker: `_early_faults` lists what no other check can get past
(no input, a node field not of its type), and `_faults` what shape
inference cannot get past (a node id or tensor used twice, an input
nothing produces, a node's kind, input count or attribute its table
refuses, a cycle, then the first output-shape rule broken). `infer_shapes`
raises the first of these and `validate` lists them all, in the same
words, and adds the rules that only it checks: input dims, the rules
between fields, each head's channel count and the weights. Compile,
execute, the passes and the model stats start from `infer_shapes`, so each
refuses every structural, field and attribute fault `validate` lists, as a
GraphError in its words. `load_container` checks only the file's format
and then refuses a graph `validate` faults, so a container loads exactly
when `save_container` would write its graph.

Layout is N,C,H,W row-major. A graph's shapes are those of one image
(n = 1); the executor runs a batch of n >= 1 images on them. Rewrite
passes copy a graph and never edit their input, but a graph may be edited
in memory (its nodes, weights and ranges): `execute` recompiles a cached
program when what it read has changed (see executor).
`Graph.copy` copies nodes but shares weight arrays, so no code writes a
weight array in place; a changed weight is a new array bound to its key.
Every weight a loader reads or a pass makes is read-only: darknet weights
are views of the file's bytes, a container's weights are arrays read from
the file, and a fold binds new arrays. A write to one raises ValueError.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from . import Error, artifacts
from .artifacts import (BOOLEAN, COUNT, INTEGER, NUMBER, OBJECT, POSITIVE_INTEGER, STRING, STRINGS,
                        Field, finite_number, optional)

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

# activation functions (also valid as a conv node's inline `act` attribute)
LINEAR = "linear"
RELU = "relu"
LEAKY = "leaky"

QUANTIZABLE = "quantizable"
PLUGIN_ONLY = "plugin_only"


class GraphError(Error):
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

    FIELDS = {"lo": NUMBER, "hi": NUMBER, "scale": NUMBER, "zero_point": INTEGER}

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
        d = artifacts.check(d, cls.FIELDS, where, *keys)
        if not d["lo"] < d["hi"]:
            artifacts.reject(d["hi"], f"a number above lo {d['lo']}", where, *keys, "hi")
        qp = cls.from_range(d["lo"], d["hi"])
        for name in ("scale", "zero_point"):
            if d[name] != getattr(qp, name):
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
    # the executor's compiled programs by (mode, plan, retention); not copied or compared
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


@dataclass(frozen=True)
class Diagnostic:
    node_id: str
    reason: str
    # the GraphError class infer_shapes raises it as; not compared
    error: type = field(default=GraphError, compare=False, repr=False)

    def __str__(self):
        return f"{self.node_id}: {self.reason}"


def _early_faults(graph: Graph) -> list[Diagnostic]:
    """The faults past which no other check can run: no input (alone), or
    each node field whose type is not the one `_NODE_FIELDS` gives it. An
    exact-type test finds the nodes; `artifacts.faults` words their faults."""
    if graph.input_id is None or graph.input_shape is None or not graph.nodes:
        return [Diagnostic("<graph>", "no input", ShapeMismatch)]
    return [Diagnostic(n.id if type(n.id) is str else f"nodes: {i}", ": ".join((*keys, fault)))
            for i, n in enumerate(graph.nodes)
            if not (type(n.id) is type(n.kind) is type(n.output) is str and type(n.attrs) is dict
                    and type(n.inputs) is list and all(type(t) is str for t in n.inputs)
                    and n.precision_class in (QUANTIZABLE, PLUGIN_ONLY))
            for keys, fault in artifacts.faults(_node_to_json(n), _NODE_FIELDS)]


def _faults(graph: Graph, shapes: dict):
    """The faults that shape inference refuses of a graph `_early_faults`
    passes, lazily and in this order: each node id used twice and each
    tensor produced twice, the graph input counting as produced; each input
    that nothing produces; each node's kind, input count or attribute its
    kind's table refuses; the nodes a topological walk never reaches (a
    cycle); and only when none of these, the first output-shape rule a node
    breaks. With no fault, fills `shapes` with every tensor's shape."""
    ids, produced, twice = set(), {graph.input_id}, []
    for n in graph.nodes:
        if n.id in ids:
            twice.append(Diagnostic(n.id, "duplicate node id"))
        if n.output in produced:
            twice.append(Diagnostic(n.id, f"tensor '{n.output}' produced more than once"))
        ids.add(n.id)
        produced.add(n.output)
    yield from twice
    dangling = [(n, t) for n in graph.nodes for t in n.inputs if t not in produced]
    for n, t in dangling:
        yield Diagnostic(n.id, f"input tensor '{t}' is never produced", ShapeMismatch)
    faulty = [Diagnostic(n.id, f"{field}: {reason}") for n in graph.nodes
              for field, reason in _table_faults(n)]
    yield from faulty
    # a dangling input is reported above; only a real cycle leaves nodes stuck
    order, stuck = _topo_order(graph, {t for _, t in dangling})
    if stuck:
        yield Diagnostic(stuck[0].id, "cycle involving nodes: " + ", ".join(n.id for n in stuck),
                         ShapeMismatch)
    if twice or dangling or faulty or stuck:
        return
    found = {graph.input_id: graph.input_shape}
    for n in order:
        try:
            found[n.output] = KINDS[n.kind].shape(n, [found[t] for t in n.inputs])
        except GraphError as e:
            yield Diagnostic(n.id, str(e), type(e))
            return
    shapes.update(found)


def infer_shapes(graph: Graph) -> dict[str, TensorShape]:
    """Every tensor's shape, the same over any valid order of the node
    list; the dict lists the input, then each node output in dataflow
    order (the order `_topo_order` gives). Raises the first fault
    `validate` lists (see `_early_faults` and `_faults`) in its words:
    a GraphError whose text is the Diagnostic's, ShapeMismatch for no
    input, a dangling input, a cycle and mismatched add or concat inputs,
    UnderflowShape for a window that leaves no output."""
    shapes: dict[str, TensorShape] = {}
    for d in _early_faults(graph) or _faults(graph, shapes):
        raise d.error(str(d))
    return shapes


def validate(graph: Graph) -> list[Diagnostic]:
    """Every fault of the graph; an empty list means it is sound. Only the
    `_early_faults` when there are any; else every fault `_faults` lists
    (infer_shapes raises the first of them); then input dims below 1 or an
    h or w that is no multiple of 32, and each rule between fields a node
    breaks; then, when the shapes resolve, each head's input channel count
    and, when any weights are attached, each weight against its node, so
    skeleton graphs straight from the cfg parser validate before loading
    weights. `load_container` refuses a file whose graph has a fault here."""
    diags = _early_faults(graph)
    if diags:
        return diags
    shapes: dict[str, TensorShape] = {}
    diags = list(_faults(graph, shapes))
    ishape = graph.input_shape
    if min(ishape) < 1:
        diags.append(Diagnostic("<graph>", f"input dims must be >= 1, got {ishape}"))
    if ishape.h % 32 or ishape.w % 32:
        diags.append(Diagnostic("<graph>", f"input h,w must be multiples of 32, got {ishape.h}x{ishape.w}"))
    diags += [Diagnostic(n.id, f"{field}: {reason}") for n in graph.nodes
              for field, reason in _rule_faults(n, len(graph.metadata.anchors))]
    if shapes:
        if graph.weights:
            diags += _check_weights(graph, shapes)
        diags += _check_shape_invariants(graph, shapes)
    return diags


_ACT = Field(lambda v: type(v) is str and v in (LINEAR, RELU, LEAKY),
             f"{LINEAR}, {RELU} or {LEAKY}")


def _window_shape(node: LayerNode, s: TensorShape, pad: int, out_c: int) -> TensorShape:
    """The output of a conv's or max-pool's kernel x kernel windows, stride
    apart, over `s` padded by `pad`."""
    a = node.attrs
    oh, ow = (conv_out_dim(size, a["kernel"], a["stride"], pad) for size in (s.h, s.w))
    if oh < 1 or ow < 1:
        raise UnderflowShape(f"{node.kind} output {oh}x{ow} underflows")
    return TensorShape(s.n, out_c, oh, ow)


def _add_shape(node: LayerNode, ins: list[TensorShape]) -> TensorShape:
    for other in ins[1:]:
        if other != ins[0]:
            raise ShapeMismatch(f"add inputs {ins[0]} vs {other}")
    return ins[0]


def _concat_shape(node: LayerNode, ins: list[TensorShape]) -> TensorShape:
    s = ins[0]
    for other in ins[1:]:
        if (other.n, other.h, other.w) != (s.n, s.h, s.w):
            raise ShapeMismatch(f"concat inputs {s} vs {other}")
    return s._replace(c=sum(t.c for t in ins))


def _anchors_known(n: LayerNode, anchor_count: int) -> str | None:
    outside = [i for i in n.attrs.get("anchor_indices", ()) if not 0 <= i < anchor_count]
    if outside:
        return f"{outside} outside the model's {anchor_count} anchors"


class Kind(NamedTuple):
    """What every stage knows of one node kind:
    * attrs: attribute -> Field, the attributes the stages read;
    * shape(node, input shapes): the output shape, or raises GraphError
      giving the reason;
    * inputs: Field(test of the input count, what it expects);
    * roles: the weight roles, in on-disk blob order;
    * weights(attrs, input channels): role -> float count of each weight
      the node needs;
    * rules: (attribute, rule(node, anchor count)) for each rule between
      fields; a rule gives the fault, or a false value;
    * macs(attrs, input shape, output shape): the multiply-adds, for the
      kinds that count them."""

    attrs: dict
    shape: Callable
    inputs: Field = Field(lambda count: count == 1, "one input")
    roles: tuple = ()
    weights: Callable = lambda attrs, in_c: {}
    rules: tuple = ()
    macs: Callable | None = None


_SAME = lambda node, ins: ins[0]  # noqa: E731
_BN_ROLES = ("bn_gamma", "bn_beta", "bn_mean", "bn_var")
_LEAKY_ALPHA = ("alpha", lambda n, _: (
    n.attrs.get("act") == LEAKY and not 0.0 < n.attrs.get("alpha", 0.0) < 1.0
    and f"leaky needs alpha in (0, 1), got {n.attrs.get('alpha')}"))
_MANY_INPUTS = Field(lambda count: count >= 2, "at least two inputs")

KINDS = {
    CONV: Kind(attrs={"out_ch": POSITIVE_INTEGER, "kernel": POSITIVE_INTEGER,
                      "stride": POSITIVE_INTEGER, "pad": COUNT, "has_bias": BOOLEAN,
                      "act": optional(_ACT), "alpha": optional(NUMBER)},
               shape=lambda n, ins: _window_shape(n, ins[0], n.attrs["pad"], n.attrs["out_ch"]),
               roles=("kernel", "bias"),
               weights=lambda a, in_c: {"kernel": a["out_ch"] * in_c * a["kernel"] ** 2,
                                        **({"bias": a["out_ch"]} if a["has_bias"] else {})},
               rules=(_LEAKY_ALPHA,),
               macs=lambda a, s, out: out.h * out.w * a["out_ch"] * s.c * a["kernel"] ** 2),
    BATCHNORM: Kind(attrs={"eps": Field(lambda v: finite_number(v) and v > 0, "a positive number")},
                    shape=_SAME, roles=_BN_ROLES,
                    weights=lambda a, in_c: dict.fromkeys(_BN_ROLES, in_c)),
    ACTIVATION: Kind(attrs={"act": _ACT, "alpha": optional(NUMBER)}, shape=_SAME,
                     rules=(_LEAKY_ALPHA,)),
    SCALE: Kind(attrs={"factor": optional(NUMBER)}, shape=_SAME, roles=("scale_factors",),
                weights=lambda a, in_c: {} if a.get("factor") is not None
                else {"scale_factors": in_c}),
    UPSAMPLE: Kind(attrs={"factor": Field(lambda v: INTEGER.test(v) and v >= 2, "an integer >= 2")},
                   shape=lambda n, ins: ins[0]._replace(h=ins[0].h * n.attrs["factor"],
                                                        w=ins[0].w * n.attrs["factor"])),
    ADD: Kind(attrs={}, shape=_add_shape, inputs=_MANY_INPUTS),
    CONCAT: Kind(attrs={}, shape=_concat_shape, inputs=_MANY_INPUTS),
    MAXPOOL: Kind(attrs={"kernel": POSITIVE_INTEGER, "stride": POSITIVE_INTEGER},
                  shape=lambda n, ins: _window_shape(n, ins[0], 0, ins[0].c)),
    YOLO_HEAD: Kind(attrs={"anchor_indices": Field(lambda v: type(v) is list and v and all(
                               map(INTEGER.test, v)), "a non-empty list of integers"),
                           "num_classes": POSITIVE_INTEGER},
                    shape=_SAME, rules=(("anchor_indices", _anchors_known),)),
}


def _table_faults(n: LayerNode) -> list[tuple[str, str]]:
    """(field, reason) for a kind KINDS does not declare, or for an input
    count its kind refuses and then each attribute its kind's table
    refuses. The field is `kind`, `inputs`, `attrs: <key>`, or `attrs` for
    missing attributes."""
    kind = KINDS.get(n.kind)
    if kind is None:
        return [("kind", f"expected one of {', '.join(KINDS)}, got {json.dumps(n.kind)}")]
    out = [] if kind.inputs.test(len(n.inputs)) else [
        ("inputs", f"{n.kind} needs {kind.inputs.expected}, got {len(n.inputs)}")]
    return out + [(": ".join(("attrs", *keys)), fault)
                  for keys, fault in artifacts.faults(n.attrs, kind.attrs)]


def _rule_faults(n: LayerNode, anchor_count: int) -> list[tuple[str, str]]:
    """(`attrs: <key>`, reason) for each rule between fields the node
    breaks, unless its kind's table refuses that attribute."""
    kind = KINDS.get(n.kind)
    return [(f"attrs: {key}", reason) for key, rule in (kind.rules if kind else ())
            if (key not in n.attrs or kind.attrs[key].test(n.attrs[key]))
            and (reason := rule(n, anchor_count))]


def _node_faults(n: LayerNode, anchor_count: int) -> list[tuple[str, str]]:
    """(field, reason) for each fault of the node: its table faults, then
    each rule between fields that it breaks."""
    return _table_faults(n) + _rule_faults(n, anchor_count)


def _check_shape_invariants(graph: Graph, shapes: dict[str, TensorShape]):
    for n in graph.head_nodes():
        c = shapes[n.inputs[0]].c
        want = len(n.attrs["anchor_indices"]) * (5 + n.attrs["num_classes"])
        if c != want:
            yield Diagnostic(
                n.id, f"head input has {c} channels, expected {want} "
                      f"({len(n.attrs['anchor_indices'])} anchors x (5+{n.attrs['num_classes']}))")


def _check_weights(graph: Graph, shapes: dict[str, TensorShape]) -> list[Diagnostic]:
    out = []
    for n in graph.nodes:
        in_c = shapes[n.inputs[0]].c
        for role, want in KINDS[n.kind].weights(n.attrs, in_c).items():
            arr = graph.weights.get((n.id, role))
            if arr is None:
                out.append(Diagnostic(n.id, f"missing weights for role '{role}'"))
            elif arr.size != want:
                out.append(Diagnostic(n.id, f"role '{role}' has {arr.size} values, expected {want}"))
        if n.kind == BATCHNORM:
            var = graph.weights.get((n.id, "bn_var"))
            if var is not None and np.any(var < 0):
                out.append(Diagnostic(n.id, "bn_var has negative entries"))
    roles = {n.id: KINDS[n.kind].roles for n in graph.nodes}
    out += [Diagnostic(layer, f"weights for role '{role}', which no node of this id declares")
            for layer, role in graph.weights if role not in roles.get(layer, ())]
    return out


# --------------------------------------------------------------------------
# container serialization
# --------------------------------------------------------------------------

_SHAPE = Field(lambda v: type(v) is list and len(v) == 4 and all(map(POSITIVE_INTEGER.test, v)),
               "a list of 4 positive integers")
_ANCHORS = Field(lambda v: type(v) is list and all(
    type(a) is list and len(a) == 2 and all(finite_number(x) and x > 0 for x in a) for a in v),
    "a list of [w, h] pairs of positive numbers")
_PRECISION_CLASS = Field(lambda v: v in (QUANTIZABLE, PLUGIN_ONLY),
                         f"{QUANTIZABLE} or {PLUGIN_ONLY}")

# the fields the loader reads from the manifest and its parts
_INPUT_FIELDS = {"id": STRING, "shape": _SHAPE}
_METADATA_FIELDS = {"class_names": STRINGS, "anchors": _ANCHORS, "extra": optional(OBJECT)}
_NODE_FIELDS = {"id": STRING, "kind": STRING, "inputs": STRINGS, "output": STRING,
                "attrs": OBJECT, "precision_class": optional(_PRECISION_CLASS)}
_WEIGHT_FIELDS = {"layer": STRING, "role": STRING, "len": COUNT}
_MANIFEST_FIELDS = {"input": OBJECT, "metadata": OBJECT, "nodes": _NODE_FIELDS,
                    "weights": _WEIGHT_FIELDS,
                    "qparams": optional(Field(lambda v: v is None or type(v) is dict,
                                              "a JSON object or null"))}

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
        for role in KINDS[n.kind].roles:
            if (n.id, role) in graph.weights:
                weights_index.append({"layer": n.id, "role": role,
                                      "len": int(graph.weights[(n.id, role)].size)})
    return {
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


def load_container(path) -> Graph:
    """The graph a container holds. Reads the header and the manifest, checks
    them against their field tables, refuses a (layer, role) listed twice,
    checks the declared weight sizes against the file size, then reads each
    weight from the file into its own read-only float32 array, so the
    weights are held once. Raises ArtifactError `<path>: <diagnostic>` with
    the first fault `validate` lists of the graph, so a container loads
    exactly when `save_container` would write its graph."""
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
        inp = artifacts.check(manifest["input"], _INPUT_FIELDS, path, "input")
        meta = artifacts.check(manifest["metadata"], _METADATA_FIELDS, path, "metadata")
        lens: dict[tuple[str, str], int] = {}  # in blob order
        for i, e in enumerate(manifest["weights"]):
            key = (e["layer"], e["role"])
            if key in lens:
                artifacts.reject(list(key), "a (layer, role) not listed before", path,
                                 "weights", i, "layer, role")
            lens[key] = e["len"]
        want_floats, blob_bytes = sum(lens.values()), size - 16 - mlen
        if blob_bytes != want_floats * 4:
            raise ManifestWeightMismatch(
                f"{path}: manifest declares {want_floats} floats, blob holds {blob_bytes // 4}")
        weights: dict[tuple[str, str], np.ndarray] = {}
        for (layer, role), n in lens.items():
            arr = np.empty(n, dtype="<f4")
            if f.readinto(arr) != arr.nbytes:
                raise TruncatedFile(f"{path}: file ends inside weights {layer} {role}")
            weights[(layer, role)] = arr = arr.astype(np.float32, copy=False)
            arr.flags.writeable = False

    qp = manifest.get("qparams")
    graph = Graph(
        nodes=[_node_from_json(d) for d in manifest["nodes"]],
        input_id=inp["id"],
        input_shape=TensorShape(*inp["shape"]),
        weights=weights,
        metadata=GraphMetadata(
            class_names=meta["class_names"],
            anchors=[tuple(a) for a in meta["anchors"]],
            extra=meta.get("extra", {}),
        ),
        qparams=None if qp is None else {
            t: QuantParams.from_dict(d, path, "qparams", t) for t, d in qp.items()},
    )
    for d in validate(graph)[:1]:
        raise artifacts.ArtifactError(f"{path}: {d}")
    return graph
