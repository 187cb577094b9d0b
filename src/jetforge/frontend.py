"""Darknet cfg / weights frontend.

Parses the cfg text format into a Graph skeleton and fills its weight store
from the darknet binary weights layout, byte for byte. `SECTIONS` declares
every key a section reads, with its conversion and default; training-only
keys (learning_rate, jitter, ...) are skipped, some with a warning, since
only inference structure matters here. A value that does not convert, or
that gives a node `graph` refuses, raises `CfgSyntaxError` at its section's
line.
"""

from __future__ import annotations

import math
import re
import struct
import warnings
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import Error
from . import graph as g
from .artifacts import decimal
from .data import CLASS_NAMES


class FrontendError(Error):
    pass


class CfgSyntaxError(FrontendError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class UnknownSection(FrontendError):
    pass


class BadReference(FrontendError):
    pass


class UnsupportedOption(CfgSyntaxError):
    pass


class HeaderInvalid(FrontendError):
    pass


class Truncated(FrontendError):
    pass


class TrailingBytes(FrontendError):
    pass


REQUIRED = "required"
# training-only keys: skipped silently (darknet cfgs always carry [net]'s) or with a warning
SILENT, WARNED = "silent", "warned"


class Option(NamedTuple):
    """A key a section reads: `parse` turns its text into the value or raises
    ValueError, which the reader raises as `error` saying it expected
    `expected`. A key left out reads as the text `default`; REQUIRED refuses
    that, None gives None."""

    parse: Callable[[str], object]
    expected: str
    default: str | None = REQUIRED
    error: type = CfgSyntaxError


def _checked(parse, test):
    """`parse`, refusing a value that fails `test`."""
    def checked(text):
        value = parse(text)
        if not test(value):
            raise ValueError(text)
        return value
    return checked


def _integer(text: str) -> int:
    # ASCII decimal digits only: int() also takes "9_6" and other scripts' digits
    if not re.fullmatch(r"\s*[+-]?[0-9]+\s*", text):
        raise ValueError(text)
    return int(text)


def _ints(text: str) -> list[int]:
    return [_integer(v) for v in text.split(",") if v.strip()]


def _anchors(text: str) -> list[tuple[float, float]]:
    v = [decimal(x) for x in text.split(",") if x.strip()]
    if len(v) % 2 or not all(0 < x < math.inf for x in v):
        raise ValueError(text)
    return list(zip(v[::2], v[1::2]))


def _int(default=REQUIRED) -> Option:
    return Option(_integer, "an integer", default)


# options checked against graph's attribute table before a node is built:
# `activation`, to refuse as an unsupported option, and the `pad` flag and
# `padding`, counts as the conv's pad (padding is its pad only without the flag)
_PAD, _ACT = g.KINDS[g.CONV].attrs["pad"], g.KINDS[g.ACTIVATION].attrs["act"]
_POSITIVE = Option(_checked(_integer, lambda v: v > 0), "a positive integer")
_COUNT = Option(_checked(_integer, _PAD.test), _PAD.expected, "0")

# section -> key -> Option, SILENT or WARNED. Node attributes are bounded by
# graph's node rules, which parse_cfg runs on every node it emits
SECTIONS = {
    "net": {"width": _POSITIVE, "height": _POSITIVE, "channels": _POSITIVE._replace(default="3"),
            **dict.fromkeys(("batch", "subdivisions", "momentum", "decay", "angle",
                             "saturation", "exposure", "hue", "learning_rate", "burn_in",
                             "max_batches", "policy", "steps", "scales", "random"), SILENT)},
    "convolutional": {
        "batch_normalize": Option(_checked(_integer, lambda v: v in (0, 1)), "0 or 1", "0"),
        "filters": _int(), "size": _int("1"), "stride": _int("1"), "pad": _COUNT,
        "padding": _COUNT,
        "activation": Option(_checked(str, _ACT.test), _ACT.expected, g.LINEAR, UnsupportedOption)},
    "shortcut": {"from": _int(), "activation": Option(
        _checked(str, lambda v: v == g.LINEAR), "linear", g.LINEAR, UnsupportedOption)},
    "route": {"layers": Option(_checked(_ints, bool), "a non-empty list of integers")},
    "upsample": {"stride": _int("2")},
    "maxpool": {"size": _int("2"), "stride": _int(None)},
    "yolo": {"mask": Option(_ints, "a list of integers", "0"),
             "anchors": Option(_anchors, "w,h pairs of positive numbers", ""),
             "classes": _int("80"), "num": SILENT,
             **dict.fromkeys(("jitter", "ignore_thresh", "truth_thresh", "random"), WARNED)},
}


@dataclass
class CfgSection:
    name: str
    options: dict[str, str]
    line_no: int


@dataclass
class WeightsHeader:
    major: int
    minor: int
    revision: int
    seen: int


def split_sections(text: str) -> list[CfgSection]:
    sections: list[CfgSection] = []
    current: CfgSection | None = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line or line.startswith(";"):
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise CfgSyntaxError(line_no, f"malformed section header {raw.strip()!r}")
            name = line[1:-1].strip()
            if not name:
                raise CfgSyntaxError(line_no, "empty section name")
            current = CfgSection(name=name, options={}, line_no=line_no)
            sections.append(current)
            continue
        if "=" not in line:
            raise CfgSyntaxError(line_no, f"expected key=value, got {raw.strip()!r}")
        if current is None:
            raise CfgSyntaxError(line_no, "option before any [section]")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in current.options:
            raise CfgSyntaxError(line_no, f"duplicate key '{key}' in [{current.name}]")
        current.options[key] = value
    return sections


def _read_options(section: CfgSection) -> dict:
    """Every Option of the section's SECTIONS table, key -> value, from its
    text or its default; warns about unknown and WARNED keys first."""
    table = SECTIONS[section.name]
    for key in section.options:
        option = table.get(key)
        if option is None or option == WARNED:
            what = "unknown" if option is None else "training-only"
            warnings.warn(f"[{section.name}] line {section.line_no}: ignoring {what} key '{key}'")
    values = {}
    for key, option in table.items():
        if type(option) is Option:
            text = section.options.get(key, option.default)
            if text is REQUIRED:
                raise CfgSyntaxError(section.line_no, f"[{section.name}] needs {key}")
            try:
                values[key] = text if text is None else option.parse(text)
            except ValueError:
                raise option.error(section.line_no, f"[{section.name}] {key}: expected "
                                                    f"{option.expected}, got {text!r}") from None
    return values


def parse_cfg(text: str) -> g.Graph:
    """Build a Graph skeleton (no weights) from darknet cfg text.

    Each [convolutional] with batch_normalize=1 expands to conv + batchnorm
    (+ activation node unless linear). [shortcut] becomes an add, [route]
    with several layers a concat, a single-layer [route] just re-wires.
    """
    sections = split_sections(text)
    if not sections or sections[0].name != "net":
        raise CfgSyntaxError(sections[0].line_no if sections else 1, "cfg must start with [net]")
    net = _read_options(sections[0])
    input_shape = g.TensorShape(1, net["channels"], net["height"], net["width"])

    nodes: list[tuple[g.LayerNode, CfgSection]] = []  # with the section each comes from
    layer_outputs: list[str] = []   # darknet layer index -> output tensor id
    anchors: list[tuple[float, float]] = []
    num_classes = None

    def resolve(ref: int, at: int, section: CfgSection) -> int:
        idx = at + ref if ref < 0 else ref
        if idx < 0 or idx >= at:
            raise BadReference(
                f"line {section.line_no}: [{section.name}] reference {ref} out of range at layer {at}")
        return idx

    for section in sections[1:]:
        i = len(layer_outputs)
        prev = layer_outputs[-1] if layer_outputs else "input"
        if section.name not in SECTIONS:
            raise UnknownSection(f"line {section.line_no}: [{section.name}]")
        o = _read_options(section)

        if section.name == "convolutional":
            size, bn, act = o["size"], o["batch_normalize"] == 1, o["activation"]
            pad = size // 2 if o["pad"] else o["padding"]
            new = [g.conv_node(f"conv{i}", [prev], f"conv{i}", o["filters"], size, o["stride"],
                               pad, has_bias=not bn)]
            if bn:
                new.append(g.LayerNode(f"bn{i}", g.BATCHNORM, [new[-1].output], f"bn{i}",
                                       {"eps": 1e-6}))
            if act != g.LINEAR:
                new.append(g.activation_node(f"act{i}", [new[-1].output], f"act{i}", act,
                                             0.1 if act == g.LEAKY else None))

        elif section.name == "shortcut":
            src = resolve(o["from"], i, section)
            new = [g.LayerNode(f"add{i}", g.ADD, [layer_outputs[i - 1], layer_outputs[src]],
                               f"add{i}")]

        elif section.name == "route":
            refs = [resolve(r, i, section) for r in o["layers"]]
            # a single layer is a plain re-wire, no node emitted
            new = [] if len(refs) == 1 else [g.LayerNode(
                f"concat{i}", g.CONCAT, [layer_outputs[r] for r in refs], f"concat{i}")]

        elif section.name == "upsample":
            new = [g.LayerNode(f"up{i}", g.UPSAMPLE, [prev], f"up{i}", {"factor": o["stride"]})]

        elif section.name == "maxpool":
            stride = o["size"] if o["stride"] is None else o["stride"]
            new = [g.LayerNode(f"pool{i}", g.MAXPOOL, [prev], f"pool{i}",
                               {"kernel": o["size"], "stride": stride})]

        elif section.name == "yolo":
            pairs, classes = o["anchors"], o["classes"]
            if anchors and pairs and pairs != anchors:
                raise CfgSyntaxError(section.line_no, "[yolo] anchors differ between heads")
            if pairs:
                anchors[:] = pairs
            if num_classes is not None and classes != num_classes:
                raise CfgSyntaxError(section.line_no, "[yolo] classes differ between heads")
            num_classes = classes
            new = [g.LayerNode(f"yolo{i}", g.YOLO_HEAD, [prev], f"yolo{i}",
                               {"anchor_indices": o["mask"], "num_classes": classes})]

        else:
            raise CfgSyntaxError(section.line_no, "duplicate [net] section")
        nodes += [(node, section) for node in new]
        layer_outputs.append(new[-1].output if new else layer_outputs[refs[0]])

    # run once every head is read, when the anchors are known
    for node, section in nodes:
        for field, reason in g._node_faults(node, len(anchors))[:1]:
            raise CfgSyntaxError(section.line_no, f"[{section.name}] {field}: {reason}")

    class_names = (list(CLASS_NAMES) if num_classes == len(CLASS_NAMES)
                   else [f"class{k}" for k in range(num_classes or 0)])
    return g.Graph(nodes=[node for node, _ in nodes], input_id="input", input_shape=input_shape,
                   metadata=g.GraphMetadata(class_names=class_names, anchors=anchors))

# --------------------------------------------------------------------------
# binary weights
# --------------------------------------------------------------------------

def _darknet_layout(graph: g.Graph) -> list[tuple[tuple[g.LayerNode, str], int]]:
    """((layer, role), float count) in darknet file order: per conv, its
    batchnorm's beta, gamma, mean, var (else its bias), then its kernel."""
    shapes = g.infer_shapes(graph)
    consumers = graph.consumers()
    layout = []
    for conv in (n for n in graph.nodes if n.kind == g.CONV):
        bn = next((m for m in consumers.get(conv.output, ())
                   if m.kind == g.BATCHNORM and m.inputs[0] == conv.output), None)
        lens = g.KINDS[g.CONV].weights(conv.attrs, shapes[conv.inputs[0]].c)
        if bn is not None:
            bn_lens = g.KINDS[g.BATCHNORM].weights(bn.attrs, shapes[bn.inputs[0]].c)
            layout += [((bn, role), bn_lens[role])
                       for role in ("bn_beta", "bn_gamma", "bn_mean", "bn_var")]
        else:
            layout.append(((conv, "bias"), lens["bias"]))
        layout.append(((conv, "kernel"), lens["kernel"]))
    return layout


def parse_weights_header(data: bytes) -> tuple[WeightsHeader, int]:
    if len(data) < 12:
        raise Truncated(f"weights file holds {len(data)} bytes, header needs at least 16")
    major, minor, revision = struct.unpack_from("<iii", data, 0)
    if major < 0 or minor < 0 or revision < 0:
        raise HeaderInvalid(f"negative header fields {major}.{minor}.{revision}")
    if major * 10 + minor >= 2:
        if len(data) < 20:
            raise Truncated("file ends inside the 64-bit seen counter")
        (seen,) = struct.unpack_from("<q", data, 12)
        offset = 20
    else:
        if len(data) < 16:
            raise Truncated("file ends inside the 32-bit seen counter")
        (seen,) = struct.unpack_from("<i", data, 12)
        offset = 16
    if seen < 0:
        raise HeaderInvalid(f"negative seen counter {seen}")
    return WeightsHeader(major, minor, revision, seen), offset


def load_weights(data: bytes, graph: g.Graph) -> g.Graph:
    """Fill the weight store from darknet binary bytes; consumes the file
    exactly. Each weight is a float32 view of `data`, read-only when `data`
    is `bytes`, so the weights are held once, by those bytes."""
    header, offset = parse_weights_header(data)
    if (len(data) - offset) % 4:
        raise TrailingBytes(f"{(len(data) - offset) % 4} stray bytes after float payload")
    floats = np.frombuffer(data, dtype="<f4", offset=offset)
    out = graph.copy()
    pos = 0
    for (layer, role), count in _darknet_layout(graph):
        if pos + count > floats.size:
            raise Truncated(f"file ends inside {layer.id} {role}: need {count} floats, "
                            f"have {floats.size - pos}")
        out.weights[(layer.id, role)] = floats[pos:pos + count]
        pos += count
    if pos != floats.size:
        raise TrailingBytes(f"{floats.size - pos} unread floats after the last layer")
    out.metadata.extra["weights_header"] = {
        "major": header.major, "minor": header.minor,
        "revision": header.revision, "seen": header.seen,
    }
    return out


def save_weights(graph: g.Graph) -> bytes:
    """Inverse of load_weights under a version 0.2.0 header with seen 0,
    used to build synthetic fixtures."""
    return struct.pack("<iiiq", 0, 2, 0, 0) + b"".join(
        np.ascontiguousarray(graph.weights[(layer.id, role)], dtype="<f4").tobytes()
        for (layer, role), _ in _darknet_layout(graph))


# --------------------------------------------------------------------------
# model stats
# --------------------------------------------------------------------------

@dataclass
class ModelStats:
    node_counts: dict[str, int]
    activation_counts: dict[str, int]
    parameter_count: int
    per_layer_macs: dict[str, int]

    @property
    def total_macs(self) -> int:
        return sum(self.per_layer_macs.values())


def model_stats(graph: g.Graph) -> ModelStats:
    """Node/parameter/MAC summary. MACs are counted for the kinds whose
    `graph.KINDS` entry declares them, which is conv alone."""
    shapes = g.infer_shapes(graph)
    node_counts: dict[str, int] = {}
    act_counts: dict[str, int] = {}
    macs: dict[str, int] = {}
    params = 0
    for n in graph.nodes:
        kind = g.KINDS[n.kind]
        node_counts[n.kind] = node_counts.get(n.kind, 0) + 1
        if n.kind == g.ACTIVATION:
            act_counts[n.attrs["act"]] = act_counts.get(n.attrs["act"], 0) + 1
        if kind.macs:
            macs[n.id] = kind.macs(n.attrs, shapes[n.inputs[0]], shapes[n.output])
        params += sum(kind.weights(n.attrs, shapes[n.inputs[0]].c).values())
    return ModelStats(node_counts=node_counts, activation_counts=act_counts,
                      parameter_count=params, per_layer_macs=macs)
