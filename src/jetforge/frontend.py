"""Darknet cfg / weights frontend.

Parses the cfg text format into a Graph skeleton and fills its weight store
from the darknet binary weights layout, byte for byte. Training-only keys
(learning_rate, jitter, ...) are accepted and ignored with a warning since
only inference structure matters here.
"""

from __future__ import annotations

import struct
import warnings
from dataclasses import dataclass

import numpy as np

from . import graph as g
from .data import CLASS_NAMES

# cfg keys that belong to training runs: [net] ones are silently skipped
# (darknet cfgs always carry them), [yolo] ones are skipped with a warning
TRAINING_KEYS = {
    "net": {"batch", "subdivisions", "momentum", "decay", "angle", "saturation",
            "exposure", "hue", "learning_rate", "burn_in", "max_batches", "policy",
            "steps", "scales", "random"},
    "yolo": {"num"},
}
YOLO_TRAINING_KEYS = {"jitter", "ignore_thresh", "truth_thresh", "random"}

KNOWN_KEYS = {
    "net": {"width", "height", "channels"},
    "convolutional": {"batch_normalize", "filters", "size", "stride", "pad",
                      "padding", "activation"},
    "shortcut": {"from", "activation"},
    "route": {"layers"},
    "upsample": {"stride"},
    "maxpool": {"size", "stride"},
    "yolo": {"mask", "anchors", "classes"},
}


class FrontendError(Exception):
    pass


class CfgSyntaxError(FrontendError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class UnknownSection(FrontendError):
    pass


class BadReference(FrontendError):
    pass


class UnsupportedOption(FrontendError):
    pass


class HeaderInvalid(FrontendError):
    pass


class Truncated(FrontendError):
    pass


class TrailingBytes(FrontendError):
    pass


@dataclass
class CfgSection:
    name: str
    options: dict[str, str]
    line_no: int

    def get(self, key, default=None):
        return self.options.get(key, default)

    def get_int(self, key, default=None):
        v = self.options.get(key)
        return default if v is None else int(v)


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


def _parse_int_list(value: str) -> list[int]:
    return [int(v.strip()) for v in value.split(",") if v.strip() != ""]


def _parse_float_list(value: str) -> list[float]:
    return [float(v.strip()) for v in value.split(",") if v.strip() != ""]


def _warn_unknown_keys(section: CfgSection):
    known = KNOWN_KEYS.get(section.name, set()) | TRAINING_KEYS.get(section.name, set())
    for key in section.options:
        if section.name == "yolo" and key in YOLO_TRAINING_KEYS:
            warnings.warn(f"[yolo] line {section.line_no}: ignoring training-only key '{key}'")
        elif key not in known:
            warnings.warn(f"[{section.name}] line {section.line_no}: ignoring unknown key '{key}'")


def parse_cfg(text: str) -> g.Graph:
    """Build a Graph skeleton (no weights) from darknet cfg text.

    Each [convolutional] with batch_normalize=1 expands to conv + batchnorm
    (+ activation node unless linear). [shortcut] becomes an add, [route]
    with several layers a concat, a single-layer [route] just re-wires.
    """
    sections = split_sections(text)
    if not sections or sections[0].name != "net":
        raise CfgSyntaxError(sections[0].line_no if sections else 1, "cfg must start with [net]")

    net = sections[0]
    _warn_unknown_keys(net)
    width = net.get_int("width")
    height = net.get_int("height")
    channels = net.get_int("channels", 3)
    if not width or not height:
        raise CfgSyntaxError(net.line_no, "[net] needs width and height")
    input_shape = g.TensorShape(1, channels, height, width)

    nodes: list[g.LayerNode] = []
    layer_outputs: list[str] = []   # darknet layer index -> output tensor id
    anchors: list[tuple[float, float]] = []
    masks: list[tuple[CfgSection, list[int]]] = []  # checked once all anchors are known
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
        if section.name not in KNOWN_KEYS:
            raise UnknownSection(f"line {section.line_no}: [{section.name}]")
        _warn_unknown_keys(section)

        if section.name == "convolutional":
            filters = section.get_int("filters")
            size = section.get_int("size", 1)
            stride = section.get_int("stride", 1)
            pad = section.get_int("padding", 0)
            if section.get_int("pad", 0):
                pad = size // 2
            bn = section.get_int("batch_normalize", 0) == 1
            act = section.get("activation", "linear")
            if filters is None:
                raise CfgSyntaxError(section.line_no, "[convolutional] needs filters")
            if act not in ("linear", "relu", "leaky"):
                raise UnsupportedOption(f"line {section.line_no}: activation '{act}'")
            conv = g.conv_node(f"conv{i}", [prev], f"conv{i}", filters, size, stride, pad,
                               has_bias=not bn)
            nodes.append(conv)
            out = conv.output
            if bn:
                bnode = g.LayerNode(f"bn{i}", g.BATCHNORM, [out], f"bn{i}", {"eps": 1e-6})
                nodes.append(bnode)
                out = bnode.output
            if act != "linear":
                alpha = 0.1 if act == "leaky" else None
                anode = g.activation_node(f"act{i}", [out], f"act{i}", act, alpha)
                nodes.append(anode)
                out = anode.output
            layer_outputs.append(out)

        elif section.name == "shortcut":
            frm = section.get_int("from")
            if frm is None:
                raise CfgSyntaxError(section.line_no, "[shortcut] needs from")
            src = resolve(frm, i, section)
            node = g.LayerNode(f"add{i}", g.ADD, [layer_outputs[i - 1], layer_outputs[src]], f"add{i}")
            nodes.append(node)
            layer_outputs.append(node.output)

        elif section.name == "route":
            raw = section.get("layers")
            if raw is None:
                raise CfgSyntaxError(section.line_no, "[route] needs layers")
            refs = [resolve(r, i, section) for r in _parse_int_list(raw)]
            if len(refs) == 1:
                # plain re-wire, no node emitted
                layer_outputs.append(layer_outputs[refs[0]])
            else:
                node = g.LayerNode(f"concat{i}", g.CONCAT,
                                   [layer_outputs[r] for r in refs], f"concat{i}")
                nodes.append(node)
                layer_outputs.append(node.output)

        elif section.name == "upsample":
            factor = section.get_int("stride", 2)
            node = g.LayerNode(f"up{i}", g.UPSAMPLE, [prev], f"up{i}", {"factor": factor})
            nodes.append(node)
            layer_outputs.append(node.output)

        elif section.name == "maxpool":
            size = section.get_int("size", 2)
            stride = section.get_int("stride", size)
            node = g.LayerNode(f"pool{i}", g.MAXPOOL, [prev], f"pool{i}",
                               {"kernel": size, "stride": stride})
            nodes.append(node)
            layer_outputs.append(node.output)

        elif section.name == "yolo":
            mask = _parse_int_list(section.get("mask", "0"))
            classes = section.get_int("classes", 80)
            raw_anchors = _parse_float_list(section.get("anchors", ""))
            if len(raw_anchors) % 2:
                raise CfgSyntaxError(section.line_no, "[yolo] anchors must be w,h pairs")
            pairs = [(raw_anchors[k], raw_anchors[k + 1]) for k in range(0, len(raw_anchors), 2)]
            if anchors and pairs and pairs != anchors:
                raise CfgSyntaxError(section.line_no, "[yolo] anchors differ between heads")
            if pairs:
                anchors[:] = pairs
            if num_classes is not None and classes != num_classes:
                raise CfgSyntaxError(section.line_no, "[yolo] classes differ between heads")
            num_classes = classes
            masks.append((section, mask))
            node = g.LayerNode(f"yolo{i}", g.YOLO_HEAD, [prev], f"yolo{i}",
                               {"anchor_indices": mask, "num_classes": classes})
            nodes.append(node)
            layer_outputs.append(node.output)

        elif section.name == "net":
            raise CfgSyntaxError(section.line_no, "duplicate [net] section")

    for section, mask in masks:
        outside = [m for m in mask if not 0 <= m < len(anchors)]
        if outside:
            raise CfgSyntaxError(section.line_no, f"[yolo] mask {outside} outside the "
                                                  f"{len(anchors)} anchors")

    if num_classes == len(CLASS_NAMES):
        class_names = list(CLASS_NAMES)
    elif num_classes:
        class_names = [f"class{k}" for k in range(num_classes)]
    else:
        class_names = []
    return g.Graph(
        nodes=nodes,
        input_id="input",
        input_shape=input_shape,
        metadata=g.GraphMetadata(class_names=class_names, anchors=anchors),
    )


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
        out_ch, k = conv.attrs["out_ch"], conv.attrs["kernel"]
        bn = next((m for m in consumers.get(conv.output, ())
                   if m.kind == g.BATCHNORM and m.inputs[0] == conv.output), None)
        if bn is not None:
            layout += [((bn, role), out_ch)
                       for role in ("bn_beta", "bn_gamma", "bn_mean", "bn_var")]
        else:
            layout.append(((conv, "bias"), out_ch))
        layout.append(((conv, "kernel"), out_ch * shapes[conv.inputs[0]].c * k * k))
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
    """Fill the weight store from darknet binary bytes; consumes the file exactly."""
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
        out.weights[(layer.id, role)] = floats[pos:pos + count].astype(np.float32)
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
    """Node/parameter/MAC summary. Only convolutions carry MACs:
    macs = out_h * out_w * out_ch * in_ch * k * k."""
    shapes = g.infer_shapes(graph)
    node_counts: dict[str, int] = {}
    act_counts: dict[str, int] = {}
    macs: dict[str, int] = {}
    params = 0
    for n in graph.nodes:
        node_counts[n.kind] = node_counts.get(n.kind, 0) + 1
        if n.kind == g.ACTIVATION:
            act_counts[n.attrs["act"]] = act_counts.get(n.attrs["act"], 0) + 1
        if n.kind == g.CONV:
            s_in = shapes[n.inputs[0]]
            s_out = shapes[n.output]
            a = n.attrs
            macs[n.id] = s_out.h * s_out.w * a["out_ch"] * s_in.c * a["kernel"] * a["kernel"]
        in_c = shapes[n.inputs[0]].c if n.inputs else 0
        params += sum(g._expected_weight_lens(n, in_c).values())
    return ModelStats(node_counts=node_counts, activation_counts=act_counts,
                      parameter_count=params, per_layer_macs=macs)
