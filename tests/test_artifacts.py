import copy
import json
import re
import struct

import numpy as np
import pytest

from jetforge import artifacts, data, detect, passes, quant
from jetforge import graph as g

FIELDS = frozenset({"a", "b"})


def test_read_jsonl_skips_blank_lines_and_returns_the_meta_value(tmp_path):
    path = tmp_path / "recs.jsonl"
    path.write_text('{"_meta": {"tool": "t"}}\n\n{"a": 1, "b": 2}\n   \n{"a": 3, "b": 4, "c": 5}\n')
    meta, records = artifacts.read_jsonl(path, FIELDS)
    assert meta == {"tool": "t"}
    assert records == [{"a": 1, "b": 2}, {"a": 3, "b": 4, "c": 5}]


@pytest.mark.parametrize("text,line,problem", [
    ('{"_meta": {}}\n\n{"a": 1}\n', 3, "missing b"),
    ('{"_meta": {}}\n{"a": 1, "b": 2}\n{"a": 1,\n', 3, "not JSON"),
    ('{"a": 1, "b": 2}\n[1, 2]\n', 2, "expected a JSON object"),
    ('{"_meta": [1]}\n', 1, "_meta: expected a JSON object"),
], ids=["missing-field", "not-json", "not-an-object", "meta-not-an-object"])
def test_read_jsonl_names_the_file_and_line(tmp_path, text, line, problem):
    path = tmp_path / "recs.jsonl"
    path.write_text(text)
    with pytest.raises(artifacts.ArtifactError, match=re.escape(f"{path}:{line}: {problem}")):
        artifacts.read_jsonl(path, FIELDS)


def test_json_document_round_trips_with_sorted_keys(tmp_path):
    path = tmp_path / "doc.json"
    artifacts.write_json(path, {"b": 1, "a": {"d": 2, "c": 3}})
    assert path.read_text() == '{\n  "a": {\n    "c": 3,\n    "d": 2\n  },\n  "b": 1\n}\n'
    assert artifacts.read_json(path, frozenset({"a"})) == {"a": {"c": 3, "d": 2}, "b": 1}
    with pytest.raises(artifacts.ArtifactError, match=re.escape(f"{path}: missing e")):
        artifacts.read_json(path, frozenset({"a", "e"}))


# --------------------------------------------------------------------------
# every reader's field table, one wrong value at a time
# --------------------------------------------------------------------------

def _container_doc(tiny_detector):
    """(manifest, blob) of a container holding a node of every kind that
    has attributes, and a qparams record."""
    graph, _ = passes.apply_passes(tiny_detector, ["decompose-leaky"])
    manifest = g.graph_manifest(graph)
    # the pool reads the input and nothing reads the pool, so the graph stays valid
    manifest["nodes"].append({"id": "pool", "kind": g.MAXPOOL, "inputs": ["input"],
                              "output": "pool", "attrs": {"kernel": 2, "stride": 2}})
    manifest["qparams"] = {"input": g.QuantParams.from_range(-1.0, 1.0).to_dict()}
    blob = b"".join(np.ascontiguousarray(graph.weights[(e["layer"], e["role"])], dtype="<f4")
                    .tobytes() for e in manifest["weights"])
    return manifest, blob


def _write_container(path, manifest, blob):
    text = json.dumps(manifest, sort_keys=True).encode()
    path.write_bytes(g.FORMAT_MAGIC + struct.pack("<IQ", g.FORMAT_VERSION, len(text)) + text
                     + blob)


def _reader_cases(tiny_detector):
    """reader name -> (valid document, write(path, doc), read(path), whether
    the document is JSON lines, [(keys from the document to an object, the
    table it is checked with)]). A container's document is its manifest."""
    manifest, blob = _container_doc(tiny_detector)
    first_of_kind = {}
    for i, node in enumerate(manifest["nodes"]):
        first_of_kind.setdefault(node["kind"], i)
    qp = g.QuantParams.from_range(-1.0, 3.0).to_dict()
    write_json = lambda path, doc: path.write_text(json.dumps(doc))  # noqa: E731
    write_lines = lambda path, doc: path.write_text(  # noqa: E731
        "".join(json.dumps(line) + "\n" for line in doc))
    return {
        "container": (manifest, lambda path, doc: _write_container(path, doc, blob),
                      g.load_container, False, [
                          ((), g._MANIFEST_FIELDS), (("input",), g._INPUT_FIELDS),
                          (("metadata",), g._METADATA_FIELDS),
                          (("qparams", "input"), g.QuantParams.FIELDS),
                          *((("nodes", first_of_kind[kind], "attrs"), table)
                            for kind, table in ((k, e.attrs) for k, e in g.KINDS.items()))]),
        "ranges": ({"meta": {"tool": "t"}, "tensors": {"input": qp}}, write_json,
                   quant.load_ranges, False, [
                       ((), quant._RANGES_FIELDS), (("tensors", "input"), g.QuantParams.FIELDS)]),
        "detections": ([{"_meta": {}}, {"image": "a.ppm", "class": 1, "confidence": 0.5,
                                        "bbox": [1, 2, 3, 4]}], write_lines,
                       detect.read_detections_jsonl, True, [
                           ((0,), artifacts._META_LINE), ((1,), detect.DETECTION_FIELDS)]),
        "manifest": ([{"_meta": {"summary": {}}},
                      {"image": "a.ppm", "width": 64, "height": 32, "source": "coco",
                       "boxes": [{"bbox": [1, 2, 3, 4], "label": "car"}]}], write_lines,
                     data.load_manifest, True, [
                         ((0,), artifacts._META_LINE), ((1,), data.RECORD_FIELDS)]),
        "coco": ({"images": [{"id": 1, "file_name": "a.jpg", "width": 64, "height": 32}],
                  "annotations": [{"image_id": 1, "category_id": 3, "bbox": [1, 2, 3, 4],
                                   "iscrowd": 0}],
                  "categories": [{"id": 3, "name": "car"}]}, write_json, data.ingest_coco,
                 False, [((), data._COCO_FIELDS)]),
        "category-map": ({"4": {"unified": "car"}}, write_json,
                         data.load_visdrone_categories, False, [
                             (("4",), data._CATEGORY_FIELDS)]),
    }


def _wrong_values(obj, table, keys):
    """(keys to a field, a value of another JSON type) for every field of
    `table`, and of its nested tables in the first object of each list."""
    for name, field in table.items():
        if isinstance(field, dict):
            yield keys + (name,), "x"
            yield from _wrong_values(obj[name][0], field, keys + (name, 0))
        else:
            yield keys + (name,), 7 if isinstance(obj.get(name), str) else "x"


def _at(doc, keys):
    for k in keys:
        doc = doc[k]
    return doc


@pytest.mark.parametrize("reader", ["container", "ranges", "detections", "manifest", "coco",
                                    "category-map"])
def test_every_field_of_every_reader_table_rejects_a_value_of_another_type(
        reader, tiny_detector, tmp_path):
    doc, write, read, lines, locations = _reader_cases(tiny_detector)[reader]
    path = tmp_path / "artifact"
    write(path, doc)
    read(path)  # the document as made is valid
    edits = [edit for keys, table in locations for edit in _wrong_values(_at(doc, keys), table,
                                                                         keys)]
    assert len(edits) >= sum(len(table) for _, table in locations)
    for keys, value in edits:
        bad = copy.deepcopy(doc)
        _at(bad, keys[:-1])[keys[-1]] = value
        write(path, bad)
        # the keys into a JSON lines file start with the line's index
        where, named = (f"{path}:{keys[0] + 1}", keys[1:]) if lines else (path, keys)
        if keys[:1] == ("nodes",) and len(keys) == 4:  # an attribute: validate names the node
            named = (doc["nodes"][keys[1]]["id"], *keys[2:])
        message = f"{where}: {''.join(f'{k}: ' for k in named)}expected "
        with pytest.raises(artifacts.ArtifactError) as err:
            read(path)
        assert str(err.value).startswith(message), (keys, value, str(err.value))
