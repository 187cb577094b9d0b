import re

import pytest

from jetforge import artifacts

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
