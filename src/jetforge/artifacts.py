"""The JSON files stages hand each other: documents (ranges, reports) and
JSON lines led by a `{"_meta": ...}` line (detections, dataset manifests),
all with sorted keys. Readers check that each document or line is a JSON
object holding the fields their caller reads, else raise
`ArtifactError("<path>[:<line>]: ...")`.
"""

from __future__ import annotations

import json
import math

NO_FIELDS = frozenset()


class ArtifactError(Exception):
    pass


def finite_number(value) -> bool:
    # json.loads gives int, float or bool for a JSON number or boolean, and
    # also float NaN and +-inf for NaN and +-Infinity; bool is not a number
    # here, so comparing exact types rejects it
    return type(value) is int or (type(value) is float and math.isfinite(value))


def finite_bbox(value) -> bool:
    """Whether `value` is a JSON list of 4 finite numbers."""
    return type(value) is list and len(value) == 4 and all(map(finite_number, value))


def reject(value, expected: str, where, *keys):
    """Raise the error for `value` where `expected` was wanted; it names
    `where` (path or path:line) and the `keys` leading to `value`."""
    at = "".join(f"{k}: " for k in keys)
    raise ArtifactError(f"{where}: {at}expected {expected}, got {json.dumps(value)[:40]}")


def require(obj, fields: frozenset, where, *keys) -> dict:
    """`obj` if it is a JSON object holding `fields`; the error names `where`
    (path or path:line) and the `keys` leading to `obj`."""
    if isinstance(obj, dict) and fields <= obj.keys():
        return obj
    if isinstance(obj, dict):
        at = "".join(f"{k}: " for k in keys)
        raise ArtifactError(f"{where}: {at}missing {', '.join(sorted(fields - obj.keys()))}")
    reject(obj, "a JSON object", where, *keys)


def require_each(items, fields: frozenset, where, *keys) -> list:
    """`items` if it is a JSON list of objects that each hold `fields`; the
    error names `where`, the `keys` leading to the list and the index."""
    if not isinstance(items, list):
        reject(items, "a JSON list", where, *keys)
    for i, item in enumerate(items):
        require(item, fields, where, *keys, i)
    return items


def parse_json(text: str | bytes, where, fields: frozenset = NO_FIELDS) -> dict:
    try:
        doc = json.loads(text)
    except ValueError as e:  # JSONDecodeError or UnicodeDecodeError
        raise ArtifactError(f"{where}: not JSON: {e}") from None
    return require(doc, fields, where)


def write_json(path, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")


def read_json(path, fields: frozenset = NO_FIELDS) -> dict:
    with open(path, "rb") as f:
        return parse_json(f.read(), path, fields)


def write_jsonl(path, meta: dict, records) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(json.dumps({"_meta": meta}, sort_keys=True) + "\n")
        for rec in records:
            f.write(json.dumps(rec, sort_keys=True) + "\n")


def read_jsonl(path, fields: frozenset, check=None) -> tuple[dict, list[dict]]:
    """(the `_meta` object or {}, the objects of the lines holding `fields`);
    skips blank lines. Any other line is an error, and so is a record that
    `check(record, "<path>:<line>")` rejects by raising ArtifactError."""
    meta, records, line_no, rec = {}, [], 0, None
    with open(path, "r", encoding="utf-8") as f:
        try:
            for line_no, line in enumerate(f, start=1):
                if line.isspace():
                    continue
                rec = json.loads(line)
                if fields <= rec.keys():  # AttributeError unless rec is an object
                    if check is not None:
                        check(rec, f"{path}:{line_no}")
                    records.append(rec)
                elif "_meta" in rec:
                    meta = require(rec["_meta"], NO_FIELDS, f"{path}:{line_no}", "_meta")
                else:
                    require(rec, fields, f"{path}:{line_no}")
        except UnicodeDecodeError as e:
            raise ArtifactError(f"{path}: not UTF-8: {e.reason}") from None
        except json.JSONDecodeError as e:
            raise ArtifactError(f"{path}:{line_no}: not JSON: {e.msg}, column {e.colno}") from None
        except AttributeError:
            require(rec, fields, f"{path}:{line_no}")
    return meta, records
