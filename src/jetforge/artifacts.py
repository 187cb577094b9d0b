"""The JSON files stages hand each other: documents (ranges, reports) and
JSON lines led by a `{"_meta": ...}` line (detections, dataset manifests),
all with sorted keys.

Every reader declares the fields it reads as a table, field -> Field(test,
expected), and `check` runs it on each object it reads. In place of a
Field, a nested table stands for a JSON list of objects that each pass it.
An object that is not a JSON object, lacks a field its table requires or
holds a value that a field's test rejects raises
`ArtifactError("<path>[:<line>]: <keys>: <field>: expected <expected>, got <value>")`,
where the keys lead from the document or line to the object, list indices
included. `faults` lists every fault instead, for a caller that reports
them all (graph's node rules). The tests readers share are the upper-case
Fields below; rules that relate fields to each other stay with their
readers.
"""

from __future__ import annotations

import json
import math
import re
from typing import Callable, NamedTuple

from . import Error

# the unified class set; list order fixes the id assignment. A label in a
# dataset manifest or the VisDrone category map is one of these or IGNORE
CLASS_NAMES = ["person", "car", "bicycle", "motorbike", "bus", "truck"]
IGNORE = "ignore"


class ArtifactError(Error):
    pass


class Field(NamedTuple):
    """A field's value test and what it expects, as error messages say it.
    An optional field may be absent; present, it must pass the test."""

    test: Callable[[object], bool]
    expected: str
    optional: bool = False


def optional(field: Field) -> Field:
    return field._replace(optional=True)


def finite_number(value) -> bool:
    # json.loads gives int, float or bool for a JSON number or boolean, and
    # also float NaN and +-inf for NaN and +-Infinity; bool is not a number
    # here, so comparing exact types rejects it
    return type(value) is int or (type(value) is float and math.isfinite(value))


def decimal(text: str) -> float:
    """The float an ASCII decimal number in `text` writes, or ValueError:
    float() also takes "inf", "nan", "1_0" and other scripts' digits. A
    decimal beyond float64's range still gives +-inf."""
    if not re.fullmatch(r"\s*[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?\s*", text):
        raise ValueError(text)
    return float(text)


def _integer(value) -> bool:
    return type(value) is int  # bool is not an integer


def _bbox(value) -> bool:
    if type(value) is not list or len(value) != 4:
        return False
    for x in value:  # finite_number inlined: manifests hold hundreds of boxes
        if not (type(x) is int or (type(x) is float and math.isfinite(x))):
            return False
    return True


_LABELS = frozenset(CLASS_NAMES) | {IGNORE}

INTEGER = Field(_integer, "an integer")
POSITIVE_INTEGER = Field(lambda v: _integer(v) and v > 0, "a positive integer")
COUNT = Field(lambda v: _integer(v) and v >= 0, "a non-negative integer")
NUMBER = Field(finite_number, "a finite number")
STRING = Field(lambda v: type(v) is str, "a string")
BOOLEAN = Field(lambda v: type(v) is bool, "a boolean")
OBJECT = Field(lambda v: type(v) is dict, "a JSON object")
STRINGS = Field(lambda v: type(v) is list and all(type(s) is str for s in v), "a list of strings")
BBOX = Field(_bbox, "4 finite numbers")
LABEL = Field(lambda v: type(v) is str and v in _LABELS,
              f"one of {', '.join(CLASS_NAMES)} or {IGNORE}")
_ANY = Field(lambda v: True, "any value")


def _at(keys) -> str:
    return "".join(f"{k}: " for k in keys)


def _got(value, expected: str) -> str:
    # default=repr: an in-memory value may be one JSON cannot hold
    return f"expected {expected}, got {json.dumps(value, default=repr)[:40]}"


def reject(value, expected: str, where, *keys):
    """Raise the error for `value` where `expected` was wanted; it names
    `where` (path or path:line) and the `keys` leading to `value`."""
    raise ArtifactError(f"{where}: {_at(keys)}{_got(value, expected)}")


def faults(obj, table: dict):
    """(keys, what is wrong) for each fault of `obj` against `table` (see the
    module docstring), lazily and in table order. The keys lead from `obj`
    to the field, () for `obj` itself; the required fields `obj` lacks are
    one fault, where the first of them is in the table."""
    if type(obj) is not dict:
        yield (), _got(obj, "a JSON object")
        return
    told_missing = False
    for name, field in table.items():
        if name not in obj:
            if not (told_missing or getattr(field, "optional", False)):
                told_missing = True
                yield (), "missing " + ", ".join(sorted(
                    n for n, f in table.items()
                    if n not in obj and not getattr(f, "optional", False)))
        elif type(field) is dict:
            items = obj[name]
            if type(items) is not list:
                yield (name,), _got(items, "a JSON list")
                continue
            for i, item in enumerate(items):
                for keys, fault in faults(item, field):
                    yield (name, i, *keys), fault
        elif not field.test(obj[name]):
            yield (name,), _got(obj[name], field.expected)


def check(obj, table: dict, where, *keys) -> dict:
    """`obj` if it is a JSON object that passes `table`; else raises its
    first fault, naming `where` (path or path:line) and the `keys` leading
    to `obj`."""
    for at, fault in faults(obj, table):
        raise ArtifactError(f"{where}: {_at(keys + at)}{fault}")
    return obj


def _table(fields) -> dict:
    # a set of field names is the table that takes any value of each
    return fields if type(fields) is dict else dict.fromkeys(fields, _ANY)


def parse_json(text: str | bytes, where, fields=()) -> dict:
    """The JSON object `text` holds, checked against the table `fields` (or
    for the set of names `fields`)."""
    try:
        doc = json.loads(text)
    except ValueError as e:  # JSONDecodeError or UnicodeDecodeError
        raise ArtifactError(f"{where}: not JSON: {e}") from None
    return check(doc, _table(fields), where)


def write_json(path, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")


def read_json(path, fields=()) -> dict:
    with open(path, "rb") as f:
        return parse_json(f.read(), path, fields)


def write_jsonl(path, meta: dict, records) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(json.dumps({"_meta": meta}, sort_keys=True) + "\n")
        for rec in records:
            f.write(json.dumps(rec, sort_keys=True) + "\n")


_META_LINE = {"_meta": OBJECT}


def read_jsonl(path, fields) -> tuple[dict, list[dict]]:
    """(the `_meta` object or {}, the objects of the other lines, each
    checked against the table `fields`, or for the set of names `fields`);
    skips blank lines."""
    table = _table(fields)
    meta, records, line_no = {}, [], 0
    with open(path, "r", encoding="utf-8") as f:
        try:
            for line_no, line in enumerate(f, start=1):
                if line.isspace():
                    continue
                rec = json.loads(line)
                if type(rec) is dict and "_meta" in rec:
                    meta = check(rec, _META_LINE, f"{path}:{line_no}")["_meta"]
                else:
                    records.append(check(rec, table, f"{path}:{line_no}"))
        except UnicodeDecodeError as e:
            raise ArtifactError(f"{path}: not UTF-8: {e.reason}") from None
        except json.JSONDecodeError as e:
            raise ArtifactError(f"{path}:{line_no}: not JSON: {e.msg}, column {e.colno}") from None
    return meta, records
