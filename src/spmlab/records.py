"""Records: dataclasses checked by their type hints, read from JSON, and files written atomically.

``_check_type`` checks one value against a field's hint, ``_check_types`` every field of a
record, and ``_check_fields`` a config: each field finite, of its hinted type, then the value
rules it passes to ``net._check_rules``. Every record read from JSON goes through
``_read_record``, nested records too: each field by its own ``read(raw, name)``, then the
types, then ``validate()`` with the rules between fields; a bad field is named by its path.
``_read_json_record`` reads one from a file and names the file. Artifacts are written
through ``atomic_open``, JSON by ``_json_dump``.
"""

from __future__ import annotations

import functools
import json
import numbers
import os
import reprlib
from contextlib import contextmanager
from dataclasses import MISSING, fields, is_dataclass
from pathlib import Path
from typing import get_args, get_type_hints

from .net import _check_param, _check_rules


def _field_type(hint):
    """(type, optional) of a field hinted ``T`` or ``T | None``."""
    args = [arg for arg in get_args(hint) if arg is not type(None)]
    return (args[0], True) if len(args) < len(get_args(hint)) else (hint, False)


def _is_number(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


# (test, what it takes) of a field by its hint; NumPy numbers pass, a bool is no number
_KINDS = {
    bool: (lambda v: isinstance(v, bool), "a bool"),
    int: (lambda v: isinstance(v, numbers.Integral) and not isinstance(v, bool), "an integer"),
    float: (_is_number, "a number"),
    tuple[float, ...]: (lambda v: isinstance(v, tuple) and all(map(_is_number, v)),
                        "a list of numbers"),
}


def _check_type(name: str, value, hint):
    """Return ``value`` if it is of the type ``hint`` (``| None`` also takes None), else name it
    and its value. Only the hints of ``_KINDS`` are checked."""
    kind, optional = _field_type(hint)
    test, what = _KINDS.get(kind, (None, ""))
    if test is None or (optional and value is None) or test(value):
        return value
    raise ValueError(f"{name} must be {what}{' or None' if optional else ''}, "
                     f"got {reprlib.repr(value)}")


_hints = functools.cache(get_type_hints)  # a class's hints, evaluated from their strings once


def _check_types(record, prefix: str = "") -> None:
    """``_check_type`` on each field of the dataclass ``record``, named with ``prefix``."""
    for name, hint in _hints(type(record)).items():
        _check_type(prefix + name, getattr(record, name), hint)


def _check_fields(config, rules) -> None:
    """Each field of the dataclass ``config`` finite, then of its hinted type, then ``rules()``."""
    values = vars(config)
    for name, value in values.items():
        _check_param(name, value, True, "")  # finite
    _check_types(config)
    _check_rules(values, "", rules())


@contextmanager
def atomic_open(path, newline=None):
    """Write text to a temporary file beside ``path``, renamed over it on success.

    A writer that raises or is killed partway leaves the previous file intact.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _json_dump(obj, path) -> None:
    """Write ``obj`` as indented JSON with sorted keys and a final newline, atomically."""
    with atomic_open(path) as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_json(path):
    """The JSON value in the UTF-8 file ``path``; a directory, parse or decode error names it."""
    if Path(path).is_dir():
        raise ValueError(f"{path}: a directory, not a JSON file")
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON ({exc})") from None
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: not UTF-8 text ({exc.reason})") from None


def _check_known(cls, keys, kind: str) -> None:
    """Reject the first of ``keys`` that is no field of ``cls``, naming it a ``kind`` field."""
    unknown = next((key for key in keys if key not in cls.__dataclass_fields__), None)
    if unknown is not None:
        raise ValueError(f"unknown {kind} field {unknown!r}")


def _read_record(cls, payload, prefix: str, kind: str, ignored=()):
    """The dataclass ``cls`` from the JSON object ``payload`` (a ``kind``), less its keys
    ``ignored``. A field hinted as a dataclass is a nested record (None only if hinted
    ``| None``); any other passes its metadata's ``read(value, name)`` rule, if any. Then the
    types must hold, then ``cls.validate()``, if any, with every rule between fields. Each error
    names the field by its path, from ``prefix``; an unknown or missing field is named too."""
    if not isinstance(payload, dict):
        raise ValueError(f"{kind} must be a JSON object, found {reprlib.repr(payload)}")
    _check_known(cls, [key for key in payload if key not in ignored], kind)
    hints, read = _hints(cls), {}
    for f in fields(cls):
        name, value = prefix + f.name, payload.get(f.name, MISSING)
        hint, optional = _field_type(hints[f.name])
        if value is MISSING:
            if f.default is MISSING:
                raise ValueError(f"{name} is missing")
        elif is_dataclass(hint) and not (optional and value is None):
            read[f.name] = _read_record(hint, value, name + ".", name)
        else:
            read[f.name] = f.metadata.get("read", lambda raw, _: raw)(value, name)
    record = cls(**read)
    _check_types(record, prefix)
    try:
        getattr(record, "validate", lambda: None)()
    except ValueError as exc:
        raise ValueError(f"{prefix}{exc}") from None
    return record


def _read_json_record(cls, path, kind: str, ignored=(), **given):
    """``_read_record`` of the JSON object in ``path``, ``given`` set; an error names the file."""
    payload = read_json(path)
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: not a JSON object")
    try:
        return _read_record(cls, {**payload, **given}, "", kind, ignored)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
