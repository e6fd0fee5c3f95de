"""The JSON formats: one checked reader (and its writer) for configs,
experiment specs, ``ngram:`` model parameters and model files, each a
dataclass, and the one writer of every output file."""

from __future__ import annotations

import json
import re
import sys
from dataclasses import MISSING, fields, is_dataclass
from functools import cache
from types import UnionType
from typing import get_args, get_origin, get_type_hints

from .errors import ConfigError


def read_json(path, what: str):
    """The JSON value in file `path`. Raises ConfigError naming `what` and
    the path when the file cannot be read or does not hold JSON."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc.strerror or exc}") from None
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise ConfigError(f"{what} {path} is not valid JSON: {exc}") from None


def write_text(path, text: str) -> None:
    """Write `text` to file `path`, or to stdout when `path` is None. Raises
    ConfigError naming the path when the file cannot be written."""
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write output file {path}: {exc.strerror or exc}") from None


def jsonl(records) -> str:
    """The JSON lines of `records`: one compact object per line."""
    return "".join(json.dumps(r, separators=(",", ":")) + "\n" for r in records)


def from_json(cls, obj):
    """An instance of dataclass `cls` read from the JSON object `obj`.

    Unknown keys, missing required keys and values that do not fit the field
    type raise ConfigError naming the key. An int fits a float field, a bool
    never fits an int field, null fits an optional field, a list becomes a
    tuple field, and a nested dataclass field is read the same way. The
    result is validated when `cls` has a validate() method.
    """
    what, hints, required = _layout(cls)
    if not isinstance(obj, dict):
        keys = f" with keys {required}" if required else ""
        got = json.dumps(obj, default=repr)
        raise ConfigError(f"{what} must be a JSON object{keys}, got {got}")
    if not hints.keys() >= obj.keys():
        raise ConfigError(f"unknown {what} keys {sorted(obj.keys() - hints.keys())}")
    for key in required:
        if key not in obj:
            raise ConfigError(f"{what} is missing key {key!r}")
    out = cls(**{key: _read(hints[key], value, what, key) for key, value in obj.items()})
    if hasattr(out, "validate"):
        out.validate()
    return out


@cache
def _layout(cls) -> tuple[str, dict, list[str]]:
    """The name `from_json` gives `cls` in messages ("search config"), its
    field types by name, and its required fields; looked up once per class."""
    what = re.sub(r"(?<=[a-z])(?=[A-Z])", " ", cls.__name__).lower()
    hints = get_type_hints(cls)
    required = [
        f.name for f in fields(cls) if f.default is MISSING and f.default_factory is MISSING
    ]
    return what, {f.name: hints[f.name] for f in fields(cls)}, required


# the JSON value types each scalar field type admits
_SCALAR_TYPES = {int: {int}, float: {int, float}, bool: {bool}, str: {str}}


def _read(hint, value, what: str, key: str):
    """`value` as a field of type `hint`, or ConfigError naming `key`."""
    for kind in get_args(hint) if isinstance(hint, UnionType) else (hint,):
        if is_dataclass(kind):
            return from_json(kind, value)
        if get_origin(kind) is tuple:
            if type(value) is list:
                item = get_args(kind)[0]
                # a list of fitting scalars is read in one pass
                if set(map(type, value)) <= _SCALAR_TYPES.get(item, set()):
                    return tuple(value)
                return tuple(_read(item, v, what, key) for v in value)
        elif type(value) is kind or kind is float and type(value) is int:
            return value
    raise ConfigError(
        f"{what} key {key!r} must be {_json_name(hint)}, got {json.dumps(value, default=repr)}"
    )


def _json_name(hint) -> str:
    """A field type as JSON readers know it: "int", "list of float",
    "list of int or null", "list of tabular entry"."""
    if isinstance(hint, UnionType):
        return " or ".join(map(_json_name, get_args(hint)))
    if get_origin(hint) is tuple:
        return f"list of {_json_name(get_args(hint)[0])}"
    if hint is type(None):
        return "null"
    if is_dataclass(hint):
        return _layout(hint)[0]
    return hint.__name__


def to_json(obj) -> dict:
    """The JSON object of a dataclass instance that `from_json` reads back."""
    return {f.name: _write(getattr(obj, f.name)) for f in fields(obj)}


def _write(value):
    if is_dataclass(value):
        return to_json(value)
    if isinstance(value, tuple):
        return [_write(v) for v in value]
    return value
