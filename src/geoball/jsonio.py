"""JSON documents where they enter: one reader that names the file, and one
type rule for every field a config or artifact file gives.

The rule (``has_type``): a bool is no number, an int is a float but a float
is no int, so nothing is truncated, and a list of names holds only strings.
"""

from __future__ import annotations

import itertools
import json
import types
import typing
from dataclasses import fields, is_dataclass

import numpy as np


def read_json(path, what: str):
    """The JSON document in the file at ``path``; a file that is not UTF-8
    JSON, or that holds ``NaN``, ``Infinity`` or ``-Infinity``, is a
    ValueError that names ``what``, the file and the fault."""
    def refuse(constant):
        raise ValueError(f"{what} {path}: {constant} is not a JSON number")

    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh, parse_constant=refuse)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{what} {path}: syntax error at line "
                             f"{exc.lineno}, column {exc.colno}: "
                             f"{exc.msg}") from exc
        except UnicodeDecodeError as exc:
            raise ValueError(f"{what} {path}: {exc}") from exc


def has_type(value, hint) -> bool:
    """Whether a JSON value fits a field annotation. A bool is no number,
    an int is a float, and a tuple field takes a list."""
    if typing.get_origin(hint) is types.UnionType:
        return any(has_type(value, h) for h in typing.get_args(hint))
    if typing.get_origin(hint) is tuple:
        return isinstance(value, (list, tuple)) and all(
            has_type(v, typing.get_args(hint)[0]) for v in value)
    if is_dataclass(hint):
        return isinstance(value, dict)
    if isinstance(value, bool):
        return hint is bool
    return isinstance(value, (int, float) if hint is float else hint)


def check_value(value, hint, where: str):
    """``value`` once it fits ``hint`` (``has_type``); otherwise a
    ValueError that names ``where``."""
    if not has_type(value, hint):
        kind = ("a JSON object" if is_dataclass(hint) else
                str(hint) if typing.get_origin(hint) else hint.__name__)
        raise ValueError(f"{where} must be {kind}, "
                         f"not {json.dumps(value, default=repr)}")
    return value


def check_fields(cls, obj, where: str) -> dict:
    """``obj`` once it is an object whose every key is a field of dataclass
    ``cls`` and whose every value fits that field's type; otherwise a
    ValueError that names ``where`` and the key."""
    if not isinstance(obj, dict):
        raise ValueError(f"{where} must be a JSON object")
    unknown = set(obj) - {f.name for f in fields(cls)}
    if unknown:
        raise ValueError(f"unknown {where} keys: {sorted(unknown)}")
    hints = typing.get_type_hints(cls)
    for key, value in obj.items():
        check_value(value, hints[key], f"{where} key {key!r}")
    return obj


def float_array(value, where: str) -> np.ndarray:
    """``value``, JSON numbers in nested lists, as a float array; a string,
    null, bool or object among them is a ValueError that names ``where``.
    The dtype numpy infers finds all but a bool among numbers, which numpy
    reads as 0 or 1; that takes one type lookup per number."""
    array = np.array(value)
    numbers = [value]
    for _ in range(array.ndim):
        numbers = itertools.chain.from_iterable(numbers)
    if array.dtype.kind not in "iuf" or bool in set(map(type, numbers)):
        raise ValueError(f"{where} must hold only numbers")
    return array.astype(float, copy=False)
