"""Bit-exact JSON helpers.

Floats are stored as C99 hex strings (``float.hex()``), so artifacts
round-trip bitwise and reports are byte-identical across runs.
"""

from __future__ import annotations

import json
from typing import Any, Iterable

import numpy as np

from .errors import SchemaError


def float_to_hex(x: float) -> str:
    return float(x).hex()


def hex_or_none(x: float | None) -> str | None:
    """``float_to_hex(x)``, or None (JSON null) for None."""
    return None if x is None else float_to_hex(x)


def float_or_none(s: Any) -> float | None:
    """``hex_to_float(s)``, or None for None (JSON null): the inverse of
    ``hex_or_none``."""
    return None if s is None else hex_to_float(s)


def hex_to_float(s: Any) -> float:
    if isinstance(s, float) or is_int(s):
        try:
            return float(s)
        except OverflowError as exc:  # an integer beyond the float range
            raise SchemaError("integer too large for a float") from exc
    if not isinstance(s, str):
        raise SchemaError(f"expected hex float string, got {type(s).__name__}")
    try:
        return float.fromhex(s)
    except ValueError as exc:
        raise SchemaError(f"malformed hex float {s!r}") from exc


def vec_to_hex(v: Iterable[float]) -> list[str]:
    return [float_to_hex(x) for x in np.asarray(v, dtype=float).ravel()]


def hex_to_vec(items: Any) -> np.ndarray:
    if not isinstance(items, (list, tuple)):
        raise SchemaError("expected a list of hex floats")
    return np.array([hex_to_float(x) for x in items], dtype=float)


def dump_json(obj: Any, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(to_json_text(obj))


def to_json_text(obj: Any) -> str:
    # sort_keys keeps byte-identical output for identical content
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def load_json(path: str) -> Any:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{path}: not valid JSON ({exc})") from exc


def is_int(v: Any) -> bool:
    """A JSON integer: ``int`` but not ``bool``."""
    return isinstance(v, int) and not isinstance(v, bool)


def require_keys(obj: Any, keys: Iterable[str], what: str) -> None:
    if not isinstance(obj, dict):
        raise SchemaError(f"{what}: expected a JSON object")
    missing = [k for k in keys if k not in obj]
    if missing:
        raise SchemaError(f"{what}: missing keys {missing}")
