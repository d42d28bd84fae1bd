"""Bit-exact JSON helpers.

Floats are stored as the shortest exact C99 hex literal: ``float.hex()``
without the fraction's trailing zeros, and without the point when no
digit is left (``0x0p+0``, ``-0x1p+0``, ``0x1.8p-1``; ``inf``, ``-inf``
and ``nan`` as ``float.hex`` writes them).  So artifacts round-trip
bitwise and reports are byte-identical across runs.  ``_short_hex`` is
the one hex writer: every float goes through ``float_to_hex``, and every
float array through ``vec_to_hex`` or ``rows_to_hex``.  ``hex_to_float``
takes ``inf``, ``-inf``, ``nan`` and what ``float.fromhex`` parses after
an optional sign and ``0x``, so files of the older ``float.hex()``
spelling load bitwise the same, and a decimal string is an error.
Every artifact and report goes through ``to_json_text``: one sorted-key
JSON line, no whitespace, byte for byte what ``json.dumps`` with those
settings writes.  The C encoder turns each call's input into one list of
string tokens before joining them, several times the size of the text, so
``to_json_text`` walks the dicts and lists itself and hands the encoder
runs of items of at most ``_ENCODE_SCALARS`` scalars at a time.  Readers
ignore whitespace, so indented files of the older layout load unchanged;
``python -m json.tool`` pretty-prints a file.
"""

from __future__ import annotations

import json
from typing import Any, Iterable

import numpy as np

from .errors import SchemaError


def _short_hex(x: float) -> str:
    """``x.hex()`` without the fraction's trailing zeros and bare point."""
    mant, p, exp = x.hex().partition("p")
    return mant.rstrip("0").rstrip(".") + p + exp


def _hex_list(a: np.ndarray) -> list[str]:
    """``_short_hex`` of every entry of the float64 array ``a``, flattened.
    Entries with equal bits share one string, as the expanded ReLU layers
    are mostly 0 and ±1; the memo is keyed by bits since 0.0 == -0.0."""
    flat = a.ravel()
    memo: dict[int, str] = {}
    return [memo[b] if b in memo else memo.setdefault(b, _short_hex(x))
            for x, b in zip(flat.tolist(), flat.view(np.uint64).tolist())]


def float_to_hex(x: float) -> str:
    return _short_hex(float(x))


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
    # float.fromhex reads "0.1" as hex 1/16: a decimal string is an error
    unsigned = s[1:] if s[:1] in ("+", "-") else s
    if not unsigned.startswith("0x") and s not in ("inf", "-inf", "nan"):
        raise SchemaError(f"not a hex float {s!r}: reals are hex strings such as '0x1.8p-1'")
    try:
        return float.fromhex(s)
    except ValueError as exc:
        raise SchemaError(f"malformed hex float {s!r}") from exc


def vec_to_hex(v: Iterable[float]) -> list[str]:
    """Hex strings of the flattened float array ``v``."""
    return _hex_list(np.asarray(v, dtype=float))


def rows_to_hex(rows: Any) -> list[list[str]]:
    """``vec_to_hex`` of each row of the 2-D float array ``rows``."""
    a = np.asarray(rows, dtype=float)
    flat, width = _hex_list(a), a.shape[1]
    return [flat[i * width:(i + 1) * width] for i in range(len(a))]


def hex_to_vec(items: Any) -> np.ndarray:
    if not isinstance(items, (list, tuple)):
        raise SchemaError("expected a list of hex floats")
    return np.array([hex_to_float(x) for x in items], dtype=float)


def dump_json(obj: Any, path: str) -> None:
    # encode first: a failed encode leaves an existing file as it was
    text = to_json_text(obj)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


# scalars (and empty containers) one encoder call turns into tokens at most
_ENCODE_SCALARS = 2048
_ENCODER = json.JSONEncoder(separators=(",", ":"), sort_keys=True)
_SCALAR_TYPES = frozenset((str, int, float, bool, type(None)))


def _encode_heavy(obj: Any, out: list[str]) -> int:
    """The scalars and empty containers in ``obj``, counted in one walk over
    its containers.  Up to ``_ENCODE_SCALARS`` of them nothing is written,
    and the caller encodes ``obj`` within one call; past it, ``obj``'s JSON
    text is appended to ``out``: runs of items of at most
    ``_ENCODE_SCALARS`` from one encoder call each, and each heavier item by
    the same walk."""
    is_dict = isinstance(obj, dict)
    if not (is_dict or isinstance(obj, (list, tuple))):
        return 1
    flat = _SCALAR_TYPES.issuperset(map(type, obj.values() if is_dict else obj))
    if flat and len(obj) <= _ENCODE_SCALARS:
        return max(len(obj), 1)
    items = sorted(obj.items()) if is_dict else obj     # as sort_keys orders them
    opening = "{" if is_dict else "["
    if flat:
        out.append(opening)
        out.extend(_run_text(items[i:i + _ENCODE_SCALARS], is_dict, i)
                   for i in range(0, len(items), _ENCODE_SCALARS))
    else:
        start = held = 0            # the run of items not yet written, and its weight
        for i, item in enumerate(items):
            value, mark = item[1] if is_dict else item, len(out)
            weight = 1 if type(value) in _SCALAR_TYPES else _encode_heavy(value, out)
            if len(out) > mark:     # a heavy value, written after mark: its prefix goes first
                head = [opening] if opening else []
                if i > start:
                    head.append(_run_text(items[start:i], is_dict, start))
                if i:
                    head.append(",")
                if is_dict:
                    head.append(_ENCODER.encode({item[0]: 0})[1:-2])    # the key and colon
                out.insert(mark, "".join(head))
                opening, start, held = "", i + 1, 0
            elif held + weight > _ENCODE_SCALARS:
                out.append(opening + _run_text(items[start:i], is_dict, start))
                opening, start, held = "", i, weight
            else:
                held += weight
        if opening:                 # nothing written: light enough for one call
            return held
        if start < len(items):
            out.append(_run_text(items[start:], is_dict, start))
    out.append("}" if is_dict else "]")
    return _ENCODE_SCALARS + 1


def _run_text(run: list | tuple, is_dict: bool, start: int) -> str:
    """The items of ``run`` from one encoder call, with the comma that parts
    them from earlier items."""
    text = _ENCODER.encode(dict(run) if is_dict else run)[1:-1]
    return "," + text if start else text


def to_json_text(obj: Any) -> str:
    """One compact JSON line; sorted keys keep identical content byte-identical."""
    out: list[str] = []
    _encode_heavy(obj, out)
    if not out:
        return _ENCODER.encode(obj) + "\n"
    out.append("\n")
    return "".join(out)


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
