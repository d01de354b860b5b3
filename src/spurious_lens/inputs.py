"""Decoding of input files: UTF-8 text and typed config objects.

Text is read as strict UTF-8, in pieces of whole lines, and a byte that
does not decode is reported with its line.  Configs are built from a JSON
object whose every value is checked against the dataclass field's
annotation before the dataclass sees it, so a value is never coerced into a
field of another type.
"""

from __future__ import annotations

import dataclasses
import enum
import json
import sys
import typing
from typing import Iterator

from .errors import ParseError


def read_text(path) -> str:
    """The file's text, decoded without newline translation."""
    return "".join(read_pieces(path, 1 << 16))  # any read size gives the same text


def read_pieces(path, size: int, digest=None) -> Iterator[str]:
    """The file's text in pieces of whole lines, decoded without newline
    translation: each read of ``size`` bytes is cut after its last newline,
    and what follows the cut starts the next piece.  A cut after a newline
    splits no UTF-8 sequence and no \\r\\n, so a piece decodes, or fails to,
    as its bytes do in the whole file.  A ``digest`` (a hashlib object) is
    updated with each read's bytes, so once the pieces are used up it
    digests the bytes they were decoded from."""
    with open(path, "rb") as file:
        start, carry = 0, bytearray()  # the byte offset of carry in the file
        while chunk := file.read(size):
            if digest is not None:
                digest.update(chunk)
            cut = chunk.rfind(b"\n") + 1
            carry += memoryview(chunk)[:cut] if cut else chunk
            if cut:
                yield _decode(carry, file, start)
                start += len(carry)
                carry = bytearray(memoryview(chunk)[cut:])
        if carry:
            yield _decode(carry, file, start)


def _decode(piece: bytearray, file, start: int) -> str:
    """The piece, which starts at byte ``start`` of ``file``, as strict
    UTF-8.  Only a piece that does not decode has its line found: the
    newlines before it are counted by reading the file again up to it."""
    try:
        return piece.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = 1 + piece.count(b"\n", 0, exc.start)
        file.seek(0)
        while start > 0 and (chunk := file.read(min(start, 1 << 16))):
            line += chunk.count(b"\n")
            start -= len(chunk)
        raise ParseError(f"line {line}: not valid UTF-8 ({exc.reason})",
                         lines=(line,)) from None


def load_config(cls, text: str):
    """Build the config dataclass ``cls`` from JSON text.

    A missing field takes its default; unknown or repeated fields, a missing
    field with no default, and a value whose JSON type does not match its
    field are rejected: an ``int`` field takes only integers, a ``float`` field
    integers or floats (kept as given) within the finite float range, and no
    numeric field takes ``true`` or ``false``.  Every failure is a ParseError.
    """
    try:
        obj = json.loads(text, object_pairs_hook=_unique_keys)
    except ParseError:
        raise
    # nesting deeper than the recursion limit is not valid JSON to us
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ParseError(f"config is not valid JSON: {exc}") from exc
    except ValueError:  # an integer past Python's int-string digit limit
        raise ParseError("config integer has more digits than the "
                         f"{sys.get_int_max_str_digits()} allowed") from None
    if not isinstance(obj, dict):
        raise ParseError("config JSON must be an object")
    hints = typing.get_type_hints(cls)
    unknown = set(obj) - {f.name for f in dataclasses.fields(cls)}
    if unknown:
        raise ParseError(f"unknown config fields: {sorted(unknown)}")
    kwargs = {name: _typed(name, hints[name], value) for name, value in obj.items()}
    try:
        return cls(**kwargs)
    except TypeError as exc:
        raise ParseError(f"bad config object: {exc}") from exc


def _unique_keys(pairs) -> dict:
    """The JSON object of ``pairs``; a key given twice is a ParseError."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ParseError(f"config field {key} is given more than once")
        obj[key] = value
    return obj


def _typed(name: str, hint, value):
    """``value`` checked against the annotation ``hint``."""
    if issubclass(hint, enum.Enum):
        try:
            return hint(value)
        except ValueError:
            choices = ", ".join(m.value for m in hint)
            raise ParseError(f"config field {name} must be one of {choices}, "
                             f"got {json.dumps(value)}") from None
    accepted = (int, float) if hint is float else (hint,)
    if (isinstance(value, bool) or not isinstance(value, accepted)
            or (hint is float and not abs(value) <= sys.float_info.max)):
        kind = "a finite number" if hint is float else "an integer"
        raise ParseError(f"config field {name} must be {kind}, got {json.dumps(value)}")
    return value
