"""The file framing shared by `.trajset` datasets and `.ckpt` checkpoints.

A file is a magic line, ascii header lines, `payload_bytes=N`, then
exactly N little-endian payload bytes. A header line is a `key=value`
field, or a `<tag> <value>` row (`record <id>`, `tensor <spec>`) when a
space comes before any `=`. Every framing fault, and an unreadable file,
raises DataError naming the file; the readers of the two formats keep
only their own keys and size rules.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DataError

_END = "payload_bytes"


def write(path, magic, lines, chunks) -> None:
    """Write `magic`, the header `lines` and `payload_bytes=N`, then each
    C-contiguous buffer in the list `chunks` in turn, so the payload is
    never copied into one buffer."""
    size = sum(memoryview(chunk).nbytes for chunk in chunks)
    header = "\n".join([magic, *lines, f"{_END}={size}"]) + "\n"
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        for chunk in chunks:
            fh.write(chunk)


def read(path, magic, kind):
    """Split the file at `path` into `(fields, rows, payload)`: the
    `key=value` lines as a dict, the `(tag, value)` rows in file order and
    a memoryview of exactly the N payload bytes. `kind` names the file in
    the error for one that cannot be opened."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise DataError(f"cannot read {kind} {path}: {exc}") from None

    if not raw.startswith(magic.encode() + b"\n"):
        raise DataError(f"{path}: line 1 is not {magic!r}")
    at = raw.find(f"\n{_END}=".encode())
    end = raw.find(b"\n", at + 1)
    if at < 0 or end < 0:
        raise DataError(f"{path}: header never terminated")

    fields: dict[str, str] = {}
    rows = []
    lines = raw[:end].decode("ascii", errors="replace").split("\n")
    for line_no, line in enumerate(lines[1:], start=2):
        key, eq, value = line.partition("=")
        if eq and " " not in key:
            if key in fields:
                raise DataError(f"{path}: duplicate header key {key!r} on line {line_no}")
            fields[key] = value
            continue
        tag, space, value = line.partition(" ")
        if not space:
            raise DataError(f"{path}: malformed header line {line_no}: {line!r}")
        rows.append((tag, value))

    size = fields.pop(_END)
    payload = memoryview(raw)[end + 1:]
    if not size.isdigit() or int(size) != len(payload):
        raise DataError(f"{path}: payload of {len(payload)} bytes does not match "
                        f"{_END}={size} (truncated or padded)")
    return fields, rows, payload


def take(payload, dtype, shape, offset, what) -> np.ndarray:
    """A copy of the `shape` array of `dtype` at byte `offset` of `payload`;
    DataError names `what` when the array does not fit inside it."""
    count = math.prod(shape)
    if min(shape, default=0) < 0 or offset < 0 or \
            offset + count * np.dtype(dtype).itemsize > len(payload):
        raise DataError(f"{what} of shape {tuple(shape)} at byte {offset} does "
                        f"not fit the {len(payload)}-byte payload")
    return np.frombuffer(payload, dtype, count, offset).reshape(shape).copy()
