"""Parameter checkpoint files.

A `vastsum-params-v2` file has three parts, in this order: an 8-byte
little-endian header length; a JSON header holding the format name, a
metadata block (the run config travels there so downstream commands can
rebuild the model) and each tensor's shape and byte offset; then every
tensor's row-major `<f8` bytes, in header order. The header is canonical
(sorted keys, compact separators) and the tensors go in sorted-name order,
so identical parameters produce identical bytes.

`atomic_write` is the package's one file-write path: checkpoints, datasets,
decode masks and, through `write_csv`, the CSV reports all go through it.
This module imports only `config` from vastsum, so every module but
`config` can use it without a cycle.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import tempfile

import numpy as np

from .config import is_integral

FORMAT_NAME = "vastsum-params-v2"
_LENGTH_BYTES = 8


def params_to_bytes(params: dict[str, np.ndarray], meta: dict | None = None) -> bytes:
    arrays = {name: np.asarray(params[name], dtype="<f8") for name in sorted(params)}
    tensors, offset = {}, 0
    for name, value in arrays.items():
        tensors[name] = {"offset": offset, "shape": list(value.shape)}
        offset += value.nbytes
    doc = {"format": FORMAT_NAME, "meta": meta or {}, "tensors": tensors}
    header = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return b"".join(
        [len(header).to_bytes(_LENGTH_BYTES, "little"), header]
        + [value.tobytes() for value in arrays.values()]
    )


def atomic_write(path, payload: bytes) -> None:
    """Write payload to path through a temp file in the same directory and a
    rename, so a reader sees the old file or the whole new one, never a part.

    The file gets the mode open() would give it, 0o666 less the umask, not
    mkstemp's owner-only 0o600. An OSError keeps its errno but names path,
    not the temp file's random name.
    """
    directory = os.path.dirname(os.path.abspath(path))
    umask = os.umask(0)  # the umask can only be read by setting it
    os.umask(umask)
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        with os.fdopen(fd, "wb") as fh:
            os.fchmod(fh.fileno(), 0o666 & ~umask)
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.remove(tmp)
        if isinstance(exc, OSError) and exc.errno is not None:
            raise OSError(exc.errno, exc.strerror, os.fspath(path)) from exc
        raise


def write_csv(path, header: list, rows) -> None:
    """Write `header` and then each of `rows` as one CSV file, in the csv
    module's default dialect (CRLF line ends), through `atomic_write`."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    atomic_write(path, buf.getvalue().encode("utf-8"))


def save_params(params: dict[str, np.ndarray], path, meta: dict | None = None) -> None:
    atomic_write(path, params_to_bytes(params, meta))


def _read_header(path, blob: bytes) -> tuple[dict, int]:
    """The header object and the payload's start, or a ValueError naming the format."""

    def refuse(reason: str):
        raise ValueError(f"{path} is not a {FORMAT_NAME} checkpoint: {reason}")

    # A v1 file is a JSON document; its leading `{"format` read as a length
    # lands far past the end, so the v1 wording is added only on that path.
    # The first byte alone decides nothing: a v2 header of 123 bytes mod 256
    # starts with the same byte.
    v1 = " (it looks like a v1 JSON checkpoint, which is no longer read)" if blob[:1] == b"{" else ""
    if len(blob) < _LENGTH_BYTES:
        refuse(f"{len(blob)} bytes is too short for the {_LENGTH_BYTES}-byte header length{v1}")
    length = int.from_bytes(blob[:_LENGTH_BYTES], "little")
    start = _LENGTH_BYTES + length
    if start > len(blob):
        refuse(f"header length {length} runs past the end of the {len(blob)}-byte file{v1}")
    try:
        header = json.loads(blob[_LENGTH_BYTES:start].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        refuse(f"header is not UTF-8 JSON ({exc})")
    if not isinstance(header, dict):
        refuse(f"header must be a JSON object, got {type(header).__name__}")
    if header.get("format") != FORMAT_NAME:
        refuse(f"header format is {header.get('format')!r}")
    return header, start


def load_params(path) -> tuple[dict[str, np.ndarray], dict]:
    """Read tensors and metadata back; validates the layout and finiteness.

    The file is read once and its payload copied once; each tensor is a
    writable view of that copy, and no two tensors overlap."""
    with open(path, "rb") as fh:
        blob = fh.read()
    header, start = _read_header(path, blob)
    meta = header.get("meta", {})
    if not isinstance(meta, dict):
        raise ValueError(f"{path}: checkpoint 'meta' must be an object, got {type(meta).__name__}")
    if not isinstance(header.get("tensors"), dict):
        raise ValueError(f"{path}: checkpoint header lacks a 'tensors' object")
    payload = len(blob) - start
    spans, end = {}, 0
    for name, entry in header["tensors"].items():
        if not isinstance(entry, dict) or "shape" not in entry or "offset" not in entry:
            raise ValueError(f"tensor {name!r} needs 'shape' and 'offset' entries")
        shape = entry["shape"]
        if not isinstance(shape, list) or not all(is_integral(s) and s >= 0 for s in shape):
            raise ValueError(
                f"tensor {name!r}: shape must be a list of non-negative integers, got {shape!r}"
            )
        offset = entry["offset"]
        if not is_integral(offset) or offset != end:
            raise ValueError(
                f"tensor {name!r}: offset {offset!r} is not {end}, where the previous tensor ends"
            )
        shape = [int(s) for s in shape]
        size = math.prod(shape)
        spans[name] = (end // 8, size, shape)
        end += 8 * size
        if end > payload:
            raise ValueError(
                f"tensor {name!r} ends at payload byte {end}, past the payload's {payload} bytes"
            )
    if end != payload:
        raise ValueError(f"{path}: {payload - end} trailing bytes after the last tensor")
    flat = np.frombuffer(blob, dtype="<f8", offset=start).astype(np.float64)
    params = {
        name: flat[first : first + size].reshape(shape)
        for name, (first, size, shape) in spans.items()
    }
    if not np.isfinite(flat).all():
        bad = next(name for name, value in params.items() if not np.isfinite(value).all())
        raise ValueError(f"tensor {bad!r} contains non-finite values")
    return params, meta


def validate_shapes(params: dict[str, np.ndarray], expected: dict[str, tuple[int, ...]]) -> None:
    missing = set(expected) - set(params)
    extra = set(params) - set(expected)
    if missing or extra:
        raise ValueError(f"checkpoint tensor names mismatch: missing {sorted(missing)}, extra {sorted(extra)}")
    for name, shape in expected.items():
        if params[name].shape != shape:
            raise ValueError(f"tensor {name!r} has shape {params[name].shape}, expected {shape}")
