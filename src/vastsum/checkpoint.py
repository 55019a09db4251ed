"""Parameter checkpoint files.

One self-describing JSON document mapping tensor names to shape plus
row-major values, with an optional metadata block (the run config travels
there so downstream commands can rebuild the model). Serialization is
canonical — sorted keys, repr floats — so identical parameters produce
identical bytes.

`atomic_write` is the package's one file-write path: checkpoints, datasets,
decode masks and the CSV reports all go through it. This module imports
nothing from vastsum, so every other module can use it without a cycle.
"""

from __future__ import annotations

import json
import os
import tempfile

import numpy as np

FORMAT_NAME = "vastsum-params-v1"


def params_to_bytes(params: dict[str, np.ndarray], meta: dict | None = None) -> bytes:
    tensors = {
        name: {"shape": list(value.shape), "data": [float(x) for x in value.reshape(-1)]}
        for name, value in params.items()
    }
    doc = {"format": FORMAT_NAME, "meta": meta or {}, "tensors": tensors}
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8")


def atomic_write(path, payload: bytes) -> None:
    """Write payload to path through a temp file in the same directory and a
    rename, so a reader sees the old file or the whole new one, never a part.

    The file gets the mode open() would give it, 0o666 less the umask, not
    mkstemp's owner-only 0o600.
    """
    directory = os.path.dirname(os.path.abspath(path))
    umask = os.umask(0)  # the umask can only be read by setting it
    os.umask(umask)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            os.fchmod(fh.fileno(), 0o666 & ~umask)
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def save_params(params: dict[str, np.ndarray], path, meta: dict | None = None) -> None:
    atomic_write(path, params_to_bytes(params, meta))


def load_params(path) -> tuple[dict[str, np.ndarray], dict]:
    """Read tensors and metadata back; validates structure and finiteness."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or doc.get("format") != FORMAT_NAME:
        raise ValueError(f"{path} is not a {FORMAT_NAME} checkpoint")
    if not isinstance(doc.get("tensors"), dict):
        raise ValueError(f"{path}: checkpoint lacks a 'tensors' object")
    params = {}
    for name, entry in doc["tensors"].items():
        if not isinstance(entry, dict) or "shape" not in entry or "data" not in entry:
            raise ValueError(f"tensor {name!r} needs 'shape' and 'data' entries")
        shape = tuple(int(s) for s in entry["shape"])
        value = np.asarray(entry["data"], dtype=np.float64).reshape(shape)
        if not np.all(np.isfinite(value)):
            raise ValueError(f"tensor {name!r} contains non-finite values")
        params[name] = value
    return params, doc.get("meta", {})


def validate_shapes(params: dict[str, np.ndarray], expected: dict[str, tuple[int, ...]]) -> None:
    missing = set(expected) - set(params)
    extra = set(params) - set(expected)
    if missing or extra:
        raise ValueError(f"checkpoint tensor names mismatch: missing {sorted(missing)}, extra {sorted(extra)}")
    for name, shape in expected.items():
        if params[name].shape != shape:
            raise ValueError(f"tensor {name!r} has shape {params[name].shape}, expected {shape}")
