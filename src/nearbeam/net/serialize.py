"""Versioned binary model files with an integrity checksum.

Layout (little-endian): magic 'NBNM', u32 version, u32 header length, the
JSON architecture header (layer specs, input length, head size, array
manifest), the raw float64 payload of every parameter and persistent state
array in manifest order, then the SHA-256 digest of everything before it.
A file whose header names no valid model, or whose arrays hold a non-finite
value, is a :class:`NetModelError` like a corrupt one.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct

import numpy as np

from .layers import layer_class, layer_from_spec
from .model import NetworkModel

_MAGIC = b"NBNM"
_FORMAT_VERSION = 1


class NetModelError(Exception):
    """Raised for corrupt, truncated, or version-mismatched model files."""


def save_model(path, model: NetworkModel) -> None:
    entries = list(model.persistent_arrays())
    header = {
        "input_length": model.input_length,
        "head_size": model.head_size,
        "layers": model.specs(),
        "arrays": [{"name": name, "shape": list(value.shape)} for name, value in entries],
    }
    header_bytes = json.dumps(header, sort_keys=True).encode()
    blob = bytearray()
    blob += _MAGIC
    blob += struct.pack("<II", _FORMAT_VERSION, len(header_bytes))
    blob += header_bytes
    for _, value in entries:
        blob += np.ascontiguousarray(value, dtype="<f8").tobytes()
    blob += hashlib.sha256(bytes(blob)).digest()
    with open(path, "wb") as f:
        f.write(bytes(blob))


def _spec_arrays(specs) -> list[tuple[str, tuple]]:
    """(name, shape) of each array the layer specs imply, in manifest order."""
    arrays = []
    for idx, spec in enumerate(specs):
        cls, sizes = layer_class(spec)
        for name, shape in cls.array_shapes(**sizes):
            if not all(type(dim) is int and dim >= 1 for dim in shape):
                raise ValueError(f"layer {idx} {name} has shape {shape}")
            arrays.append((f"layer{idx}.{name}", shape))
    return arrays


def load_model(path) -> NetworkModel:
    with open(path, "rb") as f:
        blob = f.read()
    if len(blob) < 4 + 8 + 32 or blob[:4] != _MAGIC:
        raise NetModelError("not a model file (bad magic or truncated)")
    digest = blob[-32:]
    if hashlib.sha256(blob[:-32]).digest() != digest:
        raise NetModelError("model file checksum mismatch (corrupt or truncated)")
    version, header_len = struct.unpack_from("<II", blob, 4)
    if version != _FORMAT_VERSION:
        raise NetModelError(f"unsupported model format version {version}")
    offset = 12 + header_len
    try:
        header = json.loads(blob[12:offset])
        manifest = [(entry["name"], tuple(entry["shape"])) for entry in header["arrays"]]
        # sizes are compared before any array is allocated, so a huge layer
        # in the header is this error and not a MemoryError
        if manifest != _spec_arrays(header["layers"]):
            raise NetModelError("model file's array manifest does not match its layers")
        if len(blob) - 32 - offset != 8 * sum(math.prod(shape) for _, shape in manifest):
            raise NetModelError("model file has trailing or missing payload bytes")
        model = NetworkModel([layer_from_spec(spec) for spec in header["layers"]],
                             header["input_length"], header["head_size"])
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        # ValueError covers JSON that does not parse, text that is not UTF-8
        # and a layer constant that is not the engine's
        raise NetModelError(f"model header describes no valid model: {exc!r}") from exc
    for name, value in model.persistent_arrays():
        data = np.frombuffer(blob, dtype="<f8", count=value.size, offset=offset)
        if not np.isfinite(data).all():
            raise NetModelError(f"non-finite value in {name!r}")
        value[...] = data.reshape(value.shape)
        offset += value.size * 8
    return model
