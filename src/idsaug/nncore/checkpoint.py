"""The one binary record format behind every checkpoint and run table.

A record file is a kind magic line, a JSON metadata string, then its
networks, then its float64 arrays, closed by the sha256 of everything before
it. It is written to a temporary file and moved into place with
``os.replace``, so a reader sees the old file or the new one, never a part.
A reader refuses a record of another kind or of an older format by its magic
line, then any record whose checksum does not match.

A network is a JSON spec of its mode and layers (kind, dims and constructor
settings), then each layer's arrays in the order ``LAYER_STATE`` names them,
running statistics included for batchnorm. An array is its shape, then its
values as row-major little-endian float64. On load each array's shape must
match its layer. Round trips are bit-exact. Float32 parameters are stored
widened to float64, which is exact; ``read_network`` returns float64 arrays,
and a caller that trains in float32 narrows them back to the same bits.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import struct
from typing import BinaryIO

import numpy as np

from ..errors import FormatError
from .layers import LAYER_KINDS, Activation
from .network import Network

NETWORK_MAGIC = b"IDSAUG-NET-2\n"

# layer kind -> (constructor settings, arrays) a checkpoint stores
LAYER_STATE = {
    "dense": ((), ("weights", "bias")),
    "batchnorm": (("epsilon", "momentum"), ("scale", "shift", "running_mean", "running_var")),
    "layernorm": (("epsilon",), ("scale", "shift")),
    "leakyrelu": (("slope",), ()),
    "relu": ((), ()),
    "sigmoid": ((), ()),
    "softmax": ((), ()),
}


def _write_u32(fh: BinaryIO, value: int):
    fh.write(struct.pack("<I", value))


def _read_u32(fh: BinaryIO) -> int:
    raw = fh.read(4)
    if len(raw) != 4:
        raise FormatError("truncated checkpoint: expected uint32")
    return struct.unpack("<I", raw)[0]


def _write_str(fh: BinaryIO, text: str):
    data = text.encode("utf-8")
    _write_u32(fh, len(data))
    fh.write(data)


def _read_str(fh: BinaryIO) -> str:
    length = _read_u32(fh)
    data = fh.read(length)
    if len(data) != length:
        raise FormatError("truncated checkpoint: expected string payload")
    return data.decode("utf-8")


def _write_array(fh: BinaryIO, arr: np.ndarray):
    arr = np.asarray(arr, dtype=np.float64)
    _write_u32(fh, arr.ndim)
    for dim in arr.shape:
        _write_u32(fh, dim)
    fh.write(np.ascontiguousarray(arr).astype("<f8").tobytes())


def _read_array(fh: BinaryIO) -> np.ndarray:
    ndim = _read_u32(fh)
    shape = tuple(_read_u32(fh) for _ in range(ndim))
    count = int(np.prod(shape)) if shape else 1
    raw = fh.read(8 * count)
    if len(raw) != 8 * count:
        raise FormatError("truncated checkpoint: expected float64 payload")
    return np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(shape)


def write_network(fh: BinaryIO, net: Network):
    specs = []
    for layer in net.layers:
        if layer.kind not in LAYER_STATE:
            raise FormatError(f"cannot serialize layer kind {layer.kind!r}")
        settings, _ = LAYER_STATE[layer.kind]
        dims = [layer.in_dim] if isinstance(layer, Activation) else [layer.in_dim, layer.out_dim]
        specs.append({"kind": layer.kind, "dims": dims,
                      **{name: getattr(layer, name) for name in settings}})
    write_metadata(fh, {"mode": net.mode, "layers": specs})
    for layer in net.layers:
        for name in LAYER_STATE[layer.kind][1]:
            _write_array(fh, getattr(layer, name))


def read_network(fh: BinaryIO) -> Network:
    spec = read_metadata(fh)
    layers = []
    try:
        for layer_spec in spec["layers"]:
            kind = layer_spec["kind"]
            if kind not in LAYER_STATE:
                raise FormatError(f"unknown layer kind {kind!r} in checkpoint")
            settings, _ = LAYER_STATE[kind]
            layers.append(LAYER_KINDS[kind](*layer_spec["dims"],
                                            **{name: layer_spec[name] for name in settings}))
        mode = spec["mode"]
    except (KeyError, TypeError) as exc:
        raise FormatError(f"bad network spec in checkpoint: {exc!r}") from exc
    for layer in layers:
        for name in LAYER_STATE[layer.kind][1]:
            arr = _read_array(fh)
            expected = getattr(layer, name).shape
            if arr.shape != expected:
                raise FormatError(f"{layer.kind} {name} shape {arr.shape} does not match "
                                  f"its layer's {expected}")
            setattr(layer, name, arr)
    return Network(layers, mode=mode)


def save_network(path, net: Network):
    write_record(path, NETWORK_MAGIC, {}, networks=[net])


def load_network(path) -> Network:
    _, (net,), _ = read_record(path, NETWORK_MAGIC, n_networks=1)
    return net


def write_metadata(fh: BinaryIO, metadata: dict):
    _write_str(fh, json.dumps(metadata, sort_keys=True))


def read_metadata(fh: BinaryIO) -> dict:
    try:
        return json.loads(_read_str(fh))
    except (ValueError, FormatError) as exc:
        raise FormatError(f"bad checkpoint metadata: {exc}") from exc


class _HashingWriter:
    """A binary file that hashes every byte written to it."""

    def __init__(self, fh: BinaryIO):
        self.fh = fh
        self.digest = hashlib.sha256()

    def write(self, data):
        self.digest.update(data)
        self.fh.write(data)


@contextlib.contextmanager
def atomic_file(path, mode: str = "w", **kwargs):
    """Open a temporary file beside ``path`` for writing and move it onto
    ``path`` with ``os.replace`` when the block ends. A block that raises
    leaves ``path`` as it was and removes the temporary file."""
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise
    os.replace(tmp, path)


def write_record(path, magic: bytes, metadata: dict, networks=(), arrays=()):
    """Write a record file atomically, through ``atomic_file``."""
    with atomic_file(path, "wb") as raw:
        fh = _HashingWriter(raw)
        fh.write(magic)
        write_metadata(fh, metadata)
        for net in networks:
            write_network(fh, net)
        for arr in arrays:
            _write_array(fh, arr)
        raw.write(fh.digest.digest())


def read_record(path, magic: bytes, n_networks: int = 0,
                n_arrays: int = 0) -> tuple[dict, list[Network], list[np.ndarray]]:
    """Read a record file; a FormatError means it is not one whole, unaltered
    record of this kind and format."""
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.startswith(magic):
        kind = magic.decode("ascii").strip()
        raise FormatError(f"{path}: bad checkpoint magic, expected {kind}")
    size = len(data) - hashlib.sha256().digest_size
    if size < len(magic) or hashlib.sha256(memoryview(data)[:size]).digest() != data[size:]:
        raise FormatError(f"{path}: record checksum mismatch")
    fh = io.BytesIO(data)
    fh.seek(len(magic))
    metadata = read_metadata(fh)
    networks = [read_network(fh) for _ in range(n_networks)]
    arrays = [_read_array(fh) for _ in range(n_arrays)]
    if fh.tell() != size:
        raise FormatError(f"{path}: record length does not match its contents")
    return metadata, networks, arrays
