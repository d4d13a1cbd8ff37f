"""Binary checkpoint format for networks and model bundles.

Network layout: a versioned magic string, then a uint32 layer count and mode
tag, then one record per layer: kind tag, in/out dims, and the layer's
float64 arrays in row-major little-endian order (running statistics included
for norm layers). A bundle file is a model-kind magic string, a JSON metadata
record, then its networks in order. A record file is a kind magic string, a
JSON metadata record and float64 arrays, closed by the sha256 of everything
before it. Round trips are bit-exact.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import struct
from typing import BinaryIO

import numpy as np

from ..errors import FormatError
from .layers import BatchNorm, Dense, LayerNorm, LeakyReLU, ReLU, Sigmoid, Softmax
from .network import Network

NETWORK_MAGIC = b"IDSAUG-NET-1\n"


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


def _write_float(fh: BinaryIO, value: float):
    fh.write(struct.pack("<d", value))


def _read_float(fh: BinaryIO) -> float:
    raw = fh.read(8)
    if len(raw) != 8:
        raise FormatError("truncated checkpoint: expected float64 scalar")
    return struct.unpack("<d", raw)[0]


def _read_magic(fh: BinaryIO, magic: bytes, source):
    if fh.read(len(magic)) != magic:
        kind = magic.decode("ascii").strip()
        raise FormatError(f"{source}: bad checkpoint magic, expected {kind}")


def write_network(fh: BinaryIO, net: Network):
    fh.write(NETWORK_MAGIC)
    _write_u32(fh, len(net.layers))
    _write_str(fh, net.mode)
    for layer in net.layers:
        _write_str(fh, layer.kind)
        _write_u32(fh, layer.in_dim)
        _write_u32(fh, layer.out_dim)
        if layer.kind == "dense":
            _write_array(fh, layer.weights)
            _write_array(fh, layer.bias)
        elif layer.kind == "batchnorm":
            _write_float(fh, layer.epsilon)
            _write_float(fh, layer.momentum)
            _write_array(fh, layer.scale)
            _write_array(fh, layer.shift)
            _write_array(fh, layer.running_mean)
            _write_array(fh, layer.running_var)
        elif layer.kind == "layernorm":
            _write_float(fh, layer.epsilon)
            _write_array(fh, layer.scale)
            _write_array(fh, layer.shift)
        elif layer.kind == "leakyrelu":
            _write_float(fh, layer.slope)
        elif layer.kind in ("relu", "sigmoid", "softmax"):
            pass
        else:
            raise FormatError(f"cannot serialize layer kind {layer.kind!r}")


def read_network(fh: BinaryIO) -> Network:
    _read_magic(fh, NETWORK_MAGIC, getattr(fh, "name", "<stream>"))
    n_layers = _read_u32(fh)
    mode = _read_str(fh)
    layers = []
    for _ in range(n_layers):
        kind = _read_str(fh)
        in_dim = _read_u32(fh)
        out_dim = _read_u32(fh)
        if kind == "dense":
            layer = Dense(in_dim, out_dim, rng=np.random.default_rng(0))
            layer.weights = _read_array(fh)
            layer.bias = _read_array(fh)
            if layer.weights.shape != (in_dim, out_dim):
                raise FormatError("dense weight shape does not match recorded dims")
        elif kind == "batchnorm":
            epsilon = _read_float(fh)
            momentum = _read_float(fh)
            layer = BatchNorm(in_dim, epsilon=epsilon, momentum=momentum)
            layer.scale = _read_array(fh)
            layer.shift = _read_array(fh)
            layer.running_mean = _read_array(fh)
            layer.running_var = _read_array(fh)
        elif kind == "layernorm":
            epsilon = _read_float(fh)
            layer = LayerNorm(in_dim, epsilon=epsilon)
            layer.scale = _read_array(fh)
            layer.shift = _read_array(fh)
        elif kind == "leakyrelu":
            layer = LeakyReLU(in_dim, slope=_read_float(fh))
        elif kind == "relu":
            layer = ReLU(in_dim)
        elif kind == "sigmoid":
            layer = Sigmoid(in_dim)
        elif kind == "softmax":
            layer = Softmax(in_dim)
        else:
            raise FormatError(f"unknown layer kind {kind!r} in checkpoint")
        layers.append(layer)
    return Network(layers, mode=mode)


def save_network(path, net: Network):
    with open(path, "wb") as fh:
        write_network(fh, net)


def load_network(path) -> Network:
    with open(path, "rb") as fh:
        return read_network(fh)


def write_metadata(fh: BinaryIO, metadata: dict):
    _write_str(fh, json.dumps(metadata, sort_keys=True))


def read_metadata(fh: BinaryIO) -> dict:
    try:
        return json.loads(_read_str(fh))
    except (ValueError, FormatError) as exc:
        raise FormatError(f"bad checkpoint metadata: {exc}") from exc


def write_bundle(path, magic: bytes, metadata: dict, networks: list[Network]):
    with open(path, "wb") as fh:
        fh.write(magic)
        write_metadata(fh, metadata)
        for net in networks:
            write_network(fh, net)


def read_bundle(path, magic: bytes, n_networks: int) -> tuple[dict, list[Network]]:
    with open(path, "rb") as fh:
        _read_magic(fh, magic, path)
        metadata = read_metadata(fh)
        return metadata, [read_network(fh) for _ in range(n_networks)]


class _HashingWriter:
    """A binary file that hashes every byte written to it."""

    def __init__(self, fh: BinaryIO):
        self.fh = fh
        self.digest = hashlib.sha256()

    def write(self, data):
        self.digest.update(data)
        self.fh.write(data)


def write_record(path, magic: bytes, metadata: dict, arrays: list[np.ndarray]):
    """Write a record file atomically: a temporary file, then ``os.replace``."""
    tmp = f"{os.fspath(path)}.tmp"
    with open(tmp, "wb") as raw:
        fh = _HashingWriter(raw)
        fh.write(magic)
        write_metadata(fh, metadata)
        for arr in arrays:
            _write_array(fh, arr)
        raw.write(fh.digest.digest())
    os.replace(tmp, path)


def read_record(path, magic: bytes, n_arrays: int) -> tuple[dict, list[np.ndarray]]:
    """Read a record file; a FormatError means it is not one whole, unaltered
    record of this kind."""
    with open(path, "rb") as fh:
        data = fh.read()
    size = len(data) - hashlib.sha256().digest_size
    if size < 0 or hashlib.sha256(memoryview(data)[:size]).digest() != data[size:]:
        raise FormatError(f"{path}: record checksum mismatch")
    fh = io.BytesIO(data)
    _read_magic(fh, magic, path)
    metadata = read_metadata(fh)
    arrays = [_read_array(fh) for _ in range(n_arrays)]
    if fh.tell() != size:
        raise FormatError(f"{path}: record length does not match its arrays")
    return metadata, arrays
