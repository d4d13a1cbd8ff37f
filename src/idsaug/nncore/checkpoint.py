"""The one binary record format behind every checkpoint and run table.

A record file is a kind magic line, a JSON metadata string, then its
networks, then its float64 arrays, closed by the sha256 of everything before
it. It is written to a temporary file and moved into place with
``os.replace``, so a reader sees the old file or the new one, never a part.
A reader refuses a record of another kind or of an older format by its magic
line, then any record whose checksum does not match.

A network is a JSON spec of its layers (kind, dims and the constructor
settings ``LAYER_SETTINGS`` names), then each layer's ``param_names`` arrays
and its ``stat_names`` arrays (batchnorm's running statistics). Specs written
by earlier versions also hold a ``"mode"`` key, which the reader ignores. An
array is its shape, then its values as row-major little-endian float64. On
load each array's shape must match its layer. Round trips are bit-exact.
Float32 parameters are stored widened to float64, which is exact; a reader
that asks for a float32 network gets the same bits back, and one that asks
for none gets float64.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import struct
from typing import BinaryIO

import numpy as np

from ..errors import FormatError
from .layers import LAYER_KINDS, Activation
from .network import Network

NETWORK_MAGIC = b"IDSAUG-NET-2\n"

# layer kind -> the constructor settings a checkpoint stores
LAYER_SETTINGS = {
    "dense": (),
    "batchnorm": ("epsilon", "momentum"),
    "layernorm": ("epsilon",),
    "leakyrelu": ("slope",),
    "relu": (),
    "sigmoid": (),
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
    """``arr``'s shape, then its buffer as little-endian float64, copied only
    when ``arr`` is not already that."""
    arr = np.asarray(arr, dtype="<f8", order="C")
    _write_u32(fh, arr.ndim)
    for dim in arr.shape:
        _write_u32(fh, dim)
    fh.write(arr)


def _check_fits(fh: BinaryIO, floats: int, what: str):
    """Refuses ``floats`` float64 values that ``fh``, a record being read
    (``_HashingReader``), has fewer bytes left for, before anything that
    size is allocated. A plain stream is not checked."""
    left = getattr(fh, "left", None)
    if left is not None and 8 * floats > left:
        raise FormatError(f"truncated checkpoint: {what} needs {8 * floats} bytes, "
                          f"{left} left")


def _read_array(fh: BinaryIO) -> np.ndarray:
    """The next array of ``fh``, read straight into a new array."""
    ndim = _read_u32(fh)
    shape = tuple(_read_u32(fh) for _ in range(ndim))
    _check_fits(fh, math.prod(shape), f"an array of shape {shape}")
    arr = np.empty(shape, dtype="<f8")
    if fh.readinto(arr) != arr.nbytes:
        raise FormatError("truncated checkpoint: expected float64 payload")
    return arr


def write_network(fh: BinaryIO, net: Network):
    specs = []
    for layer in net.layers:
        if layer.kind not in LAYER_SETTINGS:
            raise FormatError(f"cannot serialize layer kind {layer.kind!r}")
        dims = [layer.in_dim] if isinstance(layer, Activation) else [layer.in_dim, layer.out_dim]
        specs.append({"kind": layer.kind, "dims": dims,
                      **{name: getattr(layer, name) for name in LAYER_SETTINGS[layer.kind]}})
    write_metadata(fh, {"layers": specs})
    for layer in net.layers:
        for name in layer.param_names + layer.stat_names:
            _write_array(fh, getattr(layer, name))


def read_network(fh: BinaryIO, dtype=None) -> Network:
    """The next network of ``fh``, in ``dtype`` (float64 when None)."""
    spec = read_metadata(fh)
    layers = []
    try:
        for layer_spec in spec["layers"]:
            kind = layer_spec["kind"]
            if kind not in LAYER_SETTINGS:
                raise FormatError(f"unknown layer kind {kind!r} in checkpoint")
            if LAYER_KINDS[kind].param_names:
                # a dense layer's weights, a norm layer's scale
                _check_fits(fh, math.prod(layer_spec["dims"]), f"a {kind} layer")
            layers.append(LAYER_KINDS[kind](*layer_spec["dims"], **{
                name: layer_spec[name] for name in LAYER_SETTINGS[kind]}))
    except (KeyError, TypeError) as exc:
        raise FormatError(f"bad network spec in checkpoint: {exc!r}") from exc
    for layer in layers:
        for name in layer.param_names + layer.stat_names:
            arr = _read_array(fh)
            expected = getattr(layer, name).shape
            if arr.shape != expected:
                raise FormatError(f"{layer.kind} {name} shape {arr.shape} does not match "
                                  f"its layer's {expected}")
            setattr(layer, name, arr)
    return Network(layers, dtype=dtype)


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


class _HashingReader:
    """A record file read after its magic line: the next ``left`` bytes,
    hashed (after the magic) as they are read, then the sha256 they end
    with."""

    def __init__(self, fh: BinaryIO, magic: bytes, left: int):
        self.fh = fh
        self.left = max(0, left)
        self.digest = hashlib.sha256(magic)

    def read(self, size: int) -> bytes:
        data = self.fh.read(min(size, self.left))
        self.left -= len(data)
        self.digest.update(data)
        return data

    def readinto(self, buf) -> int:
        view = memoryview(buf)
        if not view.nbytes:  # cast refuses a shape with a zero in it
            return 0
        view = view.cast("B")[:self.left]
        n = self.fh.readinto(view)
        self.left -= n
        self.digest.update(view[:n])
        return n

    def intact(self) -> bool:
        """Hashes the bytes not read yet; whether the sha256 after them matches."""
        while self.left and self.read(1 << 20):
            pass
        return self.fh.read() == self.digest.digest()


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


def read_record(path, magic: bytes, n_networks: int = 0, n_arrays: int = 0,
                dtype=None) -> tuple[dict, list[Network], list[np.ndarray]]:
    """Read a record file, its networks in ``dtype`` (float64 when None); a
    FormatError means it is not one whole, unaltered record of this kind and
    format.

    The file is hashed as it is parsed, each array as ``readinto`` fills it,
    so reading holds the arrays and not also the file's bytes; the digest
    is compared before anything is returned. A parse that fails first
    hashes the rest of the file, so an altered record is refused as one
    whatever the alteration broke."""
    with open(path, "rb") as raw:
        if raw.read(len(magic)) != magic:
            kind = magic.decode("ascii").strip()
            raise FormatError(f"{path}: bad checkpoint magic, expected {kind}")
        size = os.fstat(raw.fileno()).st_size - hashlib.sha256().digest_size
        fh = _HashingReader(raw, magic, size - len(magic))
        mismatch = FormatError(f"{path}: record checksum mismatch")
        try:
            metadata = read_metadata(fh)
            networks = [read_network(fh, dtype) for _ in range(n_networks)]
            arrays = [_read_array(fh) for _ in range(n_arrays)]
        except Exception as exc:  # whatever the parse hit, an altered file is refused as one
            if not fh.intact():
                raise mismatch from exc
            raise
        unread = fh.left
        if not fh.intact():
            raise mismatch
    if unread:
        raise FormatError(f"{path}: record length does not match its contents")
    return metadata, networks, arrays
