"""One flat, content-addressed weights format for every saved set of arrays.

Checkpoints (:func:`save_checkpoint`), the weights of a :mod:`repro.serve`
pipeline artifact (``weights.bin``) and training snapshots
(``Trainer.snapshot``) are all one container::

    magic    8 bytes   b"REPROWTS"
    version  4 bytes   uint32 little-endian, WEIGHTS_FORMAT_VERSION
    length   4 bytes   uint32 little-endian byte length of the index
    index    sorted-key JSON: {"arrays": [{"dtype", "name", "offset",
             "shape"}, ...], "meta": {...}}  ("meta" is optional)
    padding  zeros up to a 64-byte boundary
    buffer   each array's raw C-order bytes at a 64-byte-aligned offset
             from the buffer start, zero-padded in between
    trailer  32 bytes  SHA-256 of everything above

Nothing in the file depends on when or where it was written, so identical
state gives identical bytes, and the file's SHA-256 is both its integrity
check and its fingerprint (``Pipeline.fingerprint`` hashes it).  Loading is
one read, one SHA-256 over the body and then zero-copy views into the buffer.

Writes are atomic (temp file + fsync + ``os.replace`` via
:mod:`repro.reliability.durable`); reads go through
:func:`repro.reliability.durable.read_bytes` (the ``io.read`` fault point
and a short transient-error retry — corruption is permanent and never
retried).  Damage anywhere — magic, index, buffer, trailer or a truncated
tail — is refused with a :class:`CheckpointError` naming the file, and so
are the ``.npz`` archives earlier builds wrote, with a hint to re-save them.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
from typing import Mapping

import numpy as np

from repro.nn.module import Module
from repro.reliability.durable import atomic_write_bytes, read_bytes

#: Bump when the container layout changes incompatibly.  The magic, this
#: version field and the SHA-256 trailer keep their places in every version,
#: so an older build can always name a newer file's version.
WEIGHTS_FORMAT_VERSION = 1

MAGIC = b"REPROWTS"
_PREFIX = struct.Struct("<8sII")
_ALIGN = 64
_DIGEST_BYTES = 32
#: Every ``.npz`` (a zip archive) starts with a local-file-header signature.
_NPZ_MAGIC = b"PK\x03\x04"
_DAMAGED = "restore it from a backup or write it again"


class CheckpointError(ValueError):
    """A weights file is damaged, of another format, or does not fit the model."""


def _aligned(size: int) -> int:
    return -(-size // _ALIGN) * _ALIGN


def encode_weights(arrays: Mapping[str, np.ndarray],
                   meta: dict | None = None) -> bytearray:
    """The container bytes for ``arrays`` (name -> array) plus JSON ``meta``."""
    entries, chunks, end = [], [], 0
    for name in sorted(arrays):
        array = np.asarray(arrays[name])
        if array.dtype.hasobject:
            raise TypeError(f"array '{name}' holds Python objects; only numeric "
                            "arrays can be saved")
        offset = _aligned(end)
        entries.append({"name": name, "dtype": array.dtype.str,
                        "shape": list(array.shape), "offset": offset})
        chunks.append((offset, array))
        end = offset + array.nbytes
    index = {"arrays": entries}
    if meta is not None:
        index["meta"] = meta
    encoded = json.dumps(index, sort_keys=True, separators=(",", ":")).encode("utf-8")
    start = _aligned(_PREFIX.size + len(encoded))
    blob = bytearray(start + end + _DIGEST_BYTES)
    _PREFIX.pack_into(blob, 0, MAGIC, WEIGHTS_FORMAT_VERSION, len(encoded))
    blob[_PREFIX.size:_PREFIX.size + len(encoded)] = encoded
    for offset, array in chunks:
        blob[start + offset:start + offset + array.nbytes] = array.tobytes()
    blob[-_DIGEST_BYTES:] = hashlib.sha256(memoryview(blob)[:-_DIGEST_BYTES]).digest()
    return blob


def decode_weights(data: bytes, path: str | os.PathLike
                   ) -> tuple[dict | None, dict[str, np.ndarray]]:
    """Verify and parse container bytes read from ``path``; ``(meta, arrays)``.

    The arrays are read-only views into ``data``.  Every refusal is a
    :class:`CheckpointError` naming ``path``.
    """
    path = os.fspath(path)
    if data[:len(_NPZ_MAGIC)] == _NPZ_MAGIC:
        raise CheckpointError(
            f"'{path}' is an .npz archive written by an older repro build; this "
            f"build reads only weights format version {WEIGHTS_FORMAT_VERSION} — "
            "load it with the build that wrote it and re-save it, or re-export "
            "the model")
    if len(data) < _PREFIX.size + _DIGEST_BYTES or data[:len(MAGIC)] != MAGIC:
        raise CheckpointError(
            f"'{path}' is not a repro weights file (bad magic bytes); it is "
            f"corrupt or truncated — {_DAMAGED}")
    body = memoryview(data)[:-_DIGEST_BYTES]
    if hashlib.sha256(body).digest() != data[-_DIGEST_BYTES:]:
        raise CheckpointError(
            f"'{path}' failed its SHA-256 check; it is corrupt or truncated — "
            f"{_DAMAGED}")
    _, version, length = _PREFIX.unpack_from(data)
    if version != WEIGHTS_FORMAT_VERSION:
        raise CheckpointError(
            f"'{path}' has weights format version {version}, but this build "
            f"reads only version {WEIGHTS_FORMAT_VERSION}; use the repro build "
            "that wrote it")
    start = _aligned(_PREFIX.size + length)
    try:
        index = json.loads(bytes(body[_PREFIX.size:_PREFIX.size + length]))
        arrays = {}
        for entry in index["arrays"]:
            dtype = np.dtype(entry["dtype"])
            shape = tuple(entry["shape"])
            count = math.prod(shape)
            offset = start + entry["offset"]
            if offset + count * dtype.itemsize > len(body):
                raise ValueError(f"array '{entry['name']}' extends past the buffer")
            arrays[entry["name"]] = np.frombuffer(
                data, dtype=dtype, count=count, offset=offset).reshape(shape)
    except (ValueError, TypeError, KeyError) as error:
        raise CheckpointError(
            f"'{path}' has an unreadable index ({type(error).__name__}: "
            f"{error}); the file is corrupt — {_DAMAGED}") from error
    return index.get("meta"), arrays


def checkpoint_bytes(module: Module) -> bytearray:
    """The exact bytes :func:`save_checkpoint` writes for ``module``."""
    return encode_weights(module.state_dict())


def save_checkpoint(module: Module, path: str | os.PathLike) -> str:
    """Atomically write ``module``'s parameters to ``path``; returns the file's SHA-256.

    The file lands via temp-file + fsync + ``os.replace``: a crash at any
    point leaves either the previous checkpoint or the complete new one.
    """
    return atomic_write_bytes(path, checkpoint_bytes(module))


def restore_checkpoint(module: Module, data: bytes, path: str | os.PathLike) -> None:
    """Load checkpoint bytes read from ``path`` into ``module``.

    Everything is checked before any parameter is touched: the container
    (see :func:`decode_weights`), that it is a checkpoint rather than a
    training snapshot, and every parameter's shape — a mismatch raises
    :class:`CheckpointError` naming each offending parameter.  Arrays are
    cast to each parameter's current dtype, so a float64-trained checkpoint
    loads into a float32 model and vice versa.
    """
    path = os.fspath(path)
    meta, state = decode_weights(data, path)
    if meta is not None:
        raise CheckpointError(
            f"'{path}' holds a training snapshot, not a checkpoint; restore it "
            "with Trainer.resume")
    own = dict(module._all_parameters_even_frozen())
    mismatched = [
        f"  {name}: checkpoint {state[name].shape} vs model {own[name].data.shape}"
        for name in sorted(set(state) & set(own))
        if state[name].shape != own[name].data.shape
    ]
    if mismatched:
        raise CheckpointError(
            f"checkpoint '{path}' does not fit {type(module).__name__}: "
            "parameter shapes differ (was the model built with a different "
            "ModelConfig?)\n" + "\n".join(mismatched))
    module.load_state_dict(state)


def load_checkpoint(module: Module, path: str | os.PathLike) -> None:
    """Load a checkpoint written by :func:`save_checkpoint` into ``module``.

    See :func:`restore_checkpoint` for the checks.  Casting parameters alone
    does not move *compute* to another dtype: batch features, masks and zero
    states follow the global policy (:func:`repro.tensor.set_default_dtype`).
    """
    try:
        data = read_bytes(path, kind="checkpoint")
    except FileNotFoundError:
        raise CheckpointError(f"no checkpoint at '{os.fspath(path)}'") from None
    restore_checkpoint(module, data, path)
