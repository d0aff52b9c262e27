"""Atomic, durable, checksummed file writes and retried reads.

Every durability-critical artifact in the repository (weights containers,
pipeline directories, results JSON, benchmark records) goes through this
module.  The contract:

* **Atomic**: content is written to a temporary file in the destination
  directory, flushed, ``fsync``\\ ed and then ``os.replace``\\ d over the target
  — a crash mid-write leaves either the old file or the new file, never a
  truncated hybrid.  The containing directory is fsynced after the rename so
  the *name* is durable too.
* **Grouped**: :func:`write_changed_files` lands a set of files in one
  directory, skipping every file whose bytes on disk are already the new
  bytes (a damaged file differs, so it is rewritten), and syncs the
  directory once after the group instead of once per file.  A pipeline
  export is two groups — the data files, then ``checksums.json`` — so it
  syncs its directory twice, and the sidecar still lands last.
* **Checksummed**: :func:`sha256_bytes` / :func:`sha256_file` give the
  digests a pipeline's ``checksums.json`` records; the weights container
  (:mod:`repro.nn.serialization`) carries its own SHA-256 trailer.  Readers
  verify them and refuse corrupt artifacts with a readable error.
* **Injectable**: the write path carries an ``io.write`` fault point and
  :func:`read_bytes` an ``io.read`` one, so the chaos suite can prove that a
  crash at any moment never leaves partial state behind and that transient
  read errors cost a retry (:func:`repro.reliability.default_read_policy`).
"""

from __future__ import annotations

import hashlib
import os
import tempfile
from contextlib import contextmanager
from typing import IO, Iterator

from repro.reliability.faults import fault_point
from repro.reliability.retry import default_read_policy


def sha256_bytes(data: bytes) -> str:
    """Hex SHA-256 digest of ``data``."""
    return hashlib.sha256(data).hexdigest()


def sha256_file(path: str | os.PathLike, chunk_size: int = 1 << 20) -> str:
    """Hex SHA-256 digest of the file at ``path`` (streamed, constant memory)."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        while True:
            chunk = handle.read(chunk_size)
            if not chunk:
                break
            digest.update(chunk)
    return digest.hexdigest()


def read_bytes(path: str | os.PathLike, kind: str) -> bytes:
    """The whole file at ``path``, read under the default read-retry policy.

    ``kind`` labels the ``io.read`` fault point.  A missing file raises
    ``FileNotFoundError`` at once (it is not retried).
    """
    path = os.fspath(path)

    def attempt() -> bytes:
        fault_point("io.read", path=path, kind=kind)
        with open(path, "rb") as handle:
            return handle.read()

    return default_read_policy().call(attempt)


def fsync_directory(path: str | os.PathLike) -> None:
    """Flush directory metadata so a rename within it survives a crash."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - platforms without dir fds
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


@contextmanager
def atomic_writer(path: str | os.PathLike, mode: str = "wb",
                  encoding: str | None = None,
                  sync_directory: bool = True) -> Iterator[IO]:
    """Yield a handle whose content replaces ``path`` atomically on success.

    On any exception inside the block the temporary file is removed and the
    destination is untouched.  ``mode`` must be a write mode (``"w"``/``"wb"``);
    text mode defaults to UTF-8.  The file is always fsynced before the
    rename; ``sync_directory=False`` leaves the directory fsync to a caller
    that lands several files and syncs once (:func:`write_changed_files`).
    """
    if "w" not in mode:
        raise ValueError(f"atomic_writer needs a write mode, got {mode!r}")
    path = os.fspath(path)
    fault_point("io.write", path=path)
    directory = os.path.dirname(path) or "."
    fd, tmp_path = tempfile.mkstemp(dir=directory,
                                    prefix=os.path.basename(path) + ".",
                                    suffix=".tmp")
    try:
        with os.fdopen(fd, mode, encoding=("utf-8" if encoding is None and "b" not in mode
                                           else encoding)) as handle:
            yield handle
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
        if sync_directory:
            fsync_directory(directory)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def atomic_write_bytes(path: str | os.PathLike, data: bytes) -> str:
    """Atomically write ``data`` to ``path``; returns its SHA-256 hex digest."""
    with atomic_writer(path, "wb") as handle:
        handle.write(data)
    return sha256_bytes(data)


def atomic_write_text(path: str | os.PathLike, text: str) -> str:
    """Atomically write UTF-8 ``text`` to ``path``; returns its SHA-256 digest."""
    return atomic_write_bytes(path, text.encode("utf-8"))


def _bytes_on_disk(path: str) -> bytes | None:
    """The file's bytes, or ``None`` when it cannot be read (it gets rewritten)."""
    try:
        with open(path, "rb") as handle:
            return handle.read()
    except OSError:
        return None


def write_changed_files(directory: str | os.PathLike, files: dict[str, bytes]) -> None:
    """Land ``{name: data}`` in ``directory``, then sync the directory once.

    A file whose bytes on disk already equal ``data`` is left alone; every
    other one is written atomically (temp file, file fsync, rename), in
    ``files`` order, and the last of them syncs the directory.  When nothing
    needs writing the directory is synced anyway, so renames of an earlier,
    interrupted call become durable.
    """
    directory = os.fspath(directory)
    changed = [name for name, data in files.items()
               if _bytes_on_disk(os.path.join(directory, name)) != data]
    for name in changed:
        with atomic_writer(os.path.join(directory, name), "wb",
                           sync_directory=name == changed[-1]) as handle:
            handle.write(files[name])
    if not changed:
        fsync_directory(directory)
