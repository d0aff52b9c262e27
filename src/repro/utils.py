"""Small shared utilities: seeding, batching and the BLAS thread pin."""

from __future__ import annotations

import os
from typing import Iterator

import numpy as np


def seeded_rng(seed: int | None = None) -> np.random.Generator:
    """Return a NumPy random generator; every experiment threads one of these."""
    return np.random.default_rng(seed)


# --------------------------------------------------------------------------- #
# Experiment-wide seed (the fallback for components built without an rng)      #
# --------------------------------------------------------------------------- #
# Modules that take an optional generator (Dropout, the initialisers, shuffle
# helpers) used to fall back to an *unseeded* ``np.random.default_rng()``,
# which silently broke run-to-run reproducibility for any model built without
# an explicit rng.  They now draw from one process-wide stream seeded here;
# ``repro.experiments.runner.prepare_data`` installs the experiment's seed, so
# two identical runs see identical fallback randomness.  Explicitly threaded
# generators are unaffected.
_GLOBAL_SEED: int = 0
_FALLBACK_RNG: np.random.Generator = np.random.default_rng(0)


def set_global_seed(seed: int) -> int:
    """Install ``seed`` as the experiment-wide seed; returns the previous one.

    Resets the shared fallback stream, so everything built afterwards without
    an explicit generator is reproducible given the same construction order.
    """
    global _GLOBAL_SEED, _FALLBACK_RNG
    previous = _GLOBAL_SEED
    _GLOBAL_SEED = int(seed)
    _FALLBACK_RNG = np.random.default_rng(_GLOBAL_SEED)
    return previous


def get_global_seed() -> int:
    """Return the currently installed experiment-wide seed."""
    return _GLOBAL_SEED


def fallback_rng() -> np.random.Generator:
    """The shared deterministic stream used when no generator is passed."""
    return _FALLBACK_RNG


def get_rng_state() -> dict:
    """JSON-serialisable state of the fallback stream (for training snapshots)."""
    return _FALLBACK_RNG.bit_generator.state


def set_rng_state(state: dict) -> None:
    """Restore the fallback stream to a state from :func:`get_rng_state`.

    Mutates the existing generator in place, so components that captured the
    generator object (rather than calling :func:`fallback_rng` per draw) see
    the restored stream too.
    """
    _FALLBACK_RNG.bit_generator.state = state


def spawn_rngs(seed: int, count: int) -> list[np.random.Generator]:
    """Derive ``count`` independent generators from one seed (for sub-modules)."""
    sequence = np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in sequence.spawn(count)]


def batched_indices(n: int, batch_size: int, rng: np.random.Generator | None = None,
                    shuffle: bool = True, drop_last: bool = False) -> Iterator[np.ndarray]:
    """Yield index batches over ``range(n)``.

    The epoch's index order is materialised exactly once; each yielded batch
    is a zero-copy view into that array rather than a per-batch allocation.
    """
    if batch_size <= 0:
        raise ValueError("batch_size must be positive")
    order = np.arange(n)
    if shuffle:
        rng = rng if rng is not None else fallback_rng()
        rng.shuffle(order)
    full_batches, remainder = divmod(n, batch_size)
    stop = full_batches * batch_size if (drop_last and remainder) else n
    if stop <= 0:
        return
    yield from np.split(order[:stop], range(batch_size, stop, batch_size))


# --------------------------------------------------------------------------- #
# One BLAS thread                                                              #
# --------------------------------------------------------------------------- #
# OpenBLAS splits a large GEMM differently with more threads, so results are
# bit-reproducible only under one fixed thread count; every entry point that
# computes results runs on one.
def openblas_thread_controls():
    """``(set, get)`` thread-count functions of the loaded OpenBLAS.

    Both are ``None`` when no recognisable OpenBLAS is mapped into the
    process (load NumPy first).
    """
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            libraries = sorted({line.split()[-1] for line in handle
                                if "openblas" in line.lower() and "/" in line})
    except OSError:
        libraries = []
    for library in libraries:
        handle = ctypes.CDLL(library)
        for suffix in ("scipy_openblas_{}_num_threads64_",
                       "openblas_{}_num_threads64_", "openblas_{}_num_threads"):
            setter = getattr(handle, suffix.format("set"), None)
            getter = getattr(handle, suffix.format("get"), None)
            if setter is not None and getter is not None:
                getter.restype = ctypes.c_int
                return (lambda threads: setter(ctypes.c_int(threads)),
                        lambda: int(getter()))
    return None, None


def pin_blas_threads() -> int | None:
    """Run BLAS on one thread in this process and every process it spawns.

    Sets ``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` and
    ``MKL_NUM_THREADS`` to 1 (a child's BLAS reads them when it loads) and
    pins the already-loaded OpenBLAS through its own setter.  Returns the
    thread count the loaded OpenBLAS reports afterwards, or ``None`` when no
    recognisable OpenBLAS is loaded.
    """
    for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[variable] = "1"
    setter, getter = openblas_thread_controls()
    if getter is None:
        return None
    if getter() != 1:
        setter(1)
    return getter()
