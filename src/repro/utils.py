"""Small shared utilities: seeding and batching helpers."""

from __future__ import annotations

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
