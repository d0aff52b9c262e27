"""Weight initialisation schemes.

All initialisers take an explicit ``numpy.random.Generator`` so that every
experiment in the reproduction is exactly repeatable from a single seed.
"""

from __future__ import annotations

import numpy as np

from repro.tensor.dtype import get_default_dtype
from repro.tensor.tensor import Tensor
from repro.utils import fallback_rng


def _rng(rng: np.random.Generator | None) -> np.random.Generator:
    # The experiment-wide fallback stream keeps unseeded construction
    # reproducible run-to-run (see repro.utils.set_global_seed).
    return rng if rng is not None else fallback_rng()


def xavier_uniform(shape: tuple[int, ...], rng: np.random.Generator | None = None,
                   gain: float = 1.0) -> Tensor:
    """Glorot/Xavier uniform initialisation for weight matrices."""
    rng = _rng(rng)
    fan_in, fan_out = _fans(shape)
    limit = gain * np.sqrt(6.0 / (fan_in + fan_out))
    return Tensor(rng.uniform(-limit, limit, size=shape), requires_grad=True)


def normal(shape: tuple[int, ...], std: float = 0.02,
           rng: np.random.Generator | None = None) -> Tensor:
    rng = _rng(rng)
    return Tensor(rng.normal(0.0, std, size=shape), requires_grad=True)


def zeros(shape: tuple[int, ...]) -> Tensor:
    return Tensor(np.zeros(shape, dtype=get_default_dtype()), requires_grad=True)


def ones(shape: tuple[int, ...]) -> Tensor:
    return Tensor(np.ones(shape, dtype=get_default_dtype()), requires_grad=True)


def _fans(shape: tuple[int, ...]) -> tuple[int, int]:
    if len(shape) < 1:
        raise ValueError("initialisation requires at least a 1-D shape")
    if len(shape) == 1:
        return shape[0], shape[0]
    receptive = int(np.prod(shape[2:])) if len(shape) > 2 else 1
    fan_in = shape[0] * receptive
    fan_out = shape[1] * receptive
    return fan_in, fan_out
