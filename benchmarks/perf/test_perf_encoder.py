"""Encoder-backend benchmarks: the cached backend must actually pay rent.

Serving traffic repeats windows (health probes, hot stories, retried rows),
and ``CachedBackend`` turns each repeat into a dict lookup instead of the
frozen encoder's per-row GEMMs.  The ``perf``-marked benchmark calibrates
the repeat-traffic speedup and records it into ``BENCH_engine.json``; the
unmarked smoke runs in every tier-1 collection pinning the two properties
the speedup is allowed to rely on — hits are bit-identical to local answers
and the decorator adds no error to misses.

Run the calibrated version with ``pytest benchmarks/perf --run-perf -k
encoder``.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from _bench_utils import record_bench

from repro.encoders import CachedBackend, FrozenPretrainedEncoder


def _windows(vocab_size: int, rows: int, seq: int, count: int):
    rng = np.random.default_rng(17)
    windows = []
    for _ in range(count):
        token_ids = rng.integers(1, vocab_size, size=(rows, seq))
        token_ids[:, seq - 3:] = 0
        mask = (token_ids != 0).astype(np.float64)
        windows.append((token_ids, mask))
    return windows


def _repeat_pass_seconds(backend, windows, repeats: int) -> float:
    start = time.perf_counter()
    for _ in range(repeats):
        for token_ids, mask in windows:
            backend.encode(token_ids, mask)
    return time.perf_counter() - start


def test_cached_backend_parity_smoke():
    """Tier-1 guard: cache hits are bit-identical and actually served."""
    encoder = FrozenPretrainedEncoder(vocab_size=80, output_dim=8, seed=2)
    cached = CachedBackend(encoder)
    for token_ids, mask in _windows(80, rows=4, seq=8, count=3):
        expected = encoder.encode(token_ids, mask)
        np.testing.assert_array_equal(cached.encode(token_ids, mask), expected)
        np.testing.assert_array_equal(cached.encode(token_ids, mask), expected)
    stats = cached.stats()
    assert stats["hits"] == 3 and stats["misses"] == 3
    assert stats["hit_rate"] == pytest.approx(0.5)


@pytest.mark.perf
def test_cached_backend_repeat_traffic_speedup_calibrated():
    """Repeat traffic through the cache must beat re-encoding handily."""
    encoder = FrozenPretrainedEncoder(vocab_size=2000, output_dim=64, seed=2)
    windows = _windows(2000, rows=32, seq=24, count=8)
    repeats = 12

    _repeat_pass_seconds(encoder, windows, 1)  # warm-up
    local_s = min(_repeat_pass_seconds(encoder, windows, repeats)
                  for _ in range(3))

    cached = CachedBackend(encoder)
    _repeat_pass_seconds(cached, windows, 1)  # populate
    cached_s = min(_repeat_pass_seconds(cached, windows, repeats)
                   for _ in range(3))
    assert cached.stats()["hit_rate"] > 0.9

    speedup = local_s / cached_s
    per_window_us = cached_s / (repeats * len(windows)) * 1e6
    record_bench("engine", [{
        "name": "encoder/cached_backend_repeat_speedup",
        "speedup_vs_local": round(speedup, 1),
        "local_s": round(local_s, 4),
        "cached_s": round(cached_s, 4),
        "hit_us_per_window": round(per_window_us, 2),
    }])
    print(f"cached backend repeat traffic: {speedup:.1f}x vs local "
          f"({per_window_us:.1f} µs/window hit)")
    # A hit is a BLAKE2b of the window bytes + a dict lookup; the local path
    # is per-row GEMMs. Anything under 5x means the cache path regressed.
    assert speedup > 5.0, f"cached speedup only {speedup:.1f}x"
