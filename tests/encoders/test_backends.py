"""Encoder-backend registry: every backend must be bit-identical to local.

The contract the serving artifact relies on: ``local`` is the frozen
encoder itself, ``cached`` memoises exact windows (hits
are bit-exact by construction), and every backend round-trips through its
JSON spec via ``backend_from_spec``.
"""

import numpy as np
import pytest

from repro.encoders import FrozenPretrainedEncoder
from repro.encoders.backends import (
    ENCODER_BACKENDS,
    CachedBackend,
    EncoderBackend,
    EncoderBackendError,
    available_encoder_backends,
    backend_from_spec,
    register_encoder_backend,
    spec_fingerprint,
    wrap_encoder,
)


@pytest.fixture(scope="module")
def encoder():
    return FrozenPretrainedEncoder(vocab_size=60, output_dim=12, seed=4)


@pytest.fixture(scope="module")
def window():
    rng = np.random.default_rng(9)
    token_ids = rng.integers(0, 60, size=(7, 10))
    token_ids[:, 7:] = 0  # padded tail
    mask = (token_ids != 0).astype(np.float64)
    return token_ids, mask


#: The ``local`` spec as artifacts record it (the ``encoder`` fixture's).
LOCAL_SPEC = {"kind": "local",
              "encoder": {"vocab_size": 60, "output_dim": 12, "hidden_dim": 64,
                          "context_window": 0, "positional_scale": 0.2,
                          "seed": 4}}


class TestLocalKind:
    """The frozen encoder is itself the ``local`` backend."""

    def test_spec_is_the_pinned_literal(self, encoder, window):
        """Artifacts exported by earlier builds name this spec; it must keep
        rebuilding a bit-identical encoder."""
        token_ids, mask = window
        assert encoder.to_spec() == LOCAL_SPEC
        rebuilt = backend_from_spec(LOCAL_SPEC)
        assert type(rebuilt) is FrozenPretrainedEncoder
        np.testing.assert_array_equal(rebuilt.encode(token_ids, mask),
                                      encoder.encode(token_ids, mask))

    def test_spec_round_trip(self, encoder, window):
        token_ids, mask = window
        spec = encoder.to_spec()
        assert spec["kind"] == "local"
        rebuilt = backend_from_spec(spec)
        assert isinstance(rebuilt, FrozenPretrainedEncoder)
        assert rebuilt.fingerprint() == encoder.fingerprint()
        np.testing.assert_array_equal(rebuilt.encode(token_ids, mask),
                                      encoder.encode(token_ids, mask))

    def test_state_reports_kind_and_fingerprint(self, encoder):
        state = encoder.state()
        assert state["kind"] == "local"
        assert state["fingerprint"] == spec_fingerprint(encoder.to_spec())

    def test_wrap_encoder_construction_path(self, encoder):
        assert wrap_encoder("local", encoder) is encoder
        assert isinstance(encoder, EncoderBackend)

    def test_abstract_properties_still_enforced(self):
        class NoDims(EncoderBackend):
            kind = "unit_no_dims"

            def encode(self, token_ids, mask=None):
                return token_ids

            def to_spec(self):
                return {"kind": self.kind}

            @classmethod
            def from_spec(cls, spec):
                return cls()

        with pytest.raises(TypeError, match="vocab_size"):
            NoDims()


class TestCachedBackend:
    def test_hit_is_bit_identical_and_counted(self, encoder, window):
        token_ids, mask = window
        backend = CachedBackend.from_encoder(encoder)
        first = backend.encode(token_ids, mask)
        second = backend.encode(token_ids, mask)
        np.testing.assert_array_equal(first, encoder.encode(token_ids, mask))
        assert second is first  # exact-match hit returns the stored array
        stats = backend.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["hit_rate"] == pytest.approx(0.5)
        assert stats["entries"] == 1
        assert stats["resident_bytes"] == first.nbytes

    def test_cached_arrays_are_read_only(self, encoder, window):
        token_ids, mask = window
        backend = CachedBackend.from_encoder(encoder)
        states = backend.encode(token_ids, mask)
        with pytest.raises(ValueError):
            states[0, 0, 0] = 1.0

    def test_different_mask_is_a_different_window(self, encoder, window):
        token_ids, mask = window
        backend = CachedBackend.from_encoder(encoder)
        backend.encode(token_ids, mask)
        other_mask = mask.copy()
        other_mask[0, 0] = 0.0
        backend.encode(token_ids, other_mask)
        assert backend.stats()["misses"] == 2 and backend.stats()["hits"] == 0

    def test_lru_eviction_by_entries(self, encoder):
        backend = CachedBackend.from_encoder(encoder, max_entries=2)
        windows = [np.full((1, 4), i + 1) for i in range(3)]
        for ids in windows:
            backend.encode(ids)
        assert backend.stats()["evictions"] == 1
        backend.encode(windows[2])  # newest still resident
        backend.encode(windows[0])  # oldest was evicted -> miss, re-inserted
        stats = backend.stats()
        assert stats["hits"] == 1 and stats["misses"] == 4
        assert stats["evictions"] == 2
        assert stats["entries"] <= 2

    def test_eviction_by_bytes_keeps_one_over_budget_window(self, encoder, window):
        token_ids, mask = window
        backend = CachedBackend.from_encoder(encoder, max_bytes=1)
        states = backend.encode(token_ids, mask)
        assert states.nbytes > 1
        stats = backend.stats()
        # A single window larger than the budget must still be servable (and
        # cached) rather than thrashing on every request.
        assert stats["entries"] == 1
        assert backend.encode(token_ids, mask) is states
        backend.encode(token_ids[:2], mask[:2])  # second insert forces eviction
        assert backend.stats()["evictions"] >= 1

    def test_invalidate_drops_everything_and_cascades(self, encoder, window):
        token_ids, mask = window
        backend = CachedBackend(CachedBackend.from_encoder(encoder))
        backend.encode(token_ids, mask)
        backend.invalidate()
        stats = backend.stats()
        assert stats["entries"] == 0 and stats["resident_bytes"] == 0
        assert stats["invalidations"] == 1
        assert stats["inner_invalidations"] == 1  # cascaded to the inner cache
        backend.encode(token_ids, mask)
        assert backend.stats()["misses"] == 2  # the window really was dropped

    def test_spec_round_trip_preserves_bounds(self, encoder, window):
        token_ids, mask = window
        backend = CachedBackend.from_encoder(encoder, max_entries=7, max_bytes=12345)
        rebuilt = backend_from_spec(backend.to_spec())
        assert isinstance(rebuilt, CachedBackend)
        assert rebuilt.max_entries == 7 and rebuilt.max_bytes == 12345
        assert rebuilt.fingerprint() == backend.fingerprint()
        np.testing.assert_array_equal(rebuilt.encode(token_ids, mask),
                                      encoder.encode(token_ids, mask))

    def test_invalid_bounds_rejected(self, encoder):
        with pytest.raises(ValueError):
            CachedBackend.from_encoder(encoder, max_entries=0)
        with pytest.raises(ValueError):
            CachedBackend.from_encoder(encoder, max_bytes=0)


class TestRegistry:
    def test_stock_kinds_registered(self):
        assert set(available_encoder_backends()) >= {"local", "cached"}

    def test_retired_remote_kind_fails_as_unknown(self, encoder):
        """``encoder_backend="remote"`` and a ``kind: remote`` manifest entry
        hit the same readable unknown-kind error as any unregistered kind."""
        with pytest.raises(EncoderBackendError,
                           match="unknown encoder backend kind 'remote'"):
            wrap_encoder("remote", encoder)
        with pytest.raises(EncoderBackendError,
                           match="unknown encoder backend kind 'remote'"):
            backend_from_spec({"kind": "remote", "encoder": LOCAL_SPEC["encoder"]})

    def test_unknown_kind_names_the_register_call(self):
        with pytest.raises(EncoderBackendError, match="register_encoder_backend"):
            backend_from_spec({"kind": "nonexistent_backend"})
        with pytest.raises(EncoderBackendError, match="unknown encoder backend"):
            wrap_encoder("nonexistent_backend", None)

    def test_malformed_spec_rejected(self):
        with pytest.raises(EncoderBackendError, match="kind"):
            backend_from_spec({"no": "kind"})
        with pytest.raises(EncoderBackendError, match="kind"):
            backend_from_spec("local")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_encoder_backend("local", FrozenPretrainedEncoder)
        with pytest.raises(ValueError, match="non-empty"):
            register_encoder_backend("", FrozenPretrainedEncoder)

    def test_custom_backend_round_trips(self, encoder, window):
        token_ids, mask = window

        class NegatingBackend(EncoderBackend):
            """A deliberately non-local transform, to prove the spec path."""

            kind = "unit_negating"

            def __init__(self, inner):
                self.inner = inner

            @property
            def vocab_size(self):
                return self.inner.vocab_size

            @property
            def output_dim(self):
                return self.inner.output_dim

            def encode(self, token_ids, mask=None):
                return -self.inner.encode(token_ids, mask)

            def to_spec(self):
                return {"kind": self.kind, "inner": self.inner.to_spec()}

            @classmethod
            def from_spec(cls, spec):
                return cls(backend_from_spec(spec["inner"]))

        register_encoder_backend("unit_negating", NegatingBackend)
        try:
            backend = NegatingBackend(encoder)
            rebuilt = backend_from_spec(backend.to_spec())
            np.testing.assert_array_equal(rebuilt.encode(token_ids, mask),
                                          -encoder.encode(token_ids, mask))
            assert rebuilt.fingerprint() == backend.fingerprint()
        finally:
            ENCODER_BACKENDS.pop("unit_negating", None)

    def test_fingerprint_is_spec_content_hash(self, encoder):
        backend = encoder
        assert backend.fingerprint() == spec_fingerprint(backend.to_spec())
        other = FrozenPretrainedEncoder(60, output_dim=12, seed=5)
        assert other.fingerprint() != backend.fingerprint()


class TestMaskValidation:
    """PR-8 bugfix: a mis-shaped mask must fail loudly, not broadcast."""

    def test_encoder_rejects_mismatched_mask(self, encoder):
        token_ids = np.array([[1, 2, 3, 0]])
        with pytest.raises(ValueError, match="mask shape"):
            encoder.encode(token_ids, np.ones((1, 3)))
        with pytest.raises(ValueError, match="mask shape"):
            encoder.encode(token_ids, np.ones((2, 4)))

    def test_matching_mask_still_accepted(self, encoder):
        token_ids = np.array([[1, 2, 3, 0]])
        mask = np.array([[1.0, 1.0, 1.0, 0.0]])
        assert encoder.encode(token_ids, mask).shape == (1, 4, 12)
