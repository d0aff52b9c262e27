"""Raw-text Predictor: training-parity encoding, batching and micro-batching.

The load-bearing test here is the *parity* suite: the serving path must
produce byte-identical token ids, masks, feature channels and probabilities
to the training-time :class:`repro.data.DataLoader` for the same texts — in
both engine dtypes.  Serving computes only the channels the model reads, and
each of those equals the loader's.  That is the contract that makes an
exported pipeline's predictions trustworthy stand-ins for the table numbers.
"""

import numpy as np
import pytest

from repro.data import DataLoader, MultiDomainNewsDataset, NewsItem
from repro.encoders import (
    EmotionChannel,
    PLMChannel,
    StyleChannel,
    stock_channels,
)
from repro.models import build_model
from repro.serve import Pipeline
from repro.tensor import default_dtype

DTYPES = ("float64", "float32")


@pytest.fixture(scope="module")
def probe_items(tiny_splits):
    return tiny_splits.test.items[:8]


def _pipeline(model_config, tiny_vocab, tiny_encoder, tiny_dataset, dtype,
              name="textcnn_s"):
    with default_dtype(dtype):
        model = build_model(name, model_config)
    return Pipeline.from_training(model, tiny_vocab, tiny_encoder, max_length=16,
                                  domain_names=tiny_dataset.domain_names)


@pytest.mark.parametrize("dtype", DTYPES)
class TestTrainingParity:
    """Serve-side encoding must equal the DataLoader encode bit-for-bit."""

    def _loader(self, items, tiny_dataset, tiny_vocab, tiny_encoder, dtype):
        dataset = MultiDomainNewsDataset(items, tiny_dataset.domain_names,
                                         name="parity")
        with default_dtype(dtype):
            return DataLoader(dataset, tiny_vocab, max_length=16,
                              batch_size=len(items), shuffle=False,
                              channels=stock_channels(tiny_encoder))

    # One model per stock channel combination, so plm, style and emotion
    # all stay under serve/loader parity.
    @pytest.mark.parametrize("name", ["textcnn_s", "m3fend", "dualemo", "stylelstm"])
    def test_encode_batch_matches_dataloader(self, dtype, name, model_config,
                                             tiny_vocab, tiny_encoder, tiny_dataset,
                                             probe_items):
        pipeline = _pipeline(model_config, tiny_vocab, tiny_encoder, tiny_dataset,
                             dtype, name=name)
        predictor = pipeline.predictor()
        loader = self._loader(probe_items, tiny_dataset, tiny_vocab, tiny_encoder, dtype)
        expected = loader.full_batch()
        batch = predictor.encode_batch([item.text for item in probe_items],
                                       domains=[item.domain for item in probe_items])
        np.testing.assert_array_equal(batch.token_ids, expected.token_ids)
        assert batch.mask.dtype == expected.mask.dtype == np.dtype(dtype)
        np.testing.assert_array_equal(batch.mask, expected.mask)
        np.testing.assert_array_equal(batch.domains, expected.domains)
        # Serving computes exactly the channels the model reads.
        assert tuple(batch.features) == pipeline.model.required_features
        for channel in batch.features:
            assert batch.features[channel].dtype == expected.features[channel].dtype
            np.testing.assert_array_equal(batch.features[channel],
                                          expected.features[channel])

    def test_probabilities_match_training_batch_path(self, dtype, model_config,
                                                     tiny_vocab, tiny_encoder,
                                                     tiny_dataset, probe_items):
        """predict_proba over raw text == model.predict_proba over loader batch."""
        pipeline = _pipeline(model_config, tiny_vocab, tiny_encoder, tiny_dataset, dtype)
        loader = self._loader(probe_items, tiny_dataset, tiny_vocab, tiny_encoder, dtype)
        with default_dtype(dtype):
            expected = pipeline.model.predict_proba(loader.full_batch())
        observed = pipeline.predictor().predict_proba(
            [item.text for item in probe_items],
            domains=[item.domain for item in probe_items])
        np.testing.assert_array_equal(observed, expected)

    def test_truncation_parity_for_overlong_text(self, dtype, model_config, tiny_vocab,
                                                 tiny_encoder, tiny_dataset):
        long_text = " ".join(f"token{i}" for i in range(50))
        items = [NewsItem(text=long_text, label=0, domain=0,
                          domain_name=tiny_dataset.domain_names[0])]
        pipeline = _pipeline(model_config, tiny_vocab, tiny_encoder, tiny_dataset, dtype)
        loader = self._loader(items, tiny_dataset, tiny_vocab, tiny_encoder, dtype)
        batch = pipeline.predictor().encode_batch([long_text], domains=[0])
        np.testing.assert_array_equal(batch.token_ids, loader.full_batch().token_ids)
        assert batch.token_ids.shape[1] == 16
        assert batch.mask.sum() == 16


class _ServeCounter:
    """Mixin counting :meth:`~repro.encoders.FeatureChannel.serve` calls."""

    served = 0

    def serve(self, request):
        self.served += 1
        return super().serve(request)


class SpyStyle(_ServeCounter, StyleChannel):
    pass


class SpyEmotion(_ServeCounter, EmotionChannel):
    pass


class TestServedChannels:
    """Serving computes only the channels the model reads."""

    def _spied(self, name, model_config, tiny_vocab, tiny_encoder, tiny_dataset):
        backend = tiny_encoder
        with default_dtype("float64"):
            model = build_model(name, model_config)
        channels = [PLMChannel(backend), SpyStyle(), SpyEmotion()]
        pipeline = Pipeline.from_training(model, tiny_vocab, backend, max_length=16,
                                          domain_names=tiny_dataset.domain_names,
                                          channels=channels)
        return pipeline, channels[1], channels[2]

    def test_student_never_serves_style_or_emotion(self, model_config, tiny_vocab,
                                                  tiny_encoder, tiny_dataset,
                                                  probe_items):
        pipeline, style, emotion = self._spied("textcnn_s", model_config, tiny_vocab,
                                               tiny_encoder, tiny_dataset)
        predictor = pipeline.predictor()
        predictor.predict([item.text for item in probe_items])
        predictor.predict_safe(["health probe", ""])
        assert predictor.health()["checks"]["inference"] == "ok"
        assert (style.served, emotion.served) == (0, 0)
        assert [channel.name for channel in pipeline.served_channels] == ["plm"]
        # The manifest still records every channel.
        assert [spec["kind"] for spec in pipeline.manifest()["feature_channels"]] == [
            "plm", "style", "emotion"]

    def test_multi_view_model_serves_every_channel_it_reads(
            self, model_config, tiny_vocab, tiny_encoder, tiny_dataset, probe_items):
        pipeline, style, emotion = self._spied("m3fend", model_config, tiny_vocab,
                                               tiny_encoder, tiny_dataset)
        pipeline.predictor().predict([item.text for item in probe_items])
        assert (style.served, emotion.served) == (1, 1)


class TestPredict:
    def test_predictions_are_structured(self, model_config, tiny_vocab, tiny_encoder,
                                        tiny_dataset, probe_items):
        pipeline = _pipeline(model_config, tiny_vocab, tiny_encoder, tiny_dataset,
                             "float64")
        predictions = pipeline.predictor().predict(
            [item.text for item in probe_items],
            domains=[item.domain for item in probe_items])
        assert len(predictions) == len(probe_items)
        for item, prediction in zip(probe_items, predictions):
            assert prediction.label in (0, 1)
            assert prediction.label_name == ("fake" if prediction.label else "real")
            assert prediction.probabilities[1] == pytest.approx(
                prediction.probability_fake)
            assert sum(prediction.probabilities) == pytest.approx(1.0)
            assert prediction.domain == item.domain_name
            assert prediction.latency_ms > 0

    def test_empty_input(self, model_config, tiny_vocab, tiny_encoder, tiny_dataset):
        pipeline = _pipeline(model_config, tiny_vocab, tiny_encoder, tiny_dataset,
                             "float64")
        assert pipeline.predictor().predict([]) == []

    def test_domain_resolution(self, model_config, tiny_vocab, tiny_encoder,
                               tiny_dataset):
        pipeline = _pipeline(model_config, tiny_vocab, tiny_encoder, tiny_dataset,
                             "float64")
        predictor = pipeline.predictor(default_domain=tiny_dataset.domain_names[2])
        assert predictor.default_domain == 2
        batch = predictor.encode_batch(["a b", "c d", "e f"],
                                       domains=[None, "science", 1])
        science = tiny_dataset.domain_names.index("science")
        np.testing.assert_array_equal(batch.domains, [2, science, 1])
        with pytest.raises(KeyError, match="unknown domain"):
            predictor.encode_batch(["x"], domains=["galactic"])
        with pytest.raises(KeyError, match="outside"):
            predictor.encode_batch(["x"], domains=[99])
        with pytest.raises(ValueError, match="domains"):
            predictor.encode_batch(["x", "y"], domains=[0])

    @pytest.mark.parametrize("domain", [1.5, 1.9, True, [1], {"x": 1}])
    def test_malformed_domain_is_unknown(self, domain, model_config, tiny_vocab,
                                         tiny_encoder, tiny_dataset):
        """A domain is None, a name or an integer index; anything else is
        refused like an unknown domain instead of being coerced by int().
        As the whole ``domains`` argument, anything but those or a list is
        refused as malformed."""
        predictor = _pipeline(model_config, tiny_vocab, tiny_encoder,
                              tiny_dataset, "float64").predictor()
        with pytest.raises(KeyError, match="name or an integer index"):
            predictor.predict(["x"], domains=[domain])
        if not isinstance(domain, list):
            for call in (predictor.predict, predictor.predict_safe):
                with pytest.raises(ValueError, match="an integer index or a list"):
                    call(["x"], domains=domain)
        queue = predictor.microbatch(max_batch=4, max_latency_ms=1e9)
        with pytest.raises(KeyError, match="name or an integer index"):
            queue.submit("x", domain)
        assert queue.stats.rejected == 1
        [served] = predictor.predict(["x"], domains=[np.int64(1)])
        assert served.domain == tiny_dataset.domain_names[1]

    def test_domain_conditioning_reaches_the_model(self, model_config, tiny_vocab,
                                                   tiny_encoder, tiny_dataset):
        """A domain-gated model must produce different outputs per domain."""
        pipeline = _pipeline(model_config, tiny_vocab, tiny_encoder, tiny_dataset,
                             "float64", name="mdfend")
        predictor = pipeline.predictor()
        text = "dom0_topic1 common_word emo_neutral2"
        p0 = predictor.predict_proba([text], domains=[0])
        p5 = predictor.predict_proba([text], domains=[5])
        assert not np.array_equal(p0, p5)

    def test_bucketed_padding_shrinks_time_axis(self, model_config, tiny_vocab,
                                                tiny_encoder, tiny_dataset):
        pipeline = _pipeline(model_config, tiny_vocab, tiny_encoder, tiny_dataset,
                             "float64")
        bucketed = pipeline.predictor(bucket_size=4)
        batch = bucketed.encode_batch(["a b c", "d e f g h"])
        assert batch.token_ids.shape[1] == 8  # 5 tokens -> next multiple of 4
        assert batch.features["plm"].shape[1] == 8
        # never exceeds the training max_length, default path always pads to it
        wide = bucketed.encode_batch([" ".join(["t"] * 40)])
        assert wide.token_ids.shape[1] == 16
        default = pipeline.predictor().encode_batch(["a b c"])
        assert default.token_ids.shape[1] == 16

    def test_bucket_below_widest_kernel_is_refused(self, model_config, tiny_vocab,
                                                   tiny_encoder, tiny_dataset):
        """``textcnn`` reads up to 10 positions: a shorter bucket is refused at
        construction and at reload, and a 10-wide bucket scores a one-token
        text."""
        pipeline = _pipeline(model_config, tiny_vocab, tiny_encoder, tiny_dataset,
                             "float64", name="textcnn")
        with pytest.raises(ValueError, match=r"bucket_size 4 .* kernel 10"):
            pipeline.predictor(bucket_size=4)
        probabilities = pipeline.predictor(bucket_size=10).predict_proba(["a"])
        assert probabilities.shape == (1, 2)
        assert np.isfinite(probabilities).all()
        narrow = _pipeline(model_config, tiny_vocab, tiny_encoder, tiny_dataset,
                           "float64").predictor(bucket_size=4)
        served = narrow.pipeline
        with pytest.raises(ValueError, match=r"bucket_size 4 .* kernel 10"):
            narrow.reload(pipeline)
        assert narrow.pipeline is served and narrow.reloads == 0

    def test_predict_iter_streams_in_chunks(self, model_config, tiny_vocab,
                                            tiny_encoder, tiny_dataset, probe_items):
        pipeline = _pipeline(model_config, tiny_vocab, tiny_encoder, tiny_dataset,
                             "float64")
        predictor = pipeline.predictor()
        texts = [item.text for item in probe_items]
        domains = [item.domain for item in probe_items]
        streamed = list(predictor.predict_iter(iter(texts), domains=iter(domains),
                                               batch_size=3))
        # Exact equality holds chunk-by-chunk (same batch shapes); against the
        # one-shot full batch only up to BLAS batch-shape rounding (see the
        # "bit-exactness" notes in PERFORMANCE.md).
        chunked = [p for start in range(0, len(texts), 3)
                   for p in predictor.predict(texts[start:start + 3],
                                              domains=domains[start:start + 3])]
        assert [p.probabilities for p in streamed] == [p.probabilities for p in chunked]
        direct = predictor.predict(texts, domains=domains)
        np.testing.assert_allclose([p.probabilities for p in streamed],
                                   [p.probabilities for p in direct], atol=1e-12)
        with pytest.raises(ValueError, match="shorter"):
            list(predictor.predict_iter(texts, domains=domains[:2], batch_size=3))
        with pytest.raises(ValueError, match="longer"):
            list(predictor.predict_iter(texts, domains=domains + [domains[0]],
                                        batch_size=3))


    def test_predict_iter_refuses_surplus_domains_after_full_chunks(
            self, model_config, tiny_vocab, tiny_encoder, tiny_dataset, probe_items):
        """The texts end on a chunk boundary: the full chunks are scored,
        then the unused domain is refused."""
        predictor = _pipeline(model_config, tiny_vocab, tiny_encoder,
                              tiny_dataset, "float64").predictor()
        texts = [item.text for item in probe_items][:4]
        domains = [item.domain for item in probe_items][:5]
        stream = predictor.predict_iter(texts, domains=domains, batch_size=2)
        assert len([next(stream) for _ in range(4)]) == 4
        with pytest.raises(ValueError, match="longer"):
            next(stream)


class TestMicroBatcher:
    @pytest.fixture()
    def predictor(self, model_config, tiny_vocab, tiny_encoder, tiny_dataset):
        return _pipeline(model_config, tiny_vocab, tiny_encoder, tiny_dataset,
                         "float64").predictor()

    def test_flushes_when_full_and_on_drain(self, predictor, probe_items):
        queue = predictor.microbatch(max_batch=3, max_latency_ms=1e9)
        tickets = [queue.submit(item.text, item.domain) for item in probe_items]
        assert sum(ticket.done for ticket in tickets) == 6  # two full batches of 3
        assert len(queue) == 2
        queue.drain()
        assert all(ticket.done for ticket in tickets)
        assert queue.stats.batches == 3
        assert queue.stats.served + queue.stats.failed == len(probe_items)
        assert queue.stats.flush_reasons == {"full": 2, "latency": 0, "drain": 1}

    def test_latency_deadline_flushes_on_next_submit(self, predictor, probe_items):
        import time

        queue = predictor.microbatch(max_batch=100, max_latency_ms=5.0)
        first = queue.submit(probe_items[0].text)
        time.sleep(0.02)
        queue.submit(probe_items[1].text)
        assert first.done  # overdue batch flushed before the new ticket queued
        assert queue.stats.flush_reasons["latency"] == 1
        assert len(queue) == 1

    def test_results_match_direct_predict(self, predictor, probe_items):
        texts = [item.text for item in probe_items]
        domains = [item.domain for item in probe_items]
        with predictor.microbatch(max_batch=len(texts), max_latency_ms=1e9) as queue:
            tickets = [queue.submit(text, domain)
                       for text, domain in zip(texts, domains)]
        direct = predictor.predict(texts, domains=domains)
        for ticket, expected in zip(tickets, direct):
            assert ticket.result.probabilities == expected.probabilities
            assert ticket.result.domain == expected.domain
            assert ticket.result.latency_ms > 0

    def test_unflushed_ticket_raises(self, predictor):
        queue = predictor.microbatch(max_batch=10, max_latency_ms=1e9)
        ticket = queue.submit("pending text")
        assert not ticket.done
        with pytest.raises(RuntimeError, match="still queued"):
            _ = ticket.result

    def test_invalid_parameters_rejected(self, predictor):
        with pytest.raises(ValueError):
            predictor.microbatch(max_batch=0)
        with pytest.raises(ValueError):
            predictor.microbatch(max_latency_ms=-1.0)
        with pytest.raises(ValueError):
            type(predictor)(predictor.pipeline, bucket_size=0)

    def test_bad_domain_fails_in_its_own_submit(self, predictor, probe_items):
        """A bad request must not poison the batch it would flush with."""
        queue = predictor.microbatch(max_batch=3, max_latency_ms=1e9)
        good = queue.submit(probe_items[0].text, probe_items[0].domain)
        with pytest.raises(KeyError, match="unknown domain"):
            queue.submit("bad request", "galactic")
        assert len(queue) == 1  # the good ticket is still queued
        queue.drain()
        assert good.done

    def test_flush_failure_restores_pending_tickets(self, predictor, probe_items):
        queue = predictor.microbatch(max_batch=10, max_latency_ms=1e9)
        tickets = [queue.submit(item.text, item.domain) for item in probe_items[:3]]
        original_predict = predictor.predict
        try:
            def boom(*args, **kwargs):
                raise RuntimeError("transient engine failure")
            predictor.predict = boom
            with pytest.raises(RuntimeError, match="transient"):
                queue.drain()
        finally:
            predictor.predict = original_predict
        assert len(queue) == 3  # nothing lost
        queue.drain()
        assert all(ticket.done for ticket in tickets)

    def test_default_domain_none_means_domain_zero(self, predictor):
        fallback = type(predictor)(predictor.pipeline, default_domain=None)
        assert fallback.default_domain == 0
        batch = fallback.encode_batch(["a b"])
        assert batch.domains.tolist() == [0]
