"""Raw-text inference front-end over a :class:`repro.serve.Pipeline`.

The :class:`Predictor` closes the gap between "I have a string" and
``FakeNewsDetector.predict``: it tokenises, encodes and pads exactly like the
training-time :class:`repro.data.DataLoader` (the shared implementation is
:func:`repro.data.encode_texts` — parity is pinned by
``tests/serve/test_predictor.py``), recomputes the feature channels the
model reads (frozen-encoder ``plm``, handcrafted ``style`` / ``emotion``)
and runs the model under ``no_grad`` with fused kernels in the pipeline's
dtype.

Padding defaults to the pipeline's training ``max_length`` so serving is
bit-identical to training-time encoding.  ``bucket_size`` opts into
length-bucketed padding: each batch is padded only to the next bucket
boundary past its longest text, which shrinks the time axis for short-text
traffic.  Models whose outputs depend on the padded region (e.g. recurrent
encoders with ``mask_padding=False`` consume pad embeddings in the backward
direction) can shift slightly under bucketing, which is why it is opt-in.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.data.dataset import FAKE_LABEL, LABEL_NAMES, encode_texts
from repro.data.loader import Batch
from repro.encoders.channels import ServeRequest
from repro.nn.conv import Conv1d
from repro.reliability.faults import fault_point
from repro.serve.microbatch import MicroBatcher
from repro.serve.pipeline import Pipeline, verify_pipeline
from repro.tensor import default_dtype, fused_kernels


#: end-of-iterator marker for :meth:`Predictor.predict_iter`'s domains
_EXHAUSTED = object()


@dataclass
class Prediction:
    """One model verdict on one raw-text news item.

    A failed item (invalid input, or an item isolated by
    :meth:`Predictor.predict_safe`) carries its diagnostic in ``error``; all
    scoring fields are sentinel values then (``label=-1``, NaN probability).
    Check ``ok`` before consuming the scores.
    """

    label: int
    label_name: str
    probability_fake: float
    probabilities: tuple[float, ...]
    domain: str
    latency_ms: float
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None

    @classmethod
    def failure(cls, error: str, domain: str = "",
                latency_ms: float = 0.0) -> "Prediction":
        return cls(label=-1, label_name="error", probability_fake=float("nan"),
                   probabilities=(), domain=domain, latency_ms=latency_ms,
                   error=error)

    def as_dict(self) -> dict:
        return {
            "label": self.label,
            "label_name": self.label_name,
            "probability_fake": self.probability_fake,
            "probabilities": list(self.probabilities),
            "domain": self.domain,
            "latency_ms": self.latency_ms,
            "error": self.error,
        }


def text_problem(text, max_text_chars: int) -> str | None:
    """Why ``text`` is not servable, or ``None`` when it is."""
    if not isinstance(text, str):
        return f"text must be a string, got {type(text).__name__}"
    if not text.strip():
        return "text is empty"
    if len(text) > max_text_chars:
        return (f"text has {len(text)} characters, over the "
                f"{max_text_chars}-character limit")
    return None


def resolve_domain(domain, domain_names: Sequence[str], num_domains: int,
                   default: int) -> int:
    """The domain index a request names; the one admission rule of serving.

    ``None`` means ``default``; a ``str`` is a domain name; an index is an
    ``int`` or ``numpy.integer`` but not a ``bool``.  Anything else raises
    the ``KeyError`` an unknown domain raises, so every front door rejects it
    as a bad request.
    """
    if domain is None:
        return default
    if isinstance(domain, str):
        if domain not in domain_names:
            raise KeyError(f"unknown domain '{domain}'; pipeline domains: "
                           f"{list(domain_names)}")
        return domain_names.index(domain)
    if isinstance(domain, bool) or not isinstance(domain, (int, np.integer)):
        raise KeyError(f"domain must be a name or an integer index, got "
                       f"{domain!r}")
    if not 0 <= domain < num_domains:
        raise KeyError(f"domain index {domain} outside the model's "
                       f"{num_domains} domains")
    return int(domain)


def _check_bucket_size(bucket_size: int | None, pipeline: Pipeline) -> None:
    """Refuse a ``bucket_size`` that short requests could not be scored with."""
    if bucket_size is None:
        return
    if bucket_size < 1:
        raise ValueError("bucket_size must be a positive integer or None")
    widest = max((module.kernel_size for _, module in pipeline.model.named_modules()
                  if isinstance(module, Conv1d)), default=0)
    if bucket_size < widest:
        raise ValueError(
            f"bucket_size {bucket_size} is below the served model's widest "
            f"convolution kernel {widest}; a short request would pad to "
            f"fewer positions than that kernel reads")


class Predictor:
    """Batched raw-text inference with training-identical encoding.

    Parameters
    ----------
    pipeline:
        The bundle to serve.
    default_domain:
        Domain (index or name) assumed for requests that do not specify one;
        multi-domain detectors condition on it (e.g. the MDFEND domain gate).
    bucket_size:
        ``None`` (default) pads every batch to the pipeline's training
        ``max_length`` — bit-identical to the training encode.  An integer
        enables length-bucketed padding in multiples of ``bucket_size``
        (capped at ``max_length``).  A value below the served model's widest
        convolution kernel is refused, here and at :meth:`reload`: a short
        request would pad to fewer positions than that kernel reads.
    """

    def __init__(self, pipeline: Pipeline, default_domain: int | str | None = 0,
                 bucket_size: int | None = None, max_text_chars: int = 100_000):
        self.pipeline = pipeline
        self.default_domain = 0  # placeholder so _domain_index(None) resolves
        self.default_domain = self._domain_index(default_domain)
        _check_bucket_size(bucket_size, pipeline)
        if max_text_chars < 1:
            raise ValueError("max_text_chars must be positive")
        self.bucket_size = bucket_size
        self.max_text_chars = max_text_chars
        self.served_by_domain: dict[str, int] = {}
        self.reloads = 0
        self.last_reload_fingerprint: str | None = None
        pipeline.model.eval()

    def reload(self, source: "Pipeline | str") -> str:
        """Hot-swap the served pipeline; returns the new artifact fingerprint.

        ``source`` is either a directory written by
        :func:`repro.serve.save_pipeline` (loaded with full checksum
        verification — a corrupt artifact raises and the predictor keeps
        serving the old weights) or an in-memory :class:`Pipeline`.  The swap
        serves the new pipeline's encoder backend and feature channels; the
        default domain must still exist in the new pipeline.  Domain growth
        is allowed (continual onboarding re-exports with more domains); the
        per-domain served counters carry across reloads.

        A directory reload shares the served pipeline's vocabulary,
        tokenizer, encoder backend and channels when the verified manifest
        and vocabulary are the ones it was loaded from (see
        :func:`repro.serve.load_pipeline`), and takes the fingerprint from
        the verified digests rather than re-serialising the model.
        """
        if isinstance(source, Pipeline):
            pipeline, fingerprint = source, source.fingerprint()
        else:
            from repro.serve.pipeline import load_pipeline

            pipeline = load_pipeline(source, reuse=self.pipeline)
            fingerprint = pipeline.source_digests.fingerprint
        if self.default_domain >= pipeline.model_config.num_domains:
            raise KeyError(
                f"default domain {self.default_domain} does not exist in the "
                f"new pipeline ({pipeline.model_config.num_domains} domains)")
        _check_bucket_size(self.bucket_size, pipeline)
        self.pipeline = pipeline
        pipeline.model.eval()
        self.reloads += 1
        self.last_reload_fingerprint = fingerprint
        return fingerprint

    # ------------------------------------------------------------------ #
    # Encoding (training-parity path)                                      #
    # ------------------------------------------------------------------ #
    def _domain_index(self, domain: int | str | None) -> int:
        return resolve_domain(domain, self.pipeline.domain_names,
                              self.pipeline.model_config.num_domains,
                              self.default_domain)

    def _resolve_domains(self, domains, count: int) -> np.ndarray:
        if domains is None:
            return np.full(count, self.default_domain, dtype=np.int64)
        if isinstance(domains, (int, str)):
            return np.full(count, self._domain_index(domains), dtype=np.int64)
        if len(domains) != count:
            raise ValueError(f"{len(domains)} domains given for {count} texts")
        return np.array([self._domain_index(domain) for domain in domains],
                        dtype=np.int64)

    def _padded_length(self, mask: np.ndarray) -> int:
        if self.bucket_size is None:
            return self.pipeline.max_length
        longest = int(mask.sum(axis=1).max()) if mask.size else 1
        buckets = -(-max(longest, 1) // self.bucket_size)  # ceil division
        return min(self.pipeline.max_length, buckets * self.bucket_size)

    def encode_batch(self, texts: Sequence[str], domains=None) -> Batch:
        """Encode raw ``texts`` into the :class:`repro.data.Batch` the model eats.

        Mirrors :class:`repro.data.DataLoader` exactly: shared
        :func:`repro.data.encode_texts` truncation+padding, mask cast to the
        pipeline dtype *before* feature extraction, every floating channel
        cast to the pipeline dtype after extraction.  Only the channels the
        model reads are computed (:attr:`Pipeline.served_channels`, the
        model's ``required_features``), so the batch holds exactly those;
        each is bit-equal to the loader's.  Channels recompute through their
        :meth:`~repro.encoders.FeatureChannel.serve` hooks over one shared
        :class:`~repro.encoders.ServeRequest` — the handcrafted
        ``style``/``emotion`` channels read its lazily tokenised
        *untruncated* raw texts (like the training extractors), so one
        tokenisation pass feeds both, and the ``plm`` channel calls the
        pipeline's own encoder backend.
        """
        if not texts:
            raise ValueError("encode_batch needs at least one text")
        fault_point("serve.encode", texts=texts)
        pipeline = self.pipeline
        domain_ids = self._resolve_domains(domains, len(texts))
        token_ids, mask = encode_texts(texts, pipeline.vocab, pipeline.max_length,
                                       tokenizer=pipeline.tokenizer)
        padded = self._padded_length(mask)
        if padded < pipeline.max_length:
            token_ids = token_ids[:, :padded]
            mask = mask[:, :padded]
        compute_dtype = np.dtype(pipeline.dtype)
        mask = mask.astype(compute_dtype, copy=False)
        request = ServeRequest(texts, token_ids, mask,
                               encode_plm=pipeline.encoder.encode)
        features = {}
        for channel in pipeline.served_channels:
            values = np.asarray(channel.serve(request))
            features[channel.name] = values.astype(compute_dtype, copy=False)
        return Batch(
            token_ids=token_ids,
            mask=mask,
            labels=np.zeros(len(texts), dtype=np.int64),
            domains=domain_ids,
            indices=np.arange(len(texts)),
            features=features,
        )

    # ------------------------------------------------------------------ #
    # Inference                                                            #
    # ------------------------------------------------------------------ #
    def predict_proba(self, texts: Sequence[str], domains=None) -> np.ndarray:
        """Class probabilities ``(len(texts), num_classes)`` for raw texts."""
        if not texts:
            return np.zeros((0, self.pipeline.model_config.num_classes),
                            dtype=np.dtype(self.pipeline.dtype))
        with default_dtype(self.pipeline.dtype), fused_kernels():
            batch = self.encode_batch(texts, domains=domains)
            return self.pipeline.model.predict_proba(batch)

    def predict(self, texts: Sequence[str], domains=None) -> list[Prediction]:
        """Score a batch of raw texts; one :class:`Prediction` per input.

        ``latency_ms`` is the wall-clock time of the whole batch call — for a
        per-request queueing latency use :meth:`microbatch`.
        """
        if not texts:
            return []
        start = time.perf_counter()
        with default_dtype(self.pipeline.dtype), fused_kernels():
            batch = self.encode_batch(texts, domains=domains)
            probabilities = self.pipeline.model.predict_proba(batch)
        elapsed_ms = (time.perf_counter() - start) * 1e3
        return self._package(batch, probabilities, [elapsed_ms] * len(texts))

    # ------------------------------------------------------------------ #
    # Graceful degradation                                                 #
    # ------------------------------------------------------------------ #
    def validate_text(self, text) -> str | None:
        """Why ``text`` is not servable, or ``None`` when it is.

        Checks are structural (type, emptiness, size cap) — the strict
        :meth:`predict` path skips them, the safe path and
        :class:`MicroBatcher.submit` apply them up front so malformed
        requests fail in their own call with a readable reason.
        """
        return text_problem(text, self.max_text_chars)

    def _safe_domain(self, domain) -> tuple[int, str | None]:
        """Resolve one request's domain; returns ``(index, error)``."""
        try:
            return self._domain_index(domain), None
        except (KeyError, ValueError, TypeError) as error:
            return self.default_domain, str(error)

    def _locate_failures(self, texts: list[str], domains: list[int],
                         errors: dict[int, str]) -> None:
        """Bisect a failing batch down to the individual offending items.

        Probes sub-batches through the strict :meth:`predict` path and
        records each size-1 failure in ``errors``; probe *results* are
        discarded (sub-batch shapes differ from the final full-shape run, so
        they are not bit-comparable).
        """
        if len(texts) == 1:
            try:
                self.predict(texts, domains=domains)
            except Exception as error:  # noqa: BLE001 - recorded, not dropped
                errors[0] = f"{type(error).__name__}: {error}"
            return
        middle = len(texts) // 2
        for offset, (chunk, chunk_domains) in enumerate(
                [(texts[:middle], domains[:middle]),
                 (texts[middle:], domains[middle:])]):
            try:
                self.predict(chunk, domains=chunk_domains)
            except Exception:  # noqa: BLE001 - bisected further
                chunk_errors: dict[int, str] = {}
                self._locate_failures(chunk, chunk_domains, chunk_errors)
                base = 0 if offset == 0 else middle
                errors.update({base + i: msg for i, msg in chunk_errors.items()})

    def predict_safe(self, texts: Sequence[str], domains=None) -> list[Prediction]:
        """Score a batch, isolating per-item failures instead of failing it.

        Invalid inputs (non-string, empty, oversized, unknown domain) and
        items whose encode/forward raises are returned as error
        :class:`Prediction`\\ s; every other item is scored normally.  The
        surviving items are re-run *at the original batch shape* — failed
        rows are substituted with a valid donor text and their rows discarded
        — so their probabilities are bit-identical to a fully-clean batch of
        the same requests (row independence of the batched forward).

        Raises only when the failure is systemic: the batch fails as a whole
        but every item succeeds alone (a batch-level fault), or *every* item
        fails (indistinguishable from an engine outage — isolation is only
        meaningful when part of the batch can still be served).
        """
        texts = list(texts)
        if not texts:
            return []
        start = time.perf_counter()
        resolved = self._resolve_safe_domains(domains, len(texts))
        errors: dict[int, str] = {}
        for index, text in enumerate(texts):
            problem = self.validate_text(text)
            if problem is not None:
                errors[index] = problem
            elif resolved[index][1] is not None:
                errors[index] = resolved[index][1]
        domain_ids = [index for index, _ in resolved]

        def run(candidate_texts: list[str]) -> list[Prediction]:
            predictions = self.predict(candidate_texts, domains=domain_ids)
            elapsed_ms = (time.perf_counter() - start) * 1e3
            results = []
            for index, prediction in enumerate(predictions):
                if index in errors:
                    results.append(self._failure_for(index, errors, domain_ids,
                                                     elapsed_ms))
                else:
                    prediction.latency_ms = elapsed_ms
                    results.append(prediction)
            return results

        donor = next((texts[i] for i in range(len(texts)) if i not in errors), None)
        if donor is None:
            elapsed_ms = (time.perf_counter() - start) * 1e3
            return [self._failure_for(index, errors, domain_ids, elapsed_ms)
                    for index in range(len(texts))]
        substituted = [donor if index in errors else text
                       for index, text in enumerate(texts)]
        try:
            return run(substituted)
        except Exception:  # noqa: BLE001 - bisected below
            before = len(errors)
            self._locate_failures(substituted, domain_ids, errors)
            if len(errors) == before or len(errors) == len(texts):
                raise  # batch-level fault or total outage: nothing to isolate
            # Re-pick the donor: the original one may itself have failed.
            donor = next(texts[i] for i in range(len(texts)) if i not in errors)
            substituted = [donor if index in errors else text
                           for index, text in enumerate(texts)]
            return run(substituted)

    def _resolve_safe_domains(self, domains, count: int) -> list[tuple[int, str | None]]:
        if domains is None or isinstance(domains, (int, str)):
            resolved = self._safe_domain(domains)
            return [resolved] * count
        if len(domains) != count:
            raise ValueError(f"{len(domains)} domains given for {count} texts")
        return [self._safe_domain(domain) for domain in domains]

    def _failure_for(self, index: int, errors: dict[int, str],
                     domain_ids: list[int], elapsed_ms: float) -> Prediction:
        return Prediction.failure(
            errors[index],
            domain=self.pipeline.domain_names[domain_ids[index]],
            latency_ms=elapsed_ms)

    def health(self) -> dict:
        """A structured liveness report for this predictor.

        ``status`` is ``"ok"`` when every check passes and ``"degraded"``
        otherwise; each check reports ``"ok"`` or its failure reason.  The
        artifact check re-verifies the pipeline directory's checksums (only
        for pipelines loaded from disk), the inference check round-trips one
        probe text through the full encode+forward path.
        """
        checks: dict[str, str] = {}
        if self.pipeline.source_path is not None:
            try:
                verify_pipeline(self.pipeline.source_path)
                checks["artifact"] = "ok"
            except Exception as error:  # noqa: BLE001 - reported, not raised
                checks["artifact"] = str(error)
        try:
            probabilities = self.predict_proba(["health probe"])
            if not np.all(np.isfinite(probabilities)):
                checks["inference"] = "probe produced non-finite probabilities"
            else:
                checks["inference"] = "ok"
        except Exception as error:  # noqa: BLE001 - reported, not raised
            checks["inference"] = f"{type(error).__name__}: {error}"
        return {
            "status": ("ok" if all(value == "ok" for value in checks.values())
                       else "degraded"),
            "model": self.pipeline.model_name,
            "dtype": self.pipeline.dtype,
            "max_length": self.pipeline.max_length,
            "domains": list(self.pipeline.domain_names),
            "source_path": self.pipeline.source_path,
            "encoder_backend": self.backend_state(),
            "artifact_fingerprint": self.pipeline.fingerprint(),
            "reloads": self.reloads,
            "last_reload_fingerprint": self.last_reload_fingerprint,
            "served_by_domain": dict(self.served_by_domain),
            "checks": checks,
        }

    def backend_state(self) -> dict:
        """Live state of the pipeline's encoder backend.

        Kind, spec fingerprint and backend-specific counters (cache hit rate,
        evictions...) — the block ``/health`` and ``/stats`` surface per
        replica.
        """
        return self.pipeline.encoder.state()

    def predict_iter(self, texts: Iterable[str], domains=None,
                     batch_size: int = 64) -> Iterator[Prediction]:
        """Stream predictions over an arbitrarily large corpus of texts.

        Consumes ``texts`` lazily in chunks of ``batch_size``, so scoring a
        generator over a multi-million-item corpus never materialises more
        than one chunk.  ``domains`` may be ``None``, a single domain applied
        to every text, or an iterable parallel to ``texts``; a parallel
        iterable of another length raises ``ValueError`` where it runs out
        (shorter) or where the texts do (longer).
        """
        if batch_size < 1:
            raise ValueError("batch_size must be positive")
        broadcast = domains is None or isinstance(domains, (int, str))
        domain_iter = None if broadcast else iter(domains)
        chunk: list[str] = []
        chunk_domains: list = []
        for text in texts:
            chunk.append(text)
            if not broadcast:
                try:
                    chunk_domains.append(next(domain_iter))
                except StopIteration:
                    raise ValueError("domains iterable shorter than texts") from None
            if len(chunk) >= batch_size:
                yield from self.predict(chunk, domains=domains if broadcast else chunk_domains)
                chunk, chunk_domains = [], []
        if not broadcast and next(domain_iter, _EXHAUSTED) is not _EXHAUSTED:
            raise ValueError("domains iterable longer than texts")
        if chunk:
            yield from self.predict(chunk, domains=domains if broadcast else chunk_domains)

    def microbatch(self, max_batch: int = 32,
                   max_latency_ms: float = 10.0) -> MicroBatcher:
        """A dynamic micro-batching queue over this predictor.

        Requests submitted one at a time are held until ``max_batch`` of them
        are pending or the oldest has waited ``max_latency_ms``, then scored
        as one full-width batch — amortising per-call overhead across
        requests (see ``benchmarks/perf/test_perf_inference.py``).
        """
        return MicroBatcher(self, max_batch=max_batch, max_latency_ms=max_latency_ms)

    # ------------------------------------------------------------------ #
    def _package(self, batch: Batch, probabilities: np.ndarray,
                 latencies_ms: Sequence[float]) -> list[Prediction]:
        labels = probabilities.argmax(axis=1)
        predictions = [
            Prediction(
                label=int(labels[row]),
                label_name=LABEL_NAMES[int(labels[row])],
                probability_fake=float(probabilities[row, FAKE_LABEL]),
                probabilities=tuple(float(p) for p in probabilities[row]),
                domain=self.pipeline.domain_names[int(batch.domains[row])],
                latency_ms=float(latencies_ms[row]),
            )
            for row in range(probabilities.shape[0])
        ]
        for prediction in predictions:
            self.served_by_domain[prediction.domain] = \
                self.served_by_domain.get(prediction.domain, 0) + 1
        return predictions
