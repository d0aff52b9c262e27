"""``repro.serve`` — the consumer-facing inference pipeline API.

The training stack produces a :class:`repro.models.FakeNewsDetector` plus a
constellation of training-time state (vocabulary, tokenizer, frozen encoder,
model config, dtype policy).  This subpackage bundles all of it into ONE
servable artifact and answers "is this news item fake?" from raw text:

* :class:`Pipeline` — model + vocab + tokenizer + encoder backend + feature
  channels + :class:`repro.models.ModelConfig` + engine dtype, with
  :func:`save_pipeline` / :func:`load_pipeline` persisting the whole bundle
  as one directory (``manifest.json`` + ``weights.bin`` + ``vocab.json`` +
  ``checksums.json``); :func:`write_artifact` is the one, incremental,
  export (it rewrites only changed files and returns the digests) and
  :func:`check_artifact` the one per-file checksum check behind
  :func:`verify_pipeline`, loading and ``repro verify``.
  Models are reconstructed through :func:`repro.models.build_model`, so any
  detector registered with :func:`repro.models.register_model` round-trips.
* :class:`Predictor` — ``predict(texts, domains=None) -> list[Prediction]``
  over raw text, running under ``no_grad`` on the fused fast path in the
  pipeline's dtype, plus streaming :meth:`Predictor.predict_iter` for
  corpus-scale scoring.
* :class:`MicroBatcher` — a dynamic micro-batching queue
  (``predictor.microbatch(max_batch, max_latency_ms)``) that amortises many
  small requests into full-width batches.
* :class:`Server` — the fault-tolerant tier above: an asyncio front-end
  (plus :class:`HttpFrontend`, a stdlib-only HTTP endpoint) feeding a shared
  micro-batch queue drained by a supervised multi-process worker pool, with
  backpressure (:class:`ServerOverloaded`), per-request deadlines and
  crash recovery that re-dispatches a dead worker's batches so no ticket is
  ever lost.
* :class:`ServeStats` — the one queue ledger (served / failed / rejected /
  shed / expired ...) shared by :class:`MicroBatcher` and :class:`Server`,
  reported by both ``health()`` endpoints.

Quickstart (see ``examples/serve_quickstart.py`` for the full tour)::

    from repro.serve import export_pipeline, load_pipeline

    export_pipeline(model, "artifacts/detector", vocab=vocab, encoder=encoder)
    ...
    predictor = load_pipeline("artifacts/detector").predictor()
    [pred] = predictor.predict(["breaking fake_sig_2 dom3_topic17 ..."])
    print(pred.label_name, pred.probability_fake)
"""

from repro.serve.microbatch import MicroBatcher, Ticket
from repro.serve.pipeline import (
    CHECKSUMS_FILE,
    MANIFEST_FILE,
    PIPELINE_FORMAT_VERSION,
    VOCAB_FILE,
    WEIGHTS_FILE,
    ArtifactDigests,
    FileCheck,
    Pipeline,
    PipelineError,
    check_artifact,
    export_pipeline,
    load_pipeline,
    read_manifest,
    save_pipeline,
    verify_pipeline,
    write_artifact,
)
from repro.serve.http import HttpFrontend
from repro.serve.predictor import Prediction, Predictor
from repro.serve.server import Server, ServerConfig, ServerOverloaded, ServerTicket
from repro.serve.stats import ServeStats

__all__ = [
    "Pipeline", "PipelineError", "save_pipeline", "write_artifact", "ArtifactDigests",
    "load_pipeline", "export_pipeline",
    "verify_pipeline", "check_artifact", "FileCheck", "read_manifest",
    "Predictor", "Prediction",
    "MicroBatcher", "Ticket",
    "Server", "ServerConfig", "ServerOverloaded", "ServerTicket", "ServeStats",
    "HttpFrontend",
    "PIPELINE_FORMAT_VERSION",
    "MANIFEST_FILE", "WEIGHTS_FILE", "VOCAB_FILE", "CHECKSUMS_FILE",
]
