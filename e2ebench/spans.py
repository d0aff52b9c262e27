"""Outside-in span recorder for the benchmark's traced runs.

Nothing under ``src/`` is instrumented.  :class:`Tracer` swaps the public
entry points of each layer for thin wrappers while a traced run is active
(:func:`instrument`), records one span per call and puts every original
back on :meth:`Tracer.restore`.

A span is ``[name, start, end, parent]``: ``parent`` is the index of the
span that was open on the same thread when this one began, or ``-1``.
Spans stay in memory until the run ends; then they are summarised and
written out (:meth:`Tracer.write`).  A span's
*self time* is its duration minus the durations of its children; inside a
tree of properly nested spans the self times add up exactly to the root's
duration, which :meth:`Tracer.reconcile` checks.

Spans opened with ``opaque=True`` record themselves but nothing beneath
them.  The benchmark's set-up trains models inside such spans, so set-up
work shows as ``experiments.*`` time and never leaks into the per-layer
numbers of the measured window.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import sys
import threading
import time

NAME, START, END, PARENT = range(4)


class Tracer:
    """In-memory span store plus the patches that feed it."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------ #
    # Recording                                                            #
    # ------------------------------------------------------------------ #
    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.opaque = 0
        return local

    def begin(self, name: str, opaque: bool = False) -> int:
        """Open a span; returns its index, or -1 under an opaque span."""
        local = self._state()
        if local.opaque:
            return -1
        parent = local.stack[-1] if local.stack else -1
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent])
        local.stack.append(index)
        if opaque:
            local.opaque += 1
        return index

    def end(self, index: int, opaque: bool = False) -> None:
        if index < 0:
            return
        local = self._state()
        self.spans[index][END] = time.perf_counter()
        local.stack.pop()
        if opaque:
            local.opaque -= 1

    @contextlib.contextmanager
    def span(self, name: str, opaque: bool = False):
        index = self.begin(name, opaque)
        try:
            yield index
        finally:
            self.end(index, opaque)

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    # ------------------------------------------------------------------ #
    # Patching                                                             #
    # ------------------------------------------------------------------ #
    def wrap(self, fn, name, size=None):
        """A wrapper of ``fn`` that records a span around each call.

        ``name`` is a string, or a callable given the call's arguments that
        returns one.  ``size``, given the same arguments, returns an amount
        added to the ``<name>.items`` count.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name if isinstance(name, str) else name(*args, **kwargs)
            index = tracer.begin(label)
            if size is not None and index >= 0:
                tracer.count(label + ".items", size(*args, **kwargs))
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end(index)

        return traced

    def wrap_iterator(self, fn, name):
        """Like :meth:`wrap` for a function returning an iterator.

        One span covers each ``next()``; the consumer's work between items
        is not part of it.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            iterator = iter(fn(*args, **kwargs))
            while True:
                index = tracer.begin(name)
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    tracer.end(index)
                yield item

        return traced

    def wrap_context(self, fn, name):
        """Like :meth:`wrap` for a context-manager factory: the span covers
        entering, the ``with`` body and exiting."""
        tracer = self

        @functools.wraps(fn)
        @contextlib.contextmanager
        def traced(*args, **kwargs):
            with tracer.span(name), fn(*args, **kwargs) as value:
                yield value

        return traced

    def patch(self, owner, attr: str, wrapper) -> None:
        """Install ``wrapper`` as ``owner.attr`` until :meth:`restore`."""
        self._patches.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, wrapper)

    def patch_function(self, function, wrapper) -> None:
        """Replace ``function`` in every loaded ``repro`` module that holds it."""
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is function:
                    self.patch(module, attr, wrapper)

    def restore(self) -> None:
        """Put every patched attribute back, newest first."""
        for owner, attr, original in reversed(self._patches):
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path: str) -> None:
        """Write every span as one JSON line: id, name, start, end, parent."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, start, end, parent) in enumerate(self.spans):
                handle.write(json.dumps({"id": index, "name": name, "start": start,
                                         "end": end, "parent": parent}) + "\n")

    # ------------------------------------------------------------------ #
    # Analysis                                                             #
    # ------------------------------------------------------------------ #
    def _self_times(self) -> list[float]:
        own = [span[END] - span[START] for span in self.spans]
        for span in self.spans:
            if span[PARENT] >= 0:
                own[span[PARENT]] -= span[END] - span[START]
        return own

    def summary(self) -> dict[str, dict]:
        """``name -> {"self_s", "calls"}`` over every closed span."""
        result: dict[str, dict] = {}
        for span, own in zip(self.spans, self._self_times()):
            entry = result.setdefault(span[NAME], {"self_s": 0.0, "calls": 0})
            entry["self_s"] += own
            entry["calls"] += 1
        return result

    def reconcile(self, root: int) -> dict:
        """Check that the self times under span ``root`` add up to its wall time.

        Returns ``wall_s``, ``self_sum_s``, ``root_self_s`` and ``ok``.  A
        negative self time means two spans overlapped instead of nesting,
        which would make every self time under the root meaningless.
        """
        children: dict[int, list[int]] = {}
        for index, span in enumerate(self.spans):
            children.setdefault(span[PARENT], []).append(index)
        own = self._self_times()
        subtree, pending = [], [root]
        while pending:
            index = pending.pop()
            subtree.append(index)
            pending.extend(children.get(index, ()))
        wall = self.spans[root][END] - self.spans[root][START]
        self_sum = sum(own[index] for index in subtree)
        ok = (min(own[index] for index in subtree) >= -1e-6
              and abs(self_sum - wall) <= 1e-6 * max(wall, 1.0))
        return {"wall_s": wall, "self_sum_s": self_sum,
                "root_self_s": own[root], "ok": ok}


_MISSING = object()


# --------------------------------------------------------------------------- #
# The layer entry points a traced run records                                  #
# --------------------------------------------------------------------------- #
def instrument(tracer: Tracer, teacher_ids: set) -> dict:
    """Patch each layer's public entry points to record spans in ``tracer``.

    ``teacher_ids`` is a live set holding the ``id()`` of each frozen
    teacher model: their forwards are recorded as
    ``models.teacher_forward``, every other training forward as
    ``models.student_forward``.  Returns a live ``id -> TeacherCache`` map
    of every cache looked up while traced.
    """
    from repro.core import distill, dtdbd, trainer
    from repro.core.distill import TeacherCache
    from repro.data.dataset import encode_texts
    from repro.data.loader import DataLoader
    from repro.data.streambuffer import StreamWindowBuffer
    from repro.encoders.channels import EmotionChannel, PLMChannel, StyleChannel
    from repro.metrics.fairness import domain_bias_report
    from repro.models.base import FakeNewsDetector
    from repro.nn import Adam, GradientClipper
    from repro.reliability import durable
    from repro.serve.predictor import Predictor
    from repro.streaming import DriftMonitor, OnlineAdapter
    from repro.tensor import Tensor

    def method(owner, attr, name, size=None):
        tracer.patch(owner, attr, tracer.wrap(getattr(owner, attr), name, size))

    def function(fn, name):
        tracer.patch_function(fn, tracer.wrap(fn, name))

    method(Tensor, "backward", "tensor.backward")
    method(Adam, "step", "nn.adam_step")
    method(GradientClipper, "clip", "nn.clip")

    method(FakeNewsDetector, "forward_with_features",
           lambda model, *_: ("models.teacher_forward" if id(model) in teacher_ids
                              else "models.student_forward"))
    method(FakeNewsDetector, "predict_proba", "models.predict")

    caches: dict[int, TeacherCache] = {}

    def lookup_name(cache, *_):
        caches[id(cache)] = cache
        return "core.cache_lookup"

    method(TeacherCache, "lookup", lookup_name)
    # The trainer forwards a teacher live whenever its cache cannot serve
    # the batch; counted against the lookups for the cache hit share.
    function(distill.teacher_forward, "core.live_teacher_forward")
    function(distill.adversarial_debiasing_distillation_loss, "core.add_loss")
    function(distill.domain_knowledge_distillation_loss, "core.dkd_loss")
    function(trainer.evaluate_model, "core.evaluate")
    method(dtdbd.DTDBDTrainer, "train_epoch", "core.train_epoch")
    method(trainer.Trainer, "train_epoch", "core.train_epoch")

    for attr in ("iter_from", "iter_eval"):
        tracer.patch(DataLoader, attr, tracer.wrap_iterator(
            getattr(DataLoader, attr), "data.batch_gather"))
    method(DataLoader, "window", "data.batch_gather")
    function(encode_texts, "data.tokenize")
    method(StreamWindowBuffer, "write", "data.ring_write")

    for channel in (PLMChannel, StyleChannel, EmotionChannel):
        name = f"encoders.{channel.kind}"
        method(channel, "extract", name)
        method(channel, "serve", name, size=lambda *_: 1)

    function(domain_bias_report, "metrics.bias_report")

    method(Predictor, "predict", "serve.predict",
           size=lambda _self, texts, *a, **k: len(texts))
    method(Predictor, "encode_batch", "serve.encode")
    method(Predictor, "reload", "serve.reload")

    method(DriftMonitor, "observe", "streaming.observe")
    method(OnlineAdapter, "adapt", "streaming.adapt")
    method(OnlineAdapter, "onboard_domain", "streaming.onboard")

    tracer.patch_function(durable.atomic_writer, tracer.wrap_context(
        durable.atomic_writer, "reliability.export"))
    function(durable.sha256_file, "reliability.verify")
    return caches
