"""Training snapshots: what a trainer packs to resume a run bit-identically.

A snapshot is one weights container (:mod:`repro.nn.serialization`, the
format checkpoints and pipeline weights use) whose arrays and JSON ``meta``
capture *everything* a trainer needs to continue a run after a crash:

* the model's full state dict (including frozen parameters);
* the Adam state (``_step_count`` plus the first/second-moment arrays,
  position-aligned with ``model.parameters()``);
* every RNG stream the run consumes — the experiment-wide fallback stream,
  the train loader's shuffle stream, and each module-local dropout generator
  (models thread ``seeded_rng(config.seed)`` into their ``Dropout`` layers;
  the *same* generator object is typically shared by several layers, so
  streams are deduplicated by object identity in first-seen
  ``named_modules`` order);
* the cursor (epoch, batch-in-epoch, per-batch losses so far) and the
  epoch's materialised index permutation — the permutation cannot be
  re-derived after a crash because the shuffle stream has already advanced
  past it;
* the early-stopping state, plus subclass extras merged into the header
  (``DTDBDTrainer`` adds its weight scheduler and ``weight_history``);
* the writing trainer's class name and the model's name, which
  ``Trainer.resume`` checks before it restores anything.

This module holds the pack/unpack helpers ``Trainer`` uses, plus
:func:`save_snapshot` / :func:`load_snapshot`, which write and read the
container and word its refusals as :class:`SnapshotError`: a
corrupt, truncated or older-format snapshot is refused instead of resuming
from damaged state.
"""

from __future__ import annotations

import os
from dataclasses import asdict

import numpy as np

from repro.core.callbacks import EarlyStopping, EpochRecord, TrainingHistory
from repro.core.momentum import MomentumWeightScheduler, WeightSnapshot
from repro.nn.module import Module
from repro.nn.serialization import CheckpointError, decode_weights, encode_weights
from repro.reliability.durable import atomic_write_bytes, read_bytes


class SnapshotError(ValueError):
    """A training snapshot cannot be written or restored."""


def save_snapshot(path: str | os.PathLike, meta: dict,
                  arrays: dict[str, np.ndarray]) -> None:
    """Atomically write ``arrays`` plus the JSON-serialisable ``meta``."""
    atomic_write_bytes(path, encode_weights(arrays, meta))


def load_snapshot(path: str | os.PathLike) -> tuple[dict, dict[str, np.ndarray]]:
    """Read and verify a snapshot; returns ``(meta, arrays)``.

    Refuses missing, damaged and older-format files and plain checkpoints,
    all as :class:`SnapshotError` with the path named.  Transient read
    errors are retried.
    """
    try:
        meta, arrays = decode_weights(read_bytes(path, kind="snapshot"), path)
    except FileNotFoundError:
        raise SnapshotError(f"no snapshot at '{os.fspath(path)}'") from None
    except CheckpointError as error:
        raise SnapshotError(f"snapshot {error}") from error
    if meta is None:
        raise SnapshotError(
            f"'{os.fspath(path)}' is not a training snapshot (it has no "
            "snapshot metadata); was it written by save_checkpoint instead of "
            "Trainer.snapshot?")
    return meta, arrays


# --------------------------------------------------------------------------- #
# RNG-stream capture                                                           #
# --------------------------------------------------------------------------- #
def module_rng_states(module: Module) -> list[dict]:
    """Bit-generator states of every module-local generator, deduplicated.

    Models pass one ``seeded_rng(config.seed)`` generator into their
    ``Dropout`` layers, so the same object shows up under many modules; each
    distinct generator is captured once, in first-seen ``named_modules``
    order.  Restoration (:func:`restore_module_rng_states`) walks the same
    order, so the pairing is stable as long as the module tree is rebuilt
    identically — the same contract ``load_state_dict`` already relies on.
    """
    states: list[dict] = []
    seen: set[int] = set()
    for _, submodule in module.named_modules():
        rng = getattr(submodule, "_rng", None)
        if isinstance(rng, np.random.Generator) and id(rng) not in seen:
            seen.add(id(rng))
            states.append(rng.bit_generator.state)
    return states


def restore_module_rng_states(module: Module, states: list[dict]) -> None:
    """Restore generator states captured by :func:`module_rng_states`."""
    generators: list[np.random.Generator] = []
    seen: set[int] = set()
    for _, submodule in module.named_modules():
        rng = getattr(submodule, "_rng", None)
        if isinstance(rng, np.random.Generator) and id(rng) not in seen:
            seen.add(id(rng))
            generators.append(rng)
    if len(generators) != len(states):
        raise SnapshotError(
            f"snapshot captured {len(states)} module RNG stream(s) but the model "
            f"has {len(generators)}; was it rebuilt with a different "
            "architecture or dropout configuration?")
    for rng, state in zip(generators, states):
        rng.bit_generator.state = state


# --------------------------------------------------------------------------- #
# Capture/restore pieces used by Trainer (and its DTDBDTrainer subclass)      #
# --------------------------------------------------------------------------- #
def pack_model_state(model: Module, arrays: dict[str, np.ndarray]) -> None:
    for name, array in model.state_dict().items():
        arrays[f"model.{name}"] = array


def unpack_model_state(model: Module, arrays: dict[str, np.ndarray]) -> None:
    state = {name[len("model."):]: array
             for name, array in arrays.items() if name.startswith("model.")}
    model.load_state_dict(state)


def pack_adam_state(optimizer, meta: dict, arrays: dict[str, np.ndarray]) -> None:
    """Record Adam moments (position-aligned with ``optimizer.parameters``)."""
    meta["optimizer"] = {"step_count": optimizer._step_count,
                         "num_parameters": len(optimizer.parameters)}
    for index, (m, v) in enumerate(zip(optimizer._m, optimizer._v)):
        arrays[f"adam.m.{index}"] = m
        arrays[f"adam.v.{index}"] = v


def unpack_adam_state(optimizer, meta: dict, arrays: dict[str, np.ndarray]) -> None:
    recorded = meta.get("optimizer", {})
    if recorded.get("num_parameters") != len(optimizer.parameters):
        raise SnapshotError(
            f"snapshot optimizer tracked {recorded.get('num_parameters')} "
            f"parameter(s) but this trainer has {len(optimizer.parameters)}; "
            "the model architectures differ")
    optimizer._step_count = int(recorded["step_count"])
    for index in range(len(optimizer.parameters)):
        # Copy *into* the existing moment buffers: Adam updates them in place.
        np.copyto(optimizer._m[index], arrays[f"adam.m.{index}"])
        np.copyto(optimizer._v[index], arrays[f"adam.v.{index}"])


def pack_history(history: TrainingHistory) -> list[dict]:
    return [asdict(record) for record in history.records]


def unpack_history(records: list[dict]) -> TrainingHistory:
    return TrainingHistory(records=[EpochRecord(**record) for record in records])


def pack_early_stopping(stopper: EarlyStopping | None) -> dict | None:
    if stopper is None:
        return None
    return {"patience": stopper.patience, "minimum_delta": stopper.minimum_delta,
            "maximize": stopper.maximize, "best": stopper.best,
            "stale_epochs": stopper.stale_epochs}


def unpack_early_stopping(state: dict | None) -> EarlyStopping | None:
    if state is None:
        return None
    stopper = EarlyStopping(patience=state["patience"],
                            minimum_delta=state["minimum_delta"],
                            maximize=state["maximize"])
    stopper.best = state["best"]
    stopper.stale_epochs = state["stale_epochs"]
    return stopper


def pack_weight_scheduler(scheduler) -> dict:
    """Serialise a DTDBD weight scheduler (momentum DAA or constant ablation)."""
    if isinstance(scheduler, MomentumWeightScheduler):
        return {"kind": "momentum",
                "weight_add": scheduler._weight_add,
                "previous_f1": scheduler._previous_f1,
                "previous_bias": scheduler._previous_bias,
                "history": [asdict(snapshot) for snapshot in scheduler.history]}
    return {"kind": "constant", "weight_add": scheduler.weight_add}


def unpack_weight_scheduler(scheduler, state: dict) -> None:
    """Restore scheduler state in place (the trainer constructor built it)."""
    if state["kind"] == "momentum":
        if not isinstance(scheduler, MomentumWeightScheduler):
            raise SnapshotError(
                "snapshot used the momentum weight scheduler but this trainer "
                "was built with use_dynamic_adjustment=False")
        scheduler._weight_add = float(state["weight_add"])
        scheduler._previous_f1 = state["previous_f1"]
        scheduler._previous_bias = state["previous_bias"]
        scheduler.history[:] = [WeightSnapshot(**record)
                                for record in state["history"]]
    elif isinstance(scheduler, MomentumWeightScheduler):
        raise SnapshotError(
            "snapshot used the constant weight scheduler but this trainer "
            "was built with use_dynamic_adjustment=True")
