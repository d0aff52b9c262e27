"""Serialisation of experiment results to JSON.

The benchmark harness and the CLI both persist their results so that runs can
be compared across configurations (e.g. different ``REPRO_SCALE`` values)
without re-training anything.
"""

from __future__ import annotations

import dataclasses
import json
import os
from typing import Any

from repro.metrics import EvaluationReport
from repro.reliability.durable import atomic_write_text, read_bytes


def report_to_dict(report: EvaluationReport) -> dict:
    """Flatten an :class:`EvaluationReport` (including per-domain error rates)."""
    payload = report.as_dict()
    payload["fnr_per_domain"] = dict(report.bias.fnr_per_domain)
    payload["fpr_per_domain"] = dict(report.bias.fpr_per_domain)
    return payload


def _convert(value: Any) -> Any:
    if isinstance(value, EvaluationReport):
        return report_to_dict(value)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return _convert(dataclasses.asdict(value))
    if isinstance(value, dict):
        return {str(key): _convert(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_convert(item) for item in value]
    if hasattr(value, "item") and callable(value.item) and getattr(value, "size", 2) == 1:
        return value.item()
    if hasattr(value, "tolist") and callable(value.tolist):
        return value.tolist()
    return value


def results_to_json(results: Any, indent: int = 2) -> str:
    """Serialise a (possibly nested) structure of reports/dataclasses to JSON."""
    return json.dumps(_convert(results), indent=indent, sort_keys=True)


def save_results(results: Any, path: str | os.PathLike) -> None:
    """Atomically write :func:`results_to_json` output to ``path``.

    Directories are created as needed; the file lands via temp-file + fsync +
    rename, so a crash mid-save never truncates previously saved results.
    """
    path = os.fspath(path)
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    atomic_write_text(path, results_to_json(results) + "\n")


def load_results(path: str | os.PathLike) -> Any:
    """Load a JSON results file written by :func:`save_results`.

    Transient read errors are retried under the default read policy; a file
    that is not valid JSON raises a :class:`ValueError` naming the path
    instead of a bare decode traceback.
    """
    path = os.fspath(path)
    content = read_bytes(path, kind="results")
    try:
        return json.loads(content)
    except ValueError as error:
        raise ValueError(
            f"results file '{path}' is not valid JSON ({error}); was the "
            "run interrupted before save_results finished?") from error
