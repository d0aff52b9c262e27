"""Shared fixtures for the table/figure reproduction benchmarks.

Every benchmark:

* uses the ``benchmark`` fixture with a single round (the measured quantity is
  the wall-clock of regenerating the table, not a micro-benchmark);
* builds its table through the sweep cell's runner
  (``repro.experiments.orchestrator.TABLE_CELLS``), prints it in the paper's
  layout and, at the default settings, checks it byte for byte against the
  committed ``benchmarks/results/<experiment>.txt``.

Scale and epochs are controlled by the ``REPRO_SCALE`` / ``REPRO_SCALE_EN`` /
``REPRO_EPOCHS`` environment variables (see ``repro.experiments.config``).
"""

from __future__ import annotations

import os
import sys

import pytest

_SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.experiments import (  # noqa: E402
    default_chinese_config,
    default_english_config,
    prepare_data,
)


@pytest.fixture(scope="session")
def chinese_config():
    return default_chinese_config()


@pytest.fixture(scope="session")
def english_config():
    return default_english_config()


# The corpora/vocabularies/feature channels are expensive and immutable, so
# they are built once per session; the only mutable state a bundle carries is
# its loaders' shuffle generators (plus the process-wide fallback seed).  The
# function-scoped fixtures below reseed that state before every benchmark, so
# each table is computed from the same deterministic stream whether the file
# runs standalone or inside a full collection — results no longer depend on
# how many epochs earlier tests consumed (the bug that made
# ``test_table8_ablation.py`` fail in isolation).


@pytest.fixture(scope="session")
def _chinese_bundle_session(chinese_config):
    return prepare_data(chinese_config)


@pytest.fixture(scope="session")
def _english_bundle_session(english_config):
    return prepare_data(english_config)


@pytest.fixture
def chinese_bundle(_chinese_bundle_session):
    _chinese_bundle_session.reseed()
    return _chinese_bundle_session


@pytest.fixture
def english_bundle(_english_bundle_session):
    _english_bundle_session.reseed()
    return _english_bundle_session
