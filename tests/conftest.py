"""Shared fixtures.

Heavy artefacts (datasets, offline-trained engines) are session-scoped
so the suite pays their construction cost once.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets.synthetic import make_dataset
from repro.engine import DeploymentContext, DeploymentEngine


@pytest.fixture(scope="session")
def dataset1():
    """Dataset #1 ("lab") with frame caching on."""
    return make_dataset(1)


@pytest.fixture(scope="session")
def dataset2():
    """Dataset #2 ("chap")."""
    return make_dataset(2)


@pytest.fixture(scope="session")
def runner1(dataset1):
    """An offline-trained deployment engine on dataset #1."""
    return DeploymentEngine(
        DeploymentContext.build(dataset1, rng=np.random.default_rng(2017))
    )


@pytest.fixture()
def rng():
    """A fresh deterministic generator per test."""
    return np.random.default_rng(12345)
