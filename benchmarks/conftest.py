"""Shared benchmark fixtures: offline-trained engines per dataset."""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments.harness import get_engine


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def runner_ds1():
    return get_engine(1)


@pytest.fixture(scope="session")
def runner_ds2():
    return get_engine(2)


@pytest.fixture(scope="session")
def runner_ds3():
    return get_engine(3)
