"""Shared benchmark fixtures: offline-trained engines per dataset."""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine.spec import DeploymentSpec


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def runner_ds1():
    return DeploymentSpec(dataset_number=1).build_engine()


@pytest.fixture(scope="session")
def runner_ds2():
    return DeploymentSpec(dataset_number=2).build_engine()


@pytest.fixture(scope="session")
def runner_ds3():
    return DeploymentSpec(dataset_number=3).build_engine()
