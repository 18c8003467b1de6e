"""Fixtures that more than one test module uses."""

import numpy as np
import pytest

from bnboost.data import BinaryDataset
from bnboost.dist2x2 import reference_dist


@pytest.fixture(scope="module")
def ref():
    """The dependent reference distribution at eta = 0.01, the ETA of every
    module that uses it."""
    return reference_dist(0.01)


@pytest.fixture
def four_rows():
    """A perfectly correlated pair: rows (A, B) = (0,0), (0,0), (1,1), (1,1)."""
    return BinaryDataset(("A", "B"), np.array([[0, 0], [0, 0], [1, 1], [1, 1]]))
