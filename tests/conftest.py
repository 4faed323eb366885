import os
from pathlib import Path

import numpy as np
import pytest

import hypoflow as hf

# Tests that start a fresh interpreter import hypoflow from this checkout too,
# installed or not (pytest itself finds it through `pythonpath` in pyproject.toml).
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]))


def all_models():
    return [
        hf.heat(1),
        hf.heat(3),
        hf.HEISENBERG,
        hf.KOLMOGOROV,
        hf.iterated_kolmogorov(3),
        hf.iterated_kolmogorov(4),
        hf.QUADRATIC_LIFTED,
        hf.ASIAN,
    ]


def random_point(model, rng, scale=1.0):
    """Random point in the model's domain (positive price for asian)."""
    z = rng.standard_normal(model.dim + 1) * scale
    if model is hf.ASIAN:
        z[0] = np.exp(z[0])
    return z


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
