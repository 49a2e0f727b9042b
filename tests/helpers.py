"""Compositions of package functions that only the tests need."""

import numpy as np

from revunet import phantoms
from revunet.engine import walk


def param_count(block):
    """Exact scalar-parameter count by enumerating the constructed arrays."""
    return sum(int(arr.size) for node in walk(block) for _, arr in node.param_items())


def finite_difference_grad(f, x, step=1e-5, coords=None):
    """Central-difference gradient of scalar f at x, optionally on a coord subset."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    idx = range(flat.size) if coords is None else coords
    for j in idx:
        orig = flat[j]
        flat[j] = orig + step
        hi = f(x)
        flat[j] = orig - step
        lo = f(x)
        flat[j] = orig
        grad.reshape(-1)[j] = (hi - lo) / (2.0 * step)
    return grad


def ensemble_select(per_model_train_dice, train_histograms, test_volume, reading="literal"):
    """The model `revunet ensemble-select` picks for the test volume."""
    return phantoms.select_from_scores(phantoms.ensemble_scores(
        per_model_train_dice, train_histograms, test_volume, reading), reading)
