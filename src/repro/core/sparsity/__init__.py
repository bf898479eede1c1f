"""Sparsity estimators: metadata, MNC, density map, sampling, exact oracle."""

from __future__ import annotations

from .base import Sketch, SparsityEstimator, observed_meta, to_support_arrays
from .densitymap import DensityMapEstimator, DensityMapSketch
from .exact import ExactEstimator, ExactSketch
from .memo import MemoizedEstimator
from .metadata import MetadataEstimator
from .mnc import MNCEstimator, MNCSketch
from .sampling import SamplingEstimator

_ESTIMATORS = {
    "metadata": MetadataEstimator,
    "mnc": MNCEstimator,
    "densitymap": DensityMapEstimator,
    "sampling": SamplingEstimator,
    "exact": ExactEstimator,
}


def make_estimator(name: str, **kwargs) -> SparsityEstimator:
    """Instantiate an estimator by config name."""
    try:
        return _ESTIMATORS[name](**kwargs)
    except KeyError:
        known = ", ".join(sorted(_ESTIMATORS))
        raise ValueError(f"unknown sparsity estimator {name!r}; known: {known}") from None


__all__ = [
    "Sketch", "SparsityEstimator", "observed_meta", "to_support_arrays",
    "MetadataEstimator", "MNCEstimator", "MNCSketch",
    "DensityMapEstimator", "DensityMapSketch",
    "SamplingEstimator", "ExactEstimator", "ExactSketch",
    "MemoizedEstimator", "make_estimator",
]
