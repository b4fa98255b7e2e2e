"""Shared fixtures: the field corpus and sampling helpers."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest

from mixedmono import BoxDomain, VectorField


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    field: VectorField
    box: BoxDomain
    sign_stable: bool  # every Jacobian entry sign-stable over the box


def _entry(name, exprs, bounds, sign_stable):
    n = len(bounds)
    return CorpusEntry(name, VectorField.from_strings(exprs, n),
                       BoxDomain.from_bounds(bounds), sign_stable)


def make_corpus() -> list[CorpusEntry]:
    return [
        _entry("neg_x", ["-x1"], [(0.0, 1.0)], True),
        _entry("square", ["x1^2"], [(-1.0, 1.0)], False),
        _entry("x_sin_x", ["x1*sin(x1)"], [(0.2, 1.2)], True),
        _entry("linear_2d", ["-x1 + x2", "x1 - x2"], [(0.0, 1.0), (0.0, 1.0)], True),
        _entry("mixed_2d", ["x1 - x2^2", "x1*x2"], [(-1.0, 1.0), (-1.0, 1.0)], False),
    ]


@pytest.fixture(scope="session")
def corpus():
    return make_corpus()


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def box_samples(box: BoxDomain, rng, count: int) -> np.ndarray:
    lo, hi = np.asarray(box.lower_corner()), np.asarray(box.upper_corner())
    return lo + (hi - lo) * rng.random((count, box.n))


def ordered_pairs(box: BoxDomain, rng, count: int):
    """Componentwise-comparable pairs (p, q) with p <= q inside the box."""
    a = box_samples(box, rng, count)
    b = box_samples(box, rng, count)
    return np.minimum(a, b), np.maximum(a, b)


def grid_points(box: BoxDomain, total: int) -> np.ndarray:
    per_axis = max(2, int(round(total ** (1.0 / box.n))))
    axes = [np.linspace(iv.lo, iv.hi, per_axis) for iv in box.intervals]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)
