"""Dense discrete distributions over mixed-radix product spaces.

Cells are addressed by a flat index in mixed radix with the first axis most
significant, so for a binary space with axes (x, y, y0, y1) the flat index of
a cell is just its coordinate string read as a binary number (e.g. the cell
x=0, y=1, y0=1, y1=0 has flat index 6).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .exceptions import InsufficientDataError

# Construction accepts sums within SUM_TOLERANCE of one and renormalizes;
# anything further off is treated as a logic error upstream.
SUM_TOLERANCE = 1e-6
NORMALIZATION_TOLERANCE = 1e-9
NEGATIVE_TOLERANCE = 1e-6


@dataclass(frozen=True)
class Shape:
    """Axis sizes of a product space, first axis most significant."""

    axis_sizes: tuple[int, ...]

    def __init__(self, axis_sizes: Iterable[int]):
        sizes = tuple(int(s) for s in axis_sizes)
        if not sizes:
            raise ValueError("shape needs at least one axis")
        if any(s < 1 for s in sizes):
            raise ValueError(f"axis sizes must be positive, got {sizes}")
        object.__setattr__(self, "axis_sizes", sizes)

    @property
    def ndim(self) -> int:
        return len(self.axis_sizes)

    @property
    def n_cells(self) -> int:
        return int(np.prod(self.axis_sizes))

    def coordinates(self) -> np.ndarray:
        """All cell coordinates in flat-index order, shape (n_cells, ndim)."""
        grids = np.indices(self.axis_sizes).reshape(self.ndim, -1)
        return grids.T

    def flat_index(self, coords: Sequence[int]) -> int:
        return int(np.ravel_multi_index(tuple(coords), self.axis_sizes))


@dataclass(frozen=True)
class MarginalSelector:
    """Ordered subset of axis indices to retain when marginalizing."""

    axes: tuple[int, ...]

    def __init__(self, axes: Iterable[int]):
        ax = tuple(int(a) for a in axes)
        if not ax:
            raise ValueError("marginal selector must keep at least one axis")
        if any(b <= a for a, b in zip(ax, ax[1:])):
            raise ValueError(f"selector axes must be strictly increasing, got {ax}")
        object.__setattr__(self, "axes", ax)

    def validate_for(self, shape: Shape) -> None:
        if self.axes[-1] >= shape.ndim or self.axes[0] < 0:
            raise ValueError(
                f"selector {self.axes} out of bounds for {shape.ndim} axes"
            )


class DiscreteDistribution:
    """Probability distribution stored as a dense vector over a Shape.

    Entries are validated to be nonnegative and to sum to one within
    ``SUM_TOLERANCE``; the stored vector is renormalized so the sum is exact
    to within ``NORMALIZATION_TOLERANCE``. The mass array is read-only.
    """

    __slots__ = ("shape", "mass")

    def __init__(self, shape: Shape | Sequence[int], mass):
        if not isinstance(shape, Shape):
            shape = Shape(shape)
        vec = np.asarray(mass, dtype=float).reshape(-1)
        if vec.size != shape.n_cells:
            raise ValueError(
                f"mass has {vec.size} entries, shape {shape.axis_sizes} "
                f"needs {shape.n_cells}"
            )
        if not np.all(np.isfinite(vec)):
            raise ValueError("mass entries must be finite")
        if vec.min(initial=0.0) < -NEGATIVE_TOLERANCE:
            raise ValueError(f"negative probability {vec.min()} in mass vector")
        vec = np.clip(vec, 0.0, None)
        total = float(vec.sum())
        if abs(total - 1.0) > SUM_TOLERANCE:
            raise ValueError(f"mass sums to {total}, expected 1")
        vec = vec / total
        vec.flags.writeable = False
        self.shape = shape
        self.mass = vec

    @classmethod
    def uniform(cls, shape: Shape | Sequence[int]) -> "DiscreteDistribution":
        if not isinstance(shape, Shape):
            shape = Shape(shape)
        n = shape.n_cells
        return cls(shape, np.full(n, 1.0 / n))

    @classmethod
    def point_mass(
        cls, shape: Shape | Sequence[int], coords: Sequence[int]
    ) -> "DiscreteDistribution":
        if not isinstance(shape, Shape):
            shape = Shape(shape)
        vec = np.zeros(shape.n_cells)
        vec[shape.flat_index(coords)] = 1.0
        return cls(shape, vec)

    def prob(self, coords: Sequence[int]) -> float:
        return float(self.mass[self.shape.flat_index(coords)])

    def as_array(self) -> np.ndarray:
        """Mass reshaped to the axis grid (read-only view)."""
        return self.mass.reshape(self.shape.axis_sizes)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DiscreteDistribution):
            return NotImplemented
        return self.shape == other.shape and np.array_equal(self.mass, other.mass)

    def __repr__(self) -> str:
        return f"DiscreteDistribution(shape={self.shape.axis_sizes}, mass={self.mass!r})"


def marginalize(
    dist: DiscreteDistribution, selector: MarginalSelector | Sequence[int]
) -> DiscreteDistribution:
    """Sum out all axes not named by the selector.

    The retained axes keep their relative order; selecting every axis is the
    identity.
    """
    if not isinstance(selector, MarginalSelector):
        selector = MarginalSelector(selector)
    selector.validate_for(dist.shape)
    keep = set(selector.axes)
    drop = tuple(a for a in range(dist.shape.ndim) if a not in keep)
    grid = dist.as_array()
    if drop:
        grid = grid.sum(axis=drop)
    sizes = tuple(dist.shape.axis_sizes[a] for a in selector.axes)
    return DiscreteDistribution(Shape(sizes), grid.reshape(-1))


def kl_divergence(p: DiscreteDistribution, q: DiscreteDistribution) -> float:
    """Relative entropy D(p || q) in nats.

    Uses the convention 0 * log(0/q) = 0 and returns ``math.inf`` exactly when
    some cell has p > 0 but q = 0. Rounding below zero is clamped to 0.
    """
    if p.shape != q.shape:
        raise ValueError(
            f"shape mismatch: {p.shape.axis_sizes} vs {q.shape.axis_sizes}"
        )
    pm, qm = p.mass, q.mass
    support = pm > 0.0
    if np.any(qm[support] == 0.0):
        return math.inf
    kl = float(np.sum(pm[support] * np.log(pm[support] / qm[support])))
    # nonnegative by Gibbs' inequality; the sum can round a few ulps below 0
    return max(0.0, kl)


def empirical_joint(rows, *sizes: int, alpha: float = 0.0) -> DiscreteDistribution:
    """Empirical joint distribution of category rows over ``sizes``.

    Args:
        rows: iterable of category tuples or an (n, k) integer array, one
            column per range size.
        sizes: range size of each column; every category must lie in range.
        alpha: optional additive smoothing added to every cell count
            (default 0, i.e. the raw empirical distribution).
    """
    arr = np.asarray(list(rows) if not isinstance(rows, np.ndarray) else rows)
    if arr.size == 0:
        raise InsufficientDataError("empirical_joint needs at least one row")
    if arr.ndim != 2 or arr.shape[1] != len(sizes):
        raise ValueError(f"rows must have {len(sizes)} columns, one per range size")
    arr = arr.astype(int)
    for col, size in zip(arr.T, sizes):
        if col.min() < 0 or col.max() >= size:
            raise ValueError(f"category out of range [0, {size})")
    if alpha < 0:
        raise ValueError("smoothing alpha must be nonnegative")
    flat = np.zeros(len(arr), dtype=int)
    for col, size in zip(arr.T, sizes):
        flat = flat * size + col
    counts = np.bincount(flat, minlength=math.prod(sizes)).astype(float) + alpha
    return DiscreteDistribution(Shape(sizes), counts / counts.sum())


def empirical_marginal(
    values, b: int, alpha: float = 0.0
) -> DiscreteDistribution:
    """Empirical distribution of a single category column over [b]."""
    arr = np.asarray(values).reshape(-1).astype(int)
    if arr.size == 0:
        raise InsufficientDataError("empirical_marginal needs at least one value")
    if arr.min() < 0 or arr.max() >= b:
        raise ValueError(f"category out of range [0, {b})")
    if alpha < 0:
        raise ValueError("smoothing alpha must be nonnegative")
    counts = np.bincount(arr, minlength=b).astype(float) + alpha
    return DiscreteDistribution(Shape((b,)), counts / counts.sum())


@dataclass(frozen=True)
class DiscretizationResult:
    """Labels from equal-frequency binning plus a degradation flag.

    ``degraded`` is set when the data had fewer distinct values than the
    requested bin count, in which case fewer distinct labels are emitted.
    """

    labels: np.ndarray
    bins_requested: int
    n_distinct_values: int
    degraded: bool = field(default=False)


def discretize_equal_frequency(values, bins: int) -> DiscretizationResult:
    """Quantile-based equal-frequency discretization into ``bins`` labels.

    Every occurrence of a value gets the label of its quantile rank, computed
    from the count of strictly smaller values, so equal values always share a
    label and the mapping is monotone. With all-distinct inputs the per-bin
    counts differ by at most one.
    """
    if bins < 2:
        raise ValueError("bins must be at least 2")
    arr = np.asarray(values, dtype=float).reshape(-1)
    if arr.size == 0:
        raise InsufficientDataError("discretize_equal_frequency needs values")
    if not np.all(np.isfinite(arr)):
        raise ValueError("values must be finite")
    n = arr.size
    ordered = np.sort(arr)
    below = np.searchsorted(ordered, arr, side="left")
    labels = (below * bins) // n
    n_distinct = int(np.unique(arr).size)
    return DiscretizationResult(
        labels=labels.astype(int),
        bins_requested=bins,
        n_distinct_values=n_distinct,
        degraded=n_distinct < bins,
    )
