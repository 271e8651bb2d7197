"""Uniform space-time grids and finite-difference stencils.

The first-derivative stencils are second order: centered in the interior,
one-sided three-point at boundaries, and symmetry-based at the pole.  A second
r-partial is d_r applied twice, which is second order but at the outer two
nodes, where it is first order.  Fields on a pole grid are radial restrictions
of smooth rotationally symmetric functions, so scalar fields are even in r and
their first radial derivatives odd; the pole stencils encode that parity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DIFF_KINDS = ("d_r", "d_t")


class FieldError(ValueError):
    pass


@dataclass(frozen=True)
class Grid:
    """Uniform tensor grid on [0, r_max] x [t0, t0 + duration]."""

    n_r: int
    n_t: int
    r_max: float
    t0: float
    duration: float
    pole: bool = True

    def __post_init__(self):
        if self.n_r < 8:
            raise FieldError("need at least 8 radial nodes")
        if self.n_t < 4:
            raise FieldError("need at least 4 time nodes")
        if self.r_max <= 0 or self.duration <= 0:
            raise FieldError("grid extents must be positive")

    @property
    def dr(self) -> float:
        return self.r_max / (self.n_r - 1)

    @property
    def dt(self) -> float:
        return self.duration / (self.n_t - 1)

    @property
    def r(self) -> np.ndarray:
        return np.linspace(0.0, self.r_max, self.n_r)

    @property
    def t(self) -> np.ndarray:
        return self.t0 + np.linspace(0.0, self.duration, self.n_t)

    def mesh(self):
        return np.meshgrid(self.r, self.t, indexing="ij")


@dataclass(frozen=True)
class ScalarField:
    """Grid function indexed (i_r, j_t)."""

    values: np.ndarray
    grid: Grid
    parity: str = "even"  # parity in r about the pole: "even" | "odd"
    positive: bool = False

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        if vals.shape != (self.grid.n_r, self.grid.n_t):
            raise FieldError(f"values shape {vals.shape} does not match grid "
                             f"({self.grid.n_r}, {self.grid.n_t})")
        if not np.all(np.isfinite(vals)):
            raise FieldError("field contains non-finite values")
        if self.parity not in ("even", "odd"):
            raise FieldError("parity must be 'even' or 'odd'")
        if self.positive and np.any(vals <= 0):
            raise FieldError("field tagged positive has non-positive entries")


def _d1(vals, h, axis, pole, parity):
    a = np.moveaxis(vals, axis, 0)
    out = np.empty_like(a)
    out[1:-1] = (a[2:] - a[:-2]) / (2 * h)
    if pole:
        # ghost value by reflection: even -> f(-h) = f(h), odd -> f(-h) = -f(h)
        out[0] = 0.0 if parity == "even" else a[1] / h
    else:
        out[0] = (-3 * a[0] + 4 * a[1] - a[2]) / (2 * h)
    out[-1] = (3 * a[-1] - 4 * a[-2] + a[-3]) / (2 * h)
    return np.moveaxis(out, 0, axis)


def diff(fld: ScalarField, which: str) -> ScalarField:
    """Second-order finite difference of a field in r or t (a :class:`Grid`
    has enough nodes for either); d_r flips the parity about the pole."""
    if which not in DIFF_KINDS:
        raise FieldError(f"unknown derivative {which!r}")
    g = fld.grid
    if which == "d_t":
        vals = _d1(fld.values, g.dt, 1, pole=False, parity=fld.parity)
        return ScalarField(vals, g, parity=fld.parity)
    vals = _d1(fld.values, g.dr, 0, pole=g.pole, parity=fld.parity)
    return ScalarField(vals, g, parity="odd" if fld.parity == "even" else "even")
