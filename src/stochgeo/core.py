"""Shared result containers and error types."""

from dataclasses import dataclass, field

import numpy as np


class ToleranceError(RuntimeError):
    """A numerical routine could not meet its requested tolerance."""


@dataclass
class Estimate:
    """Monte Carlo estimate: sample mean, its standard error, trial count, seed."""

    mean: float
    stderr: float
    n: int
    seed: int

    def within(self, target, atol=0.0):
        """True if `target` lies within 3 standard errors (plus atol)."""
        return abs(self.mean - target) <= 3.0 * self.stderr + atol


@dataclass
class Curve:
    """A sampled curve: strictly increasing grid, values, optional CI band."""

    grid: np.ndarray
    values: np.ndarray
    ci_low: np.ndarray | None = None
    ci_high: np.ndarray | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.grid = np.asarray(self.grid, dtype=float)
        self.values = np.asarray(self.values)
        if self.grid.shape != self.values.shape:
            raise ValueError("grid and values must have equal length")
        if self.grid.size > 1 and not np.all(np.diff(self.grid) > 0):
            raise ValueError("grid must be strictly increasing")
        for band in (self.ci_low, self.ci_high):
            if band is not None and np.asarray(band).shape != self.grid.shape:
                raise ValueError("CI band length must match grid")


def theta_db(theta):
    """Linear SIR threshold to dB."""
    return 10.0 * np.log10(theta)


def theta_from_db(db):
    return 10.0 ** (np.asarray(db, dtype=float) / 10.0)


def theta_mh(theta):
    """Linear threshold t >= 0 mapped to the unit-interval MH coordinate t/(1+t)."""
    theta = np.asarray(theta, dtype=float)
    return theta / (1.0 + theta)


def theta_from_mh(m):
    m = np.asarray(m, dtype=float)
    return m / (1.0 - m)
