"""Shared numerical substrate.

Radial grid functions, a Gauss-Legendre panel rule and discrete
Legendre transforms.  Everything here is a pure function of its inputs.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import ConvexityError, SlopeRangeError

__all__ = [
    "RadialGridFunction",
    "KineticProfile",
    "gauss_panels",
    "legendre_transform",
]


@dataclass
class RadialGridFunction:
    """Scalar function sampled on a strictly increasing radial grid.

    Beyond the last node it is extended by zero.
    """

    nodes: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.nodes = np.asarray(self.nodes, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if len(self.nodes.shape) != 1 or self.nodes.size < 2:
            raise ValueError("need at least two radial nodes")
        if self.nodes.shape != self.values.shape:
            raise ValueError("nodes and values must have equal length")
        if self.nodes[0] < 0:
            raise ValueError("first node must be >= 0")
        if not np.all(np.diff(self.nodes) > 0):
            raise ValueError("nodes must be strictly increasing")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("values must be finite")

    def __call__(self, r):
        """Piecewise-linear interpolant inside the grid, zero beyond it."""
        out = np.interp(r, self.nodes, self.values, right=0.0)
        return out if np.shape(out) else float(out)


@dataclass
class KineticProfile:
    """Kinetic energy function T(p) of a single particle.

    kind "nonrelativistic": T(p) = p^2 / (2 m)
    kind "relativistic":    T(p) = sqrt(p^2 + m^2) - m
    """

    kind: str
    m: float

    def __post_init__(self):
        if self.kind not in ("nonrelativistic", "relativistic"):
            raise ValueError(f"unknown kinetic profile kind {self.kind!r}")
        if not self.m > 0:
            raise ValueError("mass must be positive")

    def __call__(self, p):
        p = np.asarray(p, dtype=float)
        if self.kind == "nonrelativistic":
            return p * p / (2.0 * self.m)
        # sqrt(p^2+m^2)-m evaluated without cancellation for p << m
        return p * p / (np.sqrt(p * p + self.m**2) + self.m)


def legendre_transform(
    p: np.ndarray,
    t: np.ndarray,
    v: float,
) -> float:
    """sup_p (v*p - T(p)) of a convex function sampled on a grid.

    The grid maximum is refined with the vertex of the parabola through the
    three samples around the argmax, which is exact for quadratic T.  The
    dual variable v must lie inside the range of attained chord slopes,
    otherwise the supremum is not localized on the grid.
    """
    p = np.asarray(p, dtype=float)
    t = np.asarray(t, dtype=float)
    if len(p.shape) != 1 or p.size < 3 or p.shape != t.shape:
        raise ValueError("need matching 1-d arrays with at least 3 samples")
    if not np.all(np.diff(p) > 0):
        raise ValueError("momentum grid must be strictly increasing")

    scale = max(1.0, float(np.abs(t).max()))
    slopes = np.diff(t) / np.diff(p)
    if np.any(np.diff(slopes) < -1e-9 * scale):
        raise ConvexityError("second differences violate convexity")
    if not (slopes[0] - 1e-9 <= v <= slopes[-1] + 1e-9):
        raise SlopeRangeError(
            f"v={v} outside attained slope range [{slopes[0]}, {slopes[-1]}]"
        )

    g = v * p - t
    i = int(np.argmax(g))
    if i in (0, p.size - 1):
        return float(g[i])
    # parabola through (p[i-1], g[i-1]), (p[i], g[i]), (p[i+1], g[i+1])
    x0, x1, x2 = p[i - 1 : i + 2]
    y0, y1, y2 = g[i - 1 : i + 2]
    d1 = (y1 - y0) / (x1 - x0)
    d2 = (y2 - y1) / (x2 - x1)
    curv = (d2 - d1) / (x2 - x0)
    if curv >= 0:
        return float(g[i])
    xv = 0.5 * (x0 + x1 - d1 / curv)
    yv = y0 + d1 * (xv - x0) + curv * (xv - x0) * (xv - x1)
    return float(max(yv, g[i]))


_GAUSS_NODES, _GAUSS_WEIGHTS = leggauss(32)


def gauss_panels(f, edges) -> float:
    """int f from edges[0] to edges[-1], a 32-point Gauss-Legendre rule per panel.

    ``f`` maps an array of abscissae of shape (panels, 32) to integrand
    values of the same shape, or of shape (..., panels, 32) for a batch of
    integrals, returned as an array of shape (...).  The rule is exact for
    polynomials of degree 63 on each panel, so the edges should split the
    range where the integrand changes its scale, leaving it smooth on every
    panel.
    """
    edges = np.asarray(edges, dtype=float)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[1:] + edges[:-1])
    x = mid[:, None] + half[:, None] * _GAUSS_NODES
    out = np.sum(half * (f(x) @ _GAUSS_WEIGHTS), axis=-1)
    return float(out) if out.shape == () else out
