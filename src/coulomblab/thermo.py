"""Free fermion energies and thermodynamic-limit extrapolation.

A grand canonical free fermion gas gives a solvable energy map on domains:
exact Dirichlet mode sums on axis-aligned boxes and on the corner
tetrahedron, and ``thermodynamic_extrapolation`` fits the bulk density of a
scaled family.  A rasterized finite-difference Dirichlet Laplacian (a
discretization-biased estimator used only for shape-independence checks) is
summed for the two masks with a known lattice spectrum: the full n^3 grid
and its chamber {j1 <= j2 <= j3}, both with equal steps (the rasters of an
axis-aligned cube and of the corner tetrahedron).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .grafschenker import Simplex, SimplexTester
from .liebthirring import (
    classical_lt_constant,
    cube_mode_energies_below,
    ladder_levels_below,
)

__all__ = [
    "Domain",
    "BoxDomain",
    "SimplexDomain",
    "free_fermion_box_energy",
    "free_fermion_energy_density",
    "free_fermion_energy_map",
    "corner_tetrahedron",
    "corner_simplex_exact_energy",
    "rasterized_dirichlet_energy",
    "thermodynamic_extrapolation",
    "ExtrapolationReport",
]


class Domain:
    """Bounded region of 3-space with containment test and bounding box."""

    def contains(self, points: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    def volume(self) -> float:
        raise NotImplementedError


@dataclass
class BoxDomain(Domain):
    side: float

    def __post_init__(self):
        if self.side <= 0:
            raise ValueError("side must be positive")

    def contains(self, points):
        return np.all(np.abs(points) <= self.side / 2.0, axis=-1)

    def bounding_box(self):
        half = np.full(3, self.side / 2.0)
        return -half, half

    def volume(self) -> float:
        return self.side**3


@dataclass
class SimplexDomain(Domain):
    """ell simplex, in the simplex's own placement."""

    simplex: Simplex
    ell: float = 1.0

    def __post_init__(self):
        self._tester = SimplexTester(self.simplex, self.ell)

    def contains(self, points):
        return self._tester.contains(points)

    def bounding_box(self):
        verts = self.ell * self.simplex.vertices
        return verts.min(axis=0), verts.max(axis=0)

    def volume(self) -> float:
        return self.simplex.volume * self.ell**3


def _midpoint_raster(domain: Domain, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Containment mask of the midpoint lattice on the domain's bounding box.

    Each axis gets ceil(extent / h) cells (at least one), so the three steps
    are at most h.  Keep the midpoints as lo + (i + 1/2) (hi - lo) / count:
    the corner tetrahedron's diagonal sites lie on its faces, so whether
    they pass its barycentric test depends on the rounding of these values.
    """
    lo, hi = domain.bounding_box()
    counts = np.maximum(np.ceil((hi - lo) / h).astype(int), 1)
    axes = [lo[i] + (np.arange(counts[i]) + 0.5) * (hi[i] - lo[i]) / counts[i]
            for i in range(3)]
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    mask = domain.contains(pts.reshape(-1, 3)).reshape(pts.shape[:-1])
    return mask, (hi - lo) / counts


def free_fermion_box_energy(side: float, mu: float, m: float) -> float:
    """Grand canonical ground energy of free fermions in a Dirichlet box.

    Sum over cube modes with eps_n + mu < 0 of (eps_n + mu), where
    eps_n = pi^2 |n|^2 / (2 m side^2).  Requires mu < 0 so the filled set is
    finite.
    """
    if mu >= 0:
        raise ValueError("mu must be negative for a finite filled set")
    if side <= 0 or m <= 0:
        raise ValueError("side and mass must be positive")
    return float(np.sum(cube_mode_energies_below(-mu, side, m) + mu))


def free_fermion_energy_density(mu: float, m: float) -> float:
    """Closed-form bulk density -C_lt m^(3/2) |mu|^(5/2).

    (2 pi)^-3 int_{p^2/2m + mu < 0} (p^2/2m + mu) d^3p is the phase-space
    energy of the constant potential V = |mu|, so its coefficient is the
    Lieb-Thirring phase-space constant: -(2^(5/2)/(30 pi^2)) m^(3/2) |mu|^(5/2).
    """
    if mu >= 0:
        raise ValueError("mu must be negative")
    return -classical_lt_constant() * m**1.5 * (-mu) ** 2.5


def _solvable_ladder(
    mask: np.ndarray, steps: np.ndarray
) -> tuple[np.ndarray, bool] | None:
    """The 1-D ladder of a raster with a known spectrum, and whether it is strict.

    With n sites and step s on every axis, two masks have a separable
    spectrum.  The full n^3 grid has the levels l_a + l_b + l_c over all
    a, b, c in 1..n, with l_a = (1 - cos(pi a / (n + 1))) / (m s^2).  The
    chamber {j1 <= j2 <= j3} shifts to {0 <= k1 < k2 < k3 <= n + 1} by
    k_i = j_i + i - 1, where a neighbour that leaves the set lands on a plane
    k_i = k_(i+1) on which an antisymmetric function vanishes: its levels are
    those of the (n + 2)^3 grid over strictly increasing a < b < c.  The
    ladder is returned without its factor 1 / (m s^2); any other mask gives
    None.
    """
    n = mask.shape[0]
    if mask.shape != (n, n, n) or not steps[0] == steps[1] == steps[2]:
        return None
    if mask.all():
        size, strict = n, False
    else:
        j = np.arange(n)
        chamber = (j[:, None, None] <= j[None, :, None]) & (j[None, :, None] <= j)
        if not np.array_equal(mask, chamber):
            return None
        size, strict = n + 2, True
    return 1.0 - np.cos(np.pi * np.arange(1, size + 1) / (size + 1)), strict


def rasterized_dirichlet_energy(
    domain: Domain, mu: float, m: float, h: float
) -> float:
    """Free fermion energy on the lattice rasterization of a domain.

    The 7-point Dirichlet Laplacian over midpoint lattice sites inside the
    domain (lattice anchored to the domain's own bounding box), with every
    mode below -mu filled.  Biased at O(h) by the staircase boundary; used
    only for shape-independence checks, never as the exact box path.

    Two masks have a known spectrum: the full n^3 grid and the chamber
    {j1 <= j2 <= j3} of one, both with equal steps (the raster of an
    axis-aligned cube and of the corner tetrahedron).  Their filled levels
    are summed from a 1-D ladder by ``ladder_levels_below``; see
    ``_solvable_ladder``.  The check reads the mask, not the domain's type,
    and any other mask raises ValueError.
    """
    if mu >= 0:
        raise ValueError("mu must be negative")
    mask, steps = _midpoint_raster(domain, h)
    solvable = _solvable_ladder(mask, steps)
    if solvable is None:
        raise ValueError("the raster is neither a full cube grid nor its corner "
                         "chamber, so its lattice spectrum is not known")
    ladder, strict = solvable
    levels = ladder_levels_below(ladder, 1.0 / (m * steps[0] ** 2), -mu,
                                 strict=strict)
    return float(np.sum(levels + mu))


def corner_tetrahedron() -> Simplex:
    """The simplex 0 <= x1 <= x2 <= x3 <= 1, a reflection cell of the cube."""
    return Simplex(np.array(
        [[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 1.0], [1.0, 1.0, 1.0]]
    ))


def corner_simplex_exact_energy(ell: float, mu: float, m: float) -> float:
    """Exact free fermion energy on the corner tetrahedron of scale ell.

    Dirichlet eigenfunctions on 0 <= x1 <= x2 <= x3 <= ell are the
    antisymmetrized cube modes det[sin(pi k_i x_j / ell)] with distinct
    positive integers k1 < k2 < k3, so the spectrum is the cube spectrum
    restricted to strictly increasing index triples.  Serves as the
    independent oracle for the rasterized estimator.
    """
    if mu >= 0:
        raise ValueError("mu must be negative")
    return float(np.sum(cube_mode_energies_below(-mu, ell, m, strict=True) + mu))


def free_fermion_energy_map(mu: float, m: float) -> Callable[[BoxDomain], float]:
    """The exact free fermion energy as a map on axis-aligned boxes."""
    return lambda box: free_fermion_box_energy(box.side, mu, m)


@dataclass
class ExtrapolationReport:
    scales: np.ndarray
    densities: np.ndarray
    e_infinity: float
    coefficients: np.ndarray
    residual_rms: float
    stderr: float
    fit_warning: bool

    def rows(self) -> list[dict]:
        fit = self.coefficients
        out = []
        for L, e in zip(self.scales, self.densities):
            pred = fit[0] + fit[1] / L + fit[2] / L**2
            out.append({"L": float(L), "e": float(e), "fit": float(pred)})
        return out


def thermodynamic_extrapolation(
    energy: Callable[[Domain], float],
    family: Callable[[float], Domain],
    l_list: np.ndarray,
) -> ExtrapolationReport:
    """Fit e(L) = e_inf + a/L + b/L^2 to energy densities of a scaled family.

    Returns the extrapolated bulk density with the least-squares standard
    error of the intercept; a warning flag is raised when the data wiggle
    more than the fitted trend explains (residual rms above 5% of the
    density scale).
    """
    l_arr = np.asarray(l_list, dtype=float)
    if l_arr.size < 3 or np.any(np.diff(l_arr) <= 0):
        raise ValueError("need at least 3 increasing scales")
    densities = []
    for L in l_arr:
        dom = family(L)
        densities.append(energy(dom) / dom.volume())
    densities = np.asarray(densities)

    design = np.stack([np.ones_like(l_arr), 1.0 / l_arr, 1.0 / l_arr**2], axis=1)
    coef, *_ = np.linalg.lstsq(design, densities, rcond=None)
    resid = densities - design @ coef
    dof = max(l_arr.size - 3, 1)
    sigma2 = float(resid @ resid) / dof
    cov = sigma2 * np.linalg.inv(design.T @ design)
    stderr = math.sqrt(max(cov[0, 0], 0.0))
    rms = math.sqrt(float(np.mean(resid**2)))
    scale = max(abs(float(np.mean(densities))), 1e-300)
    return ExtrapolationReport(
        scales=l_arr,
        densities=densities,
        e_infinity=float(coef[0]),
        coefficients=coef,
        residual_rms=rms,
        stderr=stderr,
        fit_warning=bool(rms > 0.05 * scale),
    )
