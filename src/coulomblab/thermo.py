"""Free fermion energies and thermodynamic-limit extrapolation.

A grand canonical free fermion gas gives a solvable energy map on domains:
exact Dirichlet mode sums on axis-aligned boxes and on the corner
tetrahedron, and ``thermodynamic_extrapolation`` fits the bulk density of a
scaled family.  A rasterized finite-difference Dirichlet Laplacian (a
discretization-biased estimator used only for shape-independence checks) is
summed for the two domains whose raster has a known lattice spectrum, read
from the domain's type and scale: an axis-aligned cube, whose raster is the
full n^3 grid, and the corner tetrahedron, whose raster is its chamber
{j1 <= j2 <= j3}, both with equal steps.  The tests keep the midpoint raster
and its barycentric containment test as the oracle that each raster is that
mask.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .grafschenker import Simplex
from .liebthirring import (
    classical_lt_constant,
    cube_mode_energies_below,
    ladder_levels_below,
)

__all__ = [
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

# the corner tetrahedron's vertices, sorted so that a vertex list in any order
# equals them once sorted
_CORNER_VERTICES = [[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 1.0], [1.0, 1.0, 1.0]]


def _require_positive(**values: float) -> None:
    for name, value in values.items():
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be positive and finite, got {value!r}")


@dataclass
class BoxDomain:
    """Axis-aligned cube of the given side."""

    side: float

    def __post_init__(self):
        _require_positive(side=self.side)

    def volume(self) -> float:
        return self.side**3


@dataclass
class SimplexDomain:
    """ell simplex, in the simplex's own placement."""

    simplex: Simplex
    ell: float = 1.0

    def __post_init__(self):
        _require_positive(ell=self.ell)

    def volume(self) -> float:
        return self.simplex.volume * self.ell**3


def free_fermion_box_energy(side: float, mu: float, m: float) -> float:
    """Grand canonical ground energy of free fermions in a Dirichlet box.

    Sum over cube modes with eps_n + mu < 0 of (eps_n + mu), where
    eps_n = pi^2 |n|^2 / (2 m side^2).  Requires mu < 0 so the filled set is
    finite.
    """
    if mu >= 0:
        raise ValueError("mu must be negative for a finite filled set")
    _require_positive(side=side, m=m)
    return float(np.sum(cube_mode_energies_below(-mu, side, m) + mu))


def free_fermion_energy_density(mu: float, m: float) -> float:
    """Closed-form bulk density -C_lt m^(3/2) |mu|^(5/2).

    (2 pi)^-3 int_{p^2/2m + mu < 0} (p^2/2m + mu) d^3p is the phase-space
    energy of the constant potential V = |mu|, so its coefficient is the
    Lieb-Thirring phase-space constant: -(2^(5/2)/(30 pi^2)) m^(3/2) |mu|^(5/2).
    """
    if mu >= 0:
        raise ValueError("mu must be negative")
    _require_positive(m=m)
    return -classical_lt_constant() * m**1.5 * (-mu) ** 2.5


def _lattice_length(domain: BoxDomain | SimplexDomain) -> tuple[float, bool]:
    """The edge length of a raster with a known spectrum, and whether it is strict.

    The midpoint raster of a domain is anchored to its bounding box with
    n = max(ceil(length / h), 1) sites of step s = length / n on each axis.
    Two rasters have a separable spectrum.  A cube's is the full n^3 grid,
    with the levels l_a + l_b + l_c over all a, b, c in 1..n and
    l_a = (1 - cos(pi a / (n + 1))) / (m s^2).  The corner tetrahedron's, in
    any vertex order, is the chamber {j1 <= j2 <= j3} of that grid, its
    diagonal sites included (the tests check both masks against the
    barycentric containment of every site).  The chamber shifts to
    {0 <= k1 < k2 < k3 <= n + 1} by k_i = j_i + i - 1, where a neighbour
    that leaves the set lands on a plane k_i = k_(i+1) on which an
    antisymmetric function vanishes: its levels are those of the
    (n + 2)^3 grid over strictly increasing a < b < c.  Any other domain
    raises ValueError.
    """
    if isinstance(domain, BoxDomain):
        return domain.side, False
    if isinstance(domain, SimplexDomain) \
            and sorted(domain.simplex.vertices.tolist()) == _CORNER_VERTICES:
        return domain.ell, True
    raise ValueError("the domain is neither a cube nor the corner tetrahedron, so "
                     "its raster's lattice spectrum is not known")


def rasterized_dirichlet_energy(
    domain: BoxDomain | SimplexDomain, mu: float, m: float, h: float
) -> float:
    """Free fermion energy on the lattice rasterization of a domain.

    The 7-point Dirichlet Laplacian over midpoint lattice sites inside the
    domain (lattice anchored to the domain's own bounding box), with every
    mode below -mu filled.  Biased at O(h) by the staircase boundary; used
    only for shape-independence checks, never as the exact box path.

    Two domains have a raster with a known spectrum: a cube, whose raster is
    the full n^3 grid, and the corner tetrahedron, whose raster is the
    chamber {j1 <= j2 <= j3} of one, both with equal steps.  The domain's
    type and scale fix the mask (``_lattice_length``; the tests keep the
    midpoint raster as the oracle that it is that mask), and the filled
    levels are summed from a 1-D ladder by ``ladder_levels_below``.  Any
    other domain raises ValueError.
    """
    if mu >= 0:
        raise ValueError("mu must be negative")
    _require_positive(m=m, h=h)
    length, strict = _lattice_length(domain)
    n = max(math.ceil(length / h), 1)
    size = n + 2 if strict else n
    ladder = 1.0 - np.cos(np.pi * np.arange(1, size + 1) / (size + 1))
    levels = ladder_levels_below(ladder, 1.0 / (m * (length / n) ** 2), -mu,
                                 strict=strict)
    return float(np.sum(levels + mu))


def corner_tetrahedron() -> Simplex:
    """The simplex 0 <= x1 <= x2 <= x3 <= 1, a reflection cell of the cube."""
    return Simplex(np.array(_CORNER_VERTICES))


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
    _require_positive(ell=ell, m=m)
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
    energy: Callable[[BoxDomain | SimplexDomain], float],
    family: Callable[[float], BoxDomain | SimplexDomain],
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
