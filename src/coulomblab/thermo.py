"""Energy-map axioms and thermodynamic-limit extrapolation.

An energy map assigns a real number to bounded open domains.  The axioms
checked here are normalization (empty set maps to 0), volume stability,
integer translation invariance, monotone continuity under domain shrinking,
and the isometry-averaged subaverage property.  A grand canonical free
fermion gas in a box provides a solvable concrete map: exact Dirichlet mode
sums on axis-aligned boxes, a rasterized finite-difference Dirichlet
Laplacian on everything else (a discretization-biased estimator used only
for shape-independence checks).  Two raster masks have a known lattice
spectrum and are summed from a 1-D ladder: the full n^3 grid and its chamber
{j1 <= j2 <= j3}, both with equal steps (the rasters of an axis-aligned cube
and of the corner tetrahedron).  Every other mask goes to ``eigsh``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

import numpy as np

from .grafschenker import Simplex, SimplexTester, random_rotations, regular_tetrahedron
from .liebthirring import (
    classical_lt_constant,
    cube_mode_energies_below,
    ladder_levels_below,
)

if TYPE_CHECKING:
    import scipy.sparse as sp

__all__ = [
    "Domain",
    "EmptyDomain",
    "BoxDomain",
    "SimplexDomain",
    "IntersectionDomain",
    "DifferenceDomain",
    "EnergyMap",
    "free_fermion_box_energy",
    "free_fermion_energy_density",
    "free_fermion_energy_map",
    "corner_tetrahedron",
    "corner_simplex_exact_energy",
    "volume_energy_map",
    "rasterized_dirichlet_energy",
    "axiom_check",
    "AxiomCheckResult",
    "thermodynamic_extrapolation",
    "ExtrapolationReport",
]


class Domain:
    """Bounded region of 3-space with containment test and bounding box."""

    def contains(self, points: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    def volume(self, h: float = 0.05) -> float:
        """Midpoint-lattice volume; exact shapes override."""
        mask, steps = _midpoint_raster(self, h)
        return float(np.prod(steps)) * float(np.count_nonzero(mask))

    def translated(self, z: np.ndarray) -> "Domain":
        raise NotImplementedError

    @property
    def is_empty(self) -> bool:
        return False


class EmptyDomain(Domain):
    def contains(self, points):
        return np.zeros(points.shape[:-1], dtype=bool)

    def bounding_box(self):
        z = np.zeros(3)
        return z, z

    def volume(self, h: float = 0.05) -> float:
        return 0.0

    def translated(self, z):
        return self

    @property
    def is_empty(self) -> bool:
        return True


@dataclass
class BoxDomain(Domain):
    side: float
    center: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        if self.side <= 0:
            raise ValueError("side must be positive")
        self.center = np.asarray(self.center, dtype=float).reshape(3)

    def contains(self, points):
        d = np.abs(points - self.center)
        return np.all(d <= self.side / 2.0, axis=-1)

    def bounding_box(self):
        half = self.side / 2.0
        return self.center - half, self.center + half

    def volume(self, h: float = 0.05) -> float:
        return self.side**3

    def translated(self, z):
        return BoxDomain(self.side, self.center + np.asarray(z, dtype=float))


@dataclass
class SimplexDomain(Domain):
    """g (ell simplex) for an isometry g = (rotation, translation)."""

    simplex: Simplex
    ell: float = 1.0
    rotation: np.ndarray = field(default_factory=lambda: np.eye(3))
    translation: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        self.rotation = np.asarray(self.rotation, dtype=float).reshape(3, 3)
        self.translation = np.asarray(self.translation, dtype=float).reshape(3)
        self._tester = SimplexTester(self.simplex, self.ell)

    def contains(self, points):
        local = (points - self.translation) @ self.rotation
        return self._tester.contains(local)

    def bounding_box(self):
        verts = (self.ell * self.simplex.vertices) @ self.rotation.T + self.translation
        return verts.min(axis=0), verts.max(axis=0)

    def volume(self, h: float = 0.05) -> float:
        return self.simplex.volume * self.ell**3

    def translated(self, z):
        return SimplexDomain(
            self.simplex, self.ell, self.rotation,
            self.translation + np.asarray(z, dtype=float)
        )


@dataclass
class IntersectionDomain(Domain):
    a: Domain
    b: Domain

    def contains(self, points):
        return self.a.contains(points) & self.b.contains(points)

    def bounding_box(self):
        lo_a, hi_a = self.a.bounding_box()
        lo_b, hi_b = self.b.bounding_box()
        lo = np.maximum(lo_a, lo_b)
        hi = np.minimum(hi_a, hi_b)
        if np.any(hi <= lo):
            z = np.zeros(3)
            return z, z
        return lo, hi

    def translated(self, z):
        return IntersectionDomain(self.a.translated(z), self.b.translated(z))


@dataclass
class DifferenceDomain(Domain):
    a: Domain
    b: Domain

    def contains(self, points):
        return self.a.contains(points) & ~self.b.contains(points)

    def bounding_box(self):
        return self.a.bounding_box()

    def translated(self, z):
        return DifferenceDomain(self.a.translated(z), self.b.translated(z))


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


@dataclass
class EnergyMap:
    """Named map from domains to energies; the empty set must map to 0."""

    name: str
    evaluate: Callable[[Domain], float]


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


def _symmetric_lu(a: sp.csc_matrix):
    """SuperLU factors of a symmetric matrix, in effect an LDL^T.

    The minimum-degree ordering of A^T + A is applied to rows and columns
    alike and every pivot is taken on the diagonal, so U's diagonal holds
    the pivots D of P A P^T = L D L^T.
    """
    from scipy.sparse.linalg import splu

    return splu(a, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                options={"SymmetricMode": True})


def _modes_below(ham: sp.csc_matrix, threshold: float) -> int:
    """Eigenvalues of ham below threshold, by Sylvester's law of inertia.

    The count is the number of negative pivots of ham - threshold I.  Without
    pivoting for stability it can miscount, so it only sizes the eigensolve.
    When threshold is an eigenvalue and a pivot vanishes exactly, the count
    falls back to 0 and the eigensolve's retry finds the size.
    """
    import scipy.sparse as sp

    shifted = ham - threshold * sp.identity(ham.shape[0], format="csc")
    try:
        pivots = _symmetric_lu(shifted).U.diagonal()
    except RuntimeError:  # SuperLU: "Factor is exactly singular"
        return 0
    return int(np.count_nonzero(pivots < 0.0))


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

    Builds the 7-point Dirichlet Laplacian over midpoint lattice sites inside
    the domain (lattice anchored to the domain's own bounding box, which
    makes integer translates raster identically) and fills every mode below
    -mu.  Biased at O(h) by the staircase boundary; used only for
    shape-independence checks, never as the exact box path.

    Two masks have a known spectrum: the full n^3 grid and the chamber
    {j1 <= j2 <= j3} of one, both with equal steps (the raster of an
    axis-aligned cube and of the corner tetrahedron).  Their filled levels
    are summed from a 1-D ladder by ``ladder_levels_below``; see
    ``_solvable_ladder``.  The check reads the mask, not the domain's type.

    Every other mask takes the eigensolver.  The inertia of H + mu I counts
    the filled modes, and one shift-invert ``eigsh`` call with k = count + 4
    finds them, reusing a single factorization of H.  The count only sizes
    k: the energy sums the modes ``eigsh`` returns, and k doubles until the
    highest of them reaches -mu.  When k would reach the number of sites, a
    dense solve takes every mode.  ARPACK starts from a seeded vector, so the
    result is a pure function of the arguments.
    """
    if mu >= 0:
        raise ValueError("mu must be negative")
    mask, steps = _midpoint_raster(domain, h)
    n_sites = int(np.count_nonzero(mask))
    if n_sites == 0:
        return 0.0
    solvable = _solvable_ladder(mask, steps)
    if solvable is not None:
        ladder, strict = solvable
        levels = ladder_levels_below(ladder, 1.0 / (m * steps[0] ** 2), -mu,
                                     strict=strict)
        return float(np.sum(levels + mu))

    import scipy.sparse as sp
    from scipy.sparse.linalg import LinearOperator, eigsh

    # the raster Laplacian is the principal submatrix, on the inside sites,
    # of the bounding-box lattice Laplacian: the kron sum of three 1-D second
    # differences, axis 2 varying fastest as in the mask's flat order
    lap = None
    for axis, (n, s) in enumerate(zip(mask.shape, steps)):
        second = sp.diags([-1.0 / s**2, 2.0 / s**2, -1.0 / s**2], [-1, 0, 1],
                          shape=(n, n))
        term = sp.kron(sp.kron(sp.identity(math.prod(mask.shape[:axis])), second),
                       sp.identity(math.prod(mask.shape[axis + 1:])), format="csr")
        lap = term if lap is None else lap + term
    sites = np.flatnonzero(mask)
    lap = lap[sites][:, sites].tocsc()
    ham = lap * (1.0 / (2.0 * m))

    threshold = -mu
    k = _modes_below(ham, threshold) + 4
    solve = LinearOperator(ham.shape, matvec=_symmetric_lu(ham).solve, dtype=float)
    v0 = np.random.default_rng(0).standard_normal(n_sites)
    while k < n_sites - 1:
        w = eigsh(ham, k=k, sigma=0.0, which="LM", OPinv=solve, v0=v0,
                  return_eigenvectors=False)
        if w.max() >= threshold:
            break
        k *= 2
    else:
        # every mode may be filled: eigsh cannot return all n_sites of them
        w = np.linalg.eigvalsh(ham.toarray())
    w = np.sort(w)
    filled = w[w < threshold]
    return float(np.sum(filled + mu))


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


def free_fermion_energy_map(mu: float, m: float, raster_h: float = 0.5) -> EnergyMap:
    """Exact on axis-aligned boxes, rasterized FD everywhere else."""

    def evaluate(domain: Domain) -> float:
        if domain.is_empty:
            return 0.0
        if isinstance(domain, BoxDomain):
            return free_fermion_box_energy(domain.side, mu, m)
        return rasterized_dirichlet_energy(domain, mu, m, raster_h)

    return EnergyMap(name=f"free_fermion(mu={mu},m={m})", evaluate=evaluate)


def volume_energy_map(raster_h: float = 0.1) -> EnergyMap:
    return EnergyMap(name="minus_volume", evaluate=lambda d: -d.volume(raster_h))


@dataclass
class AxiomCheckResult:
    passed: dict[str, bool]
    worst_margins: dict[str, float]
    details: dict[str, list]

    @property
    def all_pass(self) -> bool:
        return all(self.passed.values())


def axiom_check(
    em: EnergyMap,
    suite: list[Domain],
    kappa: float,
    alpha: Callable[[float], float],
    ell: float = 6.0,
    mc_samples: int = 48,
    seed: int = 0,
    a5_subset: int = 1,
) -> AxiomCheckResult:
    """Check the five energy-map axioms on a domain suite.

    Normalization and translation invariance are exact checks; stability and
    continuity compare against kappa and alpha; the subaverage property is
    estimated by Monte Carlo over isometries of the regular tetrahedron (the
    translation cell covers the domain inflated by the simplex reach) and is
    accepted within three standard errors.  Margins are signed with positive
    meaning satisfied; an axiom passes when its margin is at least -1e-9.
    """
    if not suite:
        raise ValueError("domain suite must not be empty")
    tol = 1e-9
    passed: dict[str, bool] = {}
    worst: dict[str, float] = {}
    details: dict[str, list] = {"A2": [], "A3": [], "A4": [], "A5": []}

    # A1 normalization
    e_empty = em.evaluate(EmptyDomain())
    passed["A1"] = abs(e_empty) <= tol
    worst["A1"] = -abs(e_empty)

    # A2 stability: E >= -kappa |Omega|
    margins = []
    for dom in suite:
        e = em.evaluate(dom)
        margin = e + kappa * dom.volume()
        margins.append(margin)
        details["A2"].append({"energy": e, "volume": dom.volume(), "margin": margin})
    worst["A2"] = float(min(margins))
    passed["A2"] = worst["A2"] >= -tol

    # A3 translation invariance on integer shifts
    rng = np.random.default_rng([seed, 3])
    margins = []
    for dom in suite:
        z = rng.integers(-3, 4, size=3).astype(float)
        diff = abs(em.evaluate(dom.translated(z)) - em.evaluate(dom))
        margins.append(-diff)
        details["A3"].append({"shift": list(z), "diff": diff})
    worst["A3"] = float(min(margins))
    passed["A3"] = worst["A3"] >= -tol

    # A4 continuity on nested boxes with margin delta
    margins = []
    for dom in suite:
        if not isinstance(dom, BoxDomain) or dom.side <= 2.5:
            continue
        inner = BoxDomain(dom.side - 2.0, dom.center)
        e_outer = em.evaluate(dom)
        e_inner = em.evaluate(inner)
        shell = dom.volume() - inner.volume()
        bound = e_inner + kappa * shell + dom.volume() * alpha(dom.volume())
        margins.append(bound - e_outer)
        details["A4"].append({"outer": e_outer, "inner": e_inner, "margin": bound - e_outer})
    worst["A4"] = float(min(margins)) if margins else 0.0
    passed["A4"] = worst["A4"] >= -tol

    # A5 subaverage by Monte Carlo over isometries
    simplex = regular_tetrahedron()
    tester = SimplexTester(simplex, ell)
    margins = []
    for dom in suite[:a5_subset]:
        lo, hi = dom.bounding_box()
        lo = lo - tester.reach
        hi = hi + tester.reach
        v_cell = float(np.prod(hi - lo))
        rng = np.random.default_rng([seed, 5])
        rots = random_rotations(rng, mc_samples)
        trans = rng.uniform(lo, hi, size=(mc_samples, 3))
        vals = np.empty(mc_samples)
        for i in range(mc_samples):
            piece = IntersectionDomain(
                dom, SimplexDomain(simplex, ell, rots[i], trans[i])
            )
            vals[i] = em.evaluate(piece)
        factor = v_cell / tester.volume
        avg = factor * float(vals.mean())
        std = float(vals.std(ddof=1)) if mc_samples > 1 else 0.0
        avg_err = factor * std / math.sqrt(mc_samples)
        e_dom = em.evaluate(dom)
        # E(Omega) >= avg - |Omega| alpha(ell), within MC error
        margin = e_dom - (avg - dom.volume() * alpha(ell)) + 3.0 * avg_err
        margins.append(margin)
        details["A5"].append({"energy": e_dom, "average": avg,
                              "avg_std_error": avg_err, "margin": margin})
    worst["A5"] = float(min(margins)) if margins else 0.0
    passed["A5"] = worst["A5"] >= -tol

    return AxiomCheckResult(passed=passed, worst_margins=worst, details=details)


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
    em: EnergyMap,
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
        densities.append(em.evaluate(dom) / dom.volume())
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
