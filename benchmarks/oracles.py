"""Expected values computed apart from the program.

Nothing here imports ``coulomblab``: every quantity is rebuilt from its
definition or closed form with numpy, scipy and ``math``, so a check compares
the program against an independent computation, never against a saved copy
of its own output.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad

FOUR_PI = 4.0 * math.pi


# ---------------------------------------------------------------- condensate

def i0_closed_form() -> float:
    """4^(3/4) Gamma(3/4) / (5 pi^(1/4) Gamma(5/4)), the defining integral."""
    return 4.0**0.75 * math.gamma(0.75) / (5.0 * math.pi**0.25 * math.gamma(1.25))


def gaussian_trial_minimum(i0: float) -> float:
    """min over sigma of 3/(4 s^2) - I0 (pi s^2)^(-15/8) (4 pi s^2/5)^(3/2).

    The energy is a s^-2 - b s^(-3/4), minimized at s^(5/4) = 8a/(3b).
    """
    a = 0.75
    b = i0 * math.pi ** (-15.0 / 8.0) * (4.0 * math.pi / 5.0) ** 1.5
    sigma = (8.0 * a / (3.0 * b)) ** 0.8
    return a / sigma**2 - b * sigma ** (-0.75)


def dyson_grid(grid_n: int, r_max: float):
    r = np.linspace(0.0, r_max, grid_n + 1)
    h = r[1] - r[0]
    w = np.full_like(r, h)
    w[0] = w[-1] = 0.5 * h
    return r, h, w


def dyson_terms(u, r, h, w):
    """Discrete K, P and norm of u = r Phi: forward differences, trapezoid."""
    kinetic = FOUR_PI * h * float(np.sum(((u[1:] - u[:-1]) / h) ** 2))
    inner = r > 0
    potential = FOUR_PI * float(np.sum(w[inner] * u[inner] ** 2.5 / np.sqrt(r[inner])))
    norm2 = FOUR_PI * float(np.sum(w * u * u))
    return kinetic, potential, norm2


def dyson_projected_gradient(u, r, h, w, i0) -> float:
    """Norm of the KKT residual of K/2 - I0 P on the sphere 4 pi sum w u^2 = 1.

    The multiplier makes the residual orthogonal to u; components that push
    a zero entry below zero are dropped, as the bound u >= 0 is active there.
    """
    g = np.zeros_like(u)
    g[1:-1] = (FOUR_PI / h) * (2.0 * u[1:-1] - u[:-2] - u[2:])
    inner = np.flatnonzero(r > 0)
    g[inner] -= i0 * FOUR_PI * w[inner] * 2.5 * u[inner] ** 1.5 / np.sqrt(r[inner])
    g[0] = g[-1] = 0.0
    dn = 2.0 * FOUR_PI * w * u
    resid = g - (float(g @ u) / float(dn @ u)) * dn
    resid[(u <= 0.0) & (resid > 0.0)] = 0.0
    return float(np.linalg.norm(resid))


def dyson_initial_profile(r, h, w, width: float = 3.0):
    """The documented first iterate: r exp(-r^2/(2 width^2)), normalized."""
    u = r * np.exp(-(r**2) / (2.0 * width**2))
    u[0] = u[-1] = 0.0
    return u / math.sqrt(dyson_terms(u, r, h, w)[2])


def fock_closed_forms(lambdas, big_n: float):
    """Moments of the displaced-squeezed state from its lambdas alone."""
    lam = np.concatenate([[0.0], np.asarray(lambdas, dtype=float)])
    gam = lam**2 / (1.0 - lam**2)
    pairing = -np.sqrt(gam * (gam + 1.0))
    four = np.diag(pairing**2 + gam**2) + np.outer(gam, gam)
    return {
        "two_point": np.diag(gam),
        "pairing": np.diag(pairing),
        "four_point": four,
        "total_mean": big_n + float(gam.sum()),
        "total_variance": big_n + float((2.0 * gam * (gam + 1.0)).sum()),
    }


# ------------------------------------------------------------------- charges

def pair_distances(pos: np.ndarray) -> np.ndarray:
    diff = pos[:, None, :] - pos[None, :, :]
    return np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))


def nearest_opposite(pos, charges) -> np.ndarray:
    d = pair_distances(pos)
    opposite = np.sign(charges)[:, None] != np.sign(charges)[None, :]
    return np.where(opposite, d, np.inf).min(axis=1)


def point_energy(pos, charges) -> float:
    d = pair_distances(pos)
    iu = np.triu_indices(len(charges), k=1)
    return float(np.sum(np.outer(charges, charges)[iu] / d[iu]))


def pairs_with_overlap(pos, deltas):
    """Index pairs i < j, their distances, and whether their balls overlap."""
    d = pair_distances(pos)
    i, j = np.triu_indices(len(deltas), k=1)
    return i, j, d[i, j], d[i, j] < 0.5 * (deltas[i] + deltas[j])


def equal_ball_pair(delta: float, d: float) -> float:
    """Two unit-charge balls of radius a = delta/2 at distance d < 2a."""
    a = 0.5 * delta
    x = d / a
    return (1.2 - x * x / 2.0 + 3.0 * x**3 / 16.0 - x**5 / 160.0) / a


def ball_pair_quadrature(delta_i: float, delta_j: float, d: float) -> float:
    """Mean of ball i's Newton potential over ball j, by nested quadrature.

    The potential of a unit ball of radius a is 1/r outside and
    (3 - r^2/a^2)/(2a) inside; the angular mean over the sphere of radius s
    about ball j's centre and the radial mean over ball j are both done
    with adaptive quadrature, split where the potential changes formula.
    """
    a_i, a_j = 0.5 * delta_i, 0.5 * delta_j

    def potential(rr):
        return 1.0 / rr if rr >= a_i else (3.0 - rr * rr / (a_i * a_i)) / (2.0 * a_i)

    def sphere_mean(s):
        if s == 0.0:
            return potential(d)

        def f(t):
            return potential(math.sqrt(max(s * s + d * d - 2.0 * s * d * t, 0.0)))

        t_edge = (s * s + d * d - a_i * a_i) / (2.0 * s * d)
        pts = [t_edge] if -1.0 < t_edge < 1.0 else None
        val, _ = quad(f, -1.0, 1.0, points=pts, epsabs=0.0, epsrel=1e-13, limit=200)
        return 0.5 * val

    kinks = sorted({x for x in (abs(a_i - d), a_i + d) if 0.0 < x < a_j})
    val, _ = quad(lambda s: s * s * sphere_mean(s), 0.0, a_j, points=kinks or None,
                  epsabs=0.0, epsrel=1e-12, limit=200)
    return 3.0 * val / a_j**3


def rock_salt_block(rng: np.random.Generator, side: int):
    """side^3 sites of a rotated, shifted rock-salt block, charges +-q."""
    idx = np.stack(np.meshgrid(*[np.arange(side)] * 3, indexing="ij"), -1).reshape(-1, 3)
    spacing = float(rng.uniform(0.5, 2.0))
    q = float(rng.uniform(0.5, 2.0))
    quat = rng.standard_normal(4)
    w, x, y, z = quat / np.linalg.norm(quat)
    rot = np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
        [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
        [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
    ])
    pos = spacing * idx @ rot.T + rng.uniform(-5.0, 5.0, size=3)
    charges = q * np.where(idx.sum(axis=1) % 2 == 0, 1.0, -1.0)
    return pos, charges, spacing


# --------------------------------------------------------------------- raster

def lattice_axis_eigenvalues(length: float, h: float, m: float) -> np.ndarray:
    """1-d 3-point Dirichlet eigenvalues of the midpoint raster, over 2m."""
    n = max(int(math.ceil(length / h)), 1)
    s = length / n
    k = np.arange(1, n + 1)
    return (1.0 - np.cos(math.pi * k / (n + 1))) / (m * s * s)


def _triples(e1: np.ndarray, strict: bool) -> np.ndarray:
    total = e1[:, None, None] + e1[None, :, None] + e1[None, None, :]
    if not strict:
        return total.reshape(-1)
    i = np.arange(e1.size)
    order = (i[:, None, None] < i[None, :, None]) & (i[None, :, None] < i[None, None, :])
    return total[order]


def filled_energy(levels: np.ndarray, mu: float) -> tuple[float, int]:
    filled = levels[levels < -mu]
    return float(np.sum(filled + mu)), int(filled.size)


def box_lattice_energy(side, h, mu, m):
    """Exact energy and filled count of the 7-point raster of a cube."""
    return filled_energy(_triples(lattice_axis_eigenvalues(side, h, m), False), mu)


def simplex_interlacing_bounds(ell, h, mu, m):
    """(cube lattice, strictly ordered sublattice) energies and counts.

    The corner-tetrahedron raster is a principal submatrix of the cube
    lattice and contains the sites i1 < i2 < i3, whose Dirichlet spectrum is
    the antisymmetric part k1 < k2 < k3 of the cube spectrum.  Cauchy
    interlacing orders the filled energies cube <= raster <= sublattice.
    """
    e1 = lattice_axis_eigenvalues(ell, h, m)
    cube = filled_energy(_triples(e1, False), mu)
    sub = filled_energy(_triples(e1, True), mu)
    return cube, sub


def continuum_energy(ell, mu, m, strict: bool) -> float:
    """Dirichlet free-fermion energy of the cube (or its corner tetrahedron)."""
    kmax = int(math.sqrt(-mu * 2.0 * m * ell * ell) / math.pi) + 2
    k = np.arange(1, kmax + 1, dtype=float)
    levels = _triples(math.pi**2 * k * k / (2.0 * m * ell * ell), strict)
    return filled_energy(levels, mu)[0]


def bulk_density(mu, m) -> float:
    """-2^(5/2) m^(3/2) |mu|^(5/2) / (30 pi^2)."""
    return -(2.0**2.5) * m**1.5 * abs(mu) ** 2.5 / (30.0 * math.pi**2)


def tetrahedron_surface(vertices: np.ndarray) -> float:
    total = 0.0
    for skip in range(4):
        a, b, c = (vertices[i] for i in range(4) if i != skip)
        total += 0.5 * float(np.linalg.norm(np.cross(b - a, c - a)))
    return total


def staircase_allowance(h, surface, mu, m) -> float:
    """2 h |S| |e_bulk|: twice the energy of a one-step shell on the boundary.

    A midpoint raster moves each Dirichlet wall by at most one lattice step,
    which adds or removes about h |S| of volume at the bulk density.
    """
    return 2.0 * h * surface * abs(bulk_density(mu, m))


# ------------------------------------------------------------------------ cli

def lowest_cube_sum(n: int, side: float, m: float) -> float:
    """Sum of the n lowest Dirichlet cube levels pi^2 |k|^2 / (2 m side^2)."""
    kmax = 2
    while True:
        k = np.arange(1, kmax + 1)
        n2 = np.sort((k[:, None, None]**2 + k[None, :, None]**2 + k[None, None, :]**2).reshape(-1))
        # every triple with |k|^2 below (kmax+1)^2 + 2 is present
        if n2.size >= n and n2[n - 1] < (kmax + 1) ** 2 + 2:
            return math.pi**2 / (2.0 * m * side**2) * float(n2[:n].sum())
        kmax *= 2
