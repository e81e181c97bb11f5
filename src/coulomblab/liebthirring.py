"""Lieb-Thirring style bounds and the grand canonical stability constant.

The kinetic-vs-potential inequality used here is

    sum_j ( (1/2m)(-i grad_j + A)^2 - V(r_j) ) >= -C m^(3/2) int V^(5/2)

on the fermionic subspace of spinless fermions.  The constant C is the
phase-space (semiclassical) coefficient divided by (2 pi)^3 (Lieb & Thirring
1975; Lieb & Seiringer, The Stability of Matter in Quantum Mechanics, 2010),
which makes the derived box bound coincide with the Berezin-Li-Yau value, so
Dirichlet eigenvalue sums dominate it at every particle number.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coulomb import UNIT_BALL_SELF_ENERGY

__all__ = [
    "SpeciesSpec",
    "classical_lt_constant",
    "box_kinetic_lower_bound",
    "stability_constant",
    "dirichlet_cube_kinetic_sum",
    "cube_mode_energies_below",
    "ladder_levels_below",
]


def classical_lt_constant() -> float:
    """Phase-space coefficient per unit cell (2 pi)^3 of phase space.

    The coefficient kappa of int int_{p^2/2m <= V} (p^2/2m - V) dr dp
    = -kappa m^(3/2) int V^(5/2) is (8 pi / 15) 2^(3/2), so the constant is
    2^(3/2) / (15 pi^2).  With it the optimized box bound equals the
    Berezin-Li-Yau semiclassical kinetic energy, the sharp lower bound on
    Dirichlet eigenvalue sums.
    """
    return 2.0**1.5 / (15.0 * math.pi**2)


@dataclass
class SpeciesSpec:
    """Two fermion species with opposite charges and a chemical potential."""

    m_plus: float
    m_minus: float
    Q_plus: float
    Q_minus: float
    mu: float

    def __post_init__(self):
        if min(self.m_plus, self.m_minus, self.Q_plus, self.Q_minus) <= 0:
            raise ValueError("masses and charge magnitudes must be positive")


def box_kinetic_lower_bound(n: int, volume: float, m: float) -> float:
    """Kinetic lower bound for n fermions of mass m in a region of given volume.

    max over v >= 0 of (n v - C m^(3/2) v^(5/2) volume); the stationary
    point is v* = (2 n / (5 C m^(3/2) volume))^(2/3) and the maximum is
    (3/5) n v*, of the form const * m^-1 n^(5/3) volume^(-2/3).
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    if volume <= 0 or m <= 0:
        raise ValueError("volume and mass must be positive")
    c_lt = classical_lt_constant()
    v_star = (2.0 * n / (5.0 * c_lt * m**1.5 * volume)) ** (2.0 / 3.0)
    return 0.6 * n * v_star


def _density_coefficients(s: SpeciesSpec) -> tuple[float, float, float, float]:
    """(c1+, c1-, c2+, c2-) of the per-volume bound.

    The bound on E(mu, Omega)/|Omega| at species densities n+/- is

        c1+ n+^(5/3) + c1- n-^(5/3) - c2+ n-^(5/6) - c2- n+^(5/6) + mu (n+ + n-):

    c1 n^(5/3) comes from the half-kinetic box bound at effective mass 2m,
    c2 n_op^(5/6) from the optimized attraction term, whose q^5 factor is
    C (2m)^(3/2) (12/5)^(5/2) 8 pi, and mu (n+ + n-) from the chemical
    potential.  The bound is separable in (n+, n-).
    """
    c_lt = classical_lt_constant()

    def c1(m: float) -> float:
        return 0.6 * 0.4 ** (2.0 / 3.0) * c_lt ** (-2.0 / 3.0) / (2.0 * m)

    def c2(m: float, q: float) -> float:
        well = c_lt * (2.0 * m) ** 1.5 * UNIT_BALL_SELF_ENERGY**2.5 * 8.0 * math.pi
        return well * q**5 * (6.0 * 5.0 ** (-5.0 / 6.0))

    return c1(s.m_plus), c1(s.m_minus), c2(s.m_plus, s.Q_plus), c2(s.m_minus, s.Q_minus)


def _species_minimum(c1: float, c2: float, mu: float) -> float:
    """min over n >= 0 of g(n) = c1 n^(5/3) - c2 n^(5/6) + mu n.

    With y = n^(1/6), g'(n) = 0 reads h(y) = (5/3) c1 y^5 + mu y - (5/6) c2
    = 0.  Its coefficients change sign once, so it has exactly one positive
    root (Descartes), and since g(0) = 0 and g'(0+) = -inf that root is the
    global minimum.  h is convex on y > 0, so Newton's method started at an
    upper bound of the root decreases monotonically onto it; it stops when
    rounding ends the decrease.
    """
    a, b = 5.0 / 3.0 * c1, 5.0 / 6.0 * c2
    if mu >= 0:
        y = (b / a) ** 0.2
    else:
        y = max((2.0 * b / a) ** 0.2, (-2.0 * mu / a) ** 0.25)
    while True:
        y_next = y - (a * y**5 + mu * y - b) / (5.0 * a * y**4 + mu)
        if not y_next < y:
            break
        y = y_next
    n = y**6
    return c1 * n ** (5.0 / 3.0) - c2 * n ** (5.0 / 6.0) + mu * n


def stability_constant(s: SpeciesSpec) -> float:
    """Minimum over densities n+/- >= 0 of the per-volume bound.

    The bound of _density_coefficients is separable, so each species is
    minimized exactly by the root of a quintic in n^(1/6).  The 5/3 growth
    beats the 5/6 attraction so the minimum is finite.  The returned value is
    the (typically negative) constant bounding E(mu, Omega)/|Omega| from
    below.
    """
    c1p, c1m, c2p, c2m = _density_coefficients(s)
    # n+ feels the attraction of the opposite species through c2-, and n-
    # through c2+
    return _species_minimum(c1p, c2m, s.mu) + _species_minimum(c1m, c2p, s.mu)


def ladder_levels_below(
    ladder: np.ndarray, scale: float, threshold: float, *, strict: bool = False
) -> np.ndarray:
    """Sorted levels scale (l_a + l_b + l_c) below `threshold`.

    The l_a are the entries of a positive 1-D ladder; the index triples
    (a, b, c) run over all of them, or with `strict` over the strictly
    increasing ones only (the antisymmetric sector).  Each sum is scaled
    once, so an integer ladder sums exactly.  An entry with scale
    l_a >= threshold is dropped before the enumeration: every sum that holds
    it is at least l_a, in floating point too.  This is the package's one
    enumeration of separable Dirichlet levels.
    """
    ladder = np.asarray(ladder)
    ladder = ladder[scale * ladder < threshold]
    if ladder.size == 0:
        return np.empty(0)
    # entry (a, b, c) is rounded as (l_a + l_b) + l_c
    sums = ladder[:, None, None] + ladder[:, None] + ladder
    if strict:
        index = np.arange(ladder.size)
        sums = sums[(index[:, None, None] < index[:, None]) & (index[:, None] < index)]
    levels = scale * sums.reshape(-1)
    return np.sort(levels[levels < threshold])


def cube_mode_energies_below(
    threshold: float, side: float, mass: float, *, strict: bool = False
) -> np.ndarray:
    """Sorted Dirichlet cube mode energies pi^2 |n|^2 / (2 m side^2) below `threshold`.

    Modes n run over all positive integer triples, or with `strict` over the
    strictly increasing ones only (the antisymmetric sector, whose levels
    are the spectrum of the corner simplex 0 <= x1 <= x2 <= x3 <= side):
    the ladder k^2 of `ladder_levels_below`.
    """
    if threshold <= 0:
        return np.empty(0)
    n2_max = threshold * 2.0 * mass * side**2 / math.pi**2
    cap = int(math.floor(math.sqrt(n2_max)))
    if cap < 1:
        return np.empty(0)
    return ladder_levels_below(np.arange(1, cap + 1) ** 2,
                               math.pi**2 / (2.0 * mass * side**2), threshold,
                               strict=strict)


def dirichlet_cube_kinetic_sum(n: int, side: float, mass: float) -> float:
    """Sum of the n lowest Dirichlet cube eigenvalues pi^2 |k|^2 / (2 m side^2).

    Modes k run over positive integer triples.  The cap grows until at least
    n levels lie below (cap+1)^2 + 2, the least |k|^2 of any mode with an
    index above the cap, so those levels are the lowest.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if side <= 0 or mass <= 0:
        raise ValueError("side and mass must be positive")
    scale = math.pi**2 / (2.0 * mass * side**2)
    cap = max(2, int(math.ceil((3.0 * n) ** (1.0 / 3))) + 1)
    while True:
        levels = cube_mode_energies_below(scale * ((cap + 1) ** 2 + 2), side, mass)
        if levels.size >= n:
            return float(levels[:n].sum())
        cap = int(cap * 1.5) + 1
