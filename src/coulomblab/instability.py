"""Collapse mechanisms: relativistic two-body scaling and attractive Fermi gases.

Gaussian trial states keep every expectation a one-dimensional radial
quadrature: the single-particle momentum of a (possibly correlated) Gaussian
pair is again Gaussian, and the relative coordinate carries the Coulomb
attraction.  Dilated states obey the exact identity

    l <psi_l, H(m) psi_l> = <psi, H(l m) psi>,

so the massless limit l -> 0 reveals whether the attraction wins.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .liebthirring import dirichlet_cube_kinetic_sum
from .numerics import gauss_panels

__all__ = [
    "TwoBodyTrialState",
    "relativistic_kinetic_expectation",
    "relativistic_two_body_energy",
    "critical_charge_upper_bound",
    "attractive_collapse_experiment",
    "CollapseReport",
]


@dataclass
class TwoBodyTrialState:
    """Normalized Gaussian pair wave function.

    kind "separable": psi(r1, r2) = g_a(r1) g_a(r2) with width a.
    kind "correlated": psi = G_A(center) G_B(relative) in center-of-mass and
    relative coordinates, widths (A, B).

    Width convention g_a(x) ~ exp(-x^2 / (2 a^2)), so each single-particle
    momentum component has variance 1/(2 a^2) in the separable case and
    1/(8 A^2) + 1/(2 B^2) in the correlated one (p_1 = P/2 + q with
    independent Gaussian P and q).  Normalization is analytic.
    """

    kind: str
    width: float = 1.0
    center_width: float = 1.0
    relative_width: float = 1.0

    def __post_init__(self):
        if self.kind not in ("separable", "correlated"):
            raise ValueError(f"unknown trial state kind {self.kind!r}")
        if min(self.width, self.center_width, self.relative_width) <= 0:
            raise ValueError("widths must be positive")

    def momentum_std(self) -> float:
        """Per-component standard deviation of a single particle momentum."""
        if self.kind == "separable":
            return math.sqrt(1.0 / (2.0 * self.width**2))
        return math.sqrt(
            1.0 / (8.0 * self.center_width**2) + 1.0 / (2.0 * self.relative_width**2)
        )

    def inverse_distance_expectation(self) -> float:
        """<1/|r_1 - r_2|> for the Gaussian relative coordinate."""
        if self.kind == "separable":
            return math.sqrt(2.0 / math.pi) / self.width
        return 2.0 / (math.sqrt(math.pi) * self.relative_width)

    def scaled(self, ell: float) -> "TwoBodyTrialState":
        """Dilated state psi_l(r1, r2) = l^-3 psi(r1/l, r2/l)."""
        if ell <= 0:
            raise ValueError("scale must be positive")
        if self.kind == "separable":
            return TwoBodyTrialState("separable", width=self.width * ell)
        return TwoBodyTrialState(
            "correlated",
            center_width=self.center_width * ell,
            relative_width=self.relative_width * ell,
        )


def relativistic_kinetic_expectation(mass: float, sigma: float) -> float:
    """<sqrt(p^2 + m^2) - m> against a radial Gaussian momentum density.

    sigma is the per-component momentum standard deviation.  The integrand
    uses p^2 / (sqrt(p^2 + m^2) + m), stable for p much smaller than m, so
    the nonrelativistic limit <p^2>/(2m) emerges without cancellation.  The
    radial integral runs over 16 equal gauss_panels on [0, 40 sigma].
    """
    if mass < 0 or sigma <= 0:
        raise ValueError("mass must be >= 0 and sigma positive")
    norm = (2.0 * math.pi * sigma**2) ** -1.5

    def integrand(p):
        kin = p * p / (np.sqrt(p * p + mass * mass) + mass)
        return 4.0 * math.pi * p * p * norm * np.exp(-p * p / (2.0 * sigma**2)) * kin

    return gauss_panels(integrand, np.linspace(0.0, 40.0 * sigma, 17))


def relativistic_two_body_energy(
    t: TwoBodyTrialState, q: float, mass: float, ell: float = 1.0
) -> float:
    """Energy of the dilated trial state under two relativistic particles.

    Twice the kinetic term <sqrt(-Lap + m^2) - m>, by momentum quadrature,
    plus the attraction -q <1/|r1 - r2|>, both on the state scaled by ell.
    """
    if q < 0 or mass < 0 or ell <= 0:
        raise ValueError("q, mass must be >= 0 and ell positive")
    scaled = t.scaled(ell)
    kinetic = relativistic_kinetic_expectation(mass, scaled.momentum_std())
    return 2.0 * kinetic - q * scaled.inverse_distance_expectation()


def critical_charge_upper_bound(family: list[TwoBodyTrialState]) -> float:
    """Smallest coupling where some trial state turns the massless energy negative.

    The massless energy 2 <|p|> - Q <1/r> of one shape is linear in Q and
    homogeneous of degree -1 in the width, so its threshold 2 <|p|> / <1/r>
    is width independent; <|p|> = 2 sigma sqrt(2/pi) for a Gaussian momentum
    with per-component deviation sigma.  The result is a variational upper
    bound on the true critical charge, monotone under family enlargement.
    """
    if not family:
        raise ValueError("need a nonempty family")
    return min(
        4.0 * math.sqrt(2.0 / math.pi) * t.momentum_std()
        / t.inverse_distance_expectation()
        for t in family
    )


@dataclass
class CollapseReport:
    rows: list[dict]
    fitted_exponent: float
    onset_n: int | None

    def to_dict(self) -> dict:
        return {
            "dimension": 3,  # the experiment fills cube modes in three dimensions
            "fitted_exponent": self.fitted_exponent,
            "onset_n": self.onset_n,
            "rows": self.rows,
        }


def attractive_collapse_experiment(
    n_list: np.ndarray,
    radius: float,
    c: float,
) -> CollapseReport:
    """Slater-determinant upper bound for pair potentials below -c on a ball.

    Fills the lowest Dirichlet modes of the cube inscribed in the radius-R
    ball (side 2R/sqrt(3)); the potential enters only through the constant c
    since every pair sits inside the ball.  Reports per-particle estimates
    kinetic/N - (N-1) c / 2, the log-log fitted kinetic exponent (target
    5/3), and the first N past which the estimate is negative and
    decreasing.
    """
    if radius <= 0 or c <= 0:
        raise ValueError("radius and c must be positive")

    side = 2.0 * radius / math.sqrt(3)
    n_arr = np.asarray(n_list, dtype=int)
    rows = []
    for n in n_arr:
        kinetic = dirichlet_cube_kinetic_sum(int(n), side, 1.0)
        estimate = kinetic / n - 0.5 * (n - 1) * c
        rows.append({"N": int(n), "kinetic": kinetic, "estimate": estimate})

    if len(n_arr) >= 2:
        top = max(2, len(n_arr) // 2)
        logs_n = np.log(n_arr[-top:].astype(float))
        logs_k = np.log([row["kinetic"] for row in rows[-top:]])
        # least-squares slope, computed as scipy.stats.linregress does
        cov = np.cov(logs_n, logs_k, bias=1)
        if cov[0, 0] == 0.0:
            raise ValueError("the fitted N values must not all be equal")
        slope = float(cov[0, 1] / cov[0, 0])
    else:
        slope = math.nan

    onset = None
    for i, row in enumerate(rows):
        later = rows[i:]
        if row["estimate"] < 0 and all(
            later[j + 1]["estimate"] < later[j]["estimate"]
            for j in range(len(later) - 1)
        ):
            onset = row["N"]
            break

    return CollapseReport(
        rows=rows,
        fitted_exponent=slope,
        onset_n=onset,
    )
