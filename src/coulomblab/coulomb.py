"""Coulomb energies of signed point charges and the smeared-charge lower bound.

Each particle j is replaced by a uniform ball of charge on B(r_j, delta_j/2),
where delta_j is the distance to the nearest opposite-species particle.
Newton's theorem makes opposite-species interactions exact and same-species
interactions one-sided, which yields the classic Onsager-style bound

    V_C >= -(12/5) sum_j Q_j^2 / delta_j.

Disjoint balls interact exactly like points, so only overlapping
same-species pairs need more.  Their interaction is a short closed form:
the mean of the larger ball's quadratic inside potential over the smaller
ball, plus the excess of 1/r over it on the smaller ball's cap outside the
larger one (``smeared_pair_interaction`` for one pair,
``smeared_pair_interactions`` for arrays of pairs, which the bound chain
uses).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CoincidentChargesError, NoOppositeSpeciesError
from .report import EnergyReport

__all__ = [
    "ChargeConfiguration",
    "exact_coulomb_energy",
    "nearest_opposite_distances",
    "newton_smeared_potential",
    "smeared_pair_interaction",
    "smeared_pair_interactions",
    "onsager_lower_bound",
    "random_neutral_configuration",
]

COINCIDENCE_REL_TOL = 1e-12

# Coulomb energy of the normalized uniform ball of unit diameter with itself;
# a ball of diameter delta has UNIT_BALL_SELF_ENERGY / delta
UNIT_BALL_SELF_ENERGY = 12.0 / 5.0


def _distance_matrix(positions: np.ndarray) -> np.ndarray:
    diff = positions[:, None, :] - positions[None, :, :]
    d = np.sqrt((diff**2).sum(axis=-1))
    d.flags.writeable = False
    return d


@dataclass
class ChargeConfiguration:
    """Signed point charges in 3-space with species tags.

    Species labels are "plus" or "minus" and must match the sign of the
    charge.  Positions closer than 1e-12 times the configuration diameter
    are rejected because 1/r blows up.  Positions are copied and frozen, so
    the pair-distance matrix is built once, here, and shared read-only.
    """

    positions: np.ndarray
    charges: np.ndarray
    species: tuple[str, ...]

    def __post_init__(self):
        self.positions = np.array(self.positions, dtype=float).reshape(-1, 3)
        self.positions.flags.writeable = False
        self.charges = np.asarray(self.charges, dtype=float).reshape(-1)
        self.species = tuple(self.species)
        n = len(self.charges)
        if self.positions.shape[0] != n or len(self.species) != n:
            raise ValueError("positions, charges and species lengths differ")
        labels = np.array(self.species, dtype=object)
        plus = labels == "plus"
        known = plus | (labels == "minus")
        bad = ~known | (plus != (self.charges > 0))
        if bad.any():
            # report the first offending charge, label before sign
            i = int(np.argmax(bad))
            if not known[i]:
                raise ValueError(f"unknown species label {self.species[i]!r}")
            raise ValueError("charge sign does not match species label")
        self._distances = _distance_matrix(self.positions)
        if n >= 2:
            # a view of the off-diagonal entries: past the first entry, every
            # run of n + 1 entries of the flat matrix ends on the diagonal
            pairs = self._distances.reshape(-1)[1:].reshape(n - 1, n + 1)[:, :-1]
            diam = float(pairs.max())
            dmin = float(pairs.min())
            if dmin <= COINCIDENCE_REL_TOL * max(diam, 1.0):
                raise CoincidentChargesError(
                    f"minimal separation {dmin:.3e} below coincidence tolerance"
                )

    def __len__(self) -> int:
        return len(self.charges)

    def pair_distances(self) -> np.ndarray:
        """|r_i - r_j| for all i, j; read-only."""
        return self._distances

    @property
    def diameter(self) -> float:
        if len(self) < 2:
            return 0.0
        return float(self.pair_distances().max())

    def scaled(self, s: float) -> "ChargeConfiguration":
        return ChargeConfiguration(self.positions * s, self.charges, self.species)


def exact_coulomb_energy(c: ChargeConfiguration) -> float:
    """sum_{i<j} Q_i Q_j / |r_i - r_j|."""
    if len(c) < 2:
        return 0.0
    i, j = np.triu_indices(len(c), k=1)
    return float((c.charges[i] * c.charges[j] / c.pair_distances()[i, j]).sum())


def nearest_opposite_distances(c: ChargeConfiguration) -> np.ndarray:
    """delta_j = min over opposite-species particles i of |r_i - r_j|.

    Brute force O(N^2) scan; at desk scale exactness beats indexing.
    """
    return _nearest_opposite(c.charges, c.pair_distances())


def _nearest_opposite(charges: np.ndarray, d: np.ndarray) -> np.ndarray:
    # a charge is of species "plus" exactly when it is positive, as
    # ChargeConfiguration checks
    plus = charges > 0
    if plus.all() or not plus.any():
        raise NoOppositeSpeciesError("both species required for delta_j")
    opp = np.not_equal.outer(plus, plus)
    return np.where(opp, d, np.inf).min(axis=1)


def newton_smeared_potential(delta: float, r: float) -> float:
    """Potential of the normalized uniform ball of diameter delta at radius r.

    (6 / (pi delta^3)) int_{|r'|<delta/2} |r - r'|^-1 dr'
        = 1/r                              for r > delta/2
        = (3 - 4 r^2 / delta^2) / delta    for r < delta/2

    Never exceeds 1/r.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    if r < 0:
        raise ValueError("r must be nonnegative")
    if r >= delta / 2:
        return 1.0 / r
    return (3.0 - 4.0 * r * r / (delta * delta)) / delta


def _overlap_interaction(a, b, d, s, d_cap):
    """Interaction of overlapping normalized balls of radii a >= b at separation d.

    s = max(0, d + b - a) is the depth by which ball b pokes out of ball a,
    and d_cap equals d wherever s > 0 (any positive value elsewhere).  The
    first term is the mean of ball a's inside potential (3 a^2 - r^2)/(2 a^3)
    over ball b; the second adds the excess of 1/r over that quadratic on the
    cap of ball b outside ball a, and vanishes with s.  Plain products only,
    so that a float and an array element round identically.
    """
    a3 = a * a * a
    s2 = s * s
    cap = s2 * s2 * (30.0 * a * b - 6.0 * (a - b) * s - s2)
    return ((3.0 * a * a - d * d - 0.6 * b * b) / (2.0 * a3)
            + cap / (160.0 * a3 * b * b * b * d_cap))


def smeared_pair_interaction(delta_i: float, delta_j: float, d: float) -> float:
    """Coulomb interaction of two normalized uniform balls at separation d.

    Disjoint balls (d >= (delta_i + delta_j)/2) interact exactly like point
    charges, 1/d.  Overlapping balls, radii a >= b, take the closed form

        (3 a^2 - d^2 - 3 b^2 / 5) / (2 a^3)
            + s^4 (30 a b - 6 (a - b) s - s^2) / (160 a^3 b^3 d),

    with s = max(0, d + b - a): the mean of the larger ball's quadratic
    inside potential over the smaller ball, plus the excess of 1/r over it
    on the cap of the smaller ball that lies outside the larger one.  The
    cap term vanishes when the smaller ball is nested (s = 0), which covers
    d = 0; it is continuous at d = a - b and meets 1/d at d = a + b.

    ``smeared_pair_interactions`` evaluates the same expression on arrays of
    pairs.
    """
    if delta_i <= 0 or delta_j <= 0:
        raise ValueError("smearing diameters must be positive")
    if d < 0:
        raise ValueError("separation must be nonnegative")
    if d >= (delta_i + delta_j) / 2.0:
        return 1.0 / d
    a = max(delta_i, delta_j) / 2.0
    b = min(delta_i, delta_j) / 2.0
    s = max(0.0, d + b - a)
    return _overlap_interaction(a, b, d, s, d if s > 0.0 else 1.0)


def smeared_pair_interactions(
    delta_i: np.ndarray, delta_j: np.ndarray, d: np.ndarray
) -> np.ndarray:
    """``smeared_pair_interaction`` on arrays of overlapping pairs.

    Every pair must overlap, d < (delta_i + delta_j)/2.  Both forms evaluate
    one shared expression, so they return the same floats.
    """
    delta_i, delta_j, d = np.broadcast_arrays(
        np.asarray(delta_i, dtype=float), np.asarray(delta_j, dtype=float),
        np.asarray(d, dtype=float))
    a = np.maximum(delta_i, delta_j) / 2.0
    b = np.minimum(delta_i, delta_j) / 2.0
    if not (np.all(b > 0) and np.all(d >= 0)):
        raise ValueError("diameters must be positive and separations nonnegative")
    if not np.all(d < 0.5 * (delta_i + delta_j)):
        raise ValueError("every pair must overlap; disjoint balls interact as 1/d")
    s = np.maximum(d + b - a, 0.0)
    return _overlap_interaction(a, b, d, s, np.where(s > 0.0, d, 1.0))


def onsager_lower_bound(c: ChargeConfiguration) -> EnergyReport:
    """Three-step chain bounding the exact Coulomb energy from below.

    (i)   smeared_interaction: the full smeared energy
          (1/2) int int rho rho' / |r - r'|, assembled as pairwise ball
          interactions plus half self energies; nonnegative because the
          Coulomb kernel is of positive type.
    (ii)  self_energy_correction = -(12/5) sum_j Q_j^2 / delta_j.
    (iii) final_bound, the same number as (ii).

    The report asserts exact >= (i) + (ii) >= (iii).  The full self energy
    in (ii) keeps it aligned with the positive-type step, which also admits
    the stronger bound -(6/5) sum_j Q_j^2 / delta_j, recorded in ``extras``
    and asserted too.  It is half of (iii), so exact >= (iii) follows.
    """
    n = len(c)
    d = c.pair_distances()
    deltas = _nearest_opposite(c.charges, d)
    i, j = np.triu_indices(n, k=1)
    qq = c.charges[i] * c.charges[j]
    dist = d[i, j]
    exact = float((qq / dist).sum())

    # disjoint balls interact exactly like points; opposite-species pairs are
    # always disjoint because delta never exceeds the opposite distance
    overlap = dist < 0.5 * (deltas[i] + deltas[j])
    pair_sum = float(np.sum(qq[~overlap] / dist[~overlap]))
    if overlap.any():
        pair_sum += float(np.sum(qq[overlap] * smeared_pair_interactions(
            deltas[i[overlap]], deltas[j[overlap]], dist[overlap])))
    q2_over_delta = float(np.sum(c.charges**2 / deltas))
    half_self = 0.5 * UNIT_BALL_SELF_ENERGY * q2_over_delta
    smeared_interaction = pair_sum + half_self
    final_bound = -UNIT_BALL_SELF_ENERGY * q2_over_delta
    stronger_bound = -(0.5 * UNIT_BALL_SELF_ENERGY) * q2_over_delta

    scale = abs(exact) + abs(final_bound) + 1e-300
    slack = 1e-10 * scale
    chain_first = exact >= smeared_interaction + final_bound - slack
    chain_second = smeared_interaction + final_bound >= final_bound - slack

    return EnergyReport(
        name="onsager_lower_bound",
        terms={
            "smeared_interaction": smeared_interaction,
            "self_energy_correction": final_bound,
        },
        extras={
            "exact": exact,
            "final_bound": final_bound,
            "stronger_half_self_bound": stronger_bound,
        },
        checks={
            "exact_ge_smeared_minus_self": bool(chain_first),
            "smeared_chain_ge_final": bool(chain_second),
            "exact_ge_stronger_bound": bool(exact >= stronger_bound - slack),
        },
    )


def random_neutral_configuration(
    rng: np.random.Generator,
    n_min: int = 2,
    n_max: int = 40,
    box: float = 10.0,
) -> ChargeConfiguration:
    """Seeded random configuration with both species and zero total charge."""
    n = int(rng.integers(n_min, n_max + 1))
    n_plus = int(rng.integers(1, n))
    n_minus = n - n_plus
    pos = rng.uniform(-box / 2, box / 2, size=(n, 3))
    q_plus = rng.uniform(0.2, 2.0, size=n_plus)
    q_minus = rng.uniform(0.2, 2.0, size=n_minus)
    q_minus *= q_plus.sum() / q_minus.sum()
    charges = np.concatenate([q_plus, -q_minus])
    species = ("plus",) * n_plus + ("minus",) * n_minus
    return ChargeConfiguration(pos, charges, species)
