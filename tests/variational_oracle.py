"""Variational objectives that the tests minimize numerically, shared by the tests.

``massless_minimum`` scans dilated trial states for the least massless
two-body energy, the oracle of ``instability.critical_charge_upper_bound``.
``density_objective`` is the per-volume stability bound as a function of the
two species densities, rebuilt from its coefficient formulas: the oracle of
``liebthirring.stability_constant``.
"""

import math

from coulomblab.instability import relativistic_kinetic_expectation
from coulomblab.liebthirring import classical_lt_constant


def massless_minimum(family, scan, q):
    """min over states and widths w of 2 <|p|> - q <1/r> for the state dilated by w.

    The kinetic term is the momentum quadrature at zero mass.
    """
    best = math.inf
    for state in family:
        for w in scan:
            s = state.scaled(w)
            e = 2.0 * relativistic_kinetic_expectation(0.0, s.momentum_std())
            e -= q * s.inverse_distance_expectation()
            best = min(best, e)
    return best


def density_coefficients(m, q):
    """(c1, c2) of one species of mass m and charge q.

    c1 n^(5/3) is the half-kinetic box bound at effective mass 2m,
    (3/5) (2/5)^(2/3) C^(-2/3) / (2m); c2 n^(5/6) the optimized attraction
    C (2m)^(3/2) (12/5)^(5/2) 8 pi q^5 6 5^(-5/6), with C the phase-space
    Lieb-Thirring constant.
    """
    c_lt = classical_lt_constant()
    c1 = 0.6 * 0.4 ** (2.0 / 3.0) * c_lt ** (-2.0 / 3.0) / (2.0 * m)
    c2 = (c_lt * (2.0 * m) ** 1.5 * (12.0 / 5.0) ** 2.5 * 8.0 * math.pi
          * q**5 * 6.0 * 5.0 ** (-5.0 / 6.0))
    return c1, c2


def density_objective(s):
    """Per-volume energy bound of the species spec s at densities (n+, n-).

    Each species pays its own kinetic term and gains the attraction of the
    opposite species' charge, so the objective is separable in (n+, n-).
    """
    c1p, c2p = density_coefficients(s.m_plus, s.Q_plus)
    c1m, c2m = density_coefficients(s.m_minus, s.Q_minus)

    def objective(n_plus, n_minus):
        return (
            c1p * n_plus ** (5.0 / 3.0)
            + c1m * n_minus ** (5.0 / 3.0)
            - c2p * n_minus ** (5.0 / 6.0)
            - c2m * n_plus ** (5.0 / 6.0)
            + s.mu * (n_plus + n_minus)
        )

    return objective
