"""Per-mode and per-scale routes, the oracles of two ``bogoliubov`` kernels.

``per_mode_fock_report`` builds one vector per mode, runs the squeezed
amplitudes' recursion level by level and takes each mode's moments in its own
call; ``bogoliubov.fock_oracle`` does the same arithmetic on the rows of one
array, so the tests compare every report field with ``==``.

``per_scale_p_integral`` integrates the dispersion minimum in p on panels
scaled to each (density, N); ``bogoliubov.semiclassical_p_integral`` scales
one dimensionless integral instead, which moves the value by rounding only.
"""

import math

import numpy as np

from coulomblab.bogoliubov import FockMomentReport, PairExcitationSpec
from coulomblab.errors import TruncationError
from coulomblab.numerics import gauss_panels


def coherent_vector(sqrt_n: float, cutoff: int) -> np.ndarray:
    """Occupation amplitudes exp(-N/2) N^(n/2)/sqrt(n!) up to the cutoff."""
    v = np.empty(cutoff + 1)
    v[0] = math.exp(-0.5 * sqrt_n * sqrt_n)
    for n in range(1, cutoff + 1):
        v[n] = v[n - 1] * sqrt_n / math.sqrt(n)
    return v


def squeezed_vector(lam: float, cutoff: int) -> np.ndarray:
    """Amplitudes of (1-lam^2)^(1/4) exp(-(lam/2) a*^2)|0> on even levels."""
    v = np.zeros(cutoff + 1)
    v[0] = (1.0 - lam * lam) ** 0.25
    n = 0
    while 2 * (n + 1) <= cutoff:
        ratio = (-lam / 2.0) * math.sqrt((2 * n + 1) * (2 * n + 2)) / (n + 1)
        v[2 * (n + 1)] = v[2 * n] * ratio
        n += 1
    return v


def lowered(v: np.ndarray, shift: float) -> np.ndarray:
    """(a - shift) v with the annihilator truncated to the levels of v."""
    out = -shift * v
    out[:-1] += np.sqrt(np.arange(1.0, v.size)) * v[1:]
    return out


def raised(v: np.ndarray, shift: float) -> np.ndarray:
    """(a* - shift) v, dropping the level one above the cutoff."""
    out = -shift * v
    out[1:] += np.sqrt(np.arange(1.0, v.size)) * v[:-1]
    return out


def mode_moments(v: np.ndarray, shift: float) -> np.ndarray:
    """<b>, <b*b>, <b*b*>, <b*^2 b^2>, <n> and <n^2> of one normalized mode."""
    bv = lowered(v, shift)
    nv = np.arange(v.size) * v
    bbv = lowered(bv, shift)
    return np.array([
        (v * bv).sum(),
        (bv * bv).sum(),
        (bv * raised(v, shift)).sum(),
        (bbv * bbv).sum(),
        (v * nv).sum(),
        (nv * nv).sum(),
    ])


def per_mode_fock_report(s: PairExcitationSpec, truncation: int = 40) -> FockMomentReport:
    """fock_oracle's report, one vector and one moment call per mode."""
    if truncation < 30:
        raise ValueError("truncation must be at least 30")

    vectors = [coherent_vector(s.condensate_amplitude, truncation)]
    vectors += [squeezed_vector(lam, truncation) for lam in s.lambdas]
    norms2 = [float((v * v).sum()) for v in vectors]
    deficit = abs(1.0 - math.prod(norms2))
    if not deficit <= 1e-8:
        raise TruncationError(f"norm deficit {deficit:.3e} exceeds 1e-8")

    shifts = [s.condensate_amplitude] + [0.0] * s.n_modes
    mean_b, b_dag_b, pair, four, n_mean, n_second = np.array([
        mode_moments(v / math.sqrt(n2), shift)
        for v, n2, shift in zip(vectors, norms2, shifts)
    ]).T
    two_point = np.outer(mean_b, mean_b)
    np.fill_diagonal(two_point, b_dag_b)
    pairing = np.outer(mean_b, mean_b)
    np.fill_diagonal(pairing, pair)
    four_point = np.outer(b_dag_b, b_dag_b)
    np.fill_diagonal(four_point, four)
    n_variance = n_second - n_mean**2
    moments = {
        "centered_two_point": two_point,
        "centered_pairing": pairing,
        "centered_four_point": four_point,
        "condensate_number_mean": float(n_mean[0]),
        "condensate_number_variance": float(n_variance[0]),
        "total_number_mean": float(n_mean.sum()),
        "total_number_variance": float(n_variance.sum()),
    }

    lam = np.concatenate([[0.0], np.asarray(s.lambdas)])
    gam = lam**2 / (1.0 - lam**2)
    gamma_closed = np.diag(gam)
    pairing_closed = -np.diag(np.sqrt(gam * (gam + 1.0)))
    big_n = s.mean_condensate_number
    closed_forms = (
        gamma_closed,
        pairing_closed,
        pairing_closed**2 + gamma_closed**2 + np.outer(gam, gam),
        big_n,
        big_n,
        big_n + float(gam.sum()),
        big_n + float((2.0 * gam * (gam + 1.0)).sum()),
    )
    max_error = max(float(np.abs(got - want).max())
                    for got, want in zip(moments.values(), closed_forms))
    return FockMomentReport(norm_deficit=deficit, **moments, max_error=max_error)


def per_scale_p_integral(density: float, big_n: float) -> float:
    """(2 pi)^-3 int e_min(p^2/2, 4 pi N rho / p^2) d^3p on per-call panels.

    The panels are 40 geometric ones from 1e-3 s to 40 s, s = (8 pi N rho)^(1/4),
    and the tail beyond 40 s is added analytically.
    """
    a = big_n * density
    scale = (8.0 * math.pi * a) ** 0.25

    def integrand(p):
        tau, g = 0.5 * p * p, 4.0 * math.pi * a / (p * p)
        return p * p * (-0.5 * g * g / (np.sqrt(tau * (tau + 2.0 * g)) + tau + g))

    p_break = 40.0 * scale
    panels = np.r_[0.0, np.geomspace(1e-3 * scale, p_break, 40)]
    core = gauss_panels(integrand, panels)
    c2 = 8.0 * math.pi**2 * a * a
    c3 = 64.0 * math.pi**3 * a**3
    tail = -c2 / (3.0 * p_break**3) + c3 / (7.0 * p_break**7)
    return (2.0 * math.pi) ** (-3) * 4.0 * math.pi * (core + tail)
