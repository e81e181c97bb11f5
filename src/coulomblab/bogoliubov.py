"""Pair-excitation trial states and the N^(7/5) upper-bound pipeline.

The trial state is a coherent condensate displaced by sqrt(N) with one
squeezed mode per pair state.  A truncated Fock construction serves as the
oracle for the closed-form moments; the semiclassical route minimizes the
per-momentum symbol, integrates out p, and hands the resulting functional

    E[Phi] = (1/2) int |grad Phi|^2 - I0 int Phi^(5/2),   Phi >= 0, int Phi^2 = 1,

to a Newton solver on its constrained optimality (KKT) system.  Rescaling
the solution reproduces the N^(7/5) law exactly at the discrete level.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, TruncationError
from .numerics import RadialGridFunction, gauss_panels

__all__ = [
    "PairExcitationSpec",
    "VariationalState",
    "fock_oracle",
    "FockMomentReport",
    "bogoliubov_dispersion_min",
    "compute_I0",
    "working_i0",
    "semiclassical_p_integral",
    "dyson_variational_solve",
    "dyson_pipeline",
    "DYSON_R_MAX",
    "DYSON_TOL",
]

LAMBDA_MAX = 1.0 - 1e-6

# the Dyson solve's grid runs over [0, DYSON_R_MAX], and it stops once its
# projected gradient is DYSON_TOL times that of the first iterate
DYSON_R_MAX = 40.0
DYSON_TOL = 1e-7


@dataclass
class PairExcitationSpec:
    """Squeezing parameters of the pair modes plus the condensate amplitude.

    The condensate occupies its own mode, orthogonal to every pair mode;
    ``condensate_amplitude`` is sqrt(N).
    lambda = 0 is allowed (no squeezing in that mode); values at or above
    1 - 1e-6 are rejected since the occupation diverges at lambda -> 1.
    """

    lambdas: tuple[float, ...]
    condensate_amplitude: float

    def __post_init__(self):
        self.lambdas = tuple(float(l) for l in self.lambdas)
        if len(self.lambdas) < 1:
            raise ValueError("need at least one pair mode")
        for lam in self.lambdas:
            if not (0.0 <= lam < LAMBDA_MAX):
                raise ValueError(f"lambda={lam} outside [0, {LAMBDA_MAX})")
        if self.condensate_amplitude < 0:
            raise ValueError("condensate amplitude sqrt(N) must be >= 0")

    @property
    def n_modes(self) -> int:
        return len(self.lambdas)

    @property
    def mean_condensate_number(self) -> float:
        return self.condensate_amplitude**2


def _coherent_vector(sqrt_n: float, cutoff: int) -> np.ndarray:
    """Occupation amplitudes exp(-N/2) N^(n/2)/sqrt(n!) up to the cutoff."""
    v = np.empty(cutoff + 1)
    v[0] = math.exp(-0.5 * sqrt_n * sqrt_n)
    for n in range(1, cutoff + 1):
        v[n] = v[n - 1] * sqrt_n / math.sqrt(n)
    return v


def _squeezed_vector(lam: float, cutoff: int) -> np.ndarray:
    """Amplitudes of (1-lam^2)^(1/4) exp(-(lam/2) a*^2)|0> on even levels."""
    v = np.zeros(cutoff + 1)
    v[0] = (1.0 - lam * lam) ** 0.25
    n = 0
    while 2 * (n + 1) <= cutoff:
        ratio = (-lam / 2.0) * math.sqrt((2 * n + 1) * (2 * n + 2)) / (n + 1)
        v[2 * (n + 1)] = v[2 * n] * ratio
        n += 1
    return v


def _lowered(v: np.ndarray, shift: float) -> np.ndarray:
    """(a - shift) v with the annihilator truncated to the levels of v."""
    out = -shift * v
    out[:-1] += np.sqrt(np.arange(1.0, v.size)) * v[1:]
    return out


def _raised(v: np.ndarray, shift: float) -> np.ndarray:
    """(a* - shift) v, dropping the level one above the cutoff."""
    out = -shift * v
    out[1:] += np.sqrt(np.arange(1.0, v.size)) * v[:-1]
    return out


def _mode_moments(v: np.ndarray, shift: float) -> np.ndarray:
    """<b>, <b*b>, <b*b*>, <b*^2 b^2>, <n> and <n^2> of one normalized mode.

    b = a - shift.  Inner products are elementwise sums rather than a BLAS
    dot, whose summation order could depend on the thread count.
    """
    bv = _lowered(v, shift)
    nv = np.arange(v.size) * v
    bbv = _lowered(bv, shift)
    return np.array([
        (v * bv).sum(),
        (bv * bv).sum(),
        (bv * _raised(v, shift)).sum(),
        (bbv * bbv).sum(),
        (v * nv).sum(),
        (nv * nv).sum(),
    ])


@dataclass
class FockMomentReport:
    """Truncated-Fock moments and their largest deviation from the closed forms.

    Mode index 0 is the condensate; pair modes follow.  ``centered_*`` use
    b = a - sqrt(N) delta_{mode,0}.  ``max_error`` is the largest deviation
    of the seven moments from the closed forms of ``fock_oracle``.
    """

    norm_deficit: float
    centered_two_point: np.ndarray
    centered_pairing: np.ndarray
    centered_four_point: np.ndarray
    condensate_number_mean: float
    condensate_number_variance: float
    total_number_mean: float
    total_number_variance: float
    max_error: float


def fock_oracle(s: PairExcitationSpec, truncation: int = 40) -> FockMomentReport:
    """Exact moments of the displaced-squeezed state in a truncated basis.

    The state is the product coherent(condensate) x squeezed(pairs), so each
    moment is a product of one-mode expectations, taken with explicitly
    truncated ladder operators on one vector per mode.  The closed forms are
    gamma = lambda^2 / (1 - lambda^2) for b*b, -sqrt(gamma(gamma+1)) for
    b*b*, the quasi-free 4-point expansion
    sqrt(gamma(gamma+1))_ab^2 + gamma_ab^2 + gamma_aa gamma_bb, N for the
    condensate number's mean and variance, and N + sum gamma and
    N + sum 2 gamma(gamma+1) for the total number's.  Raises TruncationError
    when the truncated state has a norm deficit above 1e-8.
    """
    if truncation < 30:
        raise ValueError("truncation must be at least 30")

    vectors = [_coherent_vector(s.condensate_amplitude, truncation)]
    vectors += [_squeezed_vector(lam, truncation) for lam in s.lambdas]
    norms2 = [float((v * v).sum()) for v in vectors]
    deficit = abs(1.0 - math.prod(norms2))
    if deficit > 1e-8:
        raise TruncationError(f"norm deficit {deficit:.3e} exceeds 1e-8")

    # b_0 = a_0 - sqrt(N) on the condensate, b_k = a_k on the pair modes
    shifts = [s.condensate_amplitude] + [0.0] * s.n_modes
    mean_b, b_dag_b, pair, four, n_mean, n_second = np.array([
        _mode_moments(v / math.sqrt(n2), shift)
        for v, n2, shift in zip(vectors, norms2, shifts)
    ]).T
    # distinct modes factorize: <b_i* b_j> = <b_i* b_j*> = <b_i><b_j> (real
    # amplitudes) and <b_i* b_j* b_j b_i> = <b_i* b_i><b_j* b_j>
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


def _dispersion_e_min(tau, g):
    # (sqrt(tau(tau+2g)) - tau - g)/2 rewritten with its conjugate; exact and
    # free of cancellation since tau(tau+2g) - (tau+g)^2 = -g^2
    return -0.5 * g * g / (np.sqrt(tau * (tau + 2.0 * g)) + tau + g)


def bogoliubov_dispersion_min(tau: float, g: float) -> tuple[float, float]:
    """Pointwise minimum over f >= 0 of tau f + g (f - sqrt(f(f+1))).

    Setting the derivative to zero gives (2f+1)/(2 sqrt(f(f+1))) = (tau+g)/g,
    solved by f* = ((tau+g)/sqrt(tau(tau+2g)) - 1)/2, and the minimum
    simplifies to e_min = (sqrt(tau(tau+2g)) - tau - g)/2.  For g = 0 the
    minimum is 0 at f = 0; for tau = 0 the infimum -g/2 is approached as
    f -> infinity.
    """
    if tau < 0 or g < 0:
        raise ValueError("tau and g must be nonnegative")
    if g == 0.0:
        return 0.0, 0.0
    if tau == 0.0:
        return math.inf, -0.5 * g
    f_star = 0.5 * ((tau + g) / math.sqrt(tau * (tau + 2.0 * g)) - 1.0)
    return f_star, float(_dispersion_e_min(tau, g))


def _i0_integrand(x: np.ndarray) -> np.ndarray:
    # 1 + x^4 - x^2 sqrt(x^4+2) rewritten with its conjugate; exact and free
    # of cancellation since (1+x^4)^2 - x^4(x^4+2) = 1
    return 1.0 / (1.0 + x**4 + x**2 * np.sqrt(x**4 + 2.0))


def compute_I0() -> tuple[float, float]:
    """The dimensionless constant of the p-integrated Bogoliubov energy.

    Returns (quadrature, published):

    quadrature: (2/pi)^(3/4) int_0^inf (1 + x^4 - x^2 sqrt(x^4+2)) dx by
    gauss_panels on 24 geometric panels up to x = 40, with the x^-4 power
    tail beyond integrated analytically from its series;
    published: 4^(5/4) Gamma(3/4) / (5 pi^(1/4) Gamma(5/4)), the closed form
    as stated in the literature.

    Closed form of the defining integral.  The integrand equals
    1 / (1 + x^4 + x^2 sqrt(x^4+2)).  Substituting x^2 = sqrt(2) sinh t gives
    1 + x^4 = cosh 2t and x^2 sqrt(x^4+2) = sinh 2t, so the integrand is
    e^(-2t) and dx = 2^(-3/4) cosh t sinh(t)^(-1/2) dt.  Substituting
    u = e^(-2t) then turns the half-line integral into

        2^(-9/4) int_0^1 (u^(-1/4) + u^(3/4)) (1-u)^(-1/2) du
            = 2^(-9/4) [B(3/4,1/2) + B(7/4,1/2)] = (2^(3/4)/5) B(3/4,1/2),

    using B(7/4,1/2) = (3/5) B(3/4,1/2).  Hence

        I0 = 2^(3/2) B(3/4,1/2) / (5 pi^(3/4))
           = 4^(3/4) Gamma(3/4) / (5 pi^(1/4) Gamma(5/4)) = 0.574447353215854...

    The published 4^(5/4) expression is (2/pi)^(3/4) times the integral over
    the whole real line; the integrand is even, so it is exactly 2 times I0.
    The quadrature side is also the value reproduced by the dispersion-minimum
    route checked in semiclassical_p_integral, so it serves as the package's
    working constant.
    """
    x_break = 40.0
    core = gauss_panels(_i0_integrand, np.r_[0.0, np.geomspace(1e-3, x_break, 24)])
    # integrand = 1/(2x^4) - 1/(2x^8) + O(x^-12) beyond the break
    tail = 0.5 / (3.0 * x_break**3) - 0.5 / (7.0 * x_break**7)
    quadrature = (2.0 / math.pi) ** 0.75 * (core + tail)
    closed = 4.0**1.25 * math.gamma(0.75) / (5.0 * math.pi**0.25 * math.gamma(1.25))
    return quadrature, closed


@functools.cache
def working_i0() -> float:
    """The computed artifact constant (provenance: quadrature, not asserted).

    Computed once per process; compute_I0 itself evaluates the quadrature on
    every call.
    """
    return compute_I0()[0]


def semiclassical_p_integral(density: float, big_n: float) -> float:
    """(2 pi)^-3 int e_min(p^2/2, 4 pi N rho / p^2) d^3p.

    Radial quadrature against the dispersion minimum by gauss_panels on 40
    geometric panels in units of the dispersion scale (8 pi N rho)^(1/4); the
    far tail behaves like -8 pi^2 (N rho)^2 p^-6 and is added analytically.
    The result equals -I0 (N rho)^(5/4) and is cross-checked against the
    closed form of I0 by the test suite rather than assumed here.
    """
    if density <= 0 or big_n <= 0:
        raise ValueError("density and N must be positive")

    a = big_n * density
    scale = (8.0 * math.pi * a) ** 0.25

    def integrand(p):
        return p * p * _dispersion_e_min(0.5 * p * p, 4.0 * math.pi * a / (p * p))

    p_break = 40.0 * scale
    panels = np.r_[0.0, np.geomspace(1e-3 * scale, p_break, 40)]
    core = gauss_panels(integrand, panels)
    c2 = 8.0 * math.pi**2 * a * a
    c3 = 64.0 * math.pi**3 * a**3
    tail = -c2 / (3.0 * p_break**3) + c3 / (7.0 * p_break**7)
    return (2.0 * math.pi) ** (-3) * 4.0 * math.pi * (core + tail)


@dataclass
class VariationalState:
    """Minimizer of (1/2) K - I0 P under Phi >= 0, int Phi^2 = 1."""

    phi: RadialGridFunction
    kinetic: float
    potential: float
    energy: float
    virial_residual: float
    iterations: int
    converged: bool
    relative_gradient: float
    grid_n: int
    r_max: float
    i0: float


def _dyson_grid(r: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Trapezoid weights w and sqrt(r) on a uniform grid from r = 0.

    sqrt(r) at r = 0 is replaced by 1: every profile u = r Phi vanishes there,
    so u^(5/2)/sqrt(r) is 0/1 = 0.
    """
    w = np.full_like(r, h)
    w[0] = w[-1] = 0.5 * h
    sqrt_r = np.sqrt(r)
    sqrt_r[0] = 1.0
    return w, sqrt_r


def _dyson_quantities(u: np.ndarray, h: float, w: np.ndarray, sqrt_r: np.ndarray):
    """K and P of the reduced profile u = r Phi on a grid from _dyson_grid."""
    du = (u[1:] - u[:-1]) / h
    kinetic = 4.0 * math.pi * float(np.dot(du, du)) * h
    potential = 4.0 * math.pi * float(np.dot(w, u**2.5 / sqrt_r))
    return kinetic, potential


def _dyson_norm2(u: np.ndarray, w: np.ndarray) -> float:
    """4 pi sum w u^2, the squared L2 norm of Phi."""
    return 4.0 * math.pi * float(np.dot(w, u**2))


def _tridiagonal_solve(gtsv, off: np.ndarray, diag: np.ndarray, rhs: np.ndarray):
    """x with T x = rhs, T symmetric tridiagonal with constant off-diagonal off.

    LAPACK ?gtsv, the routine scipy.linalg.solve_banded dispatches a (1, 1)
    band to, with its guards: ValueError on a non-finite entry and LinAlgError
    on an exactly singular pivot.  diag is overwritten; x is Fortran-ordered.
    """
    if not (np.isfinite(diag).all() and np.isfinite(rhs).all()):
        raise ValueError("array must not contain infs or NaNs")
    _, _, _, x, info = gtsv(off, diag, off, rhs, overwrite_d=1)
    if info > 0:
        raise np.linalg.LinAlgError("singular matrix")
    return x


# shifts of a rejected Newton step, in units of |mu|; the first is Newton's
_SHIFTS = (0.0,) + tuple(4.0**k for k in range(-1, 24))

# a projected gradient this many times the unit roundoff of the terms that
# it cancels from is rounding noise, which no step can reduce
_ROUNDING_FLOOR = 16.0 * np.finfo(float).eps


def dyson_variational_solve(
    grid_n: int = 2000,
    init: RadialGridFunction | None = None,
    max_iter: int = 100,
) -> VariationalState:
    """Newton's method on the KKT system of the condensate-profile functional.

    Works on u = r Phi over a uniform grid of grid_n cells on
    [0, DYSON_R_MAX] with u = 0 at both ends, at I0 = ``working_i0()``.  On
    the interior nodes the discrete energy K/2 - I0 P has gradient
    g = A u - f(u), with A = (4 pi/h) tridiag(-1, 2, -1) and
    f = I0 4 pi w (5/2) u^(3/2)/sqrt(r); the sphere 4 pi sum w u^2 = 1 has
    normal d = 8 pi w u.  Each step takes the multiplier mu = (g.u)/(d.u),
    which makes F = g - mu d the projected gradient, and solves the bordered
    system

        [ J    -d ] [du ]   [-F]
        [ d^T   0 ] [dmu] = [ 0],   J = A - diag(f'(u)) - mu 8 pi diag(w),

    by one tridiagonal solve (LAPACK ?gtsv) of J applied to F and d, with dmu
    from the bordering formula.  The new iterate is clipped to u >= 0 and
    renormalized.
    A step that would raise the energy is solved again with J shifted by
    lambda 8 pi diag(w), lambda = |mu|/4, |mu|, 4|mu|, ...: that is a linearized
    backward-Euler step of the normalized gradient flow (Bao & Du, SIAM J.
    Sci. Comput. 25 (2004) 1674) with time step 1/lambda, which lowers the
    energy once it is short enough.  Far from the minimizer J is indefinite
    and the Newton step can point uphill; near it, full Newton steps are
    taken and converge quadratically.  Components of the projected gradient
    that push a zero entry below zero are dropped, as the bound u >= 0 is
    active there.  Stops when its norm falls below DYSON_TOL times its value
    at the first iterate and raises ConvergenceError when ``max_iter`` steps
    do not get there.  A first iterate that is already a minimizer to
    rounding, ||F|| <= 16 eps ||(4 pi/h)(u_- + 2 u + u_+) + f(u) + |mu| d||,
    takes no step and reports a relative gradient of 1.

    The stationarity of E(sigma) = sigma^2 K/2 - sigma^(3/4) I0 P under the
    normalized dilation Phi_sigma = sigma^(3/2) Phi(sigma r) implies the
    virial identity K = (3/4) I0 P at the minimizer, reported as a residual.

    The first iterate is ``init`` (clipped to Phi >= 0 and normalized), or a
    Gaussian of width 3.  ``init`` and ``max_iter`` stay settable because
    they reach two paths that no default run takes: a far start rejects
    Newton steps and takes shifted ones, and ``max_iter=1`` raises
    ConvergenceError.
    """
    from scipy.linalg import get_lapack_funcs

    if grid_n < 2:
        raise ValueError("grid_n must be at least 2")
    i0 = working_i0()
    r = np.linspace(0.0, DYSON_R_MAX, grid_n + 1)
    h = r[1] - r[0]
    w, sqrt_r = _dyson_grid(r, h)
    if init is not None:
        u = r * np.maximum(init(r), 0.0)
    else:
        u = r * np.exp(-(r**2) / (2.0 * 3.0**2))
    u[0] = u[-1] = 0.0
    u /= math.sqrt(_dyson_norm2(u, w))

    stiff = 4.0 * math.pi / h
    mass = 8.0 * math.pi * h  # 8 pi w on the interior
    pot = 4.0 * math.pi * i0 * h / sqrt_r[1:-1]  # I0 4 pi w / sqrt(r)
    pot_grad = 2.5 * pot  # f(u) = pot_grad u^(3/2)
    pot_curv = 3.75 * pot  # f'(u) = pot_curv u^(1/2)
    off = np.full(grid_n - 2, -stiff)
    gtsv = get_lapack_funcs("gtsv", (off,))

    def evaluate(uu):
        """Projected gradient on the interior nodes, its norm, mu, E, K and P."""
        ui = uu[1:-1]
        g = stiff * (2.0 * ui - uu[:-2] - uu[2:]) - pot_grad * ui**1.5
        d = mass * ui
        mu = float(g @ ui) / float(d @ ui)
        f_res = g - mu * d
        norm = float(np.linalg.norm(np.where((ui <= 0.0) & (f_res > 0.0), 0.0, f_res)))
        kinetic, potential = _dyson_quantities(uu, h, w, sqrt_r)
        return f_res, norm, mu, 0.5 * kinetic - i0 * potential, kinetic, potential

    f_res, pg_norm, mu, energy, kinetic, potential = evaluate(u)
    pg_ref = max(pg_norm, 1e-300)
    # the terms that F cancels from, each >= 0 as u >= 0: a start already at
    # the minimizer, such as a converged profile or the one profile of
    # grid_n = 2, has F at their rounding and takes no step
    ui = u[1:-1]
    terms = (stiff * (u[:-2] + 2.0 * ui + u[2:]) + pot_grad * ui**1.5
             + abs(mu) * mass * ui)
    at_floor = pg_norm <= _ROUNDING_FLOOR * float(np.linalg.norm(terms))
    iterations = 0
    while not at_floor and pg_norm >= DYSON_TOL * pg_ref and iterations < max_iter:
        iterations += 1
        ui = u[1:-1]
        rhs = np.empty((grid_n - 1, 2), order="F")
        d = mass * ui
        rhs[:, 0] = -f_res
        rhs[:, 1] = d
        newton_diag = 2.0 * stiff - pot_curv * np.sqrt(ui) - mu * mass
        for shift in _SHIFTS:
            diag = newton_diag + shift * abs(mu) * mass
            a, b = _tridiagonal_solve(gtsv, off, diag, rhs).T
            du = a - (float(d @ a) / float(d @ b)) * b
            trial = np.zeros_like(u)
            np.maximum(ui + du, 0.0, out=trial[1:-1])
            trial /= math.sqrt(_dyson_norm2(trial, w))
            trial_state = evaluate(trial)
            # near the minimizer a step moves E by less than its rounding
            if trial_state[3] <= energy + 1e-12 * abs(energy):
                break
        else:
            break  # no shift lowers the energy
        u = trial
        f_res, pg_norm, mu, energy, kinetic, potential = trial_state

    relative_gradient = pg_norm / pg_ref
    if relative_gradient >= DYSON_TOL and not at_floor:
        raise ConvergenceError(
            f"no convergence in {iterations} Newton steps, relative projected "
            f"gradient {relative_gradient:.3e} >= tol {DYSON_TOL:.1e}"
        )
    if energy >= 0:
        raise ConvergenceError("solve ended at a non-negative energy")
    virial = abs(kinetic - 0.75 * i0 * potential) / kinetic

    phi_vals = np.empty_like(r)
    phi_vals[1:] = u[1:] / r[1:]
    phi_vals[0] = u[1] / h
    phi = RadialGridFunction(r, phi_vals)
    return VariationalState(
        phi=phi,
        kinetic=kinetic,
        potential=potential,
        energy=energy,
        virial_residual=virial,
        iterations=iterations,
        converged=True,
        relative_gradient=relative_gradient,
        grid_n=grid_n,
        r_max=DYSON_R_MAX,
        i0=i0,
    )


@dataclass
class DysonPipelineRow:
    N: float
    e_upper: float
    e_over_n75: float
    length_scale: float


@dataclass
class DysonPipelineReport:
    rows: list[DysonPipelineRow]
    state: VariationalState
    max_relative_spread: float

    def to_dict(self) -> dict:
        return {
            "E_star": self.state.energy,
            "virial_residual": self.state.virial_residual,
            "iterations": self.state.iterations,
            "converged": self.state.converged,
            "relative_gradient": self.state.relative_gradient,
            "max_relative_spread": self.max_relative_spread,
            "rows": [
                {
                    "N": row.N,
                    "E_upper": row.e_upper,
                    "E_upper_over_N75": row.e_over_n75,
                    "length_scale": row.length_scale,
                }
                for row in self.rows
            ],
        }


def dyson_pipeline(
    n_list: tuple[float, ...] = (10.0, 1e3, 1e6),
    state: VariationalState | None = None,
    grid_n: int = 2000,
) -> DysonPipelineReport:
    """Rescale the solved profile to each N and evaluate the upper bound.

    The profile is ``state``'s, or that of a fresh solve at ``grid_n``.

    xi0(r) = N^(3/10) Phi(N^(1/5) r) on the contracted grid; the discrete
    kinetic and potential sums then rescale exactly, so
    E_upper(N) = (N/2) int |grad xi0|^2 - I0 N^(5/4) int xi0^(5/2) divided by
    N^(7/5) reproduces the variational minimum identically.
    """
    if state is None:
        state = dyson_variational_solve(grid_n)
    r = state.phi.nodes
    h = r[1] - r[0]
    u = r * state.phi.values
    rows = []
    for big_n in n_list:
        if big_n <= 0:
            raise ValueError("N values must be positive")
        s = big_n**0.2
        r_scaled = r / s
        u_scaled = (big_n**0.3 / s) * u
        k, p = _dyson_quantities(u_scaled, h / s, *_dyson_grid(r_scaled, h / s))
        e_upper = 0.5 * big_n * k - state.i0 * big_n**1.25 * p
        rows.append(
            DysonPipelineRow(
                N=big_n,
                e_upper=e_upper,
                e_over_n75=e_upper / big_n**1.4,
                length_scale=1.0 / s,
            )
        )
    values = np.array([row.e_over_n75 for row in rows])
    spread = float((values.max() - values.min()) / abs(values.mean()))
    return DysonPipelineReport(rows=rows, state=state, max_relative_spread=spread)
