"""The Dyson Newton solve by its reference route, the oracle of the library's.

``dyson_quantities`` recomputes the weights and sqrt(r) on every call,
``reference_dyson_solve`` calls it twice per trial step (once for the
normalization, once for K and P) and solves each bordered system with
``scipy.linalg.solve_banded``.
``bogoliubov.dyson_variational_solve`` builds the grid constants once per
solve, evaluates each trial once and calls LAPACK ``?gtsv`` itself; it must
return the same floats, so the tests compare every field with ``==``.  The one
difference is the library's stop at the rounding floor before the first step,
which no start of these tests reaches.
"""

import math

import numpy as np
from scipy.linalg import solve_banded

from coulomblab.bogoliubov import VariationalState, working_i0
from coulomblab.errors import ConvergenceError
from coulomblab.numerics import RadialGridFunction

# shifts of a rejected Newton step, in units of |mu|; the first is Newton's
SHIFTS = (0.0,) + tuple(4.0**k for k in range(-1, 24))


def dyson_quantities(u, r, h, i0):
    """K, P and the normalization for the reduced profile u = r Phi."""
    du = np.diff(u) / h
    kinetic = 4.0 * math.pi * float(np.dot(du, du)) * h
    w = np.full_like(r, h)
    w[0] = w[-1] = 0.5 * h
    with np.errstate(divide="ignore", invalid="ignore"):
        integ = np.where(r > 0, u**2.5 / np.sqrt(np.where(r > 0, r, 1.0)), 0.0)
    potential = 4.0 * math.pi * float(np.dot(w, integ))
    norm2 = 4.0 * math.pi * float(np.dot(w, u**2))
    return kinetic, potential, norm2


def reference_dyson_solve(grid_n=2000, r_max=40.0, i0=None, init=None, tol=1e-7,
                          max_iter=100):
    """Newton's method on the KKT system, stopped relative to the first iterate."""
    if grid_n < 2:
        raise ValueError("grid_n must be at least 2")
    if i0 is None:
        i0 = working_i0()
    r = np.linspace(0.0, r_max, grid_n + 1)
    h = r[1] - r[0]
    if init is not None:
        u = r * np.clip(init(r), 0.0, None)
    else:
        u = r * np.exp(-(r**2) / (2.0 * 3.0**2))
    u[0] = u[-1] = 0.0
    u /= math.sqrt(dyson_quantities(u, r, h, i0)[2])

    stiff = 4.0 * math.pi / h
    mass = 8.0 * math.pi * np.full(grid_n - 1, h)
    pot = 4.0 * math.pi * i0 * h / np.sqrt(r[1:-1])

    def state_of(uu):
        ui = uu[1:-1]
        g = stiff * (2.0 * ui - uu[:-2] - uu[2:]) - 2.5 * pot * ui**1.5
        d = mass * ui
        mu = float(g @ ui) / float(d @ ui)
        f_res = g - mu * d
        norm = float(np.linalg.norm(np.where((ui <= 0.0) & (f_res > 0.0), 0.0, f_res)))
        kinetic, potential, _ = dyson_quantities(uu, r, h, i0)
        return f_res, norm, mu, 0.5 * kinetic - i0 * potential

    f_res, pg_norm, mu, energy = state_of(u)
    pg_ref = max(pg_norm, 1e-300)
    jac = np.empty((3, grid_n - 1))
    jac[0] = jac[2] = -stiff
    iterations = 0
    while pg_norm >= tol * pg_ref and iterations < max_iter:
        iterations += 1
        ui = u[1:-1]
        d = mass * ui
        newton_diag = 2.0 * stiff - 3.75 * pot * np.sqrt(ui) - mu * mass
        for shift in SHIFTS:
            jac[1] = newton_diag + shift * abs(mu) * mass
            a, b = solve_banded((1, 1), jac, np.column_stack([-f_res, d])).T
            du = a - (float(d @ a) / float(d @ b)) * b
            trial = np.zeros_like(u)
            trial[1:-1] = np.clip(ui + du, 0.0, None)
            trial /= math.sqrt(dyson_quantities(trial, r, h, i0)[2])
            trial_state = state_of(trial)
            if trial_state[3] <= energy + 1e-12 * abs(energy):
                break
        else:
            break
        u = trial
        f_res, pg_norm, mu, energy = trial_state

    relative_gradient = pg_norm / pg_ref
    if relative_gradient >= tol:
        raise ConvergenceError(
            f"no convergence in {iterations} Newton steps, relative projected "
            f"gradient {relative_gradient:.3e} >= tol {tol:.1e}"
        )
    kinetic, potential, _ = dyson_quantities(u, r, h, i0)
    if energy >= 0:
        raise ConvergenceError("solve ended at a non-negative energy")
    virial = abs(kinetic - 0.75 * i0 * potential) / kinetic

    with np.errstate(divide="ignore", invalid="ignore"):
        phi_vals = np.where(r > 0, u / np.where(r > 0, r, 1.0), 0.0)
    phi_vals[0] = u[1] / h
    return VariationalState(
        phi=RadialGridFunction(r, phi_vals),
        kinetic=kinetic,
        potential=potential,
        energy=energy,
        virial_residual=virial,
        iterations=iterations,
        converged=True,
        relative_gradient=relative_gradient,
        grid_n=grid_n,
        r_max=r_max,
        i0=i0,
    )
