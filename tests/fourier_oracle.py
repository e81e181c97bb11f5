"""Quadrature oracle for 3-d Fourier transforms of radial profiles, shared by the tests.

It comes with the geometric radial grids that the tests sample profiles on.
"""

import math

import numpy as np
from scipy.interpolate import CubicSpline

from coulomblab.numerics import gauss_panels


def geometric_radial_grid(r_min: float, r_max: float, n: int) -> np.ndarray:
    """Geometrically spaced radii, for sampling radial profiles.

    Geometric spacing resolves both the Coulomb-singular region near the
    origin and the decay range with one grid.
    """
    if not (0 < r_min < r_max) or n < 2:
        raise ValueError("need 0 < r_min < r_max and n >= 2")
    return np.geomspace(r_min, r_max, n)


def radial_fourier_transform(f, k, coulomb_tail=False):
    """3-d Fourier transform of a radial profile at radial frequency k.

    The oracle for the closed-form T(k) of ``gs_positive_type_check``.  It
    interpolates the samples of f by a not-a-knot cubic spline, which is
    exact for a cubic, and computes (4 pi / k) * int_0^inf r sin(k r) f(r) dr
    on the sampled range with gauss_panels over the spline's own intervals,
    where the integrand is analytic; the rule stays at roundoff while k
    times the widest interval is below about 64, i.e. ten periods of
    sin(k r).  Beyond the
    last node f is zero, or with ``coulomb_tail`` the Coulomb tail c/r,
    c = f(r_last) r_last, whose part c int_{r_last}^inf sin(k r) dr is
    c cos(k r_last) / k in the Abel-regularized sense.
    """
    r_last = float(f.nodes[-1])
    # a grid that starts above 0 adds the first piece's extension as a panel
    panels = np.union1d(0.0, f.nodes)
    spline = CubicSpline(f.nodes, f.values)
    core = gauss_panels(lambda r: r * np.sin(k * r) * spline(r), panels)
    tail = f.values[-1] * r_last * math.cos(k * r_last) / k if coulomb_tail else 0.0
    return 4.0 * math.pi / k * (core + tail)
