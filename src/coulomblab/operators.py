"""Spectral-grid checks of magnetic kinetic forms and operator identities.

Periodic grids with FFT differentiation stand in for R^3; instead of decay
hypotheses, fields entering whole-space inequalities must be concentrated
well inside the box (boundary values below 1e-8 of the max).  Products of
band-limited fields are spectrally resolved, so identities like the Pauli
square formula

    (sigma . (-i grad + Q A))^2 = (-i grad + Q A)^2 + Q sigma . B,  B = curl A,

hold to rounding on band-limited inputs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GridMismatchError, ResolutionError, SupportError

__all__ = [
    "PeriodicField",
    "wavevectors",
    "magnetic_kinetic_quadratic_form",
    "diamagnetic_sobolev_terms",
    "lichnerowicz_check",
    "sharp_sobolev_constant",
    "schrodinger_bound_constant",
    "random_band_limited_field",
    "envelope_window",
    "stability_first_kind_demo",
]


@dataclass
class PeriodicField:
    """Complex samples on a uniform periodic cube grid.

    ``data`` has shape (components, n, n, n) with components 1 (scalar),
    3 (vector) or 2 (spinor).  Vector potentials must be real valued.
    """

    box_len: float
    data: np.ndarray

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=complex)
        if len(self.data.shape) != 4:
            raise ValueError("data must have shape (components, n, n, n)")
        c, n1, n2, n3 = self.data.shape
        if c not in (1, 2, 3):
            raise ValueError("components must be 1, 2 or 3")
        if not (n1 == n2 == n3):
            raise ValueError("grid must be cubic")
        if n1 < 16 or n1 % 2 != 0:
            raise ValueError("grid_n must be even and at least 16")
        if self.box_len <= 0:
            raise ValueError("box length must be positive")

    @property
    def grid_n(self) -> int:
        return self.data.shape[1]

    @property
    def components(self) -> int:
        return self.data.shape[0]

    @property
    def cell_volume(self) -> float:
        return (self.box_len / self.grid_n) ** 3


def _same_grid(*fields: PeriodicField):
    n = fields[0].grid_n
    box = fields[0].box_len
    for f in fields[1:]:
        if f.grid_n != n or not math.isclose(f.box_len, box):
            raise GridMismatchError("fields live on different grids")


def wavevectors(n: int, box_len: float) -> list[np.ndarray]:
    """Broadcastable k_x, k_y, k_z arrays for FFT differentiation."""
    k = 2.0 * math.pi * np.fft.fftfreq(n, d=box_len / n)
    return [
        k.reshape(n, 1, 1),
        k.reshape(1, n, 1),
        k.reshape(1, 1, n),
    ]


def _covariant(
    data: np.ndarray, a: PeriodicField | None, q: float, box_len: float,
    axes: tuple[int, ...] = (0, 1, 2),
) -> np.ndarray:
    """(-i d_j + q A_j) of every component for j in axes.

    Shape (len(axes), components, n, n, n).  The derivative is the spectral
    multiplier k_j; each component is transformed once and shared by the
    axes.  Without a vector potential this is the bare momentum -i grad.
    """
    ks = wavevectors(data.shape[-1], box_len)
    out = np.empty((len(axes),) + data.shape, dtype=complex)
    for s, comp in enumerate(data):
        spec = np.fft.fftn(comp)
        for i, j in enumerate(axes):
            out[i, s] = np.fft.ifftn(ks[j] * spec)
            if a is not None:
                out[i, s] += q * a.data[j].real * comp
    return out


def covariant_derivative(
    f: PeriodicField, a: PeriodicField | None, q: float
) -> np.ndarray:
    """components (-i grad + q A) f for a scalar f, shape (3, n, n, n)."""
    if f.components != 1:
        raise ValueError("covariant derivative acts on scalar fields")
    if a is not None:
        _same_grid(f, a)
        if a.components != 3:
            raise ValueError("vector potential needs 3 components")
        if np.abs(a.data.imag).max() > 1e-12 * max(np.abs(a.data.real).max(), 1e-300):
            raise ValueError("vector potential must be real valued")
    return _covariant(f.data, a, q, f.box_len)[:, 0]


def grid_integral(values: np.ndarray, field: PeriodicField) -> float:
    return float(np.sum(values).real) * field.cell_volume


def magnetic_kinetic_quadratic_form(
    f: PeriodicField, a: PeriodicField | None, q: float, m: float
) -> float:
    """(2m)^-1 int |(-i grad + q A) f|^2 by spectral differentiation."""
    if m <= 0:
        raise ValueError("mass must be positive")
    df = covariant_derivative(f, a, q)
    return grid_integral((np.abs(df) ** 2).sum(axis=0), f) / (2.0 * m)


def sharp_sobolev_constant() -> float:
    """Sharp Sobolev constant S in int |grad u|^2 >= S (int u^6)^(1/3).

    The optimizing profile (1 + r^2)^(-1/2) has int |grad u|^2 = 3 pi^2 / 4
    and int u^6 = pi^2 / 4, so S = (3 pi^2/4) / (pi^2/4)^(1/3) =
    3 (pi^2/4)^(2/3) (Talenti, Ann. Mat. Pura Appl. 110 (1976) 353).
    """
    return 3.0 * (math.pi**2 / 4.0) ** (2.0 / 3.0)


def schrodinger_bound_constant() -> float:
    """Constant C for the one-body lower bound -C (int V1^(5/2) + ||V2||)."""
    from_v1 = 0.4 * 0.6**1.5 * sharp_sobolev_constant() ** -1.5
    return max(1.0, from_v1)


def _check_boundary_support(f: PeriodicField):
    mags = np.abs(f.data)
    peak = mags.max()
    boundary = max(
        mags[:, 0, :, :].max(),
        mags[:, :, 0, :].max(),
        mags[:, :, :, 0].max(),
    )
    if boundary > 1e-8 * peak:
        raise SupportError("field is not concentrated away from the boundary")


def diamagnetic_sobolev_terms(
    f: PeriodicField,
    a: PeriodicField | None,
    q: float,
) -> tuple[float, float, float]:
    """The three terms (lhs, mid, sobolev_term) of the diamagnetic chain.

    lhs = int |(-i grad + qA) f|^2, mid = int |grad |f||^2 and
    sobolev_term = (int |f|^6)^(1/3), which the diamagnetic and Sobolev
    inequalities order as lhs >= mid >= S * sobolev_term, S the sharp
    Sobolev constant.  |f| is regularized as sqrt(|f|^2 + eps^2) with
    eps = 1e-10 max|f|, smoothing the kink at zeros of f, and mid is
    Parseval's sum |k|^2 |F|^2 over the discrete Fourier transform F of it.
    """
    _check_boundary_support(f)
    # at m = 1/2 the kinetic form is int |(-i grad + qA) f|^2 itself
    lhs = magnetic_kinetic_quadratic_form(f, a, q, 0.5)
    eps = 1e-10 * float(np.abs(f.data).max())
    spec = np.fft.fftn(np.sqrt(np.abs(f.data[0]) ** 2 + eps**2))
    k2 = sum(k**2 for k in wavevectors(f.grid_n, f.box_len))
    mid = grid_integral(k2 * np.abs(spec) ** 2, f) / f.grid_n**3
    sob = grid_integral(np.abs(f.data[0]) ** 6, f) ** (1.0 / 3.0)
    return lhs, mid, sob


_PAULI = [
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
]


def _band_energy_fraction(field: PeriodicField) -> float:
    """Energy fraction carried by shells with any |k index| above n/3."""
    n = field.grid_n
    idx = np.fft.fftfreq(n, d=1.0 / n)
    high = np.abs(idx) > n / 3.0
    mask = (
        high.reshape(n, 1, 1) | high.reshape(1, n, 1) | high.reshape(1, 1, n)
    )
    total = 0.0
    high_part = 0.0
    for comp in field.data:
        spec = np.abs(np.fft.fftn(comp)) ** 2
        total += float(spec.sum())
        high_part += float(spec[mask].sum())
    return high_part / max(total, 1e-300)


def curl(a: PeriodicField) -> np.ndarray:
    """B = curl A computed spectrally, shape (3, n, n, n), real."""
    if a.components != 3:
        raise ValueError("curl needs a vector field")
    # p[c] = -i (d_{c+1} A_c, d_{c+2} A_c), axes mod 3: each component only
    # along the two axes the curl reads, so (curl A)_i = d_j A_k - d_k A_j
    # = -Im(p[k][1] - p[j][0]) for cyclic (i, j, k)
    p = [_covariant(a.data.real[c:c + 1], None, 0.0, a.box_len,
                    axes=((c + 1) % 3, (c + 2) % 3))[:, 0] for c in range(3)]
    return np.stack([-(p[k][1] - p[j][0]).imag for j, k in ((1, 2), (2, 0), (0, 1))])


@dataclass
class LichnerowiczResult:
    max_residual: float
    scale: float

    @property
    def relative(self) -> float:
        return self.max_residual / max(self.scale, 1e-300)


def lichnerowicz_check(
    psi: PeriodicField, a: PeriodicField, q: float,
    enforce_resolution: bool = True,
) -> LichnerowiczResult:
    """Pointwise residual of the Pauli square identity.

    Applies (sigma.D)^2 and D^2 + q sigma.B to the spinor with spectral
    derivatives and returns the maximal pointwise spinor norm of the
    difference together with the scale of either side.  The vector potential
    must be spectrally resolved: shells above n/3 have to carry less than
    1e-10 of its energy.  Grid-refinement studies measuring how aliasing
    decays on fixed smooth inputs disable the precondition.
    """
    if psi.components != 2:
        raise ValueError("psi must be a 2-component spinor field")
    _same_grid(psi, a)
    if enforce_resolution and _band_energy_fraction(a) > 1e-10:
        raise ResolutionError("vector potential is not band limited on this grid")

    dpsi = _covariant(psi.data, a, q, psi.box_len)  # (3, 2, n, n, n)

    # sigma.D psi
    sd = np.zeros((2,) + psi.data.shape[1:], dtype=complex)
    for j in range(3):
        sd += np.einsum("st,txyz->sxyz", _PAULI[j], dpsi[j])
    d_sd = _covariant(sd, a, q, psi.box_len)
    lhs = np.zeros_like(sd)
    for j in range(3):
        lhs += np.einsum("st,txyz->sxyz", _PAULI[j], d_sd[j])

    # D^2 psi + q sigma.B psi
    rhs = np.zeros_like(sd)
    for j in range(3):
        rhs += _covariant(dpsi[j], a, q, psi.box_len, axes=(j,))[0]
    b = curl(a)
    sigma_b = np.zeros_like(sd)
    for j in range(3):
        sigma_b += np.einsum("st,txyz->sxyz", _PAULI[j], b[j] * psi.data)
    rhs += q * sigma_b

    diff = lhs - rhs
    res = float(np.sqrt((np.abs(diff) ** 2).sum(axis=0)).max())
    scale = float(np.sqrt((np.abs(lhs) ** 2).sum(axis=0)).max())
    return LichnerowiczResult(max_residual=res, scale=scale)


def envelope_window(n: int, width_frac: float = 0.18) -> np.ndarray:
    """Super-Gaussian centered bump, below 1e-8 on the box boundary."""
    x = (np.arange(n) + 0.5) / n - 0.5
    r2 = (
        x.reshape(n, 1, 1) ** 2 + x.reshape(1, n, 1) ** 2 + x.reshape(1, 1, n) ** 2
    )
    return np.exp(-((r2 / width_frac**2) ** 2))


def random_band_limited_field(
    rng: np.random.Generator,
    n: int,
    box_len: float,
    components: int = 1,
    k_shells: int = 3,
    real: bool = False,
    windowed: bool = False,
) -> PeriodicField:
    """Random smooth field from a handful of low Fourier shells."""
    spec = np.zeros((components, n, n, n), dtype=complex)
    idx = np.fft.fftfreq(n, d=1.0 / n).astype(int)
    sel = np.abs(idx) <= k_shells
    mask = (
        sel.reshape(n, 1, 1) & sel.reshape(1, n, 1) & sel.reshape(1, 1, n)
    )
    m = int(mask.sum())
    for c in range(components):
        coeff = rng.standard_normal(m) + 1.0j * rng.standard_normal(m)
        spec[c][mask] = coeff
    data = np.fft.ifftn(spec, axes=(1, 2, 3)) * n**1.5
    if real:
        data = data.real.astype(complex)
    if windowed:
        data *= envelope_window(n)
    return PeriodicField(box_len, data)


def _pair_split_bound(mass: float, z: float, n_particles: int, c: float) -> float:
    """Lower bound for (-Lap_rel)/(m (N-1)) - z/r via the Coulomb split.

    Scaling to the unit-coefficient form and optimizing the split radius a
    in alpha sqrt(a) + beta / a, with alpha = (m (N-1) z)^(5/2) 8 pi and
    beta = m (N-1) z, gives the closed minimum alpha^(2/3) beta^(1/3)
    3 / 2^(2/3).
    """
    eff = mass * (n_particles - 1) * z
    alpha = eff**2.5 * 8.0 * math.pi
    beta = eff
    minimum = alpha ** (2.0 / 3.0) * beta ** (1.0 / 3.0) * 3.0 * 2.0 ** (-2.0 / 3.0)
    return -c * minimum / (mass * (n_particles - 1))


def stability_first_kind_demo(
    charges: tuple[float, ...],
    mass: float = 1.0,
) -> dict:
    """Few-body demonstration that trial energies respect the N-body bound.

    For N <= 3 nonrelativistic particles the pairwise Coulomb split plus the
    per-pair kinetic distribution T_i + T_j >= -Lap_rel / m yields

        H >= - sum_{i<j} C * opt_split(m (N-1) |Q_i Q_j|) / (m (N-1)).

    Product Gaussian trial states scan widths; the minimum stays above the
    bound.  Returns the scanned minimum, the bound and the margin.
    """
    n = len(charges)
    if n not in (2, 3):
        raise ValueError("demonstration covers N = 2 or 3 particles")
    widths = np.geomspace(0.05, 50.0, 200)
    c = schrodinger_bound_constant()
    bound = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            z = abs(charges[i] * charges[j])
            if z > 0:
                bound += _pair_split_bound(mass, z, n, c)

    # product Gaussian of width w: each kinetic term 3/(4 m w^2), each pair
    # expectation of 1/r equals sqrt(2/pi)/w
    sum_qq = sum(
        charges[i] * charges[j] for i in range(n) for j in range(i + 1, n)
    )
    energies = n * 3.0 / (4.0 * mass * widths**2) + sum_qq * math.sqrt(
        2.0 / math.pi
    ) / widths
    e_min = float(energies.min())
    return {
        "trial_minimum": e_min,
        "lower_bound": bound,
        "margin": e_min - bound,
        "holds": bool(e_min >= bound),
    }
