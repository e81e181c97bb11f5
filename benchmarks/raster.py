"""`raster`: ``thermo.rasterized_dirichlet_energy`` and the exact-spectrum path.

One round rasterizes a box and a corner tetrahedron with fewer filled modes
than the first ``eigsh`` batch of 32, and one of each with more than 100
(several restarts), each at two seeded chemical potentials, then runs
``thermodynamic_extrapolation`` on boxes and ``corner_simplex_exact_energy``,
which never reach ``eigsh``.  The seed moves each chemical potential within
+-3%, which keeps every case in its class.
"""
from __future__ import annotations

import math

import numpy as np

import oracles as orc
from coulomblab import thermo

M = 1.0
# name: (shape, side or scale, lattice step h, base chemical potential)
CASES = {
    "box_few_modes": ("box", 6.0, 0.5, -1.0),
    "box_many_modes": ("box", 7.0, 0.5, -3.75),
    "simplex_few_modes": ("simplex", 10.0, 0.5, -2.0),
    "simplex_many_modes": ("simplex", 12.0, 0.6, -5.0),
}
INSTANCES = 2  # seeded chemical potentials per case in a round
EIGSH_FIRST_BATCH = 32
MANY = 100
EXTRAPOLATION_SCALES = np.array([12.0, 16.0, 20.0, 26.0, 32.0])
# The three-term fit over these scales misses the bulk density by more than
# 1% at some |mu| < 0.75 (shell oscillations); on [1, 2] it stays below 0.5%.
EXACT_MU_RANGE = (-2.0, -1.0)
SIMPLEX_EXACT_SCALES = (10.0, 15.0, 20.0)


def _sites(shape: str, length: float, h: float) -> int:
    n = max(int(math.ceil(length / h)), 1)
    return n**3 if shape == "box" else math.comb(n + 2, 3)


def setup(seed: int) -> dict:
    rng = np.random.default_rng([seed, 4])
    cases = []
    for name, (shape, length, h, mu0) in CASES.items():
        for _ in range(INSTANCES):
            mu = mu0 * (1.0 + 0.03 * float(rng.uniform(-1.0, 1.0)))
            if shape == "box":
                domain = thermo.BoxDomain(length)
                filled = orc.box_lattice_energy(length, h, mu, M)[1]
            else:
                domain = thermo.SimplexDomain(thermo.corner_tetrahedron(), ell=length)
                # the strictly ordered sublattice counts no more filled modes
                filled = orc.simplex_interlacing_bounds(length, h, mu, M)[1][1]
            if name.endswith("many_modes") and not filled > MANY:
                raise ValueError(f"{name}: {filled} filled modes, want more than {MANY}")
            if name.startswith("box") and name.endswith("few_modes") \
                    and not filled < EIGSH_FIRST_BATCH:
                raise ValueError(f"{name}: {filled} filled modes, want fewer than 32")
            cases.append({"name": name, "shape": shape, "length": length, "h": h,
                          "mu": mu, "domain": domain, "filled": filled,
                          "sites": _sites(shape, length, h)})
    return {"cases": cases, "exact_mu": float(rng.uniform(*EXACT_MU_RANGE))}


def _check_raster(case, energy, ck):
    name, shape, length, h, mu = (case[k] for k in ("name", "shape", "length", "h", "mu"))
    if shape == "box":
        want = orc.box_lattice_energy(length, h, mu, M)[0]
        ck.close(f"{name}: 7-point lattice spectrum", energy, want, 1e-9)
        exact = orc.continuum_energy(length, mu, M, strict=False)
        surface = 6.0 * length**2
    else:
        (cube, _), (sub, _) = orc.simplex_interlacing_bounds(length, h, mu, M)
        slack = 1e-9 * abs(cube)
        ck.check(cube - slack <= energy <= sub + slack,
                 f"{name}: {energy!r} outside interlacing [{cube!r}, {sub!r}]")
        exact = orc.continuum_energy(length, mu, M, strict=True)
        surface = orc.tetrahedron_surface(length * thermo.corner_tetrahedron().vertices)
    allowance = orc.staircase_allowance(h, surface, mu, M)
    ck.check(abs(energy - exact) <= allowance,
             f"{name}: raster {energy!r} vs continuum {exact!r} beyond O(h) "
             f"allowance {allowance!r}")


def _exact_path(mu, tr, ck):
    with tr.span("thermo.exact_path"):
        em = thermo.free_fermion_energy_map(mu, M)
        rep = ck.call("thermodynamic_extrapolation", thermo.thermodynamic_extrapolation,
                      em, thermo.BoxDomain, EXTRAPOLATION_SCALES)
        corner = [ck.call("corner_simplex_exact_energy", thermo.corner_simplex_exact_energy,
                          ell, mu, M) for ell in SIMPLEX_EXACT_SCALES]
    if rep is not None:
        for length, dens in zip(EXTRAPOLATION_SCALES, rep.densities):
            ck.close(f"box density at L={length:g}", dens,
                     orc.continuum_energy(length, mu, M, strict=False) / length**3, 1e-12)
        ck.close(f"extrapolated bulk density at mu={mu!r}", rep.e_infinity,
                 orc.bulk_density(mu, M), 0.01)
    for ell, value in zip(SIMPLEX_EXACT_SCALES, corner):
        if value is not None:
            ck.close(f"corner simplex exact energy at ell={ell:g}", value,
                     orc.continuum_energy(ell, mu, M, strict=True), 1e-12)


def run_round(inputs: dict, tr, ck) -> None:
    for case in inputs["cases"]:
        with tr.span("thermo.rasterized_dirichlet_energy", case["name"]):
            energy = ck.call(f"rasterized_dirichlet_energy[{case['name']}]",
                             thermo.rasterized_dirichlet_energy, case["domain"],
                             case["mu"], M, case["h"])
        if energy is not None:
            _check_raster(case, energy, ck)
    _exact_path(inputs["exact_mu"], tr, ck)


def layer_metrics(tr, inputs) -> dict:
    """Seconds per raster, averaged over instances; filled modes summed."""
    out = {}
    for name, (shape, _, _, _) in CASES.items():
        out[f"thermo.raster_s.{name}"] = (
            tr.total("thermo.rasterized_dirichlet_energy", name) / INSTANCES, "s")
        if shape == "box":
            filled = sum(c["filled"] for c in inputs["cases"] if c["name"] == name)
            out[f"thermo.filled_modes.{name}"] = (filled, "count")
    sites = sum(c["sites"] for c in inputs["cases"])
    out["thermo.raster_sites_per_s"] = (
        sites / tr.total("thermo.rasterized_dirichlet_energy"), "1/s")
    out["thermo.exact_path_ms"] = (1e3 * tr.total("thermo.exact_path"), "ms")
    return out
