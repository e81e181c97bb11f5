"""`condensate`: the N^(7/5) pipeline of ``coulomblab.bogoliubov``.

One round: Dyson solves at the default grid and one finer grid, the
rescaling pipeline, ``compute_I0``, ``semiclassical_p_integral`` at seeded
(density, N), and one seeded ``fock_oracle`` spec with 1, 2 and 3 pair modes.
The Dyson solves do not depend on the seed.
"""
from __future__ import annotations

import math

import numpy as np

import oracles as orc
from coulomblab import bogoliubov

DEFAULT_GRID = 2000  # dyson_variational_solve's default grid_n
FINE_GRID = 2200
R_MAX = 40.0  # dyson_variational_solve's default r_max
DYSON_TOL = 1e-7  # dyson_variational_solve's default tol
PIPELINE_N = (10.0, 1e3, 1e6)


def setup(seed: int) -> dict:
    rng = np.random.default_rng([seed, 1])
    specs = []
    for n_modes in (1, 2, 3):
        lambdas = tuple(float(x) for x in rng.uniform(0.0, 0.55, size=n_modes))
        specs.append((lambdas, math.sqrt(rng.uniform(0.0, 8.0))))
    semiclassical = [(float(rng.uniform(0.1, 10.0)), float(rng.uniform(1.0, 1e4)))
                     for _ in range(3)]
    return {"specs": specs, "semiclassical": semiclassical}


def _check_dyson(state, grid_n, i0, tr_span, ck):
    r, h, w = orc.dyson_grid(grid_n, R_MAX)
    ck.check(np.array_equal(state.phi.nodes, r), f"dyson[{grid_n}]: grid differs")
    u = r * state.phi.values
    u[0] = 0.0
    ck.check(bool(np.all(u >= 0.0)), f"dyson[{grid_n}]: negative profile")
    kinetic, potential, norm2 = orc.dyson_terms(u, r, h, w)
    ck.close(f"dyson[{grid_n}] norm", norm2, 1.0, 1e-9)
    ck.close(f"dyson[{grid_n}] K", state.kinetic, kinetic, 1e-9)
    ck.close(f"dyson[{grid_n}] P", state.potential, potential, 1e-9)
    energy = 0.5 * kinetic - i0 * potential
    ck.close(f"dyson[{grid_n}] E", state.energy, energy, 1e-9)
    virial = abs(kinetic - 0.75 * i0 * potential) / kinetic
    ck.check(virial < 1e-3, f"dyson[{grid_n}]: virial residual {virial:.3e} >= 1e-3")
    trial = orc.gaussian_trial_minimum(i0)
    ck.check(energy < trial,
             f"dyson[{grid_n}]: E={energy!r} not below Gaussian trial {trial!r}")
    u0 = orc.dyson_initial_profile(r, h, w)
    pg_rel = (orc.dyson_projected_gradient(u, r, h, w, i0)
              / orc.dyson_projected_gradient(u0, r, h, w, i0))
    tr_span.counts["relative_projected_gradient"] = pg_rel
    if not pg_rel < DYSON_TOL:
        ck.fail(f"dyson[{grid_n}]: relative projected gradient {pg_rel:.3e} "
                f"above tol {DYSON_TOL:g}, reported as converged")
    return energy


def _check_pipeline(report, state, ck):
    r = state.phi.nodes
    u = r * state.phi.values
    u[0] = 0.0
    h = r[1] - r[0]
    values = []
    for big_n, row in zip(PIPELINE_N, report.rows):
        s = big_n**0.2
        rs, hs = r / s, h / s
        ws = np.full_like(rs, hs)
        ws[0] = ws[-1] = 0.5 * hs
        k, p, _ = orc.dyson_terms(big_n**0.3 / s * u, rs, hs, ws)
        e_upper = 0.5 * big_n * k - state.i0 * big_n**1.25 * p
        ck.close(f"pipeline E_upper(N={big_n:g})", row.e_upper, e_upper, 1e-10)
        values.append(e_upper / big_n**1.4)
        ck.close(f"pipeline E/N^(7/5) (N={big_n:g})", values[-1], state.energy, 1e-10)
    spread = (max(values) - min(values)) / abs(float(np.mean(values)))
    ck.check(spread < 1e-10, f"pipeline spread {spread:.3e} >= 1e-10")
    ck.check(len(report.rows) == len(PIPELINE_N), "pipeline row count")


def _check_fock(rep, lambdas, amp, ck):
    want = orc.fock_closed_forms(lambdas, amp * amp)
    tag = f"fock[{len(lambdas)} modes]"
    for key, got in (("two_point", rep.centered_two_point),
                     ("pairing", rep.centered_pairing),
                     ("four_point", rep.centered_four_point)):
        err = float(np.abs(got - want[key]).max())
        ck.check(err < 1e-7, f"{tag} {key} error {err:.3e}")
    big_n = amp * amp
    for name, got, exp in (
        ("condensate mean", rep.condensate_number_mean, big_n),
        ("condensate variance", rep.condensate_number_variance, big_n),
        ("total mean", rep.total_number_mean, want["total_mean"]),
        ("total variance", rep.total_number_variance, want["total_variance"]),
    ):
        ck.check(abs(got - exp) < 1e-7, f"{tag} {name}: {got!r} vs {exp!r}")


def run_round(inputs: dict, tr, ck) -> None:
    i0 = orc.i0_closed_form()

    with tr.span("bogoliubov.compute_I0"):
        res = ck.call("compute_I0", bogoliubov.compute_I0)
    if res is not None:
        quadrature, published = res
        ck.close("I0 quadrature vs Gamma closed form", quadrature, i0, 1e-8)
        ck.close("published I0 form / quadrature", published / quadrature, 2.0, 1e-8)

    energies, states = {}, {}
    for label, grid_n in (("default", DEFAULT_GRID), ("fine", FINE_GRID)):
        with tr.span("bogoliubov.dyson_variational_solve", label) as sp:
            state = ck.call(f"dyson_variational_solve({grid_n})",
                            bogoliubov.dyson_variational_solve, grid_n=grid_n)
        if state is not None:
            sp.counts["iterations"] = state.iterations
            energies[label] = _check_dyson(state, grid_n, i0, sp, ck)
            states[label] = state
    if len(energies) == 2:
        drift = abs(energies["default"] - energies["fine"]) / abs(energies["fine"])
        ck.check(drift < 1e-3, f"dyson grid drift {drift:.3e} >= 1e-3")

    with tr.span("bogoliubov.dyson_pipeline"):
        report = ck.call("dyson_pipeline", bogoliubov.dyson_pipeline, PIPELINE_N,
                         state=states.get("default"), grid_n=DEFAULT_GRID)
    if report is not None:
        _check_pipeline(report, report.state, ck)

    for density, big_n in inputs["semiclassical"]:
        with tr.span("bogoliubov.semiclassical_p_integral"):
            value = ck.call("semiclassical_p_integral",
                            bogoliubov.semiclassical_p_integral, density, big_n)
        if value is not None:
            ck.close(f"semiclassical(rho={density:.4g}, N={big_n:.4g})",
                     value, -i0 * (big_n * density) ** 1.25, 1e-5)

    for lambdas, amp in inputs["specs"]:
        with tr.span("bogoliubov.fock_oracle", f"modes{len(lambdas)}"):
            rep = ck.call("fock_oracle", bogoliubov.fock_oracle,
                          bogoliubov.PairExcitationSpec(lambdas, amp), truncation=40)
        if rep is not None:
            _check_fock(rep, lambdas, amp, ck)


def layer_metrics(tr, inputs) -> dict:
    solves = {lab: tr.find("bogoliubov.dyson_variational_solve", lab)[0]
              for lab in ("default", "fine")}
    iters = sum(s.counts["iterations"] for s in solves.values())
    secs = sum(s.seconds for s in solves.values())
    out = {
        "bogoliubov.dyson_us_per_iteration": (1e6 * secs / iters, "us"),
        "bogoliubov.pipeline_ms": (1e3 * tr.total("bogoliubov.dyson_pipeline"), "ms"),
        "bogoliubov.semiclassical_ms": (
            1e3 * tr.total("bogoliubov.semiclassical_p_integral")
            / len(tr.find("bogoliubov.semiclassical_p_integral")), "ms"),
        "bogoliubov.compute_i0_ms": (1e3 * tr.total("bogoliubov.compute_I0"), "ms"),
    }
    for lab, s in solves.items():
        out[f"bogoliubov.dyson_solve_s.{lab}"] = (s.seconds, "s")
        out[f"bogoliubov.dyson_iterations.{lab}"] = (s.counts["iterations"], "count")
    for n_modes in (1, 2, 3):
        out[f"bogoliubov.fock_oracle_ms.modes{n_modes}"] = (
            1e3 * tr.total("bogoliubov.fock_oracle", f"modes{n_modes}"), "ms")
    return out
