"""`cli-quick`: the cheap subcommands, each in a fresh interpreter.

Every subcommand runs at its defaults, the default seed 137 included, as a
user types it, so the seed argument does not change this workload: the
graf-schenker subcommand makes 3-sigma Monte Carlo tests, which fail by
chance on some seeds.  The dyson-solve, dyson-pipeline, onsager-check and
fock-oracle subcommands stay out; condensate and charge-sweep time their
kernels.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys

import oracles as orc

IN_PROCESS = False
SUBCOMMANDS = ("i0", "lt-box", "stability-constant", "graf-schenker", "thermo-limit",
               "rel-collapse", "fermi-collapse", "lichnerowicz", "sobolev", "legendre")
# the documented exit status: i0 reports the factor-2 discrepancy as a violation
EXPECTED_STATUS = {sub: 1 if sub == "i0" else 0 for sub in SUBCOMMANDS}
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def command(sub: str) -> list[str]:
    return [sys.executable, "-m", "coulomblab.cli", sub]


def environment(blas_threads: int | None = None) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    if blas_threads is not None:
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = str(blas_threads)
    return env


def setup(seed: int) -> dict:
    import coulomblab.cli  # noqa: F401  the import every subcommand pays

    return {"commands": {sub: command(sub) for sub in SUBCOMMANDS}}


def _check(sub: str, status: int, out: str, err: str, ck) -> None:
    if not ck.check(status == EXPECTED_STATUS[sub],
                    f"{sub}: exit status {status}, want {EXPECTED_STATUS[sub]}\n{err}"):
        return
    try:
        art = json.loads(out)
    except ValueError:
        ck.check(False, f"{sub}: artifact is not JSON: {out[:200]!r}")
        return
    if sub == "i0":
        ck.close("i0 quadrature", art["quadrature"], orc.i0_closed_form(), 1e-8)
        ck.close("i0 closed_form/quadrature", art["closed_form"] / art["quadrature"],
                 2.0, 1e-8)
        return
    ck.check(art.get("pass") is True, f"{sub}: artifact reports pass={art.get('pass')}")
    if sub == "legendre":
        ck.check(abs(art["quadratic_at_0.6"] - 0.18) < 1e-10, "legendre quadratic value")
        ck.check(abs(art["relativistic_at_0.6"] - 0.2) < 1e-6, "legendre relativistic value")
    elif sub == "thermo-limit":
        mu, m = art["mu"], art["m"]
        closed = orc.bulk_density(mu, m)
        ck.close("thermo-limit closed form", art["closed_form"], closed, 1e-12)
        ck.close("thermo-limit extrapolation", art["e_infinity"], closed, 0.01)
        for row in art["rows"]:
            ck.close(f"thermo-limit density at L={row['L']}", row["e"],
                     orc.continuum_energy(row["L"], mu, m, strict=False) / row["L"] ** 3,
                     1e-12)
    elif sub == "lt-box":
        for row in art["rows"]:
            tag = f"lt-box N={row['N']} side={row['side']}"
            ck.close(f"{tag} Dirichlet sum", row["dirichlet_sum"],
                     orc.lowest_cube_sum(row["N"], row["side"], 1.0), 1e-12)
            ck.check(row["holds"] and row["dirichlet_sum"] >= row["bound"],
                     f"{tag}: bound does not hold")


def run_round(inputs: dict, tr, ck) -> None:
    env = environment()
    for sub, cmd in inputs["commands"].items():
        with tr.span(f"cli.{sub}"):
            proc = ck.call(sub, subprocess.run, cmd, env=env, capture_output=True,
                           text=True, timeout=120)
        if proc is not None:
            _check(sub, proc.returncode, proc.stdout, proc.stderr, ck)


def layer_metrics(tr, inputs) -> dict:
    return {f"cli.{sub}_s": (tr.total(f"cli.{sub}"), "s") for sub in SUBCOMMANDS}
