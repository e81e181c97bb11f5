"""Self-checks of the benchmark: its oracles and the artifacts it relies on.

    python3 -m pytest benchmarks/test_benchmark.py -q
"""
from __future__ import annotations

import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import cli_quick
import oracles as orc

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _artifact(sub: str, blas_threads: int) -> bytes:
    proc = subprocess.run(cli_quick.command(sub), env=cli_quick.environment(blas_threads),
                          capture_output=True, timeout=120)
    assert proc.returncode == cli_quick.EXPECTED_STATUS[sub], proc.stderr
    return proc.stdout


@pytest.mark.parametrize("sub", cli_quick.SUBCOMMANDS)
def test_cli_artifacts_byte_identical_across_runs_and_blas_threads(sub):
    first = _artifact(sub, 2)
    assert first
    assert _artifact(sub, 2) == first
    assert _artifact(sub, 1) == first


def test_run_refuses_a_directory_without_the_package(tmp_path):
    shutil.copytree(os.path.join(ROOT, "benchmarks"), tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "raster", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_i0_closed_form():
    assert orc.i0_closed_form() == pytest.approx(0.574447353215854, rel=1e-14)


def test_gaussian_trial_minimum_is_the_scan_minimum():
    i0 = orc.i0_closed_form()
    sigma = np.linspace(0.5, 10.0, 200001)
    scan = 3 / (4 * sigma**2) - i0 * (np.pi * sigma**2) ** (-15 / 8) * (
        4 * np.pi * sigma**2 / 5) ** 1.5
    assert orc.gaussian_trial_minimum(i0) == pytest.approx(scan.min(), rel=1e-9)
    assert orc.gaussian_trial_minimum(i0) == pytest.approx(-0.050025, abs=1e-6)


def test_ball_pair_forms_agree():
    for delta, d in ((1.0, 0.3), (2.0, 1.9), (0.7, 1e-3)):
        assert orc.ball_pair_quadrature(delta, delta, d) == pytest.approx(
            orc.equal_ball_pair(delta, d), rel=1e-10)
    # touching balls interact like points, concentric ones like the self energy
    assert orc.equal_ball_pair(1.0, 1.0) == pytest.approx(1.0, rel=1e-15)
    assert orc.equal_ball_pair(1.0, 0.0) == pytest.approx(2.4, rel=1e-15)
    # a small ball deep inside a large one sees its central potential 3/delta
    assert orc.ball_pair_quadrature(4.0, 1e-3, 1e-3) == pytest.approx(0.75, rel=1e-6)


def _dense_raster(n: int, s: float, mask: np.ndarray, m: float) -> np.ndarray:
    idx = -np.ones(mask.shape, dtype=int)
    idx[mask] = np.arange(mask.sum())
    lap = np.diag(np.full(mask.sum(), 6.0 / s**2))
    for axis in range(3):
        a = [slice(None)] * 3
        b = [slice(None)] * 3
        a[axis], b[axis] = slice(0, -1), slice(1, None)
        ia, ib = idx[tuple(a)], idx[tuple(b)]
        both = (ia >= 0) & (ib >= 0)
        lap[ia[both], ib[both]] = lap[ib[both], ia[both]] = -1.0 / s**2
    return np.linalg.eigvalsh(lap / (2.0 * m))


def test_lattice_spectra_match_a_dense_seven_point_laplacian():
    side, h, mu, m = 3.0, 0.5, -4.0, 1.0
    n = 6
    ijk = np.meshgrid(*[np.arange(n)] * 3, indexing="ij")
    cube = _dense_raster(n, side / n, np.ones((n, n, n), bool), m)
    assert orc.box_lattice_energy(side, h, mu, m)[0] == pytest.approx(
        orc.filled_energy(cube, mu)[0], rel=1e-12)
    ordered = (ijk[0] <= ijk[1]) & (ijk[1] <= ijk[2])
    strict = (ijk[0] < ijk[1]) & (ijk[1] < ijk[2])
    raster = orc.filled_energy(_dense_raster(n, side / n, ordered, m), mu)[0]
    (lo, _), (hi, _) = orc.simplex_interlacing_bounds(side, h, mu, m)
    assert hi == pytest.approx(orc.filled_energy(_dense_raster(n, side / n, strict, m), mu)[0],
                               rel=1e-12)
    assert lo <= raster <= hi


def test_continuum_energies_and_cube_sums():
    side, mu, m = 5.0, -2.0, 1.0
    levels = [math.pi**2 * (a * a + b * b + c * c) / (2 * m * side**2)
              for a in range(1, 9) for b in range(1, 9) for c in range(1, 9)]
    want = sum(e + mu for e in levels if e < -mu)
    assert orc.continuum_energy(side, mu, m, strict=False) == pytest.approx(want, rel=1e-13)
    assert orc.lowest_cube_sum(4, 1.0, 1.0) == pytest.approx(
        math.pi**2 / 2 * (3 + 6 + 6 + 6), rel=1e-14)


def test_projected_gradient_vanishes_on_a_stationary_profile():
    r, h, w = orc.dyson_grid(400, 20.0)
    # with I0 = 0 the minimizer is the lowest sine mode of the discrete Laplacian
    u = np.sin(np.pi * r / 20.0)
    u /= math.sqrt(orc.dyson_terms(u, r, h, w)[2])
    u0 = orc.dyson_initial_profile(r, h, w)
    rel = orc.dyson_projected_gradient(u, r, h, w, 0.0) / orc.dyson_projected_gradient(
        u0, r, h, w, 0.0)
    assert rel < 1e-10
