"""Package layout rules that no functional test would notice breaking."""
import ast
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGE = SRC / "coulomblab"


def test_no_private_names_imported_from_sibling_modules():
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").startswith("coulomblab")
            ):
                offenders += [f"{path.name}: {alias.name} from {node.module}"
                              for alias in node.names if alias.name.startswith("_")]
    assert not offenders, offenders


def test_no_private_attributes_read_across_objects():
    # an object's _names are its own: only self and cls may reach them
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                    and not node.attr.endswith("__")
                    and not (isinstance(node.value, ast.Name)
                             and node.value.id in ("self", "cls"))):
                offenders.append(f"{path.name}:{node.lineno}: .{node.attr}")
    assert not offenders, offenders


def test_all_names_exist():
    # every name a module exports is bound by a def, class or assignment at
    # its top level, so deleting a function without its __all__ entry fails
    missing = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        defined, exported = set(), []
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
                defined.update(names)
                if "__all__" in names:
                    exported = ast.literal_eval(node.value)
        missing += [f"{path.name}: {name}" for name in exported if name not in defined]
    assert not missing, missing


def test_every_error_class_is_raised_and_structured_by_the_cli():
    # an error class without a raise site is dead; one the CLI does not catch
    # would leave it as a traceback instead of exit status 3
    from coulomblab import cli, errors

    raised = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
                func = node.exc.func
                raised.add(func.attr if isinstance(func, ast.Attribute) else
                           getattr(func, "id", None))
    classes = [name for name, obj in vars(errors).items()
               if isinstance(obj, type) and obj.__module__ == errors.__name__]
    assert classes
    assert [name for name in classes if name not in raised] == []
    assert [name for name in classes
            if not issubclass(getattr(errors, name), cli._LIBRARY_ERRORS)] == []


def _imported_modules():
    """(file name, owner, module) for every absolute import in the package.

    The owner is the top-level def or class that holds the import, or None
    for an import at module level.
    """
    for path in sorted(PACKAGE.glob("*.py")):
        for top in ast.parse(path.read_text(), filename=str(path)).body:
            owner = getattr(top, "name", None)
            for node in ast.walk(top):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    names = [node.module or ""]
                    names += [f"{node.module}.{alias.name}" for alias in node.names]
                else:
                    continue
                yield from ((path.name, owner, name) for name in names)


def _importers_of(package):
    return [f"{file}: {name}" for file, _, name in _imported_modules()
            if name == package or name.startswith(package + ".")]


def test_scipy_only_in_the_dyson_solve():
    # scipy serves one call: the banded Newton step of
    # bogoliubov.dyson_variational_solve
    offenders = [f"{file}: {owner}: {name}"
                 for file, owner, name in _imported_modules()
                 if name.split(".")[0] == "scipy"
                 and (file, owner) != ("bogoliubov.py", "dyson_variational_solve")]
    assert not offenders, offenders


def test_no_module_imports_scipy_interpolate():
    # RadialGridFunction interpolates by np.interp; the tests' Fourier
    # oracle builds its own CubicSpline
    offenders = _importers_of("scipy.interpolate")
    assert not offenders, offenders


def test_no_module_imports_scipy_optimize():
    # scipy loads only inside the functions that call it, so only the
    # source can tell whether a module imports it
    offenders = _importers_of("scipy.optimize")
    assert not offenders, offenders


def test_no_module_imports_mpmath_or_scipy_special():
    # the 1/r tail and log n! need neither, and as scipy loads only inside
    # the functions that call it, again only the source can tell
    offenders = _importers_of("mpmath") + _importers_of("scipy.special")
    assert not offenders, offenders


def test_no_module_imports_scipy_integrate():
    # every integral runs on numerics.gauss_panels, a fixed Gauss-Legendre
    # rule on panels named in advance
    offenders = _importers_of("scipy.integrate")
    assert not offenders, offenders


def test_graf_schenker_draws_no_random_numbers():
    # the isometry averages are exact; the Monte Carlo that estimated them,
    # Haar rotations included, is the tests' oracle
    path = PACKAGE / "grafschenker.py"
    calls = [node.lineno
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Call) and "default_rng" in ast.unparse(node.func)]
    assert not calls, calls


def _probe(code):
    """stdout of `code` run in a fresh interpreter that imports from src."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    return proc.stdout


def test_cli_import_leaves_scipy_stats_out():
    probe = "import sys, coulomblab.cli; print('scipy.stats' in sys.modules)"
    assert _probe(probe).strip() == "False"


def test_cli_import_leaves_scipy_out():
    # scipy is imported inside the functions that call it, so importing the
    # package costs numpy only
    probe = ("import sys, coulomblab.cli; print(' '.join(sorted("
             "m for m in sys.modules if m.startswith('scipy'))))")
    assert _probe(probe).split() == []


def test_solvable_rasters_leave_scipy_out():
    # the full cube grid and the corner chamber sum their lattice ladder, a
    # raster without a known spectrum raises ValueError, and the box map,
    # the corner spectrum and the extrapolation are numpy too: no thermo
    # call loads scipy
    probe = """
import sys
import numpy as np
from coulomblab import grafschenker, thermo
thermo.rasterized_dirichlet_energy(thermo.BoxDomain(7.0), -3.75, 1.0, 0.5)
corner = thermo.SimplexDomain(thermo.corner_tetrahedron(), 12.0)
thermo.rasterized_dirichlet_energy(corner, -5.0, 1.0, 0.6)
try:
    thermo.rasterized_dirichlet_energy(
        thermo.SimplexDomain(grafschenker.regular_tetrahedron(), 6.0), -2.0, 1.0, 0.5)
except ValueError:
    pass
else:
    raise SystemExit("an unsolvable raster returned")
thermo.thermodynamic_extrapolation(thermo.free_fermion_energy_map(-1.0, 1.0),
                                   thermo.BoxDomain, np.array([12.0, 16.0, 20.0]))
thermo.corner_simplex_exact_energy(12.0, -2.0, 1.0)
print(' '.join(sorted(m for m in sys.modules if m.startswith('scipy'))))
"""
    assert _probe(probe).split() == []


def test_radial_grid_function_leaves_scipy_out():
    # evaluating a radial profile, as the Dyson solve does with its init,
    # interpolates on numpy alone
    probe = """
import sys
import numpy as np
from coulomblab.numerics import RadialGridFunction
f = RadialGridFunction(np.linspace(0.0, 2.0, 9), np.linspace(1.0, 0.0, 9))
f(np.linspace(0.0, 3.0, 7)), f(1.3)
print(' '.join(sorted(m for m in sys.modules if m.startswith('scipy'))))
"""
    assert _probe(probe).split() == []


def test_exact_graf_schenker_leaves_scipy_out():
    # the face-plane rule runs on numerics.gauss_panels, so neither the
    # exact kernel nor the positive-type check builds a spline
    probe = """
import sys
import numpy as np
from coulomblab import grafschenker as gs
simplex = gs.regular_tetrahedron()
gs.radial_kernel(np.linspace(0.0, 3.0, 7), simplex, 3.0)
gs.gs_positive_type_check(simplex, 3.0, 12, np.geomspace(0.05, 10.0, 8))
print(' '.join(sorted(m for m in sys.modules if m.startswith('scipy'))))
"""
    assert _probe(probe).split() == []


NUMPY_ONLY_SUBCOMMANDS = (
    "i0", "fock-oracle", "onsager-check", "lt-box", "stability-constant",
    "graf-schenker", "thermo-limit", "rel-collapse", "fermi-collapse",
    "lichnerowicz", "sobolev", "legendre",
)


def test_numpy_only_subcommands_leave_scipy_out():
    # each subcommand runs at its defaults in one interpreter; the probe
    # records the scipy modules loaded by the time each one has finished, so
    # the first subcommand to import scipy is the first one named
    probe = f"""
import contextlib, io, json, sys
from coulomblab.cli import main
loaded = {{}}
for sub in {NUMPY_ONLY_SUBCOMMANDS!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        status = main([sub])
    loaded[sub] = [status] + sorted(m for m in sys.modules if m.startswith("scipy"))
print(json.dumps(loaded))
"""
    loaded = json.loads(_probe(probe).splitlines()[-1])
    # i0 exits 1 by design: the published closed form is twice the quadrature
    assert loaded == {sub: [1 if sub == "i0" else 0] for sub in NUMPY_ONLY_SUBCOMMANDS}


def test_cli_import_loads_every_module():
    # benchmarks/run.py:import_times reads `python -X importtime -c "import
    # coulomblab.cli"` and emits one import.<module>_ms metric per module that
    # import loads, so a module of a metric that BENCHMARK.json declares must
    # be among them, or that metric goes unreported
    probe = ("import sys, coulomblab.cli; print(' '.join(sorted("
             "m for m in sys.modules if m.startswith('coulomblab.'))))")
    benchmark = json.loads((SRC.parent / "BENCHMARK.json").read_text())
    declared = {f"coulomblab.{name[len('import.'):-len('_ms')]}"
                for name in (metric["name"] for metric in benchmark["per_layer"])
                if name.startswith("import.") and name.endswith("_ms")}
    assert declared
    assert declared <= set(_probe(probe).split())
