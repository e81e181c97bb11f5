"""coulomblab: desk-scale numerics for quantum Coulomb gas bounds.

Subpackages map one-to-one onto the experiment families:

- ``numerics``: grids, the Gauss-Legendre panel rule, Legendre transforms.
- ``coulomb``: point-charge energies and the smeared-charge lower bound.
- ``liebthirring``: kinetic bounds and the grand canonical stability constant.
- ``grafschenker``: simplex-averaged Coulomb restrictions, averaged exactly.
- ``thermo``: free fermion energies and thermodynamic-limit extrapolation.
- ``operators``: spectral-grid magnetic forms and the Pauli square identity.
- ``instability``: relativistic and attractive-potential collapse scans.
- ``bogoliubov``: pair-excitation states and the N^(7/5) upper-bound pipeline.
- ``cli``: seeded command-line entry points emitting canonical JSON/CSV.
"""

from . import (  # noqa: F401
    bogoliubov,
    coulomb,
    grafschenker,
    instability,
    liebthirring,
    numerics,
    operators,
    report,
    thermo,
)

__version__ = "0.1.0"
