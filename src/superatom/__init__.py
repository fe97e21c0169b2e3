"""Heralded W-state preparation in perfectly blockaded three-level ensembles.

Collective (Dicke) bases, probe/coupling Hamiltonians and their dressed
and effective reductions, pure-state and Lindblad time evolution, the
heralding protocol with its parameter scans, and a classical Monte Carlo
of the heralding ion's escape.
"""

__version__ = "0.1.0"

from .basis import (
    BasisError,
    CapacityError,
    DickeIndex,
    EnsembleSpec,
    dicke_dimension,
    product_basis,
    product_dimension,
    symmetrizer,
)
from .dynamics import (
    DecoherenceRates,
    NumericalFailure,
    Trajectory,
    evolve_lindblad,
    propagate_pure,
)
from .hamiltonians import (
    LaserParams,
    build_dicke_hamiltonian,
    build_product_hamiltonian,
    build_restricted_hamiltonian,
    resonance_probe_detuning,
)
from .ion_escape import EscapeResult, IonEscapeConfig, simulate_escape
from .protocol import (
    AUTO_DELTA_P,
    PoissonEnsemble,
    ProtocolConfig,
    ProtocolResult,
    collapse_revival_demo,
    poisson_average,
    run_protocol,
    scan_decoherence,
    scan_delta_c,
    scan_omega_c,
)
