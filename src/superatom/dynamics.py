"""Time evolution: exact pure-state propagation and Lindblad master equation.

Pure states under a constant Hamiltonian are propagated by spectral
decomposition (no integrator error) of the leading K x K block of H.  H
comes as its lower bands (row d holds H[i+d, i], LAPACK's symmetric band
storage), so the propagator reads the bandwidth from the shape and builds
no dense matrix beyond the block and the rows it leaks into.  The first
block holds every position that _FIRST_BLOCK_STEPS applications of H can
reach from psi0's support; K then grows to 2K+1 (at most dim) until the
Duhamel bound on the leakage out of the block, T * sum_j |c_j| *
||H[K:, :K] u_j|| with T = max |t|, is at most DROP_TOL.  Every returned
psi(t) is therefore within DROP_TOL of exp(-iHt) psi0 in norm.  In the
Dicke ordering the chain is three bands and the block is the states with
the fewest excitations; a dense H passes through hermitian_bands, which
checks it and returns all of its diagonals, so it gets K = dim at once.
Density matrices evolve under
rho' = -i[H, rho] + sum_k Gamma_k (L rho L^+ - 1/2 {L^+L, rho}) with an
adaptive embedded Runge-Kutta integrator on the vectorized density matrix;
the generator is built once per run as a sparse superoperator.  scipy
(scipy.sparse, scipy.integrate) is imported inside liouvillian and
evolve_lindblad, so only a master-equation run loads it; importing this
module, and every pure-state run, needs numpy alone.
Positivity is monitored, not enforced: a violation beyond tolerance fails
the run instead of being silently projected away.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .basis import (
    LEVEL_E,
    LEVEL_G,
    LEVEL_R,
    BasisError,
    CapacityError,
    EnsembleSpec,
    N_MAX_PRODUCT_DENSITY,
    product_basis,
    product_dimension,
    single_atom_flips,
    symmetrizer,
)

if TYPE_CHECKING:
    from scipy import sparse

NORM_TOL = 1e-10
DROP_TOL = 1e-13  # norm bound on the leakage out of pure propagation's block
TRACE_TOL = 1e-7
HERM_TOL = 1e-8
POSITIVITY_TOL = 1e-6
LINDBLAD_RTOL = 1e-8  # DOP853 tolerances of the master equation
LINDBLAD_ATOL = 1e-10
# the master equation runs in the product basis only
LINDBLAD_MAX_DIM = product_dimension(N_MAX_PRODUCT_DENSITY)
# DOP853 takes 1.2-4.9 right-hand-side evaluations per unit of the work
# check_lindblad_work computes for protocol runs (a weak probe; N = 3 and 4,
# pulses of 0.05-50 us, Omega_c and rates up to 1e4 MHz), and up to 27 for
# 80 random drives at N = 2 and 3 (a strong probe).  One evaluation takes
# about 30 us at N = 3 and 115 us at N = 4 on one core, so at the cap a
# protocol run takes at most about 15 s (N = 3) and 60 s (N = 4), a
# strong-probe run up to about 5 min.  The criterion-6 point (N = 3,
# Omega_c = 100 MHz, 5 us) does 9.5e3.
LINDBLAD_MAX_WORK = 1e5


class NumericalFailure(RuntimeError):
    """Integrator failed or a conservation/positivity check was violated."""


@dataclass(frozen=True)
class DecoherenceRates:
    """Decay/dephasing rates, angular rad/us.

    gamma_e: spontaneous decay e -> g, gamma_r: Rydberg decay r -> e,
    gamma_d: per-atom dephasing of the Rydberg state, gamma_coll:
    collective dephasing of the symmetric Dicke states.
    """

    gamma_e: float = 0.0
    gamma_r: float = 0.0
    gamma_d: float = 0.0
    gamma_coll: float = 0.0

    def __post_init__(self):
        for name in ("gamma_e", "gamma_r", "gamma_d", "gamma_coll"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")

    @property
    def all_zero(self) -> bool:
        single_atom = self.gamma_e > 0 or self.gamma_r > 0 or self.gamma_d > 0
        return not single_atom and self.gamma_coll == 0


@dataclass
class Trajectory:
    """Sampled populations of labeled observables along an evolution."""

    times: np.ndarray
    populations: dict = field(default_factory=dict)

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        if np.any(np.diff(t) <= 0):
            raise ValueError("times must be strictly increasing")
        self.times = t


# applications of H from psi0's support that the first leading block covers:
# 35 positions of the Dicke chain from |G>, the states with n <= 17
_FIRST_BLOCK_STEPS = 17
# complex entries of the (times, K) phase arrays formed at once
_PHASE_CHUNK = 2**16


def hermitian_bands(h: np.ndarray) -> np.ndarray:
    """All diagonals of a dense Hermitian H as lower bands (dim, dim): row d
    holds H[i+d, i] and ends in d zeros.  Raises NumericalFailure when H
    is not finite or not Hermitian."""
    if not np.isfinite(h).all():
        raise NumericalFailure("non-finite Hamiltonian or initial state")
    # "not <=" so that a NaN residual fails the check
    if not np.max(np.abs(h - h.conj().T)) <= 1e-10 * max(1.0, np.max(np.abs(h))):
        raise NumericalFailure("Hamiltonian is not Hermitian")
    return np.array([np.pad(np.diagonal(h, -d), (0, d)) for d in range(len(h))])


def leading_block(bands: np.ndarray, m: int) -> np.ndarray:
    """Dense m x m leading block of the Hermitian H with lower bands
    `bands` (row d holds H[i+d, i])."""
    block = np.zeros((m, m), dtype=bands.dtype)
    for d in range(min(len(bands), m)):
        block[np.arange(d, m), np.arange(m - d)] = bands[d, : m - d]
    return block + np.tril(block, -1).conj().T


def propagate_pure(bands: np.ndarray, psi0: np.ndarray, times) -> np.ndarray:
    """psi(t) = exp(-i H t) psi0 on a leading block of H; returns (T, dim).

    bands holds the lower bands of H (row d holds H[i+d, i]).  The block
    grows until the leakage bound T * sum_j |c_j| * ||H[K:, :K] u_j||
    (u_j, c_j the block's eigenvectors and psi0's overlaps with them) is
    at most DROP_TOL; see the module docstring.
    """
    times = np.asarray(times, dtype=float)
    if bands.ndim != 2 or psi0.shape != bands.shape[1:]:
        raise BasisError(f"dimension mismatch: bands {bands.shape}, psi0 {psi0.shape}")
    if not (np.isfinite(bands).all() and np.isfinite(psi0).all()):
        raise NumericalFailure("non-finite Hamiltonian or initial state")
    width, dim = len(bands) - 1, bands.shape[1]
    horizon = np.max(np.abs(times), initial=0.0)
    end = int(np.max(np.flatnonzero(psi0), initial=0)) + 1  # of psi0's support
    k = min(dim, end + _FIRST_BLOCK_STEPS * width)
    while True:
        h = leading_block(bands, min(dim, k + width))  # with the rows it leaks into
        try:
            evals, evecs = np.linalg.eigh(h[:k, :k])
        except np.linalg.LinAlgError as exc:
            raise NumericalFailure(f"eigensolver failed: {exc}") from exc
        c0 = evecs.conj().T @ psi0[:k]
        if k == dim:
            break
        leak = np.linalg.norm(h[k:, :k] @ evecs, axis=0)
        if horizon * (np.abs(c0) @ leak) <= DROP_TOL:
            break
        k = min(dim, 2 * k + 1)
    basis = evecs.T.astype(complex)  # cast once, not for each chunk of times
    del h, evecs  # only the spectrum stays while the states are filled
    states = np.zeros((len(times), dim), dtype=complex)
    step = max(1, _PHASE_CHUNK // k)
    for i in range(0, len(times), step):
        phases = np.exp(-1j * np.outer(times[i : i + step], evals))
        states[i : i + step, :k] = (phases * c0) @ basis
    # row norms without the (T, K) temporaries of np.linalg.norm
    re, im = states.real[:, :k], states.imag[:, :k]
    norms = np.sqrt(np.einsum("ij,ij->i", re, re) + np.einsum("ij,ij->i", im, im))
    if not np.max(np.abs(norms - 1.0)) <= NORM_TOL:
        raise NumericalFailure("norm not conserved in pure propagation")
    return states


def lindblad_operators(
    rates: DecoherenceRates, spec: EnsembleSpec
) -> list[tuple[float, np.ndarray]]:
    """Jump operators as (rate, matrix) pairs in the product basis.

    Single-atom channels (gamma_e, gamma_r, gamma_d) act on one atom each
    and break the exchange symmetry; collective dephasing projects onto
    each symmetric Dicke state.
    """
    levels = product_basis(spec)
    dim = len(levels)
    ops: list[tuple[float, np.ndarray]] = []
    for rate, src, dst in (
        (rates.gamma_e, LEVEL_E, LEVEL_G),  # |g><e|
        (rates.gamma_r, LEVEL_R, LEVEL_E),  # |e><r|
        (rates.gamma_d, LEVEL_R, LEVEL_R),  # |r><r|
    ):
        if rate <= 0:
            continue
        atom, rows, cols = single_atom_flips(levels, src, dst)
        per_atom = np.zeros((spec.n_atoms, dim, dim))
        per_atom[atom, cols, rows] = 1.0
        ops.extend((rate, op) for op in per_atom)
    if rates.gamma_coll > 0:
        ops.extend((rates.gamma_coll, np.outer(v, v)) for v in symmetrizer(spec).T)
    return ops


def liouvillian(
    h: np.ndarray, jumps: list[tuple[float, np.ndarray]]
) -> sparse.csr_array:
    """Master-equation generator as a sparse superoperator on row-major vec(rho).

    Row-major vec gives vec(A rho B) = (A kron B^T) vec(rho).  With
    K = sum_k Gamma_k L_k^+ L_k and A = -iH - K/2, the master equation
    rho' = A rho + rho A^+ + sum_k Gamma_k L_k rho L_k^+ becomes
    vec(rho)' = (A kron I + I kron conj(A) + sum_k Gamma_k L_k kron conj(L_k))
    vec(rho).
    """
    from scipy import sparse

    dim = h.shape[0]
    eye = sparse.eye_array(dim, dtype=complex, format="csr")
    k = sparse.csr_array((dim, dim), dtype=complex)
    gen = sparse.csr_array((dim * dim, dim * dim), dtype=complex)
    for rate, op in jumps:
        l = sparse.csr_array(op, dtype=complex)
        k = k + rate * (l.conj().T @ l)
        gen = gen + rate * sparse.kron(l, l.conj(), format="csr")
    a = -1j * sparse.csr_array(h, dtype=complex) - 0.5 * k
    return (
        gen
        + sparse.kron(a, eye, format="csr")
        + sparse.kron(eye, a.conj(), format="csr")
    )


def check_lindblad_work(
    h: np.ndarray, jumps: list[tuple[float, np.ndarray]], horizon: float
) -> None:
    """Raise CapacityError when the work T * (||H||_inf + ||K||_inf), with
    K = sum_k Gamma_k L_k^+ L_k, exceeds LINDBLAD_MAX_WORK: the generator's
    frequency scale times the horizon, which the integrator's steps follow."""
    k = sum((rate * (op.conj().T @ op) for rate, op in jumps), np.zeros(h.shape))
    work = horizon * (np.abs(h).sum(axis=1).max() + np.abs(k).sum(axis=1).max())
    if work > LINDBLAD_MAX_WORK:
        raise CapacityError(
            f"master-equation work T*(|H| + |K|) = {work:.3g} exceeds the cap "
            f"{LINDBLAD_MAX_WORK:g}; shorten the pulse or lower the frequencies "
            "or decay rates"
        )


def evolve_lindblad(
    h: np.ndarray,
    jumps: list[tuple[float, np.ndarray]],
    rho0: np.ndarray,
    times,
) -> np.ndarray:
    """Integrate the master equation; returns (T, dim, dim) density matrices.

    Trace, Hermiticity and positivity are checked at every output time.
    """
    times = np.asarray(times, dtype=float)
    dim = h.shape[0]
    if dim > LINDBLAD_MAX_DIM:
        raise CapacityError(
            f"Lindblad dimension {dim} exceeds capacity {LINDBLAD_MAX_DIM}"
        )
    if rho0.shape != (dim, dim):
        raise BasisError(f"rho0 shape {rho0.shape} incompatible with H {h.shape}")
    check_lindblad_work(h, jumps, float(times[-1]))
    from scipy.integrate import solve_ivp

    gen = liouvillian(h, jumps)

    def rhs(_t, y):
        return gen @ y

    t0, t1 = 0.0, float(times[-1])
    sol = solve_ivp(
        rhs,
        (t0, t1),
        rho0.astype(complex).ravel(),
        t_eval=times,
        method="DOP853",
        rtol=LINDBLAD_RTOL,
        atol=LINDBLAD_ATOL,
    )
    if not sol.success:
        raise NumericalFailure(f"master-equation integration failed: {sol.message}")
    rhos = sol.y.T.reshape(len(times), dim, dim)
    for k, rho in enumerate(rhos):
        tr = np.trace(rho).real
        if abs(tr - 1.0) > TRACE_TOL:
            raise NumericalFailure(f"trace {tr} at t={times[k]}")
        if np.max(np.abs(rho - rho.conj().T)) > HERM_TOL:
            raise NumericalFailure(f"Hermiticity violated at t={times[k]}")
        if np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min() < -POSITIVITY_TOL:
            raise NumericalFailure(f"positivity violated at t={times[k]}")
    return rhos
