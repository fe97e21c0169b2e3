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
adaptive embedded Runge-Kutta integrator (DOP853).  H, every channel and
|G> are symmetric under atom exchange, so rho stays permutation-invariant
(Shammah et al., PRA 98, 063815 (2018); Gegg & Richter, NJP 18, 043037
(2016)): the integrator runs on one matrix element per orbit of
product-basis pairs (i, j) under atom permutations, 86 at N = 3 and 175 at
N = 4 instead of 400 and 2,304.  Their generator is built once per solve in
count space, from the single-atom Hamiltonian and the rates, and each
output is expanded to the product-basis density matrix.  scipy
(scipy.integrate) is imported inside evolve_lindblad, so only a
master-equation run loads it; importing this module, and every pure-state
run, needs numpy alone.
Positivity is monitored, not enforced: a violation beyond tolerance fails
the run instead of being silently projected away.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations_with_replacement
from itertools import product as iterproduct
from math import factorial

import numpy as np

from .basis import (
    LEVEL_E,
    LEVEL_G,
    LEVEL_R,
    BasisError,
    CapacityError,
    EnsembleSpec,
    N_MAX_PRODUCT_DENSITY,
    dicke_labels,
    product_basis,
)

NORM_TOL = 1e-10
DROP_TOL = 1e-13  # norm bound on the leakage out of pure propagation's block
TRACE_TOL = 1e-7
HERM_TOL = 1e-8
POSITIVITY_TOL = 1e-6
LINDBLAD_RTOL = 1e-8  # DOP853 tolerances of the master equation
LINDBLAD_ATOL = 1e-10
# DOP853 takes 1.2-4.9 right-hand-side evaluations per unit of the work
# check_lindblad_work computes for protocol runs (a weak probe; N = 3 and 4,
# pulses of 0.05-50 us, Omega_c and rates up to 1e4 MHz), and up to 27 for
# 80 random drives at N = 2 and 3 (a strong probe).  One evaluation, on the
# orbit coordinates, takes about 10 us at N = 3 and 18 us at N = 4 on one
# core (17 and 64 us on the whole product-basis rho, measured alongside), so
# at the cap a protocol run takes at most about 5 s (N = 3) and 9 s
# (N = 4), a strong-probe run up to about 1 min.  The criterion-6 point
# (N = 3, Omega_c = 100 MHz, 5 us) does 9.5e3.
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


def check_density_capacity(spec: EnsembleSpec) -> None:
    """Raise CapacityError when the master equation's product-basis density
    matrices would exceed N_MAX_PRODUCT_DENSITY atoms."""
    if spec.n_atoms > N_MAX_PRODUCT_DENSITY:
        raise CapacityError(
            f"product-basis density matrix for N={spec.n_atoms} exceeds "
            f"limit {N_MAX_PRODUCT_DENSITY}"
        )


# An orbit of product-basis pairs (i, j) under atom permutations is a
# multiset of single-atom pairs (ket level a, bra level b), coded 3a + b,
# and is held as its 9 counts n[3a + b]; at most one atom has r on each
# side.


def _orbits(n_atoms: int) -> tuple[np.ndarray, np.ndarray]:
    """(counts, place): the (n_orb, 9) pair counts of every orbit, in
    ascending order of their codes counts @ place."""
    place = (n_atoms + 1) ** np.arange(9)
    multisets = np.array(list(combinations_with_replacement(range(9), n_atoms)))
    counts = (multisets[:, :, None] == np.arange(9)).sum(axis=1)
    ket_r, bra_r = counts[:, 6:].sum(axis=1), counts[:, 2::3].sum(axis=1)
    counts = counts[(ket_r <= 1) & (bra_r <= 1)]
    return counts[np.argsort(counts @ place)], place


def _orbit_index(
    counts: np.ndarray, place: np.ndarray, query: np.ndarray
) -> np.ndarray:
    """Index in counts of each row of query (..., 9); -1 where the row is no
    orbit (a count below zero, or a second r on one side)."""
    codes, want = counts @ place, query @ place
    idx = np.minimum(np.searchsorted(codes, want), len(codes) - 1)
    return np.where((codes[idx] == want) & (query >= 0).all(axis=-1), idx, -1)


def pair_orbits(spec: EnsembleSpec) -> np.ndarray:
    """(dim, dim) orbit index of every product-basis pair (i, j): a
    permutation-invariant rho is x[pair_orbits(spec)], x one matrix element
    per orbit, in the order orbit_liouvillian uses."""
    counts, place = _orbits(spec.n_atoms)
    levels = product_basis(spec)
    pairs = 3 * levels[:, None, :] + levels[None, :, :]
    return _orbit_index(counts, place, (pairs[..., None] == np.arange(9)).sum(axis=2))


def orbit_liouvillian(
    h_atom: np.ndarray, rates: DecoherenceRates, n_atoms: int
) -> np.ndarray:
    """Master-equation generator (n_orb, n_orb) on the orbit coordinates x.

    H is the sum over the atoms of the single-atom h_atom, without the
    flips onto a second r.  Row o is d<i|rho|j>/dt at a pair (i, j) of
    orbit o, whose counts are n:
    - -i[H, rho]: one atom's ket level moves a -> c with weight
      n_ab h_atom[a, c], or its bra level b -> c with n_ab h_atom[c, b];
      a move onto a second r is dropped;
    - a single-atom jump L = |d><s| at rate Gamma adds Gamma n_dd times the
      element with one (d, d) atom at (s, s), and -Gamma/2 times the
      number of atoms in s on either side;
    - collective dephasing at rate gamma (a jump P_k onto each Dicke
      state, sum_k P_k = P) vanishes when i and j hold the same level
      counts, and otherwise adds -gamma times the mean of rho over the pairs
      with the level counts c of i and m of j: sum over those orbits o' of
      w(o') x(o'), w = prod c_a! prod m_b! / (N! prod n'_ab!).
    """
    counts, place = _orbits(n_atoms)
    n_orb = len(counts)
    rows, unit = np.arange(n_orb), np.eye(9, dtype=int)
    gen = np.zeros((n_orb, n_orb), dtype=complex)

    def add(coef, move):  # coef[o] at the column of counts[o] + move
        col = _orbit_index(counts, place, counts + move)
        keep = (col >= 0) & (coef != 0)
        gen[rows[keep], col[keep]] += coef[keep]

    for a, b, c in iterproduct(range(3), repeat=3):
        n_ab = counts[:, 3 * a + b]
        add(-1j * h_atom[a, c] * n_ab, unit[3 * c + b] - unit[3 * a + b])
        add(1j * h_atom[c, b] * n_ab, unit[3 * a + c] - unit[3 * a + b])
    n = counts.reshape(-1, 3, 3)
    for rate, s, d in (
        (rates.gamma_e, LEVEL_E, LEVEL_G),  # |g><e|
        (rates.gamma_r, LEVEL_R, LEVEL_E),  # |e><r|
        (rates.gamma_d, LEVEL_R, LEVEL_R),  # |r><r|
    ):
        add(rate * n[:, d, d], unit[3 * s + s] - unit[3 * d + d])
        add(-0.5 * rate * (n[:, s, :].sum(axis=1) + n[:, :, s].sum(axis=1)), 0)
    if rates.gamma_coll > 0:
        ket, bra = n.sum(axis=2), n.sum(axis=1)
        fact = np.array([factorial(k) for k in range(n_atoms + 1)], dtype=float)
        w = (fact[ket].prod(axis=1) * fact[bra].prod(axis=1)
             / (fact[-1] * fact[counts].prod(axis=1)))
        classes = np.concatenate([ket, bra], axis=1) @ place[:6]
        between = (classes[:, None] == classes) & (ket != bra).any(axis=1)[:, None]
        gen -= rates.gamma_coll * between * w
    return gen


def check_lindblad_work(
    h_atom: np.ndarray, rates: DecoherenceRates, spec: EnsembleSpec, horizon: float
) -> None:
    """Raise CapacityError when the work T * (||H||_inf + ||K||_inf), with
    H and K = sum_k Gamma_k L_k^+ L_k over the product basis, exceeds
    LINDBLAD_MAX_WORK: the generator's frequency scale times the horizon,
    which the integrator's steps follow.  Both are row sums, equal on the
    rows of one Dicke class (j, s); K is diagonal but for the projector P,
    whose rows sum to 1."""
    j, s = dicke_labels(spec.n_atoms)
    levels = np.stack([spec.n_atoms - j - s, j, s], axis=1)  # atoms in g, e, r
    onto = levels @ np.abs(h_atom - np.diag(np.diag(h_atom)))  # flips onto g, e, r
    h_rows = (np.abs(levels @ np.diag(h_atom)) + onto[:, 0] + onto[:, 1]
              + np.where(s == 0, onto[:, 2], 0.0))
    k_rows = rates.gamma_e * j + (rates.gamma_r + rates.gamma_d) * s + rates.gamma_coll
    work = horizon * (h_rows.max() + k_rows.max())
    if work > LINDBLAD_MAX_WORK:
        raise CapacityError(
            f"master-equation work T*(|H| + |K|) = {work:.3g} exceeds the cap "
            f"{LINDBLAD_MAX_WORK:g}; shorten the pulse or lower the frequencies "
            "or decay rates"
        )


def evolve_lindblad(
    h_atom: np.ndarray,
    rates: DecoherenceRates,
    spec: EnsembleSpec,
    rho0: np.ndarray,
    times,
) -> np.ndarray:
    """Integrate the master equation of the ensemble whose H sums the
    single-atom h_atom over the atoms, from the product-basis rho0, which
    must be invariant under atom exchange; returns (T, dim, dim)
    product-basis density matrices.

    DOP853 runs on the orbit coordinates (orbit_liouvillian), and each
    output is expanded to the product basis, where trace, Hermiticity and
    positivity are checked at every output time.
    """
    times = np.asarray(times, dtype=float)
    check_density_capacity(spec)
    orbits = pair_orbits(spec)
    if rho0.shape != orbits.shape:
        raise BasisError(f"rho0 shape {rho0.shape} is not over the N={spec.n_atoms} "
                         f"product basis {orbits.shape}")
    _, first = np.unique(orbits, return_index=True)
    x0 = rho0.ravel()[first].astype(complex)  # one element per orbit
    if not np.array_equal(x0[orbits], rho0):
        raise BasisError("rho0 is not invariant under atom exchange")
    check_lindblad_work(h_atom, rates, spec, float(times[-1]))
    from scipy.integrate import solve_ivp

    gen = orbit_liouvillian(h_atom, rates, spec.n_atoms)

    def rhs(_t, x):
        return gen @ x

    sol = solve_ivp(
        rhs,
        (0.0, float(times[-1])),
        x0,
        t_eval=times,
        method="DOP853",
        rtol=LINDBLAD_RTOL,
        atol=LINDBLAD_ATOL,
    )
    if not sol.success:
        raise NumericalFailure(f"master-equation integration failed: {sol.message}")
    rhos = sol.y.T[:, orbits]
    for k, rho in enumerate(rhos):
        tr = np.trace(rho).real
        if abs(tr - 1.0) > TRACE_TOL:
            raise NumericalFailure(f"trace {tr} at t={times[k]}")
        if np.max(np.abs(rho - rho.conj().T)) > HERM_TOL:
            raise NumericalFailure(f"Hermiticity violated at t={times[k]}")
        if np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min() < -POSITIVITY_TOL:
            raise NumericalFailure(f"positivity violated at t={times[k]}")
    return rhos
