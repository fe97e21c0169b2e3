"""Driven three-level ensemble Hamiltonians and dressed-state constructions.

All frequencies and energies are angular (rad/us) internally.  User-facing
constructors accept ordinary frequencies nu = Omega/2pi in MHz, matching the
usual experimental "Omega/2pi = 10 MHz" convention.

In the rotating frame the single-atom diagonal is (0, -delta_p,
-delta_p - delta_c) for (g, e, r); the probe couples g-e with Omega_p/2 and
the coupling laser couples e-r with Omega_c/2.  Under perfect blockade the
coupling laser splits into 2x2 blocks between |E^n R^0> and |E^{n-1} R^1>;
diagonalizing those blocks gives the dressed states |n+->.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from math import pi, sqrt

import numpy as np

from .basis import (
    LEVEL_E,
    LEVEL_G,
    LEVEL_R,
    N_MAX_DICKE,
    BasisError,
    CapacityError,
    EnsembleSpec,
    dicke_dimension,
    dicke_labels,
    permuted_rows,
    product_basis,
    single_atom_flips,
    symmetrizer,
)
from .dynamics import NumericalFailure, leading_block

TWO_PI = 2.0 * pi


@dataclass(frozen=True)
class LaserParams:
    """Probe/coupling Rabi frequencies and detunings, angular rad/us."""

    omega_p: float
    omega_c: float
    delta_p: float
    delta_c: float

    def __post_init__(self):
        if self.omega_p < 0:
            raise ValueError("omega_p must be >= 0")
        if self.omega_c <= 0:
            raise ValueError("omega_c must be > 0")

    def replace(self, **kw) -> "LaserParams":
        return dataclasses.replace(self, **kw)


def build_product_hamiltonian(params: LaserParams, spec: EnsembleSpec) -> np.ndarray:
    """Hamiltonian over the blockade-truncated product basis.

    Diagonal of a configuration with j atoms in e and s in r is
    -j*delta_p - s*(delta_p + delta_c); off-diagonals are Omega_p/2 per
    single-atom g<->e flip and Omega_c/2 per e<->r flip.  Couplings into
    doubly-Rydberg states are absent by construction of the basis.
    """
    levels = product_basis(spec)
    j = (levels == LEVEL_E).sum(axis=1)
    s = (levels == LEVEL_R).sum(axis=1)
    h = np.zeros((len(levels),) * 2)
    np.fill_diagonal(h, -j * params.delta_p - s * (params.delta_p + params.delta_c))
    for src, dst, el in (
        (LEVEL_G, LEVEL_E, params.omega_p / 2.0),
        (LEVEL_E, LEVEL_R, params.omega_c / 2.0),
    ):
        _, rows, cols = single_atom_flips(levels, src, dst)
        h[rows, cols] = el
        h[cols, rows] = el
    return h


def single_atom_hamiltonian(params: LaserParams) -> np.ndarray:
    """3 x 3 Hamiltonian of one atom over (g, e, r).  The product-basis
    Hamiltonian is its sum over the atoms without the flips onto a second
    r; the master equation builds its generator from it."""
    h = np.diag([0.0, -params.delta_p, -params.delta_p - params.delta_c])
    h[0, 1] = h[1, 0] = params.omega_p / 2.0
    h[1, 2] = h[2, 1] = params.omega_c / 2.0
    return h


def symmetric_block(h: np.ndarray, spec: EnsembleSpec) -> np.ndarray:
    """S^T H S on the 2N+1 Dicke states (S = symmetrizer(spec)) of a
    product-basis Hamiltonian that is exactly exchange-symmetric.

    H must be real-symmetric and unchanged, bit for bit, by the two
    generators of atom exchange: swapping atoms 0 and 1, and a cyclic
    shift of the atoms.  Then span(S) is invariant under H, so
    exp(-iHt) S x = S exp(-i S^T H S t) x exactly.  Raises
    NumericalFailure otherwise (a non-finite H fails the first check).
    """
    levels = product_basis(spec)
    if h.shape != (len(levels),) * 2:
        raise BasisError(f"H {h.shape} is not over the N={spec.n_atoms} product basis")
    # Only the nonzero entries are compared: a bijection of the positions
    # that maps each of them onto an equal entry maps the nonzero pattern
    # onto itself, and so the zeros onto zeros.
    rows, cols = np.divmod(np.flatnonzero(h != 0), len(levels))
    vals = h[rows, cols]
    if not (np.isrealobj(h) and np.array_equal(h[cols, rows], vals)):
        raise NumericalFailure("product Hamiltonian is not real-symmetric")
    swap = np.arange(spec.n_atoms)
    swap[:2] = swap[:2][::-1]  # atoms 0 and 1 (none to swap at N = 1)
    for perm in (swap, np.roll(np.arange(spec.n_atoms), 1)):
        moved = permuted_rows(levels, perm)
        if not np.array_equal(h[moved[rows], moved[cols]], vals):
            raise NumericalFailure(
                "product Hamiltonian is not invariant under atom exchange"
            )
    s = symmetrizer(spec)
    return s.T @ h @ s


def build_dicke_hamiltonian(
    params: LaserParams, spec: EnsembleSpec, positions: int | None = None
) -> np.ndarray:
    """Lower bands (3, 2N+1) of the Hamiltonian over the 2N+1 symmetric
    Dicke states: row d holds H[i+d, i], as dynamics.propagate_pure takes it.
    With positions, only the first min(positions, 2N+1) columns, built at a
    cost that does not grow with N.

    Probe couplings are collectively enhanced:
    (Omega_p/2)*sqrt((j+1)(N-j-s)) within each s sector; the coupling
    laser links |E^{j+1} R^0> and |E^j R^1> with (Omega_c/2)*sqrt(j+1).
    In the Dicke ordering every coupling lies within two places of the
    diagonal, so the matrix is pentadiagonal.
    """
    n = spec.n_atoms
    if n > N_MAX_DICKE:
        raise CapacityError(f"Dicke basis for N={n} exceeds limit {N_MAX_DICKE}")
    # A position's label and couplings do not depend on the positions after
    # it, so the chain of excitations j < k holds every column below 2k - 1.
    k = n if positions is None else min(n, positions // 2 + 1)
    j, s = dicke_labels(k)
    bands = np.zeros((3, dicke_dimension(k)))
    bands[0] = -j * params.delta_p - s * (params.delta_p + params.delta_c)
    j0 = np.arange(k)
    j1 = j0[:-1]
    up = 2 * j0 + 1  # position of |E^{j+1} R^0>; |E^j R^1> is next
    probe = params.omega_p / 2.0 * np.sqrt((j0 + 1) * (n - j0))  # in s = 0
    bands[1, 0] = probe[0]  # from |G>
    bands[1, up] = params.omega_c / 2.0 * np.sqrt(j0 + 1)
    bands[2, up[:-1]] = probe[1:]
    bands[2, up[:-1] + 1] = params.omega_p / 2.0 * np.sqrt((j1 + 1) * (n - j1 - 1))
    return bands if positions is None else bands[:, :positions]


def resonance_probe_detuning(omega_c: float, delta_c: float) -> float:
    """Probe detuning that tunes the dressed state |2+> to zero energy.

    E(2, +) = -2*delta_p - delta_c/2 + sqrt(delta_c^2/4 + 2*omega_c^2/4),
    so E = 0 at delta_p = (-delta_c/2 + sqrt(delta_c^2/4 + omega_c^2/2))/2.
    """
    if omega_c <= 0:
        raise ValueError("omega_c must be > 0")
    root = sqrt(delta_c**2 / 4.0 + 2 * omega_c**2 / 4.0)
    return (-delta_c / 2.0 + root) / 2


def dicke_to_dressed(params: LaserParams, spec: EnsembleSpec) -> np.ndarray:
    """Orthogonal matrix whose columns are the dressed states in Dicke order.

    Column ordering mirrors the Dicke ordering: |G>, then per excitation
    number n the "+" branch in the (n, 0) slot and the "-" branch in the
    (n-1, 1) slot, which is the next position.  Block n is the coupling
    laser's 2x2 block on (|E^n R^0>, |E^{n-1} R^1>), with diagonal
    (-n*delta_p, -n*delta_p - delta_c) and off-diagonal sqrt(n)*Omega_c/2;
    one batched eigh diagonalizes every block, and each vector is signed so
    that its |E^n> component is >= 0.
    """
    n = np.arange(1, spec.n_atoms + 1)
    off = np.sqrt(n) * params.omega_c / 2.0
    blocks = np.empty((len(n), 2, 2))
    blocks[:, 0, 0] = -n * params.delta_p
    blocks[:, 0, 1] = off
    blocks[:, 1, 0] = off
    blocks[:, 1, 1] = -n * params.delta_p - params.delta_c
    _, evecs = np.linalg.eigh(blocks)  # columns (minus, plus), ascending
    evecs *= np.where(evecs[:, :1, :] < 0, -1.0, 1.0)
    a = 2 * n - 1  # position of |E^n R^0>
    u = np.zeros((dicke_dimension(spec.n_atoms),) * 2)
    u[0, 0] = 1.0
    u[a, a] = evecs[:, 0, 1]
    u[a + 1, a] = evecs[:, 1, 1]
    u[a, a + 1] = evecs[:, 0, 0]
    u[a + 1, a + 1] = evecs[:, 1, 0]
    return u


# Columns of dicke_to_dressed holding the restricted model's states
# G, 1+, 1-, 2+, 3+, 3-: |n+> sits at the position of |E^n R^0> and |n->
# at that of |E^(n-1) R^1>.
RESTRICTED_POSITIONS = (0, 1, 2, 3, 5, 6)
_TWO_PLUS = 3


def _two_plus_in_dicke(params: LaserParams, spec: EnsembleSpec) -> np.ndarray:
    """|2+> in the Dicke basis (N >= 2): column _TWO_PLUS of the dressed
    frame."""
    vec = np.zeros(dicke_dimension(spec.n_atoms))
    vec[:5] = dicke_to_dressed(params, EnsembleSpec(2))[:, _TWO_PLUS]
    return vec


def _low_dressed_frame(
    params: LaserParams, spec: EnsembleSpec
) -> tuple[np.ndarray, np.ndarray]:
    """(u, u^T H u) on the dressed states with n <= 3, the first
    min(7, 2N+1) Dicke positions.

    u is block-diagonal in n and its blocks do not depend on N, so this is
    the leading block of the full dressed-frame Hamiltonian; H is built and
    made dense on those positions only.  Only the n = 1 and n = 3 states are
    one probe step from |G> or |2+>.
    """
    u = dicke_to_dressed(params, EnsembleSpec(min(spec.n_atoms, 3)))
    h = leading_block(build_dicke_hamiltonian(params, spec, len(u)), len(u))
    return u, u.T @ h @ u


def build_restricted_hamiltonian(
    params: LaserParams, spec: EnsembleSpec
) -> tuple[np.ndarray, np.ndarray]:
    """(h, columns): the dressed-basis Hamiltonian restricted to
    {G, 1+, 1-, 2+, 3+, 3-}, and the Dicke amplitudes (2N+1, 6) of those
    states as columns.

    For N = 2 the n = 3 states are absent and are dropped.
    """
    if spec.n_atoms < 2:
        raise BasisError("restricted model needs N >= 2")
    u, h = _low_dressed_frame(params, spec)
    cols = [k for k in RESTRICTED_POSITIONS if k < len(u)]
    columns = np.zeros((dicke_dimension(spec.n_atoms), len(cols)))
    columns[: len(u)] = u[:, cols]
    return h[np.ix_(cols, cols)], columns


def second_order_reduction(
    params: LaserParams, spec: EnsembleSpec
) -> tuple[float, float]:
    """Second-order reduction to {|G>, |2+>} at arbitrary delta_c.

    Assumes delta_p is at (or near) the |2+> resonance so that |G> and |2+>
    are quasi-degenerate at zero energy.  Returns (omega_eff, delta_eff):
    the magnitude of the second-order Rabi coupling and the level shift of
    |2+> minus that of |G>, both from the off-resonant dressed states.
    The probe has no diagonal element in the dressed frame, so the
    dressed energies are the diagonal of h.
    """
    if spec.n_atoms < 2:
        raise BasisError("reduction needs N >= 2")
    _, h = _low_dressed_frame(params, spec)
    energies = np.diag(h)
    omega_eff = 0.0
    shift_g = 0.0
    shift_2p = 0.0
    for k in range(h.shape[0]):
        if k in (0, _TWO_PLUS):
            continue
        if abs(energies[k]) < 1e-12 * params.omega_c:
            continue  # accidental degeneracy; excluded from scans
        omega_eff += 2.0 * h[_TWO_PLUS, k] * h[k, 0] / (-energies[k])
        shift_g += h[0, k] ** 2 / (-energies[k])
        shift_2p += h[_TWO_PLUS, k] ** 2 / (-energies[k])
    return abs(omega_eff), shift_2p - shift_g
