"""Closed forms and solvers that the package no longer uses, kept as test
oracles."""

from math import sqrt

import numpy as np
from scipy.linalg import eig_banded


def effective_two_level(params, spec):
    """(omega_eff, delta_eff) of the adiabatic elimination at delta_c = -omega_c/2.

    Omega_eff = sqrt(2/3)*sqrt(N(N-1))*omega_p^2/omega_c and
    Delta_eff = (2N-7)/3 * omega_p^2/omega_c.  These forms hold only at
    delta_c = -omega_c/2, where |2+> = (|E^2> + sqrt(2)|ER>)/sqrt(3).
    """
    if abs(params.delta_c + params.omega_c / 2.0) > 1e-9 * params.omega_c:
        raise ValueError("the closed forms need delta_c = -omega_c/2")
    n = spec.n_atoms
    omega_eff = sqrt(2.0 / 3.0) * sqrt(n * (n - 1)) * params.omega_p**2 / params.omega_c
    delta_eff = (2 * n - 7) / 3.0 * params.omega_p**2 / params.omega_c
    return omega_eff, delta_eff


def eigh_banded(h):
    """eigh of a Hermitian matrix with no nonzero above its second
    superdiagonal, through LAPACK's banded solver: the whole-chain
    eigendecomposition that propagate_pure used before its leading block."""
    dim = h.shape[0]
    u = min(2, dim - 1)  # eig_banded needs u < dim
    ab = np.zeros((u + 1, dim), dtype=h.dtype)
    for k in range(u + 1):
        ab[u - k, k:] = np.diagonal(h, k)
    return eig_banded(ab, check_finite=False)


def whole_chain_states(h, psi0, times):
    """(T, dim) spectral sum over every eigenvector of the banded H."""
    evals, evecs = eigh_banded(h)
    c0 = evecs.conj().T @ psi0
    return (np.exp(-1j * np.outer(times, evals)) * c0) @ evecs.T
