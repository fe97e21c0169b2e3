"""Closed forms, solvers and per-state builders that the package no longer
uses, kept as test oracles."""

from itertools import product as iterproduct
from math import comb, isfinite, sin, sqrt

import numpy as np
from scipy.linalg import eig_banded

from superatom.basis import (
    LEVEL_E,
    LEVEL_G,
    LEVEL_R,
    BasisError,
    DickeIndex,
    EnsembleSpec,
)
from superatom.dynamics import propagate_pure
from superatom.hamiltonians import LaserParams, build_dicke_hamiltonian


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


def collapse_revival_p_ryd(n_atoms, omega_p, omega_c, probe_pulse_time, times):
    """Closed-form Rydberg population of the two-stage collapse-revival demo
    at delta_c = 0 (Eberly, Narozhny & Sanchez-Mondragon, PRL 44, 1323 (1980)).

    The resonant probe pulse leaves each atom in e with probability
    p = sin^2(omega_p t_1 / 2), so |E^j> holds the binomial weight
    P_j = C(N, j) p^j (1 - p)^(N - j); the coupling laser then flops block j
    between |E^j> and |E^{j-1}R> at sqrt(j)*omega_c:
    p_ryd(t) = sum_j P_j sin^2(sqrt(j) omega_c t / 2).
    """
    p = sin(omega_p * probe_pulse_time / 2) ** 2
    j = np.arange(n_atoms + 1)
    weights = np.array([comb(n_atoms, k) * p**k * (1 - p) ** (n_atoms - k) for k in j])
    t = np.asarray(times, dtype=float)[:, None]
    return (weights * np.sin(np.sqrt(j) * omega_c * t / 2) ** 2).sum(axis=1)


def probe_stage_state(n_atoms, omega_p, probe_pulse_time):
    """Dicke amplitudes after the collapse-revival demo's probe stage,
    through propagate_pure on the probe-only Dicke H from |G>: the path the
    demo took before its closed form.  LaserParams refuses omega_c = 0, so
    the coupling is a 1e-12 stand-in, which moves up to about
    1e-12 * sqrt(N) * t1 / 2 of amplitude into the |E^{j-1}R> states."""
    h1 = build_dicke_hamiltonian(
        LaserParams(omega_p, 1e-12, 0.0, 0.0), EnsembleSpec(n_atoms)
    )
    psi0 = np.zeros(h1.shape[0], dtype=complex)
    psi0[0] = 1.0
    return propagate_pure(h1, psi0, [probe_pulse_time])[0]


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


# The tuple/dict product basis and the per-(state, atom) loops that the
# array builds of basis, hamiltonians and dynamics replaced.


class ProductBasis:
    """Blockaded configurations as tuples over {0,1,2} (g,e,r) with at most
    one 2, ordered lexicographically, and their tuple -> index dict."""

    def __init__(self, spec):
        self.states = [
            c
            for c in iterproduct((0, 1, 2), repeat=spec.n_atoms)
            if c.count(LEVEL_R) <= 1
        ]
        self.index = {c: i for i, c in enumerate(self.states)}
        self.dim = len(self.states)

    def excitation_counts(self):
        """(dim, 2) array of (j, s) per configuration."""
        out = np.empty((self.dim, 2), dtype=int)
        for i, c in enumerate(self.states):
            out[i, 0] = c.count(LEVEL_E)
            out[i, 1] = c.count(LEVEL_R)
        return out


def enumerate_dicke(spec):
    """All admissible (j, s), ascending in n = j + s, then s. Count 2N+1."""
    out = []
    for n in range(spec.n_atoms + 1):
        for s in (0, 1):
            j = n - s
            if j >= 0:
                out.append(DickeIndex(j, s))
    return out


def dicke_vector(spec, idx):
    """|E^j R^s> as a product-basis vector: equal positive amplitude on every
    configuration with j atoms in e and s in r, normalized numerically."""
    if not idx.admissible(spec):
        raise BasisError(f"({idx.j},{idx.s}) not admissible for N={spec.n_atoms}")
    counts = ProductBasis(spec).excitation_counts()
    vec = ((counts[:, 0] == idx.j) & (counts[:, 1] == idx.s)).astype(float)
    return vec / np.linalg.norm(vec)


def symmetrizer(spec):
    """The Dicke vectors as columns, in the Dicke ordering."""
    return np.column_stack([dicke_vector(spec, idx) for idx in enumerate_dicke(spec)])


def product_hamiltonian(params, spec):
    """The product-basis Hamiltonian, one (state, atom) flip at a time."""
    pb = ProductBasis(spec)
    counts = pb.excitation_counts()
    h = np.zeros((pb.dim, pb.dim))
    diag = -counts[:, 0] * params.delta_p - counts[:, 1] * (
        params.delta_p + params.delta_c
    )
    np.fill_diagonal(h, diag)
    for i, c in enumerate(pb.states):
        for k in range(spec.n_atoms):
            if c[k] == LEVEL_G:
                flipped = c[:k] + (LEVEL_E,) + c[k + 1 :]
                h[i, pb.index[flipped]] += params.omega_p / 2.0
            elif c[k] == LEVEL_E:
                flipped_g = c[:k] + (LEVEL_G,) + c[k + 1 :]
                h[i, pb.index[flipped_g]] += params.omega_p / 2.0
                flipped_r = c[:k] + (LEVEL_R,) + c[k + 1 :]
                if flipped_r in pb.index:
                    h[i, pb.index[flipped_r]] += params.omega_c / 2.0
            else:  # LEVEL_R
                flipped_e = c[:k] + (LEVEL_E,) + c[k + 1 :]
                h[i, pb.index[flipped_e]] += params.omega_c / 2.0
    return h


def jump_operators(rates, spec):
    """(rate, matrix) jump operators, one (state, atom) flip at a time."""
    ops = []
    pb = ProductBasis(spec)
    single = {
        "gamma_e": (LEVEL_E, LEVEL_G),  # |g><e|
        "gamma_r": (LEVEL_R, LEVEL_E),  # |e><r|
        "gamma_d": (LEVEL_R, LEVEL_R),  # |r><r|
    }
    for name, (src, dst) in single.items():
        rate = getattr(rates, name)
        if rate <= 0:
            continue
        for k in range(spec.n_atoms):
            op = np.zeros((pb.dim, pb.dim))
            for i, c in enumerate(pb.states):
                if c[k] == src:
                    target = c[:k] + (dst,) + c[k + 1 :]
                    op[pb.index[target], i] = 1.0
            ops.append((rate, op))
    if rates.gamma_coll > 0:
        S = symmetrizer(spec)
        for col in range(S.shape[1]):
            v = S[:, col]
            ops.append((rates.gamma_coll, np.outer(v, v)))
    return ops


def _csv_cell(x) -> str:
    """One CSV cell: an undefined value (None or NaN) empty, an integer in
    full, any other number with 12 significant digits."""
    if x is None:
        return ""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    x = float(x)
    if not isfinite(x):
        return "inf" if x > 0 else ("-inf" if x < 0 else "")
    return f"{x:.12g}"


def csv_line(row) -> str:
    """One CSV row formatted cell by cell, the CLI's former writer."""
    return ",".join(_csv_cell(v) for v in row) + "\n"
