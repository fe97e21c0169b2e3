"""Collective bases for N three-level atoms under perfect Rydberg blockade.

Atom-local levels are ordered g < e < r.  The blockade truncation keeps
only many-body configurations with at most one atom in r, so the product
space has dimension 2^N + N*2^(N-1) and the symmetric (Dicke) manifold
has dimension 2N+1: states |E^j R^s> with s in {0, 1} and j + s <= N.

The product basis is an integer array of atom levels, one row per
configuration in lexicographic order, so |G> is row 0.  Every product-basis
operator is built from it with array operations: single-atom flips pair
rows through their base-3 codes, and the symmetrizer groups rows by their
Dicke position.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

LEVEL_G, LEVEL_E, LEVEL_R = 0, 1, 2

# Full product-space objects grow exponentially; beyond these sizes the
# Dicke basis is the only supported representation.
N_MAX_PRODUCT_VECTOR = 8
N_MAX_PRODUCT_DENSITY = 4
# The Dicke Hamiltonian is a dense (2N+1)^2 array.  At N = 2000 (one BLAS
# thread) a rabi run peaks at 0.40 GB RSS in 0.7 s, and memory grows as
# N^2.  A jc-demo builds no Dicke H (its probe stage is in closed form, its
# coupling stage in the dressed frame) and peaks at 68 MB in 0.09 s.  The
# limit keeps the lambda = 1e3 scan-n window (N <= 1190) inside.
N_MAX_DICKE = 2000


class CapacityError(Exception):
    """Requested object exceeds the configured product-space size limits."""


class BasisError(ValueError):
    """Inadmissible basis label or incompatible basis/state combination."""


@dataclass(frozen=True)
class EnsembleSpec:
    """Perfectly blockaded ensemble of n_atoms three-level atoms."""

    n_atoms: int

    def __post_init__(self):
        if self.n_atoms < 1:
            raise ValueError(f"n_atoms must be >= 1, got {self.n_atoms}")


@dataclass(frozen=True)
class DickeIndex:
    """Label (j, s): j atoms in e, s in {0,1} atoms in r."""

    j: int
    s: int

    @property
    def n(self) -> int:
        return self.j + self.s

    def admissible(self, spec: EnsembleSpec) -> bool:
        return self.j >= 0 and self.s in (0, 1) and self.j + self.s <= spec.n_atoms


def product_dimension(n_atoms: int) -> int:
    return 2**n_atoms + n_atoms * 2 ** (n_atoms - 1)


def dicke_dimension(n_atoms: int) -> int:
    return 2 * n_atoms + 1


def product_basis(spec: EnsembleSpec) -> np.ndarray:
    """(dim, N) atom levels of every blockaded configuration.

    Rows are in lexicographic order (atom 0 most significant), so |G> is
    row 0.
    """
    n = spec.n_atoms
    if n > N_MAX_PRODUCT_VECTOR:
        raise CapacityError(
            f"product basis for N={n} exceeds limit {N_MAX_PRODUCT_VECTOR}"
        )
    levels = np.indices((3,) * n).reshape(n, -1).T
    return levels[(levels == LEVEL_R).sum(axis=1) <= 1]


def single_atom_flips(
    levels: np.ndarray, src: int, dst: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(atom, from-row, to-row) of every flip src -> dst of one atom.

    levels is a product_basis array; flips whose target holds a second r
    are absent from the basis and dropped.
    """
    n = levels.shape[1]
    place = 3 ** np.arange(n - 1, -1, -1, dtype=np.int64)  # base-3 digit weights
    codes = levels @ place
    row_of = np.full(3**n, -1)
    row_of[codes] = np.arange(len(codes))
    atom, row = np.nonzero(levels.T == src)
    to = row_of[codes[row] + (dst - src) * place[atom]]
    kept = to >= 0
    return atom[kept], row[kept], to[kept]


def permuted_rows(levels: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """Row of every configuration once atom k takes the level of atom perm[k].

    levels is a product_basis array; its base-3 codes ascend, so each
    permuted code is found by binary search.
    """
    n = levels.shape[1]
    place = 3 ** np.arange(n - 1, -1, -1, dtype=np.int64)
    return np.searchsorted(levels @ place, levels[:, perm] @ place)


def dicke_labels(n_atoms: int) -> tuple[np.ndarray, np.ndarray]:
    """(j, s) of every Dicke state as integer arrays, in the Dicke ordering."""
    k = np.arange(dicke_dimension(n_atoms))
    s = (k + 1) % 2  # even positions past |G> hold s = 1
    s[0] = 0
    return (k + 1) // 2 - s, s


def dicke_position(spec: EnsembleSpec, idx: DickeIndex) -> int:
    """Index of |E^j R^s> in the fixed Dicke ordering.

    (0,0) -> 0, (j,0) -> 2j-1 for j >= 1, (j,1) -> 2j+2.
    """
    if not idx.admissible(spec):
        raise BasisError(f"({idx.j},{idx.s}) not admissible for N={spec.n_atoms}")
    return 2 * idx.j - 1 + 3 * idx.s if idx.n else 0


def symmetrizer(spec: EnsembleSpec) -> np.ndarray:
    """Isometry (product_dim x 2N+1) whose columns are the Dicke vectors.

    Column k has equal positive amplitude on every configuration whose
    (j, s) sits at Dicke position k.
    """
    levels = product_basis(spec)
    j = (levels == LEVEL_E).sum(axis=1)
    s = (levels == LEVEL_R).sum(axis=1)
    out = np.zeros((len(levels), dicke_dimension(spec.n_atoms)))
    out[np.arange(len(levels)), np.maximum(2 * j - 1 + 3 * s, 0)] = 1.0
    return out / np.sqrt(out.sum(axis=0))
