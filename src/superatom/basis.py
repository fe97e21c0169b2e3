"""Collective bases for N three-level atoms under perfect Rydberg blockade.

Atom-local levels are ordered g < e < r.  The blockade truncation keeps
only many-body configurations with at most one atom in r, so the product
space has dimension 2^N + N*2^(N-1) and the symmetric (Dicke) manifold
has dimension 2N+1: states |E^j R^s> with s in {0, 1} and j + s <= N.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product as iterproduct

import numpy as np

LEVEL_G, LEVEL_E, LEVEL_R = 0, 1, 2

# Full product-space objects grow exponentially; beyond these sizes the
# Dicke basis is the only supported representation.
N_MAX_PRODUCT_VECTOR = 8
N_MAX_PRODUCT_DENSITY = 4


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


class ProductBasis:
    """Deterministic enumeration of blockaded product configurations.

    Configurations are tuples over {0,1,2} (g,e,r) with at most one 2,
    ordered lexicographically.
    """

    def __init__(self, spec: EnsembleSpec, max_atoms: int = N_MAX_PRODUCT_VECTOR):
        if spec.n_atoms > max_atoms:
            raise CapacityError(
                f"product basis for N={spec.n_atoms} exceeds limit {max_atoms}"
            )
        self.spec = spec
        self.states = [
            c
            for c in iterproduct((0, 1, 2), repeat=spec.n_atoms)
            if c.count(LEVEL_R) <= 1
        ]
        self.index = {c: i for i, c in enumerate(self.states)}
        self.dim = len(self.states)
        assert self.dim == product_dimension(spec.n_atoms)

    def excitation_counts(self) -> np.ndarray:
        """(dim, 2) array of (j, s) per configuration."""
        out = np.empty((self.dim, 2), dtype=int)
        for i, c in enumerate(self.states):
            out[i, 0] = c.count(LEVEL_E)
            out[i, 1] = c.count(LEVEL_R)
        return out


@lru_cache(maxsize=32)
def _cached_product_basis(n_atoms: int) -> ProductBasis:
    return ProductBasis(EnsembleSpec(n_atoms))


def product_basis(spec: EnsembleSpec) -> ProductBasis:
    return _cached_product_basis(spec.n_atoms)


def enumerate_dicke(spec: EnsembleSpec) -> list[DickeIndex]:
    """All admissible (j, s), ascending in n = j + s, then s. Count 2N+1."""
    out = []
    for n in range(spec.n_atoms + 1):
        for s in (0, 1):
            j = n - s
            if j >= 0:
                out.append(DickeIndex(j, s))
    return out


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


def dicke_vector(spec: EnsembleSpec, idx: DickeIndex) -> np.ndarray:
    """|E^j R^s> as a product-basis vector.

    Built by explicit symmetrization: equal positive amplitude on every
    configuration with j atoms in e and s in r, normalized numerically.
    (The closed-form normalization printed alongside the symmetrized
    definition does not reduce to the expected limits; the uniform
    superposition is unambiguous, so we normalize from the construction.)
    """
    if not idx.admissible(spec):
        raise BasisError(f"({idx.j},{idx.s}) not admissible for N={spec.n_atoms}")
    pb = product_basis(spec)
    counts = pb.excitation_counts()
    mask = (counts[:, 0] == idx.j) & (counts[:, 1] == idx.s)
    vec = np.zeros(pb.dim)
    vec[mask] = 1.0
    return vec / np.linalg.norm(vec)


@lru_cache(maxsize=32)
def _cached_symmetrizer(n_atoms: int) -> np.ndarray:
    spec = EnsembleSpec(n_atoms)
    cols = [dicke_vector(spec, idx) for idx in enumerate_dicke(spec)]
    return np.column_stack(cols)


def symmetrizer(spec: EnsembleSpec) -> np.ndarray:
    """Isometry (product_dim x 2N+1) whose columns are the Dicke vectors."""
    return _cached_symmetrizer(spec.n_atoms)
