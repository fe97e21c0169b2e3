import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import ProductBasis, dicke_matrix, dicke_vector, enumerate_dicke
from oracles import symmetrizer as reference_symmetrizer
from superatom.basis import (
    LEVEL_E,
    LEVEL_G,
    LEVEL_R,
    BasisError,
    CapacityError,
    DickeIndex,
    EnsembleSpec,
    dicke_dimension,
    dicke_labels,
    dicke_position,
    product_basis,
    product_dimension,
    symmetrizer,
)
from superatom.hamiltonians import LaserParams


def brute_force_count(n):
    """Count blockaded configurations by direct enumeration."""
    from itertools import product

    return sum(1 for c in product((0, 1, 2), repeat=n) if c.count(2) <= 1)


class TestDimensions:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_product_dimension_formula(self, n):
        assert product_dimension(n) == brute_force_count(n)
        assert product_basis(EnsembleSpec(n)).shape == (product_dimension(n), n)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_dicke_dimension(self, n):
        assert dicke_dimension(n) == 2 * n + 1
        assert len(enumerate_dicke(EnsembleSpec(n))) == 2 * n + 1

    def test_capacity_limit(self):
        with pytest.raises(CapacityError):
            product_basis(EnsembleSpec(9))


class TestQuantumState:
    """Validation of the ensemble specification that every state is built on."""

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            EnsembleSpec(0)
        with pytest.raises(ValueError):
            EnsembleSpec(-3)


class TestEnumeration:
    def test_ordering_ascending_n_then_s(self):
        idxs = enumerate_dicke(EnsembleSpec(4))
        keys = [(i.n, i.s) for i in idxs]
        assert keys == sorted(keys)
        assert idxs[0] == DickeIndex(0, 0)  # |G>
        assert idxs[-1].n == 4

    def test_position_roundtrip(self):
        spec = EnsembleSpec(5)
        for k, idx in enumerate(enumerate_dicke(spec)):
            assert dicke_position(spec, idx) == k

    @pytest.mark.parametrize("n", range(1, 9))
    def test_label_arrays_match_enumeration(self, n):
        j, s = dicke_labels(n)
        idxs = enumerate_dicke(EnsembleSpec(n))
        assert list(zip(j.tolist(), s.tolist())) == [(i.j, i.s) for i in idxs]

    def test_inadmissible_raises(self):
        spec = EnsembleSpec(3)
        with pytest.raises(BasisError):
            dicke_position(spec, DickeIndex(4, 0))
        with pytest.raises(BasisError):
            dicke_position(spec, DickeIndex(3, 1))

    @given(st.integers(1, 8), st.integers(0, 8), st.integers(0, 1))
    def test_admissibility_predicate(self, n, j, s):
        idx = DickeIndex(j, s)
        assert idx.admissible(EnsembleSpec(n)) == (j + s <= n)


class TestDickeVectors:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_orthonormal(self, n):
        S = symmetrizer(EnsembleSpec(n))
        assert np.allclose(S.T @ S, np.eye(S.shape[1]), atol=1e-12)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_permutation_invariance(self, n):
        """Symmetrized vectors are unchanged under any atom relabeling."""
        spec = EnsembleSpec(n)
        pb = ProductBasis(spec)
        rng = np.random.default_rng(n)
        perm = rng.permutation(n)
        P = np.zeros((pb.dim, pb.dim))
        for i, c in enumerate(pb.states):
            P[pb.index[tuple(c[p] for p in perm)], i] = 1.0
        S = symmetrizer(spec)
        assert np.allclose(P @ S, S, atol=1e-12)

    def test_ground_state_is_all_g(self):
        spec = EnsembleSpec(4)
        pb = ProductBasis(spec)
        v = symmetrizer(spec)[:, dicke_position(spec, DickeIndex(0, 0))]
        assert v[pb.index[(LEVEL_G,) * 4]] == 1.0
        assert np.count_nonzero(v) == 1

    def test_er_state_amplitudes(self):
        # |ER> for N=2: equal weight on (e,r) and (r,e)
        spec = EnsembleSpec(2)
        pb = ProductBasis(spec)
        v = symmetrizer(spec)[:, dicke_position(spec, DickeIndex(1, 1))]
        nz = {c for c in pb.states if abs(v[pb.index[c]]) > 0}
        assert nz == {(LEVEL_E, LEVEL_R), (LEVEL_R, LEVEL_E)}
        assert np.allclose(v[v != 0], 1 / np.sqrt(2))


class TestProductArrays:
    """The array-built product basis against the tuple enumeration."""

    @pytest.mark.parametrize("n", range(1, 9))
    def test_levels_match_reference(self, n):
        spec = EnsembleSpec(n)
        assert np.array_equal(product_basis(spec), ProductBasis(spec).states)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_ground_state_is_row_zero(self, n):
        spec = EnsembleSpec(n)
        assert not product_basis(spec)[0].any()
        assert ProductBasis(spec).index[(LEVEL_G,) * n] == 0

    @pytest.mark.parametrize("n", range(1, 9))
    def test_symmetrizer_matches_reference(self, n):
        spec = EnsembleSpec(n)
        assert np.array_equal(symmetrizer(spec), reference_symmetrizer(spec))


def brute_force_matrix_element(spec, j, s, transition):
    """<target| sum_k raise_k |E^j R^s> by explicit operator construction."""
    pb = ProductBasis(spec)
    src, dst = (LEVEL_G, LEVEL_E) if transition == "ge" else (LEVEL_R, LEVEL_E)
    op = np.zeros((pb.dim, pb.dim))
    for i, c in enumerate(pb.states):
        for k in range(spec.n_atoms):
            if c[k] == src:
                t = c[:k] + (dst,) + c[k + 1 :]
                if t.count(LEVEL_R) <= 1:
                    op[pb.index[t], i] += 1.0
    tgt = (
        DickeIndex(j + 1, s) if transition == "ge" else DickeIndex(j + 1, 0)
    )
    if not DickeIndex(j, s).admissible(spec) or not tgt.admissible(spec):
        return 0.0
    ket = dicke_vector(spec, DickeIndex(j, s))
    bra = dicke_vector(spec, tgt)
    return float(bra @ op @ ket)


# With Omega_p = Omega_c = 2 and no detuning, the off-diagonals of the Dicke
# Hamiltonian are the collective raising elements themselves.
UNIT_DRIVE = LaserParams(2.0, 2.0, 0.0, 0.0)


def hamiltonian_element(spec, j, s, transition):
    """<target| sum_k raise_k |E^j R^s> read off the built Dicke Hamiltonian."""
    tgt = DickeIndex(j + 1, s) if transition == "ge" else DickeIndex(j + 1, 0)
    if not DickeIndex(j, s).admissible(spec) or not tgt.admissible(spec):
        return 0.0
    h = dicke_matrix(UNIT_DRIVE, spec)
    return h[dicke_position(spec, tgt), dicke_position(spec, DickeIndex(j, s))]


class TestCollectiveMatrixElements:
    @pytest.mark.parametrize("n", range(2, 7))
    def test_ge_vs_brute_force(self, n):
        spec = EnsembleSpec(n)
        for s in (0, 1):
            for j in range(n + 1):
                got = hamiltonian_element(spec, j, s, "ge")
                want = brute_force_matrix_element(spec, j, s, "ge")
                assert got == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_er_vs_brute_force(self, n):
        spec = EnsembleSpec(n)
        for j in range(n):
            got = hamiltonian_element(spec, j, 1, "er")
            want = brute_force_matrix_element(spec, j, 1, "er")
            assert got == pytest.approx(want, abs=1e-12)

    def test_closed_forms(self):
        spec = EnsembleSpec(5)
        assert hamiltonian_element(spec, 2, 0, "ge") == pytest.approx(np.sqrt(3 * 3))
        assert hamiltonian_element(spec, 2, 1, "er") == pytest.approx(np.sqrt(3))

    def test_blocked_transitions_vanish(self):
        """Only admissible labels couple: no probe step into a second
        Rydberg excitation or past N excitations."""
        spec = EnsembleSpec(3)
        pos = {(i.j, i.s): k for k, i in enumerate(enumerate_dicke(spec))}
        allowed = {
            tuple(sorted((k, pos[tgt])))
            for (j, s), k in pos.items()
            for tgt in [(j + 1, s)] + [(j + 1, 0)] * s
            if tgt in pos
        }
        h = dicke_matrix(UNIT_DRIVE, spec)
        rows, cols = np.nonzero(np.triu(h, 1))
        assert set(zip(rows.tolist(), cols.tolist())) == allowed
