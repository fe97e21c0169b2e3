import tracemalloc
from math import sqrt

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import effective_two_level, enumerate_dicke, product_hamiltonian
from superatom.basis import (
    N_MAX_DICKE,
    BasisError,
    CapacityError,
    DickeIndex,
    EnsembleSpec,
    dicke_dimension,
    dicke_position,
    product_basis,
    symmetrizer,
)
from superatom.hamiltonians import (
    _TWO_PLUS,
    LaserParams,
    _dicke_chain,
    _dressed_vectors,
    _low_dressed_frame,
    _two_plus_in_dicke,
    build_dicke_hamiltonian,
    build_product_hamiltonian,
    build_restricted_hamiltonian,
    dicke_to_dressed,
    resonance_probe_detuning,
    second_order_reduction,
    symmetric_block,
)
from superatom.dynamics import NumericalFailure

laser_params = st.builds(
    LaserParams,
    omega_p=st.floats(0.0, 50.0),
    omega_c=st.floats(1.0, 500.0),
    delta_p=st.floats(-200.0, 200.0),
    delta_c=st.floats(-200.0, 200.0),
)


class TestLaserParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            LaserParams(-1.0, 10.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            LaserParams(1.0, 0.0, 0.0, 0.0)

    def test_replace(self):
        p = LaserParams(1.0, 10.0, 0.0, 0.0)
        q = p.replace(delta_c=-5.0)
        assert q.delta_c == -5.0 and q.omega_c == 10.0
        with pytest.raises(ValueError):
            p.replace(omega_c=0.0)  # validated like the constructor


class TestHermiticity:
    @settings(max_examples=40, deadline=None)
    @given(laser_params, st.integers(1, 6))
    def test_product_hermitian(self, params, n):
        h = build_product_hamiltonian(params, EnsembleSpec(n))
        assert np.allclose(h, h.T, atol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(laser_params, st.integers(1, 12))
    def test_dicke_hermitian(self, params, n):
        h = build_dicke_hamiltonian(params, EnsembleSpec(n))
        assert np.allclose(h, h.T, atol=1e-12)

    def test_dicke_capacity(self):
        """Refused before the (2N+1)^2 array is allocated, and by the
        reductions, which build only its corner."""
        params = LaserParams(1.0, 10.0, 0.0, 0.0)
        with pytest.raises(CapacityError, match=f"limit {N_MAX_DICKE}"):
            build_dicke_hamiltonian(params, EnsembleSpec(10**7))
        with pytest.raises(CapacityError, match=f"limit {N_MAX_DICKE}"):
            second_order_reduction(params, EnsembleSpec(N_MAX_DICKE + 1))


class TestBasisEquivalence:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_product_matches_reference(self, n):
        """The array build equals the per-(state, atom) loop exactly."""
        params = LaserParams(1.3, 7.9, 0.6, -2.7)
        spec = EnsembleSpec(n)
        assert np.array_equal(
            build_product_hamiltonian(params, spec), product_hamiltonian(params, spec)
        )

    @settings(max_examples=25, deadline=None)
    @given(laser_params, st.integers(2, 5))
    def test_symmetrized_product_equals_dicke(self, params, n):
        """S^T H_product S = H_dicke to 1e-10 (exchange symmetry)."""
        spec = EnsembleSpec(n)
        S = symmetrizer(spec)
        hp = build_product_hamiltonian(params, spec)
        hd = build_dicke_hamiltonian(params, spec)
        assert np.max(np.abs(S.T @ hp @ S - hd)) < 1e-10

    @settings(max_examples=25, deadline=None)
    @given(laser_params, st.integers(2, 5))
    def test_symmetric_block_decouples(self, params, n):
        """H_product maps the symmetric manifold into itself."""
        spec = EnsembleSpec(n)
        S = symmetrizer(spec)
        hp = build_product_hamiltonian(params, spec)
        hs = hp @ S
        assert np.max(np.abs(hs - S @ (S.T @ hs))) < 1e-10


class TestSymmetricBlock:
    """symmetric_block checks exchange symmetry exactly, then projects."""

    @pytest.mark.parametrize("n", range(1, 9))
    def test_equals_dicke(self, n):
        params = LaserParams(1.3, 7.9, 0.6, -2.7)
        spec = EnsembleSpec(n)
        block = symmetric_block(build_product_hamiltonian(params, spec), spec)
        assert np.max(np.abs(block - build_dicke_hamiltonian(params, spec))) < 1e-12

    @staticmethod
    def product(n):
        return build_product_hamiltonian(LaserParams(1.3, 7.9, 0.6, -2.7),
                                         EnsembleSpec(n))

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    @pytest.mark.parametrize("coupled", [True, False])
    def test_one_perturbed_coupling_refused(self, n, coupled):
        """One off-diagonal pair moved by one ulp breaks the symmetry: the
        probe coupling of |G> to |g..ge>, which only the cyclic shift moves
        (N >= 3), or the zero between |G> and |re..e>, which the swap moves."""
        h = self.product(n)
        col = np.flatnonzero(h[0])[0] if coupled else np.flatnonzero(h[0] == 0)[-1]
        h[0, col] = h[col, 0] = np.nextafter(h[0, col], np.inf)
        with pytest.raises(NumericalFailure, match="atom exchange"):
            symmetric_block(h, EnsembleSpec(n))

    def test_cyclic_but_not_exchange_symmetric_refused(self):
        """A coupling added along the orbit of (|ger>, |rge>) under the
        cyclic shift alone keeps that symmetry; the swap of atoms 0 and 1
        refuses it."""
        h = self.product(3)
        levels = product_basis(EnsembleSpec(3)).tolist()
        row = {tuple(c): k for k, c in enumerate(levels)}
        a, b = (0, 1, 2), (2, 0, 1)
        for _ in range(3):
            h[row[a], row[b]] = h[row[b], row[a]] = 0.5
            a, b = a[-1:] + a[:-1], b[-1:] + b[:-1]
        with pytest.raises(NumericalFailure, match="atom exchange"):
            symmetric_block(h, EnsembleSpec(3))

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_non_symmetric_refused(self, n):
        h = self.product(n)
        col = int(np.flatnonzero(h[0])[0])
        h[0, col] = np.nextafter(h[0, col], np.inf)
        with pytest.raises(NumericalFailure, match="real-symmetric"):
            symmetric_block(h, EnsembleSpec(n))

    @pytest.mark.parametrize("change", ["complex", "nan"])
    def test_complex_or_non_finite_refused(self, change):
        h = self.product(3)
        h = h.astype(complex) if change == "complex" else h
        h[0, 0] = np.nan if change == "nan" else h[0, 0]
        with pytest.raises(NumericalFailure, match="real-symmetric"):
            symmetric_block(h, EnsembleSpec(3))

    def test_wrong_dimension_refused(self):
        with pytest.raises(BasisError):
            symmetric_block(self.product(3), EnsembleSpec(4))


def dressed_pair(params, n):
    """((E+, |n+>), (E-, |n->)) of block n from the dressed frame of N = n:
    the diagonal of u^T H u without the probe, and the columns of
    u = dicke_to_dressed on the block's positions (|E^n R^0>, |E^(n-1) R^1>)."""
    spec = EnsembleSpec(n)
    u = dicke_to_dressed(params, spec)
    h0 = build_dicke_hamiltonian(params.replace(omega_p=0.0), spec)
    energies = np.diag(u.T @ h0 @ u)
    a = 2 * n - 1
    return (energies[a], u[a:a + 2, a]), (energies[a + 1], u[a:a + 2, a + 1])


class TestDressedStates:
    @settings(max_examples=40, deadline=None)
    @given(laser_params, st.integers(1, 6))
    def test_eigen_equation(self, params, n):
        block = np.array(
            [
                [-n * params.delta_p, np.sqrt(n) * params.omega_c / 2],
                [np.sqrt(n) * params.omega_c / 2,
                 -n * params.delta_p - params.delta_c],
            ]
        )
        plus, minus = dressed_pair(params, n)
        for energy, vec in (plus, minus):
            assert np.allclose(block @ vec, energy * vec, atol=1e-8)
        assert plus[0] >= minus[0]
        assert plus[1][0] >= 0 and minus[1][0] >= 0

    def test_energies_closed_form(self):
        params = LaserParams(0.0, 40.0, 3.0, -20.0)
        _, h = _low_dressed_frame(params, EnsembleSpec(3))
        for n in (1, 2, 3):
            root = np.sqrt(params.delta_c**2 / 4 + n * params.omega_c**2 / 4)
            base = -n * params.delta_p - params.delta_c / 2
            assert h[2 * n - 1, 2 * n - 1] == pytest.approx(base + root)
            assert h[2 * n, 2 * n] == pytest.approx(base - root)

    def test_resonance_zeroes_dressed_energy(self):
        omega_c, delta_c = 100.0, -37.0
        dp = resonance_probe_detuning(omega_c, delta_c)
        params = LaserParams(0.0, omega_c, dp, delta_c)
        _, h = _low_dressed_frame(params, EnsembleSpec(2))
        assert h[_TWO_PLUS, _TWO_PLUS] == pytest.approx(0.0, abs=1e-10)

    def test_two_plus_composition_at_canonical_point(self):
        # at delta_c = -omega_c/2: |2+> = (|E^2> + sqrt(2)|ER>)/sqrt(3)
        omega_c = 80.0
        dp = resonance_probe_detuning(omega_c, -omega_c / 2)
        params = LaserParams(0.0, omega_c, dp, -omega_c / 2)
        spec = EnsembleSpec(4)
        want = np.zeros(dicke_dimension(4))
        want[dicke_position(spec, DickeIndex(2, 0))] = 1 / np.sqrt(3)
        want[dicke_position(spec, DickeIndex(1, 1))] = np.sqrt(2 / 3)
        assert np.allclose(_two_plus_in_dicke(params, spec), want, atol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(laser_params, st.integers(2, 6))
    def test_dicke_to_dressed_orthogonal(self, params, n):
        u = dicke_to_dressed(params, EnsembleSpec(n))
        assert np.allclose(u.T @ u, np.eye(u.shape[0]), atol=1e-12)

    def test_dressed_basis_diagonalizes_coupling(self):
        params = LaserParams(0.0, 60.0, 4.0, -30.0)
        spec = EnsembleSpec(4)
        u = dicke_to_dressed(params, spec)
        h = u.T @ build_dicke_hamiltonian(params, spec) @ u
        assert np.max(np.abs(h - np.diag(np.diag(h)))) < 1e-10


class TestEffectiveModel:
    @pytest.mark.parametrize("n", [2, 3, 4, 10, 100])
    def test_closed_forms(self, n):
        """The closed forms of the paper, written out, against the reduction."""
        omega_p, omega_c = 2.0, 120.0
        dp = resonance_probe_detuning(omega_c, -omega_c / 2)
        params = LaserParams(omega_p, omega_c, dp, -omega_c / 2)
        omega_eff, delta_eff = second_order_reduction(params, EnsembleSpec(n))
        assert omega_eff == pytest.approx(
            np.sqrt(2 / 3) * np.sqrt(n * (n - 1)) * omega_p**2 / omega_c
        )
        assert delta_eff == pytest.approx((2 * n - 7) / 3 * omega_p**2 / omega_c)

    @pytest.mark.parametrize("n", [3, 4, 10, 50])
    def test_numeric_reduction_matches_closed_form(self, n):
        """At delta_c=-omega_c/2 the generic second-order reduction agrees."""
        omega_p, omega_c = 1.5, 90.0
        dp = resonance_probe_detuning(omega_c, -omega_c / 2)
        params = LaserParams(omega_p, omega_c, dp, -omega_c / 2)
        want_w, want_d = effective_two_level(params, EnsembleSpec(n))
        w, d = second_order_reduction(params, EnsembleSpec(n))
        assert w == pytest.approx(want_w, rel=1e-10)
        assert d == pytest.approx(want_d, rel=1e-9, abs=1e-12)

    def test_omega_eff_scales_quadratically_in_probe(self):
        omega_c = 100.0
        dp = resonance_probe_detuning(omega_c, -omega_c / 2)
        spec = EnsembleSpec(5)
        w1, _ = second_order_reduction(
            LaserParams(1.0, omega_c, dp, -omega_c / 2), spec
        )
        w2, _ = second_order_reduction(
            LaserParams(2.0, omega_c, dp, -omega_c / 2), spec
        )
        assert w2 == pytest.approx(4 * w1, rel=1e-12)


class TestRestrictedModel:
    def test_dimensions(self):
        params = LaserParams(1.0, 50.0, 5.0, -25.0)
        h, columns = build_restricted_hamiltonian(params, EnsembleSpec(4))
        assert h.shape == (6, 6)
        assert columns.shape == (9, 6)

    def test_n2_drops_triply_excited(self):
        params = LaserParams(1.0, 50.0, 5.0, -25.0)
        h, columns = build_restricted_hamiltonian(params, EnsembleSpec(2))
        assert h.shape == (4, 4)
        assert columns.shape == (5, 4)

    def test_projection_of_full_hamiltonian(self):
        """The reduced block is exactly P H P in the dressed frame."""
        params = LaserParams(0.9, 70.0, 6.0, -35.0)
        spec = EnsembleSpec(5)
        h, columns = build_restricted_hamiltonian(params, spec)
        hd = build_dicke_hamiltonian(params, spec)
        assert np.allclose(h, columns.T @ hd @ columns, atol=1e-12)


class TestJaynesCummingsView:
    def test_vacuum_rabi_splitting(self):
        # j=0, s-sector pair |R>,|E>: coupling sqrt(1)*omega_c/2
        params = LaserParams(0.0, 24.0, 0.0, 0.0)
        plus, minus = dressed_pair(params, 1)
        assert plus[0] - minus[0] == pytest.approx(params.omega_c)


# The per-label loops that the array builds replaced, kept as references.


def _reference_positions(spec):
    return {(idx.j, idx.s): k for k, idx in enumerate(enumerate_dicke(spec))}


def reference_build_dicke_hamiltonian(params, spec):
    n_atoms = spec.n_atoms
    pos = _reference_positions(spec)
    dim = dicke_dimension(n_atoms)
    h = np.zeros((dim, dim))
    for a, idx in enumerate(enumerate_dicke(spec)):
        h[a, a] = -idx.j * params.delta_p - idx.s * (params.delta_p + params.delta_c)
        up = DickeIndex(idx.j + 1, idx.s)
        if up.admissible(spec):
            b = pos[(up.j, up.s)]
            el = params.omega_p / 2.0 * float(
                np.sqrt((idx.j + 1) * (n_atoms - idx.j - idx.s))
            )
            h[a, b] += el
            h[b, a] += el
        if idx.s == 1:
            b = pos[(idx.j + 1, 0)]
            el = params.omega_c / 2.0 * float(np.sqrt(idx.j + 1))
            h[a, b] += el
            h[b, a] += el
    return h


def reference_dressed_block(params, n):
    """(energies, eigenvector columns (minus, plus)) of one 2x2 block."""
    block = np.array(
        [
            [-n * params.delta_p, sqrt(n) * params.omega_c / 2.0],
            [sqrt(n) * params.omega_c / 2.0, -n * params.delta_p - params.delta_c],
        ]
    )
    evals, evecs = np.linalg.eigh(block)
    for col in (0, 1):
        if evecs[0, col] < 0:
            evecs[:, col] = -evecs[:, col]
    return evals, evecs


def reference_dicke_to_dressed(params, spec):
    pos = _reference_positions(spec)
    dim = dicke_dimension(spec.n_atoms)
    u = np.zeros((dim, dim))
    u[0, 0] = 1.0
    for n in range(1, spec.n_atoms + 1):
        _, evecs = reference_dressed_block(params, n)
        a, b = pos[(n, 0)], pos[(n - 1, 1)]
        u[[a, b], a] = evecs[:, 1]
        u[[a, b], b] = evecs[:, 0]
    return u


class TestArrayBuildsMatchLoops:
    """The array builds reproduce the per-label loops bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(laser_params, st.integers(1, 12))
    @example(LaserParams(1, 2, 0, 0), 4)  # integer fields: the matrix stays float
    def test_dicke_hamiltonian(self, params, n):
        spec = EnsembleSpec(n)
        assert np.array_equal(
            build_dicke_hamiltonian(params, spec),
            reference_build_dicke_hamiltonian(params, spec),
        )

    @settings(max_examples=60, deadline=None)
    @given(laser_params, st.integers(1, 12))
    def test_dicke_to_dressed(self, params, n):
        spec = EnsembleSpec(n)
        assert np.array_equal(
            dicke_to_dressed(params, spec), reference_dicke_to_dressed(params, spec)
        )

    @settings(max_examples=30, deadline=None)
    @given(laser_params, st.integers(1, 12))
    def test_dressed_block(self, params, n):
        want_energies, want_evecs = reference_dressed_block(params, n)
        energies, evecs = _dressed_vectors(params, np.array([n]))
        assert np.array_equal(energies[0], want_energies)
        assert np.array_equal(evecs[0], want_evecs)

    @settings(max_examples=30, deadline=None)
    @given(laser_params, st.integers(1, 12))
    def test_dicke_hamiltonian_is_pentadiagonal(self, params, n):
        """No nonzero beyond the second off-diagonal: what keeps
        propagate_pure's first block from |G> at 35 states."""
        h = build_dicke_hamiltonian(params, EnsembleSpec(n))
        rows, cols = np.nonzero(h)
        assert np.all(np.abs(rows - cols) <= 2)


# The full-frame reduction and restricted model that the n <= 3 frame
# replaced, kept as references.


def _reference_label_position(spec, label):
    if label == "G":
        return 0
    n, branch = int(label[:-1]), label[-1]
    if branch == "+":
        return dicke_position(spec, DickeIndex(n, 0))
    return dicke_position(spec, DickeIndex(n - 1, 1))


def reference_second_order_reduction(params, spec):
    u = dicke_to_dressed(params, spec)
    h = u.T @ build_dicke_hamiltonian(params, spec) @ u
    energies = np.diag(
        u.T @ build_dicke_hamiltonian(params.replace(omega_p=0.0), spec) @ u
    )
    i_g = 0
    i_2p = _reference_label_position(spec, "2+")
    omega_eff = 0.0
    shift_g = 0.0
    shift_2p = 0.0
    for k in range(h.shape[0]):
        if k in (i_g, i_2p):
            continue
        if abs(energies[k]) < 1e-12 * params.omega_c:
            continue
        omega_eff += 2.0 * h[i_2p, k] * h[k, i_g] / (-energies[k])
        shift_g += h[i_g, k] ** 2 / (-energies[k])
        shift_2p += h[i_2p, k] ** 2 / (-energies[k])
    return abs(omega_eff), shift_2p - shift_g


def reference_build_restricted_hamiltonian(params, spec):
    labels = ("G", "1+", "1-", "2+", "3+", "3-") if spec.n_atoms >= 3 else (
        "G", "1+", "1-", "2+")
    u = dicke_to_dressed(params, spec)
    h_dressed = u.T @ build_dicke_hamiltonian(params, spec) @ u
    cols = [_reference_label_position(spec, lab) for lab in labels]
    return labels, h_dressed[np.ix_(cols, cols)], u[:, cols]


@st.composite
def reduction_points(draw):
    """Laser parameters with delta_c either canonical (-omega_c/2, delta_p at
    the |2+> resonance) or free, and N = 2-160."""
    params = draw(laser_params)
    if draw(st.booleans()):
        delta_c = -params.omega_c / 2
        params = params.replace(
            delta_c=delta_c,
            delta_p=resonance_probe_detuning(params.omega_c, delta_c),
        )
    return params, EnsembleSpec(draw(st.integers(2, 160)))


class TestLowFrameMatchesFullFrame:
    """The n <= 3 dressed frame reproduces the full-frame products bit for bit."""

    @settings(max_examples=120, deadline=None)
    @given(reduction_points())
    @example((LaserParams(1.5, 90.0, 45.0, -45.0), EnsembleSpec(2)))
    @example((LaserParams(1.5, 90.0, 45.0, -45.0), EnsembleSpec(3)))
    @example((LaserParams(0.0, 90.0, 45.0, -45.0), EnsembleSpec(160)))
    def test_second_order_reduction(self, point):
        params, spec = point
        assert second_order_reduction(params, spec) == (
            reference_second_order_reduction(params, spec)
        )

    @settings(max_examples=80, deadline=None)
    @given(reduction_points())
    @example((LaserParams(1.5, 90.0, 45.0, -45.0), EnsembleSpec(2)))
    @example((LaserParams(1.5, 90.0, 45.0, -45.0), EnsembleSpec(3)))
    def test_restricted_hamiltonian(self, point):
        params, spec = point
        _, want_h, want_columns = reference_build_restricted_hamiltonian(
            params, spec)
        h, columns = build_restricted_hamiltonian(params, spec)
        assert np.array_equal(h, want_h)
        assert np.array_equal(columns, want_columns)


class TestDickeCorner:
    """The reductions build only the n <= 3 corner of the Dicke chain."""

    @pytest.mark.parametrize("n", [2, 3, 4, 50, 2000])
    @pytest.mark.parametrize(
        "params", [LaserParams(1.3, 7.9, 0.6, -2.7), LaserParams(1, 2, 0, 0)]
    )
    def test_corner_is_the_leading_block(self, params, n):
        m = dicke_dimension(min(n, 3))
        assert np.array_equal(
            _dicke_chain(params, n, min(n, 3)),
            build_dicke_hamiltonian(params, EnsembleSpec(n))[:m, :m],
        )

    @pytest.mark.parametrize(
        "reduce", [second_order_reduction, build_restricted_hamiltonian]
    )
    def test_reduction_memory_at_the_dicke_limit(self, reduce):
        """At N = N_MAX_DICKE = 2000 no reduction allocates the 128 MB
        (2N+1)^2 Dicke H."""
        omega_c = 90.0
        dp = resonance_probe_detuning(omega_c, -omega_c / 2)
        params = LaserParams(1.5, omega_c, dp, -omega_c / 2)
        spec = EnsembleSpec(N_MAX_DICKE)
        reduce(params, spec)  # first call outside the trace
        tracemalloc.start()
        try:
            reduce(params, spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2e6
