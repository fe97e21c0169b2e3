import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

import superatom.dynamics
from oracles import ProductBasis, jump_operators, whole_chain_states
from superatom.basis import (
    LEVEL_R,
    BasisError,
    CapacityError,
    DickeIndex,
    EnsembleSpec,
    dicke_labels,
    dicke_position,
    product_basis,
    product_dimension,
    symmetrizer,
)
from superatom.dynamics import (
    DROP_TOL,
    LINDBLAD_MAX_WORK,
    DecoherenceRates,
    NumericalFailure,
    Trajectory,
    evolve_lindblad,
    lindblad_operators,
    liouvillian,
    _carrying_indices,
    propagate_pure,
)
from superatom.hamiltonians import (
    TWO_PI,
    LaserParams,
    build_dicke_hamiltonian,
    build_product_hamiltonian,
)
from superatom.protocol import (
    AUTO_DELTA_P,
    NO_HERALD_EPS,
    ProtocolConfig,
    _density_readout,
    _pure_readout,
    collapse_revival_demo,
    resolve_protocol,
)


class TestPurePropagation:
    def test_zero_hamiltonian_identity(self):
        psi0 = np.array([0.6, 0.8], dtype=complex)
        states = propagate_pure(np.zeros((2, 2)), psi0, [0.1, 1.0, 10.0])
        assert np.allclose(states, psi0[None, :], atol=1e-14)

    def test_single_atom_rabi_oracle(self):
        """P_e(t) = sin^2(omega_p t / 2) on resonance."""
        omega_p = 3.0
        params = LaserParams(omega_p, 1e-12, 0.0, 0.0)
        spec = EnsembleSpec(1)
        h = build_product_hamiltonian(params, spec)
        pb = ProductBasis(spec)
        psi0 = np.zeros(pb.dim, dtype=complex)
        psi0[pb.index[(0,)]] = 1.0
        times = np.linspace(0.01, 5.0, 300)
        states = propagate_pure(h, psi0, times)
        p_e = np.abs(states[:, pb.index[(1,)]]) ** 2
        assert np.max(np.abs(p_e - np.sin(omega_p * times / 2) ** 2)) < 1e-8

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 40), st.integers(0, 2**32 - 1))
    def test_norm_conserved_random_hermitian(self, dim, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(dim, dim))
        h = (a + a.T) / 2
        psi0 = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        psi0 /= np.linalg.norm(psi0)
        states = propagate_pure(h, psi0, np.linspace(0.1, 3.0, 17))
        assert np.max(np.abs(np.linalg.norm(states, axis=1) - 1)) < 1e-10

    def test_non_hermitian_rejected(self):
        h = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(NumericalFailure, match="not Hermitian"):
            propagate_pure(h, np.array([1.0, 0.0], dtype=complex), [1.0])

    def test_dimension_mismatch(self):
        with pytest.raises(BasisError):
            propagate_pure(np.zeros((3, 3)), np.array([1.0, 0.0]), [1.0])

    def test_nan_hamiltonian_rejected(self):
        h = np.eye(3)
        h[1, 1] = np.nan
        with pytest.raises(NumericalFailure):
            propagate_pure(h, np.array([1.0, 0.0, 0.0], dtype=complex), [1.0])

    def test_nan_initial_state_rejected(self):
        psi0 = np.array([1.0, np.nan, 0.0], dtype=complex)
        with pytest.raises(NumericalFailure):
            propagate_pure(np.eye(3), psi0, [1.0])

    def test_unnormalized_state_rejected(self):
        with pytest.raises(NumericalFailure, match="norm"):
            propagate_pure(np.eye(3), np.array([2.0, 0.0, 0.0], dtype=complex), [1.0])

    def test_negligible_state_rejected(self):
        """A psi0 whose whole weight is below DROP_TOL**2 propagates to 0,
        which the norm check refuses."""
        psi0 = np.full(4, 0.1 * DROP_TOL, dtype=complex)
        with pytest.raises(NumericalFailure, match="norm"):
            propagate_pure(np.diag([0.0, 1.0, 2.0, 3.0]), psi0, [1.0])

    EXPM_TIMES = np.array([0.0, 0.3, 1.7, 12.5])

    @staticmethod
    def _random_dense(evals, seed):
        """Dense complex Hermitian H with the given spectrum, and its
        eigenvectors as columns."""
        rng = np.random.default_rng(seed)
        dim = len(evals)
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        q, _ = np.linalg.qr(a)
        return (q * np.asarray(evals)) @ q.conj().T, q

    def _check_against_expm(self, h, psi0, n_kept):
        """propagate_pure keeps n_kept components and matches exp(-iHt)."""
        weights = np.abs(np.linalg.eigh(h)[1].conj().T @ psi0) ** 2
        assert len(_carrying_indices(weights)) == n_kept
        got = propagate_pure(h, psi0, self.EXPM_TIMES)
        want = np.array([expm(-1j * h * t) @ psi0 for t in self.EXPM_TIMES])
        assert np.max(np.abs(got - want)) < 1e-10
        return got

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_invariant_subspace_matches_expm(self, seed):
        """psi0 spans 3 of 12 eigenvectors; the other 9 are dropped."""
        evals = np.random.default_rng(seed).normal(size=12)
        h, q = self._random_dense(evals, seed)
        psi0 = q[:, [1, 5, 8]] @ np.array([0.6, 0.48j, -0.64])
        self._check_against_expm(h, psi0, n_kept=3)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_degenerate_subspace_matches_expm(self, seed):
        """psi0 lies in a twofold degenerate eigenspace plus one other
        eigenvector; the eigensolver may return any basis of the pair."""
        evals = np.array([-1.3, -0.2, 0.4, 0.4, 1.1, 2.0, 2.9, 3.5])
        h, q = self._random_dense(evals, seed)
        psi0 = q[:, [2, 3, 6]] @ np.array([0.6, 0.6j, np.sqrt(0.28)])
        self._check_against_expm(h, psi0, n_kept=3)

    def test_single_eigenvector_only_rotates(self):
        evals = np.linspace(-2.0, 3.0, 10)
        h, q = self._random_dense(evals, 3)
        psi0 = q[:, 4]
        got = self._check_against_expm(h, psi0, n_kept=1)
        want = np.exp(-1j * evals[4] * self.EXPM_TIMES)[:, None] * psi0
        assert np.max(np.abs(got - want)) < 1e-10

    def test_peak_allocation_near_output_size(self):
        """From |G> at N=8 (dim 1280, 4,000 times) only the symmetric
        eigencomponents are propagated, so no (T, dim) temporary besides
        the returned array is allocated."""
        spec = EnsembleSpec(8)
        h = build_product_hamiltonian(LaserParams(1.9, 628.0, 0.0, -314.0), spec)
        psi0 = np.zeros(h.shape[0], dtype=complex)
        psi0[ProductBasis(spec).index[(0,) * 8]] = 1.0
        times = np.linspace(0.0, 5.0, 4000)
        tracemalloc.start()
        try:
            states = propagate_pure(h, psi0, times)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert states.shape == (4000, 1280)
        assert peak <= 1.5 * states.nbytes

    def test_eigensolver_failure_is_numerical(self, monkeypatch):
        def fail(_h):
            raise np.linalg.LinAlgError("did not converge")

        monkeypatch.setattr(superatom.dynamics.np.linalg, "eigh", fail)
        h = np.ones((5, 5))
        with pytest.raises(NumericalFailure, match="did not converge"):
            propagate_pure(h, np.eye(5, dtype=complex)[0], [1.0])


class TestCarryingIndices:
    """The components kept by propagate_pure: the dropped ones are the
    smallest and sum to at most DROP_TOL**2, and no fewer could be kept."""

    @staticmethod
    def _check(weights):
        keep = _carrying_indices(weights)
        dropped = np.setdiff1d(np.arange(len(weights)), keep)
        assert np.all(np.diff(keep) > 0)
        assert weights[dropped].sum() <= DROP_TOL**2
        if len(dropped) and len(keep):
            assert weights[dropped].max() <= weights[keep].min()
        if len(keep):  # dropping one more would break the bound
            assert weights[dropped].sum() + weights[keep].min() > DROP_TOL**2
        return keep

    def test_spread_evenly_keeps_all(self):
        for dim in (1, 2, 17, 1280):
            keep = self._check(np.full(dim, 1.0 / dim))
            assert np.array_equal(keep, np.arange(dim))

    def test_many_small_weights_are_summed(self):
        """100 weights of DROP_TOL**2 / 2 each: only two of them fit under
        the bound together, so 98 are kept."""
        weights = np.full(103, 0.5 * DROP_TOL**2)
        weights[[4, 50, 99]] = [0.5, 0.3, 0.2]
        keep = self._check(weights)
        assert len(keep) == 101

    def test_exact_zeros_dropped(self):
        weights = np.zeros(9)
        weights[[2, 7]] = [0.25, 0.75]
        assert np.array_equal(self._check(weights), [2, 7])

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 60), st.integers(0, 2**32 - 1))
    def test_random_weights(self, dim, seed):
        rng = np.random.default_rng(seed)
        weights = rng.random(dim) * 10.0 ** rng.integers(-34, 0, size=dim)
        self._check(weights / weights.sum())


def _random_pentadiagonal(dim, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    a = np.triu(np.tril(a, 2), -2)
    return (a + a.conj().T) / 2


def _random_state(dim, seed):
    rng = np.random.default_rng(seed + 1000)
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return psi / np.linalg.norm(psi)


class TestBandedPropagation:
    """A pentadiagonal H such as the Dicke chain propagates on a leading
    block, grown until the leakage bound fits.  Every result must match
    exp(-iHt) and the whole-chain spectral sum of the banded solver that
    the block replaced (tests/oracles.py); the eigh spy records the block
    sizes a call went through."""

    TIMES = np.linspace(0.05, 2.0, 7)

    @pytest.fixture
    def eigh_sizes(self, monkeypatch):
        sizes = []
        real = np.linalg.eigh

        def spy(a, *args, **kwargs):
            sizes.append(a.shape[0])
            return real(a, *args, **kwargs)

        monkeypatch.setattr(superatom.dynamics.np.linalg, "eigh", spy)
        return sizes

    @staticmethod
    def _check(h, psi0, times, eigh_sizes, blocks):
        got = propagate_pure(h, psi0, times)
        assert eigh_sizes == blocks
        want = np.array([expm(-1j * h * t) @ psi0 for t in times])
        assert np.max(np.abs(got - want)) < 1e-10
        assert np.max(np.abs(got - whole_chain_states(h, psi0, times))) < 1e-10
        return got

    @staticmethod
    def _ground(dim):
        psi0 = np.zeros(dim, dtype=complex)
        psi0[0] = 1.0
        return psi0

    @pytest.mark.parametrize("n_atoms,blocks", [(3, [7]), (50, [35]), (160, [35])])
    def test_sweep_point_from_ground(self, n_atoms, blocks, eigh_sizes):
        """A scan point (Omega_c/2pi = 100 MHz, Omega_eff/2pi = 0.1 MHz,
        pi-pulse) from |G>: the 35 states with n <= 17 meet the bound."""
        omega_c = TWO_PI * 100.0
        res = resolve_protocol(ProtocolConfig(
            spec=EnsembleSpec(n_atoms),
            params=LaserParams(0.0, omega_c, AUTO_DELTA_P, -omega_c / 2.0),
            effective_rabi_target=TWO_PI * 0.1,
        ))
        h = build_dicke_hamiltonian(res.params, res.spec)
        times = np.linspace(0.0, res.pulse_time, 5)[1:]
        eigh_sizes.clear()  # the reduction's batched 2x2 eigh
        self._check(h, self._ground(h.shape[0]), times, eigh_sizes, blocks)

    @pytest.mark.parametrize("omega_p_mhz,blocks", [
        (0.1, [35, 71]),
        (0.2, [35, 71, 143]),
        (2.0, [35, 71, 143, 201]),  # strong probe: the whole chain
    ])
    def test_block_grows_with_the_probe(self, omega_p_mhz, blocks, eigh_sizes):
        """N = 100 over 2 us: the stronger the probe, the further up the
        ladder |G> climbs and the larger the block the bound needs."""
        h = build_dicke_hamiltonian(
            LaserParams(TWO_PI * omega_p_mhz, TWO_PI * 10.0, 0.0, 0.0),
            EnsembleSpec(100),
        )
        got = self._check(h, self._ground(201), self.TIMES, eigh_sizes, blocks)
        assert not np.any(got[:, blocks[-1]:])

    def test_collapse_revival_stages(self, eigh_sizes):
        """Stage 1 of collapse_revival_demo at N = 100 (binomial p = 1/4)
        spreads |G> over the whole ladder; propagating stage 2's Dicke H from
        that spread state takes the whole chain as its first block, and
        gives the p_ryd that collapse_revival_demo reads in the dressed
        frame."""
        spec = EnsembleSpec(100)
        params = LaserParams(TWO_PI * 1.0, TWO_PI * 10.0, 0.0, 0.0)
        h1 = build_dicke_hamiltonian(LaserParams(params.omega_p, 1e-12, 0.0, 0.0), spec)
        psi1 = self._check(h1, self._ground(201), [1.0 / 6.0], eigh_sizes,
                           [35, 71, 143, 201])[0]
        eigh_sizes.clear()
        h2 = build_dicke_hamiltonian(params.replace(omega_p=0.0), spec)
        states = self._check(h2, psi1, self.TIMES, eigh_sizes, [201])
        _, s = dicke_labels(100)
        traj = collapse_revival_demo(spec, params, 1.0 / 6.0, self.TIMES)
        want = (np.abs(states[:, s == 1]) ** 2).sum(axis=1)
        assert np.max(np.abs(traj.populations["p_ryd"] - want)) < 1e-12

    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 9, 40])
    def test_random_pentadiagonal(self, dim, eigh_sizes):
        """A psi0 spread over every position takes the whole matrix."""
        self._check(_random_pentadiagonal(dim, dim), _random_state(dim, dim),
                    self.TIMES, eigh_sizes, [dim])

    @pytest.mark.parametrize("n_atoms", [1, 3, 50])
    def test_dicke_hamiltonian(self, n_atoms, eigh_sizes):
        h = build_dicke_hamiltonian(
            LaserParams(1.5, 4.0, 0.7, -2.0), EnsembleSpec(n_atoms)
        )
        dim = h.shape[0]
        self._check(h, _random_state(dim, n_atoms), self.TIMES, eigh_sizes, [dim])

    def test_random_pentadiagonal_from_first_state(self, eigh_sizes):
        """Couplings of order 1 over t = 2 carry the first state across
        all 80 positions, so the block grows to the whole matrix."""
        h = _random_pentadiagonal(80, 5)
        self._check(h, self._ground(80), self.TIMES, eigh_sizes, [35, 71, 80])

    def test_zero_hamiltonian(self, eigh_sizes):
        """No coupling, no band: the block is psi0's support."""
        psi0 = np.zeros(9, dtype=complex)
        psi0[:3] = _random_state(3, 0)
        got = self._check(np.zeros((9, 9)), psi0, self.TIMES, eigh_sizes, [3])
        assert np.allclose(got, psi0[None, :], atol=1e-14)

    @pytest.mark.parametrize("omega_c", [4.0, 1e-12])
    def test_probe_off(self, omega_c, eigh_sizes):
        """Omega_p = 0: |G> decouples and H falls apart into the 2x2 coupling
        blocks; with a vanishing coupling laser as well, every level sits
        within 1e-12 of 0."""
        h = build_dicke_hamiltonian(
            LaserParams(0.0, omega_c, 0.0, 0.0), EnsembleSpec(4)
        )
        self._check(h, _random_state(9, 4), self.TIMES, eigh_sizes, [9])

    def test_product_basis_takes_the_whole_matrix(self, eigh_sizes):
        """The product basis is not ordered by excitation number: its
        couplings reach 576 places from the diagonal at N = 8, so |G>
        starts, and ends, with all 1,280 states."""
        spec = EnsembleSpec(8)
        h = build_product_hamiltonian(LaserParams(1.9, 628.0, 0.0, -314.0), spec)
        psi0 = np.zeros(h.shape[0], dtype=complex)
        psi0[ProductBasis(spec).index[(0,) * 8]] = 1.0
        propagate_pure(h, psi0, [0.5, 5.0])
        assert eigh_sizes == [1280]


class TestLindbladOperators:
    def test_all_zero_rates_empty(self):
        assert lindblad_operators(DecoherenceRates(), EnsembleSpec(3)) == []

    def test_collective_projector_count(self):
        """One rank-1 projector per Dicke state (2N+1 = 7 at N=3)."""
        ops = lindblad_operators(DecoherenceRates(gamma_coll=1.0), EnsembleSpec(3))
        assert len(ops) == 7
        for _, op in ops:
            assert np.allclose(op @ op, op)  # projectors
            assert np.linalg.matrix_rank(op) == 1

    def test_single_atom_counts_and_ranks(self):
        """One operator per atom; ranks by explicit construction (N=3):
        |g><e| acts on the 8 configurations with the atom in e (rank 8),
        |e><r| on the 4 with the atom in r (rank 4)."""
        spec = EnsembleSpec(3)
        ops_e = lindblad_operators(DecoherenceRates(gamma_e=1.0), spec)
        ops_r = lindblad_operators(DecoherenceRates(gamma_r=1.0), spec)
        assert len(ops_e) == 3 and len(ops_r) == 3
        for _, op in ops_e:
            assert np.linalg.matrix_rank(op) == 8
        for _, op in ops_r:
            assert np.linalg.matrix_rank(op) == 4

    @pytest.mark.parametrize("n_atoms", range(1, 5))
    def test_matches_reference(self, n_atoms):
        """Every channel equals the per-(state, atom) loop exactly."""
        spec = EnsembleSpec(n_atoms)
        rates = DecoherenceRates(gamma_e=0.6, gamma_r=0.3, gamma_d=0.2, gamma_coll=0.4)
        got = lindblad_operators(rates, spec)
        want = jump_operators(rates, spec)
        assert [r for r, _ in got] == [r for r, _ in want]
        for (_, a), (_, b) in zip(got, want):
            assert np.array_equal(a, b)

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            DecoherenceRates(gamma_e=-0.1)


class TestLiouvillian:
    """The sparse generator against the explicit master-equation formula."""

    @staticmethod
    def _explicit(h, jumps, rho):
        drho = -1j * (h @ rho - rho @ h)
        for rate, l in jumps:
            ld = l.conj().T
            drho += rate * (l @ rho @ ld - 0.5 * (ld @ l @ rho + rho @ ld @ l))
        return drho

    @staticmethod
    def _random_density(dim, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        rho = a @ a.conj().T
        return rho / np.trace(rho).real

    def _check(self, h, jumps, seed):
        dim = h.shape[0]
        rho = self._random_density(dim, seed)
        got = (liouvillian(h, jumps) @ rho.ravel()).reshape(dim, dim)
        assert np.max(np.abs(got - self._explicit(h, jumps, rho))) < 1e-12

    @pytest.mark.parametrize("n_atoms", [2, 3])
    def test_product_basis_all_channels(self, n_atoms):
        spec = EnsembleSpec(n_atoms)
        h = build_product_hamiltonian(LaserParams(1.5, 4.0, 0.7, -2.0), spec)
        rates = DecoherenceRates(
            gamma_e=0.6, gamma_r=0.3, gamma_d=0.2, gamma_coll=0.4
        )
        jumps = lindblad_operators(rates, spec)
        assert len(jumps) == 3 * n_atoms + 2 * n_atoms + 1
        self._check(h, jumps, seed=n_atoms)

    def test_dicke_basis_collective_dephasing(self):
        spec = EnsembleSpec(4)
        h = build_dicke_hamiltonian(LaserParams(1.5, 4.0, 0.7, -2.0), spec)
        # collective dephasing: a projector onto each Dicke state
        jumps = [(0.5, np.diag(e)) for e in np.eye(h.shape[0])]
        self._check(h, jumps, seed=11)


class TestLindbladEvolution:
    def _pure_rho(self, spec):
        pb = ProductBasis(spec)
        psi0 = np.zeros(pb.dim, dtype=complex)
        psi0[pb.index[(0,) * spec.n_atoms]] = 1.0
        return psi0, np.outer(psi0, psi0.conj())

    def test_unitary_limit_matches_pure(self):
        spec = EnsembleSpec(2)
        params = LaserParams(2.0, 15.0, 1.0, -7.5)
        h = build_product_hamiltonian(params, spec)
        psi0, rho0 = self._pure_rho(spec)
        times = np.linspace(0.05, 1.0, 12)
        rhos = evolve_lindblad(h, [], rho0, times)
        states = propagate_pure(h, psi0, times)
        pops_pure = np.abs(states) ** 2
        pops_me = np.einsum("tii->ti", rhos).real
        assert np.max(np.abs(pops_pure - pops_me)) < 1e-7

    def test_exponential_decay_oracle(self):
        """Single atom, no lasers, Gamma_e: P_e(t) = exp(-Gamma_e t)."""
        spec = EnsembleSpec(1)
        pb = ProductBasis(spec)
        gamma = 1.7
        jumps = lindblad_operators(DecoherenceRates(gamma_e=gamma), spec)
        h = np.zeros((pb.dim, pb.dim))
        rho0 = np.zeros((pb.dim, pb.dim), dtype=complex)
        rho0[pb.index[(1,)], pb.index[(1,)]] = 1.0
        times = np.linspace(0.1, 2.0, 14)
        rhos = evolve_lindblad(h, jumps, rho0, times)
        p_e = rhos[:, pb.index[(1,)], pb.index[(1,)]].real
        assert np.max(np.abs(p_e - np.exp(-gamma * times))) < 1e-8

    def test_generator_linearity(self):
        spec = EnsembleSpec(2)
        params = LaserParams(1.0, 10.0, 0.5, -5.0)
        h = build_product_hamiltonian(params, spec)
        jumps = lindblad_operators(
            DecoherenceRates(gamma_e=0.3, gamma_r=0.1), spec
        )
        pb = ProductBasis(spec)
        rho1 = np.zeros((pb.dim, pb.dim), dtype=complex)
        rho1[0, 0] = 1.0
        k = pb.index[(1, 1)]
        rho2 = np.zeros_like(rho1)
        rho2[k, k] = 1.0
        a = 0.3
        times = np.linspace(0.1, 0.6, 5)
        mixed = evolve_lindblad(h, jumps, a * rho1 + (1 - a) * rho2, times)
        sep = a * evolve_lindblad(h, jumps, rho1, times) + (1 - a) * evolve_lindblad(
            h, jumps, rho2, times
        )
        assert np.max(np.abs(mixed - sep)) < 1e-8

    def test_trace_and_positivity_invariants(self):
        spec = EnsembleSpec(3)
        params = LaserParams(1.5, 20.0, 2.0, -10.0)
        h = build_product_hamiltonian(params, spec)
        jumps = lindblad_operators(
            DecoherenceRates(gamma_e=0.2, gamma_d=0.05), spec
        )
        _, rho0 = self._pure_rho(spec)
        times = np.linspace(0.2, 1.0, 5)
        rhos = evolve_lindblad(h, jumps, rho0, times)  # raises on violation
        traces = np.einsum("tii->t", rhos).real
        assert np.max(np.abs(traces - 1)) < 1e-7
        assert np.linalg.eigvalsh(rhos[-1]).min() > -1e-6

    def test_capacity_guard(self):
        dim = 200
        with pytest.raises(CapacityError):
            evolve_lindblad(
                np.zeros((dim, dim)),
                [],
                np.eye(dim, dtype=complex) / dim,
                [1.0],
            )

    def test_capacity_is_the_density_limit(self):
        """The master equation runs only in the product basis, up to N = 4:
        the N = 5 product dimension (112) is refused."""
        dim = product_dimension(5)
        with pytest.raises(CapacityError):
            evolve_lindblad(
                np.zeros((dim, dim)), [], np.eye(dim, dtype=complex) / dim, [1.0]
            )

    def test_shape_mismatch(self):
        with pytest.raises(BasisError):
            evolve_lindblad(np.zeros((4, 4)), [], np.eye(3, dtype=complex) / 3, [1.0])

    @staticmethod
    def _work_case(spec, horizon, gamma):
        h = build_product_hamiltonian(LaserParams(20.0, 600.0, 10.0, -300.0), spec)
        jumps = lindblad_operators(DecoherenceRates(gamma_e=gamma), spec)
        rho0 = np.zeros(h.shape, dtype=complex)
        rho0[0, 0] = 1.0
        # ||H||_inf + ||K||_inf of this case, summed by hand
        k = sum((rate * op.T @ op for rate, op in jumps), np.zeros(h.shape))
        scale = np.abs(h).sum(axis=1).max() + np.abs(k).sum(axis=1).max()
        return h, jumps, rho0, horizon * scale

    @pytest.mark.parametrize("gamma", [0.0, 50.0])
    def test_work_cap_refused_before_integrating(self, monkeypatch, gamma):
        """A horizon just past LINDBLAD_MAX_WORK / scale is a capacity error;
        the integrator is never started."""
        import scipy.integrate

        def refuse(*args, **kwargs):
            raise AssertionError("DOP853 was started")

        monkeypatch.setattr(scipy.integrate, "solve_ivp", refuse)
        h, jumps, rho0, scale = self._work_case(EnsembleSpec(2), 1.0, gamma)
        with pytest.raises(CapacityError, match="master-equation work"):
            evolve_lindblad(h, jumps, rho0, [1.001 * LINDBLAD_MAX_WORK / scale])

    @pytest.mark.parametrize("horizon,gamma", [(1.0, 0.0), (4.0, 0.0), (1.0, 500.0),
                                               (0.1, 1e4)])
    def test_work_tracks_the_integrator(self, monkeypatch, horizon, gamma):
        """At a work of 10^3-10^4 DOP853 takes 1-27 right-hand-side
        evaluations per unit of it, the range LINDBLAD_MAX_WORK was measured
        on."""
        import scipy.integrate

        real = scipy.integrate.solve_ivp
        nfev = []

        def counting(*args, **kwargs):
            sol = real(*args, **kwargs)
            nfev.append(sol.nfev)
            return sol

        monkeypatch.setattr(scipy.integrate, "solve_ivp", counting)
        h, jumps, rho0, work = self._work_case(EnsembleSpec(3), horizon, gamma)
        evolve_lindblad(h, jumps, rho0, [horizon])
        assert 1.0 <= nfev[0] / work <= 27.0


class TestObservables:
    """The herald readout of protocol runs, applied to states given by hand:
    pure states as Dicke amplitudes, mixed ones as product-basis density
    matrices."""

    @staticmethod
    def _pure(amps, spec):
        two_plus = np.zeros(amps.shape[-1])
        return _pure_readout([1.0], spec, np.atleast_2d(amps), two_plus)

    @staticmethod
    def _final(traj):
        return {k: float(v[-1]) for k, v in traj.populations.items()}

    def test_er_state(self):
        spec = EnsembleSpec(3)
        amps = np.zeros(7, dtype=complex)
        amps[dicke_position(spec, DickeIndex(1, 1))] = 1.0
        pops = self._final(self._pure(amps, spec))
        assert pops["p_ryd"] == pytest.approx(1.0)
        assert pops["p_ER"] == pytest.approx(1.0)
        assert pops["infidelity"] == 0.0

    def test_ground_state_undefined_fidelity(self):
        spec = EnsembleSpec(3)
        amps = np.zeros(7, dtype=complex)
        amps[0] = 1.0
        pops = self._final(self._pure(amps, spec))
        assert pops["p_ryd"] == 0.0
        assert np.isnan(pops["infidelity"])

    def test_herald_threshold(self):
        """A Rydberg population of exactly NO_HERALD_EPS heralds nothing
        (NaN); twice that, all outside |ER>, is a certain false herald."""
        spec = EnsembleSpec(3)
        r = np.flatnonzero((product_basis(spec) == LEVEL_R).any(axis=1))[0]
        rhos = np.zeros((2, product_dimension(3), product_dimension(3)))
        rhos[:, r, r] = [NO_HERALD_EPS, 2 * NO_HERALD_EPS]
        traj = _density_readout([1.0, 2.0], spec, rhos, np.zeros(7))
        assert list(traj.populations["p_ryd"]) == [NO_HERALD_EPS, 2 * NO_HERALD_EPS]
        assert list(traj.populations["p_ER"]) == [0.0, 0.0]
        infid = traj.populations["infidelity"]
        assert np.isnan(infid[0]) and infid[1] == 1.0

    def test_two_plus_at_canonical_point(self):
        """|2+> = (|E^2> + sqrt(2)|ER>)/sqrt(3): p_ryd = p_ER = 2/3."""
        spec = EnsembleSpec(3)
        amps = np.zeros(7, dtype=complex)
        amps[dicke_position(spec, DickeIndex(2, 0))] = 1 / np.sqrt(3)
        amps[dicke_position(spec, DickeIndex(1, 1))] = np.sqrt(2 / 3)
        pops = self._final(_pure_readout([1.0], spec, amps[None], amps.real))
        assert pops["p_ryd"] == pytest.approx(2 / 3)
        assert pops["p_ER"] == pytest.approx(2 / 3)
        assert pops["p_E2"] == pytest.approx(1 / 3)
        assert pops["p_2plus"] == pytest.approx(1.0)
        assert pops["infidelity"] == pytest.approx(0.0, abs=1e-12)

    def test_dicke_basis_matches_product(self):
        """The full model's frame map (the symmetrizer) takes a symmetric
        product state back to the Dicke amplitudes it was built from."""
        spec = EnsembleSpec(4)
        rng = np.random.default_rng(7)
        amps = rng.normal(size=9) + 1j * rng.normal(size=9)
        amps /= np.linalg.norm(amps)
        S = symmetrizer(spec)
        a = self._pure(amps, spec).populations
        b = self._pure((S @ amps) @ S, spec).populations
        for key in a:
            assert b[key][0] == pytest.approx(a[key][0], abs=1e-12)

    def test_density_matrix_input(self):
        """The master-equation readout of a pure rho equals the pure readout."""
        spec = EnsembleSpec(3)
        rng = np.random.default_rng(5)
        amps = rng.normal(size=7) + 1j * rng.normal(size=7)
        amps /= np.linalg.norm(amps)
        two_plus = rng.normal(size=7)
        two_plus /= np.linalg.norm(two_plus)
        psi = symmetrizer(spec) @ amps
        rho = np.outer(psi, psi.conj())
        a = _pure_readout([1.0], spec, amps[None], two_plus)
        b = _density_readout([1.0], spec, rho[None], two_plus)
        assert set(a.populations) == set(b.populations)
        for key in a.populations:
            assert b.populations[key][0] == pytest.approx(
                a.populations[key][0], abs=1e-12
            )
        assert b.populations["infidelity"][0] == pytest.approx(
            a.populations["infidelity"][0], abs=1e-12
        )


class TestTrajectory:
    def test_monotonic_times_required(self):
        with pytest.raises(ValueError):
            Trajectory(times=np.array([0.0, 1.0, 1.0]))

    def test_populations_dict(self):
        tr = Trajectory(times=np.array([0.0, 1.0]), populations={"p_G": np.ones(2)})
        assert set(tr.populations) == {"p_G"}
