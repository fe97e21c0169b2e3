import json
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from oracles import (
    collapse_revival_p_ryd,
    effective_two_level,
    enumerate_dicke,
    probe_stage_state,
    whole_chain_p_ryd,
)
from superatom import cli, protocol
from superatom.basis import N_MAX_DICKE, EnsembleSpec, dicke_labels, symmetrizer
from superatom.dynamics import (
    DecoherenceRates,
    NumericalFailure,
    hermitian_bands,
    propagate_pure,
)
from superatom.hamiltonians import (
    TWO_PI,
    LaserParams,
    build_dicke_hamiltonian,
    build_product_hamiltonian,
    resonance_probe_detuning,
)
from superatom.protocol import (
    AUTO_DELTA_P,
    PoissonEnsemble,
    ProtocolConfig,
    collapse_revival_demo,
    poisson_average,
    resolve_protocol,
    run_protocol,
    scan_decoherence,
    scan_delta_c,
    scan_omega_c,
)


def canonical_config(n_atoms=3, omega_c_mhz=20.0, target_mhz=0.1, **kw):
    omega_c = TWO_PI * omega_c_mhz
    return ProtocolConfig(
        spec=EnsembleSpec(n_atoms),
        params=LaserParams(0.0, omega_c, AUTO_DELTA_P, -omega_c / 2),
        effective_rabi_target=TWO_PI * target_mhz,
        **kw,
    )


class TestResolution:
    def test_omega_p_solved_to_target(self):
        cfg = canonical_config()
        res = resolve_protocol(cfg)
        omega_eff, _ = effective_two_level(res.params, cfg.spec)
        assert omega_eff == pytest.approx(cfg.effective_rabi_target, rel=1e-12)

    def test_delta_p_compensation(self):
        cfg = canonical_config()
        res = resolve_protocol(cfg)
        dp_res = resonance_probe_detuning(
            res.params.omega_c, res.params.delta_c
        )
        assert res.delta_p_resonance == pytest.approx(dp_res)
        assert res.params.delta_p == pytest.approx(dp_res + res.delta_eff / 2)

    def test_explicit_delta_p_kept(self):
        omega_c = TWO_PI * 20.0
        cfg = ProtocolConfig(
            spec=EnsembleSpec(3),
            params=LaserParams(1.0, omega_c, 12.34, -omega_c / 2),
        )
        assert resolve_protocol(cfg).params.delta_p == 12.34

    def test_pi_pulse_default(self):
        res = resolve_protocol(canonical_config())
        assert res.pulse_time == pytest.approx(np.pi / res.omega_eff)

    def test_five_us_pulse_at_paper_point(self):
        # omega_eff/2pi = 0.1 MHz -> pi/omega_eff = 5 us
        res = resolve_protocol(canonical_config())
        assert res.pulse_time == pytest.approx(5.0, rel=1e-12)

    def test_config_xor_validation(self):
        omega_c = TWO_PI * 20.0
        with pytest.raises(ValueError):
            ProtocolConfig(
                spec=EnsembleSpec(3),
                params=LaserParams(1.0, omega_c, AUTO_DELTA_P, -omega_c / 2),
                effective_rabi_target=1.0,
            )
        with pytest.raises(ValueError):
            ProtocolConfig(
                spec=EnsembleSpec(3),
                params=LaserParams(0.0, omega_c, AUTO_DELTA_P, -omega_c / 2),
            )

    def test_bad_pulse_time(self):
        with pytest.raises(ValueError):
            canonical_config(pulse_time=-1.0)


class TestRunProtocol:
    def test_unknown_model(self):
        with pytest.raises(ValueError):
            run_protocol(canonical_config(), model="exact")

    def test_dicke_run_builds_no_dense_hamiltonian(self):
        """A dicke scan point at N = N_MAX_DICKE = 2000 hands the propagator
        the chain's three bands: its peak stays far below the 128 MB of a
        dense (2N+1)^2 H."""
        res = resolve_protocol(canonical_config(n_atoms=N_MAX_DICKE))
        run_protocol(res, model="dicke", n_times=2)  # first call outside the trace
        tracemalloc.start()
        try:
            run_protocol(res, model="dicke", n_times=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4e6

    def test_success_two_thirds_at_optimum(self):
        result = run_protocol(canonical_config(), model="dicke")
        assert result.success_probability == pytest.approx(2 / 3, abs=0.05)

    def test_full_and_dicke_agree(self):
        """Symmetry preservation: product-space and Dicke propagation match."""
        cfg = canonical_config(n_atoms=4)
        a = run_protocol(cfg, model="full", n_times=31)
        b = run_protocol(cfg, model="dicke", n_times=31)
        for key in ("p_G", "p_ryd", "p_ER", "p_2plus"):
            assert np.max(
                np.abs(a.trajectory.populations[key] - b.trajectory.populations[key])
            ) < 1e-8
        assert a.success_probability == pytest.approx(
            b.success_probability, abs=1e-8
        )

    @pytest.mark.parametrize("n,n_times", [(2, 101), (3, 101), (4, 101), (5, 101),
                                           (8, 6)])
    def test_full_matches_whole_product_propagation(self, n, n_times):
        """The full model, propagated on its symmetric block, reads out what
        propagating the whole product-basis H from |G> does, to 1e-12."""
        res = resolve_protocol(canonical_config(n_atoms=n))
        got = run_protocol(res, model="full", n_times=n_times).trajectory
        h = build_product_hamiltonian(res.params, res.spec)
        psi0 = np.zeros(h.shape[0], dtype=complex)
        psi0[0] = 1.0
        states = propagate_pure(hermitian_bands(h), psi0, got.times)
        amps = states @ symmetrizer(res.spec)
        want = protocol._pure_readout(
            got.times, res.spec, amps,
            protocol._two_plus_in_dicke(res.params, res.spec),
        )
        for key, pops in want.populations.items():
            assert np.max(np.abs(got.populations[key] - pops)) < 1e-12, key

    def test_full_diagonalises_only_the_symmetric_block(self, monkeypatch):
        """At N = 8 no eigh sees more than the 2N+1 = 17 Dicke states."""
        real = np.linalg.eigh
        sizes = []

        def recording(a, *args, **kwargs):
            sizes.append(np.shape(a)[-1])
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", recording)
        result = run_protocol(canonical_config(n_atoms=8), model="full", n_times=11)
        assert result.success_probability > 0.5
        assert sizes and max(sizes) == 17

    def test_lindblad_zero_rates_matches_dicke(self):
        cfg = canonical_config(n_atoms=3, omega_c_mhz=100.0)
        a = run_protocol(cfg, model="lindblad", n_times=3)
        b = run_protocol(cfg, model="dicke", n_times=3)
        # integrator tolerance accumulated over the 5 us pulse
        assert a.success_probability == pytest.approx(
            b.success_probability, abs=1e-5
        )
        assert a.infidelity == pytest.approx(b.infidelity, abs=1e-5)

    def test_tiny_pulse_undefined_fidelity(self):
        result = run_protocol(
            canonical_config(pulse_time=1e-9), model="dicke", n_times=3
        )
        assert result.success_probability < 1e-10
        assert result.infidelity is None

    def test_half_pulse_success_halves(self):
        cfg = canonical_config()
        full = run_protocol(cfg, model="dicke", n_times=11)
        res = resolve_protocol(cfg)
        half = run_protocol(
            canonical_config(pulse_time=res.pulse_time / 2), model="dicke", n_times=11
        )
        assert half.success_probability == pytest.approx(
            full.success_probability / 2, rel=0.15
        )

    def test_herald_consistency(self, tmp_path):
        """trajectory.csv's last infidelity cell is the summary's infidelity."""
        cfg = tmp_path / "rabi.cfg"
        cfg.write_text(
            "n_atoms = 3\nomega_c_mhz = 20\nomega_eff_target_mhz = 0.1\n"
            "delta_c_over_omega_c = -0.5\nn_times = 21\n"
        )
        assert cli.main(["rabi", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        last = (tmp_path / "trajectory.csv").read_text().splitlines()[-1]
        summary = json.loads((tmp_path / "summary.json").read_text())
        infidelity = summary["results"]["infidelity"]
        assert infidelity > 0
        assert float(last.split(",")[-1]) == infidelity

    def test_models_share_population_keys(self):
        cfg = canonical_config(n_atoms=3, omega_c_mhz=100.0)
        keys = {
            m: list(run_protocol(cfg, model=m, n_times=3).trajectory.populations)
            for m in protocol.MODELS
        }
        assert all(k == keys["dicke"] for k in keys.values()), keys

    def test_effective2_pi_pulse_complete_transfer(self):
        cfg = canonical_config()
        result = run_protocol(cfg, model="effective2", n_times=21)
        assert result.trajectory.populations["p_2plus"][-1] == pytest.approx(
            1.0, abs=1e-6
        )
        assert result.success_probability == pytest.approx(2 / 3, abs=1e-6)

    def test_restricted6_tracks_dicke(self):
        cfg = canonical_config(n_atoms=4, omega_c_mhz=10.0)
        a = run_protocol(cfg, model="restricted6", n_times=31)
        b = run_protocol(cfg, model="dicke", n_times=31)
        dev = np.max(
            np.abs(a.trajectory.populations["p_2plus"]
                   - b.trajectory.populations["p_2plus"])
        )
        assert dev < 0.03

    def test_plateau_robustness(self):
        """Around the pi-pulse, the herald ratio is flat while success moves.

        The instantaneous populations carry a fast admixture oscillation
        from the abrupt pulse turn-on, so the ratio is averaged over the
        last tenth of the pulse before comparing across pulse lengths.
        """
        res = resolve_protocol(canonical_config(n_atoms=100, omega_c_mhz=100.0))
        ratios, succs = [], []
        for f in (0.7, 1.0, 1.3):
            r = run_protocol(
                canonical_config(
                    n_atoms=100, omega_c_mhz=100.0, pulse_time=f * res.pulse_time
                ),
                model="dicke",
                n_times=201,
            )
            tr = r.trajectory
            k = int(0.9 * len(tr.times))
            p_ryd = tr.populations["p_ryd"][k:].mean()
            p_er = tr.populations["p_ER"][k:].mean()
            ratios.append((p_ryd - p_er) / p_ryd)
            succs.append(r.success_probability)
        assert max(ratios) - min(ratios) < 0.2 * max(ratios)
        assert max(succs) - min(succs) > 0.1


class TestScans:
    @staticmethod
    def canned(monkeypatch, infids):
        """Make each run_protocol call return the next infidelity."""
        results = iter(
            protocol.ProtocolResult(
                success_probability=0.5, infidelity=y, trajectory=None,
                resolved=None,
            )
            for y in infids
        )
        monkeypatch.setattr(protocol, "run_protocol",
                            lambda cfg, model, n_times: next(results))

    def test_scan_requires_target(self):
        omega_c = TWO_PI * 20.0
        cfg = ProtocolConfig(
            spec=EnsembleSpec(3),
            params=LaserParams(1.0, omega_c, AUTO_DELTA_P, -omega_c / 2),
        )
        with pytest.raises(ValueError):
            scan_delta_c(cfg, [-0.5])
        with pytest.raises(ValueError):
            scan_omega_c(cfg, [omega_c])

    def test_scan_delta_c_minimum_in_basin(self):
        cfg = canonical_config()
        scan = scan_delta_c(cfg, np.linspace(-1.4, -0.35, 16))
        assert -1.1 < scan.summary["minimum"]["delta_c_over_omega_c"] < -0.45
        row_half = min(scan.rows, key=lambda r: abs(r.x + 0.5))
        assert row_half.success == pytest.approx(2 / 3, abs=0.05)

    def test_scan_delta_c_skips_undefined_points(self, monkeypatch):
        """The minimum is taken over defined points; an undefined neighbour
        stops the parabolic refinement at the grid point."""
        self.canned(monkeypatch, [None, 0.3, 0.1, None, 0.05, 0.2])
        grid = np.linspace(-1.0, -0.5, 6)
        scan = scan_delta_c(canonical_config(), grid)
        minimum = scan.summary["minimum"]
        assert minimum["delta_c_over_omega_c"] == pytest.approx(grid[4])
        assert minimum["infidelity"] == 0.05

    def test_scan_omega_c_monotone_trend(self):
        cfg = canonical_config()
        grid = TWO_PI * np.array([20.0, 60.0, 180.0])
        scan = scan_omega_c(cfg, grid)
        ys = [r.infidelity for r in scan.rows]
        assert ys[0] > ys[1] > ys[2]
        assert scan.rows[0].extra["bound"] == pytest.approx(
            10 * cfg.effective_rabi_target / grid[0]
        )

    @pytest.mark.parametrize("infids,within", [
        ([0.04, 0.01, 0.005], True),
        ([0.04, 0.02, 0.005], False),
    ])
    def test_scan_omega_c_summary_from_its_rows(self, monkeypatch, infids, within):
        """The slope is the log-log line fit over the scan's own rows, and
        bound_satisfied holds when every row lies within its bound (here
        0.05, 0.0167 and 0.0056)."""
        self.canned(monkeypatch, infids)
        scan = scan_omega_c(canonical_config(), TWO_PI * np.array([20.0, 60.0, 180.0]))
        xs = np.log([r.x for r in scan.rows])
        ys = np.log([r.infidelity for r in scan.rows])
        assert scan.summary["log_log_slope"] == float(np.polyfit(xs, ys, 1)[0])
        assert scan.summary["bound_satisfied"] is within
        assert within == all(r.infidelity <= r.extra["bound"] for r in scan.rows)

    @pytest.mark.parametrize("bad,value", [(None, "undefined"), (0.0, "0")])
    def test_scan_omega_c_fit_needs_positive_infidelity(self, monkeypatch, bad,
                                                        value):
        self.canned(monkeypatch, [0.04, bad, 0.005])
        with pytest.raises(NumericalFailure,
                           match=f"infidelity {value} at omega_c = 60 MHz"):
            scan_omega_c(canonical_config(), TWO_PI * np.array([20.0, 60.0, 180.0]))

    @pytest.mark.parametrize("scan", ["delta_c", "omega_c", "poisson", "decoherence"])
    def test_each_point_propagates_only_its_pulse_end(self, monkeypatch, scan):
        """Every scan reads a point at its pulse end only, so each point asks
        its propagator (propagate_pure, or evolve_lindblad for the
        decoherence scan) for exactly that one time: the pulse time of the
        latest resolution."""
        pulses, asked = [], []
        real_resolve = protocol.resolve_protocol

        def resolve(cfg):
            res = real_resolve(cfg)
            pulses.append(res.pulse_time)
            return res

        name = "evolve_lindblad" if scan == "decoherence" else "propagate_pure"
        real_propagate = getattr(protocol, name)

        def propagate(*args):
            asked.append((np.asarray(args[-1], dtype=float).tolist(), pulses[-1]))
            return real_propagate(*args)

        monkeypatch.setattr(protocol, "resolve_protocol", resolve)
        monkeypatch.setattr(protocol, name, propagate)
        if scan == "delta_c":
            n_points = len(scan_delta_c(canonical_config(), [-1.0, -0.75, -0.5]).rows)
        elif scan == "omega_c":
            n_points = len(scan_omega_c(canonical_config(),
                                        TWO_PI * np.array([20.0, 60.0])).rows)
        elif scan == "poisson":
            cfg = canonical_config(n_atoms=30, omega_c_mhz=50.0)
            n_points = len(poisson_average(cfg, PoissonEnsemble.from_mean(30.0)).rows)
        else:
            cfg = canonical_config(n_atoms=2, pulse_time=0.5)
            n_points = len(scan_decoherence(cfg, "gamma_e", [0.0, TWO_PI * 0.01]).rows)
        assert len(asked) == n_points
        assert all(times == [pulse] for times, pulse in asked)

    def test_scan_decoherence_unitary_limit(self):
        cfg = canonical_config(n_atoms=3, omega_c_mhz=100.0)
        scan = scan_decoherence(cfg, "gamma_e", [0.0, TWO_PI * 2e-4])
        coherent = run_protocol(cfg, model="dicke", n_times=3)
        assert scan.rows[0].infidelity == pytest.approx(
            coherent.infidelity, abs=1e-6
        )
        assert scan.rows[1].infidelity > scan.rows[0].infidelity

    def test_scan_decoherence_channel_guard(self):
        with pytest.raises(ValueError):
            scan_decoherence(canonical_config(), "gamma_x", [0.0])


class TestPoisson:
    def test_weights_normalized(self):
        ns, ws = PoissonEnsemble.from_mean(100.0).weights()
        assert ws.sum() == pytest.approx(1.0, abs=1e-12)
        assert ns[np.argmax(ws)] in (99, 100)

    def test_narrow_window_rejected(self):
        with pytest.raises(ValueError):
            PoissonEnsemble(100.0, 99, 101).weights()

    @pytest.mark.parametrize("lam", [1.0, 2.5, 30.0, 100.0, 300.0])
    def test_weights_match_scipy_pmf(self, lam):
        from scipy.stats import poisson

        ns, ws = PoissonEnsemble(lam, 0, int(lam + 10 * lam**0.5 + 10)).weights()
        want = poisson.pmf(ns, lam)
        np.testing.assert_allclose(ws, want / want.sum(), rtol=0, atol=1e-14)

    def test_cli_import_leaves_out_scipy_stats(self):
        code = "import sys, superatom.cli; print('scipy.stats' in sys.modules)"
        run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True)
        assert run.stdout.strip() == "False"

    def test_averaging_constant_returns_constant(self):
        _, ws = PoissonEnsemble.from_mean(50.0).weights()
        c = 0.123
        assert (ws * c).sum() == pytest.approx(c, abs=1e-12)

    def test_poisson_average_structure(self):
        cfg = canonical_config(n_atoms=30, omega_c_mhz=50.0)
        avg = poisson_average(cfg, PoissonEnsemble.from_mean(30.0))
        summary = avg.summary
        assert 0 < summary["mean_success"] < 1
        fixed = next(r for r in avg.rows if r.x == 30)
        assert summary["fixed_n_success"] == fixed.success
        assert summary["fixed_n_infidelity"] == fixed.infidelity
        # herald weighting reweights by success, so the two means differ
        assert summary["mean_infidelity"] != summary["unconditional_mean_infidelity"]
        ns, ws = PoissonEnsemble.from_mean(30.0).weights()
        assert [r.x for r in avg.rows] == ns.tolist()
        assert [r.extra["weight"] for r in avg.rows] == ws.tolist()
        assert avg.resolved == resolve_protocol(cfg)

    def test_truncation_window_insensitive(self):
        cfg = canonical_config(n_atoms=30, omega_c_mhz=50.0)
        a = poisson_average(cfg, PoissonEnsemble.from_mean(30.0, 6.0))
        b = poisson_average(cfg, PoissonEnsemble.from_mean(30.0, 8.0))
        for key in ("mean_infidelity", "mean_success"):
            assert a.summary[key] == pytest.approx(b.summary[key], rel=1e-6)


class TestCollapseRevival:
    def test_stage_one_distribution_binomial_like(self):
        spec = EnsembleSpec(20)
        params = LaserParams(TWO_PI * 1.0, TWO_PI * 10.0, 0.0, 0.0)
        # probe-only evolution of |G> gives a binomial j-distribution with
        # p = sin^2(omega_p t / 2) per atom
        from superatom.dynamics import propagate_pure
        from superatom.hamiltonians import build_dicke_hamiltonian

        t1 = 1.0 / 6.0
        h1 = build_dicke_hamiltonian(LaserParams(params.omega_p, 1e-12, 0, 0), spec)
        psi0 = np.zeros(h1.shape[1], dtype=complex)
        psi0[0] = 1.0
        psi1 = propagate_pure(h1, psi0, [t1])[0]
        pops = np.abs(psi1) ** 2
        p_flip = np.sin(params.omega_p * t1 / 2) ** 2
        from scipy.stats import binom

        for k, idx in enumerate(enumerate_dicke(spec)):
            if idx.s == 0:
                assert pops[k] == pytest.approx(
                    binom.pmf(idx.j, 20, p_flip), abs=1e-8
                )

    def test_demo_returns_rydberg_series(self):
        times = np.linspace(0.01, 4.0, 400)
        traj = collapse_revival_demo(EnsembleSpec(20), TWO_PI * 1.0, TWO_PI * 10.0,
                                     1.0 / 6.0, times)
        p = traj.populations["p_ryd"]
        assert p.shape == times.shape
        assert np.all((0 <= p) & (p <= 1 + 1e-12))

    # the jc-demo parameters of criterion 9 and of the benchmark
    OMEGA_P, OMEGA_C, PULSE = TWO_PI * 1.0, TWO_PI * 10.0, 1.0 / 6.0
    TIMES = np.linspace(0.0, 1.2, 1201)[1:]

    def _demo(self, n_atoms):
        return collapse_revival_demo(EnsembleSpec(n_atoms), self.OMEGA_P,
                                     self.OMEGA_C, self.PULSE, self.TIMES)

    @pytest.mark.parametrize("delta_c_ratio", [0.0])  # jc-demo is resonant
    @pytest.mark.parametrize("n_atoms", [1, 2, 20, 100])
    def test_dressed_frame_matches_pure_propagation(self, n_atoms, delta_c_ratio):
        """The closed form against whole-chain propagation of the propagated
        stage-1 state under the coupling-only Dicke H."""
        want = whole_chain_p_ryd(n_atoms, self.OMEGA_P, self.OMEGA_C, self.PULSE,
                                 self.TIMES, delta_c_ratio * self.OMEGA_C)
        assert np.max(np.abs(self._demo(n_atoms).populations["p_ryd"] - want)) <= 1e-12

    @pytest.mark.parametrize("n_atoms", [20, 100])
    def test_closed_form(self, n_atoms):
        """The run and whole-chain propagation both follow the independently
        written closed form sum_j P_j sin^2(sqrt(j) Omega_c t / 2)."""
        want = collapse_revival_p_ryd(n_atoms, self.OMEGA_P, self.OMEGA_C,
                                      self.PULSE, self.TIMES)
        got = self._demo(n_atoms).populations["p_ryd"]
        assert np.max(np.abs(got - want)) <= 1e-10
        chain = whole_chain_p_ryd(n_atoms, self.OMEGA_P, self.OMEGA_C, self.PULSE,
                                  self.TIMES)
        assert np.max(np.abs(chain - want)) <= 1e-10

    def test_stage_two_needs_no_large_eigh(self, monkeypatch):
        """The demo diagonalizes nothing: no eigh of any size, and no
        propagation."""
        def refuse(*args, **kwargs):
            raise AssertionError("the demo diagonalized or propagated")

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        monkeypatch.setattr(protocol, "propagate_pure", refuse)
        self._demo(100)

    @pytest.mark.parametrize("probe_angle", [np.pi / 3, np.pi, 2 * np.pi],
                             ids=["criterion-9", "pi", "two-pi"])
    @pytest.mark.parametrize("n_atoms", [1, 2, 20, 100])
    def test_stage_one_matches_propagation(self, n_atoms, probe_angle):
        """The closed-form |E^j> weights against the populations of
        propagate_pure on the probe-only Dicke H (Omega_p t1 = probe_angle),
        to 1e-12.  The weights hold no Rydberg population; the oracle's only
        Rydberg amplitude is what its 1e-12 coupling stand-in moves there,
        at most 1e-12 sqrt(N) t1."""
        t1 = probe_angle / self.OMEGA_P
        want = probe_stage_state(n_atoms, self.OMEGA_P, t1)
        theta = probe_angle / 2
        got = protocol._binomial_weights(n_atoms, np.cos(theta), np.sin(theta))
        _, s = dicke_labels(n_atoms)
        assert np.max(np.abs(got - np.abs(want[s == 0]) ** 2)) <= 1e-12
        assert np.max(np.abs(want[s == 1]), initial=0.0) <= 1e-12 * np.sqrt(n_atoms) * t1

    @pytest.mark.parametrize("c,s,j", [(1.0, 0.0, 0), (-1.0, 0.0, 0),
                                       (0.0, 1.0, 7), (0.0, -1.0, 7)])
    def test_stage_one_exact_at_a_pole(self, c, s, j):
        """With sin or cos exactly 0, all of the weight sits on |E^j>:
        exactly 1 there and exactly 0 elsewhere (a zero power of log 0
        would be NaN)."""
        want = np.zeros(8)
        want[j] = 1.0
        assert np.array_equal(protocol._binomial_weights(7, c, s), want)

    @pytest.mark.parametrize("scale", [1.0 + 1e-9, np.nan])
    def test_stage_one_norm_checked(self, monkeypatch, scale):
        """Weights that do not sum to 1, or are not finite, fail the norm
        check."""
        real = protocol._binomial_weights
        monkeypatch.setattr(protocol, "_binomial_weights",
                            lambda *args: real(*args) * scale)
        with pytest.raises(NumericalFailure, match="norm not conserved"):
            self._demo(20)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_non_finite_population_fails(self):
        """A coupling whose phases are not finite gives a NaN p_ryd."""
        with pytest.raises(NumericalFailure, match="non-finite"):
            collapse_revival_demo(EnsembleSpec(20), self.OMEGA_P, np.inf,
                                  self.PULSE, self.TIMES)
