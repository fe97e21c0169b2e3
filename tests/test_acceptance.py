"""End-to-end acceptance gate: one test per headline reproduction target.

Each test prints a single PASS/FAIL line (with its measured numbers) and
then asserts, so `pytest -v` doubles as the acceptance report.  Tolerances
are stated inline next to each check.
"""

import numpy as np
import pytest
from scipy.linalg import expm

from oracles import ProductBasis, dicke_matrix, liouvillian, whole_chain_p_ryd
from superatom.basis import EnsembleSpec, product_dimension, symmetrizer
from superatom.dynamics import (
    DecoherenceRates,
    evolve_lindblad,
    hermitian_bands,
    propagate_pure,
)
from superatom.hamiltonians import (
    TWO_PI,
    LaserParams,
    build_product_hamiltonian,
    single_atom_hamiltonian,
)
from superatom.ion_escape import (
    IonEscapeConfig,
    ballistic_escape_time,
    simulate_escape,
)
from superatom.protocol import (
    AUTO_DELTA_P,
    PoissonEnsemble,
    ProtocolConfig,
    _density_readout,
    collapse_revival_demo,
    poisson_average,
    resolve_protocol,
    run_protocol,
    scan_decoherence,
    scan_delta_c,
    scan_omega_c,
)


def report(name: str, ok: bool, detail: str) -> bool:
    print(f"criterion {name}: {'PASS' if ok else 'FAIL'} — {detail}")
    return ok


def canonical(n_atoms, omega_c_mhz, target_mhz=0.1, **kw):
    omega_c = TWO_PI * omega_c_mhz
    return ProtocolConfig(
        spec=EnsembleSpec(n_atoms),
        params=LaserParams(0.0, omega_c, AUTO_DELTA_P, -omega_c / 2),
        effective_rabi_target=TWO_PI * target_mhz,
        **kw,
    )


def test_criterion_1_reduced_model_hierarchy():
    """N=4, coupling 10 MHz, probe 0.7 MHz: ground<->|2+> oscillation with
    period within 10% of pi/omega_eff; 6-state model within 0.02 of the
    full model; 2-state model within 0.05."""
    omega_c = TWO_PI * 10.0
    params = LaserParams(TWO_PI * 0.7, omega_c, AUTO_DELTA_P, -omega_c / 2)
    cfg = ProtocolConfig(spec=EnsembleSpec(4), params=params)
    res = resolve_protocol(cfg)
    t_pi = np.pi / res.omega_eff

    # extend past the pi-pulse so the peak is interior, then extract it
    wide = ProtocolConfig(
        spec=EnsembleSpec(4), params=params, pulse_time=1.6 * t_pi
    )
    full_w = run_protocol(wide, "full", n_times=801)
    p2 = full_w.trajectory.populations["p_2plus"]
    t_peak = full_w.trajectory.times[np.argmax(p2)]
    period_err = abs(t_peak - t_pi) / t_pi

    full = run_protocol(cfg, "full", n_times=401)
    r6 = run_protocol(cfg, "restricted6", n_times=401)
    e2 = run_protocol(cfg, "effective2", n_times=401)
    ref = full.trajectory.populations["p_2plus"]
    dev6 = float(np.max(np.abs(ref - r6.trajectory.populations["p_2plus"])))
    dev2 = float(np.max(np.abs(ref - e2.trajectory.populations["p_2plus"])))

    checks = [period_err <= 0.10, dev6 <= 0.02, dev2 <= 0.05]
    ok = report(
        "1 (reduced-model hierarchy)",
        all(checks),
        f"period err {period_err:.3f} (<=0.10), 6-state dev {dev6:.4f} "
        f"(<=0.02), 2-state dev {dev2:.4f} (<=0.05)",
    )
    assert ok


def test_criterion_2_stronger_coupling_regime():
    """Coupling 50 MHz / probe 1.6 MHz transfers better than 20/1.0 and its
    extracted period matches pi/omega_eff within 3%."""
    out = {}
    for op, oc in ((1.0, 20.0), (1.6, 50.0)):
        omega_c = TWO_PI * oc
        params = LaserParams(TWO_PI * op, omega_c, AUTO_DELTA_P, -omega_c / 2)
        res = resolve_protocol(ProtocolConfig(spec=EnsembleSpec(4), params=params))
        wide = ProtocolConfig(
            spec=EnsembleSpec(4), params=params,
            pulse_time=1.3 * np.pi / res.omega_eff,
        )
        r = run_protocol(wide, "full", n_times=801)
        p2 = r.trajectory.populations["p_2plus"]
        t_peak = r.trajectory.times[np.argmax(p2)]
        out[oc] = (float(p2.max()), abs(t_peak - np.pi / res.omega_eff)
                   * res.omega_eff / np.pi)
    peak_20, _ = out[20.0]
    peak_50, period_err = out[50.0]
    checks = [peak_50 > peak_20, period_err <= 0.03]
    ok = report(
        "2 (weak-probe regime)",
        all(checks),
        f"peak(50 MHz) {peak_50:.4f} > peak(20 MHz) {peak_20:.4f}, "
        f"period err {period_err:.4f} (<=0.03)",
    )
    assert ok


def test_criterion_3_coupling_detuning_scan():
    """N=3, coupling 20 MHz: infidelity minimum at delta_c/omega_c = -0.5
    +- 0.1; success 2/3 +- 0.05 there; success >= 0.85 at ratio -2."""
    cfg = canonical(3, 20.0)
    scan = scan_delta_c(cfg, np.linspace(-2.2, -0.3, 39))
    x_min = scan.summary["minimum"]["delta_c_over_omega_c"]
    at_half = min(scan.rows, key=lambda r: abs(r.x + 0.5))
    at_two = min(scan.rows, key=lambda r: abs(r.x + 2.0))
    checks = [
        abs(x_min + 0.5) <= 0.1,
        abs(at_half.success - 2 / 3) <= 0.05,
        at_two.success >= 0.85,
    ]
    ok = report(
        "3 (detuning scan)",
        all(checks),
        f"minimum at {x_min:.3f} (-0.5±0.1), success(-0.5) {at_half.success:.3f} "
        f"(2/3±0.05), success(-2) {at_two.success:.3f} (>=0.85)",
    )
    assert ok


def test_criterion_4_poisson_average():
    """lambda=100, coupling 100 MHz: fixed-N infidelity 1.14% +- 0.25 pp and
    Poisson-averaged value within 0.1 pp of it."""
    cfg = canonical(100, 100.0)
    summary = poisson_average(cfg, PoissonEnsemble.from_mean(100.0)).summary
    fixed = summary["fixed_n_infidelity"]
    gap = abs(summary["mean_infidelity"] - fixed)
    checks = [abs(fixed - 0.0114) <= 0.0025, gap <= 0.001]
    ok = report(
        "4 (Poisson atom-number average)",
        all(checks),
        f"fixed-N infidelity {100*fixed:.3f}% (1.14±0.25), Poisson gap "
        f"{100*gap:.4f} pp (<=0.1)",
    )
    assert ok


def test_criterion_5_coupling_strength_scan():
    """Fixed omega_eff/2pi = 0.1 MHz: log-log slope -1 +- 0.15; < 1% beyond
    100 MHz; <= 10*omega_eff/omega_c everywhere, for N in {3, 10, 50}."""
    grid_mhz = np.array([20.0, 30.0, 50.0, 70.0, 100.0, 140.0, 200.0])
    details, checks = [], []
    for n in (3, 10, 50):
        scan = scan_omega_c(canonical(n, 20.0), TWO_PI * grid_mhz)
        infid = np.array([r.infidelity for r in scan.rows])
        bound = np.array([r.extra["bound"] for r in scan.rows])
        slope = scan.summary["log_log_slope"]
        below_1pct = bool(np.all(infid[grid_mhz >= 100.0] < 0.01))
        bounded = bool(np.all(infid <= bound))
        checks += [abs(slope + 1.0) <= 0.15, below_1pct, bounded]
        details.append(
            f"N={n}: slope {slope:.3f}, <1%@>=100MHz {below_1pct}, "
            f"bounded {bounded} (max infid/bound {np.max(infid/bound):.2f})"
        )
    ok = report("5 (coupling-strength scan)", all(checks), "; ".join(details))
    assert ok


def test_criterion_6_decoherence_scans():
    """N=3, coupling 100 MHz Lindblad scans: linear in each rate (R^2>0.99);
    sensitivity per decay event ~5x smaller for Rydberg than intermediate
    decay (5 +- 2.5)."""
    cfg = canonical(3, 100.0)
    grid = TWO_PI * np.linspace(0.0, 1e-3, 6)  # Gamma/2pi up to 1 kHz
    scans = {
        ch: scan_decoherence(cfg, ch, grid)
        for ch in ("gamma_e", "gamma_r", "gamma_d")
    }
    r2s = {ch: s.summary["r_squared"] for ch, s in scans.items()}
    ratio = (scans["gamma_e"].summary["slope_per_decay"]
             / scans["gamma_r"].summary["slope_per_decay"])
    checks = [all(r2 > 0.99 for r2 in r2s.values()), abs(ratio - 5.0) <= 2.5]

    # the gamma = 0 success against the exact exponential of the
    # product-basis Liouvillian (reported, not checked)
    res = scans["gamma_e"].resolved
    dim = product_dimension(3)
    rho0 = np.zeros(dim * dim)
    rho0[0] = 1.0  # |G><G|
    gen = liouvillian(build_product_hamiltonian(res.params, res.spec), []).toarray()
    rho_t = (expm(gen * res.pulse_time) @ rho0).reshape(1, dim, dim)
    exact = _density_readout([res.pulse_time], res.spec, rho_t, np.zeros(7))
    expm_gap = abs(scans["gamma_e"].rows[0].success - exact.populations["p_ryd"][0])
    ok = report(
        "6 (decoherence scans)",
        all(checks),
        f"R^2 {', '.join(f'{ch} {v:.5f}' for ch, v in r2s.items())} (> 0.99); "
        f"per-decay sensitivity ratio e/r {ratio:.2f} (5±2.5); gamma=0 success "
        f"gap to the product-basis expm {expm_gap:.2e}",
    )
    assert ok


def test_criterion_7_ion_escape():
    """Default ion escape: ~25 ns (±30%), within 2% of the cubic kinematics
    oracle; fraction of significantly phase-shifted atoms < 1e-4 at the
    default threshold (threshold sensitivity reported)."""
    cfg = IonEscapeConfig()
    result = simulate_escape(cfg)
    oracle = ballistic_escape_time(cfg)
    thresholds = np.array([1e-3, 1e-2, 1e-1, 0.5, 1.0])
    curve = result.threshold_curve(thresholds)
    checks = [
        abs(result.escape_time - 25.0) <= 0.3 * 25.0,
        abs(result.escape_time - oracle) <= 0.02 * oracle,
        result.fraction_significant < 1e-4,
    ]
    ok = report(
        "7 (ion escape)",
        all(checks),
        f"escape {result.escape_time:.1f} ns (25±30%), oracle dev "
        f"{abs(result.escape_time - oracle) / oracle:.4f} (<=0.02), fraction "
        f"{result.fraction_significant:.2e} (<1e-4); sensitivity "
        + ", ".join(f"{t:g} rad: {f:.1e}" for t, f in zip(thresholds, curve)),
    )
    assert ok


def test_criterion_8_oracle_equivalences():
    """Property oracles: basis equivalence (1e-10), matrix elements vs brute
    force (1e-12, via the unit suite), unitary Lindblad limit (1e-7),
    analytic Rabi and decay (1e-8), conservation invariants."""
    rng = np.random.default_rng(11)
    worst_equiv = 0.0
    for n in (2, 3, 4, 5):
        spec = EnsembleSpec(n)
        S = symmetrizer(spec)
        for _ in range(3):
            params = LaserParams(
                rng.uniform(0, 20), rng.uniform(5, 200),
                rng.uniform(-100, 100), rng.uniform(-100, 100),
            )
            hp = build_product_hamiltonian(params, spec)
            hd = dicke_matrix(params, spec)
            worst_equiv = max(worst_equiv, float(np.max(np.abs(S.T @ hp @ S - hd))))

    # unitary Lindblad limit
    spec = EnsembleSpec(2)
    params = LaserParams(2.0, 15.0, 1.0, -7.5)
    h = build_product_hamiltonian(params, spec)
    pb = ProductBasis(spec)
    psi0 = np.zeros(pb.dim, dtype=complex)
    psi0[pb.index[(0, 0)]] = 1.0
    times = np.linspace(0.05, 1.0, 8)
    rhos = evolve_lindblad(single_atom_hamiltonian(params), DecoherenceRates(), spec,
                           np.outer(psi0, psi0.conj()), times)
    states = propagate_pure(hermitian_bands(h), psi0, times)
    lind_dev = float(
        np.max(np.abs(np.abs(states) ** 2 - np.einsum("tii->ti", rhos).real))
    )
    traces = np.einsum("tii->t", rhos).real
    norm_dev = float(np.max(np.abs(np.linalg.norm(states, axis=1) - 1)))
    trace_dev = float(np.max(np.abs(traces - 1)))

    # analytic single-atom oracles
    spec1 = EnsembleSpec(1)
    pb1 = ProductBasis(spec1)
    omega_p = 3.0
    h1 = build_product_hamiltonian(LaserParams(omega_p, 1e-12, 0, 0), spec1)
    psi = np.zeros(pb1.dim, dtype=complex)
    psi[pb1.index[(0,)]] = 1.0
    ts = np.linspace(0.01, 4.0, 200)
    p_e = np.abs(propagate_pure(hermitian_bands(h1), psi, ts)[:, pb1.index[(1,)]]) ** 2
    rabi_dev = float(np.max(np.abs(p_e - np.sin(omega_p * ts / 2) ** 2)))
    gamma = 1.3
    rho_e = np.zeros((pb1.dim, pb1.dim), dtype=complex)
    rho_e[pb1.index[(1,)], pb1.index[(1,)]] = 1.0
    td = np.linspace(0.1, 2.0, 10)
    decay = evolve_lindblad(np.zeros((3, 3)), DecoherenceRates(gamma_e=gamma), spec1,
                            rho_e, td)[
        :, pb1.index[(1,)], pb1.index[(1,)]
    ].real
    decay_dev = float(np.max(np.abs(decay - np.exp(-gamma * td))))

    checks = [
        worst_equiv < 1e-10,
        lind_dev < 1e-7,
        rabi_dev < 1e-8,
        decay_dev < 1e-8,
        norm_dev < 1e-10,
        trace_dev < 1e-7,
    ]
    ok = report(
        "8 (oracle equivalences)",
        all(checks),
        f"basis equivalence {worst_equiv:.1e} (<1e-10), unitary-limit "
        f"{lind_dev:.1e} (<1e-7), Rabi {rabi_dev:.1e} / decay {decay_dev:.1e} "
        f"(<1e-8), norm {norm_dev:.1e}, trace {trace_dev:.1e}",
    )
    assert ok


def test_criterion_9_collapse_revival():
    """N=20 two-stage run: Rydberg oscillations collapse, then partially
    revive (envelope analysis on p_rydberg), and p_rydberg follows
    whole-chain propagation of the propagated stage-1 state at every
    time."""
    omega_p, omega_c = TWO_PI * 1.0, TWO_PI * 10.0
    times = np.linspace(0.002, 1.2, 1200)
    traj = collapse_revival_demo(EnsembleSpec(20), omega_p, omega_c, 1.0 / 6.0, times)
    p = traj.populations["p_ryd"]
    gap = float(np.max(np.abs(p - whole_chain_p_ryd(
        20, omega_p, omega_c, 1.0 / 6.0, times))))

    def amplitude(t0, t1):
        m = (times >= t0) & (times < t1)
        return float(p[m].max() - p[m].min())

    early = amplitude(0.0, 0.10)  # initial sqrt(j)-ladder Rabi oscillations
    mid = amplitude(0.20, 0.35)  # collapsed region
    revival = amplitude(0.38, 0.55)  # around t ~ 4 pi sqrt(j)/omega_c
    checks = [mid < 0.5 * early, revival > 1.5 * mid, gap <= 1e-10]
    ok = report(
        "9 (collapse and revival)",
        all(checks),
        f"envelope early {early:.3f} -> collapsed {mid:.3f} (<{0.5 * early:.3f})"
        f" -> revival {revival:.3f} (>{1.5 * mid:.3f}); whole-chain gap "
        f"{gap:.1e} (<=1e-10)",
    )
    assert ok
