"""End-to-end heralded W-state protocol runs and parameter studies.

A run prepares |G>, applies a constant probe pulse (default a pi-pulse of
the effective two-level model), and reads out the herald observables:
success probability (total Rydberg population) and false-herald fraction
(Rydberg population outside |ER> over total Rydberg population).  The
parameter studies scan the coupling laser, the atom number and the decay
rates; the collapse-revival demo evaluates the resonant Jaynes-Cummings
law of the collective |E^j> ladder in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from math import cos, inf, isnan, lgamma, log, nan, pi, sin, sqrt

import numpy as np

from .basis import (
    LEVEL_R,
    N_MAX_DICKE,
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
from .dynamics import (
    NORM_TOL,
    DecoherenceRates,
    NumericalFailure,
    Trajectory,
    check_density_capacity,
    check_lindblad_work,
    evolve_lindblad,
    hermitian_bands,
    propagate_pure,
)
from .hamiltonians import (
    TWO_PI,
    LaserParams,
    _two_plus_in_dicke,
    build_dicke_hamiltonian,
    build_product_hamiltonian,
    build_restricted_hamiltonian,
    resonance_probe_detuning,
    second_order_reduction,
    single_atom_hamiltonian,
    symmetric_block,
)

MODELS = ("full", "dicke", "restricted6", "effective2", "lindblad")
NO_HERALD_EPS = 1e-12  # Rydberg population at or below which no ion is heralded


@dataclass(frozen=True)
class ProtocolConfig:
    """Specification of one protocol run.

    Exactly one of params.omega_p (> 0) or effective_rabi_target drives the
    other; delta_p of params may be NaN to request automatic resolution via
    the |2+> resonance condition with second-order compensation.
    """

    spec: EnsembleSpec
    params: LaserParams
    rates: DecoherenceRates = DecoherenceRates()
    pulse_time: float | None = None  # us; default pi/omega_eff
    effective_rabi_target: float | None = None  # rad/us

    def __post_init__(self):
        if self.pulse_time is not None and self.pulse_time <= 0:
            raise ValueError("pulse_time must be > 0")
        if (self.effective_rabi_target is not None) == (self.params.omega_p > 0):
            raise ValueError(
                "exactly one of omega_p and effective_rabi_target must be set"
            )


@dataclass(frozen=True)
class ResolvedProtocol:
    """All laser parameters and derived quantities pinned down for a run.

    omega_eff and delta_eff are NaN on a point that was not reduced (a
    scan-n atom number under a model that does not read them).  two_plus
    holds |2+> on the first five Dicke positions, where all of its weight
    lies; it depends on the laser parameters alone, so it holds at every N.
    """

    spec: EnsembleSpec
    params: LaserParams  # omega_p and delta_p fully resolved
    rates: DecoherenceRates
    omega_eff: float
    delta_eff: float
    delta_p_resonance: float
    pulse_time: float
    two_plus: np.ndarray = field(compare=False, repr=False)


@dataclass
class ProtocolResult:
    success_probability: float
    infidelity: float | None
    trajectory: Trajectory
    resolved: ResolvedProtocol


def _check_omega_eff(omega_eff: float) -> None:
    if not 0.0 < omega_eff < inf:
        raise BasisError(f"effective coupling {omega_eff} is not positive and finite")


def resolve_protocol(cfg: ProtocolConfig) -> ResolvedProtocol:
    """Solve omega_p, delta_p and the pulse time from the configured knobs,
    with one second-order reduction."""
    spec, params = cfg.spec, cfg.params
    dp_res = resonance_probe_detuning(params.omega_c, params.delta_c)
    probe = params.replace(delta_p=dp_res)
    if cfg.effective_rabi_target is None:
        omega_eff, delta_eff = second_order_reduction(probe, spec)
    else:
        # The probe has no diagonal element in the dressed frame, so at
        # second order omega_eff and delta_eff both scale as omega_p^2:
        # solve omega_p from a unit-probe reduction and scale it.
        coef, shift = second_order_reduction(probe.replace(omega_p=1.0), spec)
        if coef <= 0:
            raise BasisError("effective coupling vanished; cannot solve omega_p")
        probe = probe.replace(omega_p=sqrt(cfg.effective_rabi_target / coef))
        omega_eff, delta_eff = coef * probe.omega_p**2, shift * probe.omega_p**2
    if np.isnan(params.delta_p):
        delta_p = dp_res + delta_eff / 2.0
    else:
        delta_p = params.delta_p
    final = probe.replace(delta_p=delta_p)
    _check_omega_eff(omega_eff)
    pulse_time = cfg.pulse_time if cfg.pulse_time is not None else pi / omega_eff
    if not pulse_time < inf:
        raise BasisError(f"pulse time {pulse_time} us is not finite")
    return ResolvedProtocol(
        spec=spec,
        params=final,
        rates=cfg.rates,
        omega_eff=omega_eff,
        delta_eff=delta_eff,
        delta_p_resonance=dp_res,
        pulse_time=pulse_time,
        two_plus=_two_plus_in_dicke(final, EnsembleSpec(2)),
    )


AUTO_DELTA_P = float("nan")


def _herald_trajectory(times, spec, pops, p_ryd, p_2plus) -> Trajectory:
    """The readout every model shares, from Dicke populations (T, 2N+1), the
    total Rydberg population (T,) and the |2+> population (T,).

    The column "infidelity" is the false-herald fraction of every time: the
    share of the Rydberg population outside |ER>, NaN (undefined) where
    p_ryd <= NO_HERALD_EPS."""

    def pop(j, s):
        return pops[:, dicke_position(spec, DickeIndex(j, s))]

    p_er = pop(1, 1)
    return Trajectory(times=times, populations={
        "p_G": pops[:, 0],
        "p_E": pop(1, 0),
        "p_R": pop(0, 1),
        "p_E2": pop(2, 0),
        "p_ER": p_er,
        "p_ryd": p_ryd,
        "p_2plus": p_2plus,
        "infidelity": np.divide(p_ryd - p_er, p_ryd, out=np.full(p_ryd.shape, nan),
                                where=p_ryd > NO_HERALD_EPS),
    })


def _pure_readout(times, spec, amps, two_plus) -> Trajectory:
    """Readout of pure states given by their Dicke amplitudes (T, 2N+1)."""
    pops = np.abs(amps) ** 2
    _, s = dicke_labels(spec.n_atoms)
    return _herald_trajectory(
        times, spec, pops, pops[:, s == 1].sum(axis=1), np.abs(amps @ two_plus) ** 2
    )


def _density_readout(times, spec, rhos, two_plus) -> Trajectory:
    """Readout of product-basis density matrices (T, dim, dim).

    Single-atom decay leaves the symmetric subspace, so the herald counts
    the Rydberg population of every product state; the rest is read from
    the Dicke block S^T rho S.
    """
    ryd = (product_basis(spec) == LEVEL_R).any(axis=1)
    S = symmetrizer(spec)
    rho_d = S.T @ rhos @ S
    return _herald_trajectory(
        times, spec, np.einsum("taa->ta", rho_d).real,
        np.einsum("tii->ti", rhos).real[:, ryd].sum(axis=1),
        (two_plus @ rho_d @ two_plus).real,
    )


def _pure_model(model: str, res: ResolvedProtocol, two_plus: np.ndarray):
    """(lower bands of H, as propagate_pure takes them; columns mapping its
    amplitudes to Dicke amplitudes, or None when they already are Dicke
    amplitudes).  Every model holds |G> at position 0.

    The full model builds the product-basis Hamiltonian and propagates its
    exchange-symmetric block S^T H S, which symmetric_block checks exactly:
    from the symmetric |G> the state never leaves span(S).
    """
    spec, params = res.spec, res.params
    if model == "dicke":
        return build_dicke_hamiltonian(params, spec), None
    if model == "full":
        h = symmetric_block(build_product_hamiltonian(params, spec), spec)
        return hermitian_bands(h), None
    if model == "restricted6":
        h, columns = build_restricted_hamiltonian(params, spec)
        return hermitian_bands(h), columns.T
    # effective2: two-level model in the {|G>, |2+>} frame; residual detuning
    # from the difference between the configured delta_p and exact compensation
    d_resid = -2.0 * (params.delta_p - res.delta_p_resonance) + res.delta_eff
    bands = np.array([[0.0, d_resid], [res.omega_eff / 2.0, 0.0]])
    ground = np.zeros_like(two_plus)
    ground[0] = 1.0
    return bands, np.array([ground, two_plus])


def run_protocol(
    cfg: ProtocolConfig | ResolvedProtocol, model: str = "dicke", n_times: int = 201
) -> ProtocolResult:
    """Propagate |G> for the pulse time under the chosen model; a
    ResolvedProtocol is run as it stands, without a second resolution."""
    if model not in MODELS:
        raise ValueError(f"unknown model {model!r}; choose from {MODELS}")
    if model == "lindblad":
        check_density_capacity(cfg.spec)
    res = cfg if isinstance(cfg, ResolvedProtocol) else resolve_protocol(cfg)
    spec = res.spec
    times = np.linspace(0.0, res.pulse_time, n_times)[1:]
    two_plus = np.zeros(dicke_dimension(spec.n_atoms))
    two_plus[:5] = res.two_plus

    if model == "lindblad":
        dim = product_dimension(spec.n_atoms)
        rho0 = np.zeros((dim, dim))
        rho0[0, 0] = 1.0  # |G>
        rhos = evolve_lindblad(single_atom_hamiltonian(res.params), res.rates, spec,
                               rho0, times)
        traj = _density_readout(times, spec, rhos, two_plus)
    else:
        bands, columns = _pure_model(model, res, two_plus)
        psi0 = np.zeros(bands.shape[1], dtype=complex)
        psi0[0] = 1.0
        amps = propagate_pure(bands, psi0, times)
        if columns is not None:
            amps = amps @ columns
        traj = _pure_readout(times, spec, amps, two_plus)

    p_ryd, infid = (float(traj.populations[k][-1]) for k in ("p_ryd", "infidelity"))
    return ProtocolResult(
        success_probability=p_ryd,
        infidelity=None if isnan(infid) else infid,
        trajectory=traj,
        resolved=res,
    )


# ---------------------------------------------------------------------------
# parameter scans


@dataclass
class ScanRow:
    x: float
    success: float
    infidelity: float | None
    extra: dict = field(default_factory=dict)


def _scan_row(x, cfg, model: str, **extra) -> ScanRow:
    """Run one scan point to its pulse end, its only output time."""
    res = run_protocol(cfg, model, n_times=2)
    return ScanRow(float(x), res.success_probability, res.infidelity, extra)


@dataclass
class ScanResult:
    rows: list[ScanRow]
    summary: dict  # the scalar results over the grid, as summary.json holds them
    resolved: ResolvedProtocol  # of the unscanned config


def _parabolic_refine(xs, ys, k):
    """Vertex of the parabola through points k-1, k, k+1.

    The grid point itself is returned at an edge or when a neighbour's
    value is undefined (None).
    """
    if k == 0 or k == len(xs) - 1 or ys[k - 1] is None or ys[k + 1] is None:
        return xs[k], ys[k]
    x0, x1, x2 = xs[k - 1], xs[k], xs[k + 1]
    y0, y1, y2 = ys[k - 1], ys[k], ys[k + 1]
    denom = (x0 - x1) * (x0 - x2) * (x1 - x2)
    a = (x2 * (y1 - y0) + x1 * (y0 - y2) + x0 * (y2 - y1)) / denom
    b = (x2**2 * (y0 - y1) + x1**2 * (y2 - y0) + x0**2 * (y1 - y2)) / denom
    if a <= 0:
        return x1, y1
    xv = -b / (2 * a)
    c = y1 - a * x1**2 - b * x1
    return xv, a * xv**2 + b * xv + c


def scan_delta_c(cfg: ProtocolConfig, ratios, model: str = "dicke") -> ScanResult:
    """Sweep delta_c/omega_c at fixed effective Rabi target.

    For each point omega_p is re-solved so the second-order effective Rabi
    frequency matches the configured target, delta_p follows the resonance
    condition with compensation, and the pulse is a pi-pulse.
    """
    if cfg.effective_rabi_target is None:
        raise ValueError("scan_delta_c requires an effective_rabi_target")
    resolved = resolve_protocol(cfg)
    pts = [
        replace(
            cfg,
            params=cfg.params.replace(
                delta_c=r * cfg.params.omega_c, delta_p=AUTO_DELTA_P
            ),
        )
        for r in ratios
    ]
    rows = [_scan_row(r, c, model) for r, c in zip(ratios, pts)]
    xs = [row.x for row in rows]
    ys = [row.infidelity for row in rows]
    defined = [i for i, y in enumerate(ys) if y is not None]
    if not defined:
        raise NumericalFailure("infidelity undefined at every scan point")
    k = min(defined, key=lambda i: ys[i])
    x_min, y_min = _parabolic_refine(xs, ys, k)
    return ScanResult(
        rows, {"minimum": {"delta_c_over_omega_c": x_min, "infidelity": y_min}},
        resolved,
    )


# Smallest atom number of a Poisson window: |2+> needs two atoms.
POISSON_N_FLOOR = 2


@dataclass(frozen=True)
class PoissonEnsemble:
    """Truncated, renormalized Poisson atom-number distribution."""

    mean_atoms: float
    n_min: int
    n_max: int

    @classmethod
    def from_mean(cls, lam: float,
                  half_width_sigmas: float = 6.0) -> "PoissonEnsemble":
        hw = half_width_sigmas * sqrt(lam)
        if lam + hw > N_MAX_DICKE:
            raise CapacityError(
                f"Poisson window up to N={lam + hw:.6g} exceeds limit {N_MAX_DICKE}"
            )
        return cls(lam, max(POISSON_N_FLOOR, int(np.floor(lam - hw))),
                   int(np.ceil(lam + hw)))

    def weights(self) -> tuple[np.ndarray, np.ndarray]:
        ns = np.arange(self.n_min, self.n_max + 1)
        lam = self.mean_atoms
        log_fact = np.array([lgamma(n + 1) for n in ns.tolist()])
        w = np.exp(ns * log(lam) - lam - log_fact)  # Poisson pmf
        if w.sum() < 1.0 - 1e-6:
            raise ValueError("truncation window covers < 1 - 1e-6 of mass")
        return ns, w / w.sum()


def poisson_average(
    cfg: ProtocolConfig, ensemble: PoissonEnsemble, model: str = "dicke"
) -> ScanResult:
    """Average over atom number with laser parameters fixed at N = mean;
    each row's extra holds its weight p(N).

    The infidelity average is herald-weighted (weights p(N)*success(N)):
    fidelity is conditional on detecting an ion.  The plain p(N)-weighted
    average is also reported.
    """
    lam = int(round(ensemble.mean_atoms))
    ref = resolve_protocol(replace(cfg, spec=EnsembleSpec(lam)))

    ns, ws = ensemble.weights()
    probe = ref.params.replace(delta_p=ref.delta_p_resonance)

    def point(n):  # the N = mean resolution at N; only effective2 reads a reduction
        spec = EnsembleSpec(int(n))
        if model != "effective2":
            return replace(ref, spec=spec, omega_eff=nan, delta_eff=nan)
        omega_eff, delta_eff = second_order_reduction(probe, spec)
        _check_omega_eff(omega_eff)
        return replace(ref, spec=spec, omega_eff=omega_eff, delta_eff=delta_eff)

    rows = [_scan_row(n, point(n), model, weight=w) for n, w in zip(ns, ws)]
    if all(r.infidelity is None for r in rows):
        raise NumericalFailure(
            f"infidelity undefined at every atom number N = {ns[0]}..{ns[-1]}"
        )
    succ = np.array([r.success for r in rows])
    infid = np.array([0.0 if r.infidelity is None else r.infidelity for r in rows])
    herald_w = ws * succ
    fixed = next(r for r in rows if int(r.x) == lam)
    return ScanResult(rows, {
        "mean_success": float(herald_w.sum()),
        "mean_infidelity": float((herald_w * infid).sum() / herald_w.sum()),
        "unconditional_mean_infidelity": float((ws * infid).sum()),
        "fixed_n_success": fixed.success,
        "fixed_n_infidelity": fixed.infidelity,
    }, ref)


def scan_omega_c(
    cfg: ProtocolConfig, omega_c_grid, model: str = "dicke"
) -> ScanResult:
    """Sweep omega_c at fixed effective Rabi target; summarizes the log-log
    slope and whether every point is within its 10*w_eff/w_c bound."""
    if cfg.effective_rabi_target is None:
        raise ValueError("scan_omega_c requires an effective_rabi_target")
    resolved = resolve_protocol(cfg)
    pts = [
        replace(
            cfg,
            params=cfg.params.replace(
                omega_c=wc, delta_c=-wc / 2.0, delta_p=AUTO_DELTA_P
            ),
        )
        for wc in omega_c_grid
    ]
    rows = [
        _scan_row(wc, c, model, bound=10.0 * cfg.effective_rabi_target / wc)
        for wc, c in zip(omega_c_grid, pts)
    ]
    for r in rows:
        if r.infidelity is None or r.infidelity <= 0:
            value = "undefined" if r.infidelity is None else f"{r.infidelity:.12g}"
            raise NumericalFailure(
                f"infidelity {value} at omega_c = {r.x / TWO_PI:.12g} MHz; "
                "the log-log fit needs a positive infidelity at every point"
            )
    xs = np.log([r.x for r in rows])
    ys = np.log([r.infidelity for r in rows])
    return ScanResult(rows, {
        "log_log_slope": float(np.polyfit(xs, ys, 1)[0]),
        "bound_satisfied": all(r.infidelity <= r.extra["bound"] for r in rows),
    }, resolved)


def _integrated_level_population(res: ResolvedProtocol, which: str) -> float:
    """Time integral of <n_e> (gamma_e) or <n_r> (gamma_r, gamma_d) over the
    coherent pulse; Gamma times this is the expected number of decay events."""
    bands = build_dicke_hamiltonian(res.params, res.spec)
    times = np.linspace(0.0, res.pulse_time, 201)[1:]
    psi0 = np.zeros(bands.shape[1], dtype=complex)
    psi0[0] = 1.0
    pops = np.abs(propagate_pure(bands, psi0, times)) ** 2
    j, s = dicke_labels(res.spec.n_atoms)
    weight = (j if which == "gamma_e" else s).astype(float)
    return float(np.trapezoid(pops @ weight, times))


def scan_decoherence(cfg: ProtocolConfig, which: str, grid) -> ScanResult:
    """Lindblad infidelity vs one decoherence rate (others zero).

    Besides the raw slope against the rate, the slope against the
    time-integrated decay probability Gamma * int <n> dt is reported;
    the latter is the natural sensitivity measure for comparing channels.
    The master-equation work is checked at the largest rate before any
    point runs.
    """
    if which not in ("gamma_e", "gamma_r", "gamma_d"):
        raise ValueError(f"unknown decoherence channel {which!r}")
    res = resolve_protocol(cfg)  # the rates do not enter the resolution
    check_density_capacity(res.spec)
    check_lindblad_work(single_atom_hamiltonian(res.params),
                        DecoherenceRates(**{which: float(np.max(grid))}), res.spec,
                        res.pulse_time)
    pts = [replace(res, rates=DecoherenceRates(**{which: float(g)})) for g in grid]
    rows = [_scan_row(g, c, "lindblad") for g, c in zip(grid, pts)]
    for r in rows:
        if r.infidelity is None:
            raise NumericalFailure(
                f"infidelity undefined at {which} = {r.x:.12g} rad/us; "
                "the line fit needs every point"
            )
    xs = np.array([r.x for r in rows])
    ys = np.array([r.infidelity for r in rows])
    slope, intercept = np.polyfit(xs, ys, 1)
    pred = slope * xs + intercept
    ss_res = float(((ys - pred) ** 2).sum())
    ss_tot = float(((ys - ys.mean()) ** 2).sum())
    integ = _integrated_level_population(res, which)
    return ScanResult(rows, {
        # d(infidelity)/d(rate), converted to per MHz of Gamma/2pi
        "slope_per_mhz": float(slope) * TWO_PI,
        # d(infidelity)/d(Gamma * int <n> dt), dimensionless
        "slope_per_decay": float(slope) / integ,
        "integrated_population_us": integ,
        "intercept": float(intercept),
        "r_squared": 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0,
    }, res)


def _binomial_weights(n_atoms: int, c: float, s: float) -> np.ndarray:
    """P_j = C(N, j) c^(2(N-j)) s^(2j) for j = 0..N: the |E^j> weights of
    the product state (c|g> - i s|e>)^N.

    Computed in log space so that the binomial factor does not overflow at
    large N; a zero power contributes 1, also when its base is 0.
    """
    j = np.arange(n_atoms + 1)
    k = n_atoms - j
    log_fact = np.array([lgamma(m + 1) for m in range(n_atoms + 1)])
    with np.errstate(divide="ignore"):
        log_c, log_s = 2.0 * np.log(abs(c)), 2.0 * np.log(abs(s))
    log_w = log_fact[-1] - log_fact - log_fact[::-1]
    log_w += np.multiply(k, log_c, out=np.zeros(n_atoms + 1), where=k > 0)
    log_w += np.multiply(j, log_s, out=np.zeros(n_atoms + 1), where=j > 0)
    return np.exp(log_w)


def collapse_revival_demo(
    spec: EnsembleSpec,
    omega_p: float,
    omega_c: float,
    probe_pulse_time: float,
    times,
) -> Trajectory:
    """Resonant two-stage Jaynes-Cummings demo on the super-atom.

    Stage 1, the probe alone at delta_p = 0, turns every atom by itself:
    g -> cos(theta) g - i sin(theta) e with theta = Omega_p t1 / 2, so
    |E^j> holds the binomial weight P_j (_binomial_weights).  Stage 2, the
    coupling laser alone at delta_c = 0, flops each |E^j> with |E^{j-1}R>
    at sqrt(j) Omega_c, which gives collapse and revival of
    p_ryd(t) = sum_j P_j sin^2(sqrt(j) Omega_c t / 2)
    (Eberly, Narozhny & Sanchez-Mondragon, PRL 44, 1323 (1980)).
    """
    theta = omega_p * probe_pulse_time / 2.0
    weights = _binomial_weights(spec.n_atoms, cos(theta), sin(theta))
    # "not <=" so that a NaN sum fails the check
    if not abs(weights.sum() - 1.0) <= NORM_TOL:
        raise NumericalFailure("norm not conserved by the probe stage")
    times = np.asarray(times, dtype=float)
    half_rabi = np.sqrt(np.arange(1, spec.n_atoms + 1)) * (omega_c / 2.0)
    sines = np.multiply.outer(times, half_rabi)  # (T, N), squared in place
    np.sin(sines, out=sines)
    np.square(sines, out=sines)
    p_ryd = sines @ weights[1:]
    if not np.isfinite(p_ryd).all():
        raise NumericalFailure("non-finite Rydberg population")
    return Trajectory(times=times, populations={"p_ryd": p_ryd})
