"""Classical Monte Carlo of the heralding ion's escape from the trap.

After photoionization the ion is extracted by a linearly ramped electric
field.  While it crosses the cloud, its Coulomb field Stark-shifts the
remaining atoms and imprints a phase on each g-e coherence,
phi_i = (d_alpha / 2 hbar) * Integral E_ion(r_i(t))^2 dt.
We integrate the ion's Newtonian motion with velocity-Verlet, accumulate
the per-spectator phases, and report the fraction of atoms whose phase
exceeds a configurable threshold.  Spectators are neutral and frozen on
the ~25 ns escape timescale; the photoelectron leaves far faster than the
ion and its integrated Stark exposure is bounded by the ion's, so it is
not simulated.

Internally SI units (m, s, V/m); the config speaks ns / um.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

E_CHARGE = 1.602176634e-19  # C
HBAR = 1.054571817e-34  # J s
AMU = 1.66053906892e-27  # kg
K_COULOMB = 8.9875517862e9  # N m^2 / C^2

# Differential dc polarizability of the 88Sr 5s2 1S0 - 5s5p 3P0 clock
# transition, literature value (external input, not derived here).
SR_CLOCK_DIFF_POLARIZABILITY = 4.078e-39  # C m^2 / V

NO_ESCAPE = float("inf")

# Cap on the velocity-Verlet steps over the horizon, max_time / time_step.
# A step costs about 21 us for one trajectory of 100 atoms and 76 us for 100
# such trajectories (median of 3 runs of 2e4 steps with no ramp field, so no
# ion escapes; one BLAS thread, 2-core x86-64, numpy 2.4), so a run at the
# cap that no ion escapes takes about 21 s and 76 s; the default horizon is
# 3e4 steps.
ION_MAX_STEPS = 10**6

MAX_TIME_STEP_NS = 0.1  # largest velocity-Verlet step


@dataclass(frozen=True)
class IonEscapeConfig:
    """Extraction-field ramp, trap geometry and Monte Carlo controls."""

    ramp_field_max: float = 1e5  # V/m (1 kV/cm)
    ramp_time: float = 300.0  # ns
    trap_diameter: float = 1.0  # um, escape distance for the ion
    trap_volume: float = 1.0  # um^3, sampling volume for atom positions
    n_atoms: int = 100
    ion_mass: float = 88.0  # amu
    differential_polarizability: float = SR_CLOCK_DIFF_POLARIZABILITY  # C m^2/V
    phase_threshold: float = 0.01  # rad; "significant" phase (artifact choice)
    softening_radius: float = 5e-3  # um; closer approaches count as collisions
    n_trajectories: int = 100
    rng_seed: int = 0
    ion_start: str = "uniform"  # "uniform" in the cloud or "center"
    time_step: float = MAX_TIME_STEP_NS  # ns, velocity-Verlet step
    max_time: float | None = None  # ns horizon; default 10x ramp_time

    def __post_init__(self):
        positive = (
            "ramp_time", "trap_diameter", "trap_volume", "ion_mass",
            "phase_threshold", "softening_radius", "time_step",
        )
        for name in positive:
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")
        if self.ramp_field_max < 0:
            raise ValueError("ramp_field_max must be >= 0")
        if self.n_atoms < 2:
            raise ValueError("need at least one spectator atom")
        if self.n_trajectories < 1:
            raise ValueError("n_trajectories must be >= 1")
        if self.differential_polarizability < 0:
            raise ValueError("differential_polarizability must be >= 0")
        if self.ion_start not in ("uniform", "center"):
            raise ValueError("ion_start must be 'uniform' or 'center'")
        if self.time_step > MAX_TIME_STEP_NS:
            raise ValueError(f"time_step must be <= {MAX_TIME_STEP_NS} ns")

    @property
    def horizon(self) -> float:
        return 10.0 * self.ramp_time if self.max_time is None else self.max_time


@dataclass
class EscapeResult:
    """Aggregate of the escape kinematics and spectator phase statistics."""

    escape_time: float  # ns (inf when the ion never exits within the horizon)
    escape_time_std: float  # ns, spread over trajectories
    per_atom_phases: np.ndarray  # rad, (n_trajectories * (n_atoms-1),)
    fraction_significant: float
    external_field_phase: float  # rad, ramp field alone, at escape (nan if none)
    n_close_collisions: int
    energy_balance_error: float  # relative |KE - work| at exit, worst case

    def threshold_curve(self, thresholds) -> np.ndarray:
        """fraction_significant as a function of the phase threshold."""
        th = np.asarray(thresholds, dtype=float)
        ph = self.per_atom_phases
        return np.array([np.mean(ph > t) for t in th])


def ballistic_escape_time(cfg: IonEscapeConfig) -> float:
    """Closed-form time (ns) to travel one trap diameter under the ramp.

    During the ramp the acceleration is a(t) = qE_max t / (m tau), so
    x(t) = qE_max t^3 / (6 m tau); invert for x = trap_diameter.
    """
    force = E_CHARGE * cfg.ramp_field_max  # 0 also when a subnormal field underflows
    if force == 0:
        return NO_ESCAPE
    m = cfg.ion_mass * AMU
    tau = cfg.ramp_time * 1e-9
    d = cfg.trap_diameter * 1e-6
    t = (6.0 * m * tau * d / force) ** (1.0 / 3.0)
    if t <= tau:
        return t * 1e9
    # past the ramp the field is constant; continue with matched x, v
    x_tau = force * tau**2 / (6.0 * m)
    v_tau = force * tau / (2.0 * m)
    a = force / m
    dt = (-v_tau + np.sqrt(v_tau**2 + 2.0 * a * (d - x_tau))) / a
    return (tau + dt) * 1e9


def ramp_field_phase(cfg: IonEscapeConfig, t_ns: float | None = None) -> float:
    """Phase (rad) the ramp field itself puts on a g-e coherence by time t.

    phi(t) = (d_alpha / 2 hbar) E_max^2 t^3 / (3 tau^2) while ramping,
    then grows linearly at the full field.  Default t is the escape time.
    """
    if t_ns is None:
        t_ns = ballistic_escape_time(cfg)
    if not np.isfinite(t_ns):
        return 0.0
    t = t_ns * 1e-9
    tau = cfg.ramp_time * 1e-9
    pref = cfg.differential_polarizability / (2.0 * HBAR) * cfg.ramp_field_max**2
    if t <= tau:
        return pref * t**3 / (3.0 * tau**2)
    return pref * (tau / 3.0 + (t - tau))


def _field_at(t: float, cfg: IonEscapeConfig) -> float:
    tau = cfg.ramp_time * 1e-9
    if t >= tau:
        return cfg.ramp_field_max
    return cfg.ramp_field_max * t / tau


def _initial_state(cfg: IonEscapeConfig) -> tuple[np.ndarray, np.ndarray]:
    """Spectator clouds (T, A, 3) and ion start points (T, 3), in m.

    Trajectory i draws from its own counter-based stream
    default_rng([rng_seed, i]): spectators first, then the start point, so
    each trajectory depends only on (rng_seed, i).
    """
    side = cfg.trap_volume ** (1.0 / 3.0) * 1e-6  # m, cubic sampling volume
    n_traj, n_spec = cfg.n_trajectories, cfg.n_atoms - 1
    spectators = np.empty((n_traj, n_spec, 3))
    start = np.zeros((n_traj, 3))
    for i in range(n_traj):
        rng = np.random.default_rng([cfg.rng_seed, i])
        spectators[i] = rng.uniform(-side / 2, side / 2, size=(n_spec, 3))
        if cfg.ion_start == "uniform":
            start[i] = rng.uniform(-side / 2, side / 2, size=3)
    return spectators, start


def simulate_escape(cfg: IonEscapeConfig) -> EscapeResult:
    """Run the Monte Carlo with every trajectory stepped in lock-step.

    The ion feels only the ramp field, a function of t alone, so all
    trajectories share t, the step sequence and the acceleration; only the
    start point and the spectator cloud differ.  The field points along z
    and every ion starts at rest, so the x and y update is p + 0*dt +
    0.5*0*dt**2 = p: each ion's x and y stay fixed bit for bit, and all
    live ions share one velocity and one acceleration.  Only z is stepped,
    and each spectator's squared lateral distance dx^2 + dy^2 is computed
    once; adding dz^2 to it sums in the order the 3-D distance did, so the
    results are those of 3-D stepping bit for bit.  A transverse force
    (none is modelled) would have to bring back 3-D stepping.

    The live arrays hold the trajectories that have not escaped yet; each
    one is frozen and dropped at the step it escapes.  Results are
    deterministic for a given seed and trajectory i is the same whatever
    n_trajectories is.
    """
    spectators, start = _initial_state(cfg)
    n_traj, n_spec = cfg.n_trajectories, cfg.n_atoms - 1
    lateral2 = (spectators[:, :, 0] - start[:, 0, None]) ** 2 + (
        spectators[:, :, 1] - start[:, 1, None]
    ) ** 2
    spec_z = np.ascontiguousarray(spectators[:, :, 2])
    z0 = start[:, 2].copy()
    z = z0.copy()

    m = cfg.ion_mass * AMU
    dt = cfg.time_step * 1e-9
    d_escape = cfg.trap_diameter * 1e-6
    r_soft = cfg.softening_radius * 1e-6
    phase_pref = cfg.differential_polarizability / (2.0 * HBAR)
    e_sq_pref = (K_COULOMB * E_CHARGE) ** 2  # E_ion^2 = (kq)^2 / r^4

    # final per-trajectory values, filled in as trajectories escape
    times = np.full(n_traj, NO_ESCAPE)
    phases = np.zeros((n_traj, n_spec))
    collided = np.zeros((n_traj, n_spec), dtype=bool)
    end_vel = np.zeros(n_traj)
    work = np.zeros(n_traj)

    # live state: row k is trajectory live[k]; vel is shared by all of them
    live = np.arange(n_traj)
    vel = 0.0
    live_work = np.zeros(n_traj)
    live_phases = np.zeros((n_traj, n_spec))
    live_collided = np.zeros((n_traj, n_spec), dtype=bool)

    def coulomb_rate(z):
        d2 = lateral2 + (spec_z - z[:, None]) ** 2
        live_collided[d2 < r_soft**2] = True
        return e_sq_pref / np.maximum(d2, r_soft**2) ** 2

    def freeze(rows):
        idx = live[rows]
        phases[idx] = live_phases[rows]
        collided[idx] = live_collided[rows]
        end_vel[idx] = vel
        work[idx] = live_work[rows]

    t = 0.0
    rate = coulomb_rate(z)
    accel = E_CHARGE * _field_at(t, cfg) / m
    horizon = cfg.horizon * 1e-9
    while t < horizon and live.size:
        new_z = z + vel * dt + 0.5 * accel * dt**2
        new_accel = E_CHARGE * _field_at(t + dt, cfg) / m
        vel = vel + 0.5 * (accel + new_accel) * dt
        live_work += E_CHARGE * 0.5 * (
            _field_at(t, cfg) + _field_at(t + dt, cfg)
        ) * (new_z - z)
        new_rate = coulomb_rate(new_z)
        live_phases += phase_pref * 0.5 * (rate + new_rate) * dt
        z, accel, rate = new_z, new_accel, new_rate
        t += dt
        # the 3-D norm sqrt(0 + 0 + dz^2) is |dz| unless dz^2 underflows
        escaped = np.abs(z - z0) >= d_escape
        if escaped.any():
            times[live[escaped]] = t * 1e9
            freeze(escaped)
            keep = ~escaped
            live, z, z0, rate = live[keep], z[keep], z0[keep], rate[keep]
            lateral2, spec_z = lateral2[keep], spec_z[keep]
            live_work, live_phases = live_work[keep], live_phases[keep]
            live_collided = live_collided[keep]
    freeze(slice(None))  # trajectories still inside at the horizon

    kinetic = 0.5 * m * (end_vel * end_vel)
    energy_err = np.zeros(n_traj)
    worked = work > 0
    energy_err[worked] = np.abs(kinetic[worked] - work[worked]) / work[worked]
    phases[collided] = np.inf  # close collisions count as significant
    per_atom = phases.ravel()
    finite = times[np.isfinite(times)]
    if finite.size == 0:
        esc, esc_std, field_phase = NO_ESCAPE, 0.0, np.nan
    else:
        esc, esc_std = float(finite.mean()), float(finite.std())
        field_phase = ramp_field_phase(cfg, esc)
    return EscapeResult(
        escape_time=esc,
        escape_time_std=esc_std,
        per_atom_phases=per_atom,
        fraction_significant=float(np.mean(per_atom > cfg.phase_threshold)),
        external_field_phase=field_phase,
        n_close_collisions=int(collided.sum()),
        energy_balance_error=float(energy_err.max()),
    )
