"""Classical Monte Carlo of the heralding ion's escape from the trap.

After photoionization the ion is extracted by a linearly ramped electric
field.  While it crosses the cloud, its Coulomb field Stark-shifts the
remaining atoms and imprints a phase on each g-e coherence,
phi_i = (d_alpha / 2 hbar) * Integral E_ion(r_i(t))^2 dt.
The field points along z and depends on time alone, and the ion starts at
rest, so wherever it starts it flies the same displacement s(t) along z.
We integrate s once with velocity-Verlet; each trajectory is a random
start point and spectator cloud, whose phases accumulate along that path.
We report the fraction of atoms whose phase exceeds a configurable
threshold.  Spectators are neutral and frozen on the ~25 ns escape
timescale; the photoelectron leaves far faster than the ion and its
integrated Stark exposure is bounded by the ion's, so it is not simulated.

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
# A step costs about 15 us for one trajectory of 100 atoms and 60 us for 100
# such trajectories (median over five rounds of the median of 3 runs of
# 2e4 steps with no ramp field, so no ion escapes; one BLAS thread, 2-core
# x86-64, numpy 2.4), so a run at the cap that no ion escapes takes about
# 15 s and 60 s; the default horizon is 3e4 steps.
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
    per_atom_phases: np.ndarray  # rad, (n_trajectories * (n_atoms-1),)
    fraction_significant: float
    external_field_phase: float  # rad, ramp field alone, at escape (nan if none)
    n_close_collisions: int
    energy_balance_error: float  # relative |KE - work| at exit

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


def _initial_state(cfg: IonEscapeConfig) -> np.ndarray:
    """Spectator clouds (T, A, 3) relative to their ion's start point, in m.

    Trajectory i draws from its own counter-based stream
    default_rng([rng_seed, i]): spectators first, then the start point, so
    each trajectory depends only on (rng_seed, i).
    """
    side = cfg.trap_volume ** (1.0 / 3.0) * 1e-6  # m, cubic sampling volume
    n_traj, n_spec = cfg.n_trajectories, cfg.n_atoms - 1
    spectators = np.empty((n_traj, n_spec, 3))
    for i in range(n_traj):
        rng = np.random.default_rng([cfg.rng_seed, i])
        spectators[i] = rng.uniform(-side / 2, side / 2, size=(n_spec, 3))
        if cfg.ion_start == "uniform":
            spectators[i] -= rng.uniform(-side / 2, side / 2, size=3)
    return spectators


def simulate_escape(cfg: IonEscapeConfig) -> EscapeResult:
    """Run the Monte Carlo along the one path every ion flies.

    The ramp field points along z and depends on t alone, and every ion
    starts at rest, so every ion flies start + s(t) along z with the same
    displacement s(t).  Velocity-Verlet steps s, its velocity and the
    field's work once for all trajectories; the trajectories differ only in
    their spectators' positions relative to the ion's start, and each
    spectator's squared distance is its lateral part plus (rel_z - s)^2.
    The flight ends at the step where |s| reaches the trap diameter, or at
    the horizon.  A transverse force (none is modelled) would give each
    trajectory its own path.  Results are deterministic for a given seed
    and trajectory i is the same whatever n_trajectories is.
    """
    rel = _initial_state(cfg)
    lateral2 = rel[..., 0] ** 2 + rel[..., 1] ** 2
    rel_z = rel[..., 2].copy()

    m = cfg.ion_mass * AMU
    dt = cfg.time_step * 1e-9
    d_escape = cfg.trap_diameter * 1e-6
    r_soft2 = (cfg.softening_radius * 1e-6) ** 2
    phase_pref = cfg.differential_polarizability / (2.0 * HBAR)
    e_sq_pref = (K_COULOMB * E_CHARGE) ** 2  # E_ion^2 = (kq)^2 / r^4
    phases = np.zeros_like(lateral2)
    collided = np.zeros(lateral2.shape, dtype=bool)

    def coulomb_rate(s):
        d2 = lateral2 + (rel_z - s) ** 2
        collided[d2 < r_soft2] = True
        return e_sq_pref / np.maximum(d2, r_soft2) ** 2

    t = s = vel = work = 0.0
    escape_time, field_phase = NO_ESCAPE, np.nan
    rate = coulomb_rate(s)
    accel = E_CHARGE * _field_at(t, cfg) / m
    horizon = cfg.horizon * 1e-9
    while t < horizon:
        new_s = s + vel * dt + 0.5 * accel * dt**2
        new_accel = E_CHARGE * _field_at(t + dt, cfg) / m
        vel = vel + 0.5 * (accel + new_accel) * dt
        work += E_CHARGE * 0.5 * (
            _field_at(t, cfg) + _field_at(t + dt, cfg)
        ) * (new_s - s)
        new_rate = coulomb_rate(new_s)
        phases += phase_pref * 0.5 * (rate + new_rate) * dt
        s, accel, rate = new_s, new_accel, new_rate
        t += dt
        if abs(s) >= d_escape:
            escape_time = t * 1e9
            field_phase = ramp_field_phase(cfg, escape_time)
            break

    kinetic = 0.5 * m * (vel * vel)
    phases[collided] = np.inf  # close collisions count as significant
    per_atom = phases.ravel()
    return EscapeResult(
        escape_time=escape_time,
        per_atom_phases=per_atom,
        fraction_significant=float(np.mean(per_atom > cfg.phase_threshold)),
        external_field_phase=field_phase,
        n_close_collisions=int(collided.sum()),
        energy_balance_error=abs(kinetic - work) / work if work > 0 else 0.0,
    )
