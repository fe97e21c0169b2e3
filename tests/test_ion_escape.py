from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superatom.config import MAX_TRAP_VOLUME_UM3
from superatom.ion_escape import (
    AMU,
    E_CHARGE,
    HBAR,
    K_COULOMB,
    NO_ESCAPE,
    EscapeResult,
    IonEscapeConfig,
    _field_at,
    ballistic_escape_time,
    ramp_field_phase,
    simulate_escape,
)


@pytest.fixture(scope="module")
def default_result():
    return simulate_escape(IonEscapeConfig(n_trajectories=40))


class TestKinematics:
    def test_closed_form_oracle(self):
        """x(t) = q E_max t^3 / (6 m tau) inverted for one trap diameter."""
        cfg = IonEscapeConfig()
        q, m = 1.602176634e-19, 88.0 * 1.66053906892e-27
        t = (6 * m * (300e-9) * 1e-6 / (q * 1e5)) ** (1 / 3)
        assert ballistic_escape_time(cfg) == pytest.approx(t * 1e9, rel=1e-12)

    def test_simulated_escape_matches_oracle(self, default_result):
        cfg = IonEscapeConfig()
        assert default_result.escape_time == pytest.approx(
            ballistic_escape_time(cfg), rel=0.02
        )

    def test_escape_time_near_25_ns(self, default_result):
        assert default_result.escape_time == pytest.approx(25.0, rel=0.3)

    def test_no_field_no_escape(self):
        cfg = IonEscapeConfig(ramp_field_max=0.0, n_trajectories=2, n_atoms=3)
        res = simulate_escape(cfg)
        assert res.escape_time == NO_ESCAPE
        assert np.isnan(res.external_field_phase)

    def test_energy_bookkeeping(self, default_result):
        # kinetic energy at exit equals the work done by the ramp field
        assert default_result.energy_balance_error < 1e-3

    def test_step_halving_convergence(self):
        a = simulate_escape(IonEscapeConfig(n_trajectories=2, n_atoms=3))
        b = simulate_escape(
            IonEscapeConfig(n_trajectories=2, n_atoms=3, time_step=0.05)
        )
        assert abs(a.escape_time - b.escape_time) / a.escape_time < 0.005

    def test_slow_ramp_crosses_into_constant_field(self):
        # stretch the ramp so escape happens after the cap at E_max
        cfg = IonEscapeConfig(ramp_time=5.0, n_trajectories=1, n_atoms=3)
        t = ballistic_escape_time(cfg)
        assert t > cfg.ramp_time
        res = simulate_escape(cfg)
        assert res.escape_time == pytest.approx(t, rel=0.02)

    def test_flight_does_not_depend_on_the_cloud_size(self):
        """The path is stepped relative to the ion's start, so the escape
        and its energy balance are those of a 1 um^3 cloud at the largest
        volume the config admits."""
        small, large = (
            simulate_escape(IonEscapeConfig(n_trajectories=4, n_atoms=10,
                                            trap_volume=v))
            for v in (1.0, MAX_TRAP_VOLUME_UM3)
        )
        assert large.escape_time == small.escape_time
        assert large.energy_balance_error == small.energy_balance_error


class TestRampFieldPhase:
    def test_zero_polarizability(self):
        cfg = IonEscapeConfig(differential_polarizability=0.0)
        assert ramp_field_phase(cfg) == 0.0

    def test_cubic_law(self):
        cfg = IonEscapeConfig()
        t = 20.0  # ns, inside the ramp
        assert ramp_field_phase(cfg, 2 * t) / ramp_field_phase(cfg, t) == (
            pytest.approx(8.0, rel=1e-12)
        )

    def test_analytic_value(self):
        cfg = IonEscapeConfig()
        t = 25.0e-9
        hbar = 1.054571817e-34
        want = (
            cfg.differential_polarizability / (2 * hbar)
            * cfg.ramp_field_max**2 * t**3 / (3 * (300e-9) ** 2)
        )
        assert ramp_field_phase(cfg, 25.0) == pytest.approx(want, rel=1e-12)

    def test_insignificant_at_default_threshold(self, default_result):
        cfg = IonEscapeConfig()
        assert default_result.external_field_phase < cfg.phase_threshold


class TestPhaseStatistics:
    def test_threshold_curve_monotone(self, default_result):
        th = np.geomspace(1e-4, 1.0, 12)
        curve = default_result.threshold_curve(th)
        assert np.all(np.diff(curve) <= 0)
        assert np.all((0 <= curve) & (curve <= 1))

    def test_fraction_matches_curve_at_default(self, default_result):
        cfg = IonEscapeConfig()
        assert default_result.fraction_significant == pytest.approx(
            float(default_result.threshold_curve([cfg.phase_threshold])[0])
        )

    def test_larger_volume_fewer_significant(self):
        small = simulate_escape(IonEscapeConfig(n_trajectories=30))
        big = simulate_escape(IonEscapeConfig(n_trajectories=30, trap_volume=8.0))
        assert big.fraction_significant <= small.fraction_significant

    def test_phase_count(self, default_result):
        cfg = IonEscapeConfig(n_trajectories=40)
        assert default_result.per_atom_phases.shape == (
            cfg.n_trajectories * (cfg.n_atoms - 1),
        )
        assert np.all(default_result.per_atom_phases >= 0)


class TestReproducibility:
    def test_same_seed_identical(self):
        cfg = IonEscapeConfig(n_trajectories=8, n_atoms=10)
        a = simulate_escape(cfg)
        b = simulate_escape(cfg)
        assert np.array_equal(a.per_atom_phases, b.per_atom_phases)
        assert a.escape_time == b.escape_time

    def test_trajectory_prefix_invariant(self):
        """Trajectory i depends only on (seed, i), not on how many run."""
        n_atoms = 10
        a = simulate_escape(IonEscapeConfig(n_trajectories=8, n_atoms=n_atoms))
        b = simulate_escape(IonEscapeConfig(n_trajectories=3, n_atoms=n_atoms))
        k = 3 * (n_atoms - 1)
        assert np.array_equal(a.per_atom_phases[:k], b.per_atom_phases)

    def test_different_seed_differs(self):
        a = simulate_escape(IonEscapeConfig(n_trajectories=4, n_atoms=10, rng_seed=0))
        b = simulate_escape(IonEscapeConfig(n_trajectories=4, n_atoms=10, rng_seed=1))
        assert not np.array_equal(a.per_atom_phases, b.per_atom_phases)


def _reference_trajectory(cfg: IonEscapeConfig, index: int):
    """One trajectory on its own, velocity-Verlet in a plain loop."""
    rng = np.random.default_rng([cfg.rng_seed, index])
    side = cfg.trap_volume ** (1.0 / 3.0) * 1e-6
    spectators = rng.uniform(-side / 2, side / 2, size=(cfg.n_atoms - 1, 3))
    if cfg.ion_start == "uniform":
        pos = rng.uniform(-side / 2, side / 2, size=3)
    else:
        pos = np.zeros(3)
    start = pos.copy()
    m = cfg.ion_mass * AMU
    dt = cfg.time_step * 1e-9
    r_soft = cfg.softening_radius * 1e-6
    phase_pref = cfg.differential_polarizability / (2.0 * HBAR)
    vel = np.zeros(3)
    t = work = 0.0
    phases = np.zeros(cfg.n_atoms - 1)
    collided = np.zeros(cfg.n_atoms - 1, dtype=bool)

    def coulomb_rate(p):
        d2 = ((spectators - p) ** 2).sum(axis=1)
        collided[d2 < r_soft**2] = True
        return (K_COULOMB * E_CHARGE) ** 2 / np.maximum(d2, r_soft**2) ** 2

    rate = coulomb_rate(pos)
    accel = np.array([0.0, 0.0, E_CHARGE * _field_at(t, cfg) / m])
    escape_t = NO_ESCAPE
    while t < cfg.horizon * 1e-9:
        new_pos = pos + vel * dt + 0.5 * accel * dt**2
        new_accel = np.array([0.0, 0.0, E_CHARGE * _field_at(t + dt, cfg) / m])
        vel = vel + 0.5 * (accel + new_accel) * dt
        work += E_CHARGE * 0.5 * (
            _field_at(t, cfg) + _field_at(t + dt, cfg)
        ) * (new_pos[2] - pos[2])
        new_rate = coulomb_rate(new_pos)
        phases += phase_pref * 0.5 * (rate + new_rate) * dt
        pos, accel, rate = new_pos, new_accel, new_rate
        t += dt
        if np.linalg.norm(pos - start) >= cfg.trap_diameter * 1e-6:
            escape_t = t * 1e9
            break
    kinetic = 0.5 * m * float(vel @ vel)
    phases[collided] = np.inf
    err = abs(kinetic - work) / work if work > 0 else 0.0
    return escape_t, phases, int(collided.sum()), err


# Configs the one-path flight is checked on against the reference.
REFERENCE_CASES = [
    {},
    {"rng_seed": 7},
    {"ramp_time": 5.0},  # escape after the ramp, at full field
    {"softening_radius": 0.2},  # close collisions
    {"max_time": 20.0},  # horizon before escape
    # the benchmark's shape: 99 spectators per trajectory
    {"n_atoms": 100, "rng_seed": 5, "n_trajectories": 24},
    {"ramp_field_max": 0.0, "max_time": 5.0},  # no field, no escape
]
# An escape distance on a step boundary: from a uniform start the
# reference's rounding of z0 + s puts its escapes on two different steps.
STEP_BOUNDARY_DIAMETER = 0.0627520132884533
# At a uniform start the reference steps the absolute z0 + s and measures
# distances from absolute coordinates, up to half the cloud's side away, so
# its rounding differs from the one path's (relative to the start).  A
# phase moves by a few ulp of the largest coordinate over the closest
# distance, times the r^-4 of the rate: at most 5.6e-14 relative on the
# benchmark's 16 seeds.  The work moves by at most an ulp a step, about
# 255 eps over the flight, and the energy error |KE - W| / W by as much
# absolutely.
PHASE_RTOL = 1e-12
ENERGY_ATOL = 1e-13


def _references(cfg):
    return [_reference_trajectory(cfg, i) for i in range(cfg.n_trajectories)]


class TestLockStepMatchesReference:
    """The one shared path against each trajectory flown on its own in 3-D."""

    @pytest.mark.parametrize(
        "kw", REFERENCE_CASES + [{"trap_diameter": STEP_BOUNDARY_DIAMETER}])
    def test_bit_identical(self, kw):
        """From the centre every ion starts at the origin, so the
        reference's position is (0, 0, s) and its arithmetic is the one
        path's: every result agrees bit for bit."""
        cfg = IonEscapeConfig(**{"n_trajectories": 12, "n_atoms": 20, **kw,
                                 "ion_start": "center"})
        refs = _references(cfg)
        res = simulate_escape(cfg)
        assert {r[0] for r in refs} == {res.escape_time}
        assert np.array_equal(res.per_atom_phases, np.concatenate([r[1] for r in refs]))
        assert res.n_close_collisions == sum(r[2] for r in refs)
        assert {r[3] for r in refs} == {res.energy_balance_error}

    @pytest.mark.parametrize("kw", REFERENCE_CASES)
    def test_uniform_start_within_rounding(self, kw):
        cfg = IonEscapeConfig(**{"n_trajectories": 12, "n_atoms": 20, **kw})
        refs = _references(cfg)
        res = simulate_escape(cfg)
        assert {r[0] for r in refs} == {res.escape_time}
        assert res.n_close_collisions == sum(r[2] for r in refs)
        want = np.concatenate([r[1] for r in refs])
        finite = np.isfinite(want)
        assert np.array_equal(np.isfinite(res.per_atom_phases), finite)
        np.testing.assert_allclose(res.per_atom_phases[finite], want[finite],
                                   rtol=PHASE_RTOL, atol=0)
        for r in refs:
            assert abs(res.energy_balance_error - r[3]) <= ENERGY_ATOL

    def test_step_boundary_case_escapes_at_one_step(self):
        """The reference's uniform-start ions escape at two steps; the one
        path escapes at one, the centre-start reference's."""
        cfg = IonEscapeConfig(n_trajectories=12, n_atoms=20,
                              trap_diameter=STEP_BOUNDARY_DIAMETER)
        assert len({r[0] for r in _references(cfg)}) == 2
        centre = _reference_trajectory(replace(cfg, ion_start="center"), 0)[0]
        assert simulate_escape(cfg).escape_time == centre


class TestValidation:
    @pytest.mark.parametrize(
        "kw",
        [
            {"ramp_time": 0.0},
            {"trap_diameter": -1.0},
            {"n_atoms": 1},
            {"n_trajectories": 0},
            {"ion_start": "edge"},
            {"time_step": 0.2},
            {"time_step": 0.1 + 1e-12},
            {"differential_polarizability": -1e-40},
            {"ramp_field_max": -5.0},
        ],
    )
    def test_bad_config_rejected(self, kw):
        with pytest.raises(ValueError):
            IonEscapeConfig(**kw)

    @settings(max_examples=20, deadline=None)
    @given(st.floats(0.02, 0.1))
    def test_any_admissible_step_accepted(self, dt):
        IonEscapeConfig(time_step=dt)
