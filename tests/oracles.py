"""Closed forms that the package no longer computes, kept as test oracles."""

from math import sqrt


def effective_two_level(params, spec):
    """(omega_eff, delta_eff) of the adiabatic elimination at delta_c = -omega_c/2.

    Omega_eff = sqrt(2/3)*sqrt(N(N-1))*omega_p^2/omega_c and
    Delta_eff = (2N-7)/3 * omega_p^2/omega_c.  These forms hold only at
    delta_c = -omega_c/2, where |2+> = (|E^2> + sqrt(2)|ER>)/sqrt(3).
    """
    if abs(params.delta_c + params.omega_c / 2.0) > 1e-9 * params.omega_c:
        raise ValueError("the closed forms need delta_c = -omega_c/2")
    n = spec.n_atoms
    omega_eff = sqrt(2.0 / 3.0) * sqrt(n * (n - 1)) * params.omega_p**2 / params.omega_c
    delta_eff = (2 * n - 7) / 3.0 * params.omega_p**2 / params.omega_c
    return omega_eff, delta_eff
