"""Physical constants and unit conventions.

Internal units everywhere: energies in eV, lengths in Angstrom, cross
sections in A^2 (A^2/sr for angle-resolved), transition amplitudes in
A*sr^(-1/2), angles in radians.  Two places convert angles and phases to
degrees: the command-line layer (``cli``) and the scan CSV's
``phi_at_rmin_deg``/``phi_at_rmax_deg`` columns (``scan._csv_line``).

Amplitudes are normalized so that |f|^2 is already a differential cross
section; no wavenumber flux prefactors are applied anywhere.
"""

import math

# CODATA values, fixed here once.  Masses are always caller input.
HBAR_EV_S = 6.582119569e-16  # eV*s
HBAR_EV_FS = 0.6582119569  # eV*fs
AMU_EV = 931.49410242e6  # eV/c^2 per amu
C_ANGSTROM_PER_S = 2.99792458e18  # A/s

# hbar*c in eV*A; converts sqrt(2*mu*E) [eV/c] to a wavenumber in 1/A.
HBAR_C_EV_ANGSTROM = HBAR_EV_S * C_ANGSTROM_PER_S

TWO_PI = 2.0 * math.pi
FOUR_PI = 4.0 * math.pi


def reduced_mass(m1_amu: float, m2_amu: float) -> float:
    """Two-body reduced mass in amu."""
    return m1_amu * m2_amu / (m1_amu + m2_amu)


def wavenumber(mu_amu: float, kinetic_ev: float) -> float:
    """Relative wavenumber k = sqrt(2*mu*E_k)/hbar in 1/A.

    ``mu_amu`` is the collision reduced mass in amu, ``kinetic_ev`` the
    relative kinetic energy in eV.
    """
    return math.sqrt(2.0 * mu_amu * AMU_EV * kinetic_ev) / HBAR_C_EV_ANGSTROM
