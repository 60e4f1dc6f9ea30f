"""Harness-side references that the benchmark checks CLI outputs against.

Nothing here imports the package. The two-port S-matrix is rebuilt from the
coupled-mode equations for the default background (r_b = 1, theta_b = 0),
which every workload uses: the background matrix is the identity and the
port coupling is d0 = i sqrt(gamma_r) (from C conj(d) = -d), so each S
element gains d0^2 r_m / D = -gamma_r r_m / D, with
r_c = i(w - omega0) + gamma_r + gamma_nr, r_m = i(w - omega_m) + gamma_m and
D = r_c r_m + Omega^2.

A model is a plain dict with the keys omega0, gamma_r, gamma_nr, gamma_m,
omega_rabi and optionally delta_m, all in meV.
"""
from __future__ import annotations

import math

import numpy as np


def wrap(x):
    """Wrap angles to (-pi, pi]."""
    return np.angle(np.exp(1j * np.asarray(x, dtype=float)))


def s_elements(m: dict, w):
    """(s11, s12 = s21, s22) on the real frequencies w."""
    w = np.asarray(w, dtype=float)
    r_c = 1j * (w - m["omega0"]) + m["gamma_r"] + m["gamma_nr"]
    r_m = 1j * (w - m["omega0"] - m.get("delta_m", 0.0)) + m["gamma_m"]
    u = -m["gamma_r"] * r_m / (r_c * r_m + m["omega_rabi"] ** 2)
    return 1.0 + u, u, 1.0 + u


def observables(m: dict, w) -> dict:
    """Single- and two-beam observables at the frequencies w."""
    s11, s12, s22 = s_elements(m, w)
    R1, R2, T = np.abs(s11) ** 2, np.abs(s22) ** 2, np.abs(s12) ** 2
    A1, A2 = 1.0 - R1 - T, 1.0 - R2 - T
    a_avg = 0.5 * (A1 + A2)
    # total output over the input dephasing phi is P0 + 2 Re(z e^{i phi})
    a_mod = np.abs(np.conj(s11) * s12 + np.conj(s12) * s22)
    return {
        "R1": R1, "R2": R2, "T": T, "A1": A1, "A2": A2,
        "abs_dets": np.abs(s11 * s22 - s12 * s12),
        "a_avg": a_avg, "a_min": a_avg - a_mod, "a_max": a_avg + a_mod,
        "dpsi": wrap(np.angle(s11) + np.angle(s22) - 2.0 * np.angle(s12)),
        "min_mag": np.minimum(np.minimum(np.abs(s11), np.abs(s22)), np.abs(s12)),
    }


def joint_absorbance(m: dict, w, phi):
    """Joint absorbance for the equal-intensity input pair (1, e^{i phi})."""
    s11, s12, s22 = s_elements(m, w)
    e = np.exp(1j * np.asarray(phi, dtype=float))
    return 1.0 - 0.5 * (np.abs(s11 + s12 * e) ** 2 + np.abs(s12 + s22 * e) ** 2)


def abs_dets(m: dict, w):
    s11, s12, s22 = s_elements(m, w)
    return np.abs(s11 * s22 - s12 * s12)


def default_window(m: dict) -> tuple[float, float]:
    """The package's documented default analysis window."""
    g_c = m["gamma_r"] + m["gamma_nr"]
    span = max(3 * m["omega_rabi"], 3 * g_c, 3 * m["gamma_m"]) + 1.0
    return m["omega0"] - span, m["omega0"] + span


PEAK_FLOOR = 1e-9   # the package's floor on the absorbance of a countable peak


def _nd(m: dict):
    """Coefficients of N and D, with det S = N(u) / D(u) and u = w - omega0.

    D(u) = (iu + gamma_c)(i(u - delta_m) + gamma_m) + Omega^2 and N is D with
    gamma_c replaced by gamma_nr - gamma_r. With Omega = 0 the matter factor
    is common to N and D and is cancelled, which removes the 0/0 point at
    omega_m when gamma_m = 0.
    """
    g_c = m["gamma_r"] + m["gamma_nr"]
    a_n = m["gamma_nr"] - m["gamma_r"]
    if m["omega_rabi"] == 0.0:
        return np.array([1j, a_n]), np.array([1j, g_c])
    matter = np.array([1j, m["gamma_m"] - 1j * m.get("delta_m", 0.0)])
    rabi_sq = np.array([0.0, 0.0, m["omega_rabi"] ** 2])
    return (np.polymul([1j, a_n], matter) + rabi_sq,
            np.polymul([1j, g_c], matter) + rabi_sq)


def _stationary(m: dict):
    """(N, D, F) with F = A'B - AB', A = |N|^2, B = |D|^2 real polynomials in
    u: d|det S|^2/du = F / B^2, so the extrema of |det S| are roots of F."""
    N, D = _nd(m)
    A = np.real(np.polymul(N, np.conj(N)))
    B = np.real(np.polymul(D, np.conj(D)))
    return N, D, np.polysub(np.polymul(np.polyder(A), B),
                            np.polymul(A, np.polyder(B)))


def min_abs_dets(m: dict, window=None) -> float:
    """Minimum of |det S| = |N/D| over a real window, from the closed forms.

    Candidates are the window ends and the real parts of every root of F.
    Extra candidates can only raise the minimum found, never lower it below
    the true one.
    """
    if m["gamma_r"] == 0.0:
        return 1.0  # N = D: the resonance does not couple to the ports
    lo, hi = default_window(m) if window is None else window
    N, D, F = _stationary(m)
    u_lo, u_hi = lo - m["omega0"], hi - m["omega0"]
    cand = [u_lo, u_hi]
    if np.any(F != 0.0):
        cand.extend(np.clip(np.roots(F).real, u_lo, u_hi))
    u = np.array(cand)
    return float(np.min(np.abs(np.polyval(N, u) / np.polyval(D, u))))


def dets_minima(m: dict) -> np.ndarray:
    """Interior local minima of |det S| in the default window, ascending.

    They are the real roots of F at which F changes sign from - to +; a
    root counts as real when its imaginary part is below 1e-7 meV.
    """
    lo, hi = default_window(m)
    _N, _D, F = _stationary(m)
    if m["gamma_r"] == 0.0 or not np.any(F != 0.0):
        return np.array([])
    roots = np.roots(F)
    u = np.sort(roots[np.abs(roots.imag) < 1e-7].real)
    u = u[(lo - m["omega0"] < u) & (u < hi - m["omega0"])]
    return m["omega0"] + u[np.polyval(np.polyder(F), u) > 0.0]


def peak_count_range(m: dict, n_grid: int = 601, eps: float = 1e-12):
    """(fewest, most) strict interior maxima above PEAK_FLOOR of
    B = 1 - |det S|^2 on the n_grid-point default-window grid; a comparison
    closer than eps may go either way in floating point."""
    lo, hi = default_window(m)
    u = np.linspace(lo, hi, n_grid) - m["omega0"]
    N, D = _nd(m)
    b = 1.0 - np.abs(np.polyval(N, u) / np.polyval(D, u)) ** 2
    c, left, right = b[1:-1], b[:-2], b[2:]
    sure = (c > left + eps) & (c > right + eps) & (c > PEAK_FLOOR + eps)
    maybe = (c > left - eps) & (c > right - eps) & (c > PEAK_FLOOR - eps)
    return int(np.count_nonzero(sure)), int(np.count_nonzero(maybe))


def close(got: float, want: float, tol: float) -> bool:
    """Absolute agreement; NaN never agrees."""
    return math.isfinite(got) and abs(got - want) <= tol
