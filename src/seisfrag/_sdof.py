"""Central-difference stepping for linear single-DOF systems.

The explicit scheme u'' -> (u[k+1] - 2u[k] + u[k-1])/dt^2 and
u' -> (u[k+1] - u[k-1])/(2 dt) turns the oscillator into a second-order IIR
recurrence, which scipy's lfilter evaluates in C from the two steps of the
startup. Its initial state is the one scipy's lfiltic would build, written out
in lfiltic's own operations. `scipy.signal` loads all of scipy, so it is
imported on the first call, not with this module: only the commands that step
a linear system pay for it.
"""

from __future__ import annotations

import numpy as np


def linear_sdof_displacement(
    forcing: np.ndarray,
    dt: float,
    omega: float,
    zeta: float,
    n_extra: int = 0,
) -> tuple[np.ndarray, float]:
    """Solve u'' + 2*zeta*omega*u' + omega^2*u = forcing from rest.

    Parameters
    ----------
    forcing : array sampled on the uniform grid with step dt
    n_extra : number of trailing zero-forcing steps appended, useful when the
        caller forms a central derivative at the final forcing sample.

    Returns
    -------
    u : displacement, length len(forcing) + n_extra
    u_m1 : the fictitious displacement at t = -dt implied by the startup
        (needed for a central derivative at t = 0)
    """
    f = np.asarray(forcing, dtype=float)
    if n_extra:
        f = np.concatenate([f, np.zeros(n_extra)])
    n = f.size

    c1 = 1.0 / dt**2 + zeta * omega / dt
    c2 = 2.0 / dt**2 - omega**2
    c3 = 1.0 / dt**2 - zeta * omega / dt

    # startup from zero displacement/velocity: u''(0) = f[0]
    u_m1 = 0.5 * dt**2 * f[0]
    u = np.empty(n)
    u[0] = 0.0
    if n == 1:
        return u, u_m1
    u[1] = (f[0] + c2 * 0.0 - c3 * u_m1) / c1
    if n == 2:
        return u, u_m1

    from scipy.signal import lfilter

    b1, a1, a2 = 1.0 / c1, -c2 / c1, c3 / c1
    # lfiltic's state for y = [u[1], u[0]] and x = [f[1]]: each "0.0 +" is the
    # start of numpy's sum, which turns a -0.0 term into 0.0
    zi = np.array([(0.0 + b1 * f[1]) - (0.0 + a1 * u[1] + a2 * u[0]), 0.0 - (0.0 + a2 * u[1])])
    u[2:], _ = lfilter(np.array([0.0, b1]), np.array([1.0, a1, a2]), f[2:], zi=zi)
    return u, u_m1
