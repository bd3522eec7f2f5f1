"""Reference radial overlaps by adaptive quadrature, for the tests.

The library's ``radial_overlap`` integrates each measure by a fixed Gauss
rule in the atom's own variable.  This is the adaptive routine it replaced,
kept unchanged as the reference: one ``euph.integrate.quad`` per piece, in
x = r/a0 and two endpoint maps, sharing only the state evaluator with the
library.  It raises ``ConvergenceError`` where its 500-panel cap is reached
(high n at small lam).
"""

from __future__ import annotations

import math

import numpy as np

from euph import integrate
from euph.errors import ValidationError
from euph.wavefunctions import RadialEigenstate, _ds_log_t, _envelope_rate, _log_radial_in_s

# The states have unit norm, so quad's goal RTOL * GOAL_FLOOR = 1e-15 is an
# absolute goal far below the tests' 1e-12.  Without the floor, a cross pair
# whose core cancels to 0 gets a goal relative to a dS tail near the double
# range's floor (about 1e-305), which underflows and exhausts the panel cap.
GOAL_FLOOR = 1e-3


def radial_overlap(state_a: RadialEigenstate, state_b: RadialEigenstate, measure="flat"):
    """Inner product of two radial states in a chosen measure.

    measure = "flat":     int psi_a psi_b r^2 dr over the physical domain;
              "operator": int psi_a psi_b r^2/chi dr (the weight in which the
                          radial operator is symmetric);
              "extended": AdS only, the operator measure continued through the
                          wall (integral over the whole real s line), in which
                          the closed forms are exactly orthogonal.

    Each piece is one ``integrate.quad`` in a variable other than
    build_state's u and phi: x = r/a0 on breakpoints (0.1, 1, 4, 16) n^2 up
    to edge = min(60 n^2, R/2), R the AdS wall; the dS tail as
    x = edge w^(-1/gamma), gamma = 2(A_a + A_b) - 2 with A the envelope rates
    (R ~ t^A at the tail; 2(A_a + A_b) - 1 for the operator measure's
    1/chi ~ 1/r), so that every power of w cancels and the integrand, formed
    from the remainder log t0 = log t - (2/gamma) log w = log e0 - 2 log(s+1)
    (e0 = e at the edge; log1p less (2/gamma) log w where s > 3), tends to a
    constant as w -> 0; the AdS stretch as x = R (1 - v^2), smooth through
    the wall; for "extended", the continuation s < 0 as s = 1 - 1/w.  Pieces
    beyond the edge take their error goal from the core's size, and every
    goal is floored at RTOL * GOAL_FLOOR.  The dS tail breaks at
    w = 2^(-k gamma), the images of x = edge 2^k: near the bound-state
    threshold gamma -> 0 and the core-to-tail transition lies in w in
    [1 - O(gamma), 1].
    """
    if state_a.model != state_b.model:
        raise ValidationError("states must share one deformation model")
    model = state_a.model
    if measure not in ("flat", "operator", "extended"):
        raise ValidationError(f"unknown measure {measure!r}")
    if measure == "extended" and model.tau != -1:
        raise ValidationError("the extended measure exists only for AdS")
    log_norms, lam = state_a.log_norm_au + state_b.log_norm_au, model.lam_au

    def pair(s, log_t, log_weight):
        la, sa = _log_radial_in_s(state_a, s, log_t)
        lb, sb = (la, sa) if state_b is state_a else _log_radial_in_s(state_b, s, log_t)
        return state_a.sign * state_b.sign * sa * sb * np.exp(la + lb + log_weight - log_norms)

    def in_r(s, log_t, log_r, log_jac, log_chi):
        # psi_a psi_b r^2 dr = R_a R_b r dr, over chi outside the flat measure
        return pair(s, log_t, log_r + log_jac - (0.0 if measure == "flat" else log_chi))

    def at_radius(log_r, log_jac):
        # from log r alone, so the dS tail may pass the float range:
        # s^2 = tau + e with e = 1/(lam r^2), chi = s/sqrt(e)
        log_e = -math.log(lam) - 2.0 * log_r
        s = np.sqrt(model.tau + np.exp(log_e))
        log_t = _ds_log_t(s, log_e - 2.0 * np.log(s + 1.0)) if model.tau == 1 else None
        return in_r(s, log_t, log_r, log_jac, np.log(s) - 0.5 * log_e)

    wall = math.inf if model.tau == 1 else 1.0 / math.sqrt(lam)
    n2 = max(state_a.qn.n, state_b.qn.n) ** 2
    edge = min(60.0 * n2, 0.5 * wall)
    points = [0.0] + [f * n2 for f in (0.1, 1.0, 4.0, 16.0) if f * n2 < edge] + [edge]
    val = integrate.quad(lambda x: at_radius(np.log(x), 0.0), points, scale=GOAL_FLOOR)[0]
    scale = max(abs(val), GOAL_FLOOR)
    if model.tau == 1:
        rates = _envelope_rate(model, state_a.qn.n) + _envelope_rate(model, state_b.qn.n)
        gamma = 2.0 * rates - (2.0 if measure == "flat" else 1.0)
        log_edge = math.log(edge)
        log_e0 = -math.log(lam) - 2.0 * log_edge  # log e at the edge
        far = log_e0 > math.log(8.0)  # s > 3 on the tail's inner part

        def tail(w):
            # log t = log t0 + (2/gamma) log w, r = edge w^(-1/gamma): every
            # power of w cancels, so the w-free remainder is all that is formed.
            # Where s > 3, log t ~ -2/s at tiny lam lies below the rounding of
            # log e, so there it is log1p less (2/gamma) log w, |that| < log e0
            lw = 2.0 * np.log(w) / gamma
            s = np.sqrt(1.0 + np.exp(log_e0 + lw))
            log_t0 = log_e0 - 2.0 * np.log(s + 1.0)
            if far:
                big = s > 3.0
                log_t0[big] = np.log1p(-2.0 / (s[big] + 1.0)) - lw[big]
            log_chi = np.log(s) - 0.5 * log_e0
            return in_r(s, log_t0, log_edge, log_edge - math.log(gamma), log_chi)

        # a subnormal cut would put quadrature nodes at w = 0
        cuts = {2.0 ** (-k * gamma) for k in (1, 2, 3, 4, 6, 10, 20, 40)}
        cuts = sorted({0.0, 1.0} | {w for w in cuts if w >= np.finfo(float).tiny})
        return val + integrate.quad(tail, cuts, scale=scale)[0]

    def stretch(v):
        u, chi = 1.0 - v * v, v * np.sqrt(2.0 - v * v)
        return in_r(chi / u, None, np.log(wall * u), np.log(2.0 * wall * v), np.log(chi))

    val += integrate.quad(stretch, [0.0, math.sqrt(1.0 - edge / wall)], scale=scale)[0]
    if measure == "extended":

        def beyond(w):  # R_a R_b r dr / chi = R_a R_b (1+s^2)^(-3/2) ds / lam
            s = 1.0 - 1.0 / w
            return pair(s, None, -1.5 * np.log1p(s * s) - 2.0 * np.log(w) - math.log(lam))

        val += integrate.quad(beyond, [0.0, 1.0], scale=scale)[0]
    return val
