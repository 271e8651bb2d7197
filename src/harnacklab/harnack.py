"""Integrated Harnack inequalities: path energies, the comparison constant,
seeded space-time pairs, pairwise verification and the intermediate
log-integral inequality.

The comparison bound for a positive pressure field v reads

    v(x1, t1) <= v(x2, t2) * exp[ alpha L(x1,x2) / (4 m_inf (t2-t1))
                                  + H (t2-t1)/alpha ] * (t2/t1)^(b alpha)

for constant alpha > 1, where m_inf = inf v, H aggregates the sup-quantities
of the corresponding global gradient estimate and L is the infimum of path
energies with the metric evaluated along the traversed interval [t1, t2],
in closed form for two points on one ray (``path_energy``).  H and alpha are
evaluated once per ``verify_harnack`` call, which checks all its pairs as
arrays.
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import WarpedGeometry
from .params import HarnackParams, family_weight


class HarnackError(ValueError):
    pass


# ---------------------------------------------------------------------------
# path energy
# ---------------------------------------------------------------------------

def path_energy(geom: WarpedGeometry, r1, t1, r2, t2):
    """Infimum of the path energy between (x1, t1) and (x2, t2) on one ray,
    for each of the broadcast arrays (or scalars) r1, t1, r2, t2.

    A path x(s), s in [0, 1], traversed over [t1, t2] costs
    int_0^1 a(t(s))^2 |x'(s)|^2 ds in the metric at t(s) = t1 + s (t2 - t1).
    The sampled points lie on one ray from the pole and a depends on t only,
    so angular motion only adds energy, and by Cauchy-Schwarz

        (r2 - r1)^2 = (int a r' / a ds)^2 <= int a^2 r'^2 ds * int a^-2 ds,

    with equality for r' proportional to a^-2.  The infimum is therefore
    (r2 - r1)^2 / int_0^1 a^-2 ds; the integral is the mean of Simpson panel
    means over 256 panels, so a static unit factor gives exactly (r2 - r1)^2.
    One conformal evaluation at the panel nodes and one at the midpoints
    cover every pair.
    """
    t1, t2 = np.asarray(t1, dtype=float), np.asarray(t2, dtype=float)
    if not np.all(t1 < t2):
        raise HarnackError("path energy requires t1 < t2")
    s = np.linspace(0.0, 1.0, 257)
    inv_sq = lambda x: geom.conformal(0.0, t1[..., None] + x * (t2 - t1)[..., None]) ** -2.0
    nodes, mids = inv_sq(s), inv_sq(0.5 * (s[:-1] + s[1:]))
    panel_means = (nodes[..., :-1] + 4.0 * mids + nodes[..., 1:]) / 6.0
    return (np.asarray(r2, dtype=float) - r1) ** 2 / np.mean(panel_means, axis=-1)


# ---------------------------------------------------------------------------
# the comparison constant and bound
# ---------------------------------------------------------------------------

def _constant_alpha(params: HarnackParams) -> float:
    if not params.coeffs.alpha.time_independent:
        raise HarnackError("the integrated inequality is stated for constant alpha")
    return float(params.coeffs.alpha_at(np.array([0.0]))[0])


def harnack_constant(quantities: dict, alpha: float, b: float) -> float:
    """H from the sup-quantities of the matching global estimate."""
    agg = quantities["q2"] ** (4.0 / 3.0) + quantities["q3"] + quantities["q4"] ** 2
    root = math.sqrt(b * family_weight(quantities["family"], alpha))
    return quantities["q0"] + b * alpha**2 * quantities["q1"] + alpha * root * math.sqrt(agg)


def harnack_log_bound(H: float, alpha: float, b: float, energy, v_inf: float, t1, t2):
    """log of the comparison bound for 0 < t1 < t2 on the estimate clock,
    at broadcast arrays (or scalars) energy, t1, t2."""
    exponent = alpha * energy / (4.0 * v_inf * (t2 - t1)) + H * (t2 - t1) / alpha
    return exponent + b * alpha * np.log(t2 / t1)


# ---------------------------------------------------------------------------
# seeded pairs
# ---------------------------------------------------------------------------

_MASK32, _MASK64, _MASK128 = 2**32 - 1, 2**64 - 1, 2**128 - 1
# the 128-bit multiplier of PCG64's LCG
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341


def _seed_hash(init: int, mult: int):
    """SeedSequence's 32-bit hash: each call xors in the hash constant, then
    multiplies by the constant's next power of ``mult`` and folds in the
    high half."""
    const = init

    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * mult & _MASK32
        value = value * const & _MASK32
        return value ^ value >> 16
    return hashmix


def _seed_mix(x: int, y: int) -> int:
    """SeedSequence's mix of pool word ``x`` with hashed word ``y``."""
    x = (0xca01f9dd * x - 0x4973f715 * y) & _MASK32
    return x ^ x >> 16


class Pcg64:
    """The stream of ``numpy.random.default_rng(seed).uniform``, in Python,
    so drawing the pairs does not import ``numpy.random``.

    numpy's SeedSequence hashes the seed's 32-bit words into a pool of four
    and draws from it PCG64's 128-bit state and increment; each 64-bit
    output is the XSL-RR permutation of the next LCG state (O'Neill,
    HMC-CS-2014-0905, 2014), and a double is its top 53 bits times 2^-53.
    """

    def __init__(self, seed: int):
        if seed < 0:
            raise HarnackError(f"the seed must be a non-negative integer, got {seed}")
        words = [seed >> shift & _MASK32 for shift in range(0, max(seed.bit_length(), 1), 32)]
        hash_a = _seed_hash(0x43b0d7e5, 0x931e8875)
        pool = [hash_a(words[i] if i < len(words) else 0) for i in range(4)]
        for src in range(4):
            for dst in range(4):
                if src != dst:
                    pool[dst] = _seed_mix(pool[dst], hash_a(pool[src]))
        for word in words[4:]:
            for dst in range(4):
                pool[dst] = _seed_mix(pool[dst], hash_a(word))
        hash_b = _seed_hash(0x8b51f9dd, 0x58f38ded)
        half = [hash_b(pool[i % 4]) for i in range(8)]
        w0, w1, w2, w3 = (half[i] | half[i + 1] << 32 for i in range(0, 8, 2))
        self.inc = ((w2 << 64 | w3) << 1 | 1) & _MASK128
        # PCG's set-seed: state 0, one step, add the initial state, one step
        self.state = ((self.inc + (w0 << 64 | w1)) * _PCG_MULT + self.inc) & _MASK128

    def uniform(self, low: float, high: float, size: int) -> list:
        """The next ``size`` draws of ``Generator.uniform(low, high, size)``."""
        span, out = high - low, []
        for _ in range(size):
            self.state = state = (self.state * _PCG_MULT + self.inc) & _MASK128
            x, rot = (state >> 64 ^ state) & _MASK64, state >> 122
            x = (x >> rot | x << (64 - rot)) & _MASK64
            out.append(low + span * ((x >> 11) * 2.0**-53))
        return out


# draws allowed for one pair before its time window is refused
PAIR_DRAWS = 1000


def sample_pairs(rng, n_pairs: int, r_max: float,
                 tau_lo: float, tau_hi: float, min_gap: float = 1e-3):
    """Seeded random space-time pairs with strictly increasing times, drawn
    from ``rng``: a :class:`Pcg64` or anything else with
    ``uniform(low, high, size)``, such as a numpy Generator.

    A pair whose times are less than ``min_gap`` apart is drawn again, at
    most ``PAIR_DRAWS`` times per pair: a window only just wider than the gap
    is refused instead of drawn from for minutes.
    """
    window = f"no two pair times in [{tau_lo:g}, {tau_hi:g}] are {min_gap:g} apart"
    if not tau_hi - tau_lo > min_gap:
        raise HarnackError(f"{window}: the time window is too short")
    pairs = []
    for _ in range(n_pairs):
        for _ in range(PAIR_DRAWS):
            r1, r2 = rng.uniform(0.0, r_max, size=2)
            ta, tb = rng.uniform(tau_lo, tau_hi, size=2)
            t1, t2 = min(ta, tb), max(ta, tb)
            if t2 - t1 >= min_gap:
                pairs.append((float(r1), float(t1), float(r2), float(t2)))
                break
        else:
            raise HarnackError(f"{window} in {PAIR_DRAWS} draws: the time window is too short")
    return pairs


# ---------------------------------------------------------------------------
# pairwise verification and the log-integral inequality
# ---------------------------------------------------------------------------

def verify_harnack(solution, geom: WarpedGeometry, params: HarnackParams,
                   quantities: dict, pairs, t0_clock: float, v_inf: float,
                   tolerance_factor: float = 1e-8):
    """Check v(x1,t1) <= bound * v(x2,t2) and the log-integral step at every
    pair (r1, tau1, r2, tau2) of ``pairs`` at once.

    Margins are in log space: margin = log_bound - [log v1 - log v2],
    passed where margin >= -tolerance_factor * max(1, |log v1 - log v2|).
    A log-integral margin below -tolerance_factor (unscaled) is a
    log-integral violation.  ``bound`` is exp(log_bound), saturated to inf
    where that overflows.  The result holds the ``pairs.csv`` columns as
    arrays over the pairs, the ``passed`` mask, both violation counts, H and
    v_inf.
    """
    if v_inf <= 0:
        raise HarnackError("the bound needs a positive infimum of v")
    r1, tau1, r2, tau2 = np.array(pairs, dtype=float).reshape(-1, 4).T
    if not np.all((0 < tau1) & (tau1 < tau2)):
        raise HarnackError("need 0 < tau1 < tau2 on the estimate clock")
    alpha = _constant_alpha(params)
    b = params.b
    H = harnack_constant(quantities, alpha, b)
    t1_abs, t2_abs = tau1 + t0_clock, tau2 + t0_clock
    energy = path_energy(geom, r1, t1_abs, r2, t2_abs)
    log_bound = harnack_log_bound(H, alpha, b, energy, v_inf, tau1, tau2)
    with np.errstate(over="ignore"):
        bound = np.exp(log_bound)
    v1, v2 = solution.value(r1, t1_abs), solution.value(r2, t2_abs)
    if np.any(v1 <= 0) or np.any(v2 <= 0):
        raise HarnackError("v must be positive at both ends of every pair")
    log_ratio = np.log(v1) - np.log(v2)
    margin = log_bound - log_ratio
    ok = margin >= -tolerance_factor * np.maximum(1.0, np.abs(log_ratio))
    log_margin = log_integral_margin(log_ratio, geom, alpha, b, H, v_inf,
                                     r1, tau1, r2, tau2, t0_clock)
    return {"r1": r1, "tau1": tau1, "r2": r2, "tau2": tau2, "energy": energy,
            "ratio": v1 / v2, "bound": bound, "margin": margin,
            "log_integral_margin": log_margin, "passed": ok,
            "violations": int(np.count_nonzero(~ok)),
            "log_integral_violations": int(np.count_nonzero(log_margin < -tolerance_factor)),
            "H": H, "v_inf": v_inf}


def log_integral_margin(log_ratio, geom: WarpedGeometry, alpha: float, b: float,
                        H: float, v_inf: float, r1, tau1, r2, tau2, t0_clock: float):
    """Margin of the intermediate inequality for f = log v along a path,
    at broadcast arrays (or scalars) log_ratio, r1, tau1, r2, tau2.

    f(x1,t1) - f(x2,t2) <= int alpha |dgamma/dt|^2 / (4 m_inf) dt
                           + int h(t)/alpha dt,   h(t) = b alpha^2/t + H,
    along the straight radial path traversed over [t1, t2]; ``log_ratio``
    is the left side, log v(x1,t1) - log v(x2,t2).  The caller checks
    0 < tau1 < tau2 and v_inf > 0.
    """
    tau1, tau2 = np.asarray(tau1, dtype=float), np.asarray(tau2, dtype=float)
    # one path per row, contiguous, so each row sums as a lone path would
    taus = np.ascontiguousarray(np.linspace(tau1, tau2, 257, axis=-1))
    rdot = ((np.asarray(r2, dtype=float) - r1) / (tau2 - tau1))[..., None]
    # the path runs along one ray at constant speed, and a depends on t only
    speed2 = geom.conformal(0.0, taus + t0_clock) ** 2 * rdot**2
    kinetic = np.trapezoid(alpha * speed2 / (4.0 * v_inf), taus, axis=-1)
    clock = b * alpha * np.log(tau2 / tau1) + H * (tau2 - tau1) / alpha
    return kinetic + clock - log_ratio
