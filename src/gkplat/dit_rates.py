"""Random-code rates over d-ary symbols, the best-first scan over d, and
the concatenated grid-qudit design that it optimizes.

Both concatenated schemes bound the error probability of one symbol by
one erfc family, family = (num, c, j, s): p(d) = erfc(sqrt(num / (c d^j s))),
increasing in d. Grid qudits under Gaussian displacements take
(pi hbar, 4.0, 1, sigma^2) (qudit_family), d-ary signals under an average
power P take (1.5, 1.0, 2, sigma^2 / P). optimize_dit_rate maximizes
dit_rate(d, p(d), k). Everything here is scalar float arithmetic and the
math module (libm's erfc, log and exp): no numpy, no scipy.
"""

from __future__ import annotations

import heapq
import math
import operator
import sys
from dataclasses import dataclass

from .rates import NoiseModel

_LN2 = math.log(2.0)
_SQRT_PI = math.sqrt(math.pi)


def _erfc_argument(d: int, family: tuple) -> float:
    """num / (c d^j s) for an integer d, operations in exactly that order
    (a folded constant rounds differently), with d^j the exact integer
    power rounded once to float64.

    This decides the family's float64 domain: where c d^j s is not
    positive or the argument is not finite, or where c d^j s overflows
    unless erfc(sqrt(num / DBL_MAX)) is 1.0 (so that p = 1 is exact
    there), the family is refused, naming d.
    """
    num, c, j, s = family
    product = c * float(operator.index(d) ** j) * s
    arg = num / product if product > 0.0 else math.nan
    if not 0.0 <= arg < math.inf or (
            product == math.inf and math.erfc(math.sqrt(num / sys.float_info.max)) != 1.0):
        raise ValueError(f"the erfc argument {num!r} / ({c!r} * d**{j} * {s!r}) "
                         f"leaves float64 at d = {d}")
    return arg


def dit_error_prob(d: int, family: tuple) -> float:
    """The family's p(d) = erfc(sqrt(num / (c d^j s))) for an integer d; a
    family that leaves float64 at d is refused (see _erfc_argument)."""
    return math.erfc(math.sqrt(_erfc_argument(d, family)))


def entropy_base_d(p: float, d: int) -> float:
    """Binary-split entropy -p log_d p - (1-p) log_d (1-p); 0 at p in {0,1}."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    if d < 2:
        raise ValueError("entropy base must be >= 2")
    if p == 0.0 or p == 1.0:
        return 0.0
    return -(p * math.log(p) + (1.0 - p) * math.log1p(-p)) / math.log(d)


def dit_rate(d: int, p: float, k: int) -> float:
    """Bits per d-ary symbol of a random code when each of k error sectors
    hits a symbol with probability p, spread evenly over the d - 1 wrong
    values: log2(d) max(0, 1 - k H_d(p) - k p log_d(d-1)). k = 1 is the
    classical outer code, k = 2 a CSS code over Z_d with p_X = p_Z = p.
    The rate is 0 from p = (d-1)/d on, where the formula would rise again."""
    if d < 2:
        raise ValueError("dimension d must be >= 2")
    entropy = entropy_base_d(p, d)
    if not p < (d - 1) / d:
        return 0.0
    log_ratio = math.log(d - 1) / math.log(d)  # 0 when d == 2
    return math.log2(d) * max(0.0, 1.0 - k * entropy - k * p * log_ratio)


_SCAN_CHUNK = 16  # d values per leaf of the scan, each evaluated on its own
_BOUND_SLACK = 1e-12  # float slack, relative to 1 + |best|; see dit_rate_bound
_REL = 2.0 ** -40  # relative margin on each slope term of the mean-value bound
D_LIMIT = 2 ** 53  # largest scan ceiling: every d up to it is exact in float64


def scan_ceiling(bound: float, source: str) -> int:
    """Default scan ceiling max(2, ceil(bound)). A bound above D_LIMIT
    (or an infinite one) is refused with an error naming the input,
    ``source``, that set it."""
    if not bound <= D_LIMIT:
        raise ValueError(f"{source} puts the default ceiling on d at {bound:.4g}, "
                         f"above 2**53 where d is exact in float64")
    return max(2, math.ceil(bound))


def dit_rate_bound(family: tuple, k: int, a: int, b: int) -> float:
    """Upper bound on dit_rate(d, p(d), k) = max(0, g(d)) for every
    a <= d <= b, g(d) = log2 d - k h2(p) - k p log2(d-1), with
    p = dit_error_prob(., family) and h2 the binary entropy in bits.

    p(d) lies in [p(a), p(b)] and h2 is concave, so h2(p(d)) >= h_min, the
    smaller of h2(p(a)) and h2(p(b)). The bound is the lesser of two:

    * coupled: g(d) = (1 - k p) log2 d + k p log2(d/(d-1)) - k h2(p), so
      g <= (1 - k p(a)) log2 b + k p(b) log2(a/(a-1)) - k h_min, with
      log2 a for log2 b where 1 - k p(a) < 0. Where p(b) is 0, p is 0 on
      all of [a, b], every g(d) is log2 d, and this is log2 b exactly;
    * mean value (Piyavskii 1972, Shubert 1972), for 0 < p(b) < 1:
      g(d) <= g(a) + max(0, U) (b - a) for U >= sup g' on [a, b], where
      g' = 1/(d ln 2) - k p' (log2((1-p)/p) + log2(d-1)) - k p/((d-1) ln 2)
      and p'(d) = j z e^(-z^2) / (d sqrt(pi)), z = sqrt(num / (c d^j s)).
      ln p' has the slope -(j/2 + 1) + j z^2 in ln d, falling in d, so p'
      has one maximum and its least value on [a, b] is min(p'(a), p'(b)).
      U = 1/(a ln 2) - k min(p'(a), p'(b)) L - k p(a)/((b-1) ln 2) with L
      = log2((1-p(b))/p(b)) + log2(a-1), each term moved by _REL against
      the bound; this bound is skipped when L is not positive.

    Error budget (Higham, Accuracy and Stability, ch. 3): each term of a
    rate or of a bound is at most 2 log2(2**53) + 2 = 108 bits and is
    computed within 4 ulp (libm's log, log2, log1p and erfc within 1 ulp,
    half of one per product or sum; p's relative error, up to about 2 z^2
    ulp, enters only times p log2(1/p) and p log2 d, below an ulp of the
    rate). So a computed rate, and a computed bound, are within
    108 * 4 * 2**-52 = 9.6e-14 of their exact values: a computed rate
    exceeds the computed bound by at most 1.9e-13, under _BOUND_SLACK =
    1e-12. Each slope term of the mean-value bound, exp(-z^2) within about
    z^2 ulp among them, is within _REL of its exact value, so moving it by
    _REL keeps U an upper bound.

    The bound also bounds the rate 0 that dit_rate gives from p = (d-1)/d
    on. Where p(a) >= (b-1)/b every rate on [a, b] is that 0, and the bound
    is 0.0 (at p = 1 the coupled bound would stay at log2(a/(a-1))).
    dit_error_prob refuses a family that leaves float64 at a or b, and so
    on [a, b].
    """
    j = family[2]
    arg_a, arg_b = _erfc_argument(a, family), _erfc_argument(b, family)
    z_a, z_b = math.sqrt(arg_a), math.sqrt(arg_b)
    p_a, p_b = math.erfc(z_a), math.erfc(z_b)
    h_a, h_b = entropy_base_d(p_a, 2), entropy_base_d(p_b, 2)
    h_min = min(h_a, h_b)
    log2_gap = math.log2(a - 1)  # 0 when a == 2
    lead = 1.0 - k * p_a
    bound = lead * math.log2(b if lead >= 0.0 else a) \
        + k * p_b * math.log2(a / (a - 1)) - k * h_min
    if 0.0 < p_b < 1.0:
        logs = (math.log1p(-p_b) / _LN2, -math.log2(p_b), log2_gap)
        bracket = sum(logs) - _REL * (1.0 + sum(map(abs, logs)))
        if bracket > 0.0:
            drop = k * bracket * min(j * z_a * math.exp(-arg_a) / (a * _SQRT_PI),
                                     j * z_b * math.exp(-arg_b) / (b * _SQRT_PI))
            u = (1.0 + _REL) / (a * _LN2) - (1.0 - _REL) * (drop + k * p_a / ((b - 1) * _LN2))
            g_a = math.log2(a) - k * h_a - k * p_a * log2_gap
            bound = min(bound, g_a + max(0.0, u) * (b - a))
    return 0.0 if p_a >= (b - 1) / b else max(0.0, bound)


def optimize_dit_rate(family: tuple, k: int, d_max: int) -> tuple[int, float]:
    """A (d, dit_rate(d, p(d), k)), p the family's dit_error_prob, whose
    rate is within the slack _BOUND_SLACK (1 + |rate|) of the best over
    2 <= d <= d_max <= 2**53; which d of a flat top is left open.

    The search is best-first: a heap holds intervals keyed on their
    dit_rate_bound, starting from [2, d_max], so a family that leaves
    float64 is refused before any rate is evaluated. The top interval is
    split in two on a grid of leaves of at most _SCAN_CHUNK values
    starting at d = 2, at the grid point nearest below sqrt(a b) but with
    a leaf on either side (so an interval much wider than its start is
    halved in log d), or, if it is one leaf, each of its d is evaluated.
    It stops once the top bound is at most the best rate plus the slack
    (NaN, and no stop, until a rate is evaluated), so no exact rate beats
    the one returned by more than the slack plus the 1.9e-13 of
    dit_rate_bound's error budget.
    """
    if (isinstance(d_max, bool) or not hasattr(d_max, "__index__")
            or not 2 <= d_max <= D_LIMIT):
        raise ValueError(f"d_max = {d_max} must lie in [2, 2**53] and be an integer")
    d_max = int(d_max)
    best = (0, -math.inf)
    heap = [(-dit_rate_bound(family, k, 2, d_max), 2, d_max)]
    while heap and not -heap[0][0] <= best[1] + _BOUND_SLACK * (1.0 + abs(best[1])):
        _, a, b = heapq.heappop(heap)
        leaves = (b - a) // _SCAN_CHUNK + 1
        if leaves > 1:
            step = min(max(1, (math.isqrt(a * b) - a) // _SCAN_CHUNK), leaves - 1)
            mid = a + step * _SCAN_CHUNK
            heapq.heappush(heap, (-dit_rate_bound(family, k, a, mid - 1), a, mid - 1))
            heapq.heappush(heap, (-dit_rate_bound(family, k, mid, b), mid, b))
            continue
        for d in range(a, b + 1):
            rate = dit_rate(d, dit_error_prob(d, family), k)
            if rate > best[1]:
                best = (d, rate)
    return best


# ---------------------------------------------------------------------------
# The concatenated grid-qudit design: a CSS code over Z_d on grid qudits.

def qudit_family(noise: NoiseModel) -> tuple:
    """The family (pi hbar, 4.0, 1, sigma^2) of the grid-qudit bound."""
    return (math.pi * noise.hbar, 4.0, 1, noise.sigma_sq)


def gkp_qudit_error_prob(d: int, noise: NoiseModel) -> float:
    """Tail bound erfc(sqrt(pi hbar / (4 d sigma^2))) on p_X and p_Z of a
    grid qudit of integer dimension d."""
    if d < 1:
        raise ValueError("qudit dimension must be >= 1")
    return dit_error_prob(d, qudit_family(noise))


@dataclass(frozen=True)
class ConcatDesign:
    """Optimized concatenated design at one noise level."""

    sigma_sq: float
    d_opt: int
    p: float                 # per-qudit error bound at d_opt
    rate_qubits: float
    c_sq: float              # rate written as log2(c_sq * hbar / sigma_sq)


def optimize_qudit_dimension(noise: NoiseModel, d_max: int | None = None) -> ConcatDesign:
    """A qudit dimension 2 <= d <= d_max whose rate is within the scan's
    slack 1e-12 (1 + rate) of the best.

    The default ceiling 8 hbar / sigma^2 leaves the optimum (near
    c_sq * hbar / sigma^2 with c_sq < 1/e) well in the interior; below
    sigma^2 = 8 hbar / 2**53 it passes the scan's limit and is refused.
    The rate is dit_rate(d, p, 2), a CSS code over Z_d on grid qudits
    with p = p_X = p_Z the grid-qudit error bound (optimize_dit_rate).
    """
    if noise.sigma_sq == 0.0:  # no errors: the rate grows without bound in d
        raise ValueError("sigma_sq = 0 has no optimal qudit dimension")
    if d_max is None:
        d_max = scan_ceiling(8.0 * noise.hbar / noise.sigma_sq,
                             f"sigma_sq = {noise.sigma_sq!r} with hbar = {noise.hbar!r}")
    d_opt, rate = optimize_dit_rate(qudit_family(noise), 2, d_max)
    c_sq = 2.0 ** rate * noise.sigma_sq / noise.hbar
    if c_sq == math.inf:
        raise ValueError(f"c_sq = 2**rate * sigma_sq / hbar overflows float64 at "
                         f"sigma_sq = {noise.sigma_sq!r} with hbar = {noise.hbar!r}")
    return ConcatDesign(noise.sigma_sq, d_opt, gkp_qudit_error_prob(d_opt, noise), rate, c_sq)
