"""Random-code rates over d-ary symbols, and the best-first scan over d.

Both concatenated schemes bound the error probability of one symbol by
one erfc family, family = (num, c, j, s): p(d) = erfc(sqrt(num / (c d^j s))),
increasing in d. Grid qudits under Gaussian displacements take
(pi hbar, 4.0, 1, sigma^2), d-ary signals under an average power P take
(1.5 P, 1.0, 2, sigma^2). optimize_dit_rate maximizes dit_rate(d, p(d), k).
"""

from __future__ import annotations

import heapq
import math
import sys
from functools import cache

import numpy as np


@cache
def _erfc_ufunc() -> np.ufunc:
    """scipy's erfc ufunc, loaded on first use without the package init of
    scipy.special, which imports far more than erfc needs (array-API
    support, numpy.testing, numpy.ma, numpy.f2py).

    After the cheap ``import scipy``, the extension scipy/special/
    _special_ufuncs<suffix> is loaded by path under its real module name
    and put in sys.modules, so a later ``import scipy.special`` reuses it
    and its erfc is this very object. The module is then no attribute of
    that scipy.special (the import system sets one only for a submodule it
    loads itself); no scipy code reads it so. Where the file or its erfc
    ufunc is missing (older scipy), ``from scipy.special import erfc``
    runs instead.
    """
    import importlib.machinery
    import importlib.util
    import os

    import scipy
    name = "scipy.special._special_ufuncs"
    if name not in sys.modules:
        stem = os.path.join(scipy.__path__[0], "special", "_special_ufuncs")
        paths = [stem + suffix for suffix in importlib.machinery.EXTENSION_SUFFIXES]
        path = next((path for path in paths if os.path.isfile(path)), None)
        if path is not None:
            spec = importlib.util.spec_from_file_location(name, path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            sys.modules[name] = module
    erfc = getattr(sys.modules.get(name), "erfc", None)
    if isinstance(erfc, np.ufunc):
        return erfc
    from scipy.special import erfc
    return erfc


def dit_error_prob(d: int | np.ndarray, family: tuple) -> float | np.ndarray:
    """The family's p(d) for an integer d or an array of them, operations in
    exactly the order num / (c d^j s): a folded constant rounds differently.
    A run that evaluates no p never loads scipy (see _erfc_ufunc).

    This decides the family's float64 domain: where c d^j s is not
    positive or the erfc argument is not finite, or where c d^j s
    overflows unless erfc(sqrt(num / DBL_MAX)) is 1.0 (so that p = 1 is
    exact there), the family is refused, naming the least and greatest d.
    """
    num, c, j, s = family
    ds = np.asarray(d, dtype=float)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        product = c * ds ** j * s
        arg = num / product
    if not ((product > 0.0).all() and np.isfinite(arg).all()) or (
            np.isinf(product).any()
            and _erfc_ufunc()(math.sqrt(num / sys.float_info.max)) != 1.0):
        raise ValueError(f"the erfc argument {num!r} / ({c!r} * d**{j} * {s!r}) "
                         f"leaves float64 for some {int(ds.min())} <= d <= {int(ds.max())}")
    return _erfc_ufunc()(np.sqrt(arg))


def entropy_base_d(p: float | np.ndarray, d: int | np.ndarray) -> float | np.ndarray:
    """Binary-split entropy -p log_d p - (1-p) log_d (1-p); 0 at p in {0,1}.
    Scalars or arrays (broadcast together)."""
    p = np.asarray(p, dtype=float)
    if not np.all((p >= 0.0) & (p <= 1.0)):
        raise ValueError("p must lie in [0, 1]")
    if np.any(np.asarray(d) < 2):
        raise ValueError("entropy base must be >= 2")
    with np.errstate(divide="ignore", invalid="ignore"):
        h = -(p * np.log(p) + (1.0 - p) * np.log1p(-p)) / np.log(d)
    return np.where((p > 0.0) & (p < 1.0), h, 0.0)[()]  # [()]: scalar for scalar input


def dit_rate(d: int | np.ndarray, p, k: int) -> float | np.ndarray:
    """Bits per d-ary symbol of a random code when each of k error sectors
    hits a symbol with probability p, spread evenly over the d - 1 wrong
    values: log2(d) max(0, 1 - k H_d(p) - k p log_d(d-1)). k = 1 is the
    classical outer code, k = 2 a CSS code over Z_d with p_X = p_Z = p.
    The rate is 0 from p = (d-1)/d on, where the formula would rise again.
    Scalars or arrays (broadcast together)."""
    if np.any(np.asarray(d) < 2):
        raise ValueError("dimension d must be >= 2")
    log_ratio = np.log(d - 1) / np.log(d)  # 0 when d == 2
    rate = np.log2(d) * np.maximum(0.0, 1.0 - k * entropy_base_d(p, d) - k * p * log_ratio)
    return np.where(np.asarray(p) < (d - 1) / d, rate, 0.0)[()]


_SCAN_CHUNK = 1 << 16  # d values per block of a scan; bounds its memory
_BOUND_SLACK = 1e-9    # float slack, relative to 1 + |best|, before a block bound prunes
_D_LIMIT = 2 ** 53     # largest scan ceiling: every d up to it is exact in float64


def scan_ceiling(bound: float, source: str) -> int:
    """Default scan ceiling max(2, ceil(bound)). A bound above _D_LIMIT
    (or an infinite one) is refused with an error naming the input,
    ``source``, that set it."""
    if not bound <= _D_LIMIT:
        raise ValueError(f"{source} puts the default ceiling on d at {bound:.4g}, "
                         f"above 2**53 where d is exact in float64")
    return max(2, math.ceil(bound))


def dit_rate_bound(family: tuple, k: int, a: int, b: int) -> float:
    """Upper bound on dit_rate(d, p(d), k) = max(0, log2 d - k h2(p)
    - k p log2(d-1)) for every a <= d <= b, with p = dit_error_prob(., family)
    and h2 the binary entropy in bits:

    max(0, log2 b - k min(h2(p(a)), h2(p(b))) - k p(a) log2(a-1)).

    log2 d <= log2 b; p(d) lies in [p(a), p(b)] and h2 is concave, so
    h2(p(d)) is at least its smaller endpoint value; p(d) log2(d-1) is a
    product of nonnegative nondecreasing factors, so it is at least its
    value at a. The bound only grows as its interval widens; it also
    bounds the rate 0 that dit_rate gives from p = (d-1)/d on. For a > 2
    it is -inf where every rate on [a, b] is exactly 0 (p(a) >= (b-1)/b,
    or the unclamped bound at most -_BOUND_SLACK), which never displaces
    the first maximum. dit_error_prob refuses a family that leaves
    float64 on [a, b].
    """
    p_a, p_b = dit_error_prob(np.array([a, b], dtype=np.int64), family)
    h_min = min(entropy_base_d(p_a, 2), entropy_base_d(p_b, 2))
    bound = math.log2(b) - k * h_min - k * p_a * math.log2(a - 1)
    if a > 2 and (p_a >= (b - 1) / b or bound <= -_BOUND_SLACK):
        return -math.inf
    return max(0.0, bound)


def optimize_dit_rate(family: tuple, k: int, d_max: int) -> tuple[int, float]:
    """Best (d, dit_rate(d, p(d), k)) over 2 <= d <= d_max <= 2**53 with p
    the family's dit_error_prob; ties go to the smallest d.

    The search is best-first: a heap holds intervals keyed on their
    dit_rate_bound, starting from [2, d_max], so a family that leaves
    float64 is refused before any rate is evaluated. The top interval is
    split in two on a grid of blocks of at most _SCAN_CHUNK values
    starting at d = 2, or evaluated as one array if it is one block, so
    memory stays bounded. It stops once the top bound plus the float
    slack _BOUND_SLACK (1 + |best|) is at most the best rate, when no
    interval left can hold a value equal to the best. A block replaces
    the best on a higher rate, or an equal one at a smaller d, so the
    result is the first maximum of the whole range, bit for bit.
    """
    if (isinstance(d_max, bool) or not isinstance(d_max, (int, np.integer))
            or not 2 <= d_max <= _D_LIMIT):
        raise ValueError(f"d_max = {d_max} must lie in [2, 2**53] and be an integer")
    best = (0, -math.inf)
    heap = [(-dit_rate_bound(family, k, 2, d_max), 2, d_max)]
    while heap and -heap[0][0] + _BOUND_SLACK * (1.0 + abs(best[1])) > best[1]:
        _, a, b = heapq.heappop(heap)
        blocks = (b - a) // _SCAN_CHUNK + 1
        if blocks > 1:
            mid = a + blocks // 2 * _SCAN_CHUNK
            heapq.heappush(heap, (-dit_rate_bound(family, k, a, mid - 1), a, mid - 1))
            heapq.heappush(heap, (-dit_rate_bound(family, k, mid, b), mid, b))
            continue
        ds = np.arange(a, b + 1, dtype=np.int64)
        rates = dit_rate(ds, dit_error_prob(ds, family), k)
        idx = int(np.argmax(rates))
        if rates[idx] > best[1] or (rates[idx] == best[1] and ds[idx] < best[0]):
            best = (int(ds[idx]), float(rates[idx]))
    return best
