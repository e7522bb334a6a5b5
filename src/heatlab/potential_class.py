"""Desk-scale diagnostics for classes of potentials.

Two probes, both reported as numbers or verdicts rather than gates:

* Kato-type smallness: the modulus
      kato(t) = sup_x int_0^t sum_y p(s,x,y) |w(y)| mu(y) ds,
  integrated in closed form over the uniformized series,
      int_0^t e^{-sH} v ds = (1/Lambda) sum_k P(N > k) R^k v,
  N ~ Poisson(Lambda t) (Reibman and Trivedi, Stochastic Models 5, 1989),
  and applied to v = |w| without building any heat table. Every weight is
  >= 0, so the value is nonnegative and monotone in t by construction, and
  it is a lower bound of the integral within a certified remainder (see
  kato_modulus).

* Curvature-profile admissibility: for a growth profile (m, A, c_k) the
  series sum_k c_k k^m e^{2 L k}, L = sqrt((m-1) A), with a tri-state
  verdict. A finite partial sum cannot prove convergence, so "admissible"
  is only declared with an explicit decay-ratio certificate: all ratios
  over the trailing window of 16 ratios below one and geometric tail bound
  a_K q/(1-q) < 1e-9. "Inadmissible" means the window terms are bounded
  below by a positive constant with no decay trend; anything else is
  "undecided". The doubling-constant variant c_k (2k)^m e^{2Lk} is the
  same series scaled by 2^m and is exposed alongside.

  A pure power series a_k = c k^p (L = 0 with a constant or power rule) is
  summed in closed form: math.fsum of the terms up to k = 1024, then
  Euler-Maclaurin with six Bernoulli corrections, whose remainder bound
  is below 1e-15 of the sum for every exponent with finite terms. Every
  other profile is summed directly, in chunks. Either way the window is
  the last terms themselves, so the certificate does not depend on how
  the sum was taken.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConfigError, InputError
from .graphs import WeightedGraph, require_connected
from .kernels import _chain_action, _stepwise_weights
from .traces import as_potential
from .util import (check_keys, check_time, floats, kahan_sum, number,
                   require)

# the Kato weights are cut where the Poisson tail is below rounding
_KATO_TAIL_CUTOFF = 2.0 ** -64
ADMISSIBLE_TAIL_TOL = 1e-9
_WINDOW = 16
_CHUNK = 1 << 22
_FLOOR = 1e-12
# Euler-Maclaurin for power series: the terms k <= _EM_HEAD are summed
# exactly, the rest with B_2j / (2j)! corrections for j = 1.._EM_ORDER. The
# remainder 2 zeta(2J) / (2 pi)^{2J} |f^{(2J-1)}(K) - f^{(2J-1)}(K0 + 1)| is
# below 1e-15 of the sum for every exponent that leaves c (K0 + 1)^p finite.
_EM_HEAD = 1024
_EM_ORDER = 6
_EM_COEFFS = tuple(b / math.factorial(2 * j) for j, b in enumerate(
    (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730), start=1))


def kato_modulus(graph: WeightedGraph, w, t: float) -> float:
    """sup_x int_0^t sum_y p(s,x,y)|w(y)| mu(y) ds, exactly up to a cut.

    The inner sum is [e^{-sH} |w|]_x. Integrating the uniformized series
    term by term, int_0^t e^{-Lambda s} (Lambda s)^k / k! ds equals
    P(N > k) / Lambda with N ~ Poisson(Lambda t), so the integral is
    sum_k c_k R^k |w| with c_k = P(N > k) / Lambda >= 0. Each c_k is summed
    from the right of Poisson weights pmf_0..pmf_K cut at a tail bound
    tail <= 2^-64 min(1, Lambda t), so it is at most the exact one and the
    cut stays below rounding even when Lambda t is small.

    Certificate: the value is at most the exact modulus and below it by at
    most max|w| * tail * (K + 1 + r / (1 - r)^2) / Lambda, r =
    Lambda t / (K + 2) < 1: each c_k, k <= K, misses at most tail / Lambda,
    and sum_{k > K} P(N > k) <= tail r / (1 - r)^2. That is below 1e-18
    t max|w| for every Lambda t the cap admits, so rounding, about
    sqrt(K) eps relative, decides the accuracy. Nonnegative, monotone and
    subadditive in t. Lambda t above MAX_BRIDGE_TERMS raises
    NTruncationExceeded; a disconnected graph raises DisconnectedGraph.
    """
    check_time(t)
    require_connected(graph)
    pot = as_potential(w, graph.n)
    lam = graph.jump_chain()[0]
    lam_t = lam * t
    pmf, _ = _stepwise_weights(lam_t, _KATO_TAIL_CUTOFF * min(1.0, lam_t))
    # c_k = P(N > k) / Lambda for k < K (c_K, below the tail, is dropped);
    # with Lambda t = 0, e^{-sH} = I on [0, t] and the integral is t |w|
    coeffs = np.cumsum(pmf[:0:-1])[::-1] / lam if lam_t else np.array([t])
    per_vertex = _chain_action(graph, coeffs, np.abs(pot))
    return float(per_vertex.max())


# ------------------------------------------------------------ growth rules


@dataclass
class GrowthProfile:
    """Annulus profile for the curvature admissibility series.

    m is the comparison dimension, A >= 0 the curvature-bound magnitude and
    c_values(k) the annulus coefficients c_k for integer k >= 2 (vectorized).
    """

    m: int
    a: float
    c_values: Callable[[np.ndarray], np.ndarray]
    k_max: int

    def __post_init__(self):
        self.m = int(self.m)
        self.a = float(self.a)
        self.k_max = int(self.k_max)
        if not 1 <= self.m <= 1023:    # the doubling scale 2^m is a double
            raise InputError("dimension m must be in 1..1023")
        if not self.a >= 0:     # NaN fails too
            raise InputError("curvature magnitude A must be >= 0")
        if not 3 <= self.k_max <= 2 ** 53:     # every k is an exact double
            raise InputError("k_max must be in 3..2^53")

    @property
    def growth_rate(self) -> float:
        """L = sqrt((m-1) A), the exponential rate of the series terms."""
        return math.sqrt((self.m - 1) * self.a)

    @property
    def power_law(self):
        """(c, p) when a_k = c k^p: L = 0 and a constant or power rule."""
        power = getattr(self.c_values, "power", None)
        if power is None or self.growth_rate != 0.0:
            return None
        c, exponent = power
        return c, exponent + self.m

    def terms(self, k: np.ndarray) -> np.ndarray:
        """a_k = c_k * k^m * e^{2 L k}.

        When the coefficient rule exposes log c_k the product is assembled
        in log space, so an underflowing c_k against an overflowing e^{2Lk}
        cannot produce 0 * inf = nan.
        """
        k = np.asarray(k, dtype=float)
        rate = self.growth_rate
        if rate == 0.0:
            with np.errstate(over="ignore"):
                return np.asarray(self.c_values(k), dtype=float) * k ** self.m
        log_c = getattr(self.c_values, "log", None)
        if log_c is not None:
            with np.errstate(over="ignore"):
                return np.exp(np.asarray(log_c(k), dtype=float)
                              + self.m * np.log(k) + 2.0 * rate * k)
        base = np.asarray(self.c_values(k), dtype=float) * k ** self.m
        with np.errstate(over="ignore"):
            return base * np.exp(2.0 * rate * k)


def constant_rule(value: float) -> Callable:
    value = float(value)
    rule = lambda k: np.full_like(np.asarray(k, dtype=float), value)
    rule.power = (value, 0.0)
    if value > 0:
        rule.log = lambda k: np.full_like(np.asarray(k, dtype=float),
                                          math.log(value))
    return rule


def power_rule(exponent: float) -> Callable:
    exponent = float(exponent)
    rule = lambda k: np.asarray(k, dtype=float) ** exponent
    rule.power = (1.0, exponent)
    rule.log = lambda k: exponent * np.log(np.asarray(k, dtype=float))
    return rule


def quadratic_growth_rule(rate: float) -> Callable:
    """c_k = exp(-rate (k-1)^2): the profile of w(x) >= rate * d(x)^2.

    For rate >= 0 log c_k is concave, so the series terms are log-concave
    (marked log_concave) and the direct sum may stop where they vanish.
    """
    rate = float(rate)
    rule = lambda k: np.exp(-rate * (np.asarray(k, dtype=float) - 1.0) ** 2)
    rule.log = lambda k: -rate * (np.asarray(k, dtype=float) - 1.0) ** 2
    rule.log_concave = rate >= 0
    return rule


def table_rule(values) -> Callable:
    table = np.asarray(values, dtype=float)

    def rule(k):
        idx = np.asarray(k, dtype=int) - 2
        if idx.size and (idx.min() < 0 or idx.max() >= table.size):
            raise InputError(
                f"table rule covers k = 2..{table.size + 1} only")
        return table[idx]

    return rule


# the coefficient key of each c_k rule, besides "rule" itself
_RULE_KEYS = {"constant": "value", "power": "exponent",
              "quadratic-growth": "rate", "table": "values"}


def growth_profile_from_config(doc: dict) -> GrowthProfile:
    """Build a profile from a config document (m, A, rule, k_max); a key
    the profile or its rule does not take is a ConfigError."""
    check_keys(doc, ("m", "A", "k_max", "rule"), "profile")
    try:
        m = number(doc, "m", "profile", int)
        a = number(doc, "A", "profile")
        k_max = number(doc, "k_max", "profile", int)
        rule = doc["rule"]
        kind = rule["rule"]
        if kind not in _RULE_KEYS:
            raise ConfigError(f"unknown c_k rule {kind!r}")
        check_keys(rule, ("rule", _RULE_KEYS[kind]), "rule")
        if kind == "constant":
            c = constant_rule(number(rule, "value", "rule", default=1.0))
        elif kind == "power":
            c = power_rule(number(rule, "exponent", "rule"))
        elif kind == "quadratic-growth":
            c = quadratic_growth_rule(number(rule, "rate", "rule"))
        else:
            values = floats(require(rule, "values", "rule"), "rule 'values'")
            c = table_rule(values)
            k_max = min(k_max, values.size + 1)
        return GrowthProfile(m=m, a=a, c_values=c, k_max=k_max)
    except (AttributeError, InputError, KeyError, OverflowError, TypeError,
            ValueError) as exc:
        raise ConfigError(f"bad growth profile: {exc!r}") from None


# ------------------------------------------------------------- the verdict


@dataclass
class AdmissibilityResult:
    verdict: str                    # admissible | inadmissible | undecided
    k_max: int
    partial_sum: float
    doubling_partial_sum: float
    doubling_scale: float
    window_terms: np.ndarray
    window_ratios: np.ndarray
    certified_ratio: float
    tail_bound: float
    checkpoints: list = field(default_factory=list)  # (k, term, partial_sum)

    header = ("k", "term", "partial_sum", "doubling_partial_sum")

    def rows(self):
        for k, term, partial in self.checkpoints:
            yield (k, term, partial, partial * self.doubling_scale)


def ricci_admissibility(profile: GrowthProfile) -> AdmissibilityResult:
    """Evaluate the admissibility series and certify a verdict.

    Partial sums are recorded at powers of two and at k_max: in closed form
    for a pure power series, by chunked compensated sums otherwise. The
    window is the last _WINDOW + 1 terms, evaluated directly.
    """
    k_max = profile.k_max
    ks = [2 ** i for i in range(1, 64) if 2 ** i <= k_max]
    if k_max not in ks:
        ks.append(k_max)
    power = profile.power_law
    if power is None:
        partials, total = _direct_sums(profile, ks)
    else:
        partials = _power_sums(profile, ks, *power)
        total = partials[-1]
    checkpoints = list(zip(ks, profile.terms(np.array(ks, dtype=float))
                           .tolist(), partials))
    tail_terms = profile.terms(np.arange(max(2, k_max - _WINDOW), k_max + 1,
                                         dtype=float))
    # a term underflowing to exact zero decays "perfectly": its ratio is 0;
    # a zero followed by a positive term breaks decay (ratio +inf)
    prev, nxt = tail_terms[:-1], tail_terms[1:]
    with np.errstate(invalid="ignore", divide="ignore"):
        ratios = np.where(prev > 0, nxt / np.where(prev > 0, prev, 1.0),
                          np.where(nxt == 0, 0.0, np.inf))
    finite = np.all(np.isfinite(tail_terms))
    decaying = finite and ratios.size > 0 and bool(np.all(ratios < 1.0))
    q = float(np.max(ratios)) if ratios.size else float("nan")
    last = float(tail_terms[-1]) if tail_terms.size else float("nan")
    tail_bound = last * q / (1.0 - q) if decaying else float("inf")
    if decaying and tail_bound < ADMISSIBLE_TAIL_TOL:
        verdict = "admissible"
    elif (tail_terms.size and np.min(tail_terms) >= _FLOOR
          and (not finite or not ratios.size or np.max(ratios) >= 1.0)):
        verdict = "inadmissible"
    else:
        verdict = "undecided"
    return AdmissibilityResult(
        verdict=verdict, k_max=k_max, partial_sum=total,
        doubling_partial_sum=total * 2.0 ** profile.m,
        doubling_scale=2.0 ** profile.m,
        window_terms=(tail_terms[1:] if tail_terms.size > _WINDOW
                      else tail_terms),
        window_ratios=ratios, certified_ratio=q, tail_bound=tail_bound,
        checkpoints=checkpoints)


def _nonnegative(terms: np.ndarray) -> np.ndarray:
    if np.any(terms < 0):
        raise InputError("series terms must be nonnegative (c_k >= 0)")
    return terms


def _direct_sums(profile: GrowthProfile, ks: list) -> tuple:
    """Partial sums at ks and the total, by chunks combined with Kahan.

    Once the running total is +inf every later partial sum is too, so the
    remaining chunks are not evaluated. Neither are they once a log-concave
    profile's terms have vanished (_vanished): every later chunk then sums
    to +0.0, which only applies Kahan's pending compensation, so those
    chunks are replayed as zeros until one leaves the total unchanged, a
    fixed point of the compensation. The results are bit-identical to
    evaluating every chunk.
    """
    partials, chunk_sums, total = [], [], 0.0
    start, vanished = 2, False
    while start <= profile.k_max and total != math.inf:
        stop = min(start + _CHUNK - 1, profile.k_max)
        if vanished:
            partials += [total for k in ks if start <= k <= stop]
            chunk_sums.append(0.0)
            before, total = total, kahan_sum(chunk_sums)
            if total == before:
                break
        else:
            terms = _nonnegative(profile.terms(np.arange(start, stop + 1,
                                                         dtype=float)))
            partials += [total + float(np.sum(terms[:k - start + 1]))
                         for k in ks if start <= k <= stop]
            chunk_sums.append(float(np.sum(terms)))
            total = kahan_sum(chunk_sums)
            vanished = _vanished(profile, terms, stop)
        start = stop + 1
    return partials + [total] * (len(ks) - len(partials)), total


def _vanished(profile: GrowthProfile, terms: np.ndarray, stop: int) -> bool:
    """Whether every term past stop is 0.0, for a log-concave profile.

    log a_k = log c_k + m log k + 2 L k is concave, so once it decreases
    from stop - 1 to stop it decreases from there on, and a term at stop
    that has underflowed to 0.0 stays 0.0.
    """
    if not getattr(profile.c_values, "log_concave", False) or terms[-1]:
        return False
    k = np.array([stop - 1, stop], dtype=float)
    log_terms = (profile.c_values.log(k) + profile.m * np.log(k)
                 + 2.0 * profile.growth_rate * k)
    return bool(log_terms[1] < log_terms[0])


def _fsum(values) -> float:
    """math.fsum of nonnegative values; +inf past the largest double."""
    try:
        return math.fsum(values)
    except OverflowError:
        return math.inf


def _power_sums(profile: GrowthProfile, ks: list, c: float,
                p: float) -> list:
    """Partial sums of c k^p at ks: exact up to _EM_HEAD, then closed form.

    Past the head each checkpoint adds the Euler-Maclaurin sum of the
    segment since the previous one; every segment is nonnegative, so the
    partial sums are nondecreasing.
    """
    head = _nonnegative(profile.terms(np.arange(
        2, min(ks[-1], _EM_HEAD) + 1, dtype=float))).tolist()
    parts = [_fsum(head)]
    partials, done = [], _EM_HEAD
    for k in ks:
        if k <= _EM_HEAD:
            partials.append(_fsum(head[:k - 1]))
        else:
            parts.append(_power_segment(c, p, done + 1, k))
            partials.append(_fsum(parts))
            done = k
    return partials


def _power_segment(c: float, p: float, a: int, b: int) -> float:
    """sum_{k=a}^{b} c k^p by Euler-Maclaurin, for c >= 0 and a > _EM_HEAD.

    The integral goes through expm1 of s log(b/a), s = p + 1, so it does
    not cancel near p = -1; the odd derivatives c (p)_r x^{p-r} are f(x)
    times the falling factorial of p over x^r.
    """
    with np.errstate(over="ignore", under="ignore"):
        fa, fb = c * np.float64(a) ** p, c * np.float64(b) ** p
        if fa == 0.0 and p < 0:
            return 0.0         # every term rounds to zero
        if math.isinf(fa) or math.isinf(fb):
            return math.inf
        s, log_ratio = p + 1.0, math.log1p((b - a) / a)
        if s > 0:
            integral = fb * (-math.expm1(-s * log_ratio) / s) * b
        else:
            integral = fa * (math.expm1(s * log_ratio) / s if s else
                             log_ratio) * a
        falling = p - np.arange(2 * _EM_ORDER - 1)
        odd_a = fa * np.cumprod(falling / a)[::2]
        odd_b = fb * np.cumprod(falling / b)[::2]
        corrections = np.asarray(_EM_COEFFS) * (odd_b - odd_a)
    return _fsum([float(integral), 0.5 * float(fa), 0.5 * float(fb),
                  *corrections.tolist()])
