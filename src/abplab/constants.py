"""The coupled constant family driving the Harnack pipeline.

All constants are deterministic functions of (K, N, R) and depend on K and R
only through sqrt(K)*R.  Several of them (C3, C0, C1(p0), C2) are finite but
far beyond float64 range, so the ledger stores their logarithms alongside the
(possibly overflowed) raw values; every verification below compares in log
space whenever a raw value can overflow.

The growth exponent eta is taken in its definitional form log2(D_{K,N,2R})/N,
which is the exponent actually forced by iterating the doubling bound.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields

import numpy as np

from .report import CheckReport, check_eq, check_le

__all__ = ["CurvatureParams", "ConstantsLedger", "calH", "calS",
           "build_ledger", "verify_ledger"]

_E = math.e
_LOG18 = math.log(18.0)


def calH(t):
    """t * coth(t), extended by its limit 1 at t = 0 (series below 1e-4)."""
    t = np.asarray(t, float)
    if np.any(t < 0):
        raise ValueError("calH requires t >= 0")
    small = t < 1e-4
    ts = np.where(small, 0.0, t)
    out = np.where(small, 1.0 + t * t / 3.0 - t**4 / 45.0,
                   np.where(ts > 0, ts / np.tanh(np.where(ts > 0, ts, 1.0)), 1.0))
    return out if out.ndim else float(out)


def calS(t):
    """sinh(t) / t, extended by its limit 1 at t = 0 (series below 1e-4)."""
    t = np.asarray(t, float)
    if np.any(t < 0):
        raise ValueError("calS requires t >= 0")
    small = t < 1e-4
    ts = np.where(small, 1.0, t)
    out = np.where(small, 1.0 + t * t / 6.0 + t**4 / 120.0, np.sinh(ts) / ts)
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class CurvatureParams:
    """Ricci lower-bound magnitude K >= 0, effective dimension N, radius R."""

    K: float
    N: float  # in [2, inf]; math.inf allowed
    R: float

    def __post_init__(self):
        if not 0 <= self.K < math.inf:
            raise ValueError("K must be finite and >= 0")
        if not (self.N >= 2):
            raise ValueError("N must be >= 2")
        if not 0 < self.R < math.inf:
            raise ValueError("R must be finite and > 0")

    def ricci_gap(self, model, center, radius: float) -> float:
        """K_required - K on the origin ball of radius d(o, center) + radius,
        which holds B_radius(center); positive means Ric_{N,nu} >= -K g fails there."""
        reach = float(model.distance(model.origin(), center)) + radius
        return max(0.0, -model.ricci_lower_bound(self.N, reach)) - self.K

    @property
    def omega(self) -> float:
        if math.isinf(self.N):
            return 0.0
        return 2.0 * math.sqrt(self.K / self.N)


@dataclass(frozen=True)
class ConstantsLedger:
    params: CurvatureParams
    omega: float
    doubling_r: float
    doubling_2r: float
    doubling_4r: float
    eta: float
    alpha: float
    mu: float
    log_mu: float
    big_m: float
    log_big_m: float
    delta0: float
    log_delta0: float
    p0: float
    p1: float
    c3: float
    log_c3: float
    c0: float
    log_c0: float
    c1_p0: float
    log_c1_p0: float
    log_log_c1_p0: float
    c2: float
    log_c2: float
    log_log_c2: float

    def to_dict(self) -> dict:
        d = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "params"}
        d["K"], d["N"], d["R"] = self.params.K, self.params.N, self.params.R
        return d


def _log_doubling(K, N, r) -> float:
    # D_{K,N,r} = 2^N exp(4 r sqrt(NK))
    return N * math.log(2.0) + 4.0 * r * math.sqrt(N * K)


def build_ledger(params: CurvatureParams) -> ConstantsLedger:
    """Populate every constant for finite N; deterministic in (K, N, R)."""
    K, N, R = params.K, params.N, params.R
    if math.isinf(N):
        raise ValueError("the full ledger requires N < inf; the measure-estimate "
                         "bound handles N = inf without ledger constants")
    omega = params.omega
    log_d = {r: _log_doubling(K, N, r) for r in (R, 2 * R, 4 * R)}
    eta = log_d[2 * R] / (N * math.log(2.0))
    alpha = N * calH(omega * R)

    log_mu = -N * (3.0 * _LOG18 + 2.0 * math.log(alpha) + alpha * _LOG18
                   + _log_cosh(omega * R)) - 4.0 * log_d[4 * R]
    mu = math.exp(log_mu)
    log_big_m = math.log(2.0) + 2.0 * math.log(alpha) + alpha * _LOG18
    try:
        big_m = math.exp(log_big_m)
    except OverflowError:
        raise ValueError("M overflows float64 for these (K, N, R); the ledger "
                         "needs sqrt(K)R and N small enough that exp(log_M) is "
                         "representable") from None
    log_delta0 = -(math.log(2.0) + (4.0 / N) * log_d[2 * R] + math.log(calS(omega * R)))
    delta0 = math.exp(log_delta0)

    # p0 = (1 - log[1 + (e-1)(1-mu)]) / log M.  The numerator equals
    # -log1p(-(e-1) mu / e); the naive form underflows to 0 for tiny mu.
    if mu == 0.0:
        raise ValueError("mu underflows float64 for these (K, N, R); "
                         "the ledger needs sqrt(K)R and N small enough that "
                         "exp(log_mu) is representable")
    p0 = -math.log1p(-(_E - 1.0) * mu / _E) / log_big_m
    log_c0 = 2.0 / p0
    p1 = p0 / (N * eta)
    log_c3 = math.log(2.0) + log_d[2 * R] + (log_big_m / p0 - log_mu) / N
    # geometric sum_k (1 + 1/M)^{-k p1} in closed form, via expm1 for tiny p1
    log_series = -math.log(-math.expm1(-p1 * math.log1p(1.0 / big_m)))
    # log C1 = head / p1 - log delta0 can itself overflow (C1 is doubly
    # exponential in sqrt(K)R and N), so keep an iterated logarithm as well
    head = math.log(3.0) + log_c3 + log_series
    if math.log(head) - math.log(p1) < 700.0:
        log_c1 = head / p1 - log_delta0
        log_log_c1 = math.log(log_c1)
    else:
        log_c1 = math.inf
        log_log_c1 = (math.log(head) - math.log(p1)
                      + math.log1p(-log_delta0 * p1 / head))

    def safe_exp(x):
        try:
            return math.exp(x)
        except OverflowError:
            return math.inf

    return ConstantsLedger(
        params=params,
        omega=omega,
        doubling_r=safe_exp(log_d[R]),
        doubling_2r=safe_exp(log_d[2 * R]),
        doubling_4r=safe_exp(log_d[4 * R]),
        eta=eta,
        alpha=alpha,
        mu=mu,
        log_mu=log_mu,
        big_m=big_m,
        log_big_m=log_big_m,
        delta0=delta0,
        log_delta0=log_delta0,
        p0=p0,
        p1=p1,
        c3=safe_exp(log_c3),
        log_c3=log_c3,
        c0=safe_exp(log_c0),
        log_c0=log_c0,
        c1_p0=safe_exp(log_c1),
        log_c1_p0=log_c1,
        log_log_c1_p0=log_log_c1,
        c2=safe_exp(log_c1),
        log_c2=log_c1,
        log_log_c2=log_log_c1,
    )


def _log_cosh(t: float) -> float:
    return abs(t) + math.log1p(math.exp(-2.0 * abs(t))) - math.log(2.0)


def verify_ledger(ledger: ConstantsLedger) -> list[CheckReport]:
    """Machine-check the four coupled-constants statements plus the decay gap.

    Raises if the geometric series behind statement (i) diverges, which would
    signal a ledger construction bug rather than a failed check.
    """
    lg = ledger
    x = math.expm1(lg.p0 * lg.log_big_m)  # M^{p0} - 1, accurate for tiny p0
    denom = lg.mu - x * (1.0 - lg.mu)     # 1 - M^{p0}(1 - mu)
    if denom <= 0.0:
        raise ValueError("geometric series diverges: M^p0 (1 - mu) >= 1")
    series_sum = 1.0 / denom
    lhs_i = 1.0 + x * series_sum

    reports = [
        check_eq("ledger-identity-e", "coupled-constants-i", lhs_i, _E,
                 abs_tol=1e-10, series_sum=series_sum),
        # proof form of (ii): e^{1/p0} >= 1/delta0, compared in log space
        check_le("ledger-delta0-bound", "coupled-constants-ii",
                 -lg.log_delta0, 1.0 / lg.p0,
                 delta0=lg.delta0, log_form="(-log delta0) <= 1/p0"),
        check_le("ledger-p0-lower", "coupled-constants-iii",
                 lg.mu / (4.0 * lg.log_big_m), lg.p0),
        _finite_positive_c2(lg),
        _c3_gap(lg),
    ]
    return reports


def _finite_positive_c2(lg: ConstantsLedger) -> CheckReport:
    # C2 > 1 is doubly exponential, so build_ledger's log C2 > 0 makes log log C2
    # real; |log log C2| <= the largest float holds iff it is also finite.
    return check_le("ledger-c2-finite", "coupled-constants-iv",
                    abs(lg.log_log_c2), sys.float_info.max, log_c2=lg.log_c2,
                    note="C2 certified finite and > 1 via its iterated logarithm")


def _c3_gap(lg: ConstantsLedger) -> CheckReport:
    # D_{2R} * M / mu^{1/p0} * (1/C3)^{N eta / p0} < 1, all in logs
    N, eta = lg.params.N, lg.eta
    log_lhs = (math.log(lg.doubling_2r) + lg.log_big_m - lg.log_mu / lg.p0
               - (N * eta / lg.p0) * lg.log_c3)
    return check_le("ledger-c3-gap", "decay-rate-gap", log_lhs, 0.0,
                    note="log of the contraction factor must be negative")
