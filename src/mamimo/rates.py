"""Uplink/downlink sum rates with transmit-hardware distortion.

All rates are spectral efficiencies in bit/s/Hz. Hardware quality is captured
by the error vector magnitude: a transmitted symbol carries the fraction
kappa = 1 - EVM^2 of its power as useful signal and the rest as uncorrelated
distortion noise, which no receiver processing can cancel.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

UL_LIN = "ul-lin"
UL_SIC = "ul-sic"
DL_LIN = "dl-lin"
DL_DPC = "dl-dpc"
ZERO_INTERFERENCE = "zero-interference"

_LN2 = float(np.log(2.0))
_DPC_REL_TOL = 1e-10  # DPC ascent stops once a step gains less than this, relatively
_DPC_MAX_ITERATIONS = 500  # or after this many ascent steps
_DPC_STEP_FLOOR = 1e-14  # the line search gives up below this fraction of the curvature step
_DPC_EXPAND_RATIO = 1.25  # the step doubles when a gain beats its quadratic model by this


@dataclass(frozen=True, eq=False)
class ImpairedLinkConfig:
    """Per-link powers, hardware quality, and noise.

    `powers[nu, k]` is the transmit power of user k on subcarrier nu in watts.
    `total_power` is the downlink budget summed over users and subcarriers.
    The useful-signal fraction kappa is derived from the EVM, so
    kappa + EVM^2 = 1 holds exactly and the total radiated power is
    independent of the EVM.
    """

    powers: np.ndarray  # (S, K)
    evm: float
    noise_variance: float
    total_power: float | None = None

    def __post_init__(self) -> None:
        p = np.array(self.powers, dtype=float)
        if p.ndim != 2:
            raise ValueError("powers must have shape (S, K)")
        if not np.all((p >= 0) & (p < np.inf)):
            raise ValueError("powers must be finite and nonnegative")
        if not (0.0 <= self.evm < 1.0):
            raise ValueError(f"evm must lie in [0, 1), got {self.evm}")
        if not 0 < self.noise_variance < math.inf:
            raise ValueError(f"noise_variance must be finite and positive, got {self.noise_variance}")
        if self.total_power is not None and not 0 < self.total_power < math.inf:
            raise ValueError(f"total_power must be finite and positive, got {self.total_power}")
        p.setflags(write=False)
        object.__setattr__(self, "powers", p)

    @property
    def kappa(self) -> float:
        return 1.0 - self.evm**2

    @classmethod
    def uniform(
        cls,
        user_count: int,
        subcarrier_count: int,
        power: float,
        evm: float,
        noise_variance: float,
        total_power: float | None = None,
    ) -> "ImpairedLinkConfig":
        return cls(
            np.full((subcarrier_count, user_count), float(power)),
            evm,
            noise_variance,
            total_power,
        )


@dataclass(frozen=True, eq=False)
class RateReport:
    """Rates of one scheme on one channel instance, or on each of a stack.

    `sum_rate` is the mean over subcarriers of the per-subcarrier user sums,
    a float for one instance and a (P,) array for a stack of P instances.
    For the SIC and DPC schemes the per-user split uses the ascending decode
    order and sums to `sum_rate` up to rounding. Reports produced on a hot
    path may omit `per_user_rates`. Non-finite rates are rejected.
    """

    scheme: str
    sum_rate: float | np.ndarray
    per_user_rates: np.ndarray | None  # (K,), or (P, K) for a stack

    def __post_init__(self) -> None:
        if not np.isfinite(self.sum_rate).all():
            raise ValueError(f"{self.scheme} sum_rate is not finite")
        if self.per_user_rates is not None and not np.isfinite(self.per_user_rates).all():
            raise ValueError(f"{self.scheme} per_user_rates is not finite")


def _report(scheme: str, rates: np.ndarray | None, per_subcarrier: np.ndarray) -> RateReport:
    """Report of the (..., S) per-subcarrier sums and, unless `rates` is None,
    of the per-user means of the (..., S, K) per-user rates."""
    sum_rate = per_subcarrier.mean(axis=-1)
    return RateReport(
        scheme=scheme,
        sum_rate=float(sum_rate) if sum_rate.ndim == 0 else sum_rate,
        per_user_rates=None if rates is None else rates.mean(axis=-2),
    )


def _check_channels(h: np.ndarray, config: ImpairedLinkConfig) -> None:
    """Require (S, M, K) or (P, S, M, K) channels whose S and K match
    `config.powers`, so no rate broadcasts powers over other users or
    subcarriers."""
    if h.ndim not in (3, 4) or (h.shape[-3], h.shape[-1]) != config.powers.shape:
        raise ValueError(
            f"channels of shape {h.shape} do not match powers of shape {config.powers.shape}: "
            "expected (S, M, K) or (P, S, M, K) with (S, K) the powers' shape"
        )


def logdet_hpd(matrices: np.ndarray) -> np.ndarray:
    """log2-determinants of Hermitian positive definite matrices (..., N, N).

    Uses a Cholesky factorization; raises `numpy.linalg.LinAlgError` if an
    input is not positive definite.
    """
    chol = np.linalg.cholesky(matrices)
    diag = np.diagonal(chol, axis1=-2, axis2=-1).real
    return 2.0 * np.sum(np.log2(diag), axis=-1)


def _cross_gram(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """A^H B of (..., M, K) and (..., M, J) stacks, (..., K, J), summed along a
    contiguous (..., K, M) copy: about twice as fast at S = 50 as einsum over
    the strided M axis, with its bits (np.matmul rounds differently)."""
    at = np.ascontiguousarray(np.swapaxes(a, -1, -2))
    bt = at if b is a else np.ascontiguousarray(np.swapaxes(b, -1, -2))
    return np.einsum("...km,...jm->...kj", at.conj(), bt)


def _gram(h: np.ndarray, powers: np.ndarray) -> np.ndarray:
    """Power-scaled Gram matrices P^1/2 H^H H P^1/2 of (..., S, M, K) channels,
    shape (..., S, K, K)."""
    scaled = h * np.sqrt(powers)[:, None, :]
    return _cross_gram(scaled, scaled)


def _sic_gap(gram: np.ndarray, kappa: float, noise_variance: float) -> np.ndarray:
    """Per-subcarrier SIC sum rate, shape (..., S).

    log det(I + G/sigma^2) - log det(I + (1-kappa) G/sigma^2): the ideal
    hardware rate minus a distortion penalty that vanishes for EVM = 0.
    """
    eye = np.eye(gram.shape[-1])
    rate = logdet_hpd(eye + gram / noise_variance)
    resid = 1.0 - kappa
    if resid > 0.0:
        rate = rate - logdet_hpd(eye + resid * gram / noise_variance)
    return rate


def _sic_user_rates(gram: np.ndarray, kappa: float, noise_variance: float) -> np.ndarray:
    """Per-user SIC rates in ascending decode order, shape (..., S, K).

    Decoding a user cancels its data but not its distortion. After users
    0..u-1, user u sees Q_u = R + kappa sum_{j>=u} p_j h_j h_j^H with
    R = sigma^2 I + (1 - kappa) sum_j p_j h_j h_j^H, and gets log det Q_u -
    log det Q_{u+1}. By push-through that is the difference of the trailing
    principal log-determinants of I + kappa (sigma^2 I + (1 - kappa) G)^-1 G
    from u and from u + 1: a doubled log2 pivot of the Cholesky factor of
    that matrix with rows and columns reversed (the SIC chain rule; Varanasi
    and Guess, Asilomar 1997). No two large log-determinants cancel, and the
    rates telescope to `_sic_gap` up to rounding.
    """
    eye = np.eye(gram.shape[-1])
    t = np.linalg.solve(noise_variance * eye + (1.0 - kappa) * gram, gram)
    chol = np.linalg.cholesky((eye + kappa * t)[..., ::-1, ::-1])
    return 2.0 * np.log2(np.diagonal(chol, axis1=-2, axis2=-1).real[..., ::-1])


def _mmse_sinr_matrix(h: np.ndarray, config: ImpairedLinkConfig) -> np.ndarray:
    """MMSE-combining SINRs for all users and subcarriers at once, shape (..., S, K).

    With the full received covariance Q and t_k = p_k h_k^H Q^-1 h_k, the
    SINR is kappa t / (1 - kappa t). In Gram form, with A = sigma^2 I + G,
    t = diag(G A^-1) and 1 - t = sigma^2 diag(A^-1), so the denominator
    (1 - kappa) + kappa (1 - t) is formed without cancellation. One K x K
    inverse per subcarrier serves all users.
    """
    gram = _gram(h, config.powers)
    sigma2 = config.noise_variance
    inverse = np.linalg.inv(gram + sigma2 * np.eye(gram.shape[-1]))
    t = np.einsum("...kj,...jk->...k", gram, inverse).real
    slack = sigma2 * np.diagonal(inverse, axis1=-2, axis2=-1).real
    return config.kappa * t / (1.0 - config.kappa + config.kappa * slack)


# The registry entries below share one signature: (h, config, user_rates) ->
# (per-subcarrier sums (..., S), per-user rates (..., S, K) or None when
# `user_rates` is false), of checked (S, M, K) or (P, S, M, K) channels.
_Rates = tuple[np.ndarray, "np.ndarray | None"]


def _ul_linear(h: np.ndarray, config: ImpairedLinkConfig, user_rates: bool) -> _Rates:
    """Achievable rates with per-user MMSE combining."""
    rates = np.log2(1.0 + _mmse_sinr_matrix(h, config))
    return rates.sum(axis=-1), rates if user_rates else None


def _ul_sic(h: np.ndarray, config: ImpairedLinkConfig, user_rates: bool) -> _Rates:
    """Uplink rates with successive interference cancellation.

    The distortion penalty term vanishes identically for EVM = 0. The
    per-user entries use the ascending decode order; they cost one more
    solve and Cholesky factorization per subcarrier and can be skipped.
    """
    gram = _gram(h, config.powers)
    per_user = _sic_user_rates(gram, config.kappa, config.noise_variance) if user_rates else None
    return _sic_gap(gram, config.kappa, config.noise_variance), per_user


def high_snr_ceiling(user_count: int, antenna_count: int, evm: float) -> float:
    """Sum-rate ceiling min(K, M)*log2(1/EVM^2) of a full-rank channel as power grows."""
    if not (0.0 < evm < 1.0):
        raise ValueError("ceiling defined only for 0 < evm < 1")
    return min(user_count, antenna_count) * float(np.log2(1.0 / evm**2))


def _dl_linear(h: np.ndarray, config: ImpairedLinkConfig, user_rates: bool) -> _Rates:
    """Downlink rates of precoders along the uplink MMSE directions with the
    budget split in proportion to the uplink powers: an achievable scheme, not
    the UL/DL duality's power allocation, whose downlink meets the uplink SINRs."""
    precoders = _duality_precoders(h, config)
    gains = np.abs(_cross_gram(h, precoders)) ** 2  # (..., S, K, K)
    own = np.diagonal(gains, axis1=-2, axis2=-1)  # (..., S, K)
    interference = gains.sum(axis=-1) - own
    sinr = config.kappa * own / (interference + (1.0 - config.kappa) * own + config.noise_variance)
    rates = np.log2(1.0 + sinr)
    return rates.sum(axis=-1), rates if user_rates else None


def _duality_precoders(h: np.ndarray, config: ImpairedLinkConfig) -> np.ndarray:
    """Downlink precoders pointing along the uplink MMSE combining directions, (..., S, M, K).

    User k's MMSE direction Q_k^-1 h_k, with Q_k its disturbance covariance,
    is parallel to Q^-1 h_k for the full received covariance
    Q = Q_k + kappa p_k h_k h_k^H (Sherman-Morrison), so one solve per
    subcarrier serves all users. Power is split across users and subcarriers
    proportionally to the uplink allocation and scaled to saturate the total
    budget, which is not the duality's power allocation (see `_dl_linear`).
    """
    if config.total_power is None:
        raise ValueError("config.total_power must be set for downlink precoding")
    scaled = h * np.sqrt(config.powers)[:, None, :]
    noise = config.noise_variance * np.eye(h.shape[-2])
    q_all = np.einsum("...smk,...snk->...smn", scaled, scaled.conj()) + noise
    w = np.linalg.solve(q_all, h)  # (..., S, M, K)
    directions = w / np.linalg.norm(w, axis=-2, keepdims=True)
    shares = config.powers / config.powers.sum()
    q_power = config.total_power * shares  # (S, K)
    return directions * np.sqrt(q_power)[:, None, :]


def _project_weighted(y: np.ndarray, weight: np.ndarray, budget: float) -> np.ndarray:
    """Projection onto {x >= 0, sum(x) <= budget} in the metric sum(weight * (x - y)^2).

    The result is x = max(y - theta / weight, 0), with theta >= 0 the least
    that meets the budget. Entries stay in the support in decreasing order of
    weight * y, so one sort finds theta. Unit weights give the Euclidean
    projection.
    """
    clipped = np.maximum(y, 0.0)
    if clipped.sum() <= budget:
        return clipped
    key = (clipped * weight).ravel()
    order = np.argsort(key)[::-1]
    cumulative = np.cumsum(clipped.ravel()[order])
    candidates = (cumulative - budget) / np.cumsum(1.0 / weight.ravel()[order])
    support = np.max(np.where(key[order] > candidates, np.arange(1, key.size + 1), 0))
    return np.maximum(clipped - candidates[support - 1] / weight, 0.0)


def _dl_dpc(h: np.ndarray, config: ImpairedLinkConfig, user_rates: bool) -> _Rates:
    """Downlink rates with dirty paper coding via the dual uplink problem.

    Maximizes the distortion-aware dual uplink objective over the diagonal
    power allocations d of all subcarriers under the budget
    `config.total_power`, by curvature-scaled projected ascent from the
    uniform allocation. The uniform allocation is feasible, so the result
    never falls below it.

    Each pass takes the candidate P_w(d + t g / w), with g the gradient and
    P_w the projection onto the budget set in the metric sum(w (x - y)^2).
    The weight w is the Hessian diagonal's magnitude
    (A_ii^2 - (1 - kappa)^2 B_ii^2) / (S ln 2), at least A_ii^2 / (4 S ln 2),
    where A = (sigma^2 I + G D)^-1 G and B is A with G scaled by 1 - kappa:
    the gradient solves for both already, so w costs nothing.

    The scale t starts at 1, a Newton step per entry, and carries across
    passes: it halves on a candidate that gains nothing and doubles after a
    step that gains over `_DPC_EXPAND_RATIO` times what its quadratic model
    (curvature w / t) promised. The ascent ends on a relative gain below
    `_DPC_REL_TOL`, on a candidate equal to the current allocation (a fixed
    point of the projected step, hence stationary), at t below
    `_DPC_STEP_FLOOR`, or after `_DPC_MAX_ITERATIONS` passes. The
    per-subcarrier sums are those of the last accepted allocation, so their
    mean is the ascent's final objective value.

    The ascent works on the (S, K, K) Gram matrices G = H^H H, formed once:
    the objective scales G by sqrt(d) on both sides, and by the push-through
    identity H^H (sigma^2 I + H D H^H)^-1 H = (sigma^2 I + G D)^-1 G the
    gradient is the diagonal of K x K solves. The antenna count M enters
    only through that one Gram product.

    A stack of instances is solved one instance at a time, since the pass
    count depends on the channel.
    """
    if config.total_power is None:
        raise ValueError("config.total_power must be set for downlink schemes")
    if h.ndim == 4:
        solved = [_dl_dpc(instance, config, user_rates) for instance in h]
        per_user = np.array([rates for _, rates in solved]) if user_rates else None
        return np.array([sums for sums, _ in solved]), per_user
    total_power = config.total_power
    s, _, k = h.shape
    sigma2 = config.noise_variance
    resid = 1.0 - config.kappa
    eye_k = np.eye(k)
    gram = _cross_gram(h, h)

    def scaled(d: np.ndarray) -> np.ndarray:
        amplitude = np.sqrt(d)
        return gram * (amplitude[:, :, None] * amplitude[:, None, :])

    def gap(d: np.ndarray) -> np.ndarray:
        return _sic_gap(scaled(d), config.kappa, sigma2)

    def gradient_and_curvature(d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        gd = gram * d[:, None, :]
        a = np.diagonal(np.linalg.solve(sigma2 * eye_k + gd, gram), axis1=1, axis2=2).real
        g, w = a, a * a
        if resid > 0.0:
            y = np.linalg.solve(sigma2 * eye_k + resid * gd, gram)
            b = resid * np.diagonal(y, axis1=1, axis2=2).real
            g, w = a - b, np.maximum(w - b * b, 0.25 * w)
        w[w == 0.0] = 1.0  # A_ii = 0 only for a zero channel, whose gradient is 0
        return g / (s * _LN2), w / (s * _LN2)

    d = np.full((s, k), total_power / (s * k))
    per_subcarrier = gap(d)
    value = float(per_subcarrier.mean())
    t = 1.0
    for _ in range(_DPC_MAX_ITERATIONS):
        grad, weight = gradient_and_curvature(d)
        improved = False
        while t > _DPC_STEP_FLOOR:
            candidate = _project_weighted(d + t * grad / weight, weight, total_power)
            if np.array_equal(candidate, d):
                break  # a fixed point of the projected step is stationary
            candidate_gap = gap(candidate)
            candidate_value = float(candidate_gap.mean())
            if candidate_value > value:
                improved = True
                break
            t *= 0.5
        if not improved:
            break
        gain = candidate_value - value
        move = candidate - d
        model_gain = float(np.sum(grad * move) - 0.5 * np.sum(weight * move * move) / t)
        d, value, per_subcarrier = candidate, candidate_value, candidate_gap
        if gain > _DPC_EXPAND_RATIO * model_gain:
            t *= 2.0
        if gain < _DPC_REL_TOL * max(abs(value), 1.0):
            break

    per_user = _sic_user_rates(scaled(d), config.kappa, sigma2) if user_rates else None
    return per_subcarrier, per_user


def zero_interference_bound(h: np.ndarray, config: ImpairedLinkConfig) -> RateReport:
    """Per-user matched-filter rates with every cross-user term removed.

    Upper-bounds both the linear and the SIC sum rate on the same channel
    instance; only each user's own distortion and thermal noise remain.
    `h` is checked as in :func:`evaluate_rate_scheme`.
    """
    _check_channels(h, config)
    g = config.powers * np.sum(np.abs(h) ** 2, axis=-2)  # (..., S, K)
    sinr = config.kappa * g / ((1.0 - config.kappa) * g + config.noise_variance)
    rates = np.log2(1.0 + sinr)
    return _report(ZERO_INTERFERENCE, rates, rates.sum(axis=-1))


def evaluate_rate_scheme(
    scheme: str, h: np.ndarray, config: ImpairedLinkConfig, *, summary_only: bool = False
) -> RateReport:
    """Rates of the scheme named `scheme`, one of `RATE_SCHEMES`, on channels `h`.

    `h` is one (S, M, K) complex channel instance or a (P, S, M, K) stack of
    them, with (S, K) equal to `config.powers.shape`; other shapes raise
    ValueError naming both. A stack gets one report whose values are (P,)
    arrays, each equal to its instance's own report. `summary_only` skips
    the per-user breakdowns that optimization loops do not need.
    """
    if scheme not in _SCHEMES:
        raise ValueError(f"unknown rate scheme {scheme!r}")
    _check_channels(h, config)
    per_subcarrier, rates = _SCHEMES[scheme](h, config, not summary_only)
    return _report(scheme, rates, per_subcarrier)


# The rate-scheme registry, in the order configs and reports list the schemes.
_SCHEMES = {UL_LIN: _ul_linear, UL_SIC: _ul_sic, DL_LIN: _dl_linear, DL_DPC: _dl_dpc}
RATE_SCHEMES = tuple(_SCHEMES)
