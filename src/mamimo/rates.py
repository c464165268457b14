"""Uplink/downlink sum rates with transmit-hardware distortion.

All rates are spectral efficiencies in bit/s/Hz. Hardware quality is captured
by the error vector magnitude: a transmitted symbol carries the fraction
kappa = 1 - EVM^2 of its power as useful signal and the rest as uncorrelated
distortion noise, which no receiver processing can cancel.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channels import SubcarrierChannels

UL_LIN = "ul-lin"
UL_SIC = "ul-sic"
DL_LIN = "dl-lin"
DL_DPC = "dl-dpc"
RATE_SCHEMES = (UL_LIN, UL_SIC, DL_LIN, DL_DPC)
ZERO_INTERFERENCE = "zero-interference"

_LN2 = float(np.log(2.0))
_DPC_REL_TOL = 1e-8  # DPC ascent stops once a step gains less than this, relatively
_DPC_MAX_ITERATIONS = 500  # or after this many ascent steps


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
        if np.any(p < 0):
            raise ValueError("powers must be nonnegative")
        if not (0.0 <= self.evm < 1.0):
            raise ValueError(f"evm must lie in [0, 1), got {self.evm}")
        if not self.noise_variance > 0:
            raise ValueError("noise variance must be positive")
        if self.total_power is not None and not self.total_power > 0:
            raise ValueError("total power must be positive")
        p.setflags(write=False)
        object.__setattr__(self, "powers", p)

    @property
    def kappa(self) -> float:
        return 1.0 - self.evm**2

    @property
    def user_count(self) -> int:
        return self.powers.shape[1]

    @property
    def subcarrier_count(self) -> int:
        return self.powers.shape[0]

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
class PrecoderSet:
    """Downlink precoding vectors, one M-vector per user and subcarrier."""

    vectors: np.ndarray  # (S, M, K)

    def __post_init__(self) -> None:
        if self.vectors.ndim != 3:
            raise ValueError("precoders must have shape (S, M, K)")

    @property
    def total_power_used(self) -> float:
        return float(np.sum(np.abs(self.vectors) ** 2))


@dataclass(frozen=True, eq=False)
class RateReport:
    """Rates of one scheme on one channel instance.

    `sum_rate` is the mean over subcarriers of the per-subcarrier user sums.
    For the SIC and DPC schemes the per-user split uses the ascending decode
    order and sums to `sum_rate` up to rounding. Reports produced on a hot
    path may omit the per-user breakdowns. Non-finite rates are rejected.
    """

    scheme: str
    sum_rate: float
    per_user_rates: np.ndarray | None  # (K,)
    per_subcarrier_rates: np.ndarray  # (S,)
    per_user_per_subcarrier: np.ndarray | None = None  # (S, K)

    def __post_init__(self) -> None:
        if not math.isfinite(self.sum_rate):
            raise ValueError(f"{self.scheme} sum_rate is not finite")
        for name in ("per_user_rates", "per_subcarrier_rates", "per_user_per_subcarrier"):
            value = getattr(self, name)
            if value is not None and not np.isfinite(value).all():
                raise ValueError(f"{self.scheme} {name} is not finite")


def _report(
    scheme: str, rates: np.ndarray | None, per_subcarrier: np.ndarray | None = None
) -> RateReport:
    """Report of (S, K) per-user rates. A scheme that computes its
    per-subcarrier sums separately passes them, and may then omit `rates`."""
    if per_subcarrier is None:
        per_subcarrier = rates.sum(axis=1)
    return RateReport(
        scheme=scheme,
        sum_rate=float(per_subcarrier.mean()),
        per_user_rates=None if rates is None else rates.mean(axis=0),
        per_subcarrier_rates=per_subcarrier,
        per_user_per_subcarrier=rates,
    )


def logdet_hpd(matrices: np.ndarray) -> np.ndarray:
    """log2-determinants of Hermitian positive definite matrices (..., N, N).

    Uses a Cholesky factorization; raises `numpy.linalg.LinAlgError` if an
    input is not positive definite.
    """
    chol = np.linalg.cholesky(matrices)
    diag = np.diagonal(chol, axis1=-2, axis2=-1).real
    return 2.0 * np.sum(np.log2(diag), axis=-1)


def _gram(h: np.ndarray, powers: np.ndarray) -> np.ndarray:
    """Power-scaled Gram matrices P^1/2 H^H H P^1/2 of (S, M, K) channels, shape (S, K, K)."""
    scaled = h * np.sqrt(powers)[:, None, :]
    return np.einsum("smk,smj->skj", scaled.conj(), scaled)


def _sic_gap(gram: np.ndarray, kappa: float, noise_variance: float) -> np.ndarray:
    """Per-subcarrier SIC sum rate, shape (S,).

    log det(I + G/sigma^2) - log det(I + (1-kappa) G/sigma^2): the ideal
    hardware rate minus a distortion penalty that vanishes for EVM = 0.
    """
    eye = np.eye(gram.shape[-1])
    rate = logdet_hpd(eye + gram / noise_variance)
    resid = 1.0 - kappa
    if resid > 0.0:
        rate = rate - logdet_hpd(eye + resid * gram / noise_variance)
    return rate


def _sic_user_rates(
    gram: np.ndarray, kappa: float, noise_variance: float, decode_order: Sequence[int] | None
) -> np.ndarray:
    """Per-user SIC rates along the decode order, shape (S, K).

    Decoding a user cancels its data but not its distortion, so its weight in
    the received covariance drops from 1 to 1 - kappa; its rate is the drop
    in log-determinant this causes. The rates telescope to `_sic_gap`.
    """
    s, k, _ = gram.shape
    order = np.arange(k) if decode_order is None else np.asarray(decode_order, dtype=int)
    if sorted(order.tolist()) != list(range(k)):
        raise ValueError(f"decode order must be a permutation of 0..{k - 1}")
    eye = np.eye(k)
    amplitude = np.ones(k)
    previous = logdet_hpd(eye + gram / noise_variance)
    rates = np.empty((s, k))
    for user in order:
        amplitude[user] = np.sqrt(1.0 - kappa)
        current = logdet_hpd(eye + gram * np.outer(amplitude, amplitude) / noise_variance)
        rates[:, user] = previous - current
        previous = current
    return rates


def disturbance_covariance(
    h: np.ndarray, powers: np.ndarray, kappa: float, noise_variance: float, k: int
) -> np.ndarray:
    """Covariance of everything user k's combiner must suppress on one subcarrier.

    Other users' full signals, the distortion of user k itself, and thermal
    noise: sum_{i != k} p_i h_i h_i^H + (1-kappa) p_k h_k h_k^H + sigma^2 I.
    """
    m = h.shape[0]
    scaled = h * np.sqrt(np.asarray(powers, dtype=float))
    others = scaled.copy()
    others[:, k] = 0.0
    q = others @ others.conj().T
    if kappa < 1.0:
        hk = scaled[:, k]
        q = q + (1.0 - kappa) * np.outer(hk, hk.conj())
    return q + noise_variance * np.eye(m)


def mmse_combiner(
    h: np.ndarray, powers: np.ndarray, kappa: float, noise_variance: float, k: int
) -> np.ndarray:
    """SINR-optimal receive combiner for user k (any rescaling is equivalent)."""
    q = disturbance_covariance(h, powers, kappa, noise_variance, k)
    return np.linalg.solve(q, h[:, k])


def ul_linear_sinr(
    w: np.ndarray, h: np.ndarray, powers: np.ndarray, kappa: float, noise_variance: float, k: int
) -> float:
    """Uplink SINR of combiner w for user k on one subcarrier."""
    w = np.asarray(w)
    wnorm2 = float(np.real(w.conj() @ w))
    if wnorm2 == 0.0:
        raise ValueError("combiner must be nonzero")
    powers = np.asarray(powers, dtype=float)
    cross = np.abs(w.conj() @ h) ** 2 * powers
    own = float(cross[k])
    interference = float(cross.sum()) - own
    denom = interference + (1.0 - kappa) * own + noise_variance * wnorm2
    return kappa * own / denom


def _mmse_sinr_matrix(channels: SubcarrierChannels, config: ImpairedLinkConfig) -> np.ndarray:
    """MMSE-combining SINRs for all users and subcarriers at once, shape (S, K).

    With the full received covariance Q and t_k = p_k h_k^H Q^-1 h_k, the
    SINR is kappa t / (1 - kappa t). In Gram form, with A = sigma^2 I + G,
    t = diag(G A^-1) and 1 - t = sigma^2 diag(A^-1), so the denominator
    (1 - kappa) + kappa (1 - t) is formed without cancellation. One K x K
    inverse per subcarrier serves all users.
    """
    gram = _gram(channels.matrices, config.powers)
    sigma2 = config.noise_variance
    inverse = np.linalg.inv(gram + sigma2 * np.eye(gram.shape[-1]))
    t = np.einsum("skj,sjk->sk", gram, inverse).real
    slack = sigma2 * np.diagonal(inverse, axis1=1, axis2=2).real
    return config.kappa * t / (1.0 - config.kappa + config.kappa * slack)


def ul_linear_sum_rate(
    channels: SubcarrierChannels, config: ImpairedLinkConfig
) -> RateReport:
    """Achievable sum rate with per-user MMSE combining."""
    return _report(UL_LIN, np.log2(1.0 + _mmse_sinr_matrix(channels, config)))


def ul_sic_sum_rate(
    channels: SubcarrierChannels,
    config: ImpairedLinkConfig,
    include_user_rates: bool = True,
) -> RateReport:
    """Uplink sum rate with successive interference cancellation.

    The distortion penalty term vanishes identically for EVM = 0. The
    per-user entries use the ascending decode order; they cost K more
    batched log-determinants and can be skipped.
    """
    gram = _gram(channels.matrices, config.powers)
    per_user = None
    if include_user_rates:
        per_user = _sic_user_rates(gram, config.kappa, config.noise_variance, None)
    return _report(UL_SIC, per_user, _sic_gap(gram, config.kappa, config.noise_variance))


def ul_sic_per_user_rates(
    channels: SubcarrierChannels,
    config: ImpairedLinkConfig,
    decode_order: Sequence[int] | None = None,
) -> np.ndarray:
    """Per-user SIC rates for a given decode order, averaged over subcarriers.

    Users decoded later see less residual data interference; distortion noise
    of every user remains because it is uncorrelated with the decoded data.
    For any decode order and EVM the user rates sum to the SIC sum rate.
    """
    gram = _gram(channels.matrices, config.powers)
    return _sic_user_rates(gram, config.kappa, config.noise_variance, decode_order).mean(axis=0)


def high_snr_ceiling(user_count: int, evm: float) -> float:
    """Sum-rate ceiling K*log2(1/EVM^2) reached as transmit power grows."""
    if not (0.0 < evm < 1.0):
        raise ValueError("ceiling defined only for 0 < evm < 1")
    return user_count * float(np.log2(1.0 / evm**2))


def dl_linear_sinr(
    precoders: np.ndarray, h: np.ndarray, k: int, kappa: float, noise_variance: float
) -> float:
    """Downlink SINR of user k for one subcarrier's precoding matrix (M, K)."""
    gains = np.abs(h[:, k].conj() @ precoders) ** 2  # (K,)
    own = float(gains[k])
    interference = float(gains.sum()) - own
    return kappa * own / (interference + (1.0 - kappa) * own + noise_variance)


def dl_linear_sum_rate(
    channels: SubcarrierChannels, precoders: PrecoderSet, config: ImpairedLinkConfig
) -> RateReport:
    """Downlink sum rate with linear precoding under the total power budget."""
    if config.total_power is not None:
        used = precoders.total_power_used
        if used > config.total_power * (1.0 + 1e-9):
            raise ValueError(
                f"precoders use {used} W, exceeding the budget {config.total_power} W"
            )
    h = channels.matrices
    gains = np.abs(np.einsum("smk,smi->ski", h.conj(), precoders.vectors)) ** 2  # (S, K, K)
    own = np.diagonal(gains, axis1=1, axis2=2)  # (S, K)
    interference = gains.sum(axis=2) - own
    sinr = config.kappa * own / (interference + (1.0 - config.kappa) * own + config.noise_variance)
    return _report(DL_LIN, np.log2(1.0 + sinr))


def duality_precoders(
    channels: SubcarrierChannels,
    config: ImpairedLinkConfig,
) -> PrecoderSet:
    """Downlink precoders pointing along the uplink MMSE combining directions.

    User k's MMSE direction Q_k^-1 h_k, with Q_k its disturbance covariance,
    is parallel to Q^-1 h_k for the full received covariance
    Q = Q_k + kappa p_k h_k h_k^H (Sherman-Morrison), so one solve per
    subcarrier serves all users. Power is split across users and subcarriers
    proportionally to the uplink allocation and scaled to saturate the total
    budget.
    """
    if config.total_power is None:
        raise ValueError("config.total_power must be set for downlink precoding")
    h = channels.matrices
    scaled = h * np.sqrt(config.powers)[:, None, :]
    q_all = np.einsum("smk,snk->smn", scaled, scaled.conj()) + config.noise_variance * np.eye(h.shape[1])
    w = np.linalg.solve(q_all, h)  # (S, M, K)
    directions = w / np.linalg.norm(w, axis=1, keepdims=True)
    shares = config.powers / config.powers.sum()
    q_power = config.total_power * shares  # (S, K)
    return PrecoderSet(directions * np.sqrt(q_power)[:, None, :])


def _project_budget(x: np.ndarray, budget: float) -> np.ndarray:
    """Euclidean projection onto {x >= 0, sum(x) <= budget}."""
    clipped = np.maximum(x, 0.0)
    total = clipped.sum()
    if total <= budget:
        return clipped
    flat = np.sort(clipped.ravel())[::-1]
    cumulative = np.cumsum(flat)
    idx = np.arange(1, flat.size + 1)
    candidates = (cumulative - budget) / idx
    rho = np.max(np.where(flat - candidates > 0, idx, 0))
    theta = (cumulative[rho - 1] - budget) / rho
    return np.maximum(clipped - theta, 0.0)


def dl_dpc_sum_rate(
    channels: SubcarrierChannels,
    config: ImpairedLinkConfig,
    *,
    include_user_rates: bool = True,
) -> RateReport:
    """Downlink sum rate with dirty paper coding via the dual uplink problem.

    Maximizes the distortion-aware dual uplink objective over the diagonal
    power allocations of all subcarriers under the budget
    `config.total_power`, using projected gradient ascent with backtracking
    from the uniform allocation. The uniform allocation is feasible, so the
    result never falls below it.

    The ascent works on the (S, K, K) Gram matrices G = H^H H, formed once:
    the objective scales G by sqrt(d) on both sides, and by the push-through
    identity H^H (sigma^2 I + H D H^H)^-1 H = (sigma^2 I + G D)^-1 G the
    gradient is the diagonal of K x K solves. The antenna count M enters
    only through that one Gram product.
    """
    if config.total_power is None:
        raise ValueError("config.total_power must be set for downlink schemes")
    total_power = config.total_power
    h = channels.matrices
    s, _, k = h.shape
    sigma2 = config.noise_variance
    resid = 1.0 - config.kappa
    eye_k = np.eye(k)
    gram = np.einsum("smk,smj->skj", h.conj(), h)

    def scaled(d: np.ndarray) -> np.ndarray:
        amplitude = np.sqrt(d)
        return gram * (amplitude[:, :, None] * amplitude[:, None, :])

    def objective(d: np.ndarray) -> float:
        return float(_sic_gap(scaled(d), config.kappa, sigma2).mean())

    def gradient(d: np.ndarray) -> np.ndarray:
        gd = gram * d[:, None, :]
        g = np.diagonal(np.linalg.solve(sigma2 * eye_k + gd, gram), axis1=1, axis2=2).real
        if resid > 0.0:
            y = np.linalg.solve(sigma2 * eye_k + resid * gd, gram)
            g = g - resid * np.diagonal(y, axis1=1, axis2=2).real
        return g / (s * _LN2)

    d = np.full((s, k), total_power / (s * k))
    value = objective(d)
    step = total_power
    for _ in range(_DPC_MAX_ITERATIONS):
        grad = gradient(d)
        improved = False
        while step > 1e-14 * total_power:
            candidate = _project_budget(d + step * grad, total_power)
            candidate_value = objective(candidate)
            if candidate_value > value:
                improved = True
                break
            step *= 0.5
        if not improved:
            break
        gain = candidate_value - value
        d, value = candidate, candidate_value
        step *= 2.0
        if gain < _DPC_REL_TOL * max(abs(value), 1.0):
            break

    best = scaled(d)
    per_user = _sic_user_rates(best, config.kappa, sigma2, None) if include_user_rates else None
    return _report(DL_DPC, per_user, _sic_gap(best, config.kappa, sigma2))


def zero_interference_bound(
    channels: SubcarrierChannels, config: ImpairedLinkConfig
) -> RateReport:
    """Per-user matched-filter rates with every cross-user term removed.

    Upper-bounds both the linear and the SIC sum rate on the same channel
    instance; only each user's own distortion and thermal noise remain.
    """
    g = config.powers * np.sum(np.abs(channels.matrices) ** 2, axis=1)  # (S, K)
    sinr = config.kappa * g / ((1.0 - config.kappa) * g + config.noise_variance)
    return _report(ZERO_INTERFERENCE, np.log2(1.0 + sinr))


def evaluate_rate_scheme(
    scheme: str,
    channels: SubcarrierChannels,
    config: ImpairedLinkConfig,
    *,
    summary_only: bool = False,
) -> RateReport:
    """Dispatch a rate scheme name in `RATE_SCHEMES` to its sum-rate computation.

    `summary_only` skips the per-user breakdowns that optimization loops do
    not need.
    """
    if scheme == UL_LIN:
        return ul_linear_sum_rate(channels, config)
    if scheme == UL_SIC:
        return ul_sic_sum_rate(channels, config, include_user_rates=not summary_only)
    if scheme == DL_LIN:
        return dl_linear_sum_rate(channels, duality_precoders(channels, config), config)
    if scheme == DL_DPC:
        return dl_dpc_sum_rate(channels, config, include_user_rates=not summary_only)
    raise ValueError(f"unknown rate scheme {scheme!r}")
