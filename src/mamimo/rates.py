"""Uplink/downlink sum rates with transmit-hardware distortion.

All rates are spectral efficiencies in bit/s/Hz. Hardware quality is captured
by the error vector magnitude: a transmitted symbol carries the fraction
kappa = 1 - EVM^2 of its power as useful signal and the rest as uncorrelated
distortion noise, which no receiver processing can cancel.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channels import SubcarrierChannels

UL_LIN = "ul-lin"
UL_SIC = "ul-sic"
DL_LIN = "dl-lin"
DL_DPC = "dl-dpc"
RATE_SCHEMES = (UL_LIN, UL_SIC, DL_LIN, DL_DPC)

_LN2 = float(np.log(2.0))


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
    For the SIC scheme the per-user split uses the configured decode order;
    its user sum matches `sum_rate` exactly only for ideal hardware. Reports
    produced on a hot path may omit the per-user breakdowns.
    """

    scheme: str
    sum_rate: float
    per_user_rates: np.ndarray | None  # (K,)
    per_subcarrier_rates: np.ndarray  # (S,)
    per_user_per_subcarrier: np.ndarray | None = None  # (S, K)


def logdet_hpd(matrix: np.ndarray) -> float:
    """log2 of the determinant of a Hermitian positive definite matrix.

    Uses a Cholesky factorization; raises `numpy.linalg.LinAlgError` if the
    input is not positive definite.
    """
    chol = np.linalg.cholesky(matrix)
    return 2.0 * float(np.sum(np.log2(np.diagonal(chol, axis1=-2, axis2=-1).real)))


def _logdet_stack(matrices: np.ndarray) -> np.ndarray:
    """log2-determinants of a stack of Hermitian PD matrices, shape (...,)."""
    chol = np.linalg.cholesky(matrices)
    diag = np.diagonal(chol, axis1=-2, axis2=-1).real
    return 2.0 * np.sum(np.log2(diag), axis=-1)


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

    Works from the full received-signal covariance and a rank-one
    downdate, which needs a single factorization per subcarrier.
    """
    h = channels.matrices  # (S, M, K)
    s, m, k = h.shape
    scaled = h * np.sqrt(config.powers)[:, None, :]
    q_all = np.einsum("smk,snk->smn", scaled, scaled.conj()) + config.noise_variance * np.eye(m)
    u = np.linalg.solve(q_all, h)  # (S, M, K)
    t = np.einsum("smk,smk->sk", h.conj(), u).real * config.powers  # p_k h^H Q^-1 h
    denom = np.maximum(1.0 - config.kappa * t, 1e-300)
    return config.kappa * t / denom


def ul_linear_sum_rate(
    channels: SubcarrierChannels, config: ImpairedLinkConfig
) -> RateReport:
    """Achievable sum rate with per-user MMSE combining."""
    sinr = _mmse_sinr_matrix(channels, config)
    rates = np.log2(1.0 + sinr)  # (S, K)
    per_subcarrier = rates.sum(axis=1)
    return RateReport(
        scheme=UL_LIN,
        sum_rate=float(per_subcarrier.mean()),
        per_user_rates=rates.mean(axis=0),
        per_subcarrier_rates=per_subcarrier,
        per_user_per_subcarrier=rates,
    )


def _sic_per_subcarrier_rates(
    channels: SubcarrierChannels, config: ImpairedLinkConfig
) -> np.ndarray:
    """Per-subcarrier SIC sum rate: ideal-hardware term minus distortion penalty."""
    h = channels.matrices
    scaled = h * np.sqrt(config.powers)[:, None, :]
    k = h.shape[2]
    gram = np.einsum("smk,smj->skj", scaled.conj(), scaled)  # (S, K, K)
    eye = np.eye(k)
    term1 = _logdet_stack(eye + gram / config.noise_variance)
    resid = 1.0 - config.kappa
    if resid > 0.0:
        term2 = _logdet_stack(eye + resid * gram / config.noise_variance)
    else:
        term2 = np.zeros_like(term1)
    return term1 - term2


def ul_sic_sum_rate(
    channels: SubcarrierChannels,
    config: ImpairedLinkConfig,
    include_user_rates: bool = True,
) -> RateReport:
    """Uplink sum rate with successive interference cancellation.

    The distortion penalty term vanishes identically for EVM = 0. The
    per-user entries use the default ascending decode order; they cost a
    matrix solve per user and subcarrier and can be skipped.
    """
    per_subcarrier = _sic_per_subcarrier_rates(channels, config)
    if include_user_rates:
        per_user, per_user_nu = _sic_user_rates(channels, config, None)
    else:
        per_user, per_user_nu = None, None
    return RateReport(
        scheme=UL_SIC,
        sum_rate=float(per_subcarrier.mean()),
        per_user_rates=per_user,
        per_subcarrier_rates=per_subcarrier,
        per_user_per_subcarrier=per_user_nu,
    )


def _sic_user_rates(
    channels: SubcarrierChannels,
    config: ImpairedLinkConfig,
    decode_order: Sequence[int] | None,
) -> tuple[np.ndarray, np.ndarray]:
    h = channels.matrices
    s, m, k = h.shape
    if decode_order is None:
        order = np.arange(k)
    else:
        order = np.asarray(decode_order, dtype=int)
        if sorted(order.tolist()) != list(range(k)):
            raise ValueError(f"decode order must be a permutation of 0..{k - 1}")
    resid = 1.0 - config.kappa
    rates = np.zeros((s, k))
    eye = np.eye(m)
    for nu in range(s):
        hs = h[nu]
        p = config.powers[nu]
        scaled = hs * np.sqrt(p)
        full = scaled @ scaled.conj().T
        for t, user in enumerate(order):
            later = order[t + 1 :]
            cov = resid * full + config.noise_variance * eye
            if later.size:
                sl = scaled[:, later]
                cov = cov + sl @ sl.conj().T
            u = np.linalg.solve(cov, hs[:, user])
            gain = float(np.real(hs[:, user].conj() @ u))
            rates[nu, user] = np.log2(1.0 + config.kappa * p[user] * gain)
    return rates.mean(axis=0), rates


def ul_sic_per_user_rates(
    channels: SubcarrierChannels,
    config: ImpairedLinkConfig,
    decode_order: Sequence[int] | None = None,
) -> np.ndarray:
    """Per-user SIC rates for a given decode order, averaged over subcarriers.

    Users decoded later see less residual data interference; distortion noise
    of every user remains because it is uncorrelated with the decoded data.
    With ideal hardware the user rates sum exactly to the SIC sum rate.
    """
    per_user, _ = _sic_user_rates(channels, config, decode_order)
    return per_user


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
    rates = np.log2(1.0 + sinr)
    per_subcarrier = rates.sum(axis=1)
    return RateReport(
        scheme=DL_LIN,
        sum_rate=float(per_subcarrier.mean()),
        per_user_rates=rates.mean(axis=0),
        per_subcarrier_rates=per_subcarrier,
        per_user_per_subcarrier=rates,
    )


def duality_precoders(
    channels: SubcarrierChannels,
    config: ImpairedLinkConfig,
) -> PrecoderSet:
    """Downlink precoders pointing along the uplink MMSE combining directions.

    Power is split across users and subcarriers proportionally to the uplink
    allocation and scaled to saturate the total budget.
    """
    if config.total_power is None:
        raise ValueError("config.total_power must be set for downlink precoding")
    h = channels.matrices
    s, m, k = h.shape
    directions = np.empty_like(h)
    scaled = h * np.sqrt(config.powers)[:, None, :]
    for user in range(k):
        others = scaled.copy()
        others[:, :, user] = 0.0
        q = np.einsum("smk,snk->smn", others, others.conj())
        if config.kappa < 1.0:
            hk = scaled[:, :, user]
            q = q + (1.0 - config.kappa) * np.einsum("sm,sn->smn", hk, hk.conj())
        q = q + config.noise_variance * np.eye(m)
        w = np.linalg.solve(q, h[:, :, user][..., None])[..., 0]  # (S, M)
        directions[:, :, user] = w / np.linalg.norm(w, axis=1, keepdims=True)

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
    total_power: float,
    config: ImpairedLinkConfig,
    *,
    max_iterations: int = 500,
    rel_tol: float = 1e-8,
    include_user_rates: bool = True,
) -> RateReport:
    """Downlink sum rate with dirty paper coding via the dual uplink problem.

    Maximizes the distortion-aware dual uplink objective over the diagonal
    power allocations of all subcarriers under the total budget, using
    projected gradient ascent with backtracking from the uniform allocation.
    The uniform allocation is feasible, so the result never falls below it.
    """
    if not total_power > 0:
        raise ValueError("total power must be positive")
    h = channels.matrices
    s, m, k = h.shape
    sigma2 = config.noise_variance
    resid = 1.0 - config.kappa
    eye_k = np.eye(k)
    eye_m = np.eye(m)

    def objective_terms(d: np.ndarray) -> np.ndarray:
        scaled = h * np.sqrt(d)[:, None, :]
        gram = np.einsum("smk,smj->skj", scaled.conj(), scaled)
        t1 = _logdet_stack(eye_k + gram / sigma2)
        if resid > 0.0:
            t2 = _logdet_stack(eye_k + resid * gram / sigma2)
        else:
            t2 = np.zeros_like(t1)
        return t1 - t2

    def objective(d: np.ndarray) -> float:
        return float(objective_terms(d).mean())

    def gradient(d: np.ndarray) -> np.ndarray:
        cov = np.einsum("smk,snk,sk->smn", h, h.conj(), d)
        x = np.linalg.solve(sigma2 * eye_m + cov, h)
        g = np.einsum("smk,smk->sk", h.conj(), x).real
        if resid > 0.0:
            y = np.linalg.solve(sigma2 * eye_m + resid * cov, h)
            g = g - resid * np.einsum("smk,smk->sk", h.conj(), y).real
        return g / (s * _LN2)

    d = np.full((s, k), total_power / (s * k))
    value = objective(d)
    step = total_power
    for _ in range(max_iterations):
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
        if gain < rel_tol * max(abs(value), 1.0):
            break

    per_subcarrier = objective_terms(d)
    if include_user_rates:
        dual_config = ImpairedLinkConfig(d, config.evm, sigma2)
        per_user, per_user_nu = _sic_user_rates(channels, dual_config, None)
    else:
        per_user, per_user_nu = None, None
    return RateReport(
        scheme=DL_DPC,
        sum_rate=float(per_subcarrier.mean()),
        per_user_rates=per_user,
        per_subcarrier_rates=per_subcarrier,
        per_user_per_subcarrier=per_user_nu,
    )
