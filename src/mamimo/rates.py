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
_DPC_STEP_FLOOR = 1e-14  # the line search gives up below this fraction of the budget
_DPC_FIRST_MOVE_SHARES = 32.0  # first trial step moves no entry further than this


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
class RateReport:
    """Rates of one scheme on one channel instance.

    `sum_rate` is the mean over subcarriers of the per-subcarrier user sums.
    For the SIC and DPC schemes the per-user split uses the ascending decode
    order and sums to `sum_rate` up to rounding. Reports produced on a hot
    path may omit `per_user_rates`. Non-finite rates are rejected.
    """

    scheme: str
    sum_rate: float
    per_user_rates: np.ndarray | None  # (K,)

    def __post_init__(self) -> None:
        if not math.isfinite(self.sum_rate):
            raise ValueError(f"{self.scheme} sum_rate is not finite")
        if self.per_user_rates is not None and not np.isfinite(self.per_user_rates).all():
            raise ValueError(f"{self.scheme} per_user_rates is not finite")


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


def _sic_user_rates(gram: np.ndarray, kappa: float, noise_variance: float) -> np.ndarray:
    """Per-user SIC rates in ascending decode order, shape (S, K).

    Decoding a user cancels its data but not its distortion, so its weight in
    the received covariance drops from 1 to 1 - kappa; its rate is the drop
    in log-determinant this causes. The rates telescope to `_sic_gap`.
    """
    s, k, _ = gram.shape
    eye = np.eye(k)
    amplitude = np.ones(k)
    previous = logdet_hpd(eye + gram / noise_variance)
    rates = np.empty((s, k))
    for user in range(k):
        amplitude[user] = np.sqrt(1.0 - kappa)
        current = logdet_hpd(eye + gram * np.outer(amplitude, amplitude) / noise_variance)
        rates[:, user] = previous - current
        previous = current
    return rates


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
        per_user = _sic_user_rates(gram, config.kappa, config.noise_variance)
    return _report(UL_SIC, per_user, _sic_gap(gram, config.kappa, config.noise_variance))


def high_snr_ceiling(user_count: int, evm: float) -> float:
    """Sum-rate ceiling K*log2(1/EVM^2) reached as transmit power grows."""
    if not (0.0 < evm < 1.0):
        raise ValueError("ceiling defined only for 0 < evm < 1")
    return user_count * float(np.log2(1.0 / evm**2))


def dl_linear_sum_rate(
    channels: SubcarrierChannels, config: ImpairedLinkConfig
) -> RateReport:
    """Downlink sum rate with the uplink/downlink duality precoders."""
    h = channels.matrices
    precoders = duality_precoders(channels, config)
    gains = np.abs(np.einsum("smk,smi->ski", h.conj(), precoders)) ** 2  # (S, K, K)
    own = np.diagonal(gains, axis1=1, axis2=2)  # (S, K)
    interference = gains.sum(axis=2) - own
    sinr = config.kappa * own / (interference + (1.0 - config.kappa) * own + config.noise_variance)
    return _report(DL_LIN, np.log2(1.0 + sinr))


def duality_precoders(
    channels: SubcarrierChannels,
    config: ImpairedLinkConfig,
) -> np.ndarray:
    """Downlink precoders pointing along the uplink MMSE combining directions, (S, M, K).

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
    return directions * np.sqrt(q_power)[:, None, :]


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


def _first_trial_step(grad: np.ndarray, budget: float, entries: int) -> float:
    """Largest step budget * 2^-j (j >= 0) that moves no allocation entry by
    more than `_DPC_FIRST_MOVE_SHARES` uniform shares budget / entries.

    Steps stay on the grid the line search halves along, and j stops at the
    line search's floor. An all-zero gradient keeps the whole budget.
    """
    limit = _DPC_FIRST_MOVE_SHARES * budget / entries
    peak = float(np.abs(grad).max())
    step = budget
    while step * peak > limit and 0.5 * step > _DPC_STEP_FLOOR * budget:
        step *= 0.5
    return step


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

    The line search halves its step along the grid total_power * 2^-j. Each
    call starts it at the largest such step that moves no entry of the
    uniform allocation by more than 32 uniform shares along the first
    gradient, rather than at the whole budget. On the benchmark workloads'
    channels no accepted first step exceeded 2.4 shares, so the start skips
    only trial steps that fail. Later passes start from twice the step last
    accepted. The ascent ends when a projected candidate equals the current
    allocation exactly: that allocation is a fixed point of the projected
    step, hence stationary. The reported sum rate is the ascent's final
    objective value.

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
    for iteration in range(_DPC_MAX_ITERATIONS):
        grad = gradient(d)
        if iteration == 0:
            step = _first_trial_step(grad, total_power, s * k)
        improved = False
        while step > _DPC_STEP_FLOOR * total_power:
            candidate = _project_budget(d + step * grad, total_power)
            if np.array_equal(candidate, d):
                break  # a fixed point of the projected step is stationary
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

    per_user = None
    if include_user_rates:
        per_user = _sic_user_rates(scaled(d), config.kappa, sigma2).mean(axis=0)
    return RateReport(DL_DPC, value, per_user)


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
        return dl_linear_sum_rate(channels, config)
    if scheme == DL_DPC:
        return dl_dpc_sum_rate(channels, config, include_user_rates=not summary_only)
    raise ValueError(f"unknown rate scheme {scheme!r}")
