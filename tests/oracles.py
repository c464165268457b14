"""Reference forms the tests check the library against.

The library computes channels in one step from the path parameters and rates
in batched Gram/covariance form. These are the textbook routes: materialized
FIR taps followed by a DFT, and per-user, per-subcarrier scalar SINRs and SIC
rates. No program code calls them.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from mamimo.channels import (
    _PHASE_LIMIT,
    _PHASOR_STEP,
    _PHASOR_TABLE,
    _PHASOR_TABLE_SIZE,
    OfdmGrid,
    UserPaths,
    _carrier_phase,
    _dft_matrix,
    pulse_triangle,
    sync_and_tap_count,
)
from mamimo.geometry import ArrayLayout, array_response, pairwise_distances
from mamimo.rates import ImpairedLinkConfig, _gram, logdet_hpd


@dataclass(frozen=True, eq=False)
class TapChannel:
    """Discrete-time FIR representation of all users' channels.

    `taps[k, l]` is the M-vector of user k at tap l; the receiver is
    synchronized to the fastest path via `sync_offset`.
    """

    taps: np.ndarray  # (K, T+1, M) complex
    sync_offset: float  # seconds
    tap_count: int  # T

    def __post_init__(self) -> None:
        if self.taps.ndim != 3 or self.taps.shape[1] != self.tap_count + 1:
            raise ValueError("taps must have shape (K, T+1, M)")


def build_tap_channel(
    paths: Sequence[UserPaths], layout: ArrayLayout, grid: OfdmGrid
) -> TapChannel:
    """Materialize the per-user FIR taps h_k[l] = sum_n b_{k,n}[l] a(angles_n)."""
    eta, n_taps = sync_and_tap_count(paths, grid)
    ells = np.arange(n_taps + 1)
    taps = np.empty((len(paths), n_taps + 1, layout.antenna_count), dtype=complex)
    for k, user in enumerate(paths):
        a = array_response(layout, user.azimuths, user.elevations)  # (M, N)
        x = grid.subcarrier_count * grid.subcarrier_spacing * (user.delays - eta)
        weights = user.amplitudes * _carrier_phase(user.delays, eta, layout.wavelength)
        b = weights[:, None] * pulse_triangle(ells[None, :] - x[:, None])  # (N, T+1)
        taps[k] = (a @ b).T
    return TapChannel(taps, eta, n_taps)


def subcarriers_from_taps(tap_channel: TapChannel, grid: OfdmGrid) -> np.ndarray:
    """Frequency-domain channels obtained by transforming materialized taps."""
    dft = _dft_matrix(tap_channel.tap_count, grid.subcarrier_count)
    matrices = np.einsum("klm,ls->smk", tap_channel.taps, dft)
    return np.ascontiguousarray(matrices)


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


def ul_sic_per_user_rates(
    channels: np.ndarray,
    config: ImpairedLinkConfig,
    decode_order: Sequence[int] | None = None,
) -> np.ndarray:
    """Per-user SIC rates for a given decode order, averaged over subcarriers.

    Users decoded later see less residual data interference; distortion noise
    of every user remains because it is uncorrelated with the decoded data.
    Decoding a user drops its weight in the received covariance from 1 to
    1 - kappa. For any decode order and EVM the user rates sum to the SIC sum
    rate.
    """
    gram = _gram(channels, config.powers)
    k = gram.shape[-1]
    order = np.arange(k) if decode_order is None else np.asarray(decode_order, dtype=int)
    if sorted(order.tolist()) != list(range(k)):
        raise ValueError(f"decode order must be a permutation of 0..{k - 1}")
    return sic_user_rates_logdets(gram, config.kappa, config.noise_variance, order).mean(axis=0)


def sic_user_rates_logdets(
    gram: np.ndarray, kappa: float, noise_variance: float, order: Sequence[int] | None = None
) -> np.ndarray:
    """Per-user SIC rates of (..., S, K, K) power-scaled Gram matrices, shape
    (..., S, K), by their definition: decoding a user drops its weight in the
    received covariance from 1 to 1 - kappa, and its rate is the drop in
    log-determinant this causes, K + 1 log-determinants in all. The reference
    of `mamimo.rates._sic_user_rates`, which reads the ascending-order rates
    off one Cholesky factor."""
    k = gram.shape[-1]
    eye = np.eye(k)
    amplitude = np.ones(k)
    previous = logdet_hpd(eye + gram / noise_variance)
    rates = np.empty(gram.shape[:-1])
    for user in range(k) if order is None else order:
        amplitude[user] = np.sqrt(1.0 - kappa)
        current = logdet_hpd(eye + gram * np.outer(amplitude, amplitude) / noise_variance)
        rates[..., user] = previous - current
        previous = current
    return rates


# The Gram products of `mamimo.rates` in their first form, einsum summing the
# strided antenna axis in place, kept as the bit reference of the contiguous
# form in `mamimo.rates._cross_gram`.
def gram_strided(h: np.ndarray, powers: np.ndarray) -> np.ndarray:
    """`_gram`: P^1/2 H^H H P^1/2 of (..., S, M, K) channels."""
    scaled = h * np.sqrt(powers)[:, None, :]
    return np.einsum("...smk,...smj->...skj", scaled.conj(), scaled)


def dpc_gram_strided(h: np.ndarray) -> np.ndarray:
    """The DPC ascent's H^H H of one instance's (S, M, K) channels."""
    return np.einsum("smk,smj->skj", h.conj(), h)


def dl_gains_strided(h: np.ndarray, precoders: np.ndarray) -> np.ndarray:
    """The dl-lin cross products H^H W of (..., S, M, K) channels and precoders,
    before their squared magnitudes are taken."""
    return np.einsum("...smk,...smi->...ski", h.conj(), precoders)


def dl_linear_sinr(
    precoders: np.ndarray, h: np.ndarray, k: int, kappa: float, noise_variance: float
) -> float:
    """Downlink SINR of user k for one subcarrier's precoding matrix (M, K)."""
    gains = np.abs(h[:, k].conj() @ precoders) ** 2  # (K,)
    own = float(gains[k])
    interference = float(gains.sum()) - own
    return kappa * own / (interference + (1.0 - kappa) * own + noise_variance)


def min_pairwise_distance(positions: np.ndarray) -> float:
    """Smallest pair distance of one placement, infinity for one antenna:
    the per-placement reference of `mamimo.geometry.min_pairwise_distances`."""
    d = pairwise_distances(np.asarray(positions, dtype=float))
    return float(d.min()) if d.size else float("inf")


def project_budget_euclidean(x: np.ndarray, budget: float) -> np.ndarray:
    """Euclidean projection onto {x >= 0, sum(x) <= budget}, by one sort of x."""
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


def unit_phasors_rint(phase: np.ndarray) -> np.ndarray:
    """The table-and-Taylor phasor kernel in its first form, kept as the bit
    reference of `mamimo.channels._unit_phasors`: rint rounding, a cast
    index, the Taylor terms written straight into the strided real and
    imaginary parts, and a range-checked table gather, in blocks of 4096."""
    phase = np.asarray(phase, dtype=float)
    if not (phase.min() >= -_PHASE_LIMIT and phase.max() <= _PHASE_LIMIT):
        raise ValueError(f"phases must be finite and within +-{_PHASE_LIMIT:g} rad")
    out = np.empty(phase.shape, dtype=complex)
    flat_in = phase.reshape(-1)
    flat_out = out.reshape(-1)
    block = min(4096, flat_in.size)
    table_buf = np.empty(block, dtype=complex)
    real_buf = table_buf.view(float)
    index_buf = np.empty(block, dtype=np.intp)
    for start in range(0, flat_in.size, block):
        x = flat_in[start:start + block]
        o = flat_out[start:start + block]
        n = x.shape[0]
        r, r2, idx, rot = real_buf[:n], real_buf[n:2 * n], index_buf[:n], table_buf[:n]
        np.multiply(x, _PHASOR_TABLE_SIZE / (2.0 * np.pi), out=r)
        np.rint(r, out=r)
        np.copyto(idx, r, casting="unsafe")
        idx &= _PHASOR_TABLE_SIZE - 1
        r *= _PHASOR_STEP
        np.subtract(x, r, out=r)
        np.multiply(r, r, out=r2)
        sin, cos = o.imag, o.real
        np.multiply(r2, -1.0 / 6.0, out=sin)
        sin += 1.0
        sin *= r
        np.multiply(r2, 1.0 / 24.0, out=cos)
        cos -= 0.5
        cos *= r2
        cos += 1.0
        _PHASOR_TABLE.take(idx, out=rot)
        o *= rot
    return out
