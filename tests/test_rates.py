from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mamimo.rates as rates_module
from mamimo.campaign import SPARSE_UPA, STAGGERED_URA, build_fixed_layouts, draw_realization
from mamimo.channels import ChannelModel, SubcarrierChannels
from mamimo.config import parse_config
from mamimo.rates import (
    RATE_SCHEMES,
    ImpairedLinkConfig,
    RateReport,
    dl_dpc_sum_rate,
    dl_linear_sum_rate,
    duality_precoders,
    evaluate_rate_scheme,
    high_snr_ceiling,
    logdet_hpd,
    ul_linear_sum_rate,
    ul_sic_sum_rate,
)
from mamimo.rates import (
    _DPC_MAX_ITERATIONS,
    _LN2,
    _gram,
    _project_weighted,
    _sic_gap,
    _sic_user_rates,
)
from oracles import (
    disturbance_covariance,
    dl_linear_sinr,
    mmse_combiner,
    project_budget_euclidean,
    ul_linear_sinr,
    ul_sic_per_user_rates,
)


def random_channels(rng, subcarriers, antennas, users):
    h = rng.normal(size=(subcarriers, antennas, users)) + 1j * rng.normal(
        size=(subcarriers, antennas, users)
    )
    return SubcarrierChannels(h / np.sqrt(2.0))


def sic_eigenvalue_oracle(channels, config):
    """Independent eigen-decomposition route to the SIC sum rate."""
    total = 0.0
    resid = 1.0 - config.kappa
    for nu in range(channels.subcarrier_count):
        h = channels.matrices[nu]
        hdh = (h * config.powers[nu]) @ h.conj().T
        eig = np.clip(np.linalg.eigvalsh(hdh), 0.0, None)
        total += np.sum(
            np.log2(1.0 + eig / config.noise_variance)
            - np.log2(1.0 + resid * eig / config.noise_variance)
        )
    return total / channels.subcarrier_count


def _project_euclidean(x, budget):
    """The projection of the oracle ascents: unit weights."""
    return _project_weighted(x, np.ones_like(x), budget)


def mm_dpc_oracle(channels, config, gain_stop=1e-8):
    """DPC sum rate by projected gradient ascent in M x M covariance form.

    The gradient solves with sigma^2 I + H D H^H, the form `dl_dpc_sum_rate`
    replaces by K x K Gram solves. The step is Euclidean and its line search
    starts at the whole budget. The ascent stops once a step gains less than
    `gain_stop` relatively; with `gain_stop=None` it runs on to a fixed point
    of the projected step or to the line search's floor.
    """
    total_power = config.total_power
    h = channels.matrices
    s, m, k = h.shape
    sigma2 = config.noise_variance
    resid = 1.0 - config.kappa
    eye_m = np.eye(m)

    def objective(d: np.ndarray) -> float:
        return float(_sic_gap(_gram(h, d), config.kappa, sigma2).mean())

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
    for _ in range(_DPC_MAX_ITERATIONS):
        grad = gradient(d)
        improved = False
        while step > 1e-14 * total_power:
            candidate = _project_euclidean(d + step * grad, total_power)
            if np.array_equal(candidate, d):
                break
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
        if gain_stop is not None and gain < gain_stop * max(abs(value), 1.0):
            break

    return float(_sic_gap(_gram(h, d), config.kappa, sigma2).mean())


def budget_start_dpc(channels, config, include_user_rates=True):
    """The Gram-form projected gradient ascent with its line search started at
    the whole budget and a 1e-8 relative gain stop.

    This is `dl_dpc_sum_rate` before its steps were scaled by the curvature
    or its first trial step by the gradient: no stationary stop either, and
    the report evaluates the final allocation once more. `_sic_gap` is
    looked up on the module so that a patched counter sees these calls too.
    """
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
        return float(rates_module._sic_gap(scaled(d), config.kappa, sigma2).mean())

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
            candidate = _project_euclidean(d + step * grad, total_power)
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
        if gain < 1e-8 * max(abs(value), 1.0):
            break

    best = scaled(d)
    per_user = None
    if include_user_rates:
        per_user = _sic_user_rates(best, config.kappa, sigma2).mean(axis=0)
    return float(rates_module._sic_gap(best, config.kappa, sigma2).mean()), per_user


@pytest.fixture(scope="module")
def workload_dpc_channels():
    """Channels of the swarm-wideband-dpc workload's first realization at
    master seed 1 (S = 50, K = 10, M = 16) on two of the swarm's seed layouts."""
    workloads = Path(__file__).resolve().parents[1] / "perfbench" / "workloads"
    spec = parse_config(workloads / "swarm-wideband-dpc.yaml", {"campaign.master_seed": 1})
    realization = draw_realization(spec, 0, 10)
    model = ChannelModel(realization.paths, spec.grid(50), spec.scenario().wavelength)
    layouts = build_fixed_layouts(spec)
    return spec, [model.channels(layouts[name].positions) for name in (SPARSE_UPA, STAGGERED_URA)]


@pytest.fixture
def sic_gap_calls(monkeypatch):
    """Counter of `_sic_gap` calls, the DPC objective's one evaluation."""
    counter = {"calls": 0}
    inner = rates_module._sic_gap

    def counted(*args):
        counter["calls"] += 1
        return inner(*args)

    monkeypatch.setattr(rates_module, "_sic_gap", counted)
    return counter


class TestConfig:
    def test_kappa_complements_evm_exactly(self):
        cfg = ImpairedLinkConfig.uniform(2, 3, 1.0, 0.37, 1.0)
        assert cfg.kappa + cfg.evm**2 == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            ImpairedLinkConfig.uniform(2, 3, -1.0, 0.1, 1.0)
        with pytest.raises(ValueError):
            ImpairedLinkConfig.uniform(2, 3, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            ImpairedLinkConfig.uniform(2, 3, 1.0, 0.1, 0.0)
        with pytest.raises(ValueError):
            ImpairedLinkConfig(np.zeros(3), 0.1, 1.0)

    @pytest.mark.parametrize(
        "field, overrides",
        [
            ("powers", {"powers": np.array([[1.0, np.nan]])}),
            ("powers", {"powers": np.array([[np.inf, 1.0]])}),
            ("noise_variance", {"noise_variance": np.inf}),
            ("noise_variance", {"noise_variance": np.nan}),
            ("total_power", {"total_power": np.inf}),
            ("total_power", {"total_power": np.nan}),
        ],
    )
    def test_rejects_non_finite_value_naming_the_field(self, field, overrides):
        arguments = {"powers": np.ones((1, 2)), "evm": 0.1, "noise_variance": 1.0, "total_power": 2.0}
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            ImpairedLinkConfig(**{**arguments, **overrides})


class TestDisturbanceCovariance:
    def test_single_user_ideal_hardware(self):
        rng = np.random.default_rng(0)
        h = rng.normal(size=(4, 1)) + 1j * rng.normal(size=(4, 1))
        q = disturbance_covariance(h, np.array([2.0]), 1.0, 0.3, 0)
        np.testing.assert_array_equal(q, 0.3 * np.eye(4))

    def test_ideal_hardware_drops_distortion_term(self):
        rng = np.random.default_rng(1)
        h = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        p = np.array([1.0, 2.0, 0.5])
        q = disturbance_covariance(h, p, 1.0, 0.1, 1)
        manual = sum(p[i] * np.outer(h[:, i], h[:, i].conj()) for i in (0, 2)) + 0.1 * np.eye(3)
        np.testing.assert_allclose(q, manual, rtol=1e-12)

    def test_eigenvalues_at_least_noise_floor(self):
        rng = np.random.default_rng(2)
        h = rng.normal(size=(5, 4)) + 1j * rng.normal(size=(5, 4))
        q = disturbance_covariance(h, np.ones(4), 0.9, 0.7, 2)
        assert np.linalg.eigvalsh(q).min() >= 0.7 * (1 - 1e-12)


class TestMmseCombiner:
    def test_single_user_is_matched_filter(self):
        rng = np.random.default_rng(3)
        h = rng.normal(size=(4, 1)) + 1j * rng.normal(size=(4, 1))
        w = mmse_combiner(h, np.array([1.5]), 1.0, 0.2, 0)
        hk = h[:, 0]
        cos = abs(w.conj() @ hk) / (np.linalg.norm(w) * np.linalg.norm(hk))
        assert cos == pytest.approx(1.0, abs=1e-12)

    def test_beats_random_combiners(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            h = rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))
            p = rng.uniform(0.5, 2.0, size=3)
            w_opt = mmse_combiner(h, p, 0.96, 0.4, 1)
            best = ul_linear_sinr(w_opt, h, p, 0.96, 0.4, 1)
            for _ in range(200):
                w = rng.normal(size=4) + 1j * rng.normal(size=4)
                assert ul_linear_sinr(w, h, p, 0.96, 0.4, 1) <= best * (1 + 1e-12)

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_sinr_scale_invariance(self, seed):
        rng = np.random.default_rng(seed)
        h = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
        w = rng.normal(size=3) + 1j * rng.normal(size=3)
        c = complex(rng.normal(), rng.normal())
        if abs(c) < 1e-3:
            c = 1.0 + 1j
        p = np.array([1.0, 0.7])
        s1 = ul_linear_sinr(w, h, p, 0.9, 0.5, 0)
        s2 = ul_linear_sinr(c * w, h, p, 0.9, 0.5, 0)
        assert s2 == pytest.approx(s1, rel=1e-12)


class TestUplinkLinearSinr:
    def test_orthogonal_combiner_gives_zero(self):
        h = np.array([[1.0], [0.0]], dtype=complex)
        w = np.array([0.0, 1.0], dtype=complex)
        assert ul_linear_sinr(w, h, np.array([1.0]), 1.0, 0.1, 0) == 0.0

    def test_scalar_awgn(self):
        h = np.array([[2.0 + 0j]])
        sinr = ul_linear_sinr(np.array([1.0 + 0j]), h, np.array([0.5]), 1.0, 0.25, 0)
        assert sinr == pytest.approx(0.5 * 4.0 / 0.25, rel=1e-12)

    def test_single_user_distortion_closed_form(self):
        rng = np.random.default_rng(5)
        h = rng.normal(size=(4, 1)) + 1j * rng.normal(size=(4, 1))
        kappa = 1 - 0.1**2
        rho, sigma2 = 3.0, 0.2
        norm2 = np.linalg.norm(h) ** 2
        sinr = ul_linear_sinr(h[:, 0], h, np.array([rho]), kappa, sigma2, 0)
        expected = kappa * rho * norm2 / ((1 - kappa) * rho * norm2 + sigma2)
        assert sinr == pytest.approx(expected, rel=1e-12)

    def test_distortion_limit_matches_ceiling(self):
        # As power grows the single-user rate tends to log2(1/EVM^2).
        rng = np.random.default_rng(6)
        h = rng.normal(size=(4, 1)) + 1j * rng.normal(size=(4, 1))
        evm = 0.2
        kappa = 1 - evm**2
        sinr = ul_linear_sinr(h[:, 0], h, np.array([1e12]), kappa, 1.0, 0)
        assert np.log2(1 + sinr) == pytest.approx(high_snr_ceiling(1, evm), rel=1e-6)

    def test_zero_combiner_rejected(self):
        h = np.ones((2, 1), dtype=complex)
        with pytest.raises(ValueError):
            ul_linear_sinr(np.zeros(2), h, np.array([1.0]), 1.0, 0.1, 0)


class TestUplinkLinearSumRate:
    def test_scalar_single_user(self):
        h = SubcarrierChannels(np.full((1, 1, 1), 1.5 + 0j))
        cfg = ImpairedLinkConfig.uniform(1, 1, 2.0, 0.0, 0.5)
        report = ul_linear_sum_rate(h, cfg)
        assert report.sum_rate == pytest.approx(np.log2(1 + 2.0 * 1.5**2 / 0.5), rel=1e-12)

    def test_identical_channels_saturate_below_sic(self):
        rng = np.random.default_rng(7)
        col = rng.normal(size=(1, 4, 1)) + 1j * rng.normal(size=(1, 4, 1))
        h = SubcarrierChannels(np.concatenate([col, col], axis=2))
        cfg = ImpairedLinkConfig.uniform(2, 1, 1e6, 0.0, 1.0)
        lin = ul_linear_sum_rate(h, cfg)
        sic = ul_sic_sum_rate(h, cfg)
        # Each user's interference dominates; both SINRs stay below one.
        assert np.all(2.0**lin.per_user_rates - 1 < 1.0)
        assert lin.sum_rate < sic.sum_rate

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_nonnegative_and_dominated_by_sic(self, seed):
        rng = np.random.default_rng(seed)
        s, m, k = rng.integers(1, 3), rng.integers(1, 5), rng.integers(1, 4)
        channels = random_channels(rng, s, m, k)
        cfg = ImpairedLinkConfig(
            rng.uniform(0.1, 2.0, size=(s, k)), rng.uniform(0.0, 0.6), 0.3
        )
        lin = ul_linear_sum_rate(channels, cfg)
        sic = ul_sic_sum_rate(channels, cfg)
        assert lin.sum_rate >= 0.0
        assert sic.sum_rate >= lin.sum_rate - 1e-10

    @pytest.mark.parametrize("snr", [1e16, 1e20])
    def test_high_snr_scalar_keeps_sinr(self, snr):
        # With ideal hardware the scalar SINR is p|h|^2/sigma^2 at any SNR.
        h = SubcarrierChannels(np.full((1, 1, 1), 2.0 + 0j))
        cfg = ImpairedLinkConfig.uniform(1, 1, snr * 0.5 / 4.0, 0.0, 0.5)
        rate = ul_linear_sum_rate(h, cfg).sum_rate
        assert 2.0**rate - 1.0 == pytest.approx(snr, rel=1e-12)

    def test_report_invariant(self):
        rng = np.random.default_rng(8)
        channels = random_channels(rng, 3, 4, 2)
        cfg = ImpairedLinkConfig.uniform(2, 3, 1.0, 0.1, 0.5)
        report = ul_linear_sum_rate(channels, cfg)
        assert report.sum_rate == pytest.approx(report.per_user_rates.sum(), rel=1e-12)


class TestRateReport:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("sum_rate", np.nan),
            ("per_user_rates", np.array([np.nan, 1.0])),
        ],
    )
    def test_rejects_non_finite_rates(self, field, value):
        fields = dict(scheme="ul-lin", sum_rate=2.0, per_user_rates=np.array([1.0, 1.0]))
        RateReport(**fields)
        fields[field] = value
        with pytest.raises(ValueError, match=field):
            RateReport(**fields)


class TestRegistry:
    def test_schemes_in_config_order(self):
        assert RATE_SCHEMES == ("ul-lin", "ul-sic", "dl-lin", "dl-dpc")

    @pytest.mark.parametrize("scheme", RATE_SCHEMES)
    def test_summary_only_skips_only_the_per_user_rates(self, scheme):
        channels = random_channels(np.random.default_rng(4), 3, 4, 3)
        cfg = ImpairedLinkConfig.uniform(3, 3, 1.0, 0.05, 0.1, total_power=9.0)
        full = evaluate_rate_scheme(scheme, channels, cfg)
        summary = evaluate_rate_scheme(scheme, channels, cfg, summary_only=True)
        assert (full.scheme, summary.scheme) == (scheme, scheme)
        assert full.per_user_rates.shape == (3,)
        assert summary.per_user_rates is None
        assert summary.sum_rate == full.sum_rate

    def test_unknown_scheme_rejected(self):
        channels = random_channels(np.random.default_rng(4), 1, 2, 2)
        cfg = ImpairedLinkConfig.uniform(2, 1, 1.0, 0.05, 0.1, total_power=2.0)
        with pytest.raises(ValueError, match="unknown rate scheme 'ul-zf'"):
            evaluate_rate_scheme("ul-zf", channels, cfg)


class TestUplinkSic:
    def test_ideal_hardware_penalty_exactly_zero(self):
        rng = np.random.default_rng(9)
        channels = random_channels(rng, 2, 3, 2)
        cfg = ImpairedLinkConfig.uniform(2, 2, 1.0, 0.0, 0.5)
        report = ul_sic_sum_rate(channels, cfg)
        assert report.sum_rate == pytest.approx(sic_eigenvalue_oracle(channels, cfg), rel=1e-12)

    def test_single_user_scalar_equals_linear(self):
        h = SubcarrierChannels(np.full((1, 1, 1), 0.8 + 0.3j))
        cfg = ImpairedLinkConfig.uniform(1, 1, 2.0, 0.0, 0.5)
        assert ul_sic_sum_rate(h, cfg).sum_rate == pytest.approx(
            ul_linear_sum_rate(h, cfg).sum_rate, rel=1e-12
        )

    def test_eigenvalue_oracle(self):
        rng = np.random.default_rng(10)
        channels = random_channels(rng, 2, 2, 2)
        cfg = ImpairedLinkConfig(rng.uniform(0.5, 2.0, size=(2, 2)), 0.15, 0.3)
        value = ul_sic_sum_rate(channels, cfg).sum_rate
        assert value == pytest.approx(sic_eigenvalue_oracle(channels, cfg), rel=1e-9)

    def test_monotone_in_power_and_bounded_by_ceiling(self):
        rng = np.random.default_rng(11)
        channels = random_channels(rng, 1, 4, 3)
        evm = 0.25
        previous = -1.0
        for rho in 10.0 ** np.arange(0, 9):
            cfg = ImpairedLinkConfig.uniform(3, 1, rho, evm, 1.0)
            rate = ul_sic_sum_rate(channels, cfg).sum_rate
            assert rate >= previous - 1e-9
            previous = rate
        assert previous <= high_snr_ceiling(3, evm)


class TestSicPerUser:
    def test_telescoping_with_ideal_hardware(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            s, m, k = 2, 4, 3
            channels = random_channels(rng, s, m, k)
            cfg = ImpairedLinkConfig(rng.uniform(0.2, 2.0, size=(s, k)), 0.0, 0.4)
            per_user = ul_sic_per_user_rates(channels, cfg)
            total = ul_sic_sum_rate(channels, cfg).sum_rate
            assert per_user.sum() == pytest.approx(total, rel=1e-9)

    def test_telescoping_with_distortion(self):
        # Decoded users keep their distortion; later users' distortion must
        # not be counted twice, so the split still sums to the sum rate.
        rng = np.random.default_rng(29)
        for evm in (0.05, 0.3):
            for _ in range(10):
                s, m, k = 3, 6, 4
                channels = random_channels(rng, s, m, k)
                cfg = ImpairedLinkConfig(
                    rng.uniform(0.2, 2.0, size=(s, k)), evm, 0.4, total_power=5.0
                )
                order = rng.permutation(k)
                per_user = ul_sic_per_user_rates(channels, cfg, decode_order=order)
                total = ul_sic_sum_rate(channels, cfg).sum_rate
                assert per_user.sum() == pytest.approx(total, rel=1e-12)
                # Per subcarrier too: the split SIC and DPC reports share.
                gram = _gram(channels.matrices, cfg.powers)
                np.testing.assert_allclose(
                    [
                        ul_sic_per_user_rates(
                            SubcarrierChannels(channels.matrices[nu : nu + 1]),
                            ImpairedLinkConfig(cfg.powers[nu : nu + 1], evm, 0.4),
                            decode_order=order,
                        ).sum()
                        for nu in range(s)
                    ],
                    _sic_gap(gram, cfg.kappa, 0.4),
                    rtol=1e-12,
                )
                np.testing.assert_allclose(
                    _sic_user_rates(gram, cfg.kappa, 0.4).sum(axis=1),
                    _sic_gap(gram, cfg.kappa, 0.4),
                    rtol=1e-12,
                )
                dpc = dl_dpc_sum_rate(channels, cfg)
                assert dpc.per_user_rates.sum() == pytest.approx(dpc.sum_rate, rel=1e-12)

    def test_last_decoded_sees_no_interference_when_ideal(self):
        rng = np.random.default_rng(13)
        channels = random_channels(rng, 1, 4, 3)
        cfg = ImpairedLinkConfig.uniform(3, 1, 1.5, 0.0, 0.3)
        per_user = ul_sic_per_user_rates(channels, cfg, decode_order=[0, 1, 2])
        h_last = channels.matrices[0][:, 2]
        expected = np.log2(1 + 1.5 * np.linalg.norm(h_last) ** 2 / 0.3)
        assert per_user[2] == pytest.approx(expected, rel=1e-12)

    def test_single_user_equals_linear(self):
        rng = np.random.default_rng(14)
        channels = random_channels(rng, 2, 3, 1)
        cfg = ImpairedLinkConfig.uniform(1, 2, 1.0, 0.2, 0.3)
        per_user = ul_sic_per_user_rates(channels, cfg)
        lin = ul_linear_sum_rate(channels, cfg)
        assert per_user[0] == pytest.approx(lin.sum_rate, rel=1e-10)

    def test_invalid_order_rejected(self):
        rng = np.random.default_rng(15)
        channels = random_channels(rng, 1, 2, 2)
        cfg = ImpairedLinkConfig.uniform(2, 1, 1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            ul_sic_per_user_rates(channels, cfg, decode_order=[0, 0])
        with pytest.raises(ValueError):
            ul_sic_per_user_rates(channels, cfg, decode_order=[1, 2])


class TestCeiling:
    def test_reference_values(self):
        assert high_snr_ceiling(10, 0.02) == pytest.approx(112.877, abs=1e-3)
        assert high_snr_ceiling(1, 0.5) == pytest.approx(2.0, rel=1e-12)

    def test_vanishes_for_full_distortion(self):
        assert high_snr_ceiling(4, 0.999999) == pytest.approx(0.0, abs=1e-4)

    def test_rejects_degenerate_evm(self):
        with pytest.raises(ValueError):
            high_snr_ceiling(2, 0.0)
        with pytest.raises(ValueError):
            high_snr_ceiling(2, 1.0)


def classical_dl_sinr(precoders, h, k, noise):
    """Textbook downlink SINR without any distortion terms."""
    gains = np.abs(h[:, k].conj() @ precoders) ** 2
    return gains[k] / (gains.sum() - gains[k] + noise)


class TestDownlinkLinear:
    def test_reduces_to_classical_sinr(self):
        rng = np.random.default_rng(16)
        h = rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))
        p = rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))
        for k in range(3):
            ours = dl_linear_sinr(p, h, k, 1.0, 0.3)
            assert ours == pytest.approx(classical_dl_sinr(p, h, k, 0.3), rel=1e-12)

    def test_orthogonal_precoder_gives_zero(self):
        h = np.array([[1.0], [0.0]], dtype=complex)
        p = np.array([[0.0], [1.0]], dtype=complex)
        assert dl_linear_sinr(p, h, 0, 0.9, 0.1) == 0.0

    def test_single_user_matched_precoder(self):
        rng = np.random.default_rng(17)
        h = rng.normal(size=(4, 1)) + 1j * rng.normal(size=(4, 1))
        power = 2.0
        kappa = 0.9
        p = np.sqrt(power) * h / np.linalg.norm(h)
        norm2 = np.linalg.norm(h) ** 2
        sinr = dl_linear_sinr(p, h, 0, kappa, 0.3)
        expected = kappa * power * norm2 / ((1 - kappa) * power * norm2 + 0.3)
        assert sinr == pytest.approx(expected, rel=1e-12)

    def test_scalar_sum_rate(self):
        h = SubcarrierChannels(np.full((1, 1, 1), 1.2 + 0j))
        cfg = ImpairedLinkConfig.uniform(1, 1, 1.0, 0.0, 0.5, total_power=4.0)
        report = dl_linear_sum_rate(h, cfg)
        assert report.sum_rate == pytest.approx(np.log2(1 + 4.0 * 1.2**2 / 0.5), rel=1e-12)


@pytest.mark.parametrize("evm", [0.0, 0.1])
@pytest.mark.parametrize("antennas, users", [(6, 3), (4, 4), (3, 5)])
@pytest.mark.parametrize("subcarriers", [1, 3])
class TestLinearSchemesMatchScalarOracles:
    # The batched schemes against log2(1 + SINR) of the per-user scalar forms,
    # with unequal powers. At S = 1 the per-user rates are the per-subcarrier
    # rates; at S = 3 they are their means over subcarriers.
    def instance(self, evm, antennas, users, subcarriers):
        rng = np.random.default_rng([antennas, users, subcarriers, int(100 * evm)])
        channels = random_channels(rng, subcarriers, antennas, users)
        powers = rng.uniform(0.2, 2.0, size=(subcarriers, users))
        return channels, ImpairedLinkConfig(powers, evm, 0.3, total_power=4.0)

    def test_uplink_mmse(self, evm, antennas, users, subcarriers):
        channels, cfg = self.instance(evm, antennas, users, subcarriers)
        rates = np.empty((subcarriers, users))
        for nu in range(subcarriers):
            h, p = channels.matrices[nu], cfg.powers[nu]
            for k in range(users):
                w = mmse_combiner(h, p, cfg.kappa, cfg.noise_variance, k)
                sinr = ul_linear_sinr(w, h, p, cfg.kappa, cfg.noise_variance, k)
                rates[nu, k] = np.log2(1 + sinr)
        report = ul_linear_sum_rate(channels, cfg)
        np.testing.assert_allclose(report.per_user_rates, rates.mean(axis=0), rtol=1e-10)
        assert report.sum_rate == pytest.approx(rates.sum(axis=1).mean(), rel=1e-10)

    def test_downlink_duality(self, evm, antennas, users, subcarriers):
        channels, cfg = self.instance(evm, antennas, users, subcarriers)
        precoders = duality_precoders(channels, cfg)
        rates = np.empty((subcarriers, users))
        for nu in range(subcarriers):
            h = channels.matrices[nu]
            for k in range(users):
                sinr = dl_linear_sinr(precoders[nu], h, k, cfg.kappa, cfg.noise_variance)
                rates[nu, k] = np.log2(1 + sinr)
        report = dl_linear_sum_rate(channels, cfg)
        np.testing.assert_allclose(report.per_user_rates, rates.mean(axis=0), rtol=1e-10)
        assert report.sum_rate == pytest.approx(rates.sum(axis=1).mean(), rel=1e-10)


class TestDuality:
    def test_single_user_matched_filter_direction(self):
        rng = np.random.default_rng(20)
        channels = random_channels(rng, 1, 4, 1)
        cfg = ImpairedLinkConfig.uniform(1, 1, 1.0, 0.0, 0.3, total_power=2.0)
        p = duality_precoders(channels, cfg)[0, :, 0]
        h = channels.matrices[0][:, 0]
        cos = abs(p.conj() @ h) / (np.linalg.norm(p) * np.linalg.norm(h))
        assert cos == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(p) ** 2 == pytest.approx(2.0, rel=1e-12)

    def test_budget_saturation(self):
        rng = np.random.default_rng(21)
        channels = random_channels(rng, 3, 4, 2)
        cfg = ImpairedLinkConfig.uniform(2, 3, 1.0, 0.1, 0.3, total_power=5.0)
        precoders = duality_precoders(channels, cfg)
        assert np.sum(np.abs(precoders) ** 2) == pytest.approx(5.0, rel=1e-9)

    def test_orthogonal_channels_match_uplink_sinrs(self):
        # With orthogonal user channels and matched powers the downlink SINRs
        # coincide with the uplink MMSE SINRs.
        h = np.zeros((1, 4, 2), dtype=complex)
        h[0, 0, 0] = 1.3
        h[0, 2, 1] = 0.7
        channels = SubcarrierChannels(h)
        rho = 1.5
        cfg = ImpairedLinkConfig.uniform(2, 1, rho, 0.0, 0.3, total_power=2 * rho)
        precoders = duality_precoders(channels, cfg)
        for k in range(2):
            w = mmse_combiner(h[0], np.full(2, rho), 1.0, 0.3, k)
            ul = ul_linear_sinr(w, h[0], np.full(2, rho), 1.0, 0.3, k)
            dl = dl_linear_sinr(precoders[0], h[0], k, 1.0, 0.3)
            assert dl == pytest.approx(ul, rel=1e-12)


    def test_directions_match_per_user_mmse_combiners(self):
        # One solve with the full received covariance gives, per user, the
        # direction of that user's own MMSE combiner (Sherman-Morrison).
        rng = np.random.default_rng(22)
        s, m, k = 3, 6, 4
        channels = random_channels(rng, s, m, k)
        powers = rng.uniform(0.5, 2.0, size=(s, k))
        cfg = ImpairedLinkConfig(powers, 0.1, 0.3, total_power=4.0)
        vectors = duality_precoders(channels, cfg)
        for nu in range(s):
            for user in range(k):
                w = mmse_combiner(channels.matrices[nu], powers[nu], cfg.kappa, 0.3, user)
                p = vectors[nu, :, user]
                np.testing.assert_allclose(
                    p / np.linalg.norm(p), w / np.linalg.norm(w), rtol=0, atol=1e-10
                )


class TestWeightedProjection:
    @given(
        st.lists(
            st.tuples(st.floats(-10.0, 10.0), st.floats(1e-3, 1e3)),
            min_size=1,
            max_size=12,
        ),
        st.floats(1e-3, 50.0),
    )
    @settings(max_examples=300)
    def test_feasible_and_kkt(self, entries, budget):
        y, w = (np.array(column) for column in zip(*entries))
        x = _project_weighted(y, w, budget)
        clipped = np.maximum(y, 0.0)
        rounding = 1e-12 * max(budget, clipped.sum())  # x = y - theta / w cancels
        assert np.all(x >= 0.0)
        assert x.sum() <= budget + rounding
        if clipped.sum() <= budget:
            assert np.array_equal(x, clipped)
            return
        # x = max(y - theta / w, 0) with theta > 0: the budget binds, w (y - x)
        # equals theta on the support, and w y is at most theta off it.
        assert x.sum() == pytest.approx(budget, rel=0, abs=rounding)
        scale = float(np.max(np.abs(w * y)))
        support = x > 0.0
        theta = w[support] * (y[support] - x[support])
        assert theta.max() - theta.min() <= 1e-12 * scale
        assert np.all(w[~support] * y[~support] <= theta.max() + 1e-12 * scale)

    @given(st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=12), st.floats(1e-3, 50.0))
    @settings(max_examples=300)
    def test_unit_weights_give_euclidean_projection(self, values, budget):
        y = np.array(values)
        np.testing.assert_allclose(
            _project_weighted(y, np.ones_like(y), budget),
            project_budget_euclidean(y, budget),
            rtol=0,
            atol=1e-12,
        )


class TestDpc:
    def test_single_user_single_subcarrier(self):
        rng = np.random.default_rng(23)
        channels = random_channels(rng, 1, 4, 1)
        total = 2.5
        cfg = ImpairedLinkConfig.uniform(1, 1, 1.0, 0.0, 0.3, total_power=total)
        report = dl_dpc_sum_rate(channels, cfg)
        norm2 = np.linalg.norm(channels.matrices[0]) ** 2
        assert report.sum_rate == pytest.approx(np.log2(1 + total * norm2 / 0.3), rel=1e-9)

    def test_at_least_uniform_allocation(self):
        rng = np.random.default_rng(24)
        channels = random_channels(rng, 2, 3, 2)
        total = 3.0
        cfg = ImpairedLinkConfig.uniform(2, 2, 1.0, 0.2, 0.4, total_power=total)
        uniform_cfg = ImpairedLinkConfig.uniform(2, 2, total / 4, 0.2, 0.4)
        uniform_value = ul_sic_sum_rate(channels, uniform_cfg).sum_rate
        assert dl_dpc_sum_rate(channels, cfg).sum_rate >= uniform_value - 1e-12

    def test_power_sweep_approaches_ceiling(self):
        rng = np.random.default_rng(25)
        channels = random_channels(rng, 1, 4, 2)
        evm = 0.1
        previous = -1.0
        for total in 10.0 ** np.arange(0, 8):
            cfg = ImpairedLinkConfig.uniform(2, 1, 1.0, evm, 1.0, total_power=float(total))
            value = dl_dpc_sum_rate(channels, cfg).sum_rate
            assert value >= previous - 1e-9
            previous = value
        ceiling = high_snr_ceiling(2, evm)
        assert previous <= ceiling
        assert previous >= 0.95 * ceiling

    def test_dominates_linear_precoding(self):
        rng = np.random.default_rng(26)
        for _ in range(10):
            s, m, k = 1, 4, int(rng.integers(1, 4))
            channels = random_channels(rng, s, m, k)
            cfg = ImpairedLinkConfig.uniform(
                k, s, 1.0, float(rng.uniform(0, 0.4)), 0.5, total_power=float(rng.uniform(1, 10))
            )
            lin = dl_linear_sum_rate(channels, cfg).sum_rate
            dpc = dl_dpc_sum_rate(channels, cfg).sum_rate
            assert dpc >= lin - 1e-10

    @pytest.mark.parametrize("users", [4, 16, 20])
    @pytest.mark.parametrize("subcarriers", [1, 8])
    def test_matches_covariance_form_oracle(self, users, subcarriers):
        # 16 antennas: fewer, as many and more users than antennas. The
        # oracle's 1e-8 gain stop ends it below the optimum, so it bounds the
        # value from below only; run on to its fixed point or step floor, it
        # bounds the value from both sides.
        rng = np.random.default_rng(100 * users + subcarriers)
        channels = random_channels(rng, subcarriers, 16, users)
        total = float(users * subcarriers)
        for evm in (0.0, 0.02, 0.3):
            for noise in (1e-6, 1e-3, 1.0, 1e2):
                cfg = ImpairedLinkConfig.uniform(users, subcarriers, 1.0, evm, noise, total_power=total)
                value = dl_dpc_sum_rate(channels, cfg).sum_rate
                stopped = mm_dpc_oracle(channels, cfg)
                assert value >= stopped - 1e-8 * abs(stopped), (evm, noise)
                reference = mm_dpc_oracle(channels, cfg, gain_stop=None)
                assert value >= reference - 1e-8 * abs(reference), (evm, noise)
                assert value <= reference + 1e-9 * abs(reference), (evm, noise)

    def test_reaches_the_optimum_at_high_snr_with_strong_distortion(self):
        # K = M, sigma^2 = 1e-6, EVM 0.3: a projected gradient ascent with a
        # 1e-8 gain stop ends 1.14e-6 below the no-gain-stop reference here.
        rng = np.random.default_rng(1601)
        channels = random_channels(rng, 1, 16, 16)
        cfg = ImpairedLinkConfig.uniform(16, 1, 1.0, 0.3, 1e-6, total_power=16.0)
        reference = mm_dpc_oracle(channels, cfg, gain_stop=None)
        assert reference == pytest.approx(55.58256492, rel=1e-9)
        assert dl_dpc_sum_rate(channels, cfg).sum_rate == pytest.approx(reference, rel=1e-8)

    def test_more_users_than_antennas(self):
        rng = np.random.default_rng(29)
        s, m, k, evm = 8, 16, 20, 0.02
        channels = random_channels(rng, s, m, k)
        total = float(s * k)
        cfg = ImpairedLinkConfig.uniform(k, s, 1.0, evm, 1.0, total_power=total)
        report = dl_dpc_sum_rate(channels, cfg)
        assert report.per_user_rates.sum() == pytest.approx(report.sum_rate, rel=0, abs=1e-12)
        uniform_cfg = ImpairedLinkConfig.uniform(k, s, total / (s * k), evm, 1.0)
        assert report.sum_rate >= ul_sic_sum_rate(channels, uniform_cfg).sum_rate - 1e-12
        lin = dl_linear_sum_rate(channels, cfg).sum_rate
        assert report.sum_rate >= lin - 1e-10

    @pytest.mark.parametrize("evm", [0.02, 0.1])
    def test_at_least_budget_start_ascent_on_workload_channels(self, workload_dpc_channels, evm):
        spec, instances = workload_dpc_channels
        config = spec.link_config(10, 50, evm)
        for channels in instances:
            expected_sum, _ = budget_start_dpc(channels, config)
            full = dl_dpc_sum_rate(channels, config)
            assert full.sum_rate >= expected_sum
            assert full.per_user_rates.sum() == pytest.approx(full.sum_rate, rel=0, abs=1e-12)
            summary = dl_dpc_sum_rate(channels, config, include_user_rates=False)
            assert summary.sum_rate == full.sum_rate
            assert summary.per_user_rates is None

    @pytest.mark.parametrize("evm", [0.02, 0.1])
    @pytest.mark.parametrize("include_user_rates", [False, True])
    def test_fewer_objective_evaluations_than_budget_start(
        self, workload_dpc_channels, sic_gap_calls, evm, include_user_rates
    ):
        spec, instances = workload_dpc_channels
        config = spec.link_config(10, 50, evm)
        for channels in instances:
            sic_gap_calls["calls"] = 0
            budget_start_dpc(channels, config, include_user_rates)
            before = sic_gap_calls["calls"]
            sic_gap_calls["calls"] = 0
            dl_dpc_sum_rate(channels, config, include_user_rates=include_user_rates)
            assert sic_gap_calls["calls"] <= before - 12, (before, sic_gap_calls["calls"])

    def test_few_objective_evaluations_on_workload_channels(self, workload_dpc_channels, sic_gap_calls):
        spec, instances = workload_dpc_channels
        config = spec.link_config(10, 50, spec.evms[0])
        for channels in instances:
            sic_gap_calls["calls"] = 0
            dl_dpc_sum_rate(channels, config, include_user_rates=False)
            assert sic_gap_calls["calls"] <= 12

    def test_single_user_single_subcarrier_stops_at_once(self, sic_gap_calls):
        # The whole budget on the one entry is a fixed point of the projected
        # step: the ascent stops on its first candidate without evaluating it.
        rng = np.random.default_rng(23)
        channels = random_channels(rng, 1, 4, 1)
        cfg = ImpairedLinkConfig.uniform(1, 1, 1.0, 0.1, 0.3, total_power=2.5)
        report = dl_dpc_sum_rate(channels, cfg)
        assert sic_gap_calls["calls"] == 1
        whole_budget = _gram(channels.matrices, np.full((1, 1), 2.5))
        assert report.sum_rate == _sic_gap(whole_budget, cfg.kappa, 0.3)[0]

    def test_all_zero_channels_give_zero_rate(self):
        # Zero gradient and zero curvature: the step stays finite and moves nothing.
        channels = SubcarrierChannels(np.zeros((3, 4, 2), dtype=complex))
        cfg = ImpairedLinkConfig.uniform(2, 3, 1.0, 0.02, 1.0, total_power=6.0)
        report = dl_dpc_sum_rate(channels, cfg)
        assert report.sum_rate == 0.0
        assert np.array_equal(report.per_user_rates, np.zeros(2))

    def test_summary_equals_full_report_sum_rate(self, workload_dpc_channels):
        spec, instances = workload_dpc_channels
        rng = np.random.default_rng(30)
        cases = [(channels, spec.link_config(10, 50, 0.02)) for channels in instances]
        for evm in (0.0, 0.1):
            cfg = ImpairedLinkConfig.uniform(3, 4, 1.0, evm, 0.5, total_power=12.0)
            cases.append((random_channels(rng, 4, 6, 3), cfg))
        for channels, cfg in cases:
            full = dl_dpc_sum_rate(channels, cfg).sum_rate
            assert dl_dpc_sum_rate(channels, cfg, include_user_rates=False).sum_rate == full

    def test_rejects_nonpositive_budget(self):
        rng = np.random.default_rng(27)
        channels = random_channels(rng, 1, 2, 1)
        with pytest.raises(ValueError):
            ImpairedLinkConfig.uniform(1, 1, 1.0, 0.0, 1.0, total_power=0.0)
        with pytest.raises(ValueError):
            dl_dpc_sum_rate(channels, ImpairedLinkConfig.uniform(1, 1, 1.0, 0.0, 1.0))


class TestLogDet:
    def test_identity(self):
        assert logdet_hpd(np.eye(4)) == 0.0

    def test_diagonal(self):
        assert logdet_hpd(np.diag([2.0, 4.0])) == pytest.approx(3.0, rel=1e-12)

    def test_matches_eigenvalue_oracle(self):
        rng = np.random.default_rng(28)
        a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        hpd = a @ a.conj().T + 0.1 * np.eye(6)
        oracle = float(np.sum(np.log2(np.linalg.eigvalsh(hpd))))
        assert logdet_hpd(hpd) == pytest.approx(oracle, rel=1e-9)

    def test_rejects_indefinite(self):
        with pytest.raises(np.linalg.LinAlgError):
            logdet_hpd(np.diag([1.0, -1.0]))
