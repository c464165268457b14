"""Acceptance suite: every criterion prints one PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to stream the lines. The
heavyweight Monte Carlo criteria (9-11) run desk-scale campaigns and take a
few minutes in total.
"""
import numpy as np
import pytest

from mamimo.campaign import ExperimentSpec, aggregate, run_campaign, write_campaign_outputs
from mamimo.channels import (
    OfdmGrid,
    SubcarrierChannels,
    sample_user_positions,
    subcarrier_channels,
    synthesize_paths,
)
from mamimo.geometry import make_move_regions, make_staggered_ura
from mamimo.pso import PsoConfig, objective_adapter, pso_optimize, spacing_penalty
from mamimo.rates import (
    ImpairedLinkConfig,
    dl_dpc_sum_rate,
    dl_linear_sum_rate,
    high_snr_ceiling,
    ul_linear_sum_rate,
    ul_sic_sum_rate,
)
from oracles import (
    build_tap_channel,
    dl_linear_sinr,
    mmse_combiner,
    subcarriers_from_taps,
    ul_linear_sinr,
    ul_sic_per_user_rates,
)


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion:>2} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def random_channels(rng, subcarriers, antennas, users):
    h = rng.normal(size=(subcarriers, antennas, users)) + 1j * rng.normal(
        size=(subcarriers, antennas, users)
    )
    return SubcarrierChannels(h / np.sqrt(2.0))


def test_criterion_01_high_snr_ceiling():
    rng = np.random.default_rng(2024)
    channels = random_channels(rng, 4, 4, 2)
    evm = 0.1
    values = []
    for ratio in 10.0 ** np.arange(0, 9):
        cfg = ImpairedLinkConfig.uniform(2, 4, ratio, evm, 1.0)
        values.append(ul_sic_sum_rate(channels, cfg).sum_rate)
    values = np.array(values)
    ceiling = 2 * np.log2(100.0)
    monotone = bool(np.all(np.diff(values) >= -1e-9))
    within = abs(values[-1] - ceiling) <= 0.01 * ceiling
    report(
        1,
        monotone and within,
        f"SIC rate at rho/sigma^2=1e8 is {values[-1]:.4f} vs ceiling {ceiling:.4f} "
        f"(monotone={monotone})",
    )


def test_criterion_02_sic_eigenvalue_oracle():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        k = int(rng.integers(1, 5))
        m = int(rng.integers(1, 9))
        s = int(rng.integers(1, 4))
        channels = random_channels(rng, s, m, k)
        cfg = ImpairedLinkConfig(
            rng.uniform(0.1, 3.0, size=(s, k)), float(rng.uniform(0.0, 0.7)), 0.5
        )
        value = ul_sic_sum_rate(channels, cfg).sum_rate
        resid = 1.0 - cfg.kappa
        oracle = 0.0
        for nu in range(s):
            h = channels.matrices[nu]
            hdh = (h * cfg.powers[nu]) @ h.conj().T
            eig = np.clip(np.linalg.eigvalsh(hdh), 0.0, None)
            oracle += np.sum(
                np.log2(1 + eig / cfg.noise_variance)
                - np.log2(1 + resid * eig / cfg.noise_variance)
            )
        oracle /= s
        worst = max(worst, abs(value - oracle) / max(abs(oracle), 1e-12))
    report(2, worst <= 1e-9, f"max relative gap between log-det and eigenvalue form: {worst:.2e}")


def test_criterion_03_mmse_optimality():
    rng = np.random.default_rng(11)
    violations = 0
    for _ in range(50):
        m = int(rng.integers(2, 7))
        k = int(rng.integers(1, 5))
        h = (rng.normal(size=(m, k)) + 1j * rng.normal(size=(m, k))) / np.sqrt(2)
        p = rng.uniform(0.2, 2.0, size=k)
        kappa = 1.0 - float(rng.uniform(0.0, 0.5)) ** 2
        target = int(rng.integers(0, k))
        w_opt = mmse_combiner(h, p, kappa, 0.4, target)
        best = ul_linear_sinr(w_opt, h, p, kappa, 0.4, target)
        samples = rng.normal(size=(1000, m)) + 1j * rng.normal(size=(1000, m))
        samples /= np.linalg.norm(samples, axis=1, keepdims=True)
        for w in samples:
            if ul_linear_sinr(w, h, p, kappa, 0.4, target) > best * (1 + 1e-12):
                violations += 1
    report(3, violations == 0, f"{violations} of 50000 random combiners beat the MMSE solution")


def test_criterion_04_ordering_sic_vs_linear_and_dpc_vs_dl():
    rng = np.random.default_rng(13)
    worst_ul = np.inf
    worst_dl = np.inf
    for _ in range(200):
        s = int(rng.integers(1, 3))
        m = int(rng.integers(2, 7))
        k = int(rng.integers(1, 5))
        channels = random_channels(rng, s, m, k)
        total = float(rng.uniform(1.0, 20.0))
        cfg = ImpairedLinkConfig(
            rng.uniform(0.2, 2.0, size=(s, k)),
            float(rng.uniform(0.0, 0.5)),
            0.5,
            total_power=total,
        )
        ul_gap = ul_sic_sum_rate(channels, cfg).sum_rate - ul_linear_sum_rate(channels, cfg).sum_rate
        dl_lin = dl_linear_sum_rate(channels, cfg).sum_rate
        dl_dpc = dl_dpc_sum_rate(channels, cfg).sum_rate
        worst_ul = min(worst_ul, ul_gap)
        worst_dl = min(worst_dl, dl_dpc - dl_lin)
    ok = worst_ul >= -1e-10 and worst_dl >= -1e-10
    report(4, ok, f"min(SIC - linear) = {worst_ul:.3e}, min(DPC - DL-linear) = {worst_dl:.3e}")


def test_criterion_05_tap_dft_equivalence():
    rng = np.random.default_rng(17)
    scen = ExperimentSpec().scenario()
    worst = 0.0
    for i in range(50):
        users = int(rng.integers(1, 4))
        paths = [
            synthesize_paths(rng, scen, pos)
            for pos in sample_user_positions(rng, scen, users)
        ]
        layout = make_staggered_ura(2, 2, scen.wavelength)
        for s in (1, 16, 64):
            grid = OfdmGrid(s, 15e3)
            direct = subcarrier_channels(paths, layout, grid)
            via_taps = subcarriers_from_taps(build_tap_channel(paths, layout, grid), grid)
            err = np.linalg.norm(direct.matrices - via_taps.matrices) / np.linalg.norm(
                direct.matrices
            )
            worst = max(worst, err)
    report(5, worst <= 1e-10, f"max relative Frobenius gap tap-route vs direct: {worst:.2e}")


def test_criterion_06_ideal_hardware_degeneracies():
    rng = np.random.default_rng(19)
    channels = random_channels(rng, 2, 4, 3)
    cfg = ImpairedLinkConfig.uniform(3, 2, 1.3, 0.0, 0.4)
    # Penalty term vanishes: the log-det rate equals the eigenvalue sum of the
    # ideal-hardware term alone.
    pure = 0.0
    for nu in range(2):
        h = channels.matrices[nu]
        eig = np.clip(np.linalg.eigvalsh((h * cfg.powers[nu]) @ h.conj().T), 0.0, None)
        pure += np.sum(np.log2(1 + eig / cfg.noise_variance))
    pure /= 2
    sic = ul_sic_sum_rate(channels, cfg).sum_rate
    gap_sic = abs(sic - pure) / pure

    h = channels.matrices[0]
    precoders = rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))
    gap_dl = 0.0
    for k in range(3):
        ours = dl_linear_sinr(precoders, h, k, 1.0, 0.4)
        gains = np.abs(h[:, k].conj() @ precoders) ** 2
        classical = gains[k] / (gains.sum() - gains[k] + 0.4)
        gap_dl = max(gap_dl, abs(ours - classical) / classical)
    ok = gap_sic <= 1e-12 and gap_dl <= 1e-12
    report(6, ok, f"ideal-hardware gaps: SIC penalty {gap_sic:.2e}, DL SINR vs classical {gap_dl:.2e}")


def test_criterion_07_sic_per_user_telescoping():
    rng = np.random.default_rng(23)
    worst = 0.0
    for _ in range(100):
        s = int(rng.integers(1, 3))
        m = int(rng.integers(2, 7))
        k = int(rng.integers(1, 5))
        channels = random_channels(rng, s, m, k)
        cfg = ImpairedLinkConfig(rng.uniform(0.2, 2.0, size=(s, k)), 0.0, 0.3)
        order = rng.permutation(k)
        per_user = ul_sic_per_user_rates(channels, cfg, decode_order=order)
        total = ul_sic_sum_rate(channels, cfg).sum_rate
        worst = max(worst, abs(per_user.sum() - total) / max(total, 1e-12))
    report(7, worst <= 1e-9, f"max relative telescoping error over 100 instances: {worst:.2e}")


def test_criterion_08_pso_contract():
    lam = 0.1
    regions = make_move_regions(2, 2, 1.0)
    centers = np.array([[r.center_y, r.center_z] for r in regions])

    def quadratic(layout):
        return -float(np.sum((layout.positions[:, 1:] - centers) ** 2))

    monotone = True
    trace = pso_optimize(
        quadratic, regions, lam, PsoConfig(particle_count=40, max_iterations=100, seed=8)
    )
    monotone &= bool(np.all(np.diff(trace.best_values) >= 0))
    quad_err = float(np.max(np.abs(trace.best_layout.positions[:, 1:] - centers)))

    scen = ExperimentSpec().scenario()
    rng = np.random.default_rng(29)
    paths = [synthesize_paths(rng, scen, p) for p in sample_user_positions(rng, scen, 4)]
    cfg = ImpairedLinkConfig.uniform(4, 1, 1.5e-5, 0.02, 5.97e-17)
    objective = objective_adapter("ul-sic", paths, OfdmGrid(1, 15e3), cfg)
    seed_layout = make_staggered_ura(2, 2, scen.wavelength)
    seed_value = objective(seed_layout)
    ma_regions = make_move_regions(2, 2, 5 * scen.wavelength)
    never_below = True
    for seed in range(3):
        t = pso_optimize(
            objective,
            ma_regions,
            scen.wavelength,
            PsoConfig(particle_count=15, max_iterations=10, seed=seed),
            seed_layouts=[seed_layout],
        )
        monotone &= bool(np.all(np.diff(t.best_values) >= 0))
        never_below &= t.best_objective >= seed_value - 1e-12
    ok = monotone and quad_err <= 1e-3 * 1.0 and never_below
    report(
        8,
        ok,
        f"quadratic optimum error {quad_err:.2e} (limit 1e-3), monotone={monotone}, "
        f"seeded runs never below seed={never_below}",
    )


@pytest.fixture(scope="module")
def desk_scale_los_campaign():
    spec = ExperimentSpec(
        subcarrier_counts=(1,),
        evms=(0.02,),
        user_counts=(10,),
        realizations=20,
        pso_particles=50,
        pso_iterations=30,
        rate_schemes=("ul-sic",),
        array_schemes=(
            "movable",
            "zero-interference",
            "compact-upa",
            "sparse-upa",
            "staggered-ura",
        ),
        master_seed=1,
    )
    result = run_campaign(spec)
    agg = aggregate(result.rows)
    return {s["array_scheme"]: s["mean_sum_rate"] for s in agg["series"]}


def test_criterion_09_los_benchmark_reproduction(desk_scale_los_campaign):
    means = desk_scale_los_campaign
    bound = means["zero-interference"]
    ma_ratio = means["movable"] / bound
    compact_ratio = means["compact-upa"] / bound
    ordering = means["movable"] >= means["staggered-ura"] >= means["compact-upa"]
    ok = ma_ratio >= 0.90 and 0.45 <= compact_ratio <= 0.75 and ordering
    report(
        9,
        ok,
        f"movable at {ma_ratio:.1%} of bound (need >= 90%), compact at {compact_ratio:.1%} "
        f"(need 45%..75%), ordering movable >= staggered >= compact: {ordering}",
    )


def test_criterion_10_evm_convergence_to_common_ceiling():
    spec = ExperimentSpec(
        subcarrier_counts=(10,),
        evms=(0.5,),
        user_counts=(4,),
        realizations=5,
        pso_particles=20,
        pso_iterations=10,
        rate_schemes=("ul-sic",),
        array_schemes=("movable", "compact-upa", "sparse-upa", "staggered-ura"),
        ul_psd_mw_per_mhz=100.0,  # deep in the distortion-limited regime
        master_seed=3,
    )
    result = run_campaign(spec)
    agg = aggregate(result.rows)
    means = {s["array_scheme"]: s["mean_sum_rate"] for s in agg["series"]}
    values = np.array(list(means.values()))
    spread = values.max() / values.min() - 1.0
    ceiling = high_snr_ceiling(4, 0.5)
    ok = spread <= 0.10 and values.max() < ceiling
    report(
        10,
        ok,
        f"array means {sorted(round(float(v), 3) for v in values)} within {spread:.1%} of "
        f"each other, all below ceiling {ceiling:.1f}",
    )


def test_criterion_11_user_load_trend():
    spec = ExperimentSpec(
        subcarrier_counts=(1,),
        evms=(0.02,),
        user_counts=(2, 12),
        realizations=20,
        pso_particles=50,
        pso_iterations=30,
        rate_schemes=("ul-lin",),
        array_schemes=("movable", "compact-upa"),
        master_seed=5,
    )
    result = run_campaign(spec)
    agg = aggregate(result.rows)
    means = {(s["array_scheme"], s["users"]): s["mean_sum_rate"] for s in agg["series"]}
    gain_light = means[("movable", 2)] / means[("compact-upa", 2)]
    gain_heavy = means[("movable", 12)] / means[("compact-upa", 12)]
    ok = gain_heavy > gain_light
    report(
        11,
        ok,
        f"movable/compact gain at K=12 is {gain_heavy:.3f} vs {gain_light:.3f} at K=2",
    )


def test_criterion_12_campaign_determinism(tmp_path):
    spec = ExperimentSpec(
        m_rows=2,
        m_cols=2,
        user_counts=(3,),
        subcarrier_counts=(1, 4),
        evms=(0.02,),
        realizations=3,
        pso_particles=8,
        pso_iterations=4,
        rate_schemes=("ul-lin", "ul-sic"),
        master_seed=12,
    )
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    write_campaign_outputs(run_campaign(spec), out_a)
    write_campaign_outputs(run_campaign(spec, workers=2), out_b)
    identical = all(
        (out_a / name).read_bytes() == (out_b / name).read_bytes()
        for name in ("results.csv", "user_rates.csv", "summary.json")
    )
    report(12, identical, "rerun (serial vs parallel) produced byte-identical result tables")
