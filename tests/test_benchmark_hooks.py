"""The benchmark's hooks and checker must keep working against the package.

perfbench/tracing.py wraps module globals (for example
`mamimo.campaign.evaluate_rate_scheme`). Code that reaches a layer around
those names would silently zero the benchmark's per-layer metrics, so a
small traced campaign must record a span for each hooked layer.
perfbench/checks.py imports and calls package functions to re-score a
campaign's rows; a workload campaign must pass it. perfbench/make_reference.py
regenerates the committed reference rows through package names; for two
master seeds it must reproduce that reference.
"""
import json
import sys
from pathlib import Path

import pytest
import yaml

import mamimo.cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

TINY = {
    "arrays": {"schemes": ["movable", "zero-interference", "staggered-ura"], "m_rows": 2, "m_cols": 2},
    "campaign": {"realizations": 1, "user_counts": [2], "master_seed": 4},
    "pso": {"particles": 3, "iterations": 1},
    "rates": {"schemes": ["ul-sic", "ul-lin"], "optimize_scheme": "ul-sic"},
}
TINY_DPC = {**TINY, "rates": {"schemes": ["dl-dpc", "dl-lin"], "optimize_scheme": "dl-dpc"}}


def test_traced_campaign_records_every_hooked_layer(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "tracing", raising=False)
    import tracing

    runs = (
        (
            TINY,
            (
                "rates.ul-sic.objective",
                "rates.ul-lin.report",
                "campaign.zero_interference_bound",
                "channels.subcarrier_channels",
                "pso.objective",
            ),
        ),
        (TINY_DPC, ("rates.dl-dpc.objective", "rates.dl-dpc.report", "rates.dl-lin.report")),
    )
    for i, (spec, names) in enumerate(runs):
        config = tmp_path / f"tiny{i}.yaml"
        config.write_text(yaml.safe_dump(spec))
        tracer = tracing.Tracer()
        argv = ["simulate", "-c", str(config), "-o", str(tmp_path / f"out{i}")]
        assert tracer.run(mamimo.cli.main, argv) == 0
        calls, _, _ = tracer.totals()
        for name in names:
            assert calls.get(name, 0) > 0, name


def test_checker_accepts_a_workload_campaign(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "checks", raising=False)
    import checks

    # swarm-narrow covers los-dominant draws, FDD and a cross pair;
    # swarm-wideband-dpc the dl-dpc rows; eval-sweep the rich-scattering draws.
    for workload in ("swarm-narrow", "swarm-wideband-dpc", "eval-sweep"):
        config = PERFBENCH / "workloads" / f"{workload}.yaml"
        out = tmp_path / workload
        argv = ["simulate", "-c", str(config), "--set", "campaign.master_seed=1", "-o", str(out)]
        assert mamimo.cli.main(argv) == 0
        check = checks.CampaignCheck(config, checks.load_reference(workload, config), 1)
        assert check.failed_rows(out) == 0, (workload, check.errors)


def test_reference_regeneration_reproduces_the_committed_reference(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for module in ("make_reference", "checks"):
        monkeypatch.delitem(sys.modules, module, raising=False)
    import checks
    import make_reference

    monkeypatch.setattr(make_reference, "SCRATCH", tmp_path)
    monkeypatch.setattr(make_reference, "POOL", (1, 2))
    ref = make_reference.make_reference("swarm-narrow")
    committed = json.loads((PERFBENCH / "reference" / "swarm-narrow.json").read_text())
    for name in ("config_sha256", "rows_per_campaign", "keys"):
        assert ref[name] == committed[name], name
    # within the tolerance the checker grants each rate scheme
    for seed in ("1", "2"):
        pairs = zip(ref["keys"], ref["values"][seed], committed["values"][seed])
        for key, value, expected in pairs:
            assert value == pytest.approx(expected, rel=checks.RTOL[key[2]]), (seed, key)
