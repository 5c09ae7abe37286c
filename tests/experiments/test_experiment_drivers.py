"""Tests for the experiment drivers: every paper artifact runs and has the
right qualitative shape (who wins, rough factors, crossovers)."""

import hashlib
import re

import pytest

from repro.cli import main
from repro.sweep import SweepSpec
from repro.sweep import runner as sweep_runner

from repro.experiments import EXPERIMENTS, get_experiment, list_experiments
from repro.experiments import (
    fig02_arithmetic_intensity,
    fig10_latency_breakdown,
    fig11_roofline,
    fig12_dse,
    fig13_board_latency_energy,
    fig14_dpu_comparison,
    fig15_scheduler_functional,
    fig16_end_to_end,
    fig17_18_temporal,
    batching_sweep,
    frontier_autoscale,
    frontier_predictive,
    headline,
    load_sweep,
    resilience_frontier,
    tab01_bandwidth,
    tab02_resources,
    tab03_buffer_config,
    tab04_reuse,
    tab05_table_size,
    tab06_lookup_time,
)


class TestRegistry:
    def test_all_twenty_one_experiments_registered(self):
        assert len(EXPERIMENTS) == 21
        assert "frontier_autoscale" in EXPERIMENTS
        assert "frontier_predictive" in EXPERIMENTS
        assert "batching_sweep" in EXPERIMENTS
        assert "resilience_frontier" in EXPERIMENTS

    def test_get_experiment(self):
        assert get_experiment("fig10").experiment_id == "fig10"
        with pytest.raises(KeyError):
            get_experiment("fig99")

    def test_list_sorted(self):
        assert list_experiments() == sorted(EXPERIMENTS)


class TestFigureShapes:
    def test_fig02_intensity_shape(self):
        result = fig02_arithmetic_intensity.run()
        # ResNet50's later layers have markedly lower intensity than its early
        # layers, and both networks contain memory-bound layers (below ridge).
        _, resnet_values = result.series["ofa_resnet50"]
        half = len(resnet_values) // 2
        assert sum(resnet_values[half:]) / (len(resnet_values) - half) < sum(
            resnet_values[:half]
        ) / half
        for name, (_, values) in result.series.items():
            assert min(values) < result.ridge_point
        assert result.memory_bound_fraction["ofa_mobilenetv3"] > 0.1
        assert "Fig. 2" in fig02_arithmetic_intensity.report(result)

    @pytest.mark.parametrize("name,low,high", [("ofa_resnet50", 3.0, 25.0), ("ofa_mobilenetv3", 3.0, 30.0)])
    def test_fig10_reduction_in_band(self, name, low, high):
        result = fig10_latency_breakdown.run(name)
        lo, hi = result.reduction_range_percent
        assert low < lo <= hi < high
        # The with-PB bar must have a smaller off-chip weight component.
        for bar in result.bars:
            assert bar.with_pb.offchip_weight_ms < bar.without_pb.offchip_weight_ms

    def test_fig11_sgs_moves_points_right(self):
        result = fig11_roofline.run("ofa_resnet50")
        assert all(g > 1.0 for g in result.intensity_gain)
        assert result.ridge_point == pytest.approx(67.5, rel=1e-3)

    def test_fig12_trends(self):
        result = fig12_dse.run(
            "ofa_mobilenetv3",
            pb_kb_values=(512, 3456),
            bandwidth_values_gbps=(9.6, 38.4),
            macs_per_cycle_values=(6480,),
        )
        by_key = {(p.pb_kb, p.bandwidth_gbps): p.time_save_percent for p in result.points}
        assert by_key[(3456, 9.6)] > by_key[(512, 9.6)]      # bigger PB helps
        assert by_key[(3456, 9.6)] > by_key[(3456, 38.4)]    # lower BW helps relatively

    def test_fig13_speedups_and_energy(self):
        result = fig13_board_latency_energy.run()
        zlo, zhi = result.speedup_range("zcu104", "w/ PB")
        assert 1.2 < zlo <= zhi < 5.0  # paper: 1.87x..3.17x
        # The Alveo loses to the ZCU104 on the smallest SubNet (crossover).
        small = result.rows[0]
        assert small.alveo_ms["w/ PB"] > small.zcu104_ms["w/ PB"] * 0.9
        elo, ehi = result.energy_saving_range_percent()
        assert ehi > 10.0
        for row in result.rows:
            assert row.zcu104_ms["w/ PB"] < row.zcu104_ms["w/o PB"]

    def test_fig14_sushiaccel_wins_geomean(self):
        result = fig14_dpu_comparison.run()
        assert result.geomean_speedup > 1.05
        assert 0 <= result.num_layers_dpu_wins < len(result.layers)

    def test_fig15_constraints_respected(self):
        result = fig15_scheduler_functional.run("ofa_mobilenetv3", num_queries=60)
        assert result.latency_series.satisfied_fraction > 0.9
        assert result.accuracy_series.satisfied_fraction > 0.95

    def test_fig16_sushi_ordering(self):
        result = fig16_end_to_end.run("ofa_mobilenetv3", num_queries=60)
        metrics = {k: v.metrics for k, v in result.results.items()}
        assert metrics["sushi"].mean_latency_ms <= metrics["no_sushi"].mean_latency_ms
        assert result.summary.energy_saving_vs_no_sushi_percent > 0

    def test_fig17_18_best_window_not_extreme(self):
        result = fig17_18_temporal.run("ofa_mobilenetv3", windows=(1, 4, 15), num_queries=60)
        assert result.best_window() in (1, 4, 15)
        assert all(w.metrics.mean_latency_ms > 0 for w in result.windows)

    def test_load_sweep_replicas_help_under_overload(self):
        result = load_sweep.run(
            "ofa_mobilenetv3",
            num_queries=80,
            arrival_rates_per_ms=(0.2, 2.0),
            replica_counts=(1, 2),
            seed=0,
        )
        assert len(result.cells) == 4
        # Offered load halves with twice the replicas on the same trace.
        heavy_1 = result.cell(1, 2.0)
        heavy_2 = result.cell(2, 2.0)
        assert heavy_2.offered_load < heavy_1.offered_load
        # More load can only hurt attainment for a fixed replica count.
        for m in (1, 2):
            curve = result.attainment_curve(m)
            attain = [a for _, a in curve]
            assert all(x >= y - 1e-9 for x, y in zip(attain, attain[1:]))
        assert "Load sweep" in load_sweep.report(result)

    def test_headline_directions(self):
        result = headline.run(num_queries=60)
        assert result.best_latency_improvement() > 0
        assert result.best_energy_saving() > 5.0
        assert result.best_accuracy_improvement() >= 0.0


class TestTableShapes:
    def test_tab01_pb_requirement_at_least_offchip(self):
        result = tab01_bandwidth.run()
        assert result.requirements_bytes_per_cycle["PB"] >= result.off_chip_bytes_per_cycle

    def test_tab02_rows(self):
        result = tab02_resources.run()
        assert len(result.rows) == 5
        assert "Xilinx DPU DPUCZDX8G (zcu104, published)" in result.rows

    def test_tab03_pb_allocation(self):
        result = tab03_buffer_config.run()
        assert result.allocation_kb["with_pb_kb"]["PB"] > 1000

    def test_tab04_sushi_unique(self):
        result = tab04_reuse.run()
        assert result.rows["SUSHI"]["SubGraph Reuse (temporal)"] == "yes"

    def test_tab05_monotone_saturating(self):
        result = tab05_table_size.run(
            "ofa_mobilenetv3", column_counts=(10, 40), num_queries=40
        )
        assert set(result.improvements_percent) == {10, 40}
        # A denser table never costs SUSHI more than half a point.
        assert result.improvements_percent[40] >= result.improvements_percent[10] - 0.5
        assert "Table 5" in tab05_table_size.report(result)

    def test_tab06_lookup_far_below_inference(self):
        result = tab06_lookup_time.run(column_counts=(100, 500), lookups_per_size=50)
        assert result.max_lookup_fraction_of_inference() < 0.05
        assert all(v < 1000 for v in result.lookup_microseconds.values())


class TestReports:
    @pytest.mark.parametrize("eid", ["fig11", "tab01", "tab02", "tab03", "tab04"])
    def test_reports_are_nonempty_text(self, eid):
        exp = get_experiment(eid)
        text = exp.report(exp.run())
        assert isinstance(text, str) and len(text.splitlines()) > 2


# The five serving experiments: sha256 of the default ``report(run())`` text
# and of the ``repro run <id> --json`` artifact.  Captured before the drivers
# became sweep grids; a change here changes a published figure.
SERVING_DIGESTS = {
    "load_sweep": (
        "3ffd09786e68228bb14d3917c97e5b7045c2e2b7f7edbaf4167ac1522829132e",
        "fcf205bc0d36eb00fab11669c55f18b86c3e48f570b8b9cd25d2c842a8d3bf2c",
    ),
    "batching_sweep": (
        "159100dfd95cf1a270c387181633b7cf9251f9562f576fb42be3190b1778db44",
        "71159cee055c0d5f3084f2b315be1925ac1c79660adb5507472056db62b9661e",
    ),
    "frontier_autoscale": (
        "d693887f30e41378ada3cfd6de28725db72a53e6a3dc06411517c6ed607f423e",
        "a4358d75ab38a60840d012f7aa45e67803638013c11de7aea6424ea7a0dd83ff",
    ),
    "frontier_predictive": (
        "5e95f6059ba7ba07ef671c0637c4e6d5b5cab432a4d86809b5ca01f9b3475ba2",
        "3571cf2f9a99a6417e9c5001709c37cfb1fec7c46b5c9b3a2e7fcbd73fd3b822",
    ),
    "resilience_frontier": (
        "13b15310ccc1d5deaacaf6cb74e23844808cefa3189e76ee3ec14345ff4d29b4",
        "6ba7fb2f5bac476ea5873738596175906aae7243b8566962182b8ef794f15170",
    ),
}

# The paper-figure drivers that compare SUSHI with its baselines through
# ``ExperimentRunner``: the same two sha256 per experiment.
RUNNER_DIGESTS = {
    "fig15": (
        "8f02e64779cda0729c6c7f9d8b9c4629314e98b65963017670437e91a4c60055",
        "6dee8bf9cf48151be18f01c32dcded547b5592e74f82deb2641ce2dec39f0fcb",
    ),
    "fig16": (
        "af046498e33825669554293de7d699d0347509c9dc19c1797053be89b663679a",
        "1231129c2414f4a26cd2d6c16464f0b176196bd3b965e002e5b7650c5031f5cc",
    ),
    "fig17_18": (
        "ba83a08dc374c4a285885c177bdc79b483581b23cf60dd17df6bf79001a53f87",
        "086d2da1496687e9e870ac9bc078283a1993ced5b8af0622d3b3cced5d225aee",
    ),
    "headline": (
        "9637b5faafc372ae9e4a9f4451b0ada3407991c57a4572df69c507996eed37cb",
        "605b121fd08a2852bf45dc69f891daee7d02a420469e42cce9185303e3675dd4",
    ),
    "tab05": (
        "d9d82447bc295cb089bb29552d11613d209c571b03253ae6bc30b539dfb949c8",
        "c07e12a16588e601aa7bb0774beb131a0181e1b996196e3f7540914a4b530647",
    ),
}

# The accelerator-model drivers (no serving): the same two sha256 per
# experiment.  tab06 is left out: it times table lookups on the wall clock,
# so two runs of it print different numbers.
MODEL_DIGESTS = {
    "fig02": (
        "f60c15be92ecf4e077df5645b132356fed08cb46f0895bd109ddeec4906fdfd4",
        "09b2f03e2025e37b236e76a8209fe2c1fcc580d45cbe1081e6d0edd8f71f797f",
    ),
    "fig10": (
        "c2e47657817cfac5c58475c3149d5e71c2713969d9e5361ee4f7d7b68b984435",
        "a9ccca2aa40f069c1b6f7646d3fb225cf06b4d097d8f45c022ecc4135422a05f",
    ),
    "fig11": (
        "be4f5738cb9a16ca357f67502bb92be58fc171b53625bf2fe6d000f179a4ba0e",
        "990c7dd000cefb5668965608fde822a6bf1a3a337b4874c250327e5c90968f5f",
    ),
    "fig12": (
        "e2155cd161017c6866efb3996913203fcab3e8f45daa55b12255f42d009fce19",
        "0c2077ddbdbf145eb5cfe574ac2253f60cd250fbb2c2f8b890e23a0fe1a0fe2d",
    ),
    "fig13": (
        "43c5b8148a1feb426a1c3d5f16a3b1cd2d89b63ddf5ea5d62cb8fc5bd285563a",
        "f58cf6c8d9789aa350910791d27268a05614101511ae0d599e1d83d114eab92a",
    ),
    "fig14": (
        "162ed09573dc6d5bd33908853c2b23e4c608a198b567a2dd9831a0a2ac189566",
        "c259f401219da4e92255fe913964a0dda3827d05f5204d40f76b3f677919adfe",
    ),
    "tab01": (
        "381712becd3d625f126aa9e22f82c42859ca94b03c5bf6ea035230307deb8160",
        "1442964f935c8c602b382cbb6c5a6b844bedd48dc1d31ed3124324d5dd904d58",
    ),
    "tab02": (
        "6e96a2c4372327a84c19d4b6496ed2df92ca36bf88a1fe9a61e93cabb78b4126",
        "af8252860fa9b68e1057e12815ff279306856439dc4263651c3f865caae7ccc3",
    ),
    "tab03": (
        "d5bd07e179411609fb9fe364bb33024cbb7f2e3fd29ad1c9ef7e4c18e8bda500",
        "e0e5cd12b837f0ec5f33542625fb9e1143a469467fbbc270fb71b2cb689e6c28",
    ),
    "tab04": (
        "5336fc7cc81b3d75be276e2924d639d660b93c6b7da0a7e4374a65d445ce1e3f",
        "7dbe3427bbe40d1ec5e3ad9c21fa15de35416b01486cb4c0b3162c97f2824a2d",
    ),
}

SERVING_DRIVERS = {
    "load_sweep": load_sweep,
    "batching_sweep": batching_sweep,
    "frontier_autoscale": frontier_autoscale,
    "frontier_predictive": frontier_predictive,
    "resilience_frontier": resilience_frontier,
}

TRACED_DRIVERS = (frontier_autoscale, frontier_predictive, resilience_frontier)


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_digests(eid, tmp_path, capsys):
    """sha256 of ``repro run <eid>``'s report text and of its JSON artifact."""
    path = tmp_path / f"{eid}.json"
    assert main(["run", eid, "--json", str(path)]) == 0
    out = capsys.readouterr().out
    report = out.removesuffix(f"\nwrote {path}\n")
    return sha256(report), sha256(path.read_text())


@pytest.mark.parametrize("eid", sorted(RUNNER_DIGESTS))
def test_runner_report_and_json_artifact_are_pinned(eid, tmp_path, capsys):
    assert run_digests(eid, tmp_path, capsys) == RUNNER_DIGESTS[eid]


@pytest.mark.parametrize("eid", sorted(MODEL_DIGESTS))
def test_model_report_and_json_artifact_are_pinned(eid, tmp_path, capsys):
    assert run_digests(eid, tmp_path, capsys) == MODEL_DIGESTS[eid]


class TestServingGrids:
    @pytest.mark.parametrize("eid", sorted(SERVING_DIGESTS))
    def test_default_report_and_json_artifact_are_pinned(
        self, eid, tmp_path, capsys
    ):
        assert run_digests(eid, tmp_path, capsys) == SERVING_DIGESTS[eid]

    @pytest.mark.parametrize("module", TRACED_DRIVERS, ids=lambda m: m.__name__)
    def test_trace_scenario_is_a_cell_of_the_grid(self, module):
        cells = [spec for _, spec in module.grid().scenarios()]
        assert module.trace_scenario() in cells

    @pytest.mark.parametrize("eid", sorted(SERVING_DRIVERS))
    def test_grid_sweeps_round_trip_through_json(self, eid):
        for sweep in SERVING_DRIVERS[eid].grid().sweeps:
            assert SweepSpec.from_json(sweep.to_json()) == sweep

    @pytest.mark.parametrize("eid", sorted(SERVING_DRIVERS))
    def test_failed_cell_raises_naming_its_label(self, eid, monkeypatch):
        module = SERVING_DRIVERS[eid]
        label, poisoned = module.grid().scenarios()[-1]
        run_cell = sweep_runner._run_with_log

        def failing(spec, log):
            if spec == poisoned:
                raise RuntimeError("injected cell failure")
            return run_cell(spec, log)

        monkeypatch.setattr(sweep_runner, "_run_with_log", failing)
        message = re.escape(f"{label} (RuntimeError: injected cell failure)")
        with pytest.raises(RuntimeError, match=message):
            module.run()

    def test_bar_failure_raises(self):
        # A zero cost bound leaves self-healing no premium at all.
        with pytest.raises(RuntimeError, match="premium unbounded"):
            resilience_frontier.run(cost_bound=0.0)
