"""Benchmark: regenerate Table 5 (latency improvement vs latency-table size)."""

import pytest

from repro.experiments import tab05_table_size as exp
from repro.serving import stack


@pytest.fixture
def cold_tables(monkeypatch):
    """Empties the process's table cache before each round; restores it after."""
    monkeypatch.setattr(stack, "_TABLES", {})
    return stack._TABLES.clear


@pytest.mark.parametrize("supernet", ["ofa_resnet50", "ofa_mobilenetv3"])
def test_bench_tab05_table_size(benchmark, show, cold_tables, supernet):
    # Every round builds its serve tables (|S| up to 100) from cold caches,
    # so the set-up cost is part of what is recorded, not only warm reruns.
    result = benchmark.pedantic(
        exp.run,
        args=(supernet,),
        kwargs={"column_counts": (10, 40, 80, 100), "num_queries": 100},
        setup=cold_tables,
        rounds=3,
    )
    show(exp.report(result))
    assert set(result.improvements_percent) == {10, 40, 80, 100}
