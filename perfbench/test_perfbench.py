"""Tests of the benchmark itself.

Run from the repository root:  python3 -m pytest perfbench -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checkout

checkout.use_checkout_sources()

import run  # noqa: E402
import tracing  # noqa: E402
from sprinkle import augment as augment_mod  # noqa: E402
from sprinkle.checkers import PropertyVerdict  # noqa: E402
from sprinkle.core import Graph  # noqa: E402
from sprinkle.harness import sweep as sweep_mod  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCHMARK = json.loads((checkout.ROOT / "BENCHMARK.json").read_text())
HELD_OUT_SEED = 90017

# small enough for a test, large enough that every gate still holds
TINY = {
    "thm5-diam2": dict(n=24, trials=3),
    "thm6-kconn": dict(n=40, trials=2),
    "thm2-clique": dict(n=24, trials=3),
    "thm4-bern-diam3": dict(n=40, trials=3),
}


def tiny(name):
    return dataclasses.replace(WORKLOADS[name], **TINY[name])


def test_benchmark_json_names_the_workloads_and_metrics():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert all(w["why"] == WORKLOADS[w["name"]].why for w in BENCHMARK["workloads"])
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER_UNITS


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_named_metric_is_emitted_at_tiny_size(name, tmp_path):
    wl = tiny(name)
    plain, _ = run.run_workload(wl, wl.default_seed, 0, trace=False)
    traced, _ = run.run_workload(wl, wl.default_seed, 0, trace=True,
                                 spans_path=tmp_path / "spans.json")
    for doc, section in ((plain, "end_to_end"), (traced, "per_layer")):
        assert doc["correct"], doc
        assert doc["attempted"] >= 1 and doc["failed"] == 0
        assert {k: v["unit"] for k, v in doc["metrics"].items()} == {
            m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert plain["metrics"]["sweep_s"]["value"] > 0
    spans = json.loads((tmp_path / "spans.json").read_text())
    assert {"harness", "threshold", "generators", "augment"} <= {s["name"] for s in spans}


@pytest.mark.parametrize("seed_kind", ["default", "held-out"])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_gates_hold_at_full_size(name, seed_kind):
    wl = WORKLOADS[name]
    cfg = wl.config(wl.default_seed if seed_kind == "default" else HELD_OUT_SEED, 0)
    res, est, _ = run.sweep_once(cfg)
    assert wl.gate(cfg, res, est) == []


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_gates_fire_when_the_property_never_holds(name, monkeypatch):
    wl = tiny(name)
    cfg = wl.config(wl.default_seed, 0)
    prop = cfg.property["name"]
    direction = sweep_mod.PROPERTIES[prop][1]
    monkeypatch.setitem(sweep_mod.PROPERTIES, prop, (lambda g, p: False, direction))
    res, est, _ = run.sweep_once(cfg)
    assert wl.gate(cfg, res, est)


def test_always_true_k_connected_trips_pigeonhole_gate(monkeypatch, capsys):
    monkeypatch.setitem(sweep_mod.PROPERTIES, "k_connected", (lambda g, p: True, +1))
    assert run.main(["--workload", "thm6-kconn", "--seconds", "0"]) == 1
    out = capsys.readouterr().out
    assert "pigeonhole: 1 successes at m=3" in out
    assert json.loads(out.splitlines()[-1])["correct"] is False


def test_tracer_restores_every_entry_point():
    before = (dict(sweep_mod.GENERATORS), dict(sweep_mod.PROPERTIES),
              sweep_mod.augment_uniform, sweep_mod.is_k_connected,
              augment_mod.non_edges, Graph.with_edges)
    tracer = tracing.Tracer()
    with tracer.installed():
        assert Graph.with_edges is not before[-1]
        Graph(3, [(0, 1)]).with_edges([(1, 2)])
    after = (dict(sweep_mod.GENERATORS), dict(sweep_mod.PROPERTIES),
             sweep_mod.augment_uniform, sweep_mod.is_k_connected,
             augment_mod.non_edges, Graph.with_edges)
    assert after == before
    assert tracer.self_times()["core.with_edges"][0] == 1


def test_witness_checks_reject_bad_witnesses():
    path = Graph(4, [(0, 1), (1, 2), (2, 3)])
    err = tracing.witness_error
    assert err("contains_kr", path, 2, PropertyVerdict(True, (1, 2))) is None
    assert err("contains_kr", path, 3, PropertyVerdict(True, (0, 1, 2)))
    assert err("diameter_at_most", path, 2, PropertyVerdict(False, (0, 3))) is None
    assert err("diameter_at_most", path, 2, PropertyVerdict(False, (0, 2)))
    assert err("is_k_connected", path, 2, PropertyVerdict(False, frozenset({1}))) is None
    assert err("is_k_connected", path, 2, PropertyVerdict(False, frozenset({0})))
    assert err("is_k_connected", path, 2, PropertyVerdict(False, frozenset({1, 2})))
    assert err("is_k_connected", path, 1, PropertyVerdict(True)) is None


def test_exits_nonzero_without_a_result_when_sources_are_missing(tmp_path):
    shutil.copy(checkout.ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "perfbench").mkdir()
    for f in Path(run.__file__).parent.glob("*.py"):
        shutil.copy(f, tmp_path / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "thm5-diam2",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
