"""Tests of the benchmark's own arithmetic and references.

    python3 -m pytest perfbench -q
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from conclab import discrete, tensor  # noqa: E402


@pytest.mark.parametrize("n", [11, 12, 30, 57, 100, 1000])
def test_tail_percentile_leaves_ten_beyond(n):
    values = list(np.random.default_rng(n).permutation(n) * 0.01)
    value, pct, pos = harness.tail_percentile(values)
    assert values[pos] == value
    assert sum(v > value for v in values) == 10
    assert pct == pytest.approx(100.0 * (n - 10) / n)


def test_tail_percentile_needs_more_than_ten_samples():
    with pytest.raises(ValueError):
        harness.tail_percentile([1.0] * 10)


def test_lower_median_is_an_observed_value():
    assert harness.lower_median([3.0, 1.0, 4.0, 2.0]) == (2.0, 3)


def test_job_times_are_scaled_by_the_probes_around_them():
    probes = iter([0.005, 0.0025, 0.00125])
    jobs = [harness.Job("a", lambda: None, lambda out: ([], {}))]
    first, second = harness.run_jobs(jobs, 0.0, 2, probe=lambda: next(probes))
    assert first.scaled_s == pytest.approx(first.seconds * 0.0025 / 0.00375)
    assert second.scaled_s == pytest.approx(second.seconds * 0.0025 / 0.001875)


def test_self_time_on_nested_spans():
    # outer [0, 10] calls inner [1, 3] and inner [4, 5]; inner [1, 3] calls leaf [2, 2.5]
    ticks = iter([0.0, 1.0, 2.0, 2.5, 3.0, 4.0, 5.0, 10.0])
    tracer = harness.Tracer(clock=lambda: next(ticks))
    leaf = tracer.wrap("b.leaf", lambda: None)
    calls = iter([True, False])

    def inner_body():
        if next(calls):
            leaf()

    inner = tracer.wrap("a.inner", inner_body)
    outer = tracer.wrap("a.outer", lambda: (inner(), inner()))
    tracer.active = True
    outer()
    assert tracer.spans[(None, "a.outer")] == [1, 10.0, 7.0]
    assert tracer.spans[("a.outer", "a.inner")] == [2, 3.0, 2.5]
    assert tracer.spans[("a.inner", "b.leaf")] == [1, 0.5, 0.5]
    assert sum(self_s for _, self_s in tracer.totals().values()) == 10.0


def test_spectral_gap_reference_is_one_on_uniform_cubes():
    for n in (1, 4):
        assert workloads.spectral_gap_reference(discrete.uniform_cube(n)) == pytest.approx(
            1.0, abs=1e-12
        )


def test_nonnegative_op_norm_matches_the_grid_oracle():
    rng = np.random.default_rng(3)
    T = tensor.SymTensor(3, 4, np.abs(rng.standard_normal((4, 4, 4))))
    ref = workloads.nonnegative_op_norm(T.array, np.random.default_rng(0))
    assert ref == pytest.approx(tensor.op_norm_oracle(T, grid_per_angle=24), rel=1e-6)


def test_interdependence_and_min_conditional_match_the_library():
    rng = np.random.default_rng(5)
    edges = [(0, 1, 0.3), (1, 2, -0.2), (2, 3, 0.25), (0, 3, 0.1)]
    space = discrete.ising_space(4, edges, fields=rng.uniform(-0.3, 0.3, 4))
    profile = discrete.dependence_profile(space)
    assert np.abs(workloads.interdependence(space.joint) - profile.J).max() <= 1e-12
    assert workloads.min_conditional(space.joint) == pytest.approx(profile.beta_tilde, rel=1e-9)


def _wrapped_functions():
    modules = [sys.modules[f"conclab.{layer}"] for layer in run.LAYERS]
    found = [f"{m.__name__}.{a}" for m in modules for a in m.__all__
             if hasattr(getattr(m, a), "__wrapped__")]
    if hasattr(discrete.d_field, "__wrapped__"):
        found.append("discrete.d_field")
    return found


def test_untraced_run_installs_no_wrappers():
    seen = []

    def probe():
        seen.append(_wrapped_functions())

    jobs = [harness.Job("probe", probe, lambda out: ([], {}))]
    results = run.untraced_run(jobs, 1, 0.0)
    assert len(results) == 1 and seen == [[]]


def test_traced_run_wraps_then_restores():
    seen = []

    def probe():
        seen.append(len(_wrapped_functions()))
        discrete.value_table(np.zeros(2), discrete.uniform_cube(1))

    jobs = [harness.Job("probe", probe, lambda out: ([], {}))]
    tracer, traced, replay = run.traced_run(jobs, 1, 0.0)
    assert seen[0] > 20 and seen[1] == 0
    assert len(traced) == len(replay) == 1
    assert tracer.totals()["discrete.value_table"][0] == 1
    assert _wrapped_functions() == []


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)
    assert sorted(workloads.CYCLES) == sorted(run.WORKLOADS)
