"""Tests of the benchmark's own logic: span arithmetic, wrapper restoration,
output checks, workload generation and the metric list in BENCHMARK.json."""

import functools
import importlib
import json
import math
import sys
from pathlib import Path

import pytest

import checks
import run
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))


def synthetic(events):
    """Tracer fed from a script of ("open", name, time, detail) / ("close", time)."""
    times = iter(t for ev in events for t in ([ev[2]] if ev[0] == "open" else [ev[1]]))
    tracer = spans.Tracer(clock=lambda: next(times))
    stack = []
    for ev in events:
        if ev[0] == "open":
            stack.append(tracer.open(ev[1], ev[3] if len(ev) > 3 else None))
        else:
            tracer.close(stack.pop())
    return tracer


def test_self_time_of_nested_spans():
    tracer = synthetic([
        ("open", "root", 0.0), ("open", "a", 1.0), ("open", "leaf", 2.0),
        ("close", 3.0), ("close", 4.0), ("open", "b", 5.0), ("close", 9.0),
        ("close", 10.0),
    ])
    assert list(tracer.parent) == [-1, 0, 1, 0]
    assert tracer.durations() == [10.0, 3.0, 1.0, 4.0]
    assert tracer.self_times() == [3.0, 2.0, 1.0, 4.0]


def test_unattributed_share_counts_time_outside_layer_spans():
    tracer = synthetic([
        ("open", "cli.run", 0.0), ("open", "cli.energy_T0", 0.5),
        ("open", "casimir.log_det_integrand", 1.0),
        ("open", "numpy.linalg.slogdet", 2.0, 10), ("close", 3.0),
        ("close", 4.0),
        ("open", "casimir.log_det_integrand", 5.0), ("close", 8.0),
        ("close", 9.5), ("close", 10.0),
        ("open", "cli.run", 20.0), ("open", "classical.metropolis_run", 21.0, 1000),
        ("close", 29.0), ("close", 30.0),
    ])
    assert spans.op_breakdown(tracer) == [(10.0, 0.4), (10.0, 0.2)]
    m = spans.layer_metrics(tracer)
    assert m["casimir.integrand_calls"] == 2
    assert m["casimir.integrand_s"] == 6.0
    assert m["linalg.slogdet_flops"] == 2 * 10**3 // 3
    assert m["classical.step_us"] == pytest.approx(8e3)
    assert m["cli.overhead_s"] == pytest.approx((10.0 - 9.0) + (10.0 - 8.0))


def test_first_translation_at_each_l_max_is_cold():
    tracer = synthetic([
        ("open", "casimir.translation_matrix", 0.0, 8), ("close", 2.0),
        ("open", "casimir.translation_matrix", 3.0, 8), ("close", 3.5),
        ("open", "stability.translation_gradient", 4.0, (6, 12)), ("close", 5.0),
        ("open", "stability.translation_matrix", 6.0, 8), ("close", 6.25),
    ])
    m = spans.layer_metrics(tracer)
    assert m["translation.first_call_s"] == 2.0 + 1.0
    assert m["translation.matrix_calls"] == 3
    assert m["translation.matrix_warm_ms"] == pytest.approx(375.0)
    dim8, dim6 = 2 * (81 - 1), 2 * (49 - 1)
    assert m["translation.entries_built"] == 3 * dim8**2 + 12 * dim6**2


def test_wrappers_are_restored_after_a_traced_run(tmp_path):
    from casimir_stability import cli

    originals = {
        (module, attr): getattr(importlib.import_module(module), attr)
        for module, attr, _, _ in spans.CALL_SITES
    }
    config = tmp_path / "pair.yaml"
    config.write_text(json.dumps({
        "objects": [
            {"label": "a", "center": [0, 0, 0], "radius": 0.25, "eps": {"type": "pec"}},
            {"label": "b", "center": [0, 0, 1.5], "radius": 0.25, "eps": {"type": "pec"}},
        ],
        "l_max": 2,
    }))
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert cli.run(["energy", str(config), "--output", str(tmp_path / "e.csv")]) == 0
    finally:
        tracer.restore()
    names = {tracer.span_name(i) for i in range(len(tracer))}
    assert {"cli.run", "cli.energy_T0", "casimir.translation_matrix",
            "numpy.linalg.slogdet"} <= names
    for (module, attr), original in originals.items():
        assert getattr(importlib.import_module(module), attr) is original
    assert checks.check_output(tmp_path / "e.csv",
                               functools.partial(checks.check_energy, tol=1e-6)) == []


STABILITY_CSV = (
    "# length_unit: 1 (hbar = c = 1)\n"
    "object,fx,fy,fz,laplacian,term1,term2,term3,predicted_sign_product,h_used,est_error\n"
    "a,0,0,0.000589,-0.0011276,-0.00017843,-0.00094858,-5.7e-07,1,0.002,1e-09\n"
)


@pytest.mark.parametrize("corrupt", [
    lambda s: s.replace("-0.0011276,", "0.0011276,"),      # positive Laplacian
    lambda s: s.replace("-0.00094858", "-0.0011"),         # identity off by >1%
    lambda s: s.replace("0,0,0.000589", "0,0,-0.000589"),  # repulsive
    lambda s: s.replace("-5.7e-07", "5.7e-07"),            # -term3 < 0
    lambda s: s.replace("-0.0011276", "nan"),
    lambda s: s.replace("laplacian,", "lap,"),
    lambda s: s.split("\n", 1)[1],                         # no unit comment
    lambda s: s.rsplit("\n", 2)[0] + "\n",                 # header only
])
def test_stability_check_rejects_corrupted_csv(tmp_path, corrupt):
    check = functools.partial(checks.check_stability, toward=(0.0, 0.0, 1.0))
    good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
    good.write_text(STABILITY_CSV)
    bad.write_text(corrupt(STABILITY_CSV))
    assert checks.check_output(good, check) == []
    assert checks.check_output(bad, check) != []


def test_other_checks_reject_wrong_values(tmp_path):
    def problems(text, check):
        path = tmp_path / "x.csv"
        path.write_text("# length_unit: 1\n" + text)
        return checks.check_output(path, check)

    energy = functools.partial(checks.check_energy, tol=1e-6)
    head = "tau,energy,l_max,nodes,est_rel_error,kappa_floor_used\n"
    assert problems(head + "0,-1e-4,8,48,1e-9,0\n", energy) == []
    assert problems(head + "0,-1e-4,8,48,1e-5,0\n", energy)
    assert problems(head + "0,1e-4,8,48,1e-9,0\n", energy)
    sweep = functools.partial(checks.check_sweep, n_points=3)
    assert problems("displacement,energy\n0.5,-3\n1,-2\n1.5,-1\n", sweep) == []
    assert problems("displacement,energy\n0.5,-3\n1,-1\n1.5,-2\n", sweep)
    assert problems("displacement,energy\n0.5,-3\n1,-2\n", sweep)
    mc = functools.partial(checks.check_mc, reference=-1e-3)
    head = "label,mean,stderr,n_samples,autocorrelation_time,acceptance_rate,seed\n"
    assert problems(head + "a,-1.01e-3,1e-5,10,1,0.4,0\n", mc) == []
    assert problems(head + "a,-1.2e-3,1e-5,10,1,0.4,0\n", mc)
    assert problems("gap,tau,energy_per_area\n1,0.1,0.5\n", checks.check_plates)
    assert checks.check_output(tmp_path / "missing.csv", checks.check_plates)


def test_workloads_are_seeded_and_keep_their_shape():
    def inputs(ops):
        return [(op.command, op.config, op.args) for op in ops]

    for name, make in workloads.WORKLOADS.items():
        assert inputs(make(7)) == inputs(make(7)), name
    a, b = workloads.pair_axial(1), workloads.pair_axial(2)
    assert [op.command for op in a] == ["energy", "sweep", "stability"]
    assert a[0].config != b[0].config
    for op in a:
        assert all(o["center"][:2] == [0.0, 0.0] for o in op.config["objects"])
    for seed in range(5):
        centers = [o["center"] for o in workloads.triple_general(seed)[0].config["objects"]]
        u = [q - p for p, q in zip(centers[0], centers[1])]
        v = [q - p for p, q in zip(centers[0], centers[2])]
        cross = [u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2],
                 u[0] * v[1] - u[1] * v[0]]
        assert math.hypot(*cross) > 1.0
        pair = workloads.thermal_matsubara(seed)[0].config["objects"]
        assert math.dist(pair[0]["center"], pair[1]["center"]) == pytest.approx(1.5)
    assert workloads.classical_mc(3)[0].args == ("--seed", "3")


def test_op_times_are_scaled_by_the_reference_timings_around_them():
    result = {"op_s": [2.0, 1.0], "reference_s": [0.1, 0.3, 0.2]}
    scale = run.REFERENCE_S
    assert run.scaled_ops(result) == pytest.approx([2.0 * scale / 0.2, 1.0 * scale / 0.25])


def test_benchmark_json_names_what_the_benchmark_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    filled_by_run = {"classical.acceptance_rate", "trace.overhead_s",
                     "trace.unattributed_share", "trace.unattributed_share_max"}
    assert set(spans.layer_metrics(spans.Tracer())) == set(run.PER_LAYER) - filled_by_run
