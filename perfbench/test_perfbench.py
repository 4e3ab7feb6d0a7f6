"""Tests of the benchmark itself, on tiny inputs.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


def bench(capsys, *args) -> tuple[dict, str]:
    code = run.main(["--size", "tiny", "--seconds", "0.2", *args])
    out = capsys.readouterr().out
    assert code == 0
    return last_json(out), out


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_end_to_end_metrics_are_emitted_and_checked(capsys, name):
    result, out = bench(capsys, "--workload", name, "--seed", "3", "--trace", "0")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())
    for name_ in [*END_TO_END, "ops_per_s", "run_wall_s", "setup_wall_s",
                  "latency_p50_ms", "latency_tail_ms", "failed_ratio", "machine probe"]:
        assert name_ in out


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_run_reports_every_layer(capsys, name):
    result, out = bench(capsys, "--workload", name, "--seed", "4", "--trace", "1")
    assert result["correct"]
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == PER_LAYER
    covered = metrics["trace.covered_pct"]["value"]
    layer_s = sum(metrics[f"{layer}.self_s"]["value"] for layer in run.LAYER_NAMES)
    family_s = sum(metrics[f"harness.check.{f}_s"]["value"] for f in workloads.FAMILIES)
    if name == "verify":
        # every op is one family's span, so the layers run inside them and
        # run_suite's own code is the families' self time
        assert 0 < layer_s < family_s
    else:
        assert family_s == 0 and layer_s > 0
    assert 0 < covered <= 100
    assert "spans: perfbench/out/trace-" in out


def test_wrong_identify_answer_is_counted_as_failed(capsys, monkeypatch):
    run.import_package()
    import nilorbits.cli
    from nilorbits import LinkPattern

    def wrong(x, g):
        return LinkPattern.borel(g.family, g.l, ())

    wrong_parabolic = lambda x, spec: LinkPattern(spec.group.family, spec.k, spec.blocks, ())
    monkeypatch.setattr(nilorbits.cli, "identify", wrong)
    monkeypatch.setattr(nilorbits.cli, "identify_parabolic", wrong_parabolic)
    code = run.main(["--size", "tiny", "--seconds", "0.2", "--workload", "classify",
                     "--seed", "5", "--trace", "0"])
    out = capsys.readouterr().out
    result = last_json(out)
    assert code == 0
    assert not result["correct"]
    assert 0 < result["failed"] < result["attempted"]   # refusals still pass
    assert "failed_ratio" in out and f"{result['failed']} failed of" in out


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        shutil.copy(path, tmp_path / "perfbench")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "classify",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
    assert "no package source" in proc.stderr


def test_self_time_subtracts_direct_children():
    spans = [("a", 0.0, 10.0, -1), ("b", 1.0, 4.0, 0), ("c", 2.0, 3.0, 1),
             ("b", 5.0, 6.0, 0), ("a", 20.0, 21.0, -1)]
    assert tracing.self_times(spans) == {"a": (2, 7.0), "b": (2, 3.0), "c": (1, 1.0)}
    assert tracing.root_time(spans) == 11.0


def test_tracer_sees_calls_inside_the_package_and_restores_them():
    run.import_package()
    import nilorbits
    import nilorbits.correspondence as corr
    from nilorbits import GroupKind, LinkPattern, Matrix, pattern_to_matrix
    original = corr.lie_member
    tracer = tracing.Tracer()
    tracer.install()
    try:
        g = GroupKind.symplectic(4)
        nilorbits.identify(pattern_to_matrix(LinkPattern.borel(g.family, 2), g), g)
        Matrix.identity(2) @ Matrix.identity(2)
    finally:
        tracer.uninstall()
    assert corr.lie_member is original
    names = [s[0] for s in tracer.spans]
    assert "linalg.lie_member" in names and "correspondence.rank_signature" in names
    identify_idx = names.index("correspondence.identify")
    assert tracer.spans[names.index("linalg.lie_member")][3] == identify_idx
    assert tracer.counters["linalg.matmul.mul_adds"] >= 8


def test_tail_needs_ten_samples_beyond():
    assert run.tail({0: [float(i) for i in range(1, 101)]}) == (90.0, "p90")
    assert run.tail({0: [float(i) for i in range(1, 1001)]}) == (990.0, "p99")
    few = {0: [1.0, 2.0, 9.0], 1: [5.0, 4.0, 6.0]}
    assert run.tail(few) == (5.0, "slowest op's median")


def test_frozen_enumerations_match_independent_counts():
    run.import_package()
    from nilorbits import brute_force_count, count_borel
    frozen = workloads.FROZEN_ENUMERATIONS
    for (short, rank_), (lines, _) in frozen.items():
        if "," not in rank_:
            assert lines == count_borel(workloads.KINDS[short], int(rank_))
    assert frozen[("sp", "1,2")][0] == brute_force_count("symplectic", 2, (1, 2))
    assert frozen[("sp", "2,1")][0] == brute_force_count("symplectic", 2, (2, 1))
