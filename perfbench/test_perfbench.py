"""Tests of the benchmark itself: seeds, printed names, goldens, tracer.

Run from the repository root:  python3 -m pytest perfbench
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from amsdetect import bench, cli, cluster, earlydetect, inject  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def test_seed_changes_generated_inputs(tmp_path):
    a = workloads.FitSweep(0, tmp_path)
    b = workloads.FitSweep(1, tmp_path)
    again = workloads.FitSweep(workloads.GOLDEN_SEEDS, tmp_path)
    assert not (a.mat == b.mat).all()
    assert not all((a.subsets[n] == b.subsets[n]).all() for n in a.SIZES[:-1])
    assert (a.mat == again.mat).all()
    assert {c.seed for c in workloads.SuiteFull(3, tmp_path).configs} == {3}
    assert workloads.WindowedDetect(5, tmp_path).config.seed == 5
    argv = [c[1] for c in workloads.CliFiles(0, tmp_path).commands]
    assert argv != [c[1] for c in workloads.CliFiles(1, tmp_path).commands]


def test_benchmark_json_names_and_units():
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in SPEC[key]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert all(UNIT.fullmatch(m["unit"]) for key in ("end_to_end", "per_layer")
               for m in SPEC[key])
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert set(w["name"] for w in SPEC["workloads"]) == set(workloads.WORKLOADS)


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_names_carry_units(trace, key):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "cli_files",
         "--seed", "0", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    result = _last_json(proc.stdout)
    assert list(result) == ["correct", "attempted", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[key]}
    assert list(result["metrics"]) == list(expected)
    for name, metric in result["metrics"].items():
        assert NAME.fullmatch(name)
        assert metric["unit"] == expected[name]
        assert isinstance(metric["value"], (int, float))
        assert not isinstance(metric["value"], bool)


def test_corrupted_golden_counts_as_failure(tmp_path):
    w = workloads.CliFiles(0, tmp_path)
    golden = run.load_golden(w.name, w.seed)
    good = run.Runner(w, golden)
    good.one_pass()
    assert good.attempted == w.items and good.failed == 0

    corrupt = dict(golden, fit="0" * 64)
    bad = run.Runner(w, corrupt)
    bad.one_pass()
    assert bad.failed == 1 and bad.failed / bad.attempted > 0


def test_no_wrapper_survives_and_self_times_add_up():
    originals = (bench.simulate_vref, inject.vref_output_block,
                 earlydetect.assign_many, cli.main)
    tr = tracer.Tracer()
    tr.install()
    try:
        for call_site in (bench.simulate_vref, inject.vref_output_block,
                          earlydetect.assign_many, cli.main):
            assert hasattr(call_site, tracer.MARK)
        mat = [[0.0], [0.1], [0.9], [1.0]]

        def work():
            model = cluster.fit_kmeans(mat, seed=0)
            return earlydetect.detect_windowed(model, mat, 10, 1e-6)

        _, first = tr.run_pass(work)
    finally:
        tr.uninstall()
    assert tracer.surviving_wrappers() == []
    assert (bench.simulate_vref, inject.vref_output_block,
            earlydetect.assign_many, cli.main) == originals

    names = {s[0] for s in tr.spans}
    assert {"cluster.fit_kmeans", "earlydetect.detect_windowed",
            "cluster.assign_many"} <= names
    assert tracer.nesting_errors(tr.spans, first, len(tr.spans)) == []
    root = tr.spans[first]
    total = sum(tracer.self_times(tr.spans, first).values())
    assert total == pytest.approx(root[3] - root[2], rel=1e-9)


def test_nesting_errors_catch_a_broken_span_tree():
    good = [("harness", None, 0.0, 10.0, None),
            ("a", 0, 1.0, 4.0, None),
            ("b", 1, 2.0, 3.0, None),
            ("c", 0, 5.0, 9.0, None)]
    assert tracer.nesting_errors(good, 0, 4) == []
    assert tracer.nesting_errors(good, 1, 3)            # root with a parent
    outside = good[:3] + [("c", 0, 5.0, 11.0, None)]
    overlap = good[:3] + [("c", 0, 3.5, 9.0, None)]
    foreign = good[:3] + [("c", 7, 5.0, 9.0, None)]
    unclosed = good[:3] + [None]
    for spans in (outside, overlap, foreign, unclosed):
        assert len(tracer.nesting_errors(spans, 0, 4)) == 1


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "suite_full",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
