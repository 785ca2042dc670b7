"""Quick tests of the benchmark itself (outside the tier-1 suite).

    PYTHONPATH=src python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import run
from workloads import WORKLOADS, write_box_files

if str(run.SRC) not in sys.path:
    sys.path.insert(0, str(run.SRC))

import check  # noqa: E402  (after corrbox's path is set)


def one_round(name: str, seed: int, tmp_path) -> tuple[list[run.Record], dict]:
    write_box_files(seed, str(tmp_path))
    first: dict = {}
    records = run.run_commands(WORKLOADS[name].round(seed, 0, str(tmp_path)), first)
    return records, first


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_one_round_of_each_workload_runs_clean(name, tmp_path):
    records, first = one_round(name, 5, tmp_path)
    assert [r.code for r in records] == [0] * len(records)
    assert run.check_records(records, first, 5) == []


@pytest.mark.parametrize("name", ["fuzz-general", "fuzz-hull"])
def test_corrupt_fuzz_counts_failed_commands(name, tmp_path, monkeypatch):
    monkeypatch.setenv(run.CORRUPT_VAR, "1")
    records, first = one_round(name, 5, tmp_path)
    problems = run._environment_problems() + run.check_records(records, first, 5)
    result = run._result(records, problems, {})
    assert result["failed"] == result["attempted"] == len(records)
    assert result["correct"] is False


def test_tampered_cost_fails_cli_reports(tmp_path):
    records, first = one_round("cli-reports", 5, tmp_path)
    target = next(r for r in records if r.command.argv == ("analyze", "pr"))
    obj = json.loads(target.out)
    obj["cost"]["c"] = "1/2"
    target.out = json.dumps(obj, indent=2) + "\n"
    problems = run.check_records(records, first, 5)
    assert any(p.startswith("analyze pr: C is 1/2") for p in problems)


def test_tallies_must_match_recomputation():
    from corrbox.generators import FamilySpec, sample

    argv = ("fuzz", "--family", "oneway_slice", "--seed", "3", "--count", "20")
    code, out, _, _ = run.run_command(run.Command(argv, 20))
    assert code == 0
    obj = json.loads(out)
    obj["per_property"]["OW_BOUND.u_A"]["held"] -= 1
    obj["per_property"]["OW_BOUND.u_A"]["violated"] += 1
    boxes = [b.p for b in sample(FamilySpec("oneway_slice", 3), 20)]
    assert check.check_findings_boxes(argv, out, boxes) == []
    assert check.check_findings_boxes(argv, json.dumps(obj), boxes) != []


def test_checker_tables_match_the_program():
    from corrbox.boxes import enumerate_deterministic
    from corrbox.generators import canonical_det_ids

    for det, (cells, cost, direction) in zip(enumerate_deterministic(), check.STRATEGIES):
        assert tuple(int(x) for x in det.as_box().p) == cells
        assert (det.cost_bits, det.direction.value) == (cost, direction)
    assert sorted(canonical_det_ids()) == sorted(check.CHSH16_IDS)


def test_traced_counts_repeat_and_every_span_is_present(tmp_path):
    from spans import SPANS, Tracer

    commands = WORKLOADS["cli-reports"].round(5, 0, str(tmp_path))
    write_box_files(5, str(tmp_path))
    counts = []
    for _ in range(2):
        tracer = Tracer()
        tracer.install()
        try:
            run.run_commands(commands, {})
        finally:
            tracer.uninstall()
        assert tracer.absent == set()
        metrics = tracer.metrics()
        assert set(metrics) >= {f"{s}.calls" for s in SPANS}
        counts.append({k: v for k, (v, unit) in metrics.items() if unit == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["lp.pivots"] > 0 and counts[0]["lp.reoptimize.calls"] > 0


def test_missing_program_exits_nonzero_without_result(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "fuzz-general", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout


def test_a_missing_name_is_reported_absent(monkeypatch):
    import corrbox.cost
    from spans import Tracer

    monkeypatch.delattr(corrbox.cost, "find_distinct_decompositions")
    tracer = Tracer()
    tracer.install()
    try:
        code, _, _, _ = run.run_command(run.Command(("analyze", "pr"), 1))
    finally:
        tracer.uninstall()
    assert code == 0
    assert tracer.absent == {"cost.find_distinct_decompositions"}
    assert tracer.metrics()["cost.find_distinct_decompositions.calls"] == (0, "count")
