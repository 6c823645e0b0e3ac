"""Tests of the benchmark itself, on the smoke size of each workload.

Run with: python3 -m pytest -q bench
"""

import json
import math
from pathlib import Path

import pytest

import layers
import reference
import run
import workloads

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def brute_digit_sum(n, p):
    total = 0
    while n:
        n, d = divmod(n, p)
        total += d
    return total


def brute_primes(limit):
    return [p for p in range(2, limit + 1) if all(p % d for d in range(2, math.isqrt(p) + 1))]


def test_reference_primes_and_heavy_match_brute_force():
    assert reference.primes_upto(500).tolist() == brute_primes(500)
    ref = reference.Reference(400)
    for n in range(1, 400):
        want = [p for p in brute_primes(n) if brute_digit_sum(n, p) >= p]
        assert ref.heavy(n) == want


def test_exceptional_list_is_every_n_without_a_heavy_prime_above_sqrt():
    ref = reference.Reference(3000)
    found = tuple(n for n in range(1, 3001) if not any(p * p > n for p in ref.heavy(n)))
    assert found == reference.EXCEPTIONAL


def test_reference_profile_matches_known_small_values():
    ref = reference.Reference(10)
    assert [ref.profile(n)["dd"] for n in range(1, 11)] == ["1", "1", "2", "1", "6", "2", "6", "3", "10", "2"]
    assert [ref.profile(n)["db"] for n in range(1, 11)] == ["2", "6", "2", "30", "6", "42", "6", "30", "10", "66"]
    assert ref.profile(5)["in_rad_set"] == "true"


def test_chunk_work_matches_the_scanner_loop():
    primes = reference.primes_upto(5000)
    lo, hi = 3000, 9000
    visited = useful = runs = 0
    for p in primes.tolist():
        if p < max(math.isqrt(lo), 2) or p > (hi + 1) // 2:
            continue
        visited += 1
        a1_min = max(1, -(-(lo + 1) // p) - 1)
        a1_max = min(p - 1, (hi - p) // (p - 1))
        if a1_min <= a1_max:
            useful += 1
            runs += a1_max - a1_min + 1
    assert layers.chunk_work(lo, hi, primes) == (visited, useful, runs)


def test_split_self_times_and_unaccounted_sum_to_wall():
    spans = [
        [0, None, "cli.main", 0.0, 1.0, None],
        [1, 0, "denom.profile", 0.1, 0.9, None],
        [2, 1, "denom.qualifying_primes", 0.2, 0.5, {"n": 9, "found": 2}],
    ]
    metrics, self_s = layers.split([{"wall": 2.0, "spans": spans, "stdout_bytes": 10}])
    assert self_s["cli.main"] == pytest.approx(0.2)
    assert self_s["denom.profile"] == pytest.approx(0.5)
    total = sum(v for k, (v, _) in metrics.items() if k.endswith("_pct") and k != "trace_overhead_pct")
    assert total == pytest.approx(100.0)
    assert metrics["denom.qualifying_primes.primes_tested"][0] == 3  # primes <= lambda(9) = 5


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_come_from_the_seed(tmp_path, workload):
    argv = lambda seed: [r.argv for r in workloads.build(workload, seed, "smoke", str(tmp_path))]
    assert argv(3) == argv(3)
    assert len({str(argv(seed)) for seed in range(3, 13)}) > 1


def test_truncated_checkpoint_keeps_header_and_first_half(tmp_path):
    src, dst = tmp_path / "a", tmp_path / "b"
    src.write_text("H\nr1\nr2\nr3\nr4\n{\"complete\":true}\n")
    workloads._truncate_checkpoint(str(src), str(dst))
    assert dst.read_text() == "H\nr1\nr2\n"


def last_json(capsys):
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_reports_every_end_to_end_metric(capsys, workload):
    assert run.main(["--workload", workload, "--seed", "1", "--seconds", "1", "--size", "smoke"]) == 0
    result = last_json(capsys)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    # a fixed number of passes: attempted follows from the arguments alone
    passes = workloads.pass_count(workload, "smoke", 1)
    requests = len(workloads.build(workload, 1, "smoke", "."))
    assert result["attempted"] == 2 * run.SETUP_REPEATS + passes * requests
    assert list(result["metrics"]) == [m["name"] for m in BENCHMARK["end_to_end"]]
    for m in BENCHMARK["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_traced_run_reports_every_per_layer_metric(capsys, workload):
    assert run.main(["--workload", workload, "--seed", "1", "--seconds", "1", "--size", "smoke", "--trace", "1"]) == 0
    result = last_json(capsys)
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in BENCHMARK["per_layer"]]
    for m in BENCHMARK["per_layer"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert result["metrics"]["cli.main.calls"]["value"] == len(workloads.build(workload, 1, "smoke", "."))


def test_missing_source_tree_fails_without_a_result(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "queries", "--seed", "1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""
