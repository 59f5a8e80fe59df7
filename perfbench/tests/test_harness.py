"""Tests of the benchmark harness itself (not of the system it measures).

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

import pytest

import hostref
import inproc
import run
import service_mixed
from inproc import CorpusStream, Outcome, RegistryCold, corpus_entries
from repro.obs.tracing import Tracer
from stats import TooFewSamples, percentile, samples_beyond

COUNT_METRICS = ("runtime.events", "profiling.dep_events",
                 "profiling.summarized_ratio", "patterns.evidence")


# -- the sample-count rule ----------------------------------------------------

def test_percentile_needs_ten_samples_beyond_it():
    assert samples_beyond(100, 90) == 10
    assert samples_beyond(99, 90) == 9
    with pytest.raises(TooFewSamples):
        percentile(list(range(99)), 90)
    assert percentile(list(range(1, 101)), 90) == 90


def test_p99_needs_a_thousand_samples():
    with pytest.raises(TooFewSamples):
        percentile([1.0] * 999, 99)
    assert percentile(list(range(1, 1001)), 99) == 990


def test_percentile_is_nearest_rank_of_unsorted_input():
    values = [5.0, 1.0, 4.0, 2.0, 3.0] * 40
    assert percentile(values, 50) == 3.0
    assert percentile(values, 90) == 5.0


def test_end_to_end_refuses_a_p90_of_too_few_programs():
    out = {"latencies_ms": [1.0] * 50, "timed": [[0.0, 0.001]] * 50,
           "rounds": [[0.0, 1.0, 1.0, 50]], "peak_rss_mb": 1.0, "accurate": 50,
           "attempted": 50}
    with pytest.raises(TooFewSamples):
        run.end_to_end([[0.0, 1.0]], out, _ref([hostref.NOMINAL_MS] * 3))


# -- counts repeat exactly at one seed ----------------------------------------

def _counts(outcome: Outcome) -> dict:
    return {m["name"]: m["value"] for m in outcome.layers if m["name"] in COUNT_METRICS}


def test_registry_counts_repeat_between_runs():
    first = RegistryCold(3, names=("reg_detect", "bicg")).traced(0, Tracer())
    second = RegistryCold(3, names=("reg_detect", "bicg")).traced(0, Tracer())
    assert first.failed == second.failed == 0
    assert _counts(first) == _counts(second)
    assert _counts(first)["runtime.events"] > 0
    assert first.fingerprint == second.fingerprint


def test_corpus_counts_repeat_between_runs():
    first = CorpusStream(5, count=12).traced(0, Tracer())
    second = CorpusStream(5, count=12).traced(0, Tracer())
    assert first.failed == second.failed == 0
    assert _counts(first) == _counts(second)
    assert first.fingerprint == second.fingerprint


def test_traced_run_reports_every_layer_it_calls():
    tracer = Tracer()
    out = RegistryCold(1, names=("gesummv",)).traced(0, tracer)
    names = {m["name"] for m in out.layers}
    assert {"lang.parse_ms", "profiling.profile_ms", "patterns.detect_ms",
            "sim.simulate_ms", "trace.overhead_pct"} <= names
    assert names <= {name for name, _ in run.LAYER_METRICS}
    # every span's parent is the program span, which has none
    finished = tracer.finished()
    assert {sp.parent_id for sp in finished} == {None, 1}
    assert {sp.attrs["program"] for sp in finished} == {"gesummv#0"}


# -- wrong verdicts surface as failed operations ------------------------------

def test_wrong_expected_label_is_a_failed_program():
    workload = RegistryCold(1, names=("reg_detect",))
    workload.expected["reg_detect"] = "Do-all"
    out = workload.run(0, min_samples=1)
    assert (out.attempted, out.failed, out.accurate) == (1, 1, 0)
    assert "label" in out.errors[0]


def test_registry_run_counts_only_successes_toward_its_samples(monkeypatch):
    import repro.runtime.parallel as parallel

    real = parallel.analyze_one

    def bicg_fails(name, cache_dir=None):
        if name == "bicg":
            raise RuntimeError("boom")
        return real(name, cache_dir)

    monkeypatch.setattr(parallel, "analyze_one", bicg_fails)
    out = RegistryCold(1, names=("reg_detect", "bicg")).run(0, min_samples=3)
    assert (len(out.latencies_ms), out.failed, len(out.rounds)) == (3, 3, 3)


def test_registry_run_that_only_fails_stops_after_max_passes(monkeypatch):
    import repro.runtime.parallel as parallel

    def always_fails(name, cache_dir=None):
        raise RuntimeError("boom")

    monkeypatch.setattr(parallel, "analyze_one", always_fails)
    out = RegistryCold(1, names=("bicg",)).run(0)
    assert (out.latencies_ms, out.failed) == ([], inproc.MAX_PASSES)


def test_failures_are_printed_when_too_few_samples_remain(monkeypatch, capsys):
    out = Outcome(latencies_ms=[1.0] * 20, timed=[[0.0, 0.001]] * 20,
                  rounds=[[0.0, 1.0, 1.0, 20]], attempted=120, failed=100, accurate=20)
    out.fail("bicg: RuntimeError: boom")
    monkeypatch.setattr(run, "run_inproc", lambda *a: ([[0.0, 1.0]], asdict(out), {}))
    status = run.main(["--workload", "registry-cold", "--seed", "1", "--seconds", "1"])
    printed = capsys.readouterr().out
    assert status == 1
    assert "FAILED bicg: RuntimeError: boom" in printed
    assert '"correct"' not in printed


def test_corpus_verdict_that_changes_between_cycles_fails():
    entry = corpus_entries(1, 1)[0]
    out, verdicts = Outcome(), {}
    verdict = dict.fromkeys(entry.truth, False)
    CorpusStream._score(out, entry, verdict, verdicts)
    CorpusStream._score(out, entry, {**verdict, "doall": True}, verdicts)
    assert out.failed == 1


def _verifier() -> service_mixed.Verifier:
    sources = service_mixed.Sources(warm=[], fresh=[[]], generate_ms=0.0, generated=0)
    setup = service_mixed.Setup(daemon=None, sources=sources,
                                kernel_digests={"reg_detect": "abc"},
                                interval=(0.0, 0.0), health_polls=0)
    return service_mixed.Verifier(setup)


def _bench_job(**record) -> service_mixed.Job:
    base = {"id": 1, "state": "done",
            "result": {"name": "reg_detect", "label": "Multi-loop pipeline",
                       "profile_digest": "abc"}}
    return service_mixed.Job(0, "bench", "reg_detect", "c0-1", 0.0, record={**base, **record})


def test_service_checks_label_state_and_refusals():
    verifier, out = _verifier(), Outcome()
    verifier.check(_bench_job(), out)
    assert (out.failed, out.accurate) == (0, 1)
    wrong = {"name": "reg_detect", "label": "Do-all", "profile_digest": "abc"}
    verifier.check(_bench_job(result=wrong), out)
    verifier.check(_bench_job(state="failed", error={"message": "boom"}), out)
    refused = service_mixed.Job(1, "bench", "reg_detect", "c1-1", 0.0,
                                error="ServiceError: HTTP 429")
    verifier.check(refused, out)
    assert (out.attempted, out.failed, out.accurate) == (4, 3, 1)


# -- times are scaled to the nominal host -------------------------------------

def _ref(cpus: list[float]) -> hostref.HostRef:
    """A reference with one sample per second, at t = 0, 1, 2, ..."""
    return hostref.HostRef([float(t) for t in range(len(cpus))], list(cpus))


def test_scale_uses_the_reference_samples_around_the_interval(monkeypatch):
    monkeypatch.setattr(hostref, "MIN_SAMPLES", 2)
    nominal = hostref.NOMINAL_MS
    ref = _ref([nominal] * 30 + [2.0 * nominal] * 30)
    assert ref.scale(10.0, 12.0) == pytest.approx(1.0)
    assert ref.scale(40.0, 41.0) == pytest.approx(0.5)
    # an interval on the edge of the slowdown: samples at 29, 30 and 31
    assert ref.scale(30.0, 30.0) == pytest.approx(0.6)
    # no sample inside: widened to the nearest ones
    assert ref.scale(5.2, 5.4, pad=0.0) == pytest.approx(1.0)


def test_sampler_takes_samples_until_stopped():
    sampler = hostref.Sampler()
    start = time.perf_counter()
    time.sleep(0.3)
    ref = sampler.stop()
    assert sampler.proc.returncode == 0
    assert len(ref.ends) == len(ref.cpus) >= 2
    assert start <= ref.ends[0] <= ref.ends[-1] <= time.perf_counter()


def test_reference_unit_does_fixed_work():
    assert hostref.unit() == hostref.unit()


def test_end_to_end_reports_scaled_times_with_the_measured_ones():
    # measured on a host running at half the nominal speed
    ref = _ref([2.0 * hostref.NOMINAL_MS] * 10)
    out = {"latencies_ms": [2.0] * 100, "timed": [[1.0, 1.002]] * 100,
           "rounds": [[0.0, 2.0, 2.0, 10]], "peak_rss_mb": 1.0, "accurate": 100,
           "attempted": 100}
    got = {m.name: m for m in run.end_to_end([[3.0, 5.0]], out, ref)}
    assert (got["latency_p50_ms"].value, got["latency_p50_ms"].measured) == (1.0, 2.0)
    assert (got["programs_per_s"].value, got["programs_per_s"].measured) == (10.0, 5.0)
    assert got["cpu_ms_per_program"].value == 100.0
    assert (got["setup_s"].value, got["setup_s"].measured) == (1.0, 2.0)
    assert "measured 2.000000" in got["latency_p50_ms"].line()


# -- the seed draws the inputs ------------------------------------------------

def test_seed_draws_the_inputs():
    assert [e.source for e in corpus_entries(1, 8)] == [e.source for e in corpus_entries(1, 8)]
    assert [e.source for e in corpus_entries(1, 8)] != [e.source for e in corpus_entries(2, 8)]
    assert RegistryCold(1)._order() == RegistryCold(1)._order()
    assert RegistryCold(1)._order() != RegistryCold(2)._order()


def test_service_sources_follow_the_seed(monkeypatch):
    monkeypatch.setattr(service_mixed, "FRESH_PER_CLIENT", 4)
    one, again, two = (service_mixed.generate_sources(s) for s in (1, 1, 2))
    fresh = lambda src: [e.source for pool in src.fresh for e in pool]  # noqa: E731
    assert fresh(one) == fresh(again)
    assert fresh(one) != fresh(two)
    digests = [e.source_digest for e in one.warm] + [e.source_digest
                                                     for pool in one.fresh for e in pool]
    assert len(digests) == len(set(digests)) == service_mixed.WARM_POOL + 8


def test_fresh_inputs_never_repeat_a_source_and_data_seed():
    pairs = list(itertools.islice(service_mixed.fresh_inputs(["a", "b", "c"]), 7))
    assert pairs[:4] == [("a", 0), ("b", 0), ("c", 0), ("a", 1)]
    assert len(set(pairs)) == 7


# -- the command line ---------------------------------------------------------

def test_run_refuses_a_tree_without_the_package(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "corpus-stream",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.slow
def test_service_loop_end_to_end(tmp_path, monkeypatch):
    # a tiny fresh pool, so that fresh jobs come round again with new data seeds
    monkeypatch.setattr(service_mixed, "FRESH_PER_CLIENT", 2)
    doc = service_mixed.run_workload(Path(run.ROOT), tmp_path / "svc", 4, 1.0, True,
                                     setup_runs=1)
    out = doc["outcome"]
    assert out.attempted > 0 and out.failed == 0
    assert doc["notes"]["max_data_seed"] > 0
    assert {m["name"] for m in out.layers} == {name for name, _ in run.LAYER_METRICS}
    json.dumps(doc["notes"])


def test_inproc_child_reports_setup_only():
    proc = subprocess.run(
        [sys.executable, str(Path(inproc.__file__)), "registry-cold", "--seed", "1",
         "--seconds", "0", "--setup-only"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert set(json.loads(proc.stdout.splitlines()[-1])) == {"setup_done"}
