"""The analysis steps of ``analyze_one`` / ``analyze_entry``, rebuilt from
the layers' public functions with a span around each layer call.

The spans go to a :class:`repro.obs.tracing.Tracer` the harness owns and
never activates; each carries its program id as the ``program`` attribute.

A traced run calls :func:`traced_registry` or :func:`traced_corpus` once
per program.  On the verdict path it times, in order:

* ``lang.parse`` — ``parse_program`` + ``validate_program``;
* ``profiling.profile`` — ``profile_runs``;
* ``patterns.detect`` — ``analyze_profile``;
* ``profiling.digest`` — ``profile_digest`` and ``sim.simulate`` —
  ``plan_and_simulate`` (registry programs; corpus scoring needs neither,
  so for corpus programs both run off the path).

Off the path it also times, once per distinct program, ``runtime.exec``
(``run_compiled`` into a :class:`CountingSink` that folds nothing) and
``profiling.stats`` (a ``Profiler`` + ``CompiledEngine`` built here, read
for ``summarization_stats``).  Those two extra executions give the layer
counts; they are not part of the program's path time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.lang.parser import parse_program
from repro.lang.validate import validate_program
from repro.obs.tracing import Tracer
from repro.patterns.engine import analyze_profile
from repro.profiling.profiler import Profiler
from repro.profiling.runner import profile_runs
from repro.profiling.serialize import profile_digest
from repro.runtime.compile import CompiledEngine, run_compiled
from repro.runtime.events import Sink
from repro.sim import plan_and_simulate

import spans
from stats import Metric, median


class CountingSink(Sink):
    """Receives the engine's event batches and only counts them."""

    __slots__ = ("events",)

    def __init__(self) -> None:
        self.events = 0

    def consume_batch(self, events: Sequence[tuple]) -> None:
        self.events += len(events)


@dataclass
class LayerCounts:
    """Deterministic work counts summed over the distinct programs."""

    events: int = 0
    dep_events: int = 0
    summarized_events: int = 0
    evidence: int = 0
    seen: set = field(default_factory=set)


def _count_runs(tracer: Tracer, pid: str, program, entry: str,
                arg_sets: Sequence[Sequence[Any]], counts: LayerCounts) -> None:
    """The two extra executions that count events and dependence work."""
    with tracer.span("runtime.exec", program=pid, on_path=False):
        sink = CountingSink()
        for args in arg_sets:
            run_compiled(program, entry, args, sink=sink)
    counts.events += sink.events
    with tracer.span("profiling.stats", program=pid, on_path=False):
        for args in arg_sets:
            profiler = Profiler()
            CompiledEngine(program, sink=profiler).run(entry, args)
            stats = profiler.summarization_stats()
            counts.dep_events += stats["dep_events"]
            counts.summarized_events += stats["summarized_events"]


def _analyze(tracer: Tracer, pid: str, key: str, source: str, entry: str,
             arg_sets: Sequence[Sequence[Any]], threshold: float, min_pairs: int,
             counts: LayerCounts, on_path: bool):
    """Parse, profile and detect; digest and simulate on or off the path."""
    with tracer.span("lang.parse", program=pid):
        program = parse_program(source)
        validate_program(program)
    with tracer.span("profiling.profile", program=pid):
        profile = profile_runs(program, entry, arg_sets)
    with tracer.span("patterns.detect", program=pid):
        result = analyze_profile(program, profile, hotspot_threshold=threshold,
                                 min_pairs=min_pairs)
    with tracer.span("profiling.digest", program=pid, on_path=on_path):
        digest = profile_digest(profile)
    with tracer.span("sim.simulate", program=pid, on_path=on_path):
        sim = plan_and_simulate(result)
    if key not in counts.seen:
        counts.seen.add(key)
        trace = result.trace
        counts.evidence += len(trace.evidence) if trace is not None else 0
        _count_runs(tracer, pid, program, entry, arg_sets, counts)
    return result, digest, sim


def traced_registry(tracer: Tracer, pid: str, name: str, counts: LayerCounts):
    """``analyze_one(name)`` step by step; returns its ``BenchmarkOutcome``."""
    from repro.bench_programs.registry import get_benchmark
    from repro.patterns.engine import primary_pattern_share, summarize_patterns
    from repro.runtime.parallel import BenchmarkOutcome

    with tracer.span("program", program=pid):
        spec = get_benchmark(name)
        result, digest, sim = _analyze(
            tracer, pid, name, spec.source, spec.entry, spec.arg_sets(),
            spec.hotspot_threshold, spec.min_pairs, counts, on_path=True,
        )
        trace = result.trace
        return BenchmarkOutcome(
            name=spec.name,
            suite=spec.suite,
            loc=spec.loc,
            label=summarize_patterns(result),
            primary_share=primary_pattern_share(result),
            best_speedup=sim.best_speedup,
            best_threads=sim.best_threads,
            pipelines=tuple(
                (p.loop_x, p.loop_y, p.a, p.b, p.efficiency) for p in result.pipelines
            ),
            profile_digest=digest,
            evidence_accepted=len(trace.accepted()) if trace is not None else 0,
            evidence_rejected=len(trace.rejected()) if trace is not None else 0,
        )


def traced_corpus(tracer: Tracer, pid: str, entry, counts: LayerCounts) -> dict[str, bool]:
    """``analyze_entry(entry)`` step by step; returns its predicted patterns."""
    from repro.corpus.score import predicted_patterns
    from repro.profiling.hotspots import DEFAULT_THRESHOLD
    from repro.service.jobs import build_call_args

    with tracer.span("program", program=pid):
        args = build_call_args(entry.arg_specs, seed=0)
        result, _, _ = _analyze(tracer, pid, entry.source_digest, entry.source,
                                entry.entry, [args], DEFAULT_THRESHOLD, 3, counts,
                                on_path=False)
        return predicted_patterns(result)


def layer_metrics(tracer: Tracer, counts: LayerCounts) -> list[Metric]:
    """Per-layer medians per program, plus the summed work counts."""
    finished = tracer.finished()

    def med(name: str) -> Metric:
        values = spans.per_program_ms(finished, name)
        return Metric(f"{name}_ms", median(values) if values else 0.0, "ms", len(values))

    # fold ratio over the program instances that also ran the bare engine
    execs = [sp for sp in finished if sp.name == "runtime.exec"]
    counted = {sp.attrs["program"] for sp in execs}
    profile_s = sum(sp.duration_s for sp in finished
                    if sp.name == "profiling.profile" and sp.attrs["program"] in counted)
    exec_s = sum(sp.duration_s for sp in execs)
    distinct = len(counts.seen)
    return [
        med("lang.parse"),
        med("runtime.exec"),
        Metric("runtime.events", counts.events, "count", distinct),
        med("profiling.profile"),
        Metric("profiling.fold_ratio", profile_s / exec_s if exec_s else 0.0, "ratio",
               len(counted)),
        Metric("profiling.dep_events", counts.dep_events, "count", distinct),
        Metric("profiling.summarized_ratio",
               counts.summarized_events / counts.dep_events if counts.dep_events else 0.0,
               "ratio", distinct),
        med("profiling.digest"),
        med("patterns.detect"),
        Metric("patterns.evidence", counts.evidence, "count", distinct),
        med("sim.simulate"),
    ]


def overhead_metric(tracer: Tracer, untraced_ms: dict[str, float]) -> Metric:
    """Traced path time over untraced time of the same program instances."""
    path = spans.path_ms(tracer.finished())
    both = [p for p in untraced_ms if p in path]
    base = sum(untraced_ms[p] for p in both)
    traced = sum(path[p] for p in both)
    return Metric("trace.overhead_pct", (traced / base - 1.0) * 100.0 if base else 0.0,
                  "%", len(both))
