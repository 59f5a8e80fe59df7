"""The profiler's batched fold against its per-event reference path.

``consume_batch`` defers cost accounting: an ``EV_COST`` only grows an open
frame and a per-region ``{line: cost}`` table, and the frame is charged at
iteration boundaries, region transitions and batch end.  The per-event
``Sink`` methods charge every cost eagerly, so driving the same stream both
ways — with the batch split at every possible point — checks the deferral.
"""

import pytest

from repro.bench_programs.registry import all_benchmarks
from repro.profiling import Profiler
from repro.profiling.serialize import profile_digest
from repro.runtime.compile import CompiledEngine
from repro.runtime.events import (
    EV_COST,
    EV_ENTER_FUNC,
    EV_ENTER_LOOP,
    EV_EXIT_FUNC,
    EV_EXIT_LOOP,
    EV_ITER,
    EV_STMT,
)
from repro.runtime.interpreter import Interpreter

# main (region 0) runs a loop (region 1) whose body calls a helper
# (region 2) and runs an inner loop (region 3) that calls the helper again;
# costs fall before, between and after activations.  Iteration events
# follow the engines: one per index, the last before the failing test.
STREAM = [
    (EV_COST, 1, 3),  # before any activation
    (EV_ENTER_FUNC, 0, 1, 1),
    (EV_STMT, 2),
    (EV_COST, 2, 5),
    (EV_STMT, 3),
    (EV_ENTER_LOOP, 1, 2, 3),
    (EV_ITER, 1, 0),
    (EV_STMT, 4),
    (EV_COST, 4, 7),
    (EV_ENTER_FUNC, 2, 3, 4),
    (EV_STMT, 10),
    (EV_COST, 10, 11),
    (EV_EXIT_FUNC, 2, 3),
    (EV_COST, 4, 2),
    (EV_STMT, 5),
    (EV_ENTER_LOOP, 3, 4, 5),
    (EV_ITER, 3, 0),
    (EV_STMT, 6),
    (EV_ENTER_FUNC, 2, 5, 6),
    (EV_COST, 10, 13),
    (EV_EXIT_FUNC, 2, 5),
    (EV_COST, 6, 1),
    (EV_ITER, 3, 1),
    (EV_COST, 6, 4),
    (EV_ITER, 3, 2),
    (EV_COST, 5, 1),
    (EV_EXIT_LOOP, 3, 4, 2),
    (EV_COST, 3, 1),
    (EV_ITER, 1, 1),
    (EV_STMT, 4),
    (EV_COST, 4, 6),
    (EV_ITER, 1, 2),
    (EV_COST, 7, 0),  # a zero charge still creates its table entries
    (EV_ENTER_FUNC, 2, 6, 4),
    (EV_COST, 10, 9),
    (EV_EXIT_FUNC, 2, 6),
    (EV_ITER, 1, 3),
    (EV_COST, 3, 2),
    (EV_EXIT_LOOP, 1, 2, 3),
    (EV_STMT, 8),
    (EV_COST, 8, 4),
    (EV_EXIT_FUNC, 0, 1),
    (EV_COST, 9, 2),  # after every activation has exited
]


def _dispatch(prof, ev):
    """Deliver one event through the per-event ``Sink`` API."""
    tag = ev[0]
    if tag == EV_COST:
        prof.on_cost(ev[1], ev[2])
    elif tag == EV_STMT:
        prof.on_stmt(ev[1])
    elif tag == EV_ITER:
        prof.loop_iteration(ev[1], ev[2])
    elif tag == EV_ENTER_FUNC:
        prof.enter_function(ev[1], ev[2], ev[3])
    elif tag == EV_EXIT_FUNC:
        prof.exit_function(ev[1], ev[2])
    elif tag == EV_ENTER_LOOP:
        prof.enter_loop(ev[1], ev[2], ev[3])
    else:
        assert tag == EV_EXIT_LOOP
        prof.exit_loop(ev[1], ev[2], ev[3])


def _per_event(stream):
    prof = Profiler()
    for ev in stream:
        _dispatch(prof, ev)
    prof.finish()
    return prof.profile


def _batched(stream, cuts):
    prof = Profiler()
    bounds = [0, *cuts, len(stream)]
    for lo, hi in zip(bounds, bounds[1:]):
        prof.consume_batch(stream[lo:hi])
    prof.finish()
    return prof.profile


def _cost_view(profile):
    return {
        "total_cost": profile.total_cost,
        "line_costs": dict(profile.line_costs),
        "site_costs": dict(profile.site_costs),
        "pet": [
            (n.region, n.exclusive_cost, n.inclusive_cost) for n in profile.pet.walk()
        ],
        "calltree": [
            (n.act_id, n.exclusive_cost, n.inclusive_cost, list(n.per_iter_cost))
            for n in profile.calltree.walk()
        ],
    }


@pytest.fixture(scope="module")
def reference():
    return _per_event(STREAM)


def test_reference_charges_what_the_stream_says(reference):
    assert reference.total_cost == 71
    assert reference.line_costs == {
        1: 3, 2: 5, 3: 3, 4: 15, 5: 1, 6: 5, 7: 0, 8: 4, 9: 2, 10: 33
    }
    assert reference.site_costs[(1, 7)] == 0
    assert reference.site_costs[(1, 4)] == 15 + 11 + 9  # own cost + calls
    assert reference.site_costs[(0, 3)] == 57  # the loop, at main's level
    outer = reference.calltree.children[0]
    (inner,) = [n for n in outer.children if n.region == 3]
    # the last index's condition-test sliver folds into the last iteration
    assert outer.per_iter_cost == [40, 6, 11]
    assert inner.per_iter_cost == [14, 5]
    assert reference.calltree.inclusive_cost == 5 + 57 + 4


@pytest.mark.parametrize("cut", range(len(STREAM) + 1))
def test_one_batch_boundary_anywhere(reference, cut):
    batched = _batched(STREAM, [cut])
    assert _cost_view(batched) == _cost_view(reference)
    assert profile_digest(batched) == profile_digest(reference)


def test_one_event_batches(reference):
    every = _batched(STREAM, range(1, len(STREAM)))
    assert _cost_view(every) == _cost_view(reference)
    assert profile_digest(every) == profile_digest(reference)


@pytest.mark.parametrize("width", [2, 3, 5])
def test_interleaved_per_event_and_batched_delivery(reference, width):
    # per-event calls between batches must find the batches' frames settled
    prof = Profiler()
    for i in range(0, len(STREAM), width):
        chunk = STREAM[i:i + width]
        if (i // width) % 2:
            for ev in chunk:
                _dispatch(prof, ev)
        else:
            prof.consume_batch(chunk)
    prof.finish()
    assert _cost_view(prof.profile) == _cost_view(reference)
    assert profile_digest(prof.profile) == profile_digest(reference)


@pytest.mark.parametrize("spec", all_benchmarks(), ids=lambda spec: spec.name)
def test_summarization_stats_engine_invariant(spec):
    per_engine = []
    for engine in (CompiledEngine, Interpreter):
        stats = []
        for args in spec.arg_sets():
            prof = Profiler()
            engine(spec.program, sink=prof).run(spec.entry, args)
            stats.append(prof.summarization_stats())
        per_engine.append(stats)
    assert per_engine[0] == per_engine[1]
    for s in per_engine[0]:
        assert set(s) == {"dep_events", "exact_derivations", "summarized_events"}
        assert s["dep_events"] == s["exact_derivations"] + s["summarized_events"]
        assert s["summarized_events"] > 0
