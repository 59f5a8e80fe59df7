"""Call-tree queries: iterative walks, the per-profile activation index,
and analyses of call trees deeper than the interpreter's recursion limit."""

import pytest

from repro.patterns.engine import analyze
from repro.patterns.schema import analysis_to_dict, strip_trace_timings
from repro.profiling import profile_run
from repro.profiling.cache import ProfileCache
from repro.profiling.serialize import (
    profile_digest,
    profile_from_dict,
    profile_to_dict,
)
from repro.sim import plan_and_simulate
from repro.sim.planner import _max_depth

from conftest import parsed

DEEP_SRC = """\
int down(int n) {
    if (n == 0) {
        return 0;
    }
    return 1 + down(n - 1);
}
"""

NESTED_SRC = """\
int leaf(int v) {
    int r = 0;
    for (int k = 0; k < v; k++) {
        r += k;
    }
    return r;
}
int f(int n) {
    int s = 0;
    for (int i = 0; i < n; i++) {
        s += leaf(i);
        for (int j = 0; j < 2; j++) {
            s += leaf(j);
        }
    }
    return s;
}
"""


def _recursive_preorder(node):
    out = [node]
    for child in node.children:
        out.extend(_recursive_preorder(child))
    return out


class TestWalk:
    @pytest.mark.parametrize("case", ["fib", "nested"])
    def test_iterative_walk_is_recursive_preorder(self, case, fib_program):
        if case == "fib":
            profile, _ = profile_run(fib_program, "fib", [7])
        else:
            profile, _ = profile_run(parsed(NESTED_SRC), "f", [4])
        assert len(_recursive_preorder(profile.calltree)) > 5
        for root in (profile.calltree, profile.pet):
            got = [id(n) for n in root.walk()]
            assert got == [id(n) for n in _recursive_preorder(root)]

    def test_walk_of_a_subtree(self, fib_program):
        profile, _ = profile_run(fib_program, "fib", [6])
        sub = profile.calltree.children[0]
        assert list(sub.walk()) == _recursive_preorder(sub)


class TestActivationIndex:
    def test_equals_filtered_walk(self, fib_program):
        for profile in (
            profile_run(fib_program, "fib", [7])[0],
            profile_run(parsed(NESTED_SRC), "f", [4])[0],
        ):
            regions = {n.region for n in profile.calltree.walk()}
            for region in regions | {max(regions) + 1}:
                want = [n for n in profile.calltree.walk() if n.region == region]
                assert list(profile.activations(region)) == want

    def test_never_serialized(self, fib_program):
        profile, _ = profile_run(fib_program, "fib", [7])
        before = profile_to_dict(profile)
        digest = profile_digest(profile)
        assert profile.activations(profile.calltree.region)
        assert profile_to_dict(profile) == before
        assert profile_digest(profile) == digest
        assert "activation" not in repr(before)
        # nor compared: an indexed profile equals its fresh round trip
        back = profile_from_dict(before)
        assert back.activations(back.calltree.region)
        assert profile_to_dict(back) == before

    def test_follows_a_replaced_calltree(self, fib_program):
        small, _ = profile_run(fib_program, "fib", [3])
        big, _ = profile_run(fib_program, "fib", [6])
        region = fib_program.function("fib").region_id
        assert len(small.activations(region)) == 5
        small.calltree = big.calltree
        assert len(small.activations(region)) == 25
        small.calltree = None
        assert small.activations(region) == ()


class TestDeepCallTree:
    """A linear recursion 2000 deep: deeper than the default recursion
    limit, which used to break every consumer of the call tree after the
    (limit-raising) engines had profiled it fine."""

    DEPTH = 2000

    @pytest.fixture(scope="class")
    def program(self):
        return parsed(DEEP_SRC)

    def test_analyze_simulate_digest_and_cache_round_trip(self, program, tmp_path):
        region = program.function("down").region_id
        result = analyze(program, "down", [[self.DEPTH]])
        profile = result.profile
        assert len(profile.activations(region)) == self.DEPTH + 1
        assert _max_depth(profile, region) == self.DEPTH + 1
        # the recursive work/span pass walks the whole chain: a linear
        # recursion has no parallel slack
        tp = result.tasks[region]
        assert tp.total_instructions == tp.critical_path_instructions > 0
        plan = plan_and_simulate(result)
        digest = profile_digest(profile)

        cache = ProfileCache(tmp_path / "cache")
        cold = analyze(program, "down", [[self.DEPTH]], cache=cache)
        warm = analyze(program, "down", [[self.DEPTH]], cache=cache)
        assert cache.stats.hits == 1
        for other in (cold, warm):
            assert profile_digest(other.profile) == digest
            assert strip_trace_timings(analysis_to_dict(other)) == strip_trace_timings(
                analysis_to_dict(result)
            )
            again = plan_and_simulate(other)
            assert (again.label, again.sweep.speedups) == (plan.label, plan.sweep.speedups)
