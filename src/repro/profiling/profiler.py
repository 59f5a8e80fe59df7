"""The streaming profiler sink.

One pass over the interpreter's event stream produces everything the pattern
detectors need.  The design mirrors DiscoPoP's split into a dependence
profiler and a region/PET profiler (Section II), but runs both in a single
shadow-memory sweep:

* **Context tracking** — a stack of activations (function calls and loop
  entries), each with its static region id, current iteration number, and
  the source line of the statement currently executing at that level (its
  *site*).  Sites are what summarize nested work to call sites when
  dependences are lifted to a region's CU graph.
* **Shadow memory** — last writer and last reader per address.  Each access
  is compared against the shadow entry to emit RAW/WAR/WAW dependences,
  attributed to the deepest common activation and classified as carried or
  independent there.
* **Privatization** — per loop iteration, the first access to each address
  is tracked; a ``(loop, var)`` that is ever read before written in an
  iteration is marked ``read_first`` (not privatizable).
* **Multi-loop pairs** — a RAW dependence whose endpoints sit in *different
  sibling loops* contributes an ``(i_x, i_y)`` iteration pair: the last
  write iteration of loop *x* and the first read iteration of loop *y* for
  that address (Section III-A's post-analysis, done online).
* **PET** — activations are folded into a Program Execution Tree: loop
  iterations merge, recursive calls merge into their ancestor node.
* **Call tree** — the full dynamic activation tree with inclusive costs and
  per-iteration loop costs, used for work/span speedup estimation and the
  pipeline schedule simulator.

Fast path
---------
The profiler receives events in chunks through :meth:`Profiler.consume_batch`
(see ``repro.runtime.events``): the read/write/cost/stmt/iteration handlers
are inlined in one loop with all per-event state hoisted into locals.
Access events carry ``(tag, addr, sid)`` where ``sid`` indexes the program's
static :class:`~repro.runtime.sites.SiteTable`.  The per-event ``Sink``
methods stay as the eager reference: accesses wrap into one-event batches,
costs, statements and iterations update the profile directly, and every
batch settles its deferred state before it returns, so interleaving them
with batched delivery is safe.

In-loop dependence summarization
--------------------------------
Deriving a dependence from a shadow entry means scanning two context stacks
for their divergence point, classifying the carrier, and building an
aggregation key — per access.  But inside a loop the stream is massively
repetitive: consecutive accesses at one site hit addresses whose shadow
entries were written by the *same* site under the *same* pair of activation
stacks.  The profiler therefore memoizes one **descriptor** per (current
sid, previous sid, dependence kind): the derived divergence level, the
pre-built aggregation keys for the carried and independent variants, the
source and sink site lines expected at the divergence level, and the
running access counts.  A descriptor is trusted for an access only while

* the shadow entry's and the current activation-id snapshots are the very
  objects it was derived under (compared by identity — snapshots are
  immutable and rebuilt on region transitions, and the descriptor holds
  strong references so an id can never be recycled), and
* the site lines at the divergence level still equal the expected ones.

Then recording the dependence is a carried-or-not compare of the two
iteration numbers at that level and a counter bump.  Any mismatch falls
back to the exact per-access derivation, which either revalidates the
descriptor in place (same region and site lines: only the snapshots aged)
or folds its counts into the aggregated dependence table and installs a
fresh one.  The address sequence plays no part in validity.  Descriptor
counts are also folded at :meth:`finish`, so the result is **exactly** the
per-access table, event for event; only the work is collapsed.

Dependences whose endpoints share the whole activation stack — the
dominant case: in-loop affine accesses and recursion-local cells — take a
cheaper descriptor family still (the ``_same_*`` tables): divergence is
necessarily at the innermost level, so validity reduces to the identity of
the shadow entry's snapshot with the current one plus two site-line
compares, and the descriptor references no snapshot, which keeps it valid
across activation churn where the snapshot-identity descriptors of
recursive programs miss on every call.

Deferred cost fold
------------------
An ``EV_COST`` event only adds its amount to an open *frame* total and to
the current static region's ``{line: cost}`` table.  The frame is charged
to the innermost activation (its running inclusive cost, its PET node and
its call-tree node) at the next iteration boundary, region transition, or
batch end — the points where anything reads those totals.  The per-region
tables become ``line_costs`` and ``site_costs`` at :meth:`finish`; both are
additive and keyed, so the deferred sums equal the eager per-event ones.

First-touch bookkeeping gets the same treatment: once a ``(loop, var)`` is
marked ``read_first`` at every live loop level, further marks are no-ops,
and for alias-free programs (see ``repro.runtime.sites``) the per-iteration
first-touch walk for that variable can be skipped wholesale.  Write sites
of variables the program never reads skip it too — their walk exists only
to suppress read marks that can never come.
"""

from __future__ import annotations

from collections import defaultdict
from functools import partial
from typing import Sequence

from repro.profiling.model import RAW, WAR, WAW, CallNode, DepKey, PETNode, Profile
from repro.runtime.events import (
    EV_COST,
    EV_ENTER_FUNC,
    EV_ENTER_LOOP,
    EV_EXIT_FUNC,
    EV_EXIT_LOOP,
    EV_ITER,
    EV_READ,
    EV_STMT,
    EV_WRITE,
    Sink,
)
from repro.runtime.sites import SiteTable

_NO_ITER = -1

# Stands in for the innermost loop's first-touch set while no loop is live.
_NO_SEEN: frozenset[int] = frozenset()

# Descriptor dicts are keyed by ``sid * _KEYM + psid`` — one int, hashed by
# value — so a site whose addresses alternate between two writer sites (a
# set/reset pair in a backtracking loop, say) keeps one live descriptor per
# writer instead of thrashing a single per-sid slot.  Site ids are dense
# small ints (static sites plus a handful of runtime pseudo sites), so the
# packing never collides in practice.
_KEYM = 1 << 20

# Descriptor layout (plain lists: fastest mutable record in CPython; the
# hot loop indexes them by literal).  See the module docstring for the
# validity rules.  Both families share the first seven slots, so one
# :func:`_fold` serves both:
#
#   0  aggregation key, independent variant (None: no common activation)
#   1  aggregation key, carried variant (None for non-loops)
#   2  accesses counted as independent
#   3  accesses counted as carried
#   4  expected source site line at the divergence level
#   5  expected sink site line at the divergence level
#   6  True when the common activation is a loop
#
# Cross-activation descriptors (the _tpl_* tables) add:
#
#   7  shadow entry's activation-id snapshot (identity-checked)
#   8  current activation-id snapshot (identity-checked)
#   9  divergence level minus one; -1 encodes "no common activation"
#   10 multi-loop pair recipe (w_static, d, r_act, pair_key) or None
#
# Same-activation descriptors (the _same_* tables) stop at slot 6: when a
# shadow entry's snapshot *is* the current one, both endpoints share the
# whole stack, the divergence level is the innermost one, and the pair
# condition (endpoints in different sibling loops) can never hold.


def _fold(deps: dict[tuple, int], run: list) -> int:
    """Fold a descriptor's counts into the dependence table.

    Returns the number of dependence events the descriptor recorded.  A
    "no common activation" descriptor never counts, so its ``None`` keys
    are never touched.
    """
    n0 = run[2]
    n1 = run[3]
    if n0:
        key = run[0]
        deps[key] = deps.get(key, 0) + n0
    if n1:
        key = run[1]
        deps[key] = deps.get(key, 0) + n1
    return n0 + n1


class Profiler(Sink):
    """Sink that builds a :class:`Profile` from one interpreted run."""

    def __init__(
        self,
        record_calltree: bool = True,
        max_calltree_nodes: int = 500_000,
    ) -> None:
        self.profile = Profile()
        # context stacks (parallel lists)
        self._ids: list[int] = []
        self._statics: list[int] = []
        self._kinds: list[str] = []
        self._iters: list[int] = []
        self._sites: list[int] = []
        self._act_info: dict[int, tuple[int, str]] = {}
        # privatization: per-level set of addresses touched this iteration
        self._seen: list[set[int] | None] = []
        # shadow memory: addr -> ((ids, iters, sites), sid)
        self._last_write: dict[int, tuple] = {}
        self._last_read: dict[int, tuple] = {}
        # pair first-read bookkeeping: (reader_act, writer_loop, addr)
        self._pair_seen: set[tuple[int, int, int]] = set()
        # aggregated dependences under compact (kind, psid, sid, region,
        # carrier, src_site, dst_site) keys; materialized into DepKey
        # records once at finish()
        self._deps_raw: dict[tuple, int] = {}
        # dependence descriptors, one per (current sid, previous sid) and
        # kind; the _tpl_* dicts cover cross-activation dependences, the
        # _same_* dicts cover dependences whose endpoints share the
        # activation stack (the dominant case: in-loop affine accesses and
        # recursion-local cells) with a depth-independent validity check
        self._tpl_raw: dict[int, list] = {}
        self._tpl_waw: dict[int, list] = {}
        self._tpl_war: dict[int, list] = {}
        self._same_raw: dict[int, list] = {}
        self._same_waw: dict[int, list] = {}
        self._same_war: dict[int, list] = {}
        self._tpl_installs = 0
        self._sum_events = 0
        # PET
        self._pet_counter = 0
        self._pet_stack: list[PETNode] = []
        # cost accounting: running inclusive cost per live activation, and
        # the batched path's deferred static region -> {line: cost} tables
        # (region -1 collects costs charged outside any activation)
        self._act_costs: list[int] = []
        self._region_costs: defaultdict[int, defaultdict[int, int]] = defaultdict(
            partial(defaultdict, int)
        )
        # call tree
        self._record_ct = record_calltree
        self._max_ct = max_calltree_nodes
        self._ct_nodes = 0
        self._ct_stack: list[CallNode | None] = []
        self._iter_marks: list[int] = []
        # loop trip accumulation: static loop -> [invocations, total, max]
        self._trips: dict[int, list[int]] = {}
        # working-set tracking (array traffic only — scalars stay in cache)
        self._array_addrs: set[int] = set()
        # cached immutable snapshots of the context stacks (hot path:
        # rebuilding them per mutation beats tuple() per memory event);
        # _ctx bundles them so shadow entries share one triple per state
        self._ids_t: tuple[int, ...] = ()
        self._iters_t: tuple[int, ...] = ()
        self._sites_t: tuple[int, ...] = ()
        self._ctx: tuple = ((), (), ())
        # indices of the loop levels within the stacks (skips function
        # levels in the per-event first-touch sweep)
        self._loop_idx: list[int] = []
        # per-sid first-touch verdicts for the current loop stack:
        # 1 = walk provably a no-op, skip it; 2 = walk normally.  A sid
        # missing from the dict doubles as "first touch under this loop
        # stack": the miss path updates the loop access tables before
        # deciding, so one lookup serves both jobs.  Cleared on loop
        # entry/exit.
        self._ft_state: dict[int, int] = {}
        self._af = False
        # a default table so hand-driven sinks work without an engine;
        # engines replace it via set_site_table before any event flows
        self.set_site_table(SiteTable())

    def set_site_table(self, table: SiteTable) -> None:
        self._site_table = table
        self._s_lines = table.lines
        self._s_vars = table.vars
        self._s_elems = table.elements
        self._af = table.alias_free
        n = table.n_static
        self._vars_with_reads = {
            table.vars[i] for i in range(n) if not table.writes[i]
        }

    def _sid_for(self, line: int, var: str, write: bool, element: bool) -> int:
        """Site id for a per-event-API access (allocates a pseudo site)."""
        table = self._site_table
        before = len(table.lines)
        sid = table.pseudo_sid(line, var, write, element)
        if sid >= before and not write and var not in self._vars_with_reads:
            # a read of a variable the static table thought was write-only:
            # first-touch verdicts based on that assumption are stale
            self._vars_with_reads.add(var)
            self._ft_state.clear()
        return sid

    # ------------------------------------------------------------------
    # region transitions
    # ------------------------------------------------------------------

    def _enter(self, region: int, act: int, kind: str, site_line: int, line: int) -> None:
        parent_site = self._sites[-1] if self._sites else site_line
        self._ids.append(act)
        self._statics.append(region)
        self._kinds.append(kind)
        self._iters.append(_NO_ITER)
        self._sites.append(line)
        self._act_info[act] = (region, kind)
        self._seen.append(set() if kind == "loop" else None)
        if kind == "loop":
            self._loop_idx.append(len(self._kinds) - 1)
            self._ft_state.clear()
        self._ids_t = tuple(self._ids)
        self._iters_t = tuple(self._iters)
        self._sites_t = tuple(self._sites)
        self._ctx = (self._ids_t, self._iters_t, self._sites_t)
        self._act_costs.append(0)
        self._iter_marks.append(0)
        self._enter_pet(region, kind, line)
        # call tree
        node: CallNode | None = None
        if self._record_ct and self._ct_nodes < self._max_ct:
            node = CallNode(
                act_id=act,
                region=region,
                kind=kind,
                site_line=parent_site,
                parent=self._ct_stack[-1] if self._ct_stack else None,
            )
            self._ct_nodes += 1
            if node.parent is not None:
                node.parent.children.append(node)
            elif self.profile.calltree is None:
                self.profile.calltree = node
        self._ct_stack.append(node)

    def _enter_pet(self, region: int, kind: str, line: int) -> None:
        name = f"{kind}@{line}"
        if kind == "function":
            # recursion merging: reuse an ancestor node for the same region
            for node in reversed(self._pet_stack):
                if node.region == region and node.kind == "function":
                    node.recursive = True
                    node.invocations += 1
                    self._pet_stack.append(node)
                    return
        parent = self._pet_stack[-1] if self._pet_stack else None
        node = parent.child_for(region) if parent is not None else None
        if node is None or node.kind != kind:
            node = PETNode(
                node_id=self._pet_counter,
                region=region,
                kind=kind,
                name=name,
                line=line,
                parent=parent,
            )
            self._pet_counter += 1
            if parent is not None:
                parent.children.append(node)
            elif self.profile.pet is None:
                self.profile.pet = node
        node.invocations += 1
        self._pet_stack.append(node)

    def _exit(self, trip_count: int | None = None) -> None:
        inclusive = self._act_costs.pop()
        static = self._statics.pop()
        self._ids.pop()
        kind = self._kinds.pop()
        self._iters.pop()
        self._sites.pop()
        self._seen.pop()
        if kind == "loop":
            self._loop_idx.pop()
            self._ft_state.clear()
        self._ids_t = tuple(self._ids)
        self._iters_t = tuple(self._iters)
        self._sites_t = tuple(self._sites)
        self._ctx = (self._ids_t, self._iters_t, self._sites_t)
        self._iter_marks.pop()
        pet_node = self._pet_stack.pop()
        ct_node = self._ct_stack.pop()
        if ct_node is not None:
            ct_node.inclusive_cost = inclusive
            if kind == "loop" and ct_node.per_iter_cost:
                # fold the final condition-test sliver into the last iteration
                residue = inclusive - sum(ct_node.per_iter_cost)
                if residue > 0:
                    ct_node.per_iter_cost[-1] += residue
        if kind == "loop" and trip_count is not None:
            pet_node.total_trips += trip_count
            acc = self._trips.setdefault(static, [0, 0, 0])
            acc[0] += 1
            acc[1] += trip_count
            acc[2] = max(acc[2], trip_count)
        if self._act_costs:
            self._act_costs[-1] += inclusive
            key = (self._statics[-1], self._sites[-1])
            self.profile.site_costs[key] = self.profile.site_costs.get(key, 0) + inclusive

    # -- Sink interface -------------------------------------------------

    def enter_function(self, region_id: int, activation_id: int, call_line: int) -> None:
        self._enter(region_id, activation_id, "function", call_line, call_line)

    def exit_function(self, region_id: int, activation_id: int) -> None:
        self._exit()

    def enter_loop(self, region_id: int, activation_id: int, line: int) -> None:
        self._enter(region_id, activation_id, "loop", line, line)

    def exit_loop(self, region_id: int, activation_id: int, trip_count: int) -> None:
        self._exit(trip_count)

    def loop_iteration(self, region_id: int, index: int) -> None:
        self._iters[-1] = index
        self._iters_t = self._iters_t[:-1] + (index,)
        self._ctx = (self._ids_t, self._iters_t, self._sites_t)
        self._seen[-1] = set()
        node = self._ct_stack[-1]
        if node is not None and index > 0:
            acc = self._act_costs[-1]
            node.per_iter_cost.append(acc - self._iter_marks[-1])
            self._iter_marks[-1] = acc

    def on_stmt(self, line: int) -> None:
        sites = self._sites
        if sites and sites[-1] != line:
            sites[-1] = line
            self._sites_t = self._sites_t[:-1] + (line,)
            self._ctx = (self._ids_t, self._iters_t, self._sites_t)

    def on_cost(self, line: int, amount: int) -> None:
        p = self.profile
        p.total_cost += amount
        p.line_costs[line] = p.line_costs.get(line, 0) + amount
        if not self._act_costs:
            return
        self._act_costs[-1] += amount
        self._pet_stack[-1].exclusive_cost += amount
        node = self._ct_stack[-1]
        if node is not None:
            node.exclusive_cost += amount
        key = (self._statics[-1], line)
        p.site_costs[key] = p.site_costs.get(key, 0) + amount

    # ------------------------------------------------------------------
    # memory accesses (reference path: one-event batches)
    # ------------------------------------------------------------------

    def on_read(self, addr: int, var: str, line: int, element: bool = False) -> None:
        sid = self._sid_for(line, var, False, element)
        self.consume_batch(((EV_READ, addr, sid),))

    def on_write(self, addr: int, var: str, line: int, element: bool = False) -> None:
        sid = self._sid_for(line, var, True, element)
        self.consume_batch(((EV_WRITE, addr, sid),))

    # ------------------------------------------------------------------
    # batched fast path
    # ------------------------------------------------------------------

    def consume_batch(self, events: Sequence[tuple]) -> None:
        """Process a chunk of engine events with hoisted state.

        Semantically identical to the per-event reference path.  The read
        and write paths are fully inlined, with dependence recording going
        through the descriptors described in the module docstring; the
        ``dep_slow`` / ``same_slow`` closures do the exact derivation
        whenever a descriptor's validity checks fail.  Costs go through the
        deferred fold, which this method settles before it returns.
        """
        profile = self.profile
        last_write = self._last_write
        last_read = self._last_read
        pair_seen = self._pair_seen
        pairs = profile.pairs
        loop_accessed = profile.loop_accessed
        loop_var_reads = profile.loop_var_reads
        loop_var_writes = profile.loop_var_writes
        read_first = profile.read_first
        ft_state = self._ft_state
        af = self._af
        vars_with_reads = self._vars_with_reads
        region_costs = self._region_costs
        array_addrs = self._array_addrs
        statics = self._statics
        seen = self._seen
        loop_idx = self._loop_idx
        iters = self._iters
        sites = self._sites
        act_costs = self._act_costs
        pet_stack = self._pet_stack
        ct_stack = self._ct_stack
        iter_marks = self._iter_marks
        s_lines = self._s_lines
        s_vars = self._s_vars
        s_elems = self._s_elems
        tpl_raw = self._tpl_raw
        tpl_waw = self._tpl_waw
        tpl_war = self._tpl_war
        same_raw = self._same_raw
        same_waw = self._same_waw
        same_war = self._same_war
        deps = self._deps_raw
        act_info = self._act_info
        installs = self._tpl_installs
        sum_events = self._sum_events
        ids_t = self._ids_t
        iters_t = self._iters_t
        sites_t = self._sites_t
        ctx = self._ctx
        # per-activation state that only changes on region transitions,
        # plus plain-integer accumulators written back once per batch
        cur_static = statics[-1] if statics else -1
        pet_top = pet_stack[-1] if pet_stack else None
        ct_top = ct_stack[-1] if ct_stack else None
        rcost = region_costs[cur_static]
        inner_seen = seen[loop_idx[-1]] if loop_idx else _NO_SEEN
        # the innermost level's site and iteration, and the snapshots
        # without it (statements and iterations only replace that level)
        cur_site = sites_t[-1] if sites_t else None
        cur_iter = iters_t[-1] if iters_t else None
        site_head = sites_t[:-1]
        iter_head = iters_t[:-1]
        frame = 0  # costs not yet charged to the innermost activation
        total_cost = profile.total_cost
        arr_n = profile.array_accesses
        keym = _KEYM

        def dep_slow(
            kind: str, prev: tuple, sid: int, addr: int, tpl: dict, dkey: int,
            ids_t: tuple, iters_t: tuple, sites_t: tuple,
        ) -> None:
            # Exact derivation for one access; revalidates the existing
            # descriptor in place when only its stack snapshots aged, else
            # folds its counts into the dependence table and installs a
            # fresh descriptor so following accesses take the fast path.
            # A closure so the recursion-heavy programs — whose context
            # snapshots change too often for descriptors to ever match —
            # pay no attribute traffic on their per-access fallbacks.  The
            # snapshots come as arguments, not from the enclosing scope, so
            # the main loop keeps them in fast locals rather than cells.
            nonlocal installs, sum_events
            p_ctx, psid = prev
            p_ids = p_ctx[0]
            if p_ids is ids_t:
                d = len(p_ids)
            else:
                limit = min(len(p_ids), len(ids_t))
                d = 0
                while d < limit and p_ids[d] == ids_t[d]:
                    d += 1
            installs += 1
            old = tpl.get(dkey)
            if d == 0:
                if old is not None:
                    sum_events += _fold(deps, old)
                tpl[dkey] = [None, None, 0, 0, 0, 0, False, p_ids, ids_t, -1, None]
                return
            m = d - 1
            region, region_kind = act_info[p_ids[m]]
            is_loop = region_kind == "loop"
            psm = p_ctx[2][m]
            csm = sites_t[m]
            carried = False
            if is_loop:
                pim = p_ctx[1][m]
                cim = iters_t[m]
                carried = pim != cim and pim != -1 and cim != -1
            pair = None
            if kind == RAW and d < len(p_ids) and d < len(ids_t):
                w_act = p_ids[d]
                r_act = ids_t[d]
                w_static, w_kind = act_info[w_act]
                r_static, r_kind = act_info[r_act]
                if w_kind == "loop" and r_kind == "loop" and w_static != r_static:
                    pair = (w_static, d, r_act, (w_static, r_static))
            if (
                old is not None
                and old[9] >= 0
                and old[4] == psm
                and old[5] == csm
                and old[0][3] == region
            ):
                # Same derived dependence — only the stack snapshots aged
                # (an inner loop re-entered, a call returned and repeated,
                # or the recursion depth shifted: the divergence level m is
                # not part of the aggregation key, so a changed m with the
                # same region and site lines is still the same dependence).
                # Revalidate in place: refresh the snapshots, level, and
                # pair recipe; keep the keys and counts.
                old[7] = p_ids
                old[8] = ids_t
                old[9] = m
                old[10] = pair
                if carried:
                    old[3] += 1
                else:
                    old[2] += 1
            else:
                if old is not None:
                    sum_events += _fold(deps, old)
                key0 = (kind, psid, sid, region, None, psm, csm)
                key1 = (
                    (kind, psid, sid, region, region, psm, csm)
                    if is_loop else None
                )
                tpl[dkey] = [
                    key0, key1, 0 if carried else 1, 1 if carried else 0,
                    psm, csm, is_loop, p_ids, ids_t, m, pair,
                ]
            if pair is not None:
                ix = p_ctx[1][d]
                iy = iters_t[d]
                if ix != -1 and iy != -1:
                    skey = (r_act, pair[0], addr)
                    if skey not in pair_seen:
                        pair_seen.add(skey)
                        pk = pair[3]
                        lst = pairs.get(pk)
                        if lst is None:
                            pairs[pk] = [(ix, iy)]
                        else:
                            lst.append((ix, iy))

        def same_slow(
            kind: str, prev: tuple, sid: int, tpl: dict, dkey: int,
            ids_t: tuple, iters_t: tuple, sites_t: tuple,
        ) -> None:
            # Exact derivation for a dependence whose endpoints share the
            # activation stack (prev's snapshot *is* ids_t): the divergence
            # level is the innermost one, no multi-loop pair can arise, and
            # the installed descriptor references no snapshots, so it stays
            # valid across recursion's activation churn.
            nonlocal installs, sum_events
            p_ctx, psid = prev
            old = tpl.get(dkey)
            if old is not None:
                sum_events += _fold(deps, old)
            installs += 1
            region, region_kind = act_info[ids_t[-1]]
            is_loop = region_kind == "loop"
            psm = p_ctx[2][-1]
            csm = sites_t[-1]
            carried = False
            if is_loop:
                pim = p_ctx[1][-1]
                cim = iters_t[-1]
                carried = pim != cim and pim != -1 and cim != -1
            tpl[dkey] = [
                (kind, psid, sid, region, None, psm, csm),
                (kind, psid, sid, region, region, psm, csm) if is_loop else None,
                0 if carried else 1, 1 if carried else 0, psm, csm, is_loop,
            ]

        for ev in events:
            tag = ev[0]
            if tag == EV_READ:
                addr = ev[1]
                sid = ev[2]
                if s_elems[sid]:
                    array_addrs.add(addr)
                    arr_n += 1
                prev = last_write.get(addr)
                if prev is not None:
                    p_ctx = prev[0]
                    dkey = sid * keym + prev[1]
                    if p_ctx[0] is ids_t and ids_t:
                        run = same_raw.get(dkey)
                        if (
                            run is not None
                            and p_ctx[2][-1] == run[4]
                            and cur_site == run[5]
                        ):
                            if run[6]:
                                pim = p_ctx[1][-1]
                                if pim != cur_iter and pim != -1 and cur_iter != -1:
                                    run[3] += 1
                                else:
                                    run[2] += 1
                            else:
                                run[2] += 1
                        else:
                            same_slow(RAW, prev, sid, same_raw, dkey, ids_t, iters_t, sites_t)
                    else:
                        run = tpl_raw.get(dkey)
                        if (
                            run is not None
                            and run[7] is p_ctx[0]
                            and run[8] is ids_t
                        ):
                            m = run[9]
                            if m >= 0:
                                if p_ctx[2][m] == run[4] and sites_t[m] == run[5]:
                                    if run[6]:
                                        pim = p_ctx[1][m]
                                        cim = iters_t[m]
                                        if pim != cim and pim != -1 and cim != -1:
                                            run[3] += 1
                                        else:
                                            run[2] += 1
                                    else:
                                        run[2] += 1
                                    pair = run[10]
                                    if pair is not None:
                                        dlev = pair[1]
                                        ix = p_ctx[1][dlev]
                                        iy = iters_t[dlev]
                                        if ix != -1 and iy != -1:
                                            skey = (pair[2], pair[0], addr)
                                            if skey not in pair_seen:
                                                pair_seen.add(skey)
                                                pk = pair[3]
                                                lst = pairs.get(pk)
                                                if lst is None:
                                                    pairs[pk] = [(ix, iy)]
                                                else:
                                                    lst.append((ix, iy))
                                else:
                                    dep_slow(
                                        RAW, prev, sid, addr, tpl_raw, dkey,
                                        ids_t, iters_t, sites_t,
                                    )
                            # m < 0: proven no-dep for this snapshot pair
                        else:
                            dep_slow(RAW, prev, sid, addr, tpl_raw, dkey, ids_t, iters_t, sites_t)
                last_read[addr] = (ctx, sid)
                state = ft_state.get(sid)
                if state is None:
                    # first touch of this sid under the current loop stack:
                    # update the loop access tables, then decide the walk
                    var = s_vars[sid]
                    line = s_lines[sid]
                    for i in loop_idx:
                        k = (statics[i], var)
                        loop_accessed.add(k)
                        lines = loop_var_reads.get(k)
                        if lines is None:
                            loop_var_reads[k] = {line}
                        else:
                            lines.add(line)
                    state = 2
                    if af:
                        state = 1
                        for i in loop_idx:
                            if (statics[i], var) not in read_first:
                                state = 2
                                break
                    ft_state[sid] = state
                # membership at the innermost loop level implies membership
                # at every enclosing one, so a repeat touch skips the walk
                if state == 2 and addr not in inner_seen:
                    var = s_vars[sid]
                    for i in reversed(loop_idx):
                        level_seen = seen[i]
                        if addr in level_seen:
                            break
                        level_seen.add(addr)
                        read_first.add((statics[i], var))
            elif tag == EV_WRITE:
                addr = ev[1]
                sid = ev[2]
                if s_elems[sid]:
                    array_addrs.add(addr)
                    arr_n += 1
                prev = last_write.get(addr)
                if prev is not None:
                    p_ctx = prev[0]
                    dkey = sid * keym + prev[1]
                    if p_ctx[0] is ids_t and ids_t:
                        run = same_waw.get(dkey)
                        if (
                            run is not None
                            and p_ctx[2][-1] == run[4]
                            and cur_site == run[5]
                        ):
                            if run[6]:
                                pim = p_ctx[1][-1]
                                if pim != cur_iter and pim != -1 and cur_iter != -1:
                                    run[3] += 1
                                else:
                                    run[2] += 1
                            else:
                                run[2] += 1
                        else:
                            same_slow(WAW, prev, sid, same_waw, dkey, ids_t, iters_t, sites_t)
                    else:
                        run = tpl_waw.get(dkey)
                        if (
                            run is not None
                            and run[7] is p_ctx[0]
                            and run[8] is ids_t
                        ):
                            m = run[9]
                            if m >= 0:
                                if p_ctx[2][m] == run[4] and sites_t[m] == run[5]:
                                    if run[6]:
                                        pim = p_ctx[1][m]
                                        cim = iters_t[m]
                                        if pim != cim and pim != -1 and cim != -1:
                                            run[3] += 1
                                        else:
                                            run[2] += 1
                                    else:
                                        run[2] += 1
                                else:
                                    dep_slow(
                                        WAW, prev, sid, addr, tpl_waw, dkey,
                                        ids_t, iters_t, sites_t,
                                    )
                        else:
                            dep_slow(WAW, prev, sid, addr, tpl_waw, dkey, ids_t, iters_t, sites_t)
                prev = last_read.get(addr)
                if prev is not None:
                    p_ctx = prev[0]
                    dkey = sid * keym + prev[1]
                    if p_ctx[0] is ids_t and ids_t:
                        run = same_war.get(dkey)
                        if (
                            run is not None
                            and p_ctx[2][-1] == run[4]
                            and cur_site == run[5]
                        ):
                            if run[6]:
                                pim = p_ctx[1][-1]
                                if pim != cur_iter and pim != -1 and cur_iter != -1:
                                    run[3] += 1
                                else:
                                    run[2] += 1
                            else:
                                run[2] += 1
                        else:
                            same_slow(WAR, prev, sid, same_war, dkey, ids_t, iters_t, sites_t)
                    else:
                        run = tpl_war.get(dkey)
                        if (
                            run is not None
                            and run[7] is p_ctx[0]
                            and run[8] is ids_t
                        ):
                            m = run[9]
                            if m >= 0:
                                if p_ctx[2][m] == run[4] and sites_t[m] == run[5]:
                                    if run[6]:
                                        pim = p_ctx[1][m]
                                        cim = iters_t[m]
                                        if pim != cim and pim != -1 and cim != -1:
                                            run[3] += 1
                                        else:
                                            run[2] += 1
                                    else:
                                        run[2] += 1
                                else:
                                    dep_slow(
                                        WAR, prev, sid, addr, tpl_war, dkey,
                                        ids_t, iters_t, sites_t,
                                    )
                        else:
                            dep_slow(WAR, prev, sid, addr, tpl_war, dkey, ids_t, iters_t, sites_t)
                last_write[addr] = (ctx, sid)
                state = ft_state.get(sid)
                if state is None:
                    # first touch of this sid under the current loop stack:
                    # update the loop access tables, then decide the walk
                    var = s_vars[sid]
                    line = s_lines[sid]
                    for i in loop_idx:
                        k = (statics[i], var)
                        loop_accessed.add(k)
                        lines = loop_var_writes.get(k)
                        if lines is None:
                            loop_var_writes[k] = {line}
                        else:
                            lines.add(line)
                    state = 2
                    if af:
                        if var not in vars_with_reads:
                            # write-only variable: the walk only suppresses
                            # read marks that can never come
                            state = 1
                        else:
                            state = 1
                            for i in loop_idx:
                                if (statics[i], var) not in read_first:
                                    state = 2
                                    break
                    ft_state[sid] = state
                if state == 2 and addr not in inner_seen:
                    for i in reversed(loop_idx):
                        level_seen = seen[i]
                        if addr in level_seen:
                            break
                        level_seen.add(addr)
            elif tag == EV_COST:
                amount = ev[2]
                frame += amount
                rcost[ev[1]] += amount
            elif tag == EV_STMT:
                line = ev[1]
                if line != cur_site and sites:
                    sites[-1] = cur_site = line
                    sites_t = site_head + (line,)
                    ctx = (ids_t, iters_t, sites_t)
            else:
                # an iteration boundary or a region transition reads the
                # innermost activation's totals: charge the open frame
                if frame:
                    total_cost += frame
                    if act_costs:
                        act_costs[-1] += frame
                        pet_top.exclusive_cost += frame
                        if ct_top is not None:
                            ct_top.exclusive_cost += frame
                    frame = 0
                if tag == EV_ITER:
                    index = ev[2]
                    iters[-1] = cur_iter = index
                    iters_t = iter_head + (index,)
                    ctx = (ids_t, iters_t, sites_t)
                    seen[-1] = set()
                    inner_seen = seen[loop_idx[-1]]
                    if ct_top is not None and index > 0:
                        acc = act_costs[-1]
                        ct_top.per_iter_cost.append(acc - iter_marks[-1])
                        iter_marks[-1] = acc
                    continue
                if tag == EV_ENTER_FUNC:
                    self._enter(ev[1], ev[2], "function", ev[3], ev[3])
                elif tag == EV_EXIT_FUNC:
                    self._exit()
                elif tag == EV_ENTER_LOOP:
                    self._enter(ev[1], ev[2], "loop", ev[3], ev[3])
                elif tag == EV_EXIT_LOOP:
                    self._exit(ev[3])
                else:  # pragma: no cover - exhaustiveness guard
                    raise ValueError(f"unknown event tag {tag!r}")
                # region transitions rebuild the context snapshots and the
                # per-activation hoists
                ids_t = self._ids_t
                iters_t = self._iters_t
                sites_t = self._sites_t
                ctx = self._ctx
                cur_static = statics[-1] if statics else -1
                pet_top = pet_stack[-1] if pet_stack else None
                ct_top = ct_stack[-1] if ct_stack else None
                rcost = region_costs[cur_static]
                inner_seen = seen[loop_idx[-1]] if loop_idx else _NO_SEEN
                cur_site = sites_t[-1] if sites_t else None
                cur_iter = iters_t[-1] if iters_t else None
                site_head = sites_t[:-1]
                iter_head = iters_t[:-1]
        if frame:
            total_cost += frame
            if act_costs:
                act_costs[-1] += frame
                pet_top.exclusive_cost += frame
                if ct_top is not None:
                    ct_top.exclusive_cost += frame
        profile.total_cost = total_cost
        profile.array_accesses = arr_n
        self._iters_t = iters_t
        self._sites_t = sites_t
        self._ctx = ctx
        self._tpl_installs = installs
        self._sum_events = sum_events

    # ------------------------------------------------------------------

    def summarization_stats(self) -> dict[str, int]:
        """Counters describing how much per-access work was collapsed.

        Meaningful after :meth:`finish`.  ``dep_events`` is the number of
        dependence-recording events; ``exact_derivations`` of those took the
        full divergence-scan path (each installing or revalidating a
        descriptor); ``summarized_events`` is the rest, recorded by a
        descriptor's counter bump alone.  The counts are engine-invariant.
        """
        return {
            "dep_events": self._sum_events,
            "exact_derivations": self._tpl_installs,
            "summarized_events": self._sum_events - self._tpl_installs,
        }

    def finish(self) -> None:
        profile = self.profile
        deps = self._deps_raw
        for tpl in (
            self._tpl_raw, self._tpl_waw, self._tpl_war,
            self._same_raw, self._same_waw, self._same_war,
        ):
            for run in tpl.values():
                self._sum_events += _fold(deps, run)
            tpl.clear()
        if deps:
            dep_keys = profile.deps
            s_lines = self._s_lines
            s_vars = self._s_vars
            for key, count in deps.items():
                kind, psid, sid, region, carrier, psm, csm = key
                dep = DepKey(
                    kind, s_vars[psid], region, carrier,
                    s_lines[psid], s_lines[sid], psm, csm,
                )
                dep_keys[dep] = dep_keys.get(dep, 0) + count
            self._deps_raw = {}
        # the batched path's deferred per-region cost tables
        line_costs = profile.line_costs
        site_costs = profile.site_costs
        for region, costs in self._region_costs.items():
            for line, amount in costs.items():
                line_costs[line] = line_costs.get(line, 0) + amount
                if region >= 0:
                    key = (region, line)
                    site_costs[key] = site_costs.get(key, 0) + amount
        self._region_costs.clear()
        # Sorted by region id so live profiles iterate identically to
        # cache-round-tripped ones (the serializer emits sorted order, and
        # detector insertion order rides on this dict's iteration order).
        profile.loop_trips = {k: tuple(self._trips[k]) for k in sorted(self._trips)}
        profile.unique_array_addresses = len(self._array_addrs)
        if profile.pet is not None:
            profile.pet.compute_inclusive()
