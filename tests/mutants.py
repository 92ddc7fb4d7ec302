"""The mutant catalogue: one-line breakages the named tests must catch.

Each row names a place in ``src/`` (``file``, and ``line``: the exact
source text, indentation included, one line or a few consecutive ones),
what it becomes (``replacement``), the test node ids of which at least
one must fail once it is applied (``tests``), and the ROADMAP item the
row serves.  ``.github/scripts/mutants.py`` applies each row to a
temporary copy of ``src/``, runs ``pytest -x -q`` on its tests and
reports it killed, survived or stale (its line is gone).

A row marked ``survives`` is a known gap: no test kills it yet, and
``item`` names the ROADMAP item that should.  A change that moves or
rewrites a row's line fixes the row or deletes it in the same change.

This is plain data: the runner loads it with the standard library alone.
"""

from __future__ import annotations

from typing import NamedTuple, Tuple


class Mutant(NamedTuple):
    id: str
    file: str
    line: str
    replacement: str
    tests: Tuple[str, ...]
    item: str
    survives: bool = False


LAWS = "tests/test_mechanism_laws.py"
NIC = "tests/test_nic.py"
MEMORY_NODE = "tests/test_memory_node.py"
VECTOR = "tests/test_vector_kernel.py"
SLEEP = "tests/test_perf_equivalence.py"
CORE = "tests/test_gpu_core.py"
BLAME = "tests/test_stall_attribution.py"
ROUTER = "tests/test_router_network.py"
PINS = ("tests/test_pinned_results.py::"
        "test_results_match_the_pins_recorded_under_this_code_version")

MUTANTS = (
    # -- Delegated Replies: the memory node's decision and the NIC's
    #    conversion (ROADMAP item 2)
    Mutant(
        id="dr-delegate-regardless-of-blocking",
        file="repro/noc/nic.py",
        line="            self.delegate_only_when_blocked",
        replacement="            False",
        tests=(
            f"{NIC}::TestDelegationTrigger::test_no_delegation_while_replies_flow",
            f"{LAWS}::test_idle_dr_is_the_baseline",
        ),
        item="2(a)",
    ),
    Mutant(
        id="dr-drop-dnf-check",
        file="repro/sim/memory_node.py",
        line="            and not req.dnf",
        replacement="            and True",
        tests=(
            f"{MEMORY_NODE}::TestDelegationMetadata::test_dnf_request_never_redelegated",
            f"{LAWS}::test_dnf_request_is_never_delegated_again",
        ),
        item="2(b)",
    ),
    Mutant(
        id="dr-reply-names-no-delegate",
        file="repro/sim/memory_node.py",
        line="            delegate_to=delegate_to,",
        replacement="            delegate_to=None,",
        tests=(
            f"{MEMORY_NODE}::TestDelegationMetadata::test_second_reader_gets_delegation_target",
            f"{LAWS}::test_every_primary_miss_ends_once",
        ),
        item="2(b)",
    ),
    Mutant(
        id="frq-remote-miss-not-bounced",
        file="repro/gpu/core.py",
        line="                        self._dnf_out.append((req, block))",
        replacement="                        pass",
        tests=(f"{LAWS}::test_every_primary_miss_ends_once",),
        item="2(b)",
    ),
    Mutant(
        id="frq-remote-hit-also-bounced",
        file="repro/gpu/core.py",
        line="                        self._c2c_out.append((req, block))",
        replacement=(
            "                        self._c2c_out.append((req, block))"
            "; self._dnf_out.append((req, block))"
        ),
        tests=(f"{LAWS}::test_every_primary_miss_ends_once",),
        item="2(b)",
    ),
    Mutant(
        id="watchdog-drops-its-waiter",
        file="repro/gpu/core.py",
        line="                self._dnf_out.append((requester, block))",
        replacement="                pass",
        tests=(f"{LAWS}::test_every_primary_miss_ends_once",),
        item="2(b)",
    ),
    Mutant(
        # remote requests before local issue is the paper's deadlock-
        # avoidance rule (Section IV); no test shows it is load-bearing
        id="frq-local-before-remote",
        file="repro/gpu/core.py",
        line=(
            "        if self._probe_in or len(self.frq):\n"
            "            self._serve_remote(cycle)\n"
            "        self._issue_local(cycle)"
        ),
        replacement=(
            "        self._issue_local(cycle)\n"
            "        if self._probe_in or len(self.frq):\n"
            "            self._serve_remote(cycle)"
        ),
        tests=(LAWS,),
        item="2(e), 11(e)",
        survives=True,
    ),
    # the two facts that carry the remote-first rule in this model (item
    # 2(e)); no law kills them yet, but both move simulated results
    Mutant(
        id="drain-after-issue",
        file="repro/gpu/core.py",
        line=(
            "        if self._c2c_out or self._nack_out or self._dnf_out or self._fallback_out:\n"
            "            self._drain_outgoing(cycle)\n"
            "        if self._probe_in or len(self.frq):\n"
            "            self._serve_remote(cycle)\n"
            "        self._issue_local(cycle)"
        ),
        replacement=(
            "        if self._probe_in or len(self.frq):\n"
            "            self._serve_remote(cycle)\n"
            "        self._issue_local(cycle)\n"
            "        if self._c2c_out or self._nack_out or self._dnf_out or self._fallback_out:\n"
            "            self._drain_outgoing(cycle)"
        ),
        tests=(PINS,),
        item="15",
    ),
    Mutant(
        id="frq-waits-for-mshr",
        file="repro/gpu/core.py",
        line="        entry = self.frq.peek()",
        replacement=(
            "        if self.mshrs.full:\n"
            "            return\n"
            "        entry = self.frq.peek()"
        ),
        tests=(PINS,),
        item="15",
    ),
    # -- the object kernel's NIC and wake-ups (ROADMAP item 1)
    Mutant(
        id="nic-highest-vc-first",
        file="repro/noc/nic.py",
        line="        for ivc in row:",
        replacement="        for ivc in reversed(row):",
        tests=(f"{VECTOR}::test_in_flight_worms_inject_lowest_vc_first",),
        item="1(a)",
    ),
    Mutant(
        id="switch-pair-in-scan-order",
        file="repro/noc/network.py",
        line="                        cands, keys = [ivc, first], [key, first_key]",
        replacement="                        cands, keys = [first, ivc], [first_key, key]",
        tests=(f"{ROUTER}::TestSwitchAllocation::"
               "test_key_order_grants_what_a_stable_sort_grants[False]",),
        item="1(a)",
    ),
    Mutant(
        id="switch-ties-not-stable",
        file="repro/noc/network.py",
        line="                    while i and keys[i - 1] > key:",
        replacement="                    while i and keys[i - 1] >= key:",
        tests=(f"{ROUTER}::TestSwitchAllocation::"
               "test_key_order_grants_what_a_stable_sort_grants[False]",),
        item="1(a)",
    ),
    Mutant(
        id="no-nic-drain-wake",
        file="repro/noc/network.py",
        line="                active_nics.add(router.rid)",
        replacement="                pass",
        tests=(f"{SLEEP}::test_synthetic_counters_bit_identical",),
        item="1(a)",
    ),
    # -- GPU cores that sleep until something can change them (DESIGN.md
    #    §6.3), and the locality oracle's holder counts (ROADMAP items 1, 12)
    Mutant(
        id="core-packet-no-wake",
        file="repro/gpu/core.py",
        line="            self.wake_at = 0  # a delivery is a wake event (see below)",
        replacement="            pass",
        tests=(
            f"{CORE}::TestSleepAndSettle::test_fill_wakes_and_settles_before_the_next_issue",
            f"{SLEEP}::test_sleeping_cores_bit_identical",
        ),
        item="12",
    ),
    Mutant(
        id="core-stall-no-wake",
        file="repro/gpu/core.py",
        line=(
            "        self.wake_at = 0\n"
            "        self.stall_until = max(self.stall_until, until)"
        ),
        replacement="        self.stall_until = max(self.stall_until, until)",
        tests=(
            f"{CORE}::TestSleepAndSettle::test_stall_settles_against_the_old_stall_until",
            f"{SLEEP}::test_quiesce_reaches_sleeping_cores",
        ),
        item="12",
    ),
    Mutant(
        id="core-sleep-ignores-presence",
        file="repro/gpu/core.py",
        line="                    and not mshrs.has(block) and not l1.contains(block)",
        replacement="                    and True",
        tests=(
            f"{CORE}::TestSleepAndSettle::"
            "test_stalled_warp_that_would_no_longer_fail_ends_the_sleep",
            f"{SLEEP}::test_sleeping_cores_bit_identical",
        ),
        item="12",
    ),
    Mutant(
        id="core-sleep-ignores-full-nic",
        file="repro/gpu/core.py",
        line="            nic_full = not self.nic.can_enqueue(REQUEST_NET)",
        replacement="            nic_full = False",
        tests=(f"{CORE}::TestSleepAndSettle::test_full_nic_queue_is_slept_on_until_its_pop",),
        item="12",
    ),
    Mutant(
        id="core-sleep-tie-flipped",
        file="repro/gpu/core.py",
        line="                wake = due + k - 1 + (last < head[1])",
        replacement="                wake = due + k - 1 + (last > head[1])",
        tests=(f"{CORE}::TestSleepAndSettle::test_untried_warp_gets_its_turn_on_time",),
        item="12",
    ),
    Mutant(
        id="core-sleep-ignores-untried-warp",
        file="repro/gpu/core.py",
        line="                if entry > untried or not (",
        replacement="                if not (",
        tests=(f"{CORE}::TestSleepAndSettle::test_untried_warp_gets_its_turn_on_time",),
        item="12",
    ),
    Mutant(
        id="core-sleep-no-frq-head-timer",
        file="repro/gpu/core.py",
        line="            wake = min(wake, delegated[2] + self._hit_latency)",
        replacement="            pass",
        tests=(f"{SLEEP}::test_quiesce_reaches_sleeping_cores",),
        item="12",
    ),
    Mutant(
        id="core-sleep-no-sweep-timer",
        file="repro/gpu/core.py",
        line="            wake = min(wake, (cycle // period + 1) * period)",
        replacement="            pass",
        tests=(f"{CORE}::TestSleepAndSettle::test_watchdog_sweep_wakes_a_sleeping_core",),
        item="12",
    ),
    Mutant(
        id="core-owed-from-off-by-one",
        file="repro/gpu/core.py",
        line="            self._owed_from = first_issue",
        replacement="            self._owed_from = first_issue + 1",
        tests=(f"{CORE}::TestSleepAndSettle::test_settle_equals_real_failed_steps",),
        item="12",
    ),
    Mutant(
        id="core-settle-no-rotate",
        file="repro/gpu/core.py",
        line="            stalled.rotate(-rest)",
        replacement="            pass",
        tests=(f"{CORE}::TestSleepAndSettle::test_settle_equals_real_failed_steps",),
        item="12",
    ),
    Mutant(
        id="nic-no-first-send-wake",
        file="repro/noc/nic.py",
        line="            self.fabric.mark_nic_active(self.node_id)",
        replacement="            pass",
        tests=(f"{SLEEP}::test_synthetic_counters_bit_identical",),
        item="1(a)",
    ),
    Mutant(
        id="nic-no-object-pop-wake",
        file="repro/noc/nic.py",
        line="            if self.sleeper is not None and net is REQUEST_NET:",
        replacement="            if False:",
        tests=(f"{SLEEP}::test_cores_refused_by_the_nic_sleep[object]",),
        item="12",
    ),
    Mutant(
        id="nic-no-vector-pop-wake",
        file="repro/sim/vector/kernel.py",
        line="                if woke.any():  # a core sleeps on one of these queues",
        replacement="                if False:",
        tests=(f"{SLEEP}::test_cores_refused_by_the_nic_sleep[vector]",),
        item="12",
    ),
    Mutant(
        id="oracle-keeps-evicted",
        file="repro/cache/cache.py",
        line="                self.watcher(victim, -1)",
        replacement="                pass",
        tests=(f"{SLEEP}::test_full_telemetry_under_loss_bit_identical",),
        item="12",
    ),
    # -- the blame chain walker, the survey's one walker (ROADMAP item 12)
    Mutant(
        id="blame-no-reply-buffer-hop",
        file="repro/telemetry/blame.py",
        line='''        hops.append({"node": r.rid, "net": "mem", "class": "reply_buffer"})''',
        replacement="        pass",
        tests=(f"{BLAME}::TestBlameChains::test_chain_terminates_at_reply_buffer",),
        item="12",
    ),
    Mutant(
        id="blame-vc-alloc-not-followed",
        file="repro/telemetry/blame.py",
        line='''        if klass not in ("credit", "vc_alloc") or nxt is None \\''',
        replacement='''        if klass not in ("credit",) or nxt is None \\''',
        tests=(f"{BLAME}::TestWalkChain::"
               "test_chain_follows_credit_and_vc_alloc_to_its_terminal",),
        item="12",
    ),
    Mutant(
        id="blame-no-visited-check",
        file="repro/telemetry/blame.py",
        line="        if ivc in visited:",
        replacement="        if False:",
        tests=(f"{BLAME}::TestWalkChain::"
               "test_vcs_waiting_on_each_other_end_in_a_cyclic_hop",),
        item="12",
    ),
    Mutant(
        id="blame-no-hop-limit",
        file="repro/telemetry/blame.py",
        line="                or len(hops) >= max_hops:",
        replacement="                or False:",
        tests=(f"{BLAME}::TestWalkChain::test_chain_is_cut_at_max_hops",),
        item="12",
    ),
    Mutant(
        id="no-body-arrival-wake",
        file="repro/noc/network.py",
        line="                            ids.add(down.rid)",
        replacement="                            pass",
        tests=(f"{SLEEP}::test_synthetic_counters_bit_identical",),
        item="1(a)",
    ),
)
