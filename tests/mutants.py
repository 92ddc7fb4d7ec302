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
        id="no-nic-drain-wake",
        file="repro/noc/network.py",
        line="                active_nics.add(router.rid)",
        replacement="                pass",
        tests=(f"{SLEEP}::test_synthetic_counters_bit_identical",),
        item="1(a)",
    ),
    # -- endpoints that sleep until something can change them, and the
    #    locality oracle's holder counts (ROADMAP items 1, 12)
    Mutant(
        id="mem-no-drain-wake",
        file="repro/noc/nic.py",
        line="        elif self.sleeper is not None:  # its memory node waits on space",
        replacement="        elif False:",
        tests=(
            f"{SLEEP}::test_full_system_counters_bit_identical",
            f"{SLEEP}::test_full_telemetry_under_loss_bit_identical",
        ),
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
    Mutant(
        id="no-body-arrival-wake",
        file="repro/noc/network.py",
        line="                            ids.add(down.rid)",
        replacement="                            pass",
        tests=(f"{SLEEP}::test_synthetic_counters_bit_identical",),
        item="1(a)",
    ),
)
