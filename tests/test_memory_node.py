"""Tests for the memory-node endpoint (LLC + controller behind the NIC)."""

from repro.noc import MeshTopology, MessageType, NocFabric, Packet, TrafficClass
from repro.noc.nic import MemoryNodeNic
from repro.sim.memory_node import MemoryNode

from conftest import small_config, small_dr_config


class Harness:
    def __init__(self, delegation=False, node=4):
        self.cfg = small_dr_config() if delegation else small_config()
        topo = MeshTopology(4, 4)
        self.fabric = NocFabric(topo, self.cfg.noc, mem_nodes=(node,))
        nic = self.fabric.nic(node)
        assert isinstance(nic, MemoryNodeNic)
        self.mem = MemoryNode(
            node_id=node,
            cfg=self.cfg,
            nic=nic,
            gpu_nodes={8, 9, 10, 11, 12, 13, 14, 15},
        )
        self.replies = {}
        for n in range(16):
            if n != node:
                self.fabric.nic(n).handler = (
                    lambda pkt, cyc, _n=n: self.replies.setdefault(_n, []).append(pkt)
                )

    def inject(self, pkt, cycle=0):
        self.mem.on_packet(pkt, cycle)

    def run(self, cycles, start=0):
        for cyc in range(start, start + cycles):
            self.mem.step(cyc)
            self.fabric.step(cyc)

    def replies_at(self, node):
        return self.replies.get(node, [])


def gpu_read(src, block, dnf=False):
    mtype = MessageType.DNF_REQ if dnf else MessageType.READ_REQ
    pkt = Packet(src, 4, mtype, TrafficClass.GPU, 1, block=block)
    return pkt


class TestRequestReplyFlow:
    def test_gpu_read_produces_9_flit_reply(self):
        h = Harness()
        h.inject(gpu_read(9, 0x100))
        h.run(400)
        (reply,) = h.replies_at(9)
        assert reply.mtype is MessageType.READ_REPLY
        assert reply.size_flits == 9
        assert reply.block == 0x100

    def test_cpu_read_produces_5_flit_reply_with_original_block(self):
        h = Harness()
        pkt = Packet(0, 4, MessageType.READ_REQ, TrafficClass.CPU, 1,
                     block=0x201)  # 64 B block id
        h.inject(pkt)
        h.run(400)
        (reply,) = h.replies_at(0)
        assert reply.size_flits == 5
        assert reply.block == 0x201          # requester's view echoed
        assert h.mem.llc.cache.contains(0x100)  # stored at 128 B granularity

    def test_write_produces_single_flit_ack(self):
        h = Harness()
        pkt = Packet(9, 4, MessageType.WRITE_REQ, TrafficClass.GPU, 9,
                     block=0x300)
        h.inject(pkt)
        h.run(200)
        (ack,) = h.replies_at(9)
        assert ack.mtype is MessageType.WRITE_ACK
        assert ack.size_flits == 1


class TestDelegationMetadata:
    def _warm(self, h, requester, block):
        h.inject(gpu_read(requester, block))
        h.run(400)
        h.replies.clear()

    def test_second_reader_gets_delegation_target(self):
        h = Harness(delegation=True)
        self._warm(h, 9, 0x100)
        h.inject(gpu_read(10, 0x100), cycle=400)
        h.run(200, start=400)
        (reply,) = h.replies_at(10)
        assert h.mem.llc.stats.hits == 1
        assert reply.delegate_to == 9

    def test_same_reader_not_delegatable(self):
        h = Harness(delegation=True)
        self._warm(h, 9, 0x100)
        h.inject(gpu_read(9, 0x100), cycle=400)
        h.run(200, start=400)
        (reply,) = h.replies_at(9)
        assert reply.delegate_to is None

    def test_dnf_request_never_redelegated(self):
        # Section IV: the DNF bit tells the LLC to process the request and
        # not forward it again
        h = Harness(delegation=True)
        self._warm(h, 9, 0x100)
        h.inject(gpu_read(10, 0x100, dnf=True), cycle=400)
        h.run(200, start=400)
        (reply,) = h.replies_at(10)
        assert reply.delegate_to is None
        # and the pointer moved to the (original) requester
        assert h.mem.llc.pointer_of(0x100) == 10

    def test_llc_miss_not_delegatable(self):
        h = Harness(delegation=True)
        h.inject(gpu_read(9, 0x500))
        h.run(400)
        (reply,) = h.replies_at(9)
        assert h.mem.llc.stats.hits == 0
        assert reply.delegate_to is None

    def test_cpu_requester_pointer_ineligible(self):
        h = Harness(delegation=True)
        self._warm(h, 9, 0x100)
        # CPU reads the sibling 64 B half: no delegation for CPU replies
        pkt = Packet(0, 4, MessageType.READ_REQ, TrafficClass.CPU, 1,
                     block=0x200)  # 128 B block 0x100
        h.inject(pkt, cycle=400)
        h.run(200, start=400)
        (reply,) = h.replies_at(0)
        assert reply.delegate_to is None

    def test_write_ack_never_delegatable(self):
        h = Harness(delegation=True)
        self._warm(h, 9, 0x100)
        h.inject(Packet(10, 4, MessageType.WRITE_REQ, TrafficClass.GPU, 9,
                        block=0x100), cycle=400)
        h.run(200, start=400)
        (ack,) = h.replies_at(10)
        assert ack.mtype is MessageType.WRITE_ACK
        assert ack.delegate_to is None

    def test_baseline_never_delegates(self):
        h = Harness(delegation=False)
        self._warm(h, 9, 0x100)
        h.inject(gpu_read(10, 0x100), cycle=400)
        h.run(200, start=400)
        (reply,) = h.replies_at(10)
        assert reply.delegate_to is None


class TestBackpressure:
    def test_eject_gate_follows_llc_capacity(self):
        h = Harness()
        probe = Packet(9, 4, MessageType.READ_REQ, TrafficClass.GPU, 1,
                       block=1)
        assert h.mem.nic.can_eject(probe)
        for i in range(h.cfg.llc.input_queue):
            assert h.mem.llc.enqueue(_mk_req(100 + i))
        assert not h.mem.nic.can_eject(probe)

    def test_overflow_queue_preserves_requests(self):
        h = Harness()
        for i in range(h.cfg.llc.input_queue + 4):
            h.inject(gpu_read(9, 0x1000 + i))
        h.run(2000)
        assert len(h.replies_at(9)) == h.cfg.llc.input_queue + 4


def _mk_req(block):
    from repro.cache.llc import LlcRequest
    return LlcRequest(
        requester=9, block=block, is_write=False,
        cls=TrafficClass.GPU, gpu_core=True, orig_block=block,
    )


class TestPointerLifecycle:
    def test_flush_pointers(self):
        h = Harness(delegation=True)
        h.inject(gpu_read(9, 0x10))
        h.run(400)
        assert h.mem.llc.pointer_of(0x10) == 9
        assert h.mem.flush_pointers() == 1
        assert h.mem.llc.pointer_of(0x10) is None

    def test_write_kills_pointer(self):
        h = Harness(delegation=True)
        h.inject(gpu_read(9, 0x10))
        h.run(400)
        h.inject(Packet(10, 4, MessageType.WRITE_REQ, TrafficClass.GPU, 9,
                        block=0x10), cycle=400)
        h.run(200, start=400)
        assert h.mem.llc.pointer_of(0x10) is None
