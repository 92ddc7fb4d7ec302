"""Closed-form sanity checks for the surrogate's queueing layer.

The M/G/1 priority formulas in ``repro.model.queueing`` must behave like
queueing theory says they do — no wait at zero load, divergence as
utilisation approaches 1, and the CPU class never waiting longer than
the GPU class it preempts at switch allocation — and the composed
predictor must reduce to the zero-load path latency when nothing
contends.
"""

import math

from repro.model.compose import predict
from repro.model.queueing import P95_FACTOR, cpu_gpu_waits, p95_of_mean
from conftest import small_config


def loads(cpu_rate, gpu_rate, cpu_ser=1.0, gpu_ser=9.0):
    """``(rho_cpu, rho_gpu, residual)`` of one link, as compose builds
    them: ``rho = rate * E[S]``, ``R = sum of rate * E[S^2] / 2``."""
    return (
        cpu_rate * cpu_ser,
        gpu_rate * gpu_ser,
        0.5 * (cpu_rate * cpu_ser ** 2 + gpu_rate * gpu_ser ** 2),
    )


def priority_waits(load):
    """``[CPU wait, GPU wait]`` of the surrogate's one wait function."""
    return list(cpu_gpu_waits(*load))


class TestPriorityWaits:
    def test_zero_load_means_zero_wait(self):
        waits = priority_waits(loads(0.0, 0.0))
        assert waits == [0.0, 0.0]

    def test_light_load_wait_is_residual_service(self):
        # a single class at rho << 1: W = lambda E[S^2] / 2 (1 - rho)
        lam, ser = 0.01, 9.0
        wait = priority_waits(loads(0.0, lam, gpu_ser=ser))[1]
        expected = 0.5 * lam * ser * ser / (1.0 - lam * ser)
        assert math.isclose(wait, expected, rel_tol=1e-12)

    def test_wait_monotone_in_load(self):
        prev = -1.0
        for rate in (0.01, 0.03, 0.06, 0.09, 0.10):
            waits = priority_waits(loads(0.001, rate))
            assert waits[1] > prev
            prev = waits[1]

    def test_diverges_as_rho_approaches_one(self):
        near = priority_waits(loads(0.0, 0.110))[1]   # rho = 0.99
        far = priority_waits(loads(0.0, 0.090))[1]    # rho = 0.81
        assert near > 20 * far

    def test_saturated_class_waits_forever(self):
        waits = priority_waits(loads(0.001, 0.2))  # gpu rho = 1.8
        assert waits[0] < math.inf  # CPU unaffected by GPU saturation
        assert waits[1] == math.inf

    def test_cpu_priority_wait_never_exceeds_gpu(self):
        for cpu_rate in (0.0, 0.01, 0.05):
            for gpu_rate in (0.0, 0.02, 0.08):
                waits = priority_waits(loads(cpu_rate, gpu_rate))
                assert waits[0] <= waits[1]

    def test_total_rho_mixes_classes(self):
        rho_cpu, rho_gpu, residual = loads(0.1, 0.05)
        assert math.isclose(rho_cpu + rho_gpu, 0.1 * 1.0 + 0.05 * 9.0)
        # the GPU waits behind that total, the CPU behind its own load
        w_cpu, w_gpu = cpu_gpu_waits(rho_cpu, rho_gpu, residual)
        assert math.isclose(w_cpu, residual / 0.9)
        assert math.isclose(w_gpu, residual / (0.9 * 0.45))

    def test_p95_factor(self):
        assert p95_of_mean(0.0) == 0.0
        assert math.isclose(p95_of_mean(10.0), 10.0 * P95_FACTOR)
        assert 2.9 < P95_FACTOR < 3.1


class TestComposedZeroLoad:
    def test_unsaturated_latency_is_near_the_free_path(self):
        # with 32x link bandwidth nothing queues: the prediction must sit
        # at the hop + service floor, far below the clogged latencies.
        cfg = small_config()
        cfg.noc.bandwidth_factor = 32.0
        free = predict(cfg, "NN", "blackscholes")
        assert not free.saturated
        assert free.demand_rho < 1.0
        # floor: request + reply hops plus LLC hit latency at minimum
        floor = 2 * 2.25 * (cfg.noc.router_pipeline_cycles
                            + cfg.noc.link_cycles) * 0.5
        assert free.cpu_latency_avg > floor

        cfg_clogged = small_config()
        clogged = predict(cfg_clogged, "NN", "blackscholes")
        assert clogged.saturated
        assert clogged.cpu_latency_avg > 3 * free.cpu_latency_avg

    def test_p95_dominates_the_mean(self):
        pred = predict(small_config(), "HS", "bodytrack")
        assert pred.cpu_latency_p95 > pred.cpu_latency_avg
        assert pred.gpu_latency_p95 > pred.gpu_latency_avg
