"""Synthetic workloads standing in for the paper's benchmark traces."""

from repro.workloads.cpu import (
    CPU_BENCHMARK_NAMES,
    CPU_BENCHMARKS,
    CpuBenchmarkProfile,
    CpuTraceGenerator,
    cpu_benchmark,
)
from repro.workloads.gpu import (
    GPU_BENCHMARK_NAMES,
    GPU_BENCHMARKS,
    GpuBenchmarkProfile,
    GpuTraceGenerator,
    SharedWavefront,
    gpu_benchmark,
)
from repro.workloads.mixes import TABLE_II

__all__ = [
    "CPU_BENCHMARKS",
    "CPU_BENCHMARK_NAMES",
    "CpuBenchmarkProfile",
    "CpuTraceGenerator",
    "GPU_BENCHMARKS",
    "GPU_BENCHMARK_NAMES",
    "GpuBenchmarkProfile",
    "GpuTraceGenerator",
    "SharedWavefront",
    "TABLE_II",
    "cpu_benchmark",
    "gpu_benchmark",
]
