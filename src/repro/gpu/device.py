"""Device catalog for the GPU performance model.

The paper evaluates on three GPUs (Sec. 6.1): RTX 4090 (Ada, Gen-3 RT
cores), Tesla A40 (Ampere, Gen-2 RT cores) and A100 (no RT cores --- OptiX
falls back to CUDA).  The numbers below capture the *relative* throughput of
each core type; they are calibrated against the public whitepaper figures the
paper cites (Ada RT cores have ~2x the ray-triangle throughput of Ampere,
4090 CUDA/Tensor throughput per SM is ~1.4x of A40) rather than absolute
cycle-accurate values.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class GPUDevice:
    """Throughput description of one GPU.

    Attributes:
        name: device name.
        cuda_cores: number of CUDA cores (for reference / documentation).
        rt_cores: number of RT cores; ``0`` means ray tracing is emulated on
            CUDA cores, as OptiX does on the A100.
        cuda_gflops: modelled CUDA-core throughput in GFLOP/s.
        tensor_gflops: modelled Tensor-core matmul throughput in GFLOP/s.
        rt_gigatraversals: modelled *effective* RT-core traversal throughput
            in giga traversal-operations (AABB tests, sphere tests, hit
            reports) per second.
        rt_emulation_penalty: slow-down factor applied when ray tracing has
            to run on CUDA cores (no RT cores present).
        memory_bandwidth_gbps: device memory bandwidth used for lookup-bound
            stages, in GB/s.
    """

    name: str
    cuda_cores: int
    rt_cores: int
    cuda_gflops: float
    tensor_gflops: float
    rt_gigatraversals: float
    rt_emulation_penalty: float
    memory_bandwidth_gbps: float

    @property
    def has_rt_cores(self) -> bool:
        """Whether hardware ray tracing is available."""
        return self.rt_cores > 0


# Relative numbers follow the NVIDIA whitepapers cited by the paper
# ([49, 50, 52, 54]): Ada Gen-3 RT cores ~2x the per-core throughput of
# Ampere Gen-2 (and the 4090 carries more of them); 4090 per-SM CUDA/Tensor
# throughput is ~1.4x of the A40; the A100 has no RT cores at all.  The
# ``rt_gigatraversals`` figures are effective rates calibrated as described
# in :mod:`repro.gpu.cost_model`.
_DEVICES: dict[str, GPUDevice] = {
    "rtx4090": GPUDevice(
        name="RTX 4090",
        cuda_cores=16384,
        rt_cores=128,
        cuda_gflops=82_600.0,
        tensor_gflops=330_000.0,
        rt_gigatraversals=500.0,
        rt_emulation_penalty=0.5,
        memory_bandwidth_gbps=1008.0,
    ),
    "a40": GPUDevice(
        name="Tesla A40",
        cuda_cores=10752,
        rt_cores=84,
        cuda_gflops=37_400.0,
        tensor_gflops=149_700.0,
        rt_gigatraversals=165.0,
        rt_emulation_penalty=0.5,
        memory_bandwidth_gbps=696.0,
    ),
    "a100": GPUDevice(
        name="Tesla A100",
        cuda_cores=6912,
        rt_cores=0,
        cuda_gflops=19_500.0,
        tensor_gflops=312_000.0,
        rt_gigatraversals=0.0,
        rt_emulation_penalty=0.5,
        memory_bandwidth_gbps=1555.0,
    ),
}


def list_devices() -> list[str]:
    """Names of all modelled devices."""
    return sorted(_DEVICES)


def get_device(name: str) -> GPUDevice:
    """Look up a device by (case-insensitive) name.

    Raises:
        KeyError: for unknown devices, listing the catalog.
    """
    key = name.lower().replace(" ", "").replace("tesla", "").replace("nvidia", "")
    if key not in _DEVICES:
        raise KeyError(f"unknown device {name!r}; available: {', '.join(list_devices())}")
    return _DEVICES[key]
