"""Analytical latency model for the three-stage search pipeline.

The model converts the operation counts of a :class:`repro.gpu.work.SearchWork`
record into per-stage latencies on a chosen :class:`repro.gpu.device.GPUDevice`:

* **filtering** -- a dense matmul-style workload executed on Tensor cores
  (Sec. 5.3 maps it onto cuBLAS).
* **L2-LUT construction** -- either pairwise distance FLOPs on CUDA cores
  (the FAISS baseline) or BVH traversal / sphere-test work on RT cores
  (JUNO); on a GPU without RT cores the traversal is emulated on CUDA cores
  with a penalty, mirroring how OptiX falls back on the A100.
* **distance calculation** -- LUT lookups and accumulations, modelled as a
  memory-bandwidth-bound stage, optionally helped by mapping the accumulation
  onto Tensor cores (Sec. 5.3).

Calibration.  The constants below are *effective* throughputs, not peak
specs: the LUT-construction and distance-calculation kernels the paper
profiles (Fig. 3(a)) reach only a small fraction of peak FLOPs because they
are short, scattered and memory-bound.  The efficiency factors are chosen so
that (i) LUT construction and distance calculation dominate the baseline's
latency and grow linearly with ``nprobs`` (Fig. 3(a)), (ii) hardware ray
tracing makes the selective LUT construction cheaper than the dense CUDA
construction while CUDA-emulated ray tracing makes it more expensive
(Fig. 14(a)), and (iii) the resulting end-to-end speed-ups land in the
2x-8x band the paper reports.  Absolute microsecond values are not meant to
match the authors' silicon.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.gpu.device import GPUDevice, get_device
from repro.gpu.work import SearchWork

# Fixed per-batch launch overhead (seconds) applied to every stage.
_LAUNCH_OVERHEAD_S = 2.0e-6
# Fraction of peak Tensor-core throughput achieved by the filtering matmul.
_FILTER_TENSOR_EFFICIENCY = 0.2
# Fraction of peak CUDA throughput achieved by the scattered little kernels
# of LUT construction (pairwise subspace distances, hit shaders, threshold
# regression).  FAISS's measured LUT-construction times imply an efficiency
# of well under one percent for this stage.
_CUDA_SCATTER_EFFICIENCY = 0.002
# Fraction of peak memory bandwidth achieved by the random LUT lookups of the
# distance-calculation stage.
_MEMORY_EFFICIENCY = 0.4
# Fraction of peak Tensor throughput achieved by the ADC accumulation matmul.
_TENSOR_ADC_EFFICIENCY = 0.02
# CUDA-flop cost of one hit-shader invocation (register math recovering the
# distance from t_hit) and of one threshold-regressor evaluation.  The NumPy
# tracer hands the selective LUT the sphere test's d^2 and skips the decode,
# but an RT core reports only t_hit, so the modelled hardware still pays it.
_HIT_SHADER_FLOPS = 12.0
_THRESHOLD_INFERENCE_FLOPS = 8.0
# Bytes touched per LUT lookup + accumulation in the distance calc stage.
_BYTES_PER_LOOKUP = 8.0
# Work units an accepted hit adds to the RT pipeline (result reporting).
_RT_HIT_OPS = 2.0
# CUDA-flop cost of keeping one candidate in the k-selection kernel.
_SORT_FLOPS_PER_CANDIDATE = 4.0
# Fraction of the ADC accumulation absorbed by the Tensor-core mapping.
_TENSOR_ACCUMULATION_FRACTION = 0.85


@dataclass(frozen=True)
class StageLatency:
    """Per-stage and total modelled latencies, in seconds.

    Attributes:
        filter_s: coarse filtering latency.
        lut_s: L2-LUT construction latency.
        distance_s: distance calculation (ADC) latency.
        total_s: end-to-end latency for the batch (serial or pipelined,
            depending on how it was produced).
        pipelined: whether LUT construction and distance calculation were
            overlapped.
    """

    filter_s: float
    lut_s: float
    distance_s: float
    total_s: float
    pipelined: bool = False

    def breakdown(self) -> dict[str, float]:
        """Stage latencies as a dictionary (for reports and plots)."""
        return {
            "filter": self.filter_s,
            "lut_construction": self.lut_s,
            "distance_calculation": self.distance_s,
            "total": self.total_s,
        }


class CostModel:
    """Convert :class:`SearchWork` into stage latencies on a device.

    Args:
        device: a :class:`GPUDevice` or a device name understood by
            :func:`repro.gpu.device.get_device`.
        use_tensor_core_accumulation: model the Sec. 5.3 optimisation that
            maps the ADC accumulation onto Tensor cores.
    """

    def __init__(
        self,
        device: GPUDevice | str = "rtx4090",
        use_tensor_core_accumulation: bool = True,
    ) -> None:
        self.device = device if isinstance(device, GPUDevice) else get_device(device)
        self.use_tensor_core_accumulation = bool(use_tensor_core_accumulation)

    # ------------------------------------------------------------- helpers
    def _cuda_scatter_rate(self) -> float:
        """Effective FLOP/s for scattered CUDA kernels."""
        return self.device.cuda_gflops * 1e9 * _CUDA_SCATTER_EFFICIENCY

    def _rt_rate(self) -> float:
        """Effective traversal ops/s, falling back to CUDA emulation.

        Emulated traversal executes one AABB/sphere test per handful of CUDA
        FLOPs at the same scatter efficiency as the dense LUT kernels, times
        a divergence penalty -- so a GPU without RT cores pays roughly
        ``rt_emulation_penalty`` more per traversal op than per pairwise
        distance (Fig. 14(a)).
        """
        if self.device.has_rt_cores:
            return self.device.rt_gigatraversals * 1e9
        return self._cuda_scatter_rate() / (6.0 * self.device.rt_emulation_penalty)

    # ------------------------------------------------------------ per stage
    def filter_latency(self, work: SearchWork) -> float:
        """Coarse filtering latency (Tensor-core matmul workload).

        Exact-rerank FLOPs are included here: rescoring merged candidates
        against the raw corpus is the same dense matmul-style workload as
        centroid scoring.
        """
        rate = self.device.tensor_gflops * 1e9 * _FILTER_TENSOR_EFFICIENCY
        return _LAUNCH_OVERHEAD_S + (work.filter_flops + work.rerank_flops) / rate

    def lut_latency(self, work: SearchWork) -> float:
        """L2-LUT construction latency (CUDA pairwise or RT traversal)."""
        cuda_flops = (
            work.lut_flops()
            + work.threshold_inferences * _THRESHOLD_INFERENCE_FLOPS
            + work.rt_hits * _HIT_SHADER_FLOPS
        )
        cuda_time = cuda_flops / self._cuda_scatter_rate()
        rt_time = 0.0
        if work.rt_rays > 0:
            traversal_ops = (
                work.rt_node_visits
                + work.rt_aabb_tests
                + work.rt_prim_tests
                + work.rt_hits * _RT_HIT_OPS
            )
            rt_time = traversal_ops / self._rt_rate()
        return _LAUNCH_OVERHEAD_S + cuda_time + rt_time

    def distance_latency(self, work: SearchWork) -> float:
        """Distance calculation (ADC accumulation + top-k) latency."""
        lookup_bytes = work.adc_lookups * _BYTES_PER_LOOKUP
        bandwidth_time = lookup_bytes / (
            self.device.memory_bandwidth_gbps * 1e9 * _MEMORY_EFFICIENCY
        )
        accumulate_flops = work.adc_lookups
        if self.use_tensor_core_accumulation:
            tensor_part = accumulate_flops * _TENSOR_ACCUMULATION_FRACTION
            cuda_part = accumulate_flops - tensor_part
            compute_time = tensor_part / (
                self.device.tensor_gflops * 1e9 * _TENSOR_ADC_EFFICIENCY
            ) + cuda_part / self._cuda_scatter_rate()
        else:
            compute_time = accumulate_flops / self._cuda_scatter_rate()
        sort_time = work.sorted_candidates * _SORT_FLOPS_PER_CANDIDATE / self._cuda_scatter_rate()
        return _LAUNCH_OVERHEAD_S + max(bandwidth_time, compute_time) + sort_time

    # ------------------------------------------------- pipeline-stage routing
    #: Which latency model each named query-pipeline stage runs under.  The
    #: coarse filter and the exact rerank are dense matmul workloads (Tensor
    #: cores); threshold inference and RT selection belong to LUT
    #: construction; scoring and top-k are the memory-bound distance
    #: calculation.  Unknown (custom) stage names default to the distance
    #: model, the most conservative of the three.
    STAGE_ROUTES = {
        "coarse_filter": "filter",
        "exact_rerank": "filter",
        "threshold": "lut",
        "rt_select": "lut",
        "score": "distance",
        "top_k": "distance",
    }

    def stage_latency(self, stage_name: str, work: SearchWork) -> float:
        """Modelled latency of one named pipeline stage's work slice."""
        route = self.STAGE_ROUTES.get(stage_name, "distance")
        if route == "filter":
            return self.filter_latency(work)
        if route == "lut":
            return self.lut_latency(work)
        return self.distance_latency(work)

    def stage_latencies(self, stage_work: dict[str, SearchWork]) -> dict[str, float]:
        """Modelled seconds per pipeline stage, keyed like the input.

        ``stage_work`` is the per-stage :class:`SearchWork` breakdown a
        :class:`~repro.pipeline.pipeline.QueryPipeline` records under
        ``result.extra["stage_work"]``.  Because every stage slice pays the
        fixed launch overhead, the sum over stages exceeds
        :meth:`serial_latency` by ``(num_stages - 3)`` launch overheads --
        stages are modelled as separately launched kernels.
        """
        return {name: self.stage_latency(name, work) for name, work in stage_work.items()}

    # --------------------------------------------------------------- totals
    def serial_latency(self, work: SearchWork) -> StageLatency:
        """Latency when the three stages run back to back (no pipelining)."""
        filter_s = self.filter_latency(work)
        lut_s = self.lut_latency(work)
        distance_s = self.distance_latency(work)
        return StageLatency(
            filter_s=filter_s,
            lut_s=lut_s,
            distance_s=distance_s,
            total_s=filter_s + lut_s + distance_s,
            pipelined=False,
        )

    def pipelined_latency(
        self, work: SearchWork, overhead_fraction: float = 0.05
    ) -> StageLatency:
        """Latency with the Sec. 5.3 RT/Tensor pipeline overlap.

        LUT construction (RT cores) and distance calculation (Tensor cores)
        overlap; the slower of the two bounds the pipeline, plus a data
        padding/transformation overhead of ``overhead_fraction`` (the paper
        reports < 5%).
        """
        filter_s = self.filter_latency(work)
        lut_s = self.lut_latency(work)
        distance_s = self.distance_latency(work)
        overlapped = max(lut_s, distance_s) * (1.0 + overhead_fraction)
        return StageLatency(
            filter_s=filter_s,
            lut_s=lut_s,
            distance_s=distance_s,
            total_s=filter_s + overlapped,
            pipelined=True,
        )

    def latency(self, work: SearchWork, pipelined: bool = False) -> StageLatency:
        """Dispatch to :meth:`serial_latency` or :meth:`pipelined_latency`."""
        if pipelined:
            return self.pipelined_latency(work)
        return self.serial_latency(work)

    def qps(self, work: SearchWork, pipelined: bool = False) -> float:
        """Modelled queries per second for the batch described by ``work``."""
        if work.num_queries <= 0:
            raise ValueError("work.num_queries must be positive")
        total = self.latency(work, pipelined=pipelined).total_s
        return work.num_queries / total
