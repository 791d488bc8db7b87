//! GPU hardware descriptions.
//!
//! A [`GpuSpec`] captures everything the timing model needs to know about a
//! device. The preset of record is [`GpuSpec::gt200`], the GPU used by the
//! GPMR paper (NVIDIA Tesla S1070, one GT200 per slot); [`GpuSpec::fermi`]
//! is provided for ablation studies (notably: hardware floating-point
//! atomics, which the GT200 lacks and which forced the paper's per-block
//! accumulation pools in K-Means).

/// Static description of a simulated GPU.
#[derive(Clone, Debug, PartialEq)]
pub struct GpuSpec {
    /// Marketing/architecture name, for display only.
    pub name: &'static str,
    /// Number of streaming multiprocessors.
    pub sm_count: u32,
    /// Scalar cores per SM.
    pub cores_per_sm: u32,
    /// Core clock in GHz.
    pub clock_ghz: f64,
    /// Usable global-memory capacity in bytes.
    pub mem_capacity: u64,
    /// Peak global-memory bandwidth in bytes/second.
    pub mem_bandwidth: f64,
    /// Shared memory per SM in bytes.
    pub shared_mem_per_sm: u32,
    /// 32-bit registers per SM.
    pub registers_per_sm: u32,
    /// Maximum resident threads per SM.
    pub max_threads_per_sm: u32,
    /// Maximum resident blocks per SM.
    pub max_blocks_per_sm: u32,
    /// Maximum threads per block (512 on GT200).
    pub max_threads_per_block: u32,
    /// SIMD width of a warp.
    pub warp_size: u32,
    /// Fixed cost of launching a kernel, in seconds.
    pub kernel_launch_overhead_s: f64,
    /// Global-memory atomic operations retired per second (serialization
    /// cost of contended atomics).
    pub atomic_throughput: f64,
    /// Whether the device supports floating-point atomics in hardware.
    /// GT200 does not; Fermi and later do.
    pub has_fp_atomics: bool,
    /// Effective slowdown multiplier applied to bytes moved by fully
    /// uncoalesced accesses (a 4-byte load costing a 32-byte transaction).
    pub uncoalesced_penalty: f64,
}

impl GpuSpec {
    /// The GPU of the GPMR paper: one GT200 of an NVIDIA Tesla S1070.
    ///
    /// 30 SMs x 8 SPs @ 1.296 GHz, 102 GB/s, 16 kB shared memory and 16 k
    /// registers per SM. The paper caps usable memory at 1 GB for its
    /// experiments, so the preset does too.
    pub fn gt200() -> Self {
        GpuSpec {
            name: "GT200 (Tesla S1070)",
            sm_count: 30,
            cores_per_sm: 8,
            clock_ghz: 1.296,
            mem_capacity: 1 << 30, // paper limits usage to 1 GB
            mem_bandwidth: 102.0e9,
            shared_mem_per_sm: 16 * 1024,
            registers_per_sm: 16 * 1024,
            max_threads_per_sm: 1024,
            max_blocks_per_sm: 8,
            max_threads_per_block: 512,
            warp_size: 32,
            kernel_launch_overhead_s: 7.0e-6,
            atomic_throughput: 0.6e9,
            has_fp_atomics: false,
            uncoalesced_penalty: 8.0,
        }
    }

    /// A Fermi-class device (GF100) for ablation experiments: FP atomics,
    /// larger shared memory, more registers, faster atomics.
    pub fn fermi() -> Self {
        GpuSpec {
            name: "GF100 (Fermi)",
            sm_count: 14,
            cores_per_sm: 32,
            clock_ghz: 1.15,
            mem_capacity: 3 << 30,
            mem_bandwidth: 144.0e9,
            shared_mem_per_sm: 48 * 1024,
            registers_per_sm: 32 * 1024,
            max_threads_per_sm: 1536,
            max_blocks_per_sm: 8,
            max_threads_per_block: 1024,
            warp_size: 32,
            kernel_launch_overhead_s: 5.0e-6,
            atomic_throughput: 2.4e9,
            has_fp_atomics: true,
            uncoalesced_penalty: 4.0,
        }
    }

    /// Peak single-precision throughput in FLOP/s, counting fused
    /// multiply-add as two operations.
    pub fn peak_flops(&self) -> f64 {
        self.sm_count as f64 * self.cores_per_sm as f64 * self.clock_ghz * 1e9 * 2.0
    }

    /// Maximum resident warps per SM.
    pub fn max_warps_per_sm(&self) -> u32 {
        self.max_threads_per_sm / self.warp_size
    }

    /// Override the usable memory capacity (the paper runs with a 1 GB cap
    /// even though the physical cards have 4 GB).
    pub fn with_mem_capacity(mut self, bytes: u64) -> Self {
        self.mem_capacity = bytes;
        self
    }

    /// Scale the device down by `law`, keeping fixed latencies (kernel
    /// launch overhead) unchanged: the clock, memory bandwidth and atomics
    /// by `law.compute`, the memory capacity by `law.data` (never below
    /// 1 MiB).
    ///
    /// This is the simulator's workload-scaling trick: a workload shrunk
    /// by `s` on hardware scaled by [`ScaleLaw::uniform`]`(s)` produces
    /// the *same* simulated times as the full workload on full hardware —
    /// per-chunk work, transfer times, and capacity pressure all shrink
    /// together while fixed overheads keep their real weight. The harness
    /// uses it so laptop-feasible runs reproduce the paper's full-scale
    /// curves; matrix multiplication shrinks by [`ScaleLaw::mm`].
    pub fn scaled(mut self, law: ScaleLaw) -> Self {
        self.clock_ghz /= law.compute;
        self.mem_bandwidth /= law.compute;
        self.atomic_throughput /= law.compute;
        self.mem_capacity = ((self.mem_capacity as f64 / law.data) as u64).max(1 << 20);
        self
    }
}

/// How a workload shrinks, and so how far the hardware running it is
/// scaled down: every `scaled` in the simulator takes one.
///
/// `compute` divides the GPU and host clocks, GPU memory bandwidth and
/// atomics; `data` divides device capacity and the PCI-e, NIC and
/// host-memory bandwidths. No law scales a latency.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ScaleLaw {
    /// Divisor of compute throughput.
    pub compute: f64,
    /// Divisor of capacity and transfer bandwidth.
    pub data: f64,
}

impl ScaleLaw {
    /// Element counts divided by `s` (at least 1): compute and data both
    /// shrink by `s`.
    pub fn uniform(s: f64) -> Self {
        let s = s.max(1.0);
        ScaleLaw {
            compute: s,
            data: s,
        }
    }

    /// Matrix orders divided by `d`: compute shrinks by `d³`, traffic and
    /// resident working sets by `d²`.
    pub fn mm(d: u64) -> Self {
        let d = d as f64;
        ScaleLaw {
            compute: d * d * d,
            data: d * d,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gt200_matches_paper_hardware() {
        let s = GpuSpec::gt200();
        assert_eq!(s.sm_count, 30);
        assert_eq!(s.max_threads_per_block, 512);
        assert!(!s.has_fp_atomics);
        assert_eq!(s.mem_capacity, 1 << 30);
        // 30 * 8 * 1.296e9 * 2 = 622.08 GFLOP/s
        assert!((s.peak_flops() - 622.08e9).abs() < 1e6);
        assert_eq!(s.max_warps_per_sm(), 32);
    }

    #[test]
    fn fermi_has_fp_atomics() {
        assert!(GpuSpec::fermi().has_fp_atomics);
    }

    #[test]
    fn mm_law_matches_its_closed_form() {
        // The closed form, written out as the oracle: compute
        // and memory bandwidth by d^3, capacity by d^2.
        let full = GpuSpec::gt200().with_mem_capacity(4 << 30);
        for k in 0..=32 {
            let d = 1u64 << k;
            let d2 = (d as f64).powi(2);
            let d3 = d2 * d as f64;
            let mut want = full.clone();
            want.clock_ghz /= d3;
            want.mem_bandwidth /= d3;
            want.atomic_throughput /= d3;
            want.mem_capacity = ((want.mem_capacity as f64 / d2) as u64).max(1 << 20);
            assert_eq!(full.clone().scaled(ScaleLaw::mm(d)), want, "d = {d}");
        }
    }

    #[test]
    fn capacity_override() {
        let s = GpuSpec::gt200().with_mem_capacity(512 << 20);
        assert_eq!(s.mem_capacity, 512 << 20);
    }
}
