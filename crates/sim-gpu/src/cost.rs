//! The kernel cost model.
//!
//! Kernels account for the work they do through [`KernelCost`] counters
//! (recorded via [`BlockCtx`](crate::kernel::BlockCtx) helpers). The device
//! converts an aggregate cost into simulated time with a roofline model:
//! a kernel's execution time is the larger of its compute time and its
//! memory time, plus atomic serialization, plus the fixed launch overhead —
//! the standard first-order model for throughput-oriented processors.

use std::iter::Sum;
use std::ops::{Add, AddAssign};

use crate::spec::GpuSpec;
use crate::time::SimDuration;

/// Work counters accumulated by a kernel.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KernelCost {
    /// Arithmetic operations (one FLOP or one integer op each).
    pub flops: u64,
    /// Bytes moved to/from global memory by coalesced (full-width)
    /// transactions.
    pub bytes_coalesced: u64,
    /// Bytes moved by uncoalesced accesses; each byte is charged
    /// [`GpuSpec::uncoalesced_penalty`] times.
    pub bytes_uncoalesced: u64,
    /// Global-memory atomic operations (assumed contended; serialized at
    /// [`GpuSpec::atomic_throughput`]).
    pub atomic_ops: u64,
}

impl KernelCost {
    /// A zero cost.
    pub const ZERO: KernelCost = KernelCost {
        flops: 0,
        bytes_coalesced: 0,
        bytes_uncoalesced: 0,
        atomic_ops: 0,
    };

    /// Total effective bytes after applying the uncoalesced penalty.
    pub fn effective_bytes(&self, spec: &GpuSpec) -> f64 {
        self.bytes_coalesced as f64 + self.bytes_uncoalesced as f64 * spec.uncoalesced_penalty
    }
}

impl Add for KernelCost {
    type Output = KernelCost;
    fn add(self, rhs: KernelCost) -> KernelCost {
        KernelCost {
            flops: self.flops + rhs.flops,
            bytes_coalesced: self.bytes_coalesced + rhs.bytes_coalesced,
            bytes_uncoalesced: self.bytes_uncoalesced + rhs.bytes_uncoalesced,
            atomic_ops: self.atomic_ops + rhs.atomic_ops,
        }
    }
}

impl AddAssign for KernelCost {
    fn add_assign(&mut self, rhs: KernelCost) {
        *self = *self + rhs;
    }
}

impl Sum for KernelCost {
    fn sum<I: Iterator<Item = KernelCost>>(iter: I) -> Self {
        iter.fold(KernelCost::ZERO, |a, b| a + b)
    }
}

/// Convert an aggregate kernel cost into execution time on `spec`.
///
/// `occupancy` in `(0, 1]` scales how well the kernel hides latency: low
/// occupancy cannot saturate the memory system or the ALUs. The scaling is
/// soft — half occupancy is usually enough to reach most of peak — modelled
/// as `eff = clamp(2 * occupancy, 0.25, 1.0)`.
pub fn kernel_time(spec: &GpuSpec, occupancy: f64, cost: &KernelCost) -> SimDuration {
    let eff = (2.0 * occupancy).clamp(0.25, 1.0);
    let compute_s = cost.flops as f64 / (spec.peak_flops() * eff);
    let memory_s = cost.effective_bytes(spec) / (spec.mem_bandwidth * eff);
    let atomics_s = cost.atomic_ops as f64 / spec.atomic_throughput;
    SimDuration::from_secs(spec.kernel_launch_overhead_s + compute_s.max(memory_s) + atomics_s)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> GpuSpec {
        GpuSpec::gt200()
    }

    #[test]
    fn zero_cost_is_launch_overhead_only() {
        let t = kernel_time(&spec(), 1.0, &KernelCost::ZERO);
        assert!((t.as_secs() - spec().kernel_launch_overhead_s).abs() < 1e-12);
    }

    #[test]
    fn roofline_takes_max_of_compute_and_memory() {
        let s = spec();
        // Memory-bound: 1 GB coalesced, negligible flops.
        let mem_bound = KernelCost {
            bytes_coalesced: 1 << 30,
            ..KernelCost::ZERO
        };
        let t_mem = kernel_time(&s, 1.0, &mem_bound);
        let expect = (1u64 << 30) as f64 / s.mem_bandwidth + s.kernel_launch_overhead_s;
        assert!((t_mem.as_secs() - expect).abs() / expect < 1e-9);

        // Compute-bound: many flops, few bytes.
        let cpu_bound = KernelCost {
            flops: 1 << 34,
            bytes_coalesced: 1 << 10,
            ..KernelCost::ZERO
        };
        let t_cpu = kernel_time(&s, 1.0, &cpu_bound);
        let expect = (1u64 << 34) as f64 / s.peak_flops() + s.kernel_launch_overhead_s;
        assert!((t_cpu.as_secs() - expect).abs() / expect < 1e-9);
    }

    #[test]
    fn uncoalesced_bytes_cost_more() {
        let s = spec();
        let coalesced = KernelCost {
            bytes_coalesced: 1 << 26,
            ..KernelCost::ZERO
        };
        let uncoalesced = KernelCost {
            bytes_uncoalesced: 1 << 26,
            ..KernelCost::ZERO
        };
        let t_c = kernel_time(&s, 1.0, &coalesced).as_secs();
        let t_u = kernel_time(&s, 1.0, &uncoalesced).as_secs();
        assert!(t_u > t_c * 4.0, "penalty should dominate: {t_u} vs {t_c}");
    }

    #[test]
    fn low_occupancy_slows_kernels() {
        let s = spec();
        let cost = KernelCost {
            bytes_coalesced: 1 << 28,
            ..KernelCost::ZERO
        };
        let full = kernel_time(&s, 1.0, &cost).as_secs();
        let low = kernel_time(&s, 0.1, &cost).as_secs();
        assert!(low > full * 2.0);
        // Occupancy >= 0.5 is already enough for full efficiency.
        let half = kernel_time(&s, 0.5, &cost).as_secs();
        assert!((half - full).abs() < 1e-12);
    }

    #[test]
    fn atomics_add_serialized_time() {
        let s = spec();
        let cost = KernelCost {
            atomic_ops: 1 << 20,
            ..KernelCost::ZERO
        };
        let t = kernel_time(&s, 1.0, &cost).as_secs();
        let expect = (1u64 << 20) as f64 / s.atomic_throughput + s.kernel_launch_overhead_s;
        assert!((t - expect).abs() / expect < 1e-9);
    }

    #[test]
    fn cost_sums() {
        let a = KernelCost {
            flops: 1,
            bytes_coalesced: 2,
            bytes_uncoalesced: 3,
            atomic_ops: 4,
        };
        let total: KernelCost = [a, a, a].into_iter().sum();
        assert_eq!(total.flops, 3);
        assert_eq!(total.bytes_coalesced, 6);
        assert_eq!(total.bytes_uncoalesced, 9);
        assert_eq!(total.atomic_ops, 12);
        assert_ne!(total, KernelCost::ZERO);
    }
}
