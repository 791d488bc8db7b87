//! CPU cost accounting for the Phoenix-style baseline.
//!
//! Same philosophy as the GPU side: computation is executed for real on
//! the host; *time* comes from an analytic model over operation and
//! byte counts, so Phoenix and GPMR times are directly comparable
//! (Table 2).

use gpmr_sim_gpu::SimDuration;
use gpmr_sim_net::CpuSpec;

/// Work performed by a CPU stage.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CpuCost {
    /// Scalar operations.
    pub ops: u64,
    /// Bytes moved through the memory hierarchy (sequential).
    pub bytes: u64,
    /// Bytes moved by cache-unfriendly access patterns (charged with a
    /// miss penalty).
    pub bytes_random: u64,
}

impl CpuCost {
    /// Zero cost.
    pub const ZERO: CpuCost = CpuCost {
        ops: 0,
        bytes: 0,
        bytes_random: 0,
    };
}

impl std::ops::Add for CpuCost {
    type Output = CpuCost;

    /// Component-wise sum.
    fn add(self, other: CpuCost) -> CpuCost {
        CpuCost {
            ops: self.ops + other.ops,
            bytes: self.bytes + other.bytes,
            bytes_random: self.bytes_random + other.bytes_random,
        }
    }
}

impl std::ops::AddAssign for CpuCost {
    fn add_assign(&mut self, rhs: CpuCost) {
        *self = *self + rhs;
    }
}

/// Penalty multiplier for random (cache-missing) byte traffic.
pub const RANDOM_ACCESS_PENALTY: f64 = 4.0;

/// Time for `cost` executed by `workers` threads on `cpu`: compute scales
/// with cores, memory bandwidth is shared.
pub fn cpu_time(cpu: &CpuSpec, workers: usize, cost: &CpuCost) -> SimDuration {
    let w = workers.clamp(1, cpu.cores as usize) as f64;
    let compute = cost.ops as f64 / (cpu.peak_ops() / cpu.cores as f64 * w);
    let mem =
        (cost.bytes as f64 + cost.bytes_random as f64 * RANDOM_ACCESS_PENALTY) / cpu.mem_bandwidth;
    SimDuration::from_secs(compute.max(mem))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compute_scales_with_workers() {
        let cpu = CpuSpec::dual_opteron_2216();
        let cost = CpuCost {
            ops: 1 << 32,
            ..CpuCost::ZERO
        };
        let t1 = cpu_time(&cpu, 1, &cost).as_secs();
        let t4 = cpu_time(&cpu, 4, &cost).as_secs();
        assert!((t1 / t4 - 4.0).abs() < 1e-9);
        // More workers than cores gains nothing.
        let t8 = cpu_time(&cpu, 8, &cost).as_secs();
        assert_eq!(t4, t8);
    }

    #[test]
    fn memory_bandwidth_is_shared() {
        let cpu = CpuSpec::dual_opteron_2216();
        let cost = CpuCost {
            bytes: 3_000_000_000,
            ..CpuCost::ZERO
        };
        let t1 = cpu_time(&cpu, 1, &cost).as_secs();
        let t4 = cpu_time(&cpu, 4, &cost).as_secs();
        assert!((t1 - 1.0).abs() < 1e-9);
        assert_eq!(t1, t4);
    }

    #[test]
    fn random_bytes_cost_more() {
        let cpu = CpuSpec::dual_opteron_2216();
        let seq = CpuCost {
            bytes: 1 << 30,
            ..CpuCost::ZERO
        };
        let rnd = CpuCost {
            bytes_random: 1 << 30,
            ..CpuCost::ZERO
        };
        assert!(cpu_time(&cpu, 4, &rnd).as_secs() > cpu_time(&cpu, 4, &seq).as_secs() * 3.0);
    }

    #[test]
    fn costs_sum() {
        let mut a = CpuCost {
            ops: 1,
            bytes: 2,
            bytes_random: 3,
        };
        a += a;
        assert_eq!(
            a,
            CpuCost {
                ops: 2,
                bytes: 4,
                bytes_random: 6
            }
        );
    }
}
