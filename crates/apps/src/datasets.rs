//! The paper's dataset catalogue (Table 1).
//!
//! Two input sets per benchmark: set one tests strong scaling (fixed
//! total size), set two tests weak scaling (fixed size *per GPU*). All
//! datasets are synthetic and seeded, exactly as in the paper (random
//! integers, random dictionary text, random points). A global scale
//! divisor shrinks element counts for simulation-feasible runs; the
//! *shape* of every experiment is preserved and the divisor is recorded
//! in EXPERIMENTS.md.

/// The five paper benchmarks.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Benchmark {
    /// Matrix Multiplication.
    Mm,
    /// Sparse Integer Occurrence.
    Sio,
    /// Word Occurrence.
    Wo,
    /// K-Means Clustering.
    Kmc,
    /// Linear Regression.
    Lr,
}

impl Benchmark {
    /// All benchmarks, in the paper's table order.
    pub const ALL: [Benchmark; 5] = [
        Benchmark::Mm,
        Benchmark::Sio,
        Benchmark::Wo,
        Benchmark::Kmc,
        Benchmark::Lr,
    ];

    /// The paper's abbreviation.
    pub fn name(self) -> &'static str {
        match self {
            Benchmark::Mm => "MM",
            Benchmark::Sio => "SIO",
            Benchmark::Wo => "WO",
            Benchmark::Kmc => "KMC",
            Benchmark::Lr => "LR",
        }
    }

    /// The benchmark `gpmr run --benchmark` names: the paper's
    /// abbreviation in any case, lower case by convention.
    pub fn from_cli_name(name: &str) -> Option<Benchmark> {
        Benchmark::ALL
            .into_iter()
            .find(|b| b.name().eq_ignore_ascii_case(name))
    }

    /// The full name reports are headed with.
    pub fn title(self) -> &'static str {
        match self {
            Benchmark::Mm => "Matrix Multiplication",
            Benchmark::Sio => "Sparse Integer Occurrence",
            Benchmark::Wo => "Word Occurrence",
            Benchmark::Kmc => "K-Means Clustering (one iteration)",
            Benchmark::Lr => "Linear Regression",
        }
    }

    /// Input size `gpmr run` uses without `--size`: elements (bytes of
    /// text for WO, the matrix order for MM).
    pub fn default_size(self) -> usize {
        match self {
            Benchmark::Mm => 512,
            Benchmark::Sio | Benchmark::Lr => 1_000_000,
            Benchmark::Wo => 4 << 20,
            Benchmark::Kmc => 500_000,
        }
    }

    /// Input element size in bytes (Table 1 row 1; MM is dimensioned by
    /// matrix order instead).
    pub fn element_bytes(self) -> Option<u64> {
        match self {
            Benchmark::Mm => None,
            Benchmark::Sio => Some(4),
            Benchmark::Wo => Some(1),
            Benchmark::Kmc => Some(16),
            Benchmark::Lr => Some(8),
        }
    }

    /// Strong-scaling input sizes (Table 1 set one). For MM these are
    /// matrix orders; for the rest, element counts in millions.
    pub fn strong_sizes(self) -> &'static [u64] {
        match self {
            Benchmark::Mm => &[1024, 2048, 4096, 16384],
            Benchmark::Sio => &[1, 8, 32, 128],
            Benchmark::Wo => &[1, 16, 64, 512],
            Benchmark::Kmc => &[1, 8, 32, 512],
            Benchmark::Lr => &[1, 16, 64, 512],
        }
    }

    /// Weak-scaling per-GPU sizes in millions of elements (Table 1 set
    /// two; MM has none).
    pub fn weak_sizes_per_gpu(self) -> &'static [u64] {
        match self {
            Benchmark::Mm => &[],
            Benchmark::Sio => &[1, 2, 4, 8, 16, 32],
            Benchmark::Wo => &[1, 2, 4, 8, 16, 32, 64, 128, 256],
            Benchmark::Kmc => &[1, 2, 4, 8, 16, 32],
            Benchmark::Lr => &[1, 2, 4, 8, 16, 32, 64],
        }
    }
}

/// A concrete workload: benchmark + total element count (or matrix order
/// for MM).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Workload {
    /// Which benchmark.
    pub benchmark: Benchmark,
    /// Elements (or matrix order for MM) after scaling.
    pub size: u64,
    /// Generator seed.
    pub seed: u64,
}

/// Seed of a workload's second random stream — WO's text beside its
/// dictionary, KMC's points beside its centers, MM's second matrix. Every
/// `u64` is a valid seed, so the next one wraps at `u64::MAX`.
pub fn second_seed(seed: u64) -> u64 {
    seed.wrapping_add(1)
}

/// The dimension divisor used for MM under workload scale `scale`:
/// matrix orders shrink by `sqrt(scale)` rounded to a power of two
/// (compute then shrinks by its cube, traffic by its square — the MM
/// hardware-scaling law).
pub fn mm_dim_factor(scale: u64) -> u64 {
    let f = (scale.max(1) as f64).sqrt() as u64;
    f.next_power_of_two().max(1)
}

/// Build the strong-scaling workload for size index `idx` (0 = smallest),
/// dividing element counts by `scale` (MM matrix orders divide by
/// [`mm_dim_factor`]).
pub fn strong_workload(bench: Benchmark, idx: usize, scale: u64, seed: u64) -> Workload {
    let raw = bench.strong_sizes()[idx];
    let size = match bench {
        Benchmark::Mm => (raw / mm_dim_factor(scale)).max(64),
        _ => (raw * 1_000_000 / scale.max(1)).max(1024),
    };
    Workload {
        benchmark: bench,
        size,
        seed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_element_sizes_match_paper() {
        assert_eq!(Benchmark::Sio.element_bytes(), Some(4));
        assert_eq!(Benchmark::Wo.element_bytes(), Some(1));
        assert_eq!(Benchmark::Kmc.element_bytes(), Some(16));
        assert_eq!(Benchmark::Lr.element_bytes(), Some(8));
        assert_eq!(Benchmark::Mm.element_bytes(), None);
    }

    #[test]
    fn cli_names_round_trip_in_any_case() {
        for bench in Benchmark::ALL {
            assert_eq!(Benchmark::from_cli_name(bench.name()), Some(bench));
            let lower = bench.name().to_ascii_lowercase();
            assert_eq!(Benchmark::from_cli_name(&lower), Some(bench));
        }
        assert_eq!(Benchmark::from_cli_name("nope"), None);
    }

    #[test]
    fn table1_strong_sizes_match_paper() {
        assert_eq!(Benchmark::Mm.strong_sizes(), &[1024, 2048, 4096, 16384]);
        assert_eq!(Benchmark::Sio.strong_sizes(), &[1, 8, 32, 128]);
        assert_eq!(Benchmark::Wo.strong_sizes(), &[1, 16, 64, 512]);
        assert_eq!(Benchmark::Kmc.strong_sizes(), &[1, 8, 32, 512]);
        assert_eq!(Benchmark::Lr.strong_sizes(), &[1, 16, 64, 512]);
    }

    #[test]
    fn scaling_divides_element_counts() {
        let w = strong_workload(Benchmark::Sio, 3, 64, 1);
        assert_eq!(w.size, 2_000_000);
        let w = strong_workload(Benchmark::Sio, 0, 1, 1);
        assert_eq!(w.size, 1_000_000);
    }

    #[test]
    fn mm_scaling_divides_order_by_sqrt() {
        let w = strong_workload(Benchmark::Mm, 3, 64, 1);
        assert_eq!(w.size, 16384 / 8);
        let w = strong_workload(Benchmark::Mm, 0, 1, 1);
        assert_eq!(w.size, 1024);
    }

    #[test]
    fn second_seed_wraps_at_the_largest_seed() {
        assert_eq!(second_seed(41), 42);
        assert_eq!(second_seed(u64::MAX), 0);
    }

    #[test]
    fn tiny_scale_floors_apply() {
        let w = strong_workload(Benchmark::Sio, 0, u64::MAX, 1);
        assert_eq!(w.size, 1024);
        let w = strong_workload(Benchmark::Mm, 0, 1 << 60, 1);
        assert_eq!(w.size, 64);
    }
}
