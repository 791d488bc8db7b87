//! Phoenix implementations of the paper's benchmarks (Table 2's CPU
//! side): the typical CPU MapReduce formulations, with costs charged to
//! the Opteron model.

use std::ops::Range;
use std::sync::Arc;

use gpmr_apps::kmc::{nearest_center, Point, DIMS};
use gpmr_apps::lr::{Sample, STAT_KEYS};
use gpmr_apps::mm::Matrix;
use gpmr_apps::text::Dictionary;
use gpmr_sim_gpu::SimDuration;
use gpmr_sim_net::CpuSpec;

use crate::cpu::{cpu_time, CpuCost};
use crate::phoenix::PhoenixApp;

/// Phoenix SIO: one emit per integer, sum per key.
#[derive(Clone, Copy, Debug, Default)]
pub struct PhoenixSio;

impl PhoenixApp for PhoenixSio {
    type Item = u32;
    type Key = u32;
    type Value = u32;

    fn map_range(&self, items: &[u32], range: Range<usize>, out: &mut Vec<(u32, u32)>) -> CpuCost {
        let n = range.len();
        out.reserve(n);
        for &x in &items[range] {
            out.push((x, 1));
        }
        CpuCost {
            ops: 3 * n as u64,
            bytes: 12 * n as u64, // 4 read + 8 emitted
            ..CpuCost::ZERO
        }
    }

    fn reduce(&self, _key: u32, vals: &[u32]) -> (u32, CpuCost) {
        (
            vals.iter().sum(),
            CpuCost {
                ops: vals.len() as u64,
                bytes: 4 * vals.len() as u64,
                ..CpuCost::ZERO
            },
        )
    }
}

/// Phoenix WO: scan lines, hash each word (the CPU implementation pays
/// string hashing per byte), emit `(word_id, 1)`.
#[derive(Clone)]
pub struct PhoenixWo {
    dict: Arc<Dictionary>,
}

impl PhoenixWo {
    /// Build against a dictionary (shared with the GPMR job for output
    /// comparability).
    pub fn new(dict: Arc<Dictionary>) -> Self {
        PhoenixWo { dict }
    }
}

impl PhoenixApp for PhoenixWo {
    type Item = u8;
    type Key = u32;
    type Value = u32;

    fn map_range(&self, items: &[u8], range: Range<usize>, out: &mut Vec<(u32, u32)>) -> CpuCost {
        let sep = |b: u8| b == b' ' || b == b'\n';
        let n = range.len();
        let mut i = range.start;
        let mut words = 0u64;
        while i < range.end {
            if sep(items[i]) || (i > 0 && !sep(items[i - 1])) {
                i += 1;
                continue;
            }
            let mut j = i;
            while j < items.len() && !sep(items[j]) {
                j += 1;
            }
            out.push((self.dict.mph.index(&items[i..j]), 1));
            words += 1;
            i = j;
        }
        CpuCost {
            ops: 3 * n as u64, // scan + hash per byte
            bytes: n as u64 + 8 * words,
            ..CpuCost::ZERO
        }
    }

    fn reduce(&self, _key: u32, vals: &[u32]) -> (u32, CpuCost) {
        (
            vals.iter().sum(),
            CpuCost {
                ops: vals.len() as u64,
                bytes: 4 * vals.len() as u64,
                ..CpuCost::ZERO
            },
        )
    }
}

/// Phoenix KMC: the typical CPU formulation — each point emits
/// `(nearest_center, [coords..., 1])`, reduce sums component-wise. The
/// per-point pair emission is what GPMR's Accumulation eliminates.
#[derive(Clone, Debug)]
pub struct PhoenixKmc {
    centers: Vec<Point>,
}

impl PhoenixKmc {
    /// Build against the iteration's centers.
    pub fn new(centers: Vec<Point>) -> Self {
        PhoenixKmc { centers }
    }
}

impl PhoenixApp for PhoenixKmc {
    type Item = Point;
    type Key = u32;
    type Value = [f64; DIMS + 1];

    fn map_range(
        &self,
        items: &[Point],
        range: Range<usize>,
        out: &mut Vec<(u32, [f64; DIMS + 1])>,
    ) -> CpuCost {
        let n = range.len();
        let k = self.centers.len();
        out.reserve(n);
        for p in &items[range] {
            let best = nearest_center(&self.centers, p);
            let mut v = [0.0f64; DIMS + 1];
            for dim in 0..DIMS {
                v[dim] = f64::from(p[dim]);
            }
            v[DIMS] = 1.0;
            out.push((best as u32, v));
        }
        CpuCost {
            ops: (n * k * 3 * DIMS) as u64,
            bytes: (n * (16 + 44)) as u64, // point read + fat pair emitted
            ..CpuCost::ZERO
        }
    }

    fn reduce(&self, _key: u32, vals: &[[f64; DIMS + 1]]) -> ([f64; DIMS + 1], CpuCost) {
        let mut acc = [0.0f64; DIMS + 1];
        for v in vals {
            for (a, x) in acc.iter_mut().zip(v) {
                *a += x;
            }
        }
        (
            acc,
            CpuCost {
                ops: (vals.len() * (DIMS + 1)) as u64,
                bytes: (vals.len() * 40) as u64,
                ..CpuCost::ZERO
            },
        )
    }
}

/// Phoenix LR: each map task computes the six partial statistics over its
/// range and emits six pairs (Phoenix's efficient per-task formulation).
#[derive(Clone, Copy, Debug, Default)]
pub struct PhoenixLr;

impl PhoenixApp for PhoenixLr {
    type Item = Sample;
    type Key = u32;
    type Value = f64;

    fn map_range(
        &self,
        items: &[Sample],
        range: Range<usize>,
        out: &mut Vec<(u32, f64)>,
    ) -> CpuCost {
        let n = range.len();
        let mut s = [0.0f64; STAT_KEYS];
        for &(x, y) in &items[range] {
            let (x, y) = (f64::from(x), f64::from(y));
            s[0] += 1.0;
            s[1] += x;
            s[2] += y;
            s[3] += x * x;
            s[4] += x * y;
            s[5] += y * y;
        }
        for (k, v) in s.into_iter().enumerate() {
            out.push((k as u32, v));
        }
        CpuCost {
            ops: 8 * n as u64,
            bytes: 8 * n as u64,
            ..CpuCost::ZERO
        }
    }

    fn reduce(&self, _key: u32, vals: &[f64]) -> (f64, CpuCost) {
        (
            vals.iter().sum(),
            CpuCost {
                ops: vals.len() as u64,
                bytes: 8 * vals.len() as u64,
                ..CpuCost::ZERO
            },
        )
    }
}

/// Phoenix MM: the common CPU MapReduce formulation — one vector-vector
/// product per output element, no tiling. The column accesses of B miss
/// cache on every step, which is why the paper measured Phoenix taking
/// ~20 s on a 1024x1024 multiply. The product is computed exactly; the
/// cost model charges the naive formulation.
pub fn phoenix_mm(cpu: &CpuSpec, a: &Matrix, b: &Matrix) -> (Matrix, SimDuration) {
    let n = a.n as u64;
    let c = a.multiply_reference(b);
    let cost = CpuCost {
        ops: 2 * n * n * n,
        bytes: 4 * n * n * n,        // row traversals of A
        bytes_random: 4 * n * n * n, // column traversals of B
    };
    (c, cpu_time(cpu, cpu.cores as usize, &cost))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phoenix::{run_phoenix, PhoenixConfig};
    use gpmr_apps::text::{generate_text, words_of};
    use gpmr_apps::{kmc, lr, sio};

    fn cfg() -> PhoenixConfig {
        PhoenixConfig {
            task_items: 4096,
            ..PhoenixConfig::default()
        }
    }

    #[test]
    fn phoenix_sio_matches_reference() {
        let data = sio::generate_integers(20_000, 1);
        let result = run_phoenix(&cfg(), &PhoenixSio, &data);
        let mut got = result.pairs;
        got.sort_unstable();
        assert_eq!(got, sio::cpu_reference(&data));
    }

    #[test]
    fn phoenix_wo_matches_reference() {
        let dict = Arc::new(Dictionary::generate(200, 3));
        let text = generate_text(&dict, 30_000, 4);
        let result = run_phoenix(&cfg(), &PhoenixWo::new(dict.clone()), &text);
        let expect = gpmr_apps::wo::cpu_reference(&dict, &text);
        let total: u64 = result.pairs.iter().map(|&(_, v)| u64::from(v)).sum();
        assert_eq!(total, words_of(&text).count() as u64);
        for &(k, v) in &result.pairs {
            assert_eq!(v, expect[k as usize], "word id {k}");
        }
    }

    #[test]
    fn phoenix_kmc_matches_reference() {
        let centers = kmc::initial_centers(8, 5);
        let points = kmc::generate_points(10_000, 8, 6);
        let result = run_phoenix(&cfg(), &PhoenixKmc::new(centers.clone()), &points);
        let expect = kmc::cpu_reference(&centers, &points);
        for &(c, v) in &result.pairs {
            let base = c as usize * (DIMS + 1);
            for dim in 0..=DIMS {
                let want = expect[base + dim];
                assert!(
                    (v[dim] - want).abs() <= 1e-6 * (1.0 + want.abs()),
                    "center {c} dim {dim}"
                );
            }
        }
    }

    #[test]
    fn phoenix_lr_matches_reference() {
        let samples = lr::generate_samples(20_000, 1.5, 2.0, 7);
        let result = run_phoenix(&cfg(), &PhoenixLr, &samples);
        let expect = lr::cpu_reference(&samples);
        assert_eq!(result.pairs.len(), STAT_KEYS);
        for &(k, v) in &result.pairs {
            let want = expect[k as usize];
            assert!((v - want).abs() <= 1e-6 * (1.0 + want.abs()), "stat {k}");
        }
    }

    #[test]
    fn phoenix_mm_is_exact_and_slow() {
        let a = Matrix::random(64, 8);
        let b = Matrix::random(64, 9);
        let cpu = CpuSpec::dual_opteron_2216();
        let (c, t) = phoenix_mm(&cpu, &a, &b);
        assert_eq!(c, a.multiply_reference(&b));
        // The naive formulation is memory-bound: 64^3 * 4 * (1 + 4) bytes
        // over the node's 3 GB/s.
        let expect = (64.0f64.powi(3) * 4.0 * 5.0) / 3.0e9;
        assert!((t.as_secs() - expect).abs() / expect < 0.5);
    }
}
