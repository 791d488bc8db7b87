//! Mars implementations of the Table 3 benchmarks (MM, KMC, WO) — the
//! formulations Mars's one-thread-per-item model forces.

use std::sync::Arc;

use gpmr_apps::kmc::{nearest_center, Point, DIMS};
use gpmr_apps::mm::Matrix;
use gpmr_apps::text::Dictionary;
use gpmr_sim_gpu::{BlockCtx, Gpu, LaunchConfig, SimDuration, SimTime};

use crate::mars::{MarsApp, MarsError};

/// Mars WO: one thread per text byte; a thread that sees a word start
/// hashes the word and emits `(word_id, 1)`. No accumulation — the full
/// pair stream goes through the bitonic sort.
#[derive(Clone)]
pub struct MarsWo {
    dict: Arc<Dictionary>,
}

impl MarsWo {
    /// Build against a dictionary shared with the other implementations.
    pub fn new(dict: Arc<Dictionary>) -> Self {
        MarsWo { dict }
    }
}

fn sep(b: u8) -> bool {
    b == b' ' || b == b'\n'
}

fn word_start(text: &[u8], i: usize) -> bool {
    !sep(text[i]) && (i == 0 || sep(text[i - 1]))
}

impl MarsApp for MarsWo {
    type Item = u8;
    type Key = u32;
    type Value = u32;

    fn count(&self, ctx: &mut BlockCtx, items: &[u8], idx: usize) -> usize {
        ctx.charge_read::<u8>(2);
        usize::from(word_start(items, idx))
    }

    fn emit(&self, ctx: &mut BlockCtx, items: &[u8], idx: usize, out: &mut Vec<(u32, u32)>) {
        if !word_start(items, idx) {
            ctx.charge_read::<u8>(2);
            return;
        }
        let mut j = idx;
        while j < items.len() && !sep(items[j]) {
            j += 1;
        }
        ctx.charge_read::<u8>(j - idx + 2);
        ctx.charge_flops((j - idx) as u64);
        out.push((self.dict.mph.index(&items[idx..j]), 1));
    }

    fn reduce(&self, ctx: &mut BlockCtx, _key: u32, vals: &[u32]) -> u32 {
        ctx.charge_read_uncoalesced::<u32>(vals.len());
        ctx.charge_flops(vals.len() as u64);
        vals.iter().sum()
    }
}

/// Mars KMC: the CPU formulation verbatim — each point emits
/// `(nearest_center, point-with-count)`, a 40+ byte pair per point, all
/// of it sorted bitonically. This is the configuration the paper beats by
/// 37x on one GPU.
#[derive(Clone, Debug)]
pub struct MarsKmc {
    centers: Vec<Point>,
}

impl MarsKmc {
    /// Build against the iteration's centers.
    pub fn new(centers: Vec<Point>) -> Self {
        MarsKmc { centers }
    }
}

impl MarsApp for MarsKmc {
    type Item = Point;
    type Key = u32;
    type Value = [f64; DIMS + 1];

    fn count(&self, ctx: &mut BlockCtx, _items: &[Point], _idx: usize) -> usize {
        // The count pass still reads the point (uncoalesced: one thread
        // loads its own 16-byte point).
        ctx.charge_read_uncoalesced::<Point>(1);
        1
    }

    fn emit(
        &self,
        ctx: &mut BlockCtx,
        items: &[Point],
        idx: usize,
        out: &mut Vec<(u32, [f64; DIMS + 1])>,
    ) {
        ctx.charge_read_uncoalesced::<Point>(1);
        ctx.charge_flops((self.centers.len() * 3 * DIMS) as u64);
        let p = &items[idx];
        let c = nearest_center(&self.centers, p) as u32;
        let mut v = [0.0f64; DIMS + 1];
        for dim in 0..DIMS {
            v[dim] = f64::from(p[dim]);
        }
        v[DIMS] = 1.0;
        out.push((c, v));
    }

    fn reduce(&self, ctx: &mut BlockCtx, _key: u32, vals: &[[f64; DIMS + 1]]) -> [f64; DIMS + 1] {
        ctx.charge_read_uncoalesced::<[f64; DIMS + 1]>(vals.len());
        ctx.charge_flops((vals.len() * (DIMS + 1)) as u64);
        let mut acc = [0.0f64; DIMS + 1];
        for v in vals {
            for (a, x) in acc.iter_mut().zip(v) {
                *a += x;
            }
        }
        acc
    }
}

/// Mars MM: one thread per output element computing a full vector-vector
/// product; B's column reads are uncoalesced (the paper's critique of the
/// direct CPU port). In-core only. Returns the exact product and the
/// modelled time.
pub fn mars_mm(gpu: &mut Gpu, a: &Matrix, b: &Matrix) -> Result<(Matrix, SimDuration), MarsError> {
    gpu.reset_clock();
    let n = a.n;
    let required = 3 * (n * n * 4) as u64;
    let capacity = gpu.mem.capacity();
    if required > capacity {
        return Err(MarsError::InCoreViolation { required, capacity });
    }
    let up = gpu.h2d(SimTime::ZERO, 2 * (n * n * 4) as u64);

    // One thread per element, 256-thread blocks; each row of threads
    // shares A's row (coalesced) but strides B's column (uncoalesced).
    let cfg = LaunchConfig::for_items(n * n, 256, 256);
    let a_data = &a.data;
    let b_data = &b.data;
    let (launch, res) = gpu.launch(up.end, &cfg, |ctx| {
        let range = ctx.item_range(n * n);
        // A rows are shared by a block's threads (cache/broadcast reuse
        // ~8x); B columns get partial texture-cache reuse (~2x). Without
        // any blocking this is still far more traffic than GPMR's tiles.
        ctx.charge_read::<f32>(range.len() * n / 8); // A rows, block-shared
        ctx.charge_read::<f32>(range.len() * n / 2); // B columns, texture cache
        ctx.charge_flops(2 * (range.len() * n) as u64);
        ctx.charge_write::<f32>(range.len());
        let mut out = Vec::with_capacity(range.len());
        for e in range {
            let (i, j) = (e / n, e % n);
            let mut acc = 0.0f32;
            for k in 0..n {
                acc += a_data[i * n + k] * b_data[k * n + j];
            }
            out.push(acc);
        }
        out
    })?;
    let mut c = Matrix::zeros(n);
    let mut idx = 0usize;
    for block in launch.outputs {
        for v in block {
            c.data[idx] = v;
            idx += 1;
        }
    }
    let down = gpu.d2h(res.end, (n * n * 4) as u64);
    Ok((c, down.end.since(SimTime::ZERO)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mars::run_mars;
    use gpmr_apps::text::{generate_text, words_of};
    use gpmr_apps::{kmc, wo};
    use gpmr_sim_gpu::GpuSpec;

    #[test]
    fn mars_wo_matches_reference() {
        let dict = Arc::new(Dictionary::generate(150, 21));
        let text = generate_text(&dict, 20_000, 22);
        let mut gpu = Gpu::new(GpuSpec::gt200());
        let result = run_mars(&mut gpu, &MarsWo::new(dict.clone()), &text).unwrap();
        let expect = wo::cpu_reference(&dict, &text);
        let total: u64 = result.pairs.iter().map(|&(_, v)| u64::from(v)).sum();
        assert_eq!(total, words_of(&text).count() as u64);
        for &(k, v) in &result.pairs {
            assert_eq!(v, expect[k as usize]);
        }
    }

    #[test]
    fn mars_kmc_matches_reference() {
        let centers = kmc::initial_centers(8, 23);
        let points = kmc::generate_points(10_000, 8, 24);
        let mut gpu = Gpu::new(GpuSpec::gt200());
        let result = run_mars(&mut gpu, &MarsKmc::new(centers.clone()), &points).unwrap();
        let expect = kmc::cpu_reference(&centers, &points);
        for &(c, v) in &result.pairs {
            let base = c as usize * (DIMS + 1);
            for dim in 0..=DIMS {
                let want = expect[base + dim];
                assert!(
                    (v[dim] - want).abs() <= 1e-6 * (1.0 + want.abs()),
                    "center {c} dim {dim}: {} vs {want}",
                    v[dim]
                );
            }
        }
    }

    #[test]
    fn mars_mm_is_exact() {
        let a = Matrix::random(64, 31);
        let b = Matrix::random(64, 32);
        let mut gpu = Gpu::new(GpuSpec::gt200());
        let (c, t) = mars_mm(&mut gpu, &a, &b).unwrap();
        let expect = a.multiply_reference(&b);
        for (x, y) in c.data.iter().zip(&expect.data) {
            assert!((x - y).abs() < 1e-3);
        }
        assert!(t.as_secs() > 0.0);
    }

    #[test]
    fn mars_mm_respects_in_core_limit() {
        let a = Matrix::random(128, 33);
        let b = Matrix::random(128, 34);
        let mut gpu = Gpu::new(GpuSpec::gt200().with_mem_capacity(64 * 1024));
        assert!(matches!(
            mars_mm(&mut gpu, &a, &b),
            Err(MarsError::InCoreViolation { .. })
        ));
    }
}
