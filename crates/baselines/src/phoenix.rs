//! Phoenix-style multicore CPU MapReduce (Ranger et al., HPCA 2007) —
//! the optimized CPU baseline of the paper's Table 2.
//!
//! Phoenix runs on one shared-memory node: map tasks are spread over
//! worker threads, intermediate pairs are grouped with a hash table, and
//! reduce tasks run per key. The executor here does the real computation
//! one modelled worker after another on the calling thread (merge order
//! is worker order) while the time charged comes from the [`CpuCost`]
//! model, so Phoenix runtimes are directly comparable with the simulated
//! GPMR runtimes.

use std::collections::HashMap;
use std::ops::Range;

use gpmr_core::{Key, Value};
use gpmr_primitives::RadixKey;
use gpmr_sim_gpu::SimDuration;
use gpmr_sim_net::CpuSpec;

use crate::cpu::{cpu_time, CpuCost};

/// A Phoenix application: map over item ranges, reduce per key.
pub trait PhoenixApp: Send + Sync {
    /// Input element type.
    type Item: Copy + Send + Sync + 'static;
    /// Intermediate/output key.
    type Key: Key + RadixKey;
    /// Intermediate/output value.
    type Value: Value;

    /// One map task: process `items[range]`, emitting pairs. The range is
    /// a hint — ownership rules for boundary-spanning records (e.g. words)
    /// follow "starts in range". Returns the task's cost.
    fn map_range(
        &self,
        items: &[Self::Item],
        range: Range<usize>,
        out: &mut Vec<(Self::Key, Self::Value)>,
    ) -> CpuCost;

    /// Reduce all values of `key` to one value, with its cost.
    fn reduce(&self, key: Self::Key, vals: &[Self::Value]) -> (Self::Value, CpuCost);
}

/// Phoenix runtime configuration.
#[derive(Clone, Copy, Debug)]
pub struct PhoenixConfig {
    /// Host description (workers = cores).
    pub cpu: CpuSpec,
    /// Items per map task.
    pub task_items: usize,
}

impl Default for PhoenixConfig {
    fn default() -> Self {
        PhoenixConfig {
            cpu: CpuSpec::dual_opteron_2216(),
            task_items: 64 * 1024,
        }
    }
}

/// Result of a Phoenix run.
#[derive(Clone, Debug)]
pub struct PhoenixResult<K, V> {
    /// Final pairs, sorted by key radix (Phoenix emits sorted output).
    pub pairs: Vec<(K, V)>,
    /// Total modelled runtime.
    pub time: SimDuration,
    /// Map-stage time.
    pub map_time: SimDuration,
    /// Group (hash partition) time.
    pub group_time: SimDuration,
    /// Reduce-stage time.
    pub reduce_time: SimDuration,
}

/// Per-worker map output: the emitted pairs plus the accumulated cost.
type MapOutput<A> = (
    Vec<(<A as PhoenixApp>::Key, <A as PhoenixApp>::Value)>,
    CpuCost,
);

/// Run a Phoenix job over `items`.
pub fn run_phoenix<A: PhoenixApp>(
    cfg: &PhoenixConfig,
    app: &A,
    items: &[A::Item],
) -> PhoenixResult<A::Key, A::Value> {
    let workers = cfg.cpu.cores.max(1) as usize;
    let task_items = cfg.task_items.max(1);
    let n_tasks = items.len().div_ceil(task_items).max(1);

    // --- Map: tasks statically striped over the modelled workers, each
    // worker's stripe executed in worker order on the calling thread. ----
    let worker_outputs: Vec<MapOutput<A>> = (0..workers)
        .map(|w| {
            let mut out = Vec::new();
            let mut cost = CpuCost::ZERO;
            for t in (w..n_tasks).step_by(workers) {
                let start = t * task_items;
                let end = ((t + 1) * task_items).min(items.len());
                if start < end {
                    cost += app.map_range(items, start..end, &mut out);
                }
            }
            (out, cost)
        })
        .collect();

    // The map stage finishes when the slowest worker's *compute* finishes
    // or when the shared memory bus has moved everyone's bytes, whichever
    // is later.
    let compute_time = worker_outputs
        .iter()
        .map(|(_, c)| {
            cpu_time(
                &cfg.cpu,
                1,
                &CpuCost {
                    ops: c.ops,
                    ..CpuCost::ZERO
                },
            )
        })
        .fold(SimDuration::ZERO, SimDuration::max);
    let total_mem = worker_outputs.iter().fold(CpuCost::ZERO, |acc, (_, c)| {
        acc + CpuCost {
            bytes: c.bytes,
            bytes_random: c.bytes_random,
            ..CpuCost::ZERO
        }
    });
    let map_time = compute_time.max(cpu_time(&cfg.cpu, workers, &total_mem));

    // --- Group: hash-partition all pairs (deterministic worker order). --
    let total_pairs: usize = worker_outputs.iter().map(|(o, _)| o.len()).sum();
    let pair_bytes = (std::mem::size_of::<A::Key>() + std::mem::size_of::<A::Value>()) as u64;
    let group_cost = CpuCost {
        ops: 12 * total_pairs as u64,
        bytes: 2 * total_pairs as u64 * pair_bytes,
        bytes_random: total_pairs as u64 * pair_bytes,
    };
    let group_time = cpu_time(&cfg.cpu, workers, &group_cost);

    let mut groups: HashMap<u64, (A::Key, Vec<A::Value>)> = HashMap::new();
    for (out, _) in &worker_outputs {
        for (k, v) in out {
            groups
                .entry(k.radix())
                .or_insert_with(|| (*k, Vec::new()))
                .1
                .push(*v);
        }
    }

    // --- Reduce: per key, order fixed by key radix. ----------------------
    let mut keys: Vec<u64> = groups.keys().copied().collect();
    keys.sort_unstable();
    let mut pairs = Vec::with_capacity(keys.len());
    let mut reduce_cost = CpuCost::ZERO;
    for kr in keys {
        let (k, vals) = &groups[&kr];
        let (v, c) = app.reduce(*k, vals);
        reduce_cost += c;
        pairs.push((*k, v));
    }
    let reduce_time = cpu_time(&cfg.cpu, workers, &reduce_cost);

    PhoenixResult {
        pairs,
        time: map_time + group_time + reduce_time,
        map_time,
        group_time,
        reduce_time,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct CountApp;
    impl PhoenixApp for CountApp {
        type Item = u32;
        type Key = u32;
        type Value = u32;
        fn map_range(
            &self,
            items: &[u32],
            range: Range<usize>,
            out: &mut Vec<(u32, u32)>,
        ) -> CpuCost {
            let n = range.len();
            for &x in &items[range] {
                out.push((x, 1));
            }
            CpuCost {
                ops: 2 * n as u64,
                bytes: 12 * n as u64,
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

    #[test]
    fn phoenix_counts_correctly() {
        let items: Vec<u32> = (0..10_000).map(|i| i % 13).collect();
        let cfg = PhoenixConfig {
            task_items: 1000,
            ..PhoenixConfig::default()
        };
        let result = run_phoenix(&cfg, &CountApp, &items);
        assert_eq!(result.pairs.len(), 13);
        for &(k, v) in &result.pairs {
            let expect = items.iter().filter(|&&x| x == k).count() as u32;
            assert_eq!(v, expect);
        }
        // Sorted output.
        assert!(result.pairs.windows(2).all(|w| w[0].0 < w[1].0));
        assert!(result.time.as_secs() > 0.0);
        assert!(result.map_time.as_secs() > 0.0);
    }

    #[test]
    fn phoenix_is_deterministic() {
        let items: Vec<u32> = (0..5000).map(|i| i * 7 % 101).collect();
        let cfg = PhoenixConfig::default();
        let a = run_phoenix(&cfg, &CountApp, &items);
        let b = run_phoenix(&cfg, &CountApp, &items);
        assert_eq!(a.pairs, b.pairs);
        assert_eq!(a.time, b.time);
    }

    #[test]
    fn empty_input_is_near_free() {
        let result = run_phoenix(&PhoenixConfig::default(), &CountApp, &[]);
        assert!(result.pairs.is_empty());
        assert_eq!(result.time, SimDuration::ZERO);
    }

    #[test]
    fn map_time_tracks_slowest_worker() {
        // All items identical: reduce is one big group.
        let items = vec![7u32; 20_000];
        let result = run_phoenix(&PhoenixConfig::default(), &CountApp, &items);
        assert_eq!(result.pairs, vec![(7, 20_000)]);
        assert!(result.group_time.as_secs() > 0.0);
        assert!(result.reduce_time.as_secs() > 0.0);
    }
}
