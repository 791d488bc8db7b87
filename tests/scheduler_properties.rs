//! Property tests for the dynamic work queues: under *any* interleaving
//! of local pops, steals, and kill-style drains, no chunk is ever lost or
//! duplicated, `total_remaining` stays conserved, and `steal_victim`
//! never picks the thief or a queue too light to be worth robbing.
//! Plus the engine-level corollary the job service relies on: stopping a
//! run mid-flight (`Run::cancel`) accounts for every input chunk as
//! either committed or released, and leaves no device memory resident.

use gpmr::apps::sio::{generate_integers, sio_chunks};
use gpmr::apps::SioJob;
use gpmr::core::{run_job, EngineError, Run, RunOpts, WorkQueues};
use gpmr::sim_gpu::{GpuSpec, SimTime};
use gpmr::sim_net::Cluster;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn no_interleaving_loses_or_duplicates_chunks(
        n_chunks in 0usize..64,
        ranks in 1u32..9,
        ops in prop::collection::vec((0u8..4, any::<u32>()), 0..200),
    ) {
        let mut q = WorkQueues::distribute((0..n_chunks as u32).collect(), ranks);
        let ranks = q.ranks();
        let mut popped: Vec<u32> = Vec::new();
        for (op, sel) in ops {
            let r = sel % ranks;
            match op {
                // A rank takes its own next chunk.
                0 => {
                    if let Some(c) = q.pop_local(r) {
                        popped.push(c);
                    }
                }
                // An idle rank steals: the stolen chunk moves to its queue.
                1 => {
                    if let Some(victim) = q.steal_victim(r) {
                        prop_assert_ne!(victim, r);
                        prop_assert!(
                            q.remaining(victim) >= 2,
                            "victim rank {} too light to steal from",
                            victim
                        );
                        let c = q.steal_from(victim);
                        prop_assert!(c.is_some(), "chosen victim was empty");
                        q.push_back(r, c.unwrap());
                    }
                }
                // Kill-style recovery: the rank's whole queue migrates to
                // its neighbour (what the engine does on GPU loss).
                2 => {
                    if ranks > 1 {
                        let dest = (r + 1) % ranks;
                        for c in q.drain_rank(r) {
                            q.push_back(dest, c);
                        }
                        prop_assert_eq!(q.remaining(r), 0);
                    }
                }
                // Bookkeeping consistency check.
                _ => {
                    let by_rank: usize = (0..ranks).map(|x| q.remaining(x)).sum();
                    prop_assert_eq!(q.total_remaining(), by_rank);
                }
            }
            prop_assert_eq!(
                popped.len() + q.total_remaining(),
                n_chunks,
                "chunks lost or duplicated mid-interleaving"
            );
        }
        // Drain everything left: each chunk must appear exactly once.
        let mut seen = popped;
        for r in 0..ranks {
            while let Some(c) = q.pop_local(r) {
                seen.push(c);
            }
        }
        seen.sort_unstable();
        prop_assert_eq!(seen, (0..n_chunks as u32).collect::<Vec<u32>>());
    }

    #[test]
    fn steal_victim_is_never_the_thief_or_underloaded(
        loads in prop::collection::vec(0usize..6, 1..9),
        thief_sel in any::<u32>(),
    ) {
        let ranks = loads.len() as u32;
        let mut q: WorkQueues<u32> = WorkQueues::distribute(Vec::new(), ranks);
        let mut id = 0u32;
        for (r, &load) in loads.iter().enumerate() {
            for _ in 0..load {
                q.push_back(r as u32, id);
                id += 1;
            }
        }
        let thief = thief_sel % ranks;
        match q.steal_victim(thief) {
            Some(v) => {
                prop_assert_ne!(v, thief);
                prop_assert!(q.remaining(v) >= 2, "victim has too little work");
                // Most-loaded eligible rank wins; ties break to lowest.
                for r in 0..ranks {
                    if r == thief {
                        continue;
                    }
                    prop_assert!(
                        q.remaining(r) < q.remaining(v)
                            || (q.remaining(r) == q.remaining(v) && r >= v),
                        "rank {} (load {}) beats chosen victim {} (load {})",
                        r,
                        q.remaining(r),
                        v,
                        q.remaining(v)
                    );
                }
            }
            None => {
                for r in 0..ranks {
                    if r != thief {
                        prop_assert!(
                            q.remaining(r) < 2,
                            "eligible victim {} was missed",
                            r
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn distribute_on_targets_only_and_conserves_chunks(
        n_chunks in 0usize..64,
        ranks in 1u32..9,
        target_mask in any::<u32>(),
        ops in prop::collection::vec(any::<u32>(), 0..80),
    ) {
        // Elastic jobs distribute the initial chunks over the reducer
        // subset only (GPUs with a pending `add` join later, empty).
        let targets: Vec<u32> = (0..ranks).filter(|r| target_mask & (1 << r) != 0).collect();
        let mut q = WorkQueues::distribute_on((0..n_chunks as u32).collect(), ranks, &targets);
        prop_assert_eq!(q.ranks(), ranks, "every rank gets a queue, target or not");
        prop_assert_eq!(q.total_remaining(), n_chunks, "distribution dropped chunks");

        // Empty target set falls back to all ranks; otherwise non-targets
        // start empty and targets are balanced round-robin (within 1).
        if targets.is_empty() {
            let loaded = (0..ranks).filter(|&r| q.remaining(r) > 0).count();
            prop_assert!(n_chunks == 0 || loaded > 0);
        } else {
            for r in 0..ranks {
                if !targets.contains(&r) {
                    prop_assert_eq!(
                        q.remaining(r), 0,
                        "non-target rank {} was seeded with work", r
                    );
                }
            }
            let per: Vec<usize> = targets.iter().map(|&r| q.remaining(r)).collect();
            let (min, max) = (per.iter().min().unwrap(), per.iter().max().unwrap());
            prop_assert!(max - min <= 1, "unbalanced target loads: {:?}", per);
        }

        // A late joiner (non-target) can still acquire work by stealing,
        // and the usual pop/steal interleavings conserve every chunk.
        let mut popped: Vec<u32> = Vec::new();
        for sel in ops {
            let r = sel % ranks;
            if sel % 2 == 0 {
                if let Some(c) = q.pop_local(r) {
                    popped.push(c);
                }
            } else if let Some(v) = q.steal_victim(r) {
                prop_assert_ne!(v, r);
                let c = q.steal_from(v);
                prop_assert!(c.is_some());
                q.push_back(r, c.unwrap());
            }
            prop_assert_eq!(popped.len() + q.total_remaining(), n_chunks);
        }
        let mut seen = popped;
        for r in 0..ranks {
            while let Some(c) = q.pop_local(r) {
                seen.push(c);
            }
        }
        seen.sort_unstable();
        prop_assert_eq!(seen, (0..n_chunks as u32).collect::<Vec<u32>>());
    }

    #[test]
    fn joiner_outside_targets_can_be_fed_by_steals(
        n_chunks in 8usize..64,
        ranks in 2u32..9,
    ) {
        // The elastic scheduler's core move: all work sits on ranks
        // 0..ranks-1, the joiner (last rank) holds nothing, and a steal
        // lands it real work without disturbing conservation.
        let targets: Vec<u32> = (0..ranks - 1).collect();
        let mut q = WorkQueues::distribute_on((0..n_chunks as u32).collect(), ranks, &targets);
        let joiner = ranks - 1;
        prop_assert_eq!(q.remaining(joiner), 0);
        // 8+ chunks over <= 8 target ranks leaves some queue with >= 2.
        let v = q.steal_victim(joiner);
        prop_assert!(v.is_some(), "profitable victim must exist for the joiner");
        let c = q.steal_from(v.unwrap()).unwrap();
        q.push_back(joiner, c);
        prop_assert_eq!(q.remaining(joiner), 1);
        prop_assert_eq!(q.total_remaining(), n_chunks);
    }

    #[test]
    fn pops_and_steals_preserve_fifo_order_per_rank(
        n_chunks in 1usize..40,
        ranks in 1u32..6,
        pops in prop::collection::vec(any::<u32>(), 0..60),
    ) {
        // Chunks popped locally on one rank must come out in the order the
        // round-robin distribution queued them, even with steals removing
        // tail chunks in between.
        let mut q = WorkQueues::distribute((0..n_chunks as u32).collect(), ranks);
        let ranks = q.ranks();
        let mut last_popped: Vec<Option<u32>> = vec![None; ranks as usize];
        for sel in pops {
            let r = sel % ranks;
            if sel % 3 == 0 {
                if let Some(v) = q.steal_victim(r) {
                    q.steal_from(v);
                }
            } else if let Some(c) = q.pop_local(r) {
                if let Some(prev) = last_popped[r as usize] {
                    prop_assert!(
                        c > prev,
                        "rank {} popped {} after {} (FIFO violated)",
                        r,
                        c,
                        prev
                    );
                }
                last_popped[r as usize] = Some(c);
            }
        }
    }

    /// Mid-flight cancellation conserves chunks and releases device
    /// memory: for *any* stop instant, reached through any sequence of
    /// earlier steps, `committed + released` covers the whole input and
    /// every GPU ends with zero bytes resident.
    #[test]
    fn cancellation_conserves_chunks_and_frees_memory(
        n in 10_000usize..50_000,
        seed in 0u64..100,
        stop_frac in 0.05f64..1.5,
        mut step_fracs in prop::collection::vec(0.0f64..1.5, 0..6),
    ) {
        let data = generate_integers(n, seed);
        let chunks = sio_chunks(&data, 8 * 1024);
        let n_chunks = chunks.len() as u32;

        // Learn the fault-free makespan, then stop at a fraction of it.
        let mut cluster = Cluster::accelerator(4, GpuSpec::gt200());
        let full = run_job(&mut cluster, &SioJob::default(), chunks.clone())
            .expect("unrestricted run completes");
        let makespan = full.timings.total.as_secs();
        let stop = SimTime::from_secs(makespan * stop_frac);

        let job = SioJob::default();
        let mut cluster = Cluster::accelerator(4, GpuSpec::gt200());
        let mut run = Run::new(&mut cluster, &job, chunks, &mut RunOpts::default()).unwrap();
        step_fracs.retain(|&f| f < stop_frac);
        step_fracs.sort_by(f64::total_cmp);
        for f in step_fracs {
            let at = SimTime::from_secs(makespan * f);
            run.step_until(&mut cluster, &job, None, at).unwrap();
        }
        run.step_until(&mut cluster, &job, None, stop).unwrap();
        let EngineError::Cancelled { chunks_committed, chunks_released, .. } =
            run.cancel(&mut cluster, stop)
        else {
            unreachable!("cancel reports the stop");
        };
        prop_assert_eq!(
            chunks_committed + chunks_released,
            n_chunks,
            "cancel must account for every chunk"
        );
        for r in 0..4 {
            prop_assert_eq!(
                cluster.gpu(r).mem.used(),
                0,
                "rank {} holds device memory after cancel",
                r
            );
        }
    }
}
