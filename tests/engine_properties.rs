//! Property-based end-to-end tests: arbitrary inputs through the full
//! GPMR pipeline on arbitrary cluster shapes must match the sequential
//! reference, in every pipeline configuration.

use gpmr::apps::sio::{counts_from_output, cpu_reference, sio_chunks, SioMode};
use gpmr::prelude::*;
use proptest::prelude::*;

fn counts_match(result: &KvSet<u32, u32>, data: &[u32]) -> Result<(), TestCaseError> {
    prop_assert_eq!(counts_from_output(result), cpu_reference(data));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn sio_matches_reference_for_arbitrary_inputs(
        data in prop::collection::vec(0u32..10_000, 1..20_000),
        gpus in 1u32..12,
        chunk_kb in 1usize..64,
    ) {
        let mut cluster = Cluster::accelerator(gpus, GpuSpec::gt200());
        let result = run_job(
            &mut cluster,
            &SioJob::default(),
            sio_chunks(&data, chunk_kb * 1024),
        )
        .unwrap();
        counts_match(&result.merged_output(), &data)?;
        // Timing sanity: positive makespan, stage sums consistent.
        prop_assert!(result.total_time().as_secs() > 0.0);
        for st in &result.timings.per_rank {
            prop_assert!(
                (st.total().as_secs() - result.total_time().as_secs()).abs()
                    < 1e-9 * result.total_time().as_secs().max(1.0)
            );
        }
    }

    #[test]
    fn all_pipeline_modes_agree(
        data in prop::collection::vec(0u32..500, 1..8_000),
        gpus in 1u32..6,
    ) {
        let mut outputs = Vec::new();
        for mode in [SioMode::Plain, SioMode::PartialReduce, SioMode::Combine] {
            let mut cluster = Cluster::accelerator(gpus, GpuSpec::gt200());
            let result = run_job(
                &mut cluster,
                &SioJob::with_mode(mode),
                sio_chunks(&data, 8 * 1024),
            )
            .unwrap();
            counts_match(&result.merged_output(), &data)?;
            let mut pairs: Vec<(u32, u32)> =
                result.merged_output().iter().map(|(k, v)| (*k, *v)).collect();
            pairs.sort_unstable();
            outputs.push(pairs);
        }
        prop_assert_eq!(&outputs[0], &outputs[1]);
        prop_assert_eq!(&outputs[0], &outputs[2]);
    }

    #[test]
    fn block_and_round_robin_partitioning_agree(
        data in prop::collection::vec(0u32..100_000, 1..10_000),
        gpus in 1u32..9,
    ) {
        let max_key = u64::from(*data.iter().max().unwrap_or(&1));
        let mut c1 = Cluster::accelerator(gpus, GpuSpec::gt200());
        let rr = run_job(&mut c1, &SioJob::default(), sio_chunks(&data, 8 * 1024)).unwrap();
        let mut c2 = Cluster::accelerator(gpus, GpuSpec::gt200());
        let blocks = run_job(
            &mut c2,
            &SioJob::default().with_block_partition(max_key),
            sio_chunks(&data, 8 * 1024),
        )
        .unwrap();
        counts_match(&rr.merged_output(), &data)?;
        counts_match(&blocks.merged_output(), &data)?;
        // Blocks keep rank outputs in disjoint ascending key ranges.
        let mut prev_max: Option<u32> = None;
        for out in &blocks.outputs {
            if out.is_empty() {
                continue;
            }
            let lo = *out.keys.iter().min().unwrap();
            let hi = *out.keys.iter().max().unwrap();
            if let Some(p) = prev_max {
                prop_assert!(lo > p, "block ranges overlap: {} <= {}", lo, p);
            }
            prev_max = Some(hi);
        }
    }
}
