//! Failure injection: the error paths a user can hit must surface as
//! typed errors with intact `std::error::Error::source` chains — callers
//! diagnose programmatically by downcasting the chain, never by grepping
//! display strings.

use std::error::Error as StdError;

use gpmr::baselines::{run_mars, MarsError};
use gpmr::core::{EngineError, MapMode, PipelineConfig};
use gpmr::prelude::*;
use gpmr::sim_gpu::{FaultPlan, Gpu, SimGpuError, SimGpuResult, SimTime};
use gpmr::sim_net::TransferFault;
use gpmr_apps::sio::sio_chunks;

#[test]
fn oversized_chunks_are_rejected_with_capacity_info() {
    // A 16 MB device cannot stage a 12 MB chunk even twice, let alone at
    // the default pipeline depth.
    let spec = GpuSpec::gt200().with_mem_capacity(16 << 20);
    let mut cluster = Cluster::new(gpmr::sim_net::Topology::new(1, 2, 2), spec);
    let data = vec![7u32; 3 << 20];
    let chunks = sio_chunks(&data, 12 << 20);
    let err = run_job(&mut cluster, &SioJob::default(), chunks).unwrap_err();
    match err {
        EngineError::ChunkTooLarge {
            bytes,
            capacity,
            slots,
        } => {
            assert_eq!(bytes, 12 << 20);
            assert_eq!(capacity, 16 << 20);
            assert_eq!(slots, 4, "default pipeline depth, no gpu-direct slot");
        }
        other => panic!("expected ChunkTooLarge, got {other}"),
    }
    // ChunkTooLarge is a leaf diagnosis: nothing beneath it in the chain.
    assert!(err.source().is_none());
}

#[test]
fn chunk_capacity_boundary_is_exact_per_staging_slot() {
    use gpmr::core::{run_job_with, EngineTuning, RunOpts};
    // Device capacity of exactly pipeline_depth × chunk bytes: every
    // staging slot fits at once, so the job must run. One extra item per
    // chunk tips it over.
    let items = 65_536usize; // 256 KiB of u32 payload
    let chunk_bytes = (items * 4) as u64;
    let tuning = |depth: u32, gpu_direct: bool| EngineTuning {
        pipeline_depth: depth,
        gpu_direct,
        ..EngineTuning::default()
    };
    let run = |n_items: usize, capacity: u64, depth: u32, direct: bool| {
        let spec = GpuSpec::gt200().with_mem_capacity(capacity);
        let mut cluster = Cluster::new(gpmr::sim_net::Topology::new(1, 2, 2), spec);
        let data = vec![7u32; n_items];
        let chunks = sio_chunks(&data, n_items * 4); // one chunk holding all items
        let opts = RunOpts {
            tuning: tuning(depth, direct),
            ..RunOpts::default()
        };
        run_job_with(&mut cluster, &SioJob::default(), chunks, opts)
    };

    for depth in [1u32, 2, 4] {
        let capacity = chunk_bytes * u64::from(depth);
        // Exact fit: depth slots of chunk_bytes fill the device exactly.
        assert!(
            run(items, capacity, depth, false).is_ok(),
            "exact fit must pass at depth {depth}"
        );
        // One item over: the first chunk no longer fits per slot.
        let err = run(items + 1, capacity, depth, false).unwrap_err();
        match err {
            EngineError::ChunkTooLarge { bytes, slots, .. } => {
                assert_eq!(bytes, chunk_bytes + 4, "one u32 past the exact fit");
                assert_eq!(slots, u64::from(depth));
            }
            other => panic!("expected ChunkTooLarge at depth {depth}, got {other}"),
        }
    }

    // GPU-direct parks outbound pairs in device memory for the NIC, which
    // costs one more staging slot: the depth-4 exact fit now fails...
    let capacity = chunk_bytes * 4;
    let err = run(items, capacity, 4, true).unwrap_err();
    match err {
        EngineError::ChunkTooLarge { slots, .. } => {
            assert_eq!(slots, 5, "pipeline depth 4 plus the GPU-direct slot")
        }
        other => panic!("expected ChunkTooLarge with gpu-direct, got {other}"),
    }
    // ...and one more slot of capacity restores the exact fit.
    assert!(run(items, chunk_bytes * 5, 4, true).is_ok());
}

#[test]
fn invalid_pipeline_combinations_are_rejected() {
    struct BadJob;
    impl GpmrJob for BadJob {
        type Chunk = SliceChunk<u32>;
        type Key = u32;
        type Value = u32;
        fn pipeline(&self) -> PipelineConfig {
            PipelineConfig {
                map_mode: MapMode::Accumulate,
                combine: true, // mutually exclusive with Accumulation
                ..PipelineConfig::default()
            }
        }
        fn map(
            &self,
            _gpu: &mut Gpu,
            at: SimTime,
            _chunk: &Self::Chunk,
        ) -> SimGpuResult<(KvSet<u32, u32>, SimTime)> {
            Ok((KvSet::new(), at))
        }
    }
    let mut cluster = Cluster::accelerator(2, GpuSpec::gt200());
    let err = run_job(
        &mut cluster,
        &BadJob,
        vec![SliceChunk::new(0, 0, vec![1u32])],
    )
    .unwrap_err();
    assert!(matches!(err, EngineError::InvalidPipeline(_)));
}

#[test]
fn kernel_shared_memory_overflow_propagates() {
    struct GreedyKernelJob;
    impl GpmrJob for GreedyKernelJob {
        type Chunk = SliceChunk<u32>;
        type Key = u32;
        type Value = u32;
        fn map(
            &self,
            gpu: &mut Gpu,
            at: SimTime,
            _chunk: &Self::Chunk,
        ) -> SimGpuResult<(KvSet<u32, u32>, SimTime)> {
            let cfg = LaunchConfig::grid(4, 128).with_shared_bytes(64);
            let (_, res) = gpu.try_launch(at, &cfg, |ctx| {
                // Asks for more shared memory than the launch declared.
                let _buf: Vec<u64> = ctx.shared_alloc(100)?;
                Ok(())
            })?;
            Ok((KvSet::new(), res.end))
        }
    }
    let mut cluster = Cluster::accelerator(1, GpuSpec::gt200());
    let err = run_job(
        &mut cluster,
        &GreedyKernelJob,
        vec![SliceChunk::new(0, 0, vec![1u32; 16])],
    )
    .unwrap_err();
    match err {
        EngineError::Gpu(SimGpuError::SharedMemExceeded { declared, .. }) => {
            assert_eq!(declared, 64);
        }
        other => panic!("expected SharedMemExceeded, got {other}"),
    }
}

#[test]
fn device_oom_is_a_typed_error() {
    // What Mars's in-core check reports when a job outgrows the device.
    let err = SimGpuError::OutOfMemory {
        requested: 8000,
        available: 1024,
    };
    // Wrapped in an engine error, the device fault stays reachable (and
    // downcastable) through the source chain.
    let wrapped = EngineError::from(err);
    let source = wrapped.source().expect("Gpu errors must expose a source");
    let gpu_err = source
        .downcast_ref::<SimGpuError>()
        .expect("source must be the device-level SimGpuError");
    assert!(matches!(gpu_err, SimGpuError::OutOfMemory { .. }));
}

#[test]
fn killing_every_gpu_surfaces_a_typed_leaf_error() {
    let plan = FaultPlan::new().kill(0, 1e-6).kill(1, 1e-6);
    let mut cluster = Cluster::accelerator(2, GpuSpec::gt200());
    cluster.set_fault_plan(Some(plan));
    let data = vec![7u32; 20_000];
    let err = run_job(
        &mut cluster,
        &SioJob::default(),
        sio_chunks(&data, 8 * 1024),
    )
    .expect_err("no GPU survives");
    assert!(matches!(err, EngineError::GpuLost { .. }));
    // Total cluster loss has no deeper cause to report.
    assert!(err.source().is_none());
}

#[test]
fn exhausted_transfer_retries_expose_the_fabric_fault_as_source() {
    // Every 1 -> 0 transfer fails forever: the engine's retry budget runs
    // out and the fabric-level fault must ride along as the source.
    let plan = FaultPlan::new().transfer_fail(Some(1), Some(0), 0.0, f64::INFINITY, u32::MAX);
    let mut cluster = Cluster::accelerator(2, GpuSpec::gt200());
    cluster.set_fault_plan(Some(plan));
    let data: Vec<u32> = (0..40_000).map(|i| i % 64).collect();
    let err = run_job(
        &mut cluster,
        &SioJob::default(),
        sio_chunks(&data, 8 * 1024),
    )
    .expect_err("the route never recovers");
    match &err {
        EngineError::TransferFailed { attempt, fault } => {
            assert!(*attempt > 0);
            assert_eq!((fault.from, fault.to), (1, 0));
        }
        other => panic!("expected TransferFailed, got {other}"),
    }
    let source = err.source().expect("TransferFailed must expose a source");
    let fault = source
        .downcast_ref::<TransferFault>()
        .expect("source must be the fabric-level TransferFault");
    assert_eq!((fault.from, fault.to), (1, 0));
}

#[test]
fn mars_in_core_violation_reports_requirements() {
    struct FatEmitter;
    impl gpmr::baselines::MarsApp for FatEmitter {
        type Item = u32;
        type Key = u32;
        type Value = [f64; 8];
        fn count(&self, _ctx: &mut gpmr::sim_gpu::BlockCtx, _items: &[u32], _idx: usize) -> usize {
            4 // four 68-byte pairs per 4-byte item
        }
        fn emit(
            &self,
            _ctx: &mut gpmr::sim_gpu::BlockCtx,
            items: &[u32],
            idx: usize,
            out: &mut Vec<(u32, [f64; 8])>,
        ) {
            for i in 0..4 {
                out.push((items[idx].wrapping_add(i), [0.0; 8]));
            }
        }
        fn reduce(
            &self,
            _ctx: &mut gpmr::sim_gpu::BlockCtx,
            _key: u32,
            vals: &[[f64; 8]],
        ) -> [f64; 8] {
            vals[0]
        }
    }
    let mut gpu = Gpu::new(GpuSpec::gt200().with_mem_capacity(1 << 20));
    let items = vec![1u32; 100_000];
    let err = run_mars(&mut gpu, &FatEmitter, &items).unwrap_err();
    match err {
        MarsError::InCoreViolation { required, capacity } => {
            assert!(required > capacity);
            assert_eq!(capacity, 1 << 20);
        }
        other => panic!("expected InCoreViolation, got {other}"),
    }
}

#[test]
fn invalid_launches_are_rejected() {
    let mut gpu = Gpu::new(GpuSpec::gt200());
    // GT200 caps blocks at 512 threads.
    let cfg = LaunchConfig::grid(1, 1024);
    let err = gpu.launch(SimTime::ZERO, &cfg, |_| ()).unwrap_err();
    assert!(matches!(err, SimGpuError::InvalidLaunch(_)));
}
