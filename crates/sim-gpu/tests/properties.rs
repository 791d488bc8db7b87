//! Property-based tests for the device model: timing monotonicity,
//! timeline exclusivity, memory conservation, and launch determinism on
//! arbitrary inputs.

use gpmr_sim_gpu::{
    kernel_time, occupancy, Direction, GpuSpec, KernelCost, LaunchConfig, PcieLink, ScaleLaw,
    SimDuration, SimTime, Timeline,
};
use proptest::prelude::*;

fn spec() -> GpuSpec {
    GpuSpec::gt200()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn kernel_time_is_monotone_in_every_cost_component(
        flops in 0u64..1 << 40,
        coalesced in 0u64..1 << 34,
        uncoalesced in 0u64..1 << 30,
        atomics in 0u64..1 << 28,
        extra in 1u64..1 << 20,
    ) {
        let s = spec();
        let base = KernelCost {
            flops,
            bytes_coalesced: coalesced,
            bytes_uncoalesced: uncoalesced,
            atomic_ops: atomics,
        };
        let t0 = kernel_time(&s, 1.0, &base).as_secs();
        for grown in [
            KernelCost { flops: flops + extra, ..base },
            KernelCost { bytes_coalesced: coalesced + extra, ..base },
            KernelCost { bytes_uncoalesced: uncoalesced + extra, ..base },
            KernelCost { atomic_ops: atomics + extra, ..base },
        ] {
            prop_assert!(kernel_time(&s, 1.0, &grown).as_secs() >= t0);
        }
    }

    #[test]
    fn lower_occupancy_is_never_faster(
        flops in 1u64..1 << 36,
        bytes in 1u64..1 << 32,
        occ_hi in 0.05f64..1.0,
        occ_delta in 0.01f64..0.5,
    ) {
        let s = spec();
        let cost = KernelCost {
            flops,
            bytes_coalesced: bytes,
            ..KernelCost::ZERO
        };
        let occ_lo = (occ_hi - occ_delta).max(0.01);
        let hi = kernel_time(&s, occ_hi, &cost).as_secs();
        let lo = kernel_time(&s, occ_lo, &cost).as_secs();
        prop_assert!(lo >= hi - 1e-15);
    }

    #[test]
    fn timeline_reservations_never_overlap(
        requests in prop::collection::vec((0.0f64..10.0, 0.0f64..0.5), 1..50),
    ) {
        let mut tl = Timeline::new();
        let mut reservations = Vec::new();
        for (earliest, dur) in requests {
            reservations.push(
                tl.reserve(SimTime::from_secs(earliest), SimDuration::from_secs(dur)),
            );
        }
        // FIFO service: each reservation starts no earlier than the
        // previous one ended.
        for w in reservations.windows(2) {
            prop_assert!(w[1].start >= w[0].end);
        }
        // Busy time equals the sum of durations.
        let total: f64 = reservations.iter().map(|r| r.duration().as_secs()).sum();
        prop_assert!((tl.busy_time().as_secs() - total).abs() < 1e-9);
    }

    #[test]
    fn occupancy_fraction_is_bounded(
        threads in 1u32..512,
        shared in 0u32..16 * 1024,
        regs in 1u32..64,
    ) {
        let s = spec();
        let cfg = LaunchConfig::grid(8, threads)
            .with_shared_bytes(shared)
            .with_regs_per_thread(regs);
        let occ = occupancy(&s, &cfg);
        prop_assert!(occ.fraction >= 0.0);
        prop_assert!(occ.fraction <= 1.0 + 1e-12);
        // Residency never exceeds the hardware block cap.
        prop_assert!(occ.blocks_per_sm <= s.max_blocks_per_sm);
    }

    #[test]
    fn item_ranges_partition_any_total(
        total in 0usize..100_000,
        blocks in 1u32..2048,
    ) {
        use gpmr_sim_gpu::Gpu;
        let mut gpu = Gpu::new(spec());
        let cfg = LaunchConfig::grid(blocks, 64);
        let (launch, _) = gpu
            .launch(SimTime::ZERO, &cfg, |ctx| ctx.item_range(total))
            .unwrap();
        let mut covered = 0usize;
        let mut last_end = 0usize;
        for r in launch.outputs {
            prop_assert!(r.start >= last_end || r.is_empty());
            covered += r.len();
            last_end = last_end.max(r.end);
        }
        prop_assert_eq!(covered, total);
    }

    #[test]
    fn scaled_hardware_stretches_time_linearly(
        flops in 1u64..1 << 36,
        bytes in 1u64..1 << 30,
        scale in 2.0f64..128.0,
    ) {
        let base = spec();
        let slow = spec().scaled(ScaleLaw::uniform(scale));
        let cost = KernelCost {
            flops,
            bytes_coalesced: bytes,
            ..KernelCost::ZERO
        };
        // Remove the fixed launch overhead before comparing.
        let t_base = kernel_time(&base, 1.0, &cost).as_secs() - base.kernel_launch_overhead_s;
        let t_slow = kernel_time(&slow, 1.0, &cost).as_secs() - slow.kernel_launch_overhead_s;
        prop_assert!((t_slow / t_base - scale).abs() / scale < 1e-9);
    }

    #[test]
    fn mm_law_stretches_compute_by_d_cubed_and_transfers_by_d_squared(
        flops in 1u64..1 << 36,
        bytes in 1u64..1 << 30,
        log_d in 1u32..8,
    ) {
        let d = 1u64 << log_d;
        let law = ScaleLaw::mm(d);
        let (base, slow) = (spec(), spec().scaled(law));
        prop_assert_eq!(slow.kernel_launch_overhead_s, base.kernel_launch_overhead_s);
        let d3 = (d * d * d) as f64;
        for cost in [
            KernelCost { flops, ..KernelCost::ZERO },
            KernelCost { bytes_coalesced: bytes, ..KernelCost::ZERO },
        ] {
            let t_base = kernel_time(&base, 1.0, &cost).as_secs() - base.kernel_launch_overhead_s;
            let t_slow = kernel_time(&slow, 1.0, &cost).as_secs() - slow.kernel_launch_overhead_s;
            prop_assert!((t_slow / t_base - d3).abs() / d3 < 1e-9, "{:?}", cost);
        }
        let (mut fast_link, mut slow_link) =
            (PcieLink::gen1_x16(), PcieLink::gen1_x16().scaled(law));
        prop_assert_eq!(slow_link.latency_s, fast_link.latency_s);
        let latency = fast_link.latency_s;
        let wire = |link: &mut PcieLink| {
            let r = link.transfer(Direction::HostToDevice, SimTime::ZERO, bytes);
            r.duration().as_secs() - latency
        };
        let d2 = (d * d) as f64;
        prop_assert!((wire(&mut slow_link) / wire(&mut fast_link) - d2).abs() / d2 < 1e-9);
    }
}
