//! The declared coalescing model checked against the GT200's real
//! coalescing rules.
//!
//! Kernels *declare* whether an access pattern coalesces
//! (`charge_read` vs `charge_read_uncoalesced`), and the roofline charges
//! an uncoalesced byte [`GpuSpec::uncoalesced_penalty`] times. This file
//! holds the oracle that penalty is held to: given the per-lane addresses
//! of a warp's memory instruction, it applies the GT200's coalescing
//! algorithm (CUDA compute capability 1.2/1.3, the hardware of the
//! paper's cluster):
//!
//! 1. process each *half-warp* (16 lanes) independently;
//! 2. start with the segment size implied by the element width
//!    (1 byte → 32 B, 2 bytes → 64 B, 4+ bytes → 128 B);
//! 3. issue one transaction per distinct aligned segment touched by the
//!    half-warp's active lanes;
//! 4. shrink each transaction to 64 B / 32 B when all of its lanes fall in
//!    the smaller aligned window.

use std::collections::BTreeSet;

use gpmr_sim_gpu::{BlockCtx, Gpu, GpuSpec, KernelCost, LaunchConfig, SimTime};

/// Result of coalescing analysis for one or more warp memory operations.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct CoalescingSummary {
    /// Memory transactions issued.
    transactions: u64,
    /// Bytes moved over the memory bus (transaction granularity).
    bytes_moved: u64,
    /// Bytes the lanes actually requested.
    bytes_useful: u64,
}

impl CoalescingSummary {
    /// Bus bytes per useful byte (1.0 = perfectly coalesced).
    fn waste_factor(&self) -> f64 {
        if self.bytes_useful == 0 {
            return 1.0;
        }
        self.bytes_moved as f64 / self.bytes_useful as f64
    }

    /// Merge another summary into this one.
    fn merge(&mut self, other: CoalescingSummary) {
        self.transactions += other.transactions;
        self.bytes_moved += other.bytes_moved;
        self.bytes_useful += other.bytes_useful;
    }
}

/// The half-warp width of the GT200's coalescing hardware.
const HALF_WARP: usize = 16;

fn natural_segment(elem_bytes: u64) -> u64 {
    match elem_bytes {
        0 | 1 => 32,
        2 => 64,
        _ => 128,
    }
}

/// Analyze one warp-wide memory operation: `addresses[i]` is the byte
/// address accessed by lane `i` (up to 32 lanes; fewer means the rest are
/// inactive), each reading/writing `elem_bytes` bytes.
fn coalesce_warp(addresses: &[u64], elem_bytes: u64) -> CoalescingSummary {
    let elem = elem_bytes.max(1);
    let mut summary = CoalescingSummary::default();
    for half in addresses.chunks(HALF_WARP) {
        if half.is_empty() {
            continue;
        }
        summary.bytes_useful += elem * half.len() as u64;
        let seg = natural_segment(elem);
        // Distinct aligned segments touched by this half-warp.
        let mut segments: BTreeSet<u64> = BTreeSet::new();
        for &a in half {
            segments.insert(a / seg);
            // An element straddling a segment boundary touches the next
            // one too.
            if (a + elem - 1) / seg != a / seg {
                segments.insert((a + elem - 1) / seg);
            }
        }
        for &s in &segments {
            // Lanes belonging to this segment.
            let lo = half
                .iter()
                .filter(|&&a| a / seg == s)
                .copied()
                .min()
                .unwrap_or(s * seg);
            let hi = half
                .iter()
                .filter(|&&a| a / seg == s)
                .map(|&a| a + elem)
                .max()
                .unwrap_or(s * seg + seg);
            // Shrink 128 -> 64 -> 32 while the touched range fits an
            // aligned smaller window.
            let mut size = seg;
            while size > 32 {
                let smaller = size / 2;
                let base = (lo / smaller) * smaller;
                if hi <= base + smaller {
                    size = smaller;
                } else {
                    break;
                }
            }
            summary.transactions += 1;
            summary.bytes_moved += size;
        }
    }
    summary
}

#[test]
fn sequential_f32_access_is_one_transaction_per_half_warp() {
    // 32 lanes reading consecutive f32s: 2 half-warps, each fitting a
    // 64-byte aligned window (16 lanes x 4 bytes).
    let addrs: Vec<u64> = (0..32).map(|i| i * 4).collect();
    let s = coalesce_warp(&addrs, 4);
    assert_eq!(s.transactions, 2);
    assert_eq!(s.bytes_moved, 128);
    assert_eq!(s.bytes_useful, 128);
    assert!((s.waste_factor() - 1.0).abs() < 1e-12);
}

#[test]
fn broadcast_access_is_one_shrunk_transaction() {
    // Every lane reads the same 4-byte word: one 32-byte transaction
    // per half-warp.
    let addrs = vec![1024u64; 32];
    let s = coalesce_warp(&addrs, 4);
    assert_eq!(s.transactions, 2);
    assert_eq!(s.bytes_moved, 64);
    assert_eq!(s.bytes_useful, 128);
}

#[test]
fn stride_two_doubles_bus_traffic() {
    let unit: Vec<u64> = (0..32).map(|i| i * 4).collect();
    let strided: Vec<u64> = (0..32).map(|i| i * 8).collect();
    let s1 = coalesce_warp(&unit, 4);
    let s2 = coalesce_warp(&strided, 4);
    assert_eq!(s1.bytes_useful, s2.bytes_useful);
    assert!(s2.bytes_moved >= 2 * s1.bytes_moved);
}

#[test]
fn random_scatter_approaches_one_transaction_per_lane() {
    // Addresses far apart: every lane pays its own (shrunk) 32-byte
    // transaction.
    let addrs: Vec<u64> = (0..32).map(|i| i * 4096).collect();
    let s = coalesce_warp(&addrs, 4);
    assert_eq!(s.transactions, 32);
    assert_eq!(s.bytes_moved, 32 * 32);
    assert!((s.waste_factor() - 8.0).abs() < 1e-12);
}

#[test]
fn waste_factor_matches_the_declared_penalty_model() {
    // The hand-declared model charges `uncoalesced_penalty` (8x on
    // GT200) for scattered 4-byte accesses — exactly the analyzer's
    // waste factor for full scatter.
    let spec = GpuSpec::gt200();
    let addrs: Vec<u64> = (0..32).map(|i| i * 1000).collect();
    let s = coalesce_warp(&addrs, 4);
    assert!((s.waste_factor() - spec.uncoalesced_penalty).abs() < 1e-9);
}

#[test]
fn byte_accesses_use_32_byte_segments() {
    // 16 consecutive bytes in one half-warp: one 32-byte transaction.
    let addrs: Vec<u64> = (0..16).collect();
    let s = coalesce_warp(&addrs, 1);
    assert_eq!(s.transactions, 1);
    assert_eq!(s.bytes_moved, 32);
}

#[test]
fn straddling_elements_touch_two_segments() {
    // An 8-byte element starting 4 bytes before a 128-byte boundary.
    let addrs = vec![124u64];
    let s = coalesce_warp(&addrs, 8);
    assert_eq!(s.transactions, 2);
}

#[test]
fn misaligned_sequential_access_pays_extra() {
    // The classic compute-1.x pitfall: a one-element offset breaks
    // perfect coalescing.
    let aligned: Vec<u64> = (0..16).map(|i| i * 4).collect();
    let shifted: Vec<u64> = (0..16).map(|i| 4 + i * 4).collect();
    let s_a = coalesce_warp(&aligned, 4);
    let s_b = coalesce_warp(&shifted, 4);
    assert!(s_b.bytes_moved > s_a.bytes_moved);
}

#[test]
fn empty_access_is_free() {
    let s = coalesce_warp(&[], 4);
    assert_eq!(s, CoalescingSummary::default());
    assert_eq!(s.waste_factor(), 1.0);
}

/// The bus bytes `addresses` move, one warp per 32 of them.
fn derived(addresses: &[u64]) -> CoalescingSummary {
    let mut total = CoalescingSummary::default();
    for warp in addresses.chunks(32) {
        total.merge(coalesce_warp(warp, 4));
    }
    total
}

/// The cost a one-block launch records for `charge`.
fn declared(charge: fn(&mut BlockCtx)) -> KernelCost {
    let mut gpu = Gpu::new(GpuSpec::gt200());
    let (launch, _) = gpu
        .launch(SimTime::ZERO, &LaunchConfig::grid(1, 32), charge)
        .unwrap();
    launch.cost
}

#[test]
fn derived_traffic_agrees_with_declared_charges_at_the_extremes() {
    // Perfectly sequential addresses: derived traffic equals the declared
    // coalesced charge.
    let seq: Vec<u64> = (0..256).map(|i| i * 4).collect();
    let summary = derived(&seq);
    let cost = declared(|ctx| ctx.charge_read::<u32>(256));
    assert_eq!(summary.bytes_moved, cost.bytes_coalesced);
    assert!((summary.waste_factor() - 1.0).abs() < 1e-12);

    // Full scatter: derived traffic equals the declared uncoalesced charge
    // times the penalty (8x for 4-byte elements on GT200).
    let scattered: Vec<u64> = (0..256).map(|i| i * 4096).collect();
    let moved = derived(&scattered).bytes_moved as f64;
    let effective =
        declared(|ctx| ctx.charge_read_uncoalesced::<u32>(256)).effective_bytes(&GpuSpec::gt200());
    assert!((moved - effective).abs() < 1e-9 * effective);
}
