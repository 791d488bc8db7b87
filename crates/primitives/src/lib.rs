//! # gpmr-primitives — CUDPP-equivalent data-parallel primitives
//!
//! GPMR leans on the CUDA Data-Parallel Primitives library for its scan
//! and sort (paper §2.1). This crate provides the same building blocks as
//! kernels on the simulated GPU, so their cost accrues through the same
//! roofline model as application kernels:
//!
//! * [`exclusive_scan`]/[`inclusive_scan`]/[`reduce`] — Harris-style
//!   three-phase device-wide prefix sums;
//! * [`compact()`] — order-preserving stream compaction;
//! * [`histogram()`] — per-block shared-memory histograms, merged;
//! * [`sort_pairs`]/[`sort_keys`] — Satish-style LSD radix sort over
//!   configurable-width digits (default 11-bit with a fused final pass;
//!   see [`SortConfig`]) with CUDPP-like significant-bit detection
//!   (GPMR's default Sorter for integer keys);
//! * [`extract_segments`] — unique keys + contiguous value ranges from a
//!   sorted sequence (GPMR's post-sort key dedup);
//! * [`segmented_inclusive_scan`]/[`segmented_reduce`] — Sengupta-style
//!   segmented operations for skew-tolerant reducers;
//! * [`bitonic_sort_by`] — comparator-network fallback for non-integer
//!   keys (and the Mars baseline's sort).

#![warn(missing_docs)]

pub mod bitonic;
pub mod compact;
pub mod elem;
pub mod histogram;
pub mod radix;
pub mod scan;
pub mod segmented;
pub mod segments;

pub use bitonic::{bitonic_sort_by, bitonic_sort_pairs_by};
pub use compact::compact;
pub use elem::{AddElem, RadixKey};
pub use histogram::histogram;
pub use radix::{
    bits_for_radix, sort_keys, sort_pairs, sort_pairs_config, sort_pairs_with_bits,
    sort_pairs_with_bits_config, sort_parts_with_bits, SortConfig, SortPart, SortScratch,
};
pub use scan::{exclusive_scan, inclusive_scan, reduce};
pub use segmented::{flags_from_segments, segmented_inclusive_scan, segmented_reduce};
pub use segments::{extract_segments, extract_segments_into, Segments};
