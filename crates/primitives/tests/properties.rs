//! Property-based tests for the data-parallel primitives: the invariants
//! CUDPP guarantees, checked on arbitrary inputs.

use gpmr_primitives::{
    bitonic_sort_pairs_by, exclusive_scan, extract_segments, sort_pairs,
    sort_pairs_with_bits_config, RadixKey, SortConfig,
};
use gpmr_sim_gpu::{Gpu, GpuSpec, SimTime};
use proptest::prelude::*;

fn gpu() -> Gpu {
    Gpu::new(GpuSpec::gt200())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn exclusive_scan_matches_prefix_sums(input in prop::collection::vec(0u64..1_000_000, 0..2000)) {
        let mut g = gpu();
        let (out, total, _) = exclusive_scan(&mut g, SimTime::ZERO, &input).unwrap();
        let mut acc = 0u64;
        for (i, &v) in input.iter().enumerate() {
            prop_assert_eq!(out[i], acc);
            acc += v;
        }
        prop_assert_eq!(total, acc);
    }

    #[test]
    fn radix_sort_is_a_sorted_permutation(keys in prop::collection::vec(any::<u32>(), 0..2000)) {
        let mut g = gpu();
        let vals: Vec<u32> = (0..keys.len() as u32).collect();
        let (sk, sv, _) = sort_pairs(&mut g, SimTime::ZERO, &keys, &vals).unwrap();
        // Sorted.
        prop_assert!(sk.windows(2).all(|w| w[0] <= w[1]));
        // A permutation: every value index appears once, attached to its key.
        let mut seen = vec![false; keys.len()];
        for (k, v) in sk.iter().zip(&sv) {
            prop_assert!(!seen[*v as usize]);
            seen[*v as usize] = true;
            prop_assert_eq!(*k, keys[*v as usize]);
        }
    }

    #[test]
    fn radix_sort_is_stable(keys in prop::collection::vec(0u32..16, 0..1500)) {
        let mut g = gpu();
        let vals: Vec<u32> = (0..keys.len() as u32).collect();
        let (sk, sv, _) = sort_pairs(&mut g, SimTime::ZERO, &keys, &vals).unwrap();
        for i in 1..sk.len() {
            if sk[i - 1] == sk[i] {
                prop_assert!(sv[i - 1] < sv[i]);
            }
        }
    }

    #[test]
    fn signed_radix_orders_like_ord(keys in prop::collection::vec(any::<i64>(), 0..1000)) {
        let mut radixes: Vec<u64> = keys.iter().map(|k| k.radix()).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        radixes.sort_unstable();
        let resorted: Vec<u64> = sorted.iter().map(|k| k.radix()).collect();
        prop_assert_eq!(radixes, resorted);
    }

    #[test]
    fn segments_partition_sorted_keys(mut keys in prop::collection::vec(0u32..50, 0..2000)) {
        keys.sort_unstable();
        let mut g = gpu();
        let (segs, _) = extract_segments(&mut g, SimTime::ZERO, &keys).unwrap();
        // Offsets tile the input exactly.
        prop_assert_eq!(segs.offsets.len(), segs.keys.len() + 1);
        prop_assert_eq!(*segs.offsets.last().unwrap(), keys.len());
        for i in 0..segs.len() {
            let r = segs.range(i);
            prop_assert!(!r.is_empty());
            prop_assert!(keys[r.clone()].iter().all(|&k| k == segs.keys[i]));
        }
        // Unique keys ascend strictly.
        prop_assert!(segs.keys.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn wide_and_fused_digits_match_8bit_reference(
        keys in prop::collection::vec(any::<u32>(), 0..2000),
        width in 1u32..=32,
    ) {
        // Mask keys to a random significant width so every pass-count path
        // (1..=8 passes depending on digit width) gets exercised.
        let keys: Vec<u32> = keys
            .iter()
            .map(|&k| if width == 32 { k } else { k & ((1u32 << width) - 1) })
            .collect();
        let vals: Vec<u32> = (0..keys.len() as u32).collect();
        let mut g = gpu();
        let (ref_k, ref_v, _) = sort_pairs_with_bits_config(
            &mut g, SimTime::ZERO, &keys, &vals, width, &SortConfig::reference(),
        )
        .unwrap();
        for digit_bits in [4u32, 8, 11] {
            for fuse_final in [false, true] {
                let cfg = SortConfig { digit_bits, fuse_final };
                let mut g = gpu();
                let (k, v, _) = sort_pairs_with_bits_config(
                    &mut g, SimTime::ZERO, &keys, &vals, width, &cfg,
                )
                .unwrap();
                prop_assert_eq!(&k, &ref_k, "keys diverged at {:?}", cfg);
                // Value agreement proves stability: values are original
                // indices, so any instability reorders equal keys' values.
                prop_assert_eq!(&v, &ref_v, "values diverged at {:?}", cfg);
            }
        }
    }

    #[test]
    fn bitonic_agrees_with_radix(keys in prop::collection::vec(any::<u32>(), 0..1200)) {
        let vals = vec![0u8; keys.len()];
        let mut g1 = gpu();
        let (bk, _, _) =
            bitonic_sort_pairs_by(&mut g1, SimTime::ZERO, &keys, &vals, |a, b| a.cmp(b)).unwrap();
        let mut g2 = gpu();
        let (rk, _, _) = sort_pairs(&mut g2, SimTime::ZERO, &keys, &vals).unwrap();
        prop_assert_eq!(bk, rk);
    }
}

mod pair_path {
    //! The reducer-side pair path: a sort that reads its input in pieces,
    //! and segment extraction that fills one output.

    use gpmr_primitives::segments::SEGMENT_ITEMS_PER_BLOCK;
    use gpmr_primitives::{
        extract_segments, extract_segments_into, sort_pairs, sort_pairs_with_bits,
        sort_pairs_with_bits_config, sort_parts_with_bits, Segments, SortConfig, SortPart,
        SortScratch,
    };
    use gpmr_sim_gpu::{Gpu, GpuSpec, SimTime};
    use gpmr_telemetry::{Counter, Telemetry};
    use proptest::prelude::*;

    /// A device with an enabled registry attached, and its kernel count.
    fn counted_gpu() -> (Gpu, Counter) {
        let tel = Telemetry::enabled();
        let mut g = Gpu::new(GpuSpec::gt200());
        g.attach_telemetry(&tel, 0);
        (g, tel.counter("gpu.rank0.kernels"))
    }

    /// `n` keys of `width` significant bits from a xorshift stream.
    fn keys_from(seed: u64, n: usize, width: u32) -> Vec<u32> {
        let mut x = seed | 1;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                ((x >> 20) as u32) & (u32::MAX >> (32 - width))
            })
            .collect()
    }

    /// One sort of the table below: `(bits of the end SimTime, kernels)`.
    type Recorded = (u64, u64);

    /// Recorded at 9cb304c, the last commit with a second, pooled sort
    /// (`one_pass_into`, taken there with 8 workers on a 2-core host from
    /// 2^16 pairs up), for `keys_from(n ^ bits, n, bits)` carrying their
    /// positions: `(n, bits, FNV-1a of sorted keys then values, [default
    /// config, reference config, sort_pairs])`. The first two are
    /// `sort_pairs_with_bits_config` at `bits`; `sort_pairs` finds the bits
    /// itself. The one sort left must reproduce the deleted one to the bit.
    #[rustfmt::skip]
    const RECORDED: [(usize, u32, u64, [Recorded; 3]); 15] = [
        (2, 8, 0x1821_a03a_b382_eccd, [(0x3edd_5fbe_b713_7160, 1), (0x3ef6_0af4_9604_d4ec, 3), (0x3ef6_0613_21f3_0c4c, 3)]),
        (2, 20, 0xf493_f090_33d4_fa7b, [(0x3efd_889e_b84a_068f, 4), (0x3f10_8837_7083_9fb1, 9), (0x3f06_1b61_163c_1b42, 6)]),
        (2, 32, 0xa461_06ef_224c_4af6, [(0x3f09_dca6_e167_9862, 7), (0x3f16_0af4_9604_d4eb, 12), (0x3f10_99dc_4dbf_582f, 9)]),
        (4095, 8, 0x798a_3c77_7db9_529c, [(0x3ee4_bdf8_18a5_e426, 1), (0x3ef9_68af_94ab_7106, 3), (0x3ef9_3835_a6d6_436e, 3)]),
        (4095, 20, 0x8913_93e4_e143_3404, [(0x3f01_f6b3_0abf_5c32, 4), (0x3f13_0e83_af80_94c5, 9), (0x3f09_634f_d801_04e0, 6)]),
        (4095, 32, 0x12ad_134c_ee77_4a75, [(0x3f0e_bde8_0f55_3f5a, 7), (0x3f19_68af_94ab_7106, 12), (0x3f13_1542_6e4b_7404, 9)]),
        (65_535, 8, 0x4694_a63a_7a9a_d104, [(0x3f0b_ec6f_aa5c_e056, 1), (0x3f13_103d_a567_98ab, 3), (0x3f12_4e4b_d2fc_d239, 3)]),
        (65_535, 20, 0xd29b_7acb_dc54_115d, [(0x3f20_ceaf_a64b_af00, 4), (0x3f2c_985c_781b_6500, 9), (0x3f22_fab9_a532_e008, 6)]),
        (65_535, 32, 0xbc00_3c24_2745_6118, [(0x3f2a_a243_6200_25ec, 7), (0x3f33_103d_a567_98ab, 12), (0x3f2c_ce4d_60e7_56f2, 9)]),
        (65_536, 8, 0xa073_8413_da50_4d19, [(0x3f0b_ec87_eb5e_a08d, 1), (0x3f13_104b_1eda_58ca, 3), (0x3f12_4e58_9ff6_a256, 3)]),
        (65_536, 20, 0x6b59_7e3c_6f3a_3282, [(0x3f20_cebc_7345_7f1d, 4), (0x3f2c_9870_ae47_852e, 9), (0x3f22_fac6_c869_2825, 6)]),
        (65_536, 32, 0x68af_de14_9bc5_4ea9, [(0x3f2a_a256_ebb3_5617, 7), (0x3f33_104b_1eda_58c9, 12), (0x3f2c_ce61_40d6_ff1f, 9)]),
        (1 << 20, 8, 0x6072_b734_96ad_5604, [(0x3f48_7bba_22e9_5155, 1), (0x3f4b_ce2c_e454_c3ed, 3), (0x3f4a_4a47_e68d_5705, 3)]),
        (1 << 20, 20, 0x6c2b_cbc4_fde3_5a87, [(0x3f5a_bbdd_55a0_5fcc, 4), (0x3f64_daa1_ab3f_92f1, 9), (0x3f5b_a324_3772_62a4, 6)]),
        (1 << 20, 32, 0x0912_80ab_654b_6702, [(0x3f64_9cee_cce6_0b76, 7), (0x3f6b_ce2c_e454_c3ec, 12), (0x3f65_1092_3dcf_0ce2, 9)]),
    ];

    #[test]
    fn sort_reproduces_the_times_kernels_and_bytes_recorded_before_the_pool_went() {
        let fnv1a = |keys: &[u32], vals: &[u32]| {
            keys.iter()
                .chain(vals)
                .flat_map(|w| w.to_le_bytes())
                .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                    (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
                })
        };
        for (n, bits, digest, [default, reference, max_radix]) in RECORDED {
            let keys = keys_from(n as u64 ^ u64::from(bits), n, bits);
            let vals: Vec<u32> = (0..n as u32).collect();
            for (cfg, expect) in [
                (Some(SortConfig::default()), default),
                (Some(SortConfig::reference()), reference),
                (None, max_radix),
            ] {
                let (mut g, kernels) = counted_gpu();
                let (k, v, t) = match cfg {
                    Some(cfg) => {
                        sort_pairs_with_bits_config(&mut g, SimTime::ZERO, &keys, &vals, bits, &cfg)
                    }
                    None => sort_pairs(&mut g, SimTime::ZERO, &keys, &vals),
                }
                .unwrap();
                let case = format!("n {n}, bits {bits}, {cfg:?}");
                assert_eq!(fnv1a(&k, &v), digest, "{case}");
                assert_eq!((t.as_secs().to_bits(), kernels.get()), expect, "{case}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn sort_of_parts_is_sort_of_their_concatenation(
            seed in any::<u64>(),
            small in 0usize..3000,
            big in any::<bool>(),
            width in 1u32..=32,
            cuts in prop::collection::vec(0usize..70_000, 0..12),
        ) {
            // Below 2^16 pairs the sort sweeps with its configured digits;
            // above, with 16-bit digits.
            let n = if big { (1 << 16) + small } else { small };
            let keys = keys_from(seed, n, width);
            // Values are original positions: agreement proves stability,
            // inside a part and across parts.
            let vals: Vec<u32> = (0..n as u32).collect();
            // Random boundaries; repeated cuts make empty parts, no cut
            // leaves one part.
            let mut bounds: Vec<usize> = cuts.iter().map(|c| c % (n + 1)).collect();
            bounds.extend([0, n]);
            bounds.sort_unstable();
            let parts: Vec<SortPart<'_, u32, u32>> = bounds
                .windows(2)
                .map(|w| (&keys[w[0]..w[1]], &vals[w[0]..w[1]]))
                .collect();

            let (mut g, kernels) = counted_gpu();
            let (ref_k, ref_v, ref_t) =
                sort_pairs_with_bits(&mut g, SimTime::ZERO, &keys, &vals, width).unwrap();
            let ref_kernels = kernels.get();

            // A scratch that already served a different, longer sort.
            let mut scratch = SortScratch::default();
            let other = keys_from(!seed, n + 100, 32);
            sort_parts_with_bits(&mut g, SimTime::ZERO, &[(&other, &other)], 32, &mut scratch)
                .unwrap();

            let (mut g, kernels) = counted_gpu();
            let t = sort_parts_with_bits(&mut g, SimTime::ZERO, &parts, width, &mut scratch)
                .unwrap();
            prop_assert_eq!(&scratch.keys, &ref_k);
            prop_assert_eq!(&scratch.vals, &ref_v);
            // Same simulated kernels, so the same simulated time.
            prop_assert_eq!(t, ref_t);
            prop_assert_eq!(kernels.get(), ref_kernels);
        }

        #[test]
        fn segments_match_a_naive_reference(
            first_key in 0u32..1000,
            runs in prop::collection::vec((1u32..5, 1usize..6000), 0..10),
        ) {
            // A single-element run first and last, and in between runs
            // long enough to straddle one or more block boundaries.
            let mut lens = vec![1usize];
            let mut gaps = vec![1u32];
            for (gap, len) in runs {
                gaps.push(gap);
                lens.push(len);
            }
            gaps.push(1);
            lens.push(1);
            let mut keys = Vec::new();
            let mut expect = Segments::default();
            let mut key = first_key;
            for (gap, len) in gaps.iter().zip(&lens) {
                key += gap;
                expect.keys.push(key);
                expect.offsets.push(keys.len());
                keys.extend(std::iter::repeat_n(key, *len));
            }
            expect.offsets.push(keys.len());

            let mut g = Gpu::new(GpuSpec::gt200());
            let (segs, t) = extract_segments(&mut g, SimTime::ZERO, &keys).unwrap();
            prop_assert_eq!(&segs, &expect);

            // Into buffers that held a longer result before.
            let mut reused = Segments::default();
            let longer: Vec<u32> = (0..keys.len() as u32 + SEGMENT_ITEMS_PER_BLOCK as u32).collect();
            extract_segments_into(&mut g, SimTime::ZERO, &longer, &mut reused).unwrap();
            let mut g = Gpu::new(GpuSpec::gt200());
            let t_into = extract_segments_into(&mut g, SimTime::ZERO, &keys, &mut reused).unwrap();
            prop_assert_eq!(&reused, &expect);
            prop_assert_eq!(t_into, t);
        }
    }
}
