//! Byte-identity pins for the WO corpus generators: what
//! `generate_text` and `generate_zipf_text` write, and the paper-sized
//! dictionary they draw from, pinned as `(len, FNV-1a)` pairs recorded on
//! the commit before both generators moved onto one emit loop over
//! 16-byte word slots. Every WO job's input, output and simulated time
//! starts from these bytes, so a digest that drifts means a draw, an RNG
//! stream or the line-breaking rule changed. The hand-built dictionary
//! holds the words a slot cannot take (16 bytes and up) beside one that
//! fills a slot to its separator (15 bytes) and the empty word.

use gpmr::apps::mph::MinimalPerfectHash;
use gpmr::apps::text::{generate_text, generate_zipf_text, Dictionary, PAPER_DICTIONARY_WORDS};
use gpmr::core::journal::fnv1a;

const ZIPF_S: f64 = 1.1;

fn digest(bytes: &[u8]) -> (usize, u64) {
    (bytes.len(), fnv1a(bytes))
}

fn paper_dictionary() -> Dictionary {
    Dictionary::generate(PAPER_DICTIONARY_WORDS, 0xd1c7)
}

fn awkward_dictionary() -> Dictionary {
    let words: Vec<Vec<u8>> = [
        &b""[..],
        b"a",
        b"xyz",
        b"abcdefghijklmno",
        b"abcdefghijklmnop",
        b"abcdefghijklmnopq",
        b"abcdefghijklmnopqrstuvwxyzabcd",
        b"word",
    ]
    .iter()
    .map(|w| w.to_vec())
    .collect();
    let refs: Vec<&[u8]> = words.iter().map(Vec::as_slice).collect();
    let mph = MinimalPerfectHash::build(&refs);
    Dictionary { words, mph }
}

/// The four (dictionary, size, seed) cases both generators are pinned on.
fn cases() -> Vec<(&'static str, Dictionary, usize, u64)> {
    vec![
        ("paper dictionary, 1 MiB", paper_dictionary(), 1 << 20, 42),
        (
            "512 words, 64 KiB",
            Dictionary::generate(512, 5),
            64 << 10,
            9,
        ),
        (
            "16-, 30-byte and empty words, 10 KiB",
            awkward_dictionary(),
            10 << 10,
            3,
        ),
        ("empty dictionary", Dictionary::generate(0, 1), 4096, 1),
    ]
}

#[test]
fn uniform_corpus_bytes_match_the_build_before_word_slots() {
    let pinned = [
        (
            "paper dictionary, 1 MiB",
            (1_048_585, 0xe6bb_6fe0_7e9a_e185),
        ),
        ("512 words, 64 KiB", (65_538, 0x16c0_a6e1_adf7_fb62)),
        (
            "16-, 30-byte and empty words, 10 KiB",
            (10_254, 0x66ae_a3f6_fe43_30c2),
        ),
        ("empty dictionary", (0, 0xcbf2_9ce4_8422_2325)),
    ];
    let got: Vec<_> = cases()
        .into_iter()
        .map(|(name, dict, bytes, seed)| (name, digest(&generate_text(&dict, bytes, seed))))
        .collect();
    assert_eq!(got, pinned);
}

#[test]
fn zipf_corpus_bytes_match_the_build_before_word_slots() {
    let pinned = [
        (
            "paper dictionary, 1 MiB",
            (1_048_578, 0xb110_f6e8_1ab5_babb),
        ),
        ("512 words, 64 KiB", (65_540, 0xca82_0c48_3cf8_88d0)),
        (
            "16-, 30-byte and empty words, 10 KiB",
            (10_241, 0xb2b8_296e_22f8_19c1),
        ),
        ("empty dictionary", (0, 0xcbf2_9ce4_8422_2325)),
    ];
    let got: Vec<_> = cases()
        .into_iter()
        .map(|(name, dict, bytes, seed)| {
            (
                name,
                digest(&generate_zipf_text(&dict, bytes, ZIPF_S, seed)),
            )
        })
        .collect();
    assert_eq!(got, pinned);
}

#[test]
fn paper_dictionary_words_are_pinned() {
    let dict = paper_dictionary();
    let list: Vec<u8> = dict.words.join(&b'\n');
    assert_eq!(digest(&list), (368_399, 0x9bb6_e33a_250c_cda4));
}
