//! Dictionary and text-corpus generation for Word Occurrence.
//!
//! The paper's WO input is "randomly generated text from a forty-three
//! thousand word dictionary, separated at line boundaries", with each
//! chunk containing millions of bytes. The generators here are seeded and
//! deterministic; chunks are cut at line boundaries so no word straddles
//! a chunk (exactly the property the paper's mapper relies on).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use gpmr_core::SliceChunk;

use crate::mph::{is_separator, MinimalPerfectHash};

/// The paper's dictionary size.
pub const PAPER_DICTIONARY_WORDS: usize = 43_000;

/// A fixed word list plus its minimal perfect hash.
#[derive(Clone, Debug)]
pub struct Dictionary {
    /// The words (distinct, lowercase ASCII).
    pub words: Vec<Vec<u8>>,
    /// Minimal perfect hash assigning each word a dense `u32` id.
    pub mph: MinimalPerfectHash,
}

impl Dictionary {
    /// Generate `n` distinct pseudo-random words (3–12 lowercase letters)
    /// and build their minimal perfect hash.
    pub fn generate(n: usize, seed: u64) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut set = std::collections::HashSet::with_capacity(n);
        let mut words = Vec::with_capacity(n);
        while words.len() < n {
            let len = rng.gen_range(3..=12);
            let w: Vec<u8> = (0..len).map(|_| rng.gen_range(b'a'..=b'z')).collect();
            if set.insert(w.clone()) {
                words.push(w);
            }
        }
        let refs: Vec<&[u8]> = words.iter().map(Vec::as_slice).collect();
        let mph = MinimalPerfectHash::build(&refs);
        Dictionary { words, mph }
    }

    /// Number of words.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// True if the dictionary is empty.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }
}

/// Generate roughly `total_bytes` of text: dictionary words separated by
/// spaces, newline about every 64 bytes. An empty dictionary has no words
/// to draw, so its text is empty.
pub fn generate_text(dict: &Dictionary, total_bytes: usize, seed: u64) -> Vec<u8> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x7465_7874);
    let n = dict.words.len();
    emit(&dict.words, total_bytes, || rng.gen_range(0..n))
}

/// Generate roughly `total_bytes` of *skewed* text: words drawn from the
/// dictionary with Zipf(`s`) frequencies (dictionary order is rank order
/// — word 0 is the hottest). The workload the skew-aware shuffle exists
/// for: a handful of words dominate the corpus, so their keys dominate
/// the pair stream. Empty for an empty dictionary, like [`generate_text`].
pub fn generate_zipf_text(dict: &Dictionary, total_bytes: usize, s: f64, seed: u64) -> Vec<u8> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x7a69_7066);
    // Inverse-CDF table over word ranks.
    let mut cdf = Vec::with_capacity(dict.words.len());
    let mut acc = 0.0f64;
    for k in 1..=dict.words.len() {
        acc += 1.0 / (k as f64).powf(s);
        cdf.push(acc);
    }
    let total = acc;
    emit(&dict.words, total_bytes, || {
        let u = rng.gen_range(0.0..total);
        cdf.partition_point(|&c| c < u)
    })
}

/// Bytes in a word slot: a word of at most `SLOT - 1` bytes, zero-padded,
/// so that the byte after the word is free for its separator.
const SLOT: usize = 16;

/// The emit loop both generators share. Appends `words[draw()]` and a
/// separator until the text reaches `total_bytes`, breaking the line once
/// it reaches 64 bytes, and ends the text with a newline. Empty for no
/// words (`draw` is never called).
///
/// Each word is packed once into a slot, so a draw is one fixed-size
/// `SLOT`-byte copy, the separator store and a cursor bump past both; the
/// padding the copy writes beyond the separator is overwritten by the next
/// word or cut off at the end. A word of `SLOT` bytes or more leaves no
/// room for its separator in a slot, so it takes the general arm: a copy
/// of its own length. The buffer is sized for the longest write either
/// arm can make from below `total_bytes`, plus the closing newline.
fn emit(words: &[Vec<u8>], total_bytes: usize, mut draw: impl FnMut() -> usize) -> Vec<u8> {
    if words.is_empty() {
        return Vec::new();
    }
    let slots: Vec<([u8; SLOT], usize)> = words
        .iter()
        .map(|w| {
            let mut slot = [0u8; SLOT];
            if w.len() < SLOT {
                slot[..w.len()].copy_from_slice(w);
            }
            (slot, w.len())
        })
        .collect();
    let longest = words.iter().map(Vec::len).max().unwrap_or(0);
    let mut out = vec![0u8; total_bytes + SLOT.max(longest + 1)];
    let (mut end, mut line) = (0usize, 0usize);
    while end < total_bytes {
        let i = draw();
        let (slot, len) = slots[i];
        if len < SLOT {
            out[end..end + SLOT].copy_from_slice(&slot);
        } else {
            out[end..end + len].copy_from_slice(&words[i]);
        }
        line += len + 1;
        out[end + len] = if line >= 64 {
            line = 0;
            b'\n'
        } else {
            b' '
        };
        end += len + 1;
    }
    out.truncate(end);
    if *out.last().unwrap_or(&b'\n') != b'\n' {
        out.push(b'\n');
    }
    out
}

/// Split text into chunks of roughly `chunk_bytes`, cut at line
/// boundaries so words never straddle chunks.
pub fn chunk_text(text: &[u8], chunk_bytes: usize) -> Vec<SliceChunk<u8>> {
    let chunk_bytes = chunk_bytes.max(1);
    let mut chunks = Vec::new();
    let mut start = 0usize;
    let mut id = 0u32;
    while start < text.len() {
        let mut end = (start + chunk_bytes).min(text.len());
        if end < text.len() {
            // Extend to the next newline.
            while end < text.len() && text[end - 1] != b'\n' {
                end += 1;
            }
        }
        chunks.push(SliceChunk::new(id, start as u64, text[start..end].to_vec()));
        id += 1;
        start = end;
    }
    chunks
}

/// Iterate the words of a text buffer (split on spaces and newlines).
pub fn words_of(text: &[u8]) -> impl Iterator<Item = &[u8]> {
    text.split(|&b| is_separator(b)).filter(|w| !w.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpmr_core::Chunk as _;

    #[test]
    fn dictionary_words_are_distinct() {
        let d = Dictionary::generate(500, 1);
        assert_eq!(d.len(), 500);
        let set: std::collections::HashSet<_> = d.words.iter().collect();
        assert_eq!(set.len(), 500);
        assert!(!d.is_empty());
    }

    #[test]
    fn text_contains_only_dictionary_words() {
        let d = Dictionary::generate(100, 2);
        let text = generate_text(&d, 10_000, 3);
        assert!(text.len() >= 10_000);
        let dict_set: std::collections::HashSet<&[u8]> =
            d.words.iter().map(Vec::as_slice).collect();
        for w in words_of(&text) {
            assert!(dict_set.contains(w), "unknown word {:?}", w);
        }
    }

    #[test]
    fn empty_dictionary_generates_empty_text() {
        // Both generators used to panic sampling `0..0`.
        let d = Dictionary::generate(0, 1);
        assert!(d.is_empty());
        assert!(generate_text(&d, 4096, 2).is_empty());
        assert!(generate_zipf_text(&d, 4096, 1.1, 2).is_empty());
        assert!(chunk_text(&[], 1024).is_empty());
    }

    #[test]
    fn generation_is_deterministic() {
        let d = Dictionary::generate(100, 2);
        assert_eq!(generate_text(&d, 5000, 9), generate_text(&d, 5000, 9));
    }

    #[test]
    fn chunks_cut_at_line_boundaries() {
        let d = Dictionary::generate(100, 2);
        let text = generate_text(&d, 50_000, 4);
        let chunks = chunk_text(&text, 8_000);
        assert!(chunks.len() >= 6);
        let mut rebuilt = Vec::new();
        for (i, c) in chunks.iter().enumerate() {
            if i + 1 < chunks.len() {
                assert_eq!(*c.items.last().unwrap(), b'\n', "chunk {i} mid-line");
            }
            assert_eq!(c.global_offset as usize, rebuilt.len());
            rebuilt.extend_from_slice(&c.items);
        }
        assert_eq!(rebuilt, text);
    }

    #[test]
    fn chunk_word_counts_match_whole_text() {
        let d = Dictionary::generate(50, 5);
        let text = generate_text(&d, 20_000, 6);
        let whole = words_of(&text).count();
        let chunks = chunk_text(&text, 3_000);
        let split: usize = chunks.iter().map(|c| words_of(&c.items).count()).sum();
        assert_eq!(whole, split);
        let _ = chunks[0].size_bytes();
    }
}
