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

    /// Build a dictionary from an explicit word list (e.g. loaded from a
    /// system word file). Words must be distinct; duplicates panic during
    /// minimal-perfect-hash construction.
    ///
    /// ```
    /// let words = ["map", "bin", "sort", "reduce"].map(|w| w.as_bytes().to_vec());
    /// let dict = gpmr_apps::text::Dictionary::from_words(words.to_vec());
    /// assert_eq!(dict.len(), 4);
    /// ```
    pub fn from_words(words: Vec<Vec<u8>>) -> Self {
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
    if dict.is_empty() {
        return Vec::new();
    }
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x7465_7874);
    let mut out = Vec::with_capacity(total_bytes + 16);
    let mut line = 0usize;
    while out.len() < total_bytes {
        let w = &dict.words[rng.gen_range(0..dict.words.len())];
        out.extend_from_slice(w);
        line += w.len() + 1;
        if line >= 64 {
            out.push(b'\n');
            line = 0;
        } else {
            out.push(b' ');
        }
    }
    if *out.last().unwrap_or(&b'\n') != b'\n' {
        out.push(b'\n');
    }
    out
}

/// Generate roughly `total_bytes` of *skewed* text: words drawn from the
/// dictionary with Zipf(`s`) frequencies (dictionary order is rank order
/// — word 0 is the hottest). The workload the skew-aware shuffle exists
/// for: a handful of words dominate the corpus, so their keys dominate
/// the pair stream. Empty for an empty dictionary, like [`generate_text`].
pub fn generate_zipf_text(dict: &Dictionary, total_bytes: usize, s: f64, seed: u64) -> Vec<u8> {
    if dict.is_empty() {
        return Vec::new();
    }
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x7a69_7066);
    // Inverse-CDF table over word ranks.
    let mut cdf = Vec::with_capacity(dict.words.len());
    let mut acc = 0.0f64;
    for k in 1..=dict.words.len() {
        acc += 1.0 / (k as f64).powf(s);
        cdf.push(acc);
    }
    let total = acc;
    let mut out = Vec::with_capacity(total_bytes + 16);
    let mut line = 0usize;
    while out.len() < total_bytes {
        let u = rng.gen_range(0.0..total);
        let w = &dict.words[cdf.partition_point(|&c| c < u)];
        out.extend_from_slice(w);
        line += w.len() + 1;
        if line >= 64 {
            out.push(b'\n');
            line = 0;
        } else {
            out.push(b' ');
        }
    }
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
    fn dictionary_from_words() {
        let words: Vec<Vec<u8>> = ["alpha", "beta", "gamma", "delta"]
            .iter()
            .map(|w| w.as_bytes().to_vec())
            .collect();
        let d = Dictionary::from_words(words.clone());
        assert_eq!(d.len(), 4);
        assert!(crate::mph::verify_perfect(
            &d.mph,
            &words.iter().map(Vec::as_slice).collect::<Vec<_>>()
        )
        .is_some());
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
