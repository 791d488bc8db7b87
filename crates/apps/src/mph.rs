//! Minimal perfect hashing for the Word Occurrence dictionary.
//!
//! Strings make poor GPU keys (paper §5.3.3): variable length, wasted
//! fixed-size storage, atomics for emission. GPMR's WO instead assigns
//! each dictionary word a unique dense integer with a minimal perfect
//! hash, so the map kernel emits 4-byte keys that index directly into the
//! accumulation space. The paper cites Cichelli's construction; we use the
//! equivalent modern hash-and-displace scheme (CHD), which handles 43 k
//! words comfortably.

/// A minimal perfect hash over a fixed word list: maps each word to a
/// unique index in `0..n`, and any non-dictionary string to an arbitrary
/// index (callers that need exactness keep the word list for verification).
///
/// ```
/// use gpmr_apps::MinimalPerfectHash;
///
/// let words: Vec<&[u8]> = vec![b"map", b"reduce", b"sort"];
/// let mph = MinimalPerfectHash::build(&words);
/// let ids: std::collections::HashSet<u32> =
///     words.iter().map(|w| mph.index(w)).collect();
/// assert_eq!(ids.len(), 3); // distinct
/// assert!(ids.iter().all(|&i| i < 3)); // dense in 0..3
/// ```
#[derive(Clone, Debug)]
pub struct MinimalPerfectHash {
    /// Displacement seed per bucket.
    displacements: Vec<u32>,
    n: usize,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// True for the bytes that separate words in a WO corpus.
#[inline]
pub(crate) fn is_separator(b: u8) -> bool {
    b == b' ' || b == b'\n'
}

/// Final avalanche over an FNV-1a state.
#[inline]
fn avalanche(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^ (h >> 33)
}

fn hash_with_seed(word: &[u8], seed: u64) -> u64 {
    // FNV-1a, seeded.
    let mut h = FNV_OFFSET ^ seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    for &b in word {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    avalanche(h)
}

impl MinimalPerfectHash {
    /// Build a minimal perfect hash for `words`. Words must be distinct.
    ///
    /// Uses CHD: words are bucketed by a first-level hash; buckets are
    /// processed largest-first, searching for a per-bucket displacement
    /// seed that maps all of its words to unoccupied slots.
    ///
    /// # Panics
    /// Panics if `words` contains duplicates (no perfect hash exists).
    pub fn build(words: &[&[u8]]) -> Self {
        let n = words.len();
        if n == 0 {
            return MinimalPerfectHash {
                displacements: Vec::new(),
                n: 0,
            };
        }
        // ~4 words per bucket keeps displacement searches short.
        let buckets_len = n.div_ceil(4).max(1);
        // Each word's bucket is hashed once. The stable sort keeps a
        // bucket's words in list order and the buckets, which are the runs
        // of the sorted list, in index order among equal sizes.
        let mut grouped: Vec<(usize, &[u8])> = words
            .iter()
            .map(|&w| ((hash_with_seed(w, 0) % buckets_len as u64) as usize, w))
            .collect();
        grouped.sort_by_key(|&(b, _)| b);
        let mut buckets: Vec<&[(usize, &[u8])]> = grouped.chunk_by(|a, b| a.0 == b.0).collect();
        buckets.sort_by_key(|bucket| std::cmp::Reverse(bucket.len()));

        let mut displacements = vec![0u32; buckets_len];
        let mut occupied = vec![false; n];
        // The slots one displacement attempt claims, reused across
        // attempts and buckets.
        let mut slots: Vec<usize> = Vec::new();
        for bucket in buckets {
            let mut seed = 1u32;
            'search: loop {
                slots.clear();
                for &(_, w) in bucket {
                    let s = (hash_with_seed(w, u64::from(seed)) % n as u64) as usize;
                    if occupied[s] || slots.contains(&s) {
                        seed = seed
                            .checked_add(1)
                            .expect("MPH displacement search exhausted: duplicate words?");
                        continue 'search;
                    }
                    slots.push(s);
                }
                for &s in &slots {
                    occupied[s] = true;
                }
                displacements[bucket[0].0] = seed;
                break;
            }
        }
        debug_assert!(occupied.iter().all(|&o| o));
        MinimalPerfectHash { displacements, n }
    }

    /// Hash a word to its index in `0..len()`. Perfect (collision-free and
    /// minimal) for dictionary words.
    pub fn index(&self, word: &[u8]) -> u32 {
        if self.n == 0 {
            return 0;
        }
        self.second_level(word, hash_with_seed(word, 0))
    }

    /// Hash the word that starts at `text[start]` and runs to the next
    /// space, newline or end of `text`: returns `(index(word), end)` with
    /// `word = &text[start..end]`. One sweep finds the word's end and
    /// computes its first-level hash, which is what a map kernel scanning
    /// a line wants; [`MinimalPerfectHash::index`] needs the end up front.
    pub fn index_at(&self, text: &[u8], start: usize) -> (u32, usize) {
        let mut h = FNV_OFFSET;
        let mut end = start;
        for &b in &text[start..] {
            if is_separator(b) {
                break;
            }
            h ^= u64::from(b);
            h = h.wrapping_mul(FNV_PRIME);
            end += 1;
        }
        if self.n == 0 {
            return (0, end);
        }
        (self.second_level(&text[start..end], avalanche(h)), end)
    }

    /// The displaced hash of `word`, whose first-level hash is `first`.
    #[inline]
    fn second_level(&self, word: &[u8], first: u64) -> u32 {
        let b = (first % self.displacements.len() as u64) as usize;
        let seed = u64::from(self.displacements[b]);
        (hash_with_seed(word, seed) % self.n as u64) as u32
    }

    /// Approximate device-side table size in bytes (the paper: "43 k
    /// integer-integer pairs requires less than 350 kB").
    pub fn table_bytes(&self) -> u64 {
        (self.displacements.len() * 4) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whether `mph` maps `words` one-to-one onto `0..words.len()`.
    fn verify_perfect(mph: &MinimalPerfectHash, words: &[&[u8]]) -> bool {
        let mut seen = vec![false; words.len()];
        words.iter().all(|w| {
            let i = mph.index(w) as usize;
            i < seen.len() && !std::mem::replace(&mut seen[i], true)
        })
    }

    fn words(n: usize) -> Vec<Vec<u8>> {
        // Deterministic distinct pseudo-words.
        (0..n).map(|i| format!("word{i:06}").into_bytes()).collect()
    }

    #[test]
    fn small_dictionary_is_perfect() {
        let ws = words(100);
        let refs: Vec<&[u8]> = ws.iter().map(Vec::as_slice).collect();
        let mph = MinimalPerfectHash::build(&refs);
        assert_eq!(mph.n, 100);
        assert!(verify_perfect(&mph, &refs));
    }

    #[test]
    fn dictionary_scale_43k_is_perfect() {
        let ws = words(43_000);
        let refs: Vec<&[u8]> = ws.iter().map(Vec::as_slice).collect();
        let mph = MinimalPerfectHash::build(&refs);
        assert!(verify_perfect(&mph, &refs));
        // The paper's observation: the table is small (< 350 kB).
        assert!(mph.table_bytes() < 350 * 1024);
    }

    #[test]
    fn empty_and_singleton() {
        let mph = MinimalPerfectHash::build(&[]);
        assert_eq!(mph.n, 0);
        assert_eq!(mph.index(b"anything"), 0);

        let mph = MinimalPerfectHash::build(&[b"only".as_slice()]);
        assert_eq!(mph.n, 1);
        assert_eq!(mph.index(b"only"), 0);
    }

    #[test]
    fn indices_are_dense() {
        let ws = words(1000);
        let refs: Vec<&[u8]> = ws.iter().map(Vec::as_slice).collect();
        let mph = MinimalPerfectHash::build(&refs);
        let mut hit = vec![false; 1000];
        for w in &refs {
            hit[mph.index(w) as usize] = true;
        }
        assert!(hit.iter().all(|&h| h));
    }

    fn le_bytes(ids: impl Iterator<Item = u32>) -> Vec<u8> {
        ids.flat_map(u32::to_le_bytes).collect()
    }

    #[test]
    fn paper_dictionary_ids_and_displacements_are_pinned() {
        // Word ids feed partitioning, job outputs and journal digests, so
        // a change to the hash or to `build` must not move any of them.
        // Recorded on the commit before `build` stopped allocating per
        // displacement attempt and `index_at` existed.
        let dict = crate::text::Dictionary::generate(43_000, 42);
        let ids = le_bytes(dict.words.iter().map(|w| dict.mph.index(w)));
        assert_eq!(ids.len(), 172_000);
        assert_eq!(gpmr_core::journal::fnv1a(&ids), 0xb273_b4cd_3032_5109);
        let table = le_bytes(dict.mph.displacements.iter().copied());
        assert_eq!(table.len(), 43_000);
        assert_eq!(gpmr_core::journal::fnv1a(&table), 0x18bb_0508_f7e1_8b7b);
    }

    #[test]
    fn index_at_agrees_with_index_on_every_word() {
        let dict = crate::text::Dictionary::generate(500, 7);
        let mut text = crate::text::generate_text(&dict, 20_000, 8);
        // No trailing newline: the last word ends where the text does.
        while text.last().is_some_and(|&b| is_separator(b)) {
            text.pop();
        }
        let mut start = 0;
        let mut words = 0;
        for w in text.split(|&b| is_separator(b)) {
            if !w.is_empty() {
                assert_eq!(
                    dict.mph.index_at(&text, start),
                    (dict.mph.index(w), start + w.len())
                );
                words += 1;
            }
            start += w.len() + 1;
        }
        assert!(words > 2_000);
        assert_eq!(start, text.len() + 1, "last word ran to the text end");

        // Non-dictionary bytes, the empty word and the empty dictionary.
        assert_eq!(
            dict.mph.index_at(b"\xff\x00zz rest", 0).0,
            dict.mph.index(b"\xff\x00zz")
        );
        assert_eq!(dict.mph.index_at(b"ab cd", 2), (dict.mph.index(b""), 2));
        assert_eq!(dict.mph.index_at(b"ab", 2), (dict.mph.index(b""), 2));
        assert_eq!(
            MinimalPerfectHash::build(&[]).index_at(b"any thing", 4),
            (0, 9)
        );
    }
}
