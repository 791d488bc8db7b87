//! Write-ahead job journal: an append-only commit log of the scheduler's
//! quantized touch-points (chunk dispatch, chunk commit, bin sorted, bin
//! reduced, GPU loss/add, steal/requeue), with content hashes.
//!
//! The engine is a deterministic simulation, so recovery is *verified
//! replay*: a resumed run re-executes the job from scratch and checks each
//! commit record it would write against the journal's surviving prefix.
//! A matching prefix proves the resumed schedule is bit-identical to the
//! crashed run up to the last consistent point; from there the journal
//! switches to append mode and the run finishes normally. A record that
//! decodes but does not match raises [`JournalError::Diverged`] — the
//! journal belongs to a different job, input, or cluster shape.
//!
//! On-disk format: a flat sequence of frames, each
//! `[payload_len: u32 LE][checksum: u64 LE][payload]` where the checksum
//! is FNV-1a over the payload and the payload is a tagged
//! [`JournalRecord`]: its tag byte, then its fields in order, each in the
//! little-endian [`Pod`] encoding. Every record's tag, barrier flag and
//! fields are one row of the `journal_records!` table below. A torn tail
//! (truncated frame, checksum mismatch, or a payload that is not exactly
//! one record — the crash happened mid-write) is detected on open and
//! trimmed back to the last whole record; it is never an error.
//!
//! Two hashes, by payload size: FNV-1a ([`fnv1a`], [`Fnv64`]) checksums a
//! frame and folds a few `u64`s; XXH64 ([`xxh64`], [`hash_pairs`]) hashes
//! bulk content — chunk bytes and pair buffers — at memory speed. Content
//! hashes were FNV-1a until the format moved them to XXH64, so a journal
//! written before that resumes into [`JournalError::Diverged`] (at its
//! `JobStart`, whose fingerprint folds every chunk's hash).

use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use crate::pod::Pod;

/// FNV-1a 64-bit over a byte slice: the journal's frame checksum. One
/// dependent multiply per byte, so it is for record-sized payloads (tens
/// of bytes); bulk content goes through [`xxh64`].
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.write(bytes);
    h.finish()
}

/// Incremental FNV-1a 64-bit hasher (see [`fnv1a`]): folds a few `u64`s,
/// such as a job fingerprint's fields or every rank's output hash. It
/// takes no byte slices from outside this module, so [`fnv1a`] is the one
/// way to FNV-hash bytes.
#[derive(Clone, Copy, Debug)]
pub struct Fnv64(u64);

impl Fnv64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        Fnv64(Self::OFFSET)
    }

    /// Fold `bytes` into the state.
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    /// Fold a little-endian `u64` into the state.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// The current hash value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64::new()
    }
}

/// XXH64 with seed 0 over a byte slice: the journal's hash of bulk
/// content (a chunk's bytes, and through [`hash_pairs`] a pair buffer).
pub fn xxh64(bytes: &[u8]) -> u64 {
    let mut h = Xxh64::new();
    h.write(bytes);
    h.finish()
}

/// Streaming XXH64, seed 0, as published: four independent lanes each
/// fold one `u64` of every 32-byte stripe, so the multiplies overlap
/// instead of chaining byte by byte. A stripe a write leaves short waits
/// in `carry` for the next write.
struct Xxh64 {
    lanes: [u64; 4],
    carry: [u8; 32],
    carried: usize,
    len: u64,
}

impl Xxh64 {
    const P1: u64 = 0x9e37_79b1_85eb_ca87;
    const P2: u64 = 0xc2b2_ae3d_27d4_eb4f;
    const P3: u64 = 0x1656_67b1_9e37_79f9;
    const P4: u64 = 0x85eb_ca77_c2b2_ae63;
    const P5: u64 = 0x27d4_eb2f_1656_67c5;

    fn new() -> Self {
        Xxh64 {
            lanes: [
                Self::P1.wrapping_add(Self::P2),
                Self::P2,
                0,
                Self::P1.wrapping_neg(),
            ],
            carry: [0; 32],
            carried: 0,
            len: 0,
        }
    }

    fn round(acc: u64, lane: u64) -> u64 {
        acc.wrapping_add(lane.wrapping_mul(Self::P2))
            .rotate_left(31)
            .wrapping_mul(Self::P1)
    }

    fn write(&mut self, mut bytes: &[u8]) {
        self.len += bytes.len() as u64;
        if self.carried > 0 {
            let take = bytes.len().min(32 - self.carried);
            self.carry[self.carried..self.carried + take].copy_from_slice(&bytes[..take]);
            self.carried += take;
            bytes = &bytes[take..];
            if self.carried < 32 {
                return;
            }
            let stripe = self.carry;
            self.stripe(&stripe);
            self.carried = 0;
        }
        let mut stripes = bytes.chunks_exact(32);
        for s in &mut stripes {
            self.stripe(s.try_into().expect("32 bytes"));
        }
        let rest = stripes.remainder();
        self.carry[..rest.len()].copy_from_slice(rest);
        self.carried = rest.len();
    }

    fn stripe(&mut self, s: &[u8; 32]) {
        for (i, acc) in self.lanes.iter_mut().enumerate() {
            *acc = Self::round(*acc, le_u64(&s[8 * i..]));
        }
    }

    fn finish(&self) -> u64 {
        let mut h = if self.len >= 32 {
            let [a, b, c, d] = self.lanes;
            let mut h = a
                .rotate_left(1)
                .wrapping_add(b.rotate_left(7))
                .wrapping_add(c.rotate_left(12))
                .wrapping_add(d.rotate_left(18));
            for v in self.lanes {
                h = (h ^ Self::round(0, v))
                    .wrapping_mul(Self::P1)
                    .wrapping_add(Self::P4);
            }
            h
        } else {
            Self::P5
        };
        h = h.wrapping_add(self.len);
        let mut tail = &self.carry[..self.carried];
        while tail.len() >= 8 {
            h = (h ^ Self::round(0, le_u64(tail)))
                .rotate_left(27)
                .wrapping_mul(Self::P1)
                .wrapping_add(Self::P4);
            tail = &tail[8..];
        }
        if tail.len() >= 4 {
            let w = u32::from_le_bytes(tail[..4].try_into().expect("4 bytes"));
            h = (h ^ u64::from(w).wrapping_mul(Self::P1))
                .rotate_left(23)
                .wrapping_mul(Self::P2)
                .wrapping_add(Self::P3);
            tail = &tail[4..];
        }
        for &b in tail {
            h = (h ^ u64::from(b).wrapping_mul(Self::P5))
                .rotate_left(11)
                .wrapping_mul(Self::P1);
        }
        h ^= h >> 33;
        h = h.wrapping_mul(Self::P2);
        h ^= h >> 29;
        h = h.wrapping_mul(Self::P3);
        h ^ (h >> 32)
    }
}

/// The little-endian `u64` in the first 8 bytes.
fn le_u64(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes[..8].try_into().expect("8 bytes"))
}

/// Content hash of a key/value pair sequence, in order: [`xxh64`] of every
/// key's little-endian [`Pod`] encoding, then every value's. This is the
/// hash stored in [`JournalRecord::ChunkCommit`],
/// [`JournalRecord::BinSorted`], and [`JournalRecord::BinReduced`]: since
/// the engine's pair buffers are canonically ordered, equal hashes mean
/// bit-identical data.
pub fn hash_pairs<K: Pod, V: Pod>(keys: &[K], vals: &[V]) -> u64 {
    let mut h = Xxh64::new();
    let mut buf = Vec::with_capacity(HASH_BLOCK_ITEMS * K::SIZE.max(V::SIZE));
    hash_pods(&mut h, &mut buf, keys);
    hash_pods(&mut h, &mut buf, vals);
    h.finish()
}

/// Items encoded per [`Xxh64::write`] in [`hash_pairs`]: the encoding
/// passes through one small reused buffer, not one as long as the data.
const HASH_BLOCK_ITEMS: usize = 4096;

fn hash_pods<T: Pod>(h: &mut Xxh64, buf: &mut Vec<u8>, items: &[T]) {
    for block in items.chunks(HASH_BLOCK_ITEMS) {
        buf.clear();
        for it in block {
            it.write_le(buf);
        }
        h.write(buf);
    }
}

/// Declares [`JournalRecord`] and its wire codec from the same rows, so a
/// record's tag, barrier flag and field order are written once. A row is
/// the variant's doc, `Name = tag`, whether it is a barrier (flushed
/// unconditionally), and its fields in wire order.
macro_rules! journal_records {
    ($($(#[$doc:meta])* $name:ident = $tag:literal, barrier: $barrier:literal {
        $($(#[$fdoc:meta])* $field:ident: $ty:ty,)*
    })*) => {
        /// One commit-log entry. Every variant is written at a scheduler
        /// touch-point the fault harness already quantizes on, so the log
        /// orders identically across runs of the same job.
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        pub enum JournalRecord {
            $($(#[$doc])* $name { $($(#[$fdoc])* $field: $ty,)* },)*
        }

        impl JournalRecord {
            /// Stage and cluster-membership boundaries flush unconditionally —
            /// these are the "last consistent point" markers recovery seeks to.
            fn is_barrier(&self) -> bool {
                match self {
                    $(JournalRecord::$name { .. } => $barrier,)*
                }
            }

            fn tag(&self) -> u8 {
                match self {
                    $(JournalRecord::$name { .. } => $tag,)*
                }
            }

            fn encode(&self, out: &mut Vec<u8>) {
                out.push(self.tag());
                match self {
                    $(JournalRecord::$name { $($field),* } => {
                        $($field.write_le(out);)*
                    })*
                }
            }

            /// The record `payload` holds, or `None` for an unknown tag or a
            /// body that is not exactly the tag's fields.
            fn decode(payload: &[u8]) -> Option<JournalRecord> {
                let (&tag, body) = payload.split_first()?;
                let mut off = 0;
                let rec = match tag {
                    $($tag => JournalRecord::$name { $($field: field(body, &mut off)?,)* },)*
                    _ => return None,
                };
                (off == body.len()).then_some(rec)
            }
        }
    };
}

journal_records! {
    /// Job admission: a fingerprint over the cluster size, the starting
    /// reducer ranks, the chunk count, two fields of
    /// [`EngineTuning`](crate::EngineTuning) — `pipeline_depth` (at least
    /// 1) and `gpu_direct` — the pipeline configuration, and every input
    /// chunk's serialized bytes. No other tuning field is hashed. Always
    /// the first record; a resumed run whose fingerprint differs diverges
    /// immediately instead of replaying garbage.
    JobStart = 1, barrier: true {
        /// FNV-1a fold of the job configuration and every input chunk's
        /// [`xxh64`].
        fingerprint: u64,
        /// Number of input chunks.
        n_chunks: u64,
        /// Cluster size (including GPUs that only join mid-job).
        ranks: u32,
        /// Reducer count: the ranks present at job start, which own the
        /// partition space for the whole job.
        reducers: u32,
    }
    /// A chunk left a queue for a rank's upload pipeline.
    ChunkDispatch = 2, barrier: false {
        /// Canonical chunk id (original input index).
        chunk_id: u64,
        /// The rank that will map it.
        rank: u32,
    }
    /// A chunk's map output was committed (it can never rerun).
    ChunkCommit = 3, barrier: false {
        /// Canonical chunk id.
        chunk_id: u64,
        /// The rank that mapped it.
        rank: u32,
        /// Emitted pair count (chunk item count in accumulate mode, where
        /// emissions fold into device state immediately).
        pairs: u64,
        /// Content hash: the emitted pairs ([`hash_pairs`]), or the chunk
        /// bytes ([`xxh64`]) in accumulate mode.
        hash: u64,
    }
    /// An idle rank stole a queued chunk.
    Steal = 4, barrier: false {
        /// Canonical chunk id.
        chunk_id: u64,
        /// The rank it was stolen from.
        victim: u32,
        /// The rank that now owns it.
        thief: u32,
    }
    /// A lost rank's chunk migrated to a survivor.
    Requeue = 5, barrier: false {
        /// Canonical chunk id.
        chunk_id: u64,
        /// The dead rank.
        from: u32,
        /// The surviving rank that will rerun it.
        to: u32,
    }
    /// A GPU failed fail-stop.
    GpuLost = 6, barrier: true {
        /// The lost rank.
        rank: u32,
    }
    /// A GPU joined the running job (elastic add).
    GpuAdded = 7, barrier: true {
        /// The joining rank.
        rank: u32,
    }
    /// A reducer's inbound bin finished sorting.
    BinSorted = 8, barrier: true {
        /// The reducer rank.
        rank: u32,
        /// Sorted pair count.
        pairs: u64,
        /// Unique key count (segment count).
        unique: u64,
        /// [`hash_pairs`] over the sorted keys and values.
        hash: u64,
    }
    /// A reducer's output was committed (downloaded to the host).
    BinReduced = 9, barrier: true {
        /// The reducer rank.
        rank: u32,
        /// Output pair count.
        pairs: u64,
        /// [`hash_pairs`] over the output keys and values.
        hash: u64,
    }
    /// The job finished.
    JobEnd = 10, barrier: true {
        /// FNV-1a fold of every rank's output-pair hash, in rank order.
        output_hash: u64,
        /// `f64::to_bits` of the makespan in seconds (bit-exact).
        makespan_bits: u64,
    }
    /// A round of a multi-round (chained) job is starting. Written by the
    /// round driver before the round's own `JobStart`, so a resumed run
    /// detects divergence at round granularity — a different convergence
    /// trajectory (changed centers, changed splitters) diverges here, on
    /// the control hash, before any per-chunk record could mislead.
    RoundStart = 11, barrier: true {
        /// Zero-based round index.
        round: u32,
        /// FNV-1a over the round's control state (the host-visible scalar
        /// the previous round broadcast: centers, splitters, thresholds).
        control_hash: u64,
    }
    /// A round of a multi-round job completed.
    RoundEnd = 12, barrier: true {
        /// Zero-based round index.
        round: u32,
        /// FNV-1a fold of every rank's round-output hash, in rank order.
        output_hash: u64,
        /// `f64::to_bits` of the driver's accumulated cross-round clock
        /// at the end of this round (bit-exact).
        clock_bits: u64,
    }
}

/// Read the `T` at `*off` in `body` and step past it; `None` when the body
/// ends first.
fn field<T: Pod>(body: &[u8], off: &mut usize) -> Option<T> {
    let bytes = body.get(*off..*off + T::SIZE)?;
    *off += T::SIZE;
    Some(T::read_le(bytes))
}

/// Errors raised by journal operations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JournalError {
    /// The journal file could not be read or written.
    Io(String),
    /// During replay, the run produced a record that disagrees with the
    /// journal: the journal belongs to a different job, input, cluster
    /// shape, or fault plan, and replaying further would corrupt it.
    Diverged {
        /// Zero-based index of the mismatching record.
        index: u64,
        /// What the journal holds.
        expected: JournalRecord,
        /// What the resumed run produced.
        got: JournalRecord,
    },
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io(msg) => write!(f, "journal I/O failed: {msg}"),
            JournalError::Diverged {
                index,
                expected,
                got,
            } => write!(
                f,
                "resume diverged from the journal at record {index}: journal has {expected:?}, \
                 the run produced {got:?} (different job, input, or cluster?)"
            ),
        }
    }
}

impl std::error::Error for JournalError {}

impl From<std::io::Error> for JournalError {
    fn from(e: std::io::Error) -> Self {
        JournalError::Io(e.to_string())
    }
}

/// Convenience result alias for journal operations.
pub type JournalResult<T> = Result<T, JournalError>;

/// What [`Journal::record`] did with a record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecordOutcome {
    /// The record matched the journal's replay prefix; nothing written.
    Replayed,
    /// The record was appended to the in-memory tail (not yet on disk).
    Buffered,
    /// The record was appended and the tail was flushed to disk.
    Flushed,
}

const FRAME_HEADER: usize = 4 + 8; // payload_len: u32 + checksum: u64

/// The write-ahead journal: a verified-replay prefix (on resume) followed
/// by an append tail, flushed every `checkpoint_every` records and at
/// every stage barrier.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    file: File,
    replay: Vec<JournalRecord>,
    replay_idx: usize,
    pending: Vec<u8>,
    pending_records: u64,
    checkpoint_every: u64,
    appended: u64,
    flushes: u64,
    torn_bytes: u64,
}

impl Journal {
    /// Start a fresh journal at `path` (truncating any existing file),
    /// flushing at least every `checkpoint_every` records (clamped to 1).
    pub fn create(path: impl AsRef<Path>, checkpoint_every: u32) -> JournalResult<Journal> {
        let path = path.as_ref().to_path_buf();
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)?;
        Ok(Journal {
            path,
            file,
            replay: Vec::new(),
            replay_idx: 0,
            pending: Vec::new(),
            pending_records: 0,
            checkpoint_every: u64::from(checkpoint_every.max(1)),
            appended: 0,
            flushes: 0,
            torn_bytes: 0,
        })
    }

    /// Open an existing journal at `path` for resumption: load the valid
    /// record prefix, trim any torn tail off the file, and enter replay
    /// mode. The next [`Journal::record`] calls verify against the prefix
    /// and switch to appending once it is exhausted.
    pub fn resume(path: impl AsRef<Path>, checkpoint_every: u32) -> JournalResult<Journal> {
        let path = path.as_ref().to_path_buf();
        let bytes = std::fs::read(&path)?;
        let (replay, offsets) = scan_bytes(&bytes);
        let valid = *offsets.last().expect("offsets always start at 0");
        let torn_bytes = bytes.len() as u64 - valid;
        let mut file = OpenOptions::new().read(true).write(true).open(&path)?;
        file.set_len(valid)?;
        file.seek(SeekFrom::Start(valid))?;
        Ok(Journal {
            path,
            file,
            replay,
            replay_idx: 0,
            pending: Vec::new(),
            pending_records: 0,
            checkpoint_every: u64::from(checkpoint_every.max(1)),
            appended: 0,
            flushes: 0,
            torn_bytes,
        })
    }

    /// Verify (in replay mode) or append one record. Appends are buffered;
    /// the buffer is flushed every `checkpoint_every` records and at every
    /// record the table marks `barrier: true`.
    pub fn record(&mut self, rec: &JournalRecord) -> JournalResult<RecordOutcome> {
        if self.replay_idx < self.replay.len() {
            let expected = self.replay[self.replay_idx];
            if expected != *rec {
                return Err(JournalError::Diverged {
                    index: self.replay_idx as u64,
                    expected,
                    got: *rec,
                });
            }
            self.replay_idx += 1;
            return Ok(RecordOutcome::Replayed);
        }
        let mut payload = Vec::with_capacity(48);
        rec.encode(&mut payload);
        self.pending
            .extend_from_slice(&(payload.len() as u32).to_le_bytes());
        self.pending
            .extend_from_slice(&fnv1a(&payload).to_le_bytes());
        self.pending.extend_from_slice(&payload);
        self.appended += 1;
        self.pending_records += 1;
        if rec.is_barrier() || self.pending_records >= self.checkpoint_every {
            self.flush()?;
            Ok(RecordOutcome::Flushed)
        } else {
            Ok(RecordOutcome::Buffered)
        }
    }

    /// Write any buffered records to disk.
    pub fn flush(&mut self) -> JournalResult<()> {
        if self.pending.is_empty() {
            return Ok(());
        }
        self.file.write_all(&self.pending)?;
        self.file.flush()?;
        self.pending.clear();
        self.pending_records = 0;
        self.flushes += 1;
        Ok(())
    }

    /// Records verified against the replay prefix so far.
    pub fn replayed(&self) -> u64 {
        self.replay_idx as u64
    }

    /// Records loaded into the replay prefix on open (0 for a fresh
    /// journal).
    pub fn replay_len(&self) -> u64 {
        self.replay.len() as u64
    }

    /// Records appended past the replay prefix.
    pub fn appended(&self) -> u64 {
        self.appended
    }

    /// Disk flushes performed.
    pub fn flushes(&self) -> u64 {
        self.flushes
    }

    /// Bytes of torn tail trimmed when the journal was opened for resume.
    pub fn torn_bytes(&self) -> u64 {
        self.torn_bytes
    }

    /// The journal's file path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Decode the longest valid record prefix of raw journal bytes. Returns
/// the records plus every record-boundary offset (length `records + 1`,
/// starting at 0). Bytes past the last whole, checksummed, decodable
/// record are a torn tail and are excluded.
pub fn scan_bytes(bytes: &[u8]) -> (Vec<JournalRecord>, Vec<u64>) {
    let mut records = Vec::new();
    let mut offsets = vec![0u64];
    let mut pos = 0usize;
    while bytes.len() - pos >= FRAME_HEADER {
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes")) as usize;
        let Some(end) = pos.checked_add(FRAME_HEADER + len) else {
            break;
        };
        if end > bytes.len() {
            break;
        }
        let checksum = u64::from_le_bytes(bytes[pos + 4..pos + 12].try_into().expect("8 bytes"));
        let payload = &bytes[pos + FRAME_HEADER..end];
        if fnv1a(payload) != checksum {
            break;
        }
        let Some(rec) = JournalRecord::decode(payload) else {
            break;
        };
        records.push(rec);
        pos = end;
        offsets.push(pos as u64);
    }
    (records, offsets)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<JournalRecord> {
        vec![
            JournalRecord::JobStart {
                fingerprint: 0xdead_beef,
                n_chunks: 4,
                ranks: 3,
                reducers: 2,
            },
            JournalRecord::ChunkDispatch {
                chunk_id: 0,
                rank: 0,
            },
            JournalRecord::Steal {
                chunk_id: 3,
                victim: 1,
                thief: 2,
            },
            JournalRecord::ChunkCommit {
                chunk_id: 0,
                rank: 0,
                pairs: 17,
                hash: 42,
            },
            JournalRecord::GpuLost { rank: 1 },
            JournalRecord::Requeue {
                chunk_id: 1,
                from: 1,
                to: 2,
            },
            JournalRecord::GpuAdded { rank: 2 },
            JournalRecord::BinSorted {
                rank: 0,
                pairs: 17,
                unique: 5,
                hash: 7,
            },
            JournalRecord::BinReduced {
                rank: 0,
                pairs: 5,
                hash: 9,
            },
            JournalRecord::JobEnd {
                output_hash: 11,
                makespan_bits: 2.5f64.to_bits(),
            },
            JournalRecord::RoundStart {
                round: 3,
                control_hash: 0xc0ff_ee00,
            },
            JournalRecord::RoundEnd {
                round: 3,
                output_hash: 13,
                clock_bits: 7.25f64.to_bits(),
            },
        ]
    }

    fn temp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("gpmr_journal_{name}_{}", std::process::id()))
    }

    #[test]
    fn every_record_kind_round_trips_through_the_codec() {
        for rec in sample_records() {
            let mut payload = Vec::new();
            rec.encode(&mut payload);
            assert_eq!(JournalRecord::decode(&payload), Some(rec), "{rec:?}");
        }
    }

    #[test]
    fn decode_rejects_bad_tags_and_truncated_or_oversized_payloads() {
        assert_eq!(JournalRecord::decode(&[]), None);
        assert_eq!(JournalRecord::decode(&[99, 0, 0, 0, 0]), None);
        let mut payload = Vec::new();
        JournalRecord::GpuLost { rank: 1 }.encode(&mut payload);
        assert_eq!(JournalRecord::decode(&payload[..payload.len() - 1]), None);
        payload.push(0); // trailing garbage must not decode
        assert_eq!(JournalRecord::decode(&payload), None);
    }

    #[test]
    fn create_write_scan_round_trips_every_record() {
        let path = temp("roundtrip");
        let mut j = Journal::create(&path, 1).unwrap();
        for rec in sample_records() {
            j.record(&rec).unwrap();
        }
        j.flush().unwrap();
        let (records, offsets) = scan_bytes(&std::fs::read(&path).unwrap());
        assert_eq!(records, sample_records());
        assert_eq!(offsets.len(), records.len() + 1);
        assert_eq!(offsets[0], 0);
        assert_eq!(
            *offsets.last().unwrap(),
            std::fs::metadata(&path).unwrap().len()
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn checkpoint_every_buffers_non_barrier_records() {
        let path = temp("buffering");
        let mut j = Journal::create(&path, 100).unwrap();
        let d = JournalRecord::ChunkDispatch {
            chunk_id: 0,
            rank: 0,
        };
        assert_eq!(j.record(&d).unwrap(), RecordOutcome::Buffered);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 0);
        // A barrier record forces everything buffered onto disk.
        assert_eq!(
            j.record(&JournalRecord::GpuLost { rank: 0 }).unwrap(),
            RecordOutcome::Flushed
        );
        let (records, _) = scan_bytes(&std::fs::read(&path).unwrap());
        assert_eq!(records.len(), 2);
        assert_eq!(j.flushes(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_is_trimmed_on_resume_at_any_truncation_point() {
        let path = temp("torn");
        let mut j = Journal::create(&path, 1).unwrap();
        for rec in sample_records() {
            j.record(&rec).unwrap();
        }
        j.flush().unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let (_, offsets) = scan_bytes(&bytes);
        // Mid-record cut: one byte past the 4th record boundary.
        let cut = offsets[4] + 1;
        std::fs::write(&path, &bytes[..cut as usize]).unwrap();
        let j2 = Journal::resume(&path, 1).unwrap();
        assert_eq!(j2.replay_len(), 4);
        assert_eq!(j2.torn_bytes(), 1);
        // The file itself was trimmed back to the boundary.
        assert_eq!(std::fs::metadata(&path).unwrap().len(), offsets[4]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_checksum_cuts_the_valid_prefix_there() {
        let path = temp("corrupt");
        let mut j = Journal::create(&path, 1).unwrap();
        for rec in sample_records() {
            j.record(&rec).unwrap();
        }
        j.flush().unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let (_, offsets) = scan_bytes(&bytes);
        // Flip a payload byte inside record 2.
        bytes[offsets[2] as usize + FRAME_HEADER] ^= 0xff;
        let (records, offs) = scan_bytes(&bytes);
        assert_eq!(records.len(), 2);
        assert_eq!(*offs.last().unwrap(), offsets[2]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn replay_verifies_then_appends_and_diverges_on_mismatch() {
        let path = temp("replay");
        let recs = sample_records();
        let mut j = Journal::create(&path, 1).unwrap();
        for rec in &recs[..3] {
            j.record(rec).unwrap();
        }
        j.flush().unwrap();

        let mut j2 = Journal::resume(&path, 1).unwrap();
        assert_eq!(j2.record(&recs[0]).unwrap(), RecordOutcome::Replayed);
        assert_eq!(j2.record(&recs[1]).unwrap(), RecordOutcome::Replayed);
        // Divergence in the middle of the prefix is a typed error.
        let wrong = JournalRecord::GpuLost { rank: 9 };
        match j2.record(&wrong) {
            Err(JournalError::Diverged {
                index,
                expected,
                got,
            }) => {
                assert_eq!(index, 2);
                assert_eq!(expected, recs[2]);
                assert_eq!(got, wrong);
            }
            other => panic!("expected divergence, got {other:?}"),
        }
        // A correct record still replays, then the tail appends.
        assert_eq!(j2.record(&recs[2]).unwrap(), RecordOutcome::Replayed);
        assert_eq!(j2.record(&recs[3]).unwrap(), RecordOutcome::Flushed);
        assert_eq!(j2.replayed(), 3);
        assert_eq!(j2.appended(), 1);
        let (records, _) = scan_bytes(&std::fs::read(&path).unwrap());
        assert_eq!(records, recs[..4].to_vec());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn hash_pairs_is_order_sensitive_and_stable() {
        let a = hash_pairs(&[1u32, 2, 3], &[10u32, 20, 30]);
        let b = hash_pairs(&[1u32, 2, 3], &[10u32, 20, 30]);
        let c = hash_pairs(&[3u32, 2, 1], &[10u32, 20, 30]);
        assert_eq!(a, b);
        assert_ne!(a, c);
        // Published FNV-1a 64 test vector.
        assert_eq!(fnv1a(b"hello"), 0xa430_d846_80aa_bd0b);
    }

    #[test]
    fn xxh64_matches_the_published_vectors() {
        assert_eq!(xxh64(b""), 0xef46_db37_51d8_e999);
        assert_eq!(xxh64(b"a"), 0xd24e_c4f1_a98c_6e5b);
        assert_eq!(xxh64(b"abc"), 0x44bc_2cf5_ad77_0999);
        // Past one stripe, through the four lanes: zstd's frame checksum
        // is the low half of this value (`zstd --check` of the same bytes).
        let bytes: Vec<u8> = (0..1000u32).map(|i| (i * 7 % 251) as u8).collect();
        assert_eq!(xxh64(&bytes) & 0xffff_ffff, 0x1ff9_57d5);
    }

    #[test]
    fn streaming_equals_one_shot_at_every_split() {
        let bytes: Vec<u8> = (0..=100u32).map(|i| (i * 37 + 11) as u8).collect();
        for n in 0..=bytes.len() {
            let whole = xxh64(&bytes[..n]);
            for cut in 0..=n {
                let mut h = Xxh64::new();
                h.write(&bytes[..cut]);
                h.write(&bytes[cut..n]);
                assert_eq!(h.finish(), whole, "n = {n}, cut = {cut}");
            }
        }
    }

    #[test]
    fn hash_pairs_equals_hashing_the_whole_encoding() {
        // The digest is defined over all keys then all values, encoded
        // little-endian; hashing block by block must not move it. Key and
        // value sizes 4, 8, 12 and 24 bytes, mixed, put the keys-to-values
        // edge at every offset in a stripe; lengths sit on and around a
        // stripe and the block edges.
        fn check<K: Pod, V: Pod>(key: impl Fn(u32) -> K, val: impl Fn(u32) -> V) {
            let b = HASH_BLOCK_ITEMS;
            let lens = (0..=9).chain([b - 1, b, b + 1, 3 * b + 7]);
            for n in lens {
                let seq = (0..n as u32).map(|i| i.wrapping_mul(2_654_435_761));
                let keys: Vec<K> = seq.clone().map(&key).collect();
                let vals: Vec<V> = seq.map(&val).collect();
                let mut buf = Vec::new();
                keys.iter().for_each(|k| k.write_le(&mut buf));
                vals.iter().for_each(|v| v.write_le(&mut buf));
                let (k, v) = (K::SIZE, V::SIZE);
                assert_eq!(
                    hash_pairs(&keys, &vals),
                    xxh64(&buf),
                    "{k}+{v} bytes, n = {n}"
                );
            }
        }
        check(|i| i, |_| 1u32);
        check(|i| i, |i| f64::from(i) / 7.0);
        check(u64::from, |i| [i as f32, 0.5, -1.0]);
        check(|i| [i as f32, 0.5, -1.0], |i| [u64::from(i); 3]);
        check(|i| [u64::from(i), 1, 2], |i| i);
        check(|i| [i as f32, 0.5, -1.0], f64::from);
        // Recorded when content hashes moved to XXH64 (zstd's frame
        // checksum of the same 80 000 bytes is its low half); the golden
        // journals in `tests/checkpoint_resume.rs` pin the same function
        // through whole runs.
        let keys: Vec<u32> = (0..10_000u32)
            .map(|i| i.wrapping_mul(2_654_435_761))
            .collect();
        assert_eq!(
            hash_pairs(&keys, &vec![1u32; 10_000]),
            0xb907_ecf8_703f_50c9
        );
    }
}
