//! Small-job batching: merge several compatible SIO jobs into one
//! cluster pass with bit-identical per-member outputs.
//!
//! The trick is key tagging. Each member gets a batch slot `s`; its map
//! emissions become `(s << 32) | key` in a shared `u64` key space. The
//! partitioner routes on the *low* 32 bits only, so every pair lands on
//! exactly the rank it would have reached in a standalone run, and the
//! radix sort orders pairs slot-major then key-ascending — each member's
//! pairs form a contiguous, ascending run inside every rank's reduce
//! output. Un-tagging that run reproduces the standalone per-rank output
//! byte for byte: same keys in the same order with the same sums.
//! (Simulated *times* differ — a shared pass amortizes setup across
//! members — which is the point of batching.)

use gpmr_core::{Chunk, GpmrJob, KvSet, PartitionMode, PipelineConfig, SliceChunk};
use gpmr_primitives::Segments;
use gpmr_sim_gpu::{Gpu, LaunchConfig, SimGpuResult, SimTime};

/// A member's chunk wrapped with its batch slot. Transfer size equals the
/// inner chunk's so scheduling weight and memory admission match the
/// standalone run; the slot tag rides in chunk metadata.
#[derive(Clone, Debug, PartialEq)]
pub struct BatchChunk {
    /// Which batch member this chunk belongs to.
    pub slot: u32,
    /// The member's own chunk.
    pub inner: SliceChunk<u32>,
}

impl Chunk for BatchChunk {
    fn item_count(&self) -> usize {
        self.inner.item_count()
    }

    fn size_bytes(&self) -> u64 {
        self.inner.size_bytes()
    }

    fn serialize(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(4 + 16 + self.inner.items.len() * 4);
        out.extend_from_slice(&self.slot.to_le_bytes());
        out.extend(self.inner.serialize());
        out
    }
}

/// Tag a member key with its batch slot.
pub fn tag_key(slot: u32, key: u32) -> u64 {
    (u64::from(slot) << 32) | u64::from(key)
}

/// The member key under a tag.
pub fn untag_key(tagged: u64) -> u32 {
    (tagged & 0xFFFF_FFFF) as u32
}

/// The batch slot of a tagged key.
pub fn slot_of(tagged: u64) -> u32 {
    (tagged >> 32) as u32
}

/// The shared-pass SIO job: plain map over tagged keys, low-bit
/// partitioning, radix sort, serial-sum reduce — the per-member pipeline
/// of [`gpmr_apps::SioJob`] lifted into the tagged key space.
#[derive(Clone, Copy, Debug, Default)]
pub struct SioBatchJob;

/// Items handled per map block (matches `SioJob`).
const ITEMS_PER_MAP_BLOCK: usize = 4096;

impl GpmrJob for SioBatchJob {
    type Chunk = BatchChunk;
    type Key = u64;
    type Value = u32;

    fn pipeline(&self) -> PipelineConfig {
        // Custom partitioning: routing must ignore the slot tag.
        PipelineConfig::default().with_partition(PartitionMode::Custom)
    }

    fn partition(&self, key: &u64, ranks: u32) -> u32 {
        // Standalone SIO routes `key % ranks`; routing on the untagged
        // low bits preserves every pair's destination rank.
        (u64::from(untag_key(*key)) % u64::from(ranks.max(1))) as u32
    }

    fn map(
        &self,
        gpu: &mut Gpu,
        at: SimTime,
        chunk: &Self::Chunk,
    ) -> SimGpuResult<(KvSet<u64, u32>, SimTime)> {
        let slot = chunk.slot;
        let n = chunk.inner.items.len();
        let cfg = LaunchConfig::for_items(n, ITEMS_PER_MAP_BLOCK, 256);
        let (launch, res) = gpu.launch(at, &cfg, |ctx| {
            let range = ctx.item_range(n);
            // Same read pattern as standalone SIO; the emitted pair is 4
            // bytes wider (u64 key + u32 value), charged honestly.
            ctx.charge_read::<u32>(range.len());
            ctx.charge_write::<u32>(3 * range.len());
            ctx.charge_flops(range.len() as u64);
            let mut out: KvSet<u64, u32> = KvSet::with_capacity(range.len());
            for &x in &chunk.inner.items[range] {
                out.push(tag_key(slot, x), 1);
            }
            out
        })?;
        let mut pairs = KvSet::with_capacity(n);
        for p in launch.outputs {
            pairs.append(p);
        }
        Ok((pairs, res.end))
    }

    fn reduce(
        &self,
        gpu: &mut Gpu,
        at: SimTime,
        segs: &Segments<u64>,
        vals: &[u32],
    ) -> SimGpuResult<(KvSet<u64, u32>, SimTime)> {
        if segs.is_empty() {
            return Ok((KvSet::new(), at));
        }
        let cfg = LaunchConfig::for_items(segs.len(), 2048, 256);
        let (launch, res) = gpu.launch(at, &cfg, |ctx| {
            let range = ctx.item_range(segs.len());
            let mut out: KvSet<u64, u32> = KvSet::with_capacity(range.len());
            for s in range {
                let r = segs.range(s);
                ctx.charge_read_uncoalesced::<u32>(r.len());
                ctx.charge_flops(r.len() as u64);
                let sum = vals[r].iter().sum::<u32>();
                out.push(segs.keys[s], sum);
            }
            ctx.charge_write::<u32>(3 * out.len());
            out
        })?;
        let mut out = KvSet::new();
        for p in launch.outputs {
            out.append(p);
        }
        Ok((out, res.end))
    }
}

/// Wrap one member's chunks with its slot tag. Chunk ids are offset by
/// `id_base` so every chunk in the merged pass has a distinct id (the
/// scheduler and journal key on it).
pub fn tag_chunks(slot: u32, id_base: u32, chunks: Vec<SliceChunk<u32>>) -> Vec<BatchChunk> {
    chunks
        .into_iter()
        .map(|mut c| {
            c.id += id_base;
            BatchChunk { slot, inner: c }
        })
        .collect()
}

/// Split a shared pass's per-rank outputs back into per-member, per-rank
/// outputs. `members` is the batch size; the result is indexed
/// `[member][rank]` and each `KvSet<u32, u32>` is bit-identical to the
/// member's standalone per-rank reducer output.
pub fn split_outputs(outputs: &[KvSet<u64, u32>], members: usize) -> Vec<Vec<KvSet<u32, u32>>> {
    let mut per_member: Vec<Vec<KvSet<u32, u32>>> = (0..members)
        .map(|_| vec![KvSet::new(); outputs.len()])
        .collect();
    for (rank, out) in outputs.iter().enumerate() {
        for (&k, &v) in out.iter() {
            let slot = slot_of(k) as usize;
            if slot < members {
                per_member[slot][rank].push(untag_key(k), v);
            }
        }
    }
    per_member
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tagging_round_trips() {
        let t = tag_key(3, 0xDEAD_BEEF);
        assert_eq!(slot_of(t), 3);
        assert_eq!(untag_key(t), 0xDEAD_BEEF);
    }

    #[test]
    fn batch_chunk_serializes_as_slot_then_inner_chunk() {
        let c = BatchChunk {
            slot: 2,
            inner: SliceChunk::new(5, 100, vec![1u32, 2, 3]),
        };
        let mut want = 2u32.to_le_bytes().to_vec();
        want.extend(c.inner.serialize());
        assert_eq!(c.serialize(), want);
        assert_eq!(c.size_bytes(), 12, "tag must not change transfer size");
    }

    #[test]
    fn partition_ignores_slot_tag() {
        let job = SioBatchJob;
        for slot in 0..4u32 {
            for key in [0u32, 1, 7, 100, u32::MAX] {
                assert_eq!(job.partition(&tag_key(slot, key), 4), key % 4);
            }
        }
    }

    #[test]
    fn split_outputs_preserves_order_and_values() {
        // Rank output sorted slot-major, key-ascending (what radix sort
        // over tagged keys produces).
        let mut rank0: KvSet<u64, u32> = KvSet::new();
        rank0.push(tag_key(0, 4), 2);
        rank0.push(tag_key(0, 8), 1);
        rank0.push(tag_key(1, 4), 7);
        let split = split_outputs(&[rank0], 2);
        assert_eq!(split[0][0].keys, vec![4, 8]);
        assert_eq!(split[0][0].vals, vec![2, 1]);
        assert_eq!(split[1][0].keys, vec![4]);
        assert_eq!(split[1][0].vals, vec![7]);
    }
}
