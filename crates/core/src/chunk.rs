//! Chunks: the unit of scheduling, streaming, and load balancing.
//!
//! GPMR batches many map items into a chunk and streams chunks through the
//! GPU (paper §3). Chunks must report their transfer size (PCI-e cost) and
//! be serializable, because the dynamic scheduler migrates chunks between
//! processes when queues run dry (paper §4.1). The simulator moves no
//! bytes between processes: the serialized length is what a steal or a
//! requeue is charged, and the bytes are the content the job journal
//! hashes. Nothing decodes them.

use crate::pod::{write_slice, Pod};

/// A batch of map input items.
pub trait Chunk: Send + Sync + 'static {
    /// Number of map items in the chunk.
    fn item_count(&self) -> usize;
    /// Bytes transferred when the chunk is uploaded to a GPU or migrated
    /// to another node.
    fn size_bytes(&self) -> u64;
    /// The chunk's wire bytes: their length is what migrating the chunk to
    /// another rank costs, and the journal hashes their content. They are
    /// never decoded.
    fn serialize(&self) -> Vec<u8>;
}

/// The workhorse chunk: a tightly-packed array of POD items, as used by
/// SIO (integers), KMC/LR (points), and WO (text bytes).
#[derive(Clone, Debug, PartialEq)]
pub struct SliceChunk<T> {
    /// Identifier of this chunk within its job (stable across migration).
    pub id: u32,
    /// Offset of the first item within the whole dataset.
    pub global_offset: u64,
    /// The packed items.
    pub items: Vec<T>,
}

impl<T: Pod> SliceChunk<T> {
    /// Create a chunk.
    pub fn new(id: u32, global_offset: u64, items: Vec<T>) -> Self {
        SliceChunk {
            id,
            global_offset,
            items,
        }
    }

    /// Split `data` into chunks of at most `chunk_items` items.
    pub fn split(data: &[T], chunk_items: usize) -> Vec<Self> {
        let chunk_items = chunk_items.max(1);
        data.chunks(chunk_items)
            .enumerate()
            .map(|(i, c)| SliceChunk {
                id: i as u32,
                global_offset: (i * chunk_items) as u64,
                items: c.to_vec(),
            })
            .collect()
    }
}

impl<T: Pod> Chunk for SliceChunk<T> {
    fn item_count(&self) -> usize {
        self.items.len()
    }

    fn size_bytes(&self) -> u64 {
        (self.items.len() * T::SIZE) as u64
    }

    fn serialize(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + self.items.len() * T::SIZE);
        self.id.write_le(&mut out);
        self.global_offset.write_le(&mut out);
        write_slice(&self.items, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_covers_all_items() {
        let data: Vec<u32> = (0..1000).collect();
        let chunks = SliceChunk::split(&data, 300);
        assert_eq!(chunks.len(), 4);
        assert_eq!(chunks[3].items.len(), 100);
        assert_eq!(chunks[2].global_offset, 600);
        let total: usize = chunks.iter().map(|c| c.item_count()).sum();
        assert_eq!(total, 1000);
    }

    #[test]
    fn serialized_bytes_are_id_offset_then_counted_items() {
        let c = SliceChunk::new(3, 900, vec![1.5f32, -2.5, 0.0]);
        let mut want = Vec::new();
        3u32.write_le(&mut want);
        900u64.write_le(&mut want);
        3u64.write_le(&mut want);
        c.items.iter().for_each(|x| x.write_le(&mut want));
        assert_eq!(c.serialize(), want);
        assert_eq!(c.size_bytes(), 12);
    }

    #[test]
    fn tuple_item_chunks() {
        let pts: Vec<(f32, f32)> = (0..10).map(|i| (i as f32, -(i as f32))).collect();
        let chunks = SliceChunk::split(&pts, 4);
        assert_eq!(chunks.len(), 3);
        assert_eq!(chunks[1].serialize().len(), 4 + 8 + 8 + 4 * 8);
    }

    #[test]
    fn zero_sized_split_clamps() {
        let data = vec![1u8, 2, 3];
        let chunks = SliceChunk::split(&data, 0);
        assert_eq!(chunks.len(), 3);
    }
}
