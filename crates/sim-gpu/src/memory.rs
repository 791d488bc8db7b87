//! Device global memory: a capacity and a high-water mark.
//!
//! The GPMR paper's central constraint is that a GPU has a small, fixed
//! amount of memory and no virtual memory: datasets must be chunked to fit.
//! [`DeviceMemory`] is that fixed amount. The engine admits chunks against
//! its capacity (`ChunkTooLarge`, the staging slots) and charges
//! out-of-core sort passes when a pair set outgrows it; Mars checks its
//! in-core need against the same capacity. Buffer contents live in host
//! RAM (this is a simulator), so what the device tracks beyond its capacity
//! is only the largest working set noted resident.

/// One device's global memory: its capacity and the largest working set
/// noted resident.
#[derive(Clone, Debug)]
pub struct DeviceMemory {
    capacity: u64,
    peak: u64,
}

impl DeviceMemory {
    /// A device with `capacity` bytes of global memory.
    pub fn new(capacity: u64) -> Self {
        DeviceMemory { capacity, peak: 0 }
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// High-water mark of the working sets noted resident.
    pub fn peak(&self) -> u64 {
        self.peak
    }

    /// Note a modeled working set of `bytes` resident, raising the peak.
    ///
    /// The engine moves whole chunks and pair sets through analytical cost
    /// formulas, so this is how those working sets reach the high-water
    /// mark (and, through it, the `gpu.rank{r}.mem_peak_bytes` gauge).
    /// Accounting only — it never fails, even when the modeled set
    /// transiently exceeds capacity (the engine charges out-of-core passes
    /// for that instead).
    pub fn note_resident(&mut self, bytes: u64) {
        self.peak = self.peak.max(bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn note_resident_keeps_the_high_water_mark() {
        let mut mem = DeviceMemory::new(100);
        assert_eq!(mem.peak(), 0);
        mem.note_resident(50);
        mem.note_resident(30);
        assert_eq!(mem.peak(), 50, "a smaller set leaves the peak");
        // A modeled set beyond capacity raises the mark but never errors
        // and never changes the capacity.
        mem.note_resident(230);
        assert_eq!(mem.peak(), 230);
        assert_eq!(mem.capacity(), 100);
    }
}
