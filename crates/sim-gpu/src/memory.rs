//! Device global-memory accounting.
//!
//! The GPMR paper's central constraint is that a GPU has a small, fixed
//! amount of memory and no virtual memory: datasets must be chunked to fit.
//! [`DeviceMemory`] enforces that constraint. Buffer contents live in host
//! RAM (this is a simulator), but every [`DeviceBuffer`] allocation charges
//! the device's capacity and out-of-memory conditions are real errors that
//! callers (and tests) must handle.

use std::sync::Arc;

use std::sync::Mutex;

use crate::error::{SimGpuError, SimGpuResult};

#[derive(Debug, Default)]
struct MemState {
    capacity: u64,
    used: u64,
    peak: u64,
}

/// A capacity-tracked global-memory allocator for one device.
///
/// Cloning shares the underlying accounting (it is a handle).
///
/// ```
/// use gpmr_sim_gpu::{DeviceMemory, SimGpuError};
///
/// let mem = DeviceMemory::new(1024);
/// let buf = mem.alloc::<u32>(200).unwrap(); // 800 bytes
/// assert_eq!(mem.available(), 224);
/// // The device really is full: a second allocation fails.
/// assert!(matches!(
///     mem.alloc::<u32>(100),
///     Err(SimGpuError::OutOfMemory { .. })
/// ));
/// drop(buf);
/// assert_eq!(mem.available(), 1024);
/// ```
#[derive(Clone, Debug)]
pub struct DeviceMemory {
    state: Arc<Mutex<MemState>>,
}

impl DeviceMemory {
    /// Create an allocator with `capacity` bytes of device memory.
    pub fn new(capacity: u64) -> Self {
        DeviceMemory {
            state: Arc::new(Mutex::new(MemState {
                capacity,
                ..MemState::default()
            })),
        }
    }

    /// Allocate a typed buffer of `len` zero-initialized elements.
    pub fn alloc<T: Clone + Default>(&self, len: usize) -> SimGpuResult<DeviceBuffer<T>> {
        self.alloc_init(len, T::default())
    }

    /// Allocate a typed buffer of `len` copies of `init`.
    pub fn alloc_init<T: Clone>(&self, len: usize, init: T) -> SimGpuResult<DeviceBuffer<T>> {
        let bytes = (len * std::mem::size_of::<T>()) as u64;
        self.charge(bytes)?;
        Ok(DeviceBuffer {
            data: vec![init; len],
            bytes,
            mem: self.clone(),
        })
    }

    /// Allocate a buffer holding a copy of `src` (the logical effect of a
    /// host-to-device copy; the *time* of the copy is charged separately
    /// through the PCI-e link).
    pub fn alloc_from_slice<T: Clone>(&self, src: &[T]) -> SimGpuResult<DeviceBuffer<T>> {
        let bytes = std::mem::size_of_val(src) as u64;
        self.charge(bytes)?;
        Ok(DeviceBuffer {
            data: src.to_vec(),
            bytes,
            mem: self.clone(),
        })
    }

    fn charge(&self, bytes: u64) -> SimGpuResult<()> {
        let mut st = self.state.lock().unwrap();
        if st.used + bytes > st.capacity {
            return Err(SimGpuError::OutOfMemory {
                requested: bytes,
                available: st.capacity - st.used,
            });
        }
        st.used += bytes;
        st.peak = st.peak.max(st.used);
        Ok(())
    }

    fn release(&self, bytes: u64) {
        let mut st = self.state.lock().unwrap();
        st.used = st.used.saturating_sub(bytes);
    }

    /// Bytes currently allocated.
    pub fn used(&self) -> u64 {
        self.state.lock().unwrap().used
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.state.lock().unwrap().capacity
    }

    /// Bytes still available.
    pub fn available(&self) -> u64 {
        let st = self.state.lock().unwrap();
        st.capacity - st.used
    }

    /// High-water mark of allocated bytes.
    pub fn peak(&self) -> u64 {
        self.state.lock().unwrap().peak
    }

    /// Note a modeled working set of `bytes` resident on top of current
    /// allocations, raising the peak without charging capacity.
    ///
    /// The engine moves whole chunks and pair sets through analytical cost
    /// formulas rather than individual [`DeviceBuffer`]s, so this is how
    /// those working sets reach the high-water mark (and, through it, the
    /// `gpu.rank{r}.mem_peak_bytes` gauge). Accounting only — it never
    /// fails, even when the modeled set transiently exceeds capacity (the
    /// engine charges out-of-core passes for that instead).
    pub fn note_resident(&self, bytes: u64) {
        let mut st = self.state.lock().unwrap();
        st.peak = st.peak.max(st.used + bytes);
    }
}

/// A typed buffer resident in (simulated) device memory.
///
/// Deref gives slice access for kernels; dropping the buffer returns its
/// bytes to the device allocator.
#[derive(Debug)]
pub struct DeviceBuffer<T> {
    data: Vec<T>,
    bytes: u64,
    mem: DeviceMemory,
}

impl<T> DeviceBuffer<T> {
    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the buffer holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Size of the allocation in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.bytes
    }

    /// Read-only view of the contents.
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Consume the buffer, releasing the device allocation and returning
    /// the host-side data (the logical effect of a device-to-host copy
    /// followed by a free).
    pub fn into_vec(self) -> Vec<T> {
        // Drop impl releases; move data out first via ManuallyDrop.
        let mut me = std::mem::ManuallyDrop::new(self);
        me.mem.release(me.bytes);
        std::mem::take(&mut me.data)
    }
}

impl<T> std::ops::Deref for DeviceBuffer<T> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        &self.data
    }
}

impl<T> std::ops::DerefMut for DeviceBuffer<T> {
    fn deref_mut(&mut self) -> &mut [T] {
        &mut self.data
    }
}

impl<T> Drop for DeviceBuffer<T> {
    fn drop(&mut self) {
        self.mem.release(self.bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_and_free_track_usage() {
        let mem = DeviceMemory::new(1024);
        let buf = mem.alloc::<u32>(64).unwrap();
        assert_eq!(mem.used(), 256);
        assert_eq!(buf.len(), 64);
        drop(buf);
        assert_eq!(mem.used(), 0);
        assert_eq!(mem.peak(), 256);
    }

    #[test]
    fn oom_is_an_error() {
        let mem = DeviceMemory::new(100);
        let _a = mem.alloc::<u8>(60).unwrap();
        let err = mem.alloc::<u8>(50).unwrap_err();
        match err {
            SimGpuError::OutOfMemory {
                requested,
                available,
            } => {
                assert_eq!(requested, 50);
                assert_eq!(available, 40);
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn freeing_makes_room() {
        let mem = DeviceMemory::new(100);
        let a = mem.alloc::<u8>(80).unwrap();
        assert!(mem.alloc::<u8>(40).is_err());
        drop(a);
        assert!(mem.alloc::<u8>(40).is_ok());
    }

    #[test]
    fn note_resident_raises_peak_without_charging() {
        let mem = DeviceMemory::new(100);
        let _a = mem.alloc::<u8>(30).unwrap();
        mem.note_resident(50);
        assert_eq!(mem.used(), 30, "accounting only: nothing is charged");
        assert_eq!(mem.peak(), 80);
        // A modeled set beyond capacity is fine — it raises the high-water
        // mark but never errors and never blocks real allocations.
        mem.note_resident(200);
        assert_eq!(mem.peak(), 230);
        assert!(mem.alloc::<u8>(70).is_ok());
    }

    #[test]
    fn from_slice_and_into_vec_round_trip() {
        let mem = DeviceMemory::new(1024);
        let buf = mem.alloc_from_slice(&[1u32, 2, 3]).unwrap();
        assert_eq!(mem.used(), 12);
        let v = buf.into_vec();
        assert_eq!(v, vec![1, 2, 3]);
        assert_eq!(mem.used(), 0);
    }

    #[test]
    fn mutation_through_deref() {
        let mem = DeviceMemory::new(1024);
        let mut buf = mem.alloc::<u32>(4).unwrap();
        buf[2] = 9;
        buf[0] = 1;
        assert_eq!(buf.as_slice(), &[1, 0, 9, 0]);
        assert!(!buf.is_empty());
        assert_eq!(buf.size_bytes(), 16);
    }
}
