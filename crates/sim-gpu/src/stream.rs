//! CUDA-style streams: ergonomic sequencing of device operations.
//!
//! The low-level device API threads explicit `SimTime` instants through
//! every call — maximal control, used by the GPMR engine. A [`Stream`]
//! wraps that bookkeeping the way `cudaStream_t` does: operations issued
//! on one stream serialize after each other; operations on different
//! streams overlap wherever the underlying resources (compute engine,
//! PCI-e directions) allow; [`Stream::wait`] is the analogue of
//! `cudaStreamWaitEvent`.

use crate::device::Gpu;
use crate::error::SimGpuResult;
use crate::kernel::{BlockCtx, Launch, LaunchConfig};
use crate::memory::DeviceBuffer;
use crate::time::SimTime;

/// An ordered sequence of device operations (see module docs).
#[derive(Clone, Copy, Debug, Default)]
pub struct Stream {
    cursor: SimTime,
}

impl Stream {
    /// A stream whose first operation may start at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// The instant all work issued on this stream has completed — the
    /// analogue of `cudaStreamSynchronize`.
    pub fn completion(&self) -> SimTime {
        self.cursor
    }

    /// Make this stream wait for everything issued on `other` so far
    /// (`cudaStreamWaitEvent` with an event recorded now).
    pub fn wait(&mut self, other: &Stream) -> &mut Self {
        self.cursor = self.cursor.max(other.cursor);
        self
    }

    /// Upload `src` to a new device buffer on this stream.
    pub fn upload<T: Clone>(&mut self, gpu: &mut Gpu, src: &[T]) -> SimGpuResult<DeviceBuffer<T>> {
        let (buf, res) = gpu.upload(self.cursor, src)?;
        self.cursor = res.end;
        Ok(buf)
    }

    /// Reserve an untyped host-to-device transfer on this stream.
    pub fn h2d(&mut self, gpu: &mut Gpu, bytes: u64) -> &mut Self {
        let res = gpu.h2d(self.cursor, bytes);
        self.cursor = res.end;
        self
    }

    /// Reserve an untyped device-to-host transfer on this stream.
    pub fn d2h(&mut self, gpu: &mut Gpu, bytes: u64) -> &mut Self {
        let res = gpu.d2h(self.cursor, bytes);
        self.cursor = res.end;
        self
    }

    /// Download and free a device buffer on this stream.
    pub fn download<T>(&mut self, gpu: &mut Gpu, buf: DeviceBuffer<T>) -> Vec<T> {
        let (data, res) = gpu.download(self.cursor, buf);
        self.cursor = res.end;
        data
    }

    /// Launch a kernel on this stream.
    pub fn launch<R, F>(
        &mut self,
        gpu: &mut Gpu,
        cfg: &LaunchConfig,
        f: F,
    ) -> SimGpuResult<Launch<R>>
    where
        R: Send,
        F: Fn(&mut BlockCtx) -> R + Sync,
    {
        let (launch, res) = gpu.launch(self.cursor, cfg, f)?;
        self.cursor = res.end;
        Ok(launch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::GpuSpec;

    fn gpu() -> Gpu {
        Gpu::new(GpuSpec::gt200())
    }

    #[test]
    fn operations_on_one_stream_serialize() {
        let mut g = gpu();
        let mut s = Stream::new();
        s.h2d(&mut g, 1 << 24);
        let after_upload = s.completion();
        s.launch(&mut g, &LaunchConfig::grid(30, 256), |ctx| {
            ctx.charge_flops(1 << 20);
        })
        .unwrap();
        assert!(s.completion() > after_upload);
    }

    #[test]
    fn two_streams_overlap_copy_and_compute() {
        let mut g = gpu();
        // Stream A: a long upload. Stream B: a kernel. They use different
        // engines, so B's kernel must not wait for A's copy.
        let mut a = Stream::new();
        a.h2d(&mut g, 256 << 20); // ~80 ms on gen-1 PCI-e
        let mut b = Stream::new();
        b.launch(&mut g, &LaunchConfig::grid(30, 256), |ctx| {
            ctx.charge_flops(1 << 10);
        })
        .unwrap();
        assert!(
            b.completion() < a.completion(),
            "kernel should finish while the copy is still in flight"
        );
    }

    #[test]
    fn wait_orders_across_streams() {
        let mut g = gpu();
        let mut producer = Stream::new();
        producer.h2d(&mut g, 64 << 20);
        let mut consumer = Stream::new();
        consumer.wait(&producer);
        let start = consumer.completion();
        assert_eq!(start, producer.completion());
        consumer
            .launch(&mut g, &LaunchConfig::grid(4, 64), |ctx| {
                ctx.charge_flops(100);
            })
            .unwrap();
        assert!(consumer.completion() > producer.completion());
    }

    #[test]
    fn upload_download_round_trip() {
        let mut g = gpu();
        let mut s = Stream::new();
        let data: Vec<u32> = (0..4096).collect();
        let buf = s.upload(&mut g, &data).unwrap();
        let back = s.download(&mut g, buf);
        assert_eq!(back, data);
        assert!(s.completion().as_secs() > 0.0);
        assert_eq!(g.mem.used(), 0);
    }
}
