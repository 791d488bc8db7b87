//! The simulated GPU device.
//!
//! A [`Gpu`] ties together a hardware spec, its global memory (a capacity
//! and a high-water mark), a compute timeline, and a (possibly shared)
//! PCI-e link.
//! All operations are *timed*: they take an earliest-start instant and
//! return when they finish on the simulated clock, so a caller (the GPMR
//! engine) can express overlap — e.g. uploading the next chunk while the
//! current map kernel runs — exactly as CUDA streams would.

use crate::cost::{kernel_time, KernelCost};
use crate::error::SimGpuResult;
use crate::kernel::{run_blocks, BlockCtx, Launch, LaunchConfig};
use crate::link::{Direction, SharedLink};
use crate::memory::DeviceMemory;
use crate::occupancy::occupancy;
use crate::spec::GpuSpec;
use crate::time::{Reservation, SimTime, Timeline};
use gpmr_telemetry::{Counter, Gauge, Histogram, Telemetry};

/// Cached telemetry handles for one device (boxed so an uninstrumented
/// `Gpu` pays only a pointer-sized `None`).
#[derive(Debug)]
struct GpuTelemetry {
    tel: Telemetry,
    track: u32,
    kernels: Counter,
    h2d_bytes: Counter,
    d2h_bytes: Counter,
    occupancy: Histogram,
    mem_peak: Gauge,
}

impl GpuTelemetry {
    fn new(tel: &Telemetry, rank: u32) -> Self {
        GpuTelemetry {
            tel: tel.clone(),
            track: rank,
            kernels: tel.counter(&format!("gpu.rank{rank}.kernels")),
            h2d_bytes: tel.counter(&format!("gpu.rank{rank}.h2d_bytes")),
            d2h_bytes: tel.counter(&format!("gpu.rank{rank}.d2h_bytes")),
            occupancy: tel.histogram(
                &format!("gpu.rank{rank}.occupancy"),
                &[0.25, 0.5, 0.75, 0.9, 1.0],
            ),
            mem_peak: tel.gauge(&format!("gpu.rank{rank}.mem_peak_bytes")),
        }
    }

    fn kernel(&self, start: SimTime, occ: f64, mem_peak: u64) {
        self.kernels.inc();
        self.occupancy.observe(occ);
        self.mem_peak.set_max(mem_peak as f64);
        self.tel
            .sample(self.track, "gpu.occupancy", start.as_secs(), occ);
    }
}

/// One simulated GPU.
pub struct Gpu {
    /// Hardware description.
    pub spec: GpuSpec,
    /// Global memory: the capacity chunks are admitted against, and the
    /// high-water mark of the working sets noted resident.
    pub mem: DeviceMemory,
    compute: Timeline,
    copy_engine: Timeline,
    link: SharedLink,
    telem: Option<Box<GpuTelemetry>>,
}

impl Gpu {
    /// A device with a private PCI-e gen-1 link.
    pub fn new(spec: GpuSpec) -> Self {
        Self::with_link(spec, SharedLink::default())
    }

    /// A device attached to an existing (possibly shared) link.
    pub fn with_link(spec: GpuSpec, link: SharedLink) -> Self {
        let mem = DeviceMemory::new(spec.mem_capacity);
        Gpu {
            spec,
            mem,
            compute: Timeline::new(),
            copy_engine: Timeline::new(),
            link,
            telem: None,
        }
    }

    /// Attach telemetry: kernel launches, occupancy, transferred bytes, and
    /// the memory high-water mark are reported as `gpu.rank{rank}.*`
    /// metrics and occupancy samples on track `rank`. Attaching a disabled
    /// handle detaches (restoring the zero-overhead path).
    pub fn attach_telemetry(&mut self, tel: &Telemetry, rank: u32) {
        self.telem = tel
            .is_enabled()
            .then(|| Box::new(GpuTelemetry::new(tel, rank)));
    }

    /// Launch an infallible kernel: run `f` once per block, in block order,
    /// charge its aggregate cost on the compute timeline starting no
    /// earlier than `at`, and return per-block outputs with the reservation
    /// window.
    pub fn launch<R, F>(
        &mut self,
        at: SimTime,
        cfg: &LaunchConfig,
        f: F,
    ) -> SimGpuResult<(Launch<R>, Reservation)>
    where
        R: Send,
        F: Fn(&mut BlockCtx) -> R + Sync,
    {
        self.try_launch(at, cfg, |ctx| Ok(f(ctx)))
    }

    /// Launch a kernel whose blocks may fail (e.g. shared-memory
    /// over-allocation). The first error aborts the launch.
    pub fn try_launch<R, F>(
        &mut self,
        at: SimTime,
        cfg: &LaunchConfig,
        f: F,
    ) -> SimGpuResult<(Launch<R>, Reservation)>
    where
        R: Send,
        F: Fn(&mut BlockCtx) -> SimGpuResult<R> + Sync,
    {
        let (outputs, cost) = run_blocks(&self.spec, cfg, &f)?;
        let occ = occupancy(&self.spec, cfg);
        let res = self.charge_compute(at, &cost, occ.fraction);
        Ok((Launch { outputs, cost }, res))
    }

    /// Charge compute time directly (for modelled device work that is not
    /// expressed as an explicit kernel, e.g. a library sort whose cost was
    /// computed analytically).
    pub fn charge_compute(&mut self, at: SimTime, cost: &KernelCost, occ: f64) -> Reservation {
        let dur = kernel_time(&self.spec, occ, cost);
        let res = self.compute.reserve(at, dur);
        if let Some(t) = &self.telem {
            t.kernel(res.start, occ, self.mem.peak());
        }
        res
    }

    /// Reserve a host-to-device transfer of `bytes` on the PCI-e link.
    ///
    /// The transfer also occupies this device's H2D copy-engine timeline:
    /// uploads issued to one device serialize on its copy engine even when
    /// the PCI-e link itself is idle, exactly like queueing `cudaMemcpyAsync`
    /// calls on a single copy stream. The returned reservation reflects
    /// both constraints.
    pub fn h2d(&mut self, at: SimTime, bytes: u64) -> Reservation {
        if let Some(t) = &self.telem {
            t.h2d_bytes.add(bytes);
        }
        // The copy engine must be free before the link transfer can start.
        let engine_free = self.copy_engine.free_at();
        let res = self
            .link
            .transfer(Direction::HostToDevice, at.max(engine_free), bytes);
        self.copy_engine.reserve(res.start, res.duration());
        res
    }

    /// Reserve a device-to-host transfer of `bytes` on the PCI-e link.
    pub fn d2h(&mut self, at: SimTime, bytes: u64) -> Reservation {
        if let Some(t) = &self.telem {
            t.d2h_bytes.add(bytes);
        }
        self.link.transfer(Direction::DeviceToHost, at, bytes)
    }

    /// Note a modeled working set resident in device memory (raises the
    /// high-water mark; see [`DeviceMemory::note_resident`]).
    pub fn note_resident(&mut self, bytes: u64) {
        self.mem.note_resident(bytes);
    }

    /// Publish the memory high-water mark to the `mem_peak_bytes` gauge.
    /// Kernel launches update the gauge as they go; this teardown flush
    /// catches residency noted after the last launch. No-op when
    /// uninstrumented.
    pub fn flush_telemetry(&self) {
        if let Some(t) = &self.telem {
            t.mem_peak.set_max(self.mem.peak() as f64);
        }
    }

    /// Instant after which the H2D copy engine is idle.
    pub fn copy_free_at(&self) -> SimTime {
        self.copy_engine.free_at()
    }

    /// Reset the clock state (compute timeline and link) without touching
    /// the memory high-water mark. Used between jobs on a persistent device.
    pub fn reset_clock(&mut self) {
        self.compute.reset();
        self.copy_engine.reset();
        self.link.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gpu() -> Gpu {
        Gpu::new(GpuSpec::gt200())
    }

    #[test]
    fn launch_times_accumulate_on_compute_timeline() {
        let tel = Telemetry::enabled();
        let mut g = gpu();
        g.attach_telemetry(&tel, 0);
        let cfg = LaunchConfig::grid(30, 256);
        let (l1, r1) = g
            .launch(SimTime::ZERO, &cfg, |ctx| {
                ctx.charge_flops(1_000_000);
                ctx.block_idx
            })
            .unwrap();
        assert_eq!(l1.outputs.len(), 30);
        assert!(r1.end > r1.start || r1.duration().as_secs() > 0.0);
        let (_, r2) = g.launch(SimTime::ZERO, &cfg, |_| ()).unwrap();
        // Second kernel waits for the first even though requested at t=0.
        assert_eq!(r2.start, r1.end);
        assert_eq!(tel.snapshot().metrics.counter("gpu.rank0.kernels"), 2);
        assert_eq!(g.compute.free_at(), r2.end);
    }

    #[test]
    fn operations_issued_in_sequence_serialize() {
        let mut g = gpu();
        let up = g.h2d(SimTime::ZERO, 1 << 24);
        let (_, k) = g
            .launch(up.end, &LaunchConfig::grid(30, 256), |ctx| {
                ctx.charge_flops(1 << 20);
            })
            .unwrap();
        assert!(k.end > up.end);
    }

    #[test]
    fn independent_copy_and_compute_overlap() {
        let mut g = gpu();
        // A long upload and a kernel, both issued at t=0. They use
        // different engines, so the kernel must not wait for the copy.
        let up = g.h2d(SimTime::ZERO, 256 << 20); // ~80 ms on gen-1 PCI-e
        let (_, k) = g
            .launch(SimTime::ZERO, &LaunchConfig::grid(30, 256), |ctx| {
                ctx.charge_flops(1 << 10);
            })
            .unwrap();
        assert!(
            k.end < up.end,
            "kernel should finish while the copy is still in flight"
        );
    }

    #[test]
    fn kernel_can_produce_real_results() {
        let mut g = gpu();
        let input: Vec<u64> = (1..=1000).collect();
        let cfg = LaunchConfig::for_items(input.len(), 100, 128);
        let (launch, _) = g
            .launch(SimTime::ZERO, &cfg, |ctx| {
                let range = ctx.item_range(input.len());
                ctx.charge_read::<u64>(range.len());
                input[range].iter().sum::<u64>()
            })
            .unwrap();
        let total: u64 = launch.outputs.iter().sum();
        assert_eq!(total, 500500);
        assert_eq!(launch.cost.bytes_coalesced, 8000);
    }

    #[test]
    fn charge_compute_reserves_time() {
        let mut g = gpu();
        let cost = KernelCost {
            bytes_coalesced: 1 << 27,
            ..KernelCost::ZERO
        };
        let r = g.charge_compute(SimTime::from_secs(1.0), &cost, 1.0);
        assert_eq!(r.start.as_secs(), 1.0);
        assert!(r.duration().as_secs() > 1e-4);
    }

    #[test]
    fn shared_link_causes_cross_device_contention() {
        let link = SharedLink::default();
        let mut a = Gpu::with_link(GpuSpec::gt200(), link.clone());
        let mut b = Gpu::with_link(GpuSpec::gt200(), link);
        let ra = a.h2d(SimTime::ZERO, 1 << 26);
        let rb = b.h2d(SimTime::ZERO, 1 << 26);
        assert_eq!(rb.start, ra.end);
    }

    #[test]
    fn attached_telemetry_reports_kernels_and_bytes() {
        let tel = Telemetry::enabled();
        let mut g = gpu();
        g.attach_telemetry(&tel, 3);
        let cfg = LaunchConfig::grid(30, 256);
        g.launch(SimTime::ZERO, &cfg, |ctx| ctx.charge_flops(1000))
            .unwrap();
        g.note_resident(2048);
        g.h2d(SimTime::ZERO, 4096);
        g.d2h(SimTime::ZERO, 128);
        let snap = tel.snapshot();
        assert_eq!(snap.metrics.counter("gpu.rank3.kernels"), 1);
        assert_eq!(snap.metrics.counter("gpu.rank3.h2d_bytes"), 4096);
        assert_eq!(snap.metrics.counter("gpu.rank3.d2h_bytes"), 128);
        assert!(snap.metrics.gauge("gpu.rank3.mem_peak_bytes") >= 0.0);
        assert_eq!(snap.samples.len(), 1);
        assert_eq!(snap.samples[0].series, "gpu.occupancy");
        assert_eq!(snap.samples[0].track, 3);
        // A disabled handle detaches.
        g.attach_telemetry(&Telemetry::disabled(), 3);
        g.h2d(SimTime::ZERO, 4096);
        assert_eq!(tel.snapshot().metrics.counter("gpu.rank3.h2d_bytes"), 4096);
    }

    #[test]
    fn teardown_flush_reports_exact_memory_peak() {
        let tel = Telemetry::enabled();
        let mut g = gpu();
        g.attach_telemetry(&tel, 0);
        // A working set of 1280 bytes reaches the gauge at the launch...
        g.note_resident(1280);
        g.launch(SimTime::ZERO, &LaunchConfig::grid(1, 32), |_| ())
            .unwrap();
        let snap = tel.snapshot();
        assert_eq!(snap.metrics.gauge("gpu.rank0.mem_peak_bytes"), 1280.0);
        // ...a larger one, noted after the last launch, reaches it only at
        // the flush, and a smaller one never lowers it.
        g.note_resident(4608);
        g.note_resident(512);
        g.flush_telemetry();
        let snap = tel.snapshot();
        assert_eq!(snap.metrics.gauge("gpu.rank0.mem_peak_bytes"), 4608.0);
    }

    #[test]
    fn reset_clock_clears_time_but_not_memory() {
        let tel = Telemetry::enabled();
        let mut g = gpu();
        g.attach_telemetry(&tel, 0);
        g.note_resident(128);
        g.h2d(SimTime::ZERO, 1 << 20);
        g.reset_clock();
        assert_eq!(g.compute.free_at(), SimTime::ZERO);
        assert_eq!(g.copy_free_at(), SimTime::ZERO);
        assert_eq!(g.mem.peak(), 128);
        // The byte count is the registry's, cumulative across jobs.
        let snap = tel.snapshot();
        assert_eq!(snap.metrics.counter("gpu.rank0.h2d_bytes"), 1 << 20);
    }

    #[test]
    fn uploads_serialize_on_the_copy_engine() {
        let mut g = gpu();
        let r1 = g.h2d(SimTime::ZERO, 1 << 26);
        // Second upload issued at t=0 queues behind the first on the copy
        // engine (and on the link).
        let r2 = g.h2d(SimTime::ZERO, 1 << 26);
        assert_eq!(r2.start, r1.end);
        assert_eq!(g.copy_free_at(), r2.end);
    }

    #[test]
    fn copy_engine_and_d2h_are_independent() {
        // Downloads ride the other PCI-e direction and do not occupy the
        // H2D copy engine.
        let mut g = gpu();
        let up = g.h2d(SimTime::ZERO, 1 << 26);
        let down = g.d2h(SimTime::ZERO, 1 << 26);
        assert_eq!(down.start, SimTime::ZERO);
        assert_eq!(g.copy_free_at(), up.end);
    }
}
