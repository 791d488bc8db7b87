//! The interconnect fabric: timed point-to-point messages between ranks.
//!
//! GPMR's Bin substage runs on the CPU and pushes partitioned key-value
//! buckets to their reducer ranks. The fabric computes *when* such a
//! message arrives: cross-node messages reserve the sender's NIC send
//! engine and the receiver's NIC receive engine (after wire latency);
//! intra-node messages go through host memory on a per-node copy timeline.
//! Payloads themselves travel through a [`Mailbox`] so data stays
//! bit-exact.

use std::fmt;

use crate::nic::{CpuSpec, Nic};
use crate::topology::Topology;
use gpmr_sim_gpu::{FaultPlan, SimDuration, SimTime, Timeline, TransferOutcome};
use gpmr_telemetry::{Counter, Histogram, SpanKind, Telemetry};

/// Cached telemetry handles for the fabric (boxed so an uninstrumented
/// `Fabric` pays only a pointer-sized `None`).
#[derive(Debug)]
struct FabricTelemetry {
    tel: Telemetry,
    /// First track index reserved for NIC lanes; node `n` draws on track
    /// `track_base + n`.
    track_base: u32,
    sends: Counter,
    local_sends: Counter,
    bytes: Counter,
    faults: Counter,
    bytes_on_wire: Histogram,
}

impl FabricTelemetry {
    fn new(tel: &Telemetry, track_base: u32) -> Self {
        FabricTelemetry {
            tel: tel.clone(),
            track_base,
            sends: tel.counter("fabric.sends"),
            local_sends: tel.counter("fabric.local_sends"),
            bytes: tel.counter("fabric.bytes"),
            faults: tel.counter("fabric.faults_injected"),
            bytes_on_wire: tel.histogram(
                "fabric.bytes_on_wire",
                &[1024.0, 65536.0, 1048576.0, 16777216.0, 268435456.0],
            ),
        }
    }
}

/// A transfer attempt rejected by the active [`FaultPlan`].
///
/// Carries only the route (no timestamp) so it can sit inside `Eq` error
/// types; the failing attempt's timing context lives with the caller.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TransferFault {
    /// Sender rank of the rejected transfer.
    pub from: u32,
    /// Receiver rank of the rejected transfer.
    pub to: u32,
}

impl fmt::Display for TransferFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fabric transfer {} -> {} failed", self.from, self.to)
    }
}

impl std::error::Error for TransferFault {}

/// Timing model for the whole cluster interconnect.
#[derive(Debug)]
pub struct Fabric {
    topology: Topology,
    nics: Vec<Nic>,
    /// Per-node host-memory copy engine used for intra-node exchanges.
    local_copy: Vec<Timeline>,
    cpu: CpuSpec,
    fault_plan: Option<FaultPlan>,
    telem: Option<Box<FabricTelemetry>>,
}

impl Fabric {
    /// Build the fabric for `topology` with QDR InfiniBand NICs and the
    /// paper's Opteron hosts.
    pub fn new(topology: Topology) -> Self {
        Self::with_hardware(topology, Nic::qdr_infiniband, CpuSpec::dual_opteron_2216())
    }

    /// Build with every throughput scaled down by `s` (workload-scaling
    /// mode; see `gpmr_sim_gpu::GpuSpec::scaled`).
    pub fn scaled(topology: Topology, s: f64) -> Self {
        Self::with_hardware(
            topology,
            || Nic::qdr_infiniband().scaled(s),
            CpuSpec::dual_opteron_2216().scaled(s),
        )
    }

    /// Build with custom NIC and host models.
    pub fn with_hardware(topology: Topology, mut nic: impl FnMut() -> Nic, cpu: CpuSpec) -> Self {
        Fabric {
            topology,
            nics: (0..topology.nodes).map(|_| nic()).collect(),
            local_copy: (0..topology.nodes).map(|_| Timeline::new()).collect(),
            cpu,
            fault_plan: None,
            telem: None,
        }
    }

    /// Attach telemetry: sends are counted (`fabric.sends`,
    /// `fabric.local_sends`, `fabric.bytes`, `fabric.bytes_on_wire`),
    /// plan-injected failures increment `fabric.faults_injected`, and every
    /// cross-node transfer draws a `NetSend` span on the sender node's NIC
    /// track (`track_base + node`). Attaching a disabled handle detaches.
    pub fn attach_telemetry(&mut self, tel: &Telemetry, track_base: u32) {
        self.telem = tel
            .is_enabled()
            .then(|| Box::new(FabricTelemetry::new(tel, track_base)));
    }

    /// Cluster shape this fabric serves.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Install (or clear) the fault plan consulted by [`Fabric::try_send`].
    pub fn set_fault_plan(&mut self, plan: Option<FaultPlan>) {
        self.fault_plan = plan;
    }

    /// The active fault plan, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault_plan.as_ref()
    }

    /// Deliver `bytes` from `from` to `to`, with the payload available at
    /// the sender no earlier than `ready`. Returns the arrival instant at
    /// the receiver.
    pub fn send(&mut self, from: u32, to: u32, ready: SimTime, bytes: u64) -> SimTime {
        if from == to {
            // Rank-local handoff: stays in the process; free.
            return ready;
        }
        if self.topology.same_node(from, to) {
            // Through host memory on the node's copy engine. The node has
            // two Opteron sockets with independent memory controllers, so
            // aggregate copy bandwidth is twice the per-stream STREAM
            // figure recorded in `CpuSpec::mem_bandwidth`.
            let node = self.topology.node_of(from) as usize;
            let dur =
                SimDuration::from_secs(0.5e-6 + bytes as f64 / (2.0 * self.cpu.mem_bandwidth));
            let end = self.local_copy[node].reserve(ready, dur).end;
            if let Some(t) = &self.telem {
                t.sends.inc();
                t.local_sends.inc();
                t.bytes.add(bytes);
            }
            return end;
        }
        let (sn, rn) = (
            self.topology.node_of(from) as usize,
            self.topology.node_of(to) as usize,
        );
        let latency = SimDuration::from_secs(self.nics[sn].latency_s);
        let sent = self.nics[sn].reserve_send(ready, bytes);
        let recv = self.nics[rn].reserve_recv(sent.start + latency, bytes);
        if let Some(t) = &self.telem {
            t.sends.inc();
            t.bytes.add(bytes);
            t.bytes_on_wire.observe(bytes as f64);
            t.tel
                .span(
                    t.track_base + sn as u32,
                    SpanKind::NetSend.name(),
                    sent.start.as_secs(),
                    recv.end.as_secs(),
                )
                .name(format!("send {from}->{to}"))
                .attr_with("bytes", || bytes.to_string())
                .record();
        }
        recv.end
    }

    /// Like [`Fabric::send`], but consulting the fault plan first.
    ///
    /// `attempt` numbers retries of the same logical transfer from zero.
    /// A plan-decreed failure returns `Err` *without* reserving any
    /// timeline (the wire never carried the payload); a decreed delay
    /// pushes `ready` later before the normal send. Rank-local handoffs
    /// never touch the wire, so faults do not apply to them.
    pub fn try_send(
        &mut self,
        from: u32,
        to: u32,
        ready: SimTime,
        bytes: u64,
        attempt: u32,
    ) -> Result<SimTime, TransferFault> {
        if from == to {
            return Ok(ready);
        }
        match self
            .fault_plan
            .as_ref()
            .map_or(TransferOutcome::Deliver, |p| {
                p.transfer_outcome(from, to, ready, attempt)
            }) {
            TransferOutcome::Fail => {
                if let Some(t) = &self.telem {
                    t.faults.inc();
                }
                Err(TransferFault { from, to })
            }
            TransferOutcome::Delay(extra) => Ok(self.send(from, to, ready + extra, bytes)),
            TransferOutcome::Deliver => Ok(self.send(from, to, ready, bytes)),
        }
    }

    /// Total NIC busy time over the whole fabric (for utilization stats).
    pub fn network_busy(&self) -> SimDuration {
        self.nics.iter().map(|n| n.busy_time()).sum()
    }

    /// Reset all timelines to idle.
    pub fn reset(&mut self) {
        for n in &mut self.nics {
            n.reset();
        }
        for t in &mut self.local_copy {
            t.reset();
        }
    }
}

/// Typed, timestamped message queues, one per rank.
///
/// The fabric times deliveries; the mailbox carries the actual payloads so
/// receivers obtain bit-exact data along with its arrival instant.
#[derive(Debug)]
pub struct Mailbox<T> {
    queues: Vec<Vec<Delivery<T>>>,
}

/// One delivered message.
#[derive(Debug)]
pub struct Delivery<T> {
    /// Sender rank.
    pub from: u32,
    /// Canonical sequence number assigned by the sender (the chunk's
    /// global index, for the engine). Zero for plain [`Mailbox::send`].
    pub seq: u64,
    /// Simulated arrival instant at the receiver.
    pub arrival: SimTime,
    /// The payload.
    pub payload: T,
}

impl<T> Mailbox<T> {
    /// A mailbox for `ranks` receivers.
    pub fn new(ranks: u32) -> Self {
        Mailbox {
            queues: (0..ranks).map(|_| Vec::new()).collect(),
        }
    }

    /// Send `payload` from `from` to `to` over `fabric`; the payload is
    /// `bytes` long on the wire and ready at `ready`. Returns the arrival
    /// instant.
    pub fn send(
        &mut self,
        fabric: &mut Fabric,
        from: u32,
        to: u32,
        ready: SimTime,
        bytes: u64,
        payload: T,
    ) -> SimTime {
        let arrival = fabric.send(from, to, ready, bytes);
        self.deliver(to, from, 0, arrival, payload);
        arrival
    }

    /// Enqueue an already-timed delivery for `to`. Used by callers that
    /// time the transfer themselves (e.g. via [`Fabric::try_send`] with
    /// retries) and want a canonical `seq` attached.
    pub fn deliver(&mut self, to: u32, from: u32, seq: u64, arrival: SimTime, payload: T) {
        self.queues[to as usize].push(Delivery {
            from,
            seq,
            arrival,
            payload,
        });
    }

    /// Drain everything delivered to `rank`, in arrival order
    /// (ties broken by sender rank for determinism).
    pub fn drain(&mut self, rank: u32) -> Vec<Delivery<T>> {
        let mut msgs = std::mem::take(&mut self.queues[rank as usize]);
        msgs.sort_by(|a, b| {
            a.arrival
                .partial_cmp(&b.arrival)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.from.cmp(&b.from))
        });
        msgs
    }

    /// Drain everything delivered to `rank` in *canonical* order —
    /// `(seq, from)`, independent of arrival times — so receivers that
    /// concatenate payloads produce bit-identical results no matter how
    /// faults, retries, or stalls reshuffled the arrivals.
    pub fn drain_canonical(&mut self, rank: u32) -> Vec<Delivery<T>> {
        let mut msgs = std::mem::take(&mut self.queues[rank as usize]);
        msgs.sort_by(|a, b| a.seq.cmp(&b.seq).then(a.from.cmp(&b.from)));
        msgs
    }

    /// Number of undelivered messages queued for `rank`.
    pub fn pending(&self, rank: u32) -> usize {
        self.queues[rank as usize].len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fabric(gpus: u32) -> Fabric {
        Fabric::new(Topology::accelerator(gpus))
    }

    #[test]
    fn self_send_is_free() {
        let mut f = fabric(4);
        let t = f.send(1, 1, SimTime::from_secs(1.0), 1 << 30);
        assert_eq!(t.as_secs(), 1.0);
        assert_eq!(f.network_busy(), SimDuration::ZERO);
    }

    #[test]
    fn intra_node_skips_the_network() {
        let mut f = fabric(8);
        // Small messages: host-memory handoff beats the wire's latency.
        let local = f.send(0, 1, SimTime::ZERO, 1 << 10);
        let mut f2 = fabric(8);
        let remote = f2.send(0, 4, SimTime::ZERO, 1 << 10);
        assert!(local < remote, "local {local} remote {remote}");
        // Large messages still never touch the NICs when staying local.
        f.send(0, 1, SimTime::ZERO, 64 << 20);
        assert_eq!(f.network_busy(), SimDuration::ZERO);
        assert!(f2.network_busy().as_secs() > 0.0);
    }

    #[test]
    fn sender_nic_serializes_messages() {
        let mut f = fabric(12);
        // Two large cross-node sends from the same node.
        let a = f.send(0, 4, SimTime::ZERO, 32 << 20);
        let b = f.send(0, 8, SimTime::ZERO, 32 << 20);
        assert!(b > a);
        // Roughly double the single-message time.
        assert!(b.as_secs() > a.as_secs() * 1.9);
    }

    #[test]
    fn receiver_nic_is_a_bottleneck_for_fan_in() {
        let mut f = fabric(12);
        // Many nodes sending to rank 0 simultaneously.
        let t1 = f.send(4, 0, SimTime::ZERO, 32 << 20);
        let t2 = f.send(8, 0, SimTime::ZERO, 32 << 20);
        assert!(t2 > t1);
    }

    #[test]
    fn mailbox_delivers_in_arrival_order() {
        let mut f = fabric(12);
        let mut mb: Mailbox<&'static str> = Mailbox::new(12);
        // The receiver NIC serializes: first-requested is first-delivered,
        // and a big message delays everything queued behind it.
        mb.send(&mut f, 4, 0, SimTime::ZERO, 1 << 10, "small");
        mb.send(&mut f, 8, 0, SimTime::ZERO, 256 << 20, "big");
        assert_eq!(mb.pending(0), 2);
        let got = mb.drain(0);
        assert_eq!(got[0].payload, "small");
        assert_eq!(got[1].payload, "big");
        assert!(got[1].arrival > got[0].arrival);
        assert_eq!(mb.pending(0), 0);
    }

    #[test]
    fn try_send_honours_the_fault_plan() {
        let mut f = fabric(8);
        f.set_fault_plan(Some(
            FaultPlan::new()
                .transfer_fail(Some(0), Some(4), 0.0, 1.0, 2)
                .transfer_delay(Some(0), Some(5), 0.0, 1.0, 1e-3),
        ));
        // Failing window: first two attempts rejected, third goes through.
        let t = SimTime::from_secs(0.5);
        assert_eq!(
            f.try_send(0, 4, t, 1 << 10, 0),
            Err(TransferFault { from: 0, to: 4 })
        );
        assert_eq!(f.network_busy(), SimDuration::ZERO, "failed send used wire");
        assert_eq!(
            f.try_send(0, 4, t, 1 << 10, 1),
            Err(TransferFault { from: 0, to: 4 })
        );
        let ok = f.try_send(0, 4, t, 1 << 10, 2).unwrap();
        assert!(ok > t);
        // Delay window: arrival is pushed past the healthy-route arrival.
        let mut healthy = fabric(8);
        let base = healthy.try_send(0, 5, t, 1 << 10, 0).unwrap();
        let mut delayed = fabric(8);
        delayed.set_fault_plan(Some(FaultPlan::new().transfer_delay(
            Some(0),
            Some(5),
            0.0,
            1.0,
            1e-3,
        )));
        let late = delayed.try_send(0, 5, t, 1 << 10, 0).unwrap();
        assert!((late.as_secs() - base.as_secs() - 1e-3).abs() < 1e-9);
        // Self-sends bypass faults entirely.
        let mut f2 = fabric(8);
        f2.set_fault_plan(Some(
            FaultPlan::new().transfer_fail(None, None, 0.0, 1.0, 99),
        ));
        assert_eq!(f2.try_send(3, 3, t, 1 << 20, 0), Ok(t));
    }

    #[test]
    fn try_send_without_plan_matches_send() {
        let mut a = fabric(8);
        let mut b = fabric(8);
        let t1 = a.try_send(0, 4, SimTime::ZERO, 1 << 20, 0).unwrap();
        let t2 = b.send(0, 4, SimTime::ZERO, 1 << 20);
        assert_eq!(t1, t2);
    }

    #[test]
    fn canonical_drain_orders_by_seq_not_arrival() {
        let mut mb: Mailbox<&'static str> = Mailbox::new(4);
        // seq 7 arrives first, seq 2 arrives later; ties on seq break by
        // sender rank.
        mb.deliver(0, 3, 7, SimTime::from_secs(0.1), "late-seq-early-arrival");
        mb.deliver(0, 1, 2, SimTime::from_secs(0.9), "early-seq-late-arrival");
        mb.deliver(0, 2, 2, SimTime::from_secs(0.5), "early-seq-mid-arrival");
        let got = mb.drain_canonical(0);
        assert_eq!(got[0].payload, "early-seq-late-arrival");
        assert_eq!(got[1].payload, "early-seq-mid-arrival");
        assert_eq!(got[2].payload, "late-seq-early-arrival");
        assert_eq!(mb.pending(0), 0);
    }

    #[test]
    fn attached_telemetry_counts_sends_and_faults() {
        let tel = Telemetry::enabled();
        let mut f = fabric(8);
        f.attach_telemetry(&tel, 8);
        f.send(0, 1, SimTime::ZERO, 1 << 10); // intra-node
        f.send(0, 4, SimTime::ZERO, 1 << 20); // cross-node
        f.send(2, 2, SimTime::ZERO, 1 << 20); // self: free, uncounted
        f.set_fault_plan(Some(FaultPlan::new().transfer_fail(
            Some(0),
            Some(4),
            0.0,
            1.0,
            1,
        )));
        assert!(f.try_send(0, 4, SimTime::ZERO, 1 << 10, 0).is_err());
        let snap = tel.snapshot();
        assert_eq!(snap.metrics.counter("fabric.sends"), 2);
        assert_eq!(snap.metrics.counter("fabric.local_sends"), 1);
        assert_eq!(snap.metrics.counter("fabric.bytes"), (1 << 10) + (1 << 20));
        assert_eq!(snap.metrics.counter("fabric.faults_injected"), 1);
        assert_eq!(snap.metrics.histograms["fabric.bytes_on_wire"].count, 1);
        // One NetSend span for the cross-node transfer, on node 0's NIC
        // track (track_base 8 + node 0).
        let spans: Vec<_> = snap.spans_of("NetSend").collect();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].track, 8);
        assert_eq!(spans[0].name, "send 0->4");
        assert_eq!(spans[0].attr("bytes"), Some("1048576"));
    }

    #[test]
    fn reset_clears_timelines() {
        let mut f = fabric(8);
        f.send(0, 4, SimTime::ZERO, 1 << 20);
        f.reset();
        assert_eq!(f.network_busy(), SimDuration::ZERO);
    }
}
