//! Simulated-time primitives.
//!
//! The simulator separates *what* is computed (real data, computed on host
//! threads) from *when* it finishes (simulated seconds, derived from the
//! cost model). `SimTime` is an absolute instant on the simulated clock and
//! `SimDuration` a span between instants. Resources (GPU compute, PCI-e
//! directions, NICs) are modelled as [`Timeline`]s that serialize
//! reservations, which is how overlap and contention emerge.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// An absolute instant on the simulated clock, in seconds since job start.
#[derive(Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct SimTime(f64);

/// A span of simulated time, in seconds. Always non-negative.
#[derive(Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct SimDuration(f64);

impl SimTime {
    /// The start of simulated time.
    pub const ZERO: SimTime = SimTime(0.0);

    /// Construct from seconds. Negative inputs are clamped to zero.
    pub fn from_secs(s: f64) -> Self {
        SimTime(s.max(0.0))
    }

    /// The instant as fractional seconds.
    pub fn as_secs(self) -> f64 {
        self.0
    }

    /// The later of two instants.
    pub fn max(self, other: SimTime) -> SimTime {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// The earlier of two instants.
    pub fn min(self, other: SimTime) -> SimTime {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }

    /// Duration elapsed since `earlier`; zero if `earlier` is later.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration((self.0 - earlier.0).max(0.0))
    }
}

impl SimDuration {
    /// An empty span.
    pub const ZERO: SimDuration = SimDuration(0.0);

    /// Construct from seconds. Negative inputs are clamped to zero.
    pub fn from_secs(s: f64) -> Self {
        SimDuration(s.max(0.0))
    }

    /// The span as fractional seconds.
    pub fn as_secs(self) -> f64 {
        self.0
    }

    /// The larger of two spans.
    pub fn max(self, other: SimDuration) -> SimDuration {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.since(rhs)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Mul<f64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: f64) -> SimDuration {
        SimDuration((self.0 * rhs).max(0.0))
    }
}

impl Div<f64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: f64) -> SimDuration {
        SimDuration((self.0 / rhs).max(0.0))
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> Self {
        iter.fold(SimDuration::ZERO, |a, b| a + b)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.0)
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.0 * 1e3)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.0 * 1e3)
    }
}

/// The window of simulated time granted by a [`Timeline::reserve`] call.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Reservation {
    /// When the resource actually started serving the request.
    pub start: SimTime,
    /// When the request completes and the resource frees up.
    pub end: SimTime,
}

impl Reservation {
    /// The service duration (`end - start`).
    pub fn duration(&self) -> SimDuration {
        self.end.since(self.start)
    }
}

/// A serially-shared resource: one request at a time, FIFO by request order.
///
/// A `Timeline` models a GPU's compute engine, one direction of a PCI-e
/// link, or a NIC. Callers ask to start no earlier than `earliest`; the
/// timeline grants the later of that and its own availability, then marks
/// itself busy for the duration.
///
/// ```
/// use gpmr_sim_gpu::{SimDuration, SimTime, Timeline};
///
/// let mut engine = Timeline::new();
/// let a = engine.reserve(SimTime::ZERO, SimDuration::from_secs(1.0));
/// // A second request at t=0 waits for the first to finish.
/// let b = engine.reserve(SimTime::ZERO, SimDuration::from_secs(0.5));
/// assert_eq!(b.start, a.end);
/// assert_eq!(b.end.as_secs(), 1.5);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Timeline {
    free_at: SimTime,
}

impl Timeline {
    /// A timeline that is free from time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reserve `dur` of exclusive service, starting no earlier than
    /// `earliest` and no earlier than the end of any previous reservation.
    pub fn reserve(&mut self, earliest: SimTime, dur: SimDuration) -> Reservation {
        let start = earliest.max(self.free_at);
        let end = start + dur;
        self.free_at = end;
        Reservation { start, end }
    }

    /// The instant after which the resource is idle.
    pub fn free_at(&self) -> SimTime {
        self.free_at
    }

    /// Reset to the free-from-zero state.
    pub fn reset(&mut self) {
        *self = Self::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_ordering_and_arithmetic() {
        let a = SimTime::from_secs(1.0);
        let b = a + SimDuration::from_secs(0.5);
        assert!(b > a);
        assert_eq!((b - a).as_secs(), 0.5);
        // saturating subtraction
        assert_eq!((a - b).as_secs(), 0.0);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
    }

    #[test]
    fn negative_inputs_clamp_to_zero() {
        assert_eq!(SimTime::from_secs(-3.0).as_secs(), 0.0);
        assert_eq!(SimDuration::from_secs(-1.0).as_secs(), 0.0);
        assert_eq!((SimDuration::from_secs(1.0) * -2.0).as_secs(), 0.0);
    }

    #[test]
    fn timeline_serializes_reservations() {
        let mut tl = Timeline::new();
        let r1 = tl.reserve(SimTime::ZERO, SimDuration::from_secs(1.0));
        assert_eq!(r1.start, SimTime::ZERO);
        assert_eq!(r1.end.as_secs(), 1.0);

        // A request at t=0.2 must wait for the first to finish.
        let r2 = tl.reserve(SimTime::from_secs(0.2), SimDuration::from_secs(0.5));
        assert_eq!(r2.start.as_secs(), 1.0);
        assert_eq!(r2.end.as_secs(), 1.5);

        // A request after the timeline is idle starts immediately.
        let r3 = tl.reserve(SimTime::from_secs(3.0), SimDuration::from_secs(0.25));
        assert_eq!(r3.start.as_secs(), 3.0);
        assert_eq!(tl.free_at().as_secs(), 3.25);
    }

    #[test]
    fn timeline_reset_clears_state() {
        let mut tl = Timeline::new();
        tl.reserve(SimTime::ZERO, SimDuration::from_secs(2.0));
        tl.reset();
        assert_eq!(tl.free_at(), SimTime::ZERO);
    }

    #[test]
    fn duration_sum_and_display() {
        let total: SimDuration = [0.5, 0.25, 0.25]
            .iter()
            .map(|&s| SimDuration::from_secs(s))
            .sum();
        assert_eq!(total.as_secs(), 1.0);
        assert_eq!(format!("{total}"), "1000.000ms");
        assert_eq!(format!("{}", SimTime::from_secs(0.5)), "0.500000s");
    }

    #[test]
    fn reservation_duration() {
        let mut tl = Timeline::new();
        let r = tl.reserve(SimTime::from_secs(1.0), SimDuration::from_secs(0.5));
        assert_eq!(r.duration().as_secs(), 0.5);
    }
}
