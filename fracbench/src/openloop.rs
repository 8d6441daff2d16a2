//! Open-loop request schedule: request `k` is due at `k / rate` seconds
//! after the phase starts, whether or not earlier replies have arrived.
//! Latency is measured from the due time, so a stall in the daemon (or in
//! the generator) is charged to every request it delays, and the generator's
//! own lateness is reported separately.

use std::time::Duration;

/// A fixed-rate arrival schedule.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    interval: Duration,
}

impl Schedule {
    /// A schedule offering `rate` requests per second.
    ///
    /// # Panics
    /// Panics unless `rate` is finite and positive.
    pub fn new(rate: f64) -> Schedule {
        assert!(
            rate.is_finite() && rate > 0.0,
            "offered rate must be positive"
        );
        Schedule {
            interval: Duration::from_secs_f64(1.0 / rate),
        }
    }

    /// When request `k` (0-based) is due, as an offset from the phase start.
    pub fn due(&self, k: u32) -> Duration {
        self.interval * k
    }

    /// How many requests fall due within a phase of length `phase`.
    pub fn count_within(&self, phase: Duration) -> u32 {
        (phase.as_secs_f64() / self.interval.as_secs_f64()).floor() as u32
    }
}

/// One request's timeline, as offsets from the phase start.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timeline {
    /// When the schedule said to send it.
    pub due: Duration,
    /// When the generator actually wrote it.
    pub sent: Duration,
    /// When its reply was read.
    pub received: Duration,
}

impl Timeline {
    /// Latency charged to the request: reply time minus due time.
    pub fn latency(&self) -> Duration {
        self.received.saturating_sub(self.due)
    }

    /// How late the generator sent it.
    pub fn lateness(&self) -> Duration {
        self.sent.saturating_sub(self.due)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: Duration = Duration::from_millis(1);

    #[test]
    fn schedule_spaces_requests_evenly() {
        let s = Schedule::new(100.0);
        assert_eq!(s.due(0), Duration::ZERO);
        assert_eq!(s.due(1), 10 * MS);
        assert_eq!(s.due(250), 2500 * MS);
        assert_eq!(s.count_within(Duration::from_secs(3)), 300);
    }

    #[test]
    #[should_panic(expected = "offered rate must be positive")]
    fn schedule_rejects_zero_rate() {
        Schedule::new(0.0);
    }

    #[test]
    fn a_stall_is_charged_to_every_request_it_delays() {
        // 100 req/s; the daemon stalls for 35 ms after request 0, so replies
        // to requests 0..=3 all come back at 36 ms, then it catches up.
        let s = Schedule::new(100.0);
        let received = [36, 36, 36, 36, 41, 51];
        let tl: Vec<Timeline> = received
            .iter()
            .enumerate()
            .map(|(k, &r)| Timeline {
                due: s.due(k as u32),
                sent: s.due(k as u32),
                received: r * MS,
            })
            .collect();
        let lat: Vec<u64> = tl.iter().map(|t| t.latency().as_millis() as u64).collect();
        // A closed loop would have timed requests 1..=3 from the stall's
        // end (≈1 ms each); the open loop charges the backlog.
        assert_eq!(lat, [36, 26, 16, 6, 1, 1]);
        assert!(tl.iter().all(|t| t.lateness().is_zero()));
    }

    #[test]
    fn generator_lateness_is_reported_and_still_charged() {
        let t = Timeline {
            due: 20 * MS,
            sent: 27 * MS,
            received: 29 * MS,
        };
        assert_eq!(t.lateness(), 7 * MS);
        assert_eq!(t.latency(), 9 * MS);
        // Early sends and clock skew never produce negative figures.
        let early = Timeline {
            due: 20 * MS,
            sent: 19 * MS,
            received: 18 * MS,
        };
        assert_eq!(early.lateness(), Duration::ZERO);
        assert_eq!(early.latency(), Duration::ZERO);
    }
}
