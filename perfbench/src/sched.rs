//! Open-loop load: operations are due at fixed times whether or not earlier
//! ones have finished, and latency is measured from each operation's due
//! time, so a stalled server is charged for the queue it causes.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One operation of a schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct Due<T> {
    /// Offset from the schedule's origin at which the operation is due.
    pub at: Duration,
    /// What to do.
    pub op: T,
}

/// Due times of a fixed-rate stream: `start + (i + phase)/rate` for every
/// `i` that falls before `start + len`. `phase` in `[0, 1)` shifts the
/// stream within one interval.
pub fn fixed_rate(rate: f64, start: Duration, len: Duration, phase: f64) -> Vec<Duration> {
    let interval = 1.0 / rate;
    let mut times = Vec::new();
    let mut i = 0usize;
    loop {
        let offset = (i as f64 + phase) * interval;
        if offset >= len.as_secs_f64() {
            return times;
        }
        times.push(start + Duration::from_secs_f64(offset));
        i += 1;
    }
}

/// When one operation was due, sent, and answered, all as offsets from the
/// schedule's origin.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    /// When the operation was due.
    pub due: Duration,
    /// When the client sent it.
    pub sent: Duration,
    /// When the answer had been read.
    pub done: Duration,
}

impl Timing {
    /// Latency from the due time: lateness plus the round trip.
    pub fn latency_ms(&self) -> f64 {
        self.done.saturating_sub(self.due).as_secs_f64() * 1e3
    }

    /// How late the client sent the operation.
    pub fn lateness_ms(&self) -> f64 {
        self.sent.saturating_sub(self.due).as_secs_f64() * 1e3
    }

    /// The round trip alone, send to answer.
    pub fn round_trip_ms(&self) -> f64 {
        self.done.saturating_sub(self.sent).as_secs_f64() * 1e3
    }
}

/// Runs `schedule` (sorted by due time) on `workers` client threads. Each
/// thread makes its own connection state with `connect`, takes the next
/// operation in due order, waits for its due time, and calls `exec`.
/// Results come back in schedule order.
pub fn run_open_loop<T, C, R>(
    schedule: &[Due<T>],
    workers: usize,
    connect: impl Fn() -> C + Sync,
    exec: impl Fn(&mut C, &T) -> R + Sync,
) -> Vec<(Timing, R)>
where
    T: Sync,
    R: Send,
{
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<Option<(Timing, R)>>> =
        Mutex::new((0..schedule.len()).map(|_| None).collect());
    let origin = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..workers.max(1) {
            scope.spawn(|| {
                let mut conn = connect();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(item) = schedule.get(i) else {
                        return;
                    };
                    let now = origin.elapsed();
                    if item.at > now {
                        std::thread::sleep(item.at - now);
                    }
                    let sent = origin.elapsed();
                    let result = exec(&mut conn, &item.op);
                    let done = origin.elapsed();
                    let timing = Timing {
                        due: item.at,
                        sent,
                        done,
                    };
                    gopher_par::lock_recover(&results)[i] = Some((timing, result));
                }
            });
        }
    });
    results
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .into_iter()
        .map(|r| r.expect("every scheduled operation ran"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_rate_spacing_and_count() {
        let times = fixed_rate(10.0, Duration::from_secs(1), Duration::from_secs(2), 0.5);
        assert_eq!(times.len(), 20);
        assert_eq!(times[0], Duration::from_millis(1050));
        assert_eq!(times[1], Duration::from_millis(1150));
        assert!(times[19] < Duration::from_secs(3));
    }

    #[test]
    fn timing_is_measured_from_the_due_time() {
        let t = Timing {
            due: Duration::from_millis(100),
            sent: Duration::from_millis(130),
            done: Duration::from_millis(150),
        };
        assert!((t.lateness_ms() - 30.0).abs() < 1e-9);
        assert!((t.round_trip_ms() - 20.0).abs() < 1e-9);
        assert!((t.latency_ms() - 50.0).abs() < 1e-9);
        let early = Timing {
            due: Duration::from_millis(100),
            sent: Duration::from_millis(100),
            done: Duration::from_millis(101),
        };
        assert_eq!(early.lateness_ms(), 0.0);
    }

    #[test]
    fn a_stall_makes_later_operations_late_and_charges_them() {
        // One client, ten ops every 10 ms; the first op stalls 60 ms. The
        // ops due during the stall are sent late, and their latency counts
        // the wait from their due time, not just their own short service.
        let schedule: Vec<Due<u32>> =
            fixed_rate(100.0, Duration::ZERO, Duration::from_millis(100), 0.0)
                .into_iter()
                .enumerate()
                .map(|(i, at)| Due { at, op: i as u32 })
                .collect();
        let results = run_open_loop(
            &schedule,
            1,
            || (),
            |_, &op| {
                std::thread::sleep(Duration::from_millis(if op == 0 { 60 } else { 1 }));
                op
            },
        );
        assert_eq!(results.len(), 10);
        for (i, (_, op)) in results.iter().enumerate() {
            assert_eq!(*op as usize, i, "results come back in schedule order");
        }
        let (second, _) = results[1];
        assert!(second.lateness_ms() >= 45.0, "{second:?}");
        assert!(second.latency_ms() >= second.lateness_ms() + second.round_trip_ms() - 1e-6);
        assert!(second.round_trip_ms() < 45.0);
        // With two clients the second op is on time.
        let results = run_open_loop(
            &schedule,
            2,
            || (),
            |_, &op| {
                std::thread::sleep(Duration::from_millis(if op == 0 { 60 } else { 1 }));
                op
            },
        );
        assert!(results[1].0.lateness_ms() < 20.0);
    }
}
