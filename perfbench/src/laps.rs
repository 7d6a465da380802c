//! Lap timing of the simulated runs.
//!
//! A run is timed in laps: from its start to the first stop-policy check
//! inside it, between consecutive checks, and from the last check to its
//! end. The runtime consults its policy at fixed action counts, so lap
//! `i` of a run covers the same actions in every pass, and a run's time
//! is the sum of each lap's fastest time over the passes. A slow spell of
//! the host then has to hit the same lap in every pass to count, rather
//! than any part of a whole run: `sgl` runs last 0.1–0.2 s and are timed
//! only about 15 times, and in 12-second runs alternating the two, whole
//! runs read 8.2–11.1 runs/s (quartiles 26 % of the median apart) where
//! laps read 10.2–12.7 (14 %).

use std::cell::RefCell;
use std::time::Instant;

thread_local! {
    static MARKS: RefCell<Vec<Instant>> = const { RefCell::new(Vec::new()) };
}

/// Ends the current lap (the stop-policy delegate calls it at each check).
pub fn mark() {
    MARKS.with(|m| m.borrow_mut().push(Instant::now()));
}

/// Runs `f`, returning its result and its laps in nanoseconds: one lap
/// more than `f` made [`mark`] calls.
pub fn lapped<T>(f: impl FnOnce() -> T) -> (T, Vec<u64>) {
    MARKS.with(|m| m.borrow_mut().clear());
    let start = Instant::now();
    let out = f();
    let end = Instant::now();
    let marks = MARKS.with(|m| std::mem::take(&mut *m.borrow_mut()));
    let mut last = start;
    let laps = marks
        .into_iter()
        .chain([end])
        .map(|t| {
            let lap = nanos(t - last);
            last = t;
            lap
        })
        .collect();
    (out, laps)
}

/// Runs `f`, returning its result and the elapsed nanoseconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let start = Instant::now();
    let out = f();
    (out, nanos(start.elapsed()))
}

fn nanos(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).expect("a run lasts under 584 years")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_mark_ends_a_lap() {
        let ((), laps) = lapped(|| {
            mark();
            mark();
        });
        assert_eq!(laps.len(), 3);
        let ((), laps) = lapped(|| ());
        assert_eq!(laps.len(), 1);
    }
}
