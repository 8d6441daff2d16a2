//! CPU time consumed by this process: every thread it has run, including
//! threads that have already exited, as the kernel accounts it. Unlike wall
//! time it does not grow while a neighbour on a shared host holds the CPU.

use std::time::Duration;

/// `struct timespec` of a 64-bit Linux target.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` from `<time.h>`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU seconds the whole process has used so far.
///
/// # Panics
/// Panics if the kernel refuses the clock, which Linux does not do for
/// this clock id.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable value laid out as the C
    // `struct timespec` of a 64-bit Linux target, and `clock_gettime` writes
    // only that struct.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32).as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_grows_with_work_and_not_with_sleep() {
        let t0 = process_cpu_s();
        std::thread::sleep(Duration::from_millis(50));
        let slept = process_cpu_s() - t0;
        let t1 = process_cpu_s();
        let start = std::time::Instant::now();
        let mut x = 1u64;
        while start.elapsed() < Duration::from_millis(50) {
            x = std::hint::black_box(x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1));
        }
        let spun = process_cpu_s() - t1;
        assert!(spun >= 0.03, "spinning 50 ms used {spun} s");
        assert!(slept < 0.02, "sleeping 50 ms used {slept} s");
    }
}
