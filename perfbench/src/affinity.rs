//! Confining the run to one CPU.
//!
//! On a small VM most of a served request's latency is hand-offs between
//! threads (client, reactor, service worker, writer). When those threads
//! run on different CPUs, each hand-off wakes a halted virtual CPU, and
//! what that costs depends on how busy the host is: with the second CPU
//! kept busy by another process, the unconfined `serve_feedback` doubled
//! its throughput and lost a third of its label rate. On one CPU every
//! hand-off is a same-CPU context switch, and the figures follow the
//! program's own work.

/// Bytes of the C library's `cpu_set_t` (1024 CPUs).
const SET_BYTES: usize = 128;

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u8) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u8) -> i32;
}

/// The lowest-numbered CPU set in `mask`.
fn first_cpu(mask: &[u8]) -> Option<usize> {
    (0..mask.len() * 8).find(|&c| mask[c / 8] & (1 << (c % 8)) != 0)
}

/// Confine the calling thread, and every thread it starts afterwards, to
/// the lowest-numbered CPU it may run on. Returns that CPU, or the error
/// that prevented it (the run then goes on unconfined). Call it before
/// any other thread starts.
pub fn pin_to_one_cpu() -> Result<usize, std::io::Error> {
    let mut mask = [0u8; SET_BYTES];
    // SAFETY: `mask` is `SET_BYTES` long, the size passed; pid 0 is the
    // calling thread.
    if unsafe { sched_getaffinity(0, SET_BYTES, mask.as_mut_ptr()) } != 0 {
        return Err(std::io::Error::last_os_error());
    }
    let cpu = first_cpu(&mask).ok_or_else(|| std::io::Error::other("empty CPU mask"))?;
    let mut one = [0u8; SET_BYTES];
    one[cpu / 8] = 1 << (cpu % 8);
    // SAFETY: as above; the kernel only reads `one`.
    if unsafe { sched_setaffinity(0, SET_BYTES, one.as_ptr()) } != 0 {
        return Err(std::io::Error::last_os_error());
    }
    Ok(cpu)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_cpu_finds_the_lowest_bit() {
        assert_eq!(first_cpu(&[0, 0]), None);
        assert_eq!(first_cpu(&[0b0000_0110, 0]), Some(1));
        assert_eq!(first_cpu(&[0, 0b1000_0000]), Some(15));
    }
}
