//! Host diagnostics: a fixed reference kernel and the process's peak RSS.

use crate::stats::{median, SplitMix};
use std::hint::black_box;
use std::time::Instant;

/// Entries in the reference kernel's cycle: 256 KiB of `u32`, past the L1
/// cache but inside one core's L2. On a 2-vCPU Xeon VM (2 MiB L2 per
/// core), request times drifted by up to 1.8× in streaks while a pure ALU
/// loop stayed flat; a dependent walk at this working-set size is the
/// simple kernel that moved with them (per-sweep correlation 0.7 on
/// `contain_grid`).
const REF_ENTRIES: usize = 1 << 16;
/// Dependent reads per sample (about 1.5 ms).
const REF_STEPS: usize = 1 << 18;

/// A fixed, deterministic kernel: a dependent walk around one random
/// cycle through a table. The work never changes, so a shift in its time
/// is the host's, not the program's.
pub struct Reference {
    cycle: Vec<u32>,
}

impl Reference {
    pub fn new() -> Reference {
        Reference {
            cycle: sattolo_cycle(REF_ENTRIES, 0x5EED),
        }
    }

    /// Milliseconds for one walk of [`REF_STEPS`] steps, after one
    /// untimed lap that brings the table back into cache.
    pub fn sample_ms(&self) -> f64 {
        black_box(walk(black_box(&self.cycle), REF_ENTRIES));
        let t0 = Instant::now();
        black_box(walk(black_box(&self.cycle), REF_STEPS));
        t0.elapsed().as_secs_f64() * 1e3
    }

    /// The median of three samples.
    pub fn ms(&self) -> f64 {
        median(&[self.sample_ms(), self.sample_ms(), self.sample_ms()])
    }
}

/// A permutation of `0..n` that is one cycle of length `n` (Sattolo's
/// algorithm), so a walk visits every entry before it repeats.
fn sattolo_cycle(n: usize, seed: u64) -> Vec<u32> {
    let mut next: Vec<u32> = (0..n as u32).collect();
    let mut rng = SplitMix(seed);
    for i in (1..n).rev() {
        next.swap(i, rng.below(i));
    }
    next
}

fn walk(next: &[u32], steps: usize) -> u32 {
    let mut at = 0u32;
    for _ in 0..steps {
        at = next[at as usize];
    }
    at
}

/// Resets the peak resident set size to the current one (Linux ≥ 4.0), so
/// set-up work before the workload does not count toward its peak.
/// Returns whether the kernel accepted the reset.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_visits_every_entry_once() {
        let next = sattolo_cycle(1000, 3);
        let mut seen = vec![false; next.len()];
        let mut at = 0u32;
        for _ in 0..next.len() {
            assert!(!seen[at as usize], "entry {at} revisited early");
            seen[at as usize] = true;
            at = next[at as usize];
        }
        assert_eq!(at, 0);
        assert_eq!(next, sattolo_cycle(1000, 3));
    }
}
