//! The benchmark's reference kernel: a fixed mix of the work `cqual`
//! spends its time on (allocation, sorting, hashing, pointer chasing)
//! in which no code of the repository takes part.
//!
//! ```text
//! calib        # prints a checksum
//! ```
//!
//! `run.py` times it as a process beside the timed runs and scales the
//! CPU-bound times of a run by its median: on a shared host the speed
//! the program gets drifts over tens of seconds, and the kernel drifts
//! with it while its own code never changes.

use std::collections::HashMap;

const N: usize = 1_000_000;

fn main() {
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut v: Vec<u64> = (0..N)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        })
        .collect();
    v.sort_unstable();

    let mut map: HashMap<u64, u64> = HashMap::new();
    for (i, k) in v.iter().enumerate().step_by(4) {
        map.insert(k >> 20, i as u64);
    }
    let mut sum = 0u64;
    for k in v.iter().step_by(3) {
        sum = sum.wrapping_add(*map.get(&(k >> 20)).unwrap_or(&1));
    }

    let boxed: Vec<Box<(u64, u64)>> = v.iter().step_by(2).map(|&k| Box::new((k, sum))).collect();
    sum ^= boxed.iter().fold(0, |acc, b| acc ^ b.0 ^ b.1);
    println!("{sum:016x}");
}
