//! Machine-speed calibration for CPU-bound times.
//!
//! The virtual machine the benchmark was written on changes speed by
//! tens of per cent over minutes while steal time stays near zero
//! (RESULTS.md): one `paper` input took 1.08 s a repetition in one
//! stretch and 1.56 s a few minutes later. Memory-heavy work drifts
//! with it (the time to first touch 256 MB of fresh pages moves too), so
//! the kernel below works on about as much memory as a `paper`
//! repetition. Times of work that runs on the CPU follow the machine as
//! much as the program, so before each repetition the parent runs a
//! fixed kernel that belongs to the benchmark, not to the program, in a
//! fresh process and on as many threads as the workers use. Each repetition's time is divided by its
//! speed factor: the median kernel time in the slots around it, over
//! [`REFERENCE_S`]. A change to the program moves the repetitions and
//! not the kernel, so it shows in full; a slower or faster machine
//! moves both and cancels.
//!
//! The kernel does the kinds of work the SQL layers do, on a working
//! set of about 30 MiB per thread, in fresh memory: small string and
//! vector allocations, hashing, ordered-map inserts, sorting and
//! formatting, in a fixed order.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::hash::BuildHasherDefault;
use std::time::Instant;

/// Kernel time, seconds per round, that counts as speed factor 1: about
/// what a round takes on 2 threads of a shared 2-vCPU Intel Xeon virtual
/// machine in its faster stretches. Scaled times are seconds at that
/// speed.
pub const REFERENCE_S: f64 = 0.150;

/// Kernel rounds per calibration slot.
pub const ROUNDS: usize = 1;

/// Slots on each side of a repetition that set its speed factor. The
/// machine drifts over tens of seconds, so two slots a side (about 3 s
/// of `paper`) follow it while pooling four kernel times against the
/// noise of single rounds.
pub const WINDOW: usize = 2;

/// Rows per kernel round, each thread.
const ROWS: usize = 300_000;

/// One round of the kernel: builds a table of rows, hash-joins it with
/// itself on a derived key, groups by a string prefix, sorts and prints
/// the groups. Returns a checksum so the work cannot be optimised away.
pub fn kernel(seed: u64) -> u64 {
    let mut x = seed | 1;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let rows: Vec<(i64, String)> = (0..ROWS)
        .map(|_| {
            let len = 3 + (next() % 10) as usize;
            let name: String = (0..len)
                .map(|_| char::from(b'a' + (next() % 26) as u8))
                .collect();
            ((next() % 997) as i64, name)
        })
        .collect();
    // fixed hash keys: the same work in every process
    let mut by_key: HashMap<i64, Vec<usize>, BuildHasherDefault<DefaultHasher>> =
        HashMap::default();
    for (i, (k, _)) in rows.iter().enumerate() {
        by_key.entry(*k).or_default().push(i);
    }
    let mut groups: BTreeMap<String, (u64, i64)> = BTreeMap::new();
    for (k, name) in &rows {
        let partners = by_key.get(&((k * 7 + 3) % 997)).map_or(0, Vec::len);
        let g = groups
            .entry(name[..name.len().min(2)].to_string())
            .or_default();
        g.0 += partners as u64;
        g.1 = g.1.max(*k);
    }
    let mut names: Vec<&str> = rows.iter().map(|(_, n)| n.as_str()).collect();
    names.sort_unstable();
    names.dedup();
    let mut out = String::new();
    for (prefix, (count, max)) in &groups {
        let _ = writeln!(out, "{prefix}|{count}|{max}");
    }
    out.bytes().fold(names.len() as u64, |h, b| {
        h.wrapping_mul(31).wrapping_add(u64::from(b))
    })
}

/// Wall seconds of one kernel round run on `threads` threads at once
/// (each thread runs the whole round; the slowest one counts).
pub fn round(threads: usize) -> f64 {
    let start = Instant::now();
    let sums: Vec<u64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads.max(1))
            .map(|t| s.spawn(move || kernel(0x9E37_79B9 + t as u64)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("calibration thread"))
            .collect()
    });
    let wall = start.elapsed().as_secs_f64();
    std::hint::black_box(sums);
    wall
}

/// Calibration samples of one run, in slots: one slot is taken before
/// each repetition and one after the last, so every repetition lies
/// between two slots.
#[derive(Debug, Default)]
pub struct Calibration {
    slots: Vec<Vec<f64>>,
    /// Slots that could not be taken; any makes the run incorrect.
    pub errors: Vec<String>,
}

impl Calibration {
    /// Take a slot of [`ROUNDS`] samples on `threads` threads in a fresh
    /// worker process (this binary with `--child-calib`), as the
    /// repetitions run in fresh processes: a process's memory layout
    /// shifts its speed by a few per cent, and a new process per slot
    /// averages that out. Returns the slot's index.
    pub fn sample(&mut self, threads: usize) -> usize {
        match spawn_slot(threads) {
            Ok(slot) => self.slots.push(slot),
            Err(e) => {
                self.errors.push(e);
                self.slots.push(Vec::new());
            }
        }
        self.slots.len() - 1
    }

    /// Speed factor of the repetition that ran after slot `slot`: the
    /// median kernel time of the [`WINDOW`] slots before it and as many
    /// after it, over the reference (above 1 means the machine ran
    /// slower than the reference).
    pub fn factor_after(&self, slot: usize) -> f64 {
        let from = (slot + 1).saturating_sub(WINDOW);
        let to = (slot + 1 + WINDOW).min(self.slots.len());
        let near: Vec<f64> = self.slots[from.min(to)..to].concat();
        let m = crate::stats::median(&near);
        if m > 0.0 {
            m / REFERENCE_S
        } else {
            1.0
        }
    }
}

fn spawn_slot(threads: usize) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = std::process::Command::new(exe)
        .args(["--child-calib", &threads.to_string()])
        .stdin(std::process::Stdio::null())
        .output()
        .map_err(|e| format!("spawn calibration worker: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let samples: Option<Vec<f64>> = text
        .lines()
        .find_map(|l| l.strip_prefix("calib "))
        .map(|l| {
            l.split_whitespace()
                .filter_map(|t| t.parse().ok())
                .collect()
        });
    match samples {
        Some(v) if out.status.success() && v.len() == ROUNDS => Ok(v),
        _ => Err(format!("calibration worker failed ({})", out.status)),
    }
}

/// Worker entry: `--child-calib <threads>` runs [`ROUNDS`] rounds and
/// prints `calib <seconds>...`.
pub fn child_main(args: &[String]) {
    let threads = args.first().and_then(|t| t.parse().ok()).unwrap_or(1);
    let samples: Vec<String> = (0..ROUNDS).map(|_| round(threads).to_string()).collect();
    println!("calib {}", samples.join(" "));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic() {
        assert_eq!(kernel(5), kernel(5));
        assert_ne!(kernel(5), kernel(6));
    }

    #[test]
    fn a_repetition_is_scaled_by_the_slots_around_it() {
        let r = REFERENCE_S;
        let slot = |x: f64| vec![x * r; ROUNDS];
        let c = Calibration {
            slots: vec![
                slot(1.0),
                slot(2.0),
                slot(2.0),
                slot(4.0),
                slot(4.0),
                slot(9.0),
            ],
            errors: Vec::new(),
        };
        // after slot 0: slots 0 to 2 (one before): 1, 2, 2 -> 2
        assert!((c.factor_after(0) - 2.0).abs() < 1e-12);
        // after slot 2: slots 1 to 4: 2, 2, 4, 4 -> 2
        assert!((c.factor_after(2) - 2.0).abs() < 1e-12);
        // after slot 3: slots 2 to 5: 2, 4, 4, 9 -> 4
        assert!((c.factor_after(3) - 4.0).abs() < 1e-12);
        // after the last slot: slots 4 and 5
        assert!((c.factor_after(5) - 4.0).abs() < 1e-12);
        assert_eq!(Calibration::default().factor_after(0), 1.0);
    }
}
