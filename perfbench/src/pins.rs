//! Output digests pinned at a known-good commit.
//!
//! `perfbench/pins.txt` holds one `<key> <seed> <digest>` line per pinned
//! output: the digest of a repetition's output (`paper`, `fuzz`,
//! `synth`) for that sub-seed, or of one pass of the request script
//! (`serve`) for that script seed. The fixed panel of sub-seeds and the
//! default and held-out seeds are pinned; other seeds are checked for
//! determinism within the run instead.
//!
//! Regenerate (after a change that is meant to alter outputs) with
//! `cargo run --release --manifest-path perfbench/Cargo.toml -- --pin 2023 4242 > perfbench/pins.txt`.

use crate::fixed;
use crate::Workload;

/// Seeds whose outputs must be pinned: the paper's default seed and a
/// held-out one.
pub const REQUIRED: [u64; 2] = [squ::PAPER_SEED, 4242];

pub struct Pins(Vec<(String, u64, String)>);

impl Pins {
    pub fn load() -> Pins {
        Pins::parse(include_str!("../pins.txt"))
    }

    fn parse(text: &str) -> Pins {
        Pins(
            text.lines()
                .map(str::trim)
                .filter(|l| !l.is_empty() && !l.starts_with('#'))
                .filter_map(|l| {
                    let mut f = l.split_whitespace();
                    let key = f.next()?.to_string();
                    let seed = f.next()?.parse().ok()?;
                    Some((key, seed, f.next()?.to_string()))
                })
                .collect(),
        )
    }

    pub fn get(&self, key: &str, seed: u64) -> Option<&str> {
        self.0
            .iter()
            .find(|(k, s, _)| k == key && *s == seed)
            .map(|(_, _, d)| d.as_str())
    }

    pub fn has(&self, key: &str, seed: u64) -> bool {
        self.get(key, seed).is_some()
    }

    pub fn required(&self, seed: u64) -> bool {
        REQUIRED.contains(&seed)
    }
}

/// `--pin <seed>...`: print the pin lines for the fixed panel and, for
/// each given seed, its own repetition and request script.
pub fn pin_main(args: &[String]) {
    let jobs = crate::nproc();
    let mut seeds = Vec::new();
    for arg in args {
        match arg.parse::<u64>() {
            Ok(s) => seeds.push(s),
            Err(_) => {
                eprintln!("error: not a seed: {arg:?}");
                std::process::exit(2);
            }
        }
    }
    println!("# <key> <seed> <digest>: outputs pinned at a known-good commit (see src/pins.rs)");
    for w in [Workload::Paper, Workload::Fuzz, Workload::Synth] {
        let (k, _) = fixed::plan(w);
        let mut subs: Vec<u64> = (1..k).map(|i| fixed::sub_seed(0, i)).collect();
        subs.extend(&seeds);
        for seed in subs {
            let r = fixed::rep(w, seed, jobs, None);
            if !r.ok {
                // the digest still pins the report; the run's own checks
                // keep failing the repetition
                eprintln!(
                    "warning: {} seed {seed} fails the program's own checks",
                    w.name()
                );
            }
            println!("{} {seed} {}", w.name(), r.digest);
        }
    }
    for seed in seeds {
        match crate::serve::pin_digest(seed, jobs) {
            Ok(d) => println!("serve {seed} {d}"),
            Err(e) => {
                eprintln!("error: serve pass for {seed} failed: {e}");
                std::process::exit(1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pin_lines_parse() {
        let p = Pins::parse("# comment\n\npaper 7 abc\nserve 7 def\nbad line\n");
        assert_eq!(p.get("paper", 7), Some("abc"));
        assert_eq!(p.get("serve", 7), Some("def"));
        assert_eq!(p.get("serve", 8), None);
    }

    #[test]
    fn required_seeds_are_pinned_for_every_workload() {
        let p = Pins::load();
        for w in [Workload::Paper, Workload::Fuzz, Workload::Synth] {
            for i in 1..fixed::plan(w).0 {
                let seed = fixed::sub_seed(0, i);
                assert!(p.has(w.name(), seed), "{} panel seed {seed}", w.name());
            }
            for seed in REQUIRED {
                assert!(p.has(w.name(), seed), "{} {seed}", w.name());
            }
        }
        for seed in REQUIRED {
            assert!(p.has("serve", seed), "serve {seed}");
        }
    }
}
