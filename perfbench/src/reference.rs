//! A fixed reference job that measures how fast the shared host runs at
//! the moment, so that every workload can report `op_p50_ms` and
//! `ops_per_s` net of the host's speed swings. It uses only the standard
//! library and none of the program's code, so no change to the program
//! moves it.
//!
//! On the 2-vCPU VMs this benchmark was built on, the same `fdrepair
//! repair` invocation took 1.7 s in one minute and 2.3 s a few minutes
//! later, with user + system time equal to wall time: the host, not the
//! program, changed speed. This job does what the program does most
//! (fills fresh memory, reads it at random, sorts, formats into a growing
//! string), so it slows down with it.

use crate::proc::run_cli;
use std::fmt::Write;
use std::path::Path;

/// What the job takes, in seconds, on the host that scaled times refer
/// to: about what it took on a quiet 2-vCPU VM.
pub const NOMINAL_S: f64 = 1.0;

/// Times the job once in a fresh process of this binary (`perfbench
/// --reference`), from spawn to exit, in seconds.
pub fn time_once(work: &Path) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let run = run_cli(&exe, &["--reference"], &work.join("reference.out"))
        .map_err(|e| format!("the reference job: {e}"))?;
    if !run.status.success() {
        return Err(format!("the reference job exited with {}", run.status));
    }
    Ok(run.wall.as_secs_f64())
}

/// `u64`s filled into fresh memory (320 MB).
const WORDS: usize = 40_000_000;
/// Dependent random reads over them.
const READS: usize = 4_000_000;
/// Length of the prefix that is sorted.
const SORTED: usize = 4_000_000;
/// Records formatted into one string.
const RECORDS: usize = 2_000_000;

/// Runs the job once and returns a checksum of its results, so that the
/// compiler keeps all of it.
pub fn run() -> u64 {
    let mut words = Vec::with_capacity(WORDS);
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for _ in 0..WORDS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        words.push(x);
    }
    let mut acc = 0u64;
    let mut i = 0usize;
    for _ in 0..READS {
        i = (words[i] ^ acc) as usize % WORDS;
        acc = acc.wrapping_add(words[i]);
    }
    words[..SORTED].sort_unstable();
    let mut text = String::new();
    for (k, w) in words.iter().take(RECORDS).enumerate() {
        write!(text, "{{\"id\":{k},\"v\":{}}},", w % 1000).expect("writing to a String");
    }
    acc ^ words[SORTED / 2] ^ text.len() as u64
}
