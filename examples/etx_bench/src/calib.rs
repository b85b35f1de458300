//! The host-speed index: how fast this machine is right now, against a
//! fixed reference.
//!
//! The container class this benchmark runs on is a shared 2-vCPU microVM
//! whose effective speed drifts by 2x over minutes (a neighbour on the
//! same core or cache), invisibly to the guest: no steal time is reported.
//! A deterministic sim workload — the same instruction stream for a seed —
//! was measured at 6 300 commit/s and, minutes later, at 2 700. No
//! statistic over the legs of one run can remove a drift slower than the
//! run. So every leg brackets its timed window with four fixed,
//! benchmark-owned loops over `std` collections and reports its wall-clock
//! metrics in **reference seconds** = measured seconds x `host_speed`.
//!
//! The loops stress what the stack stresses — small-map and formatting
//! work, allocation and pointer chasing, ordered scans, cache-missing
//! access — and `host_speed` is the geometric mean of their rates over
//! fixed nominal rates (a quiet machine of this class reads 1.0). None of
//! them calls into the repository, so a change to the code under test
//! cannot move the yardstick.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::{BufRead, BufReader, Write};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// How long each loop measures.
const LOOP: Duration = Duration::from_millis(20);

/// Operations per second of each loop on a quiet machine of the reference
/// class; they only set the scale of `host_speed`.
const NOMINAL: [f64; 4] = [3.0e6, 6.4e7, 4.5e6, 3.4e8];

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// Runs `batch` (returning the operations it did) for [`LOOP`]; ops/s.
fn rate(mut batch: impl FnMut() -> u64) -> f64 {
    let started = Instant::now();
    let mut ops = 0;
    while started.elapsed() < LOOP {
        ops += batch();
    }
    ops as f64 / started.elapsed().as_secs_f64()
}

/// The data the four loops run over, built once per helper process.
struct Loops {
    x: u64,
    small: BTreeMap<String, u64>,
    big: Vec<u64>,
    boxed: BTreeMap<u64, Vec<u8>>,
    wide: BTreeMap<(u64, u32), [u64; 8]>,
}

impl Loops {
    fn new() -> Self {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let wide = (0..50_000u32).map(|i| ((xorshift(&mut x), i), [u64::from(i); 8])).collect();
        let boxed = (0..200_000u64).map(|k| (k, vec![0u8; 48])).collect();
        Loops { x, small: BTreeMap::new(), big: (0..8u64 << 20).collect(), boxed, wide }
    }

    /// The four loop rates, operations per second.
    fn rates(&mut self) -> [f64; 4] {
        let Loops { x, small, big, boxed, wide } = self;
        // Small string-keyed map, formatting: compute and allocator, cache-resident.
        let strings = rate(|| {
            for _ in 0..512 {
                let v = xorshift(x);
                small.insert(format!("acct{}", v % 4096), v);
                black_box(small.get(&format!("acct{}", (v >> 20) % 4096)));
            }
            512
        });
        // Read-modify-write at random over 64 MB: cache-missing access.
        let n = big.len() as u64;
        let random = rate(|| {
            for _ in 0..2048 {
                let v = xorshift(x);
                let i = (v % n) as usize;
                big[i] = big[i].wrapping_add(v);
            }
            2048
        });
        // Replacing boxed values in a 200 000-key map: allocation, pointer chasing.
        let inserts = rate(|| {
            for _ in 0..512 {
                boxed.insert(xorshift(x) % 200_000, vec![0u8; 48]);
            }
            512
        });
        // Whole-map scans collecting keys: what every periodic timer of the
        // stack does to its ever-growing history.
        let scans = rate(|| {
            let keys: Vec<(u64, u32)> = wide.keys().copied().collect();
            black_box(keys.len()) as u64
        });
        [strings, random, inserts, scans]
    }
}

/// `host_speed` from the loop rates taken before and after a window.
pub fn host_speed(before: [f64; 4], after: [f64; 4]) -> f64 {
    let log_sum: f64 =
        (0..4).map(|i| ((before[i] + after[i]) / 2.0 / NOMINAL[i]).ln()).sum::<f64>();
    (log_sum / 4.0).exp()
}

/// The helper's side: build the data, then measure once per line read from
/// standard input, until it closes.
pub fn serve() {
    let mut loops = Loops::new();
    let mut out = std::io::stdout();
    // A failed write means the requester is gone (killed by the
    // watchdog): nothing is left to serve.
    let mut alive = writeln!(out, "ready").is_ok();
    let mut line = String::new();
    while alive && std::io::stdin().read_line(&mut line).is_ok_and(|n| n > 0) {
        let r = loops.rates();
        alive = writeln!(out, "{} {} {} {}", r[0], r[1], r[2], r[3]).is_ok();
        line.clear();
    }
}

/// A helper process of this executable that runs the loops on request. A
/// process of its own, so that the loops' 64 MB never counts towards the
/// caller's resident set; started ahead of time, so that building the data
/// is not part of any measurement. It blocks on its standard input between
/// requests and exits when that closes.
pub struct Helper {
    child: Child,
    replies: BufReader<ChildStdout>,
}

impl Helper {
    pub fn spawn() -> Helper {
        let exe = std::env::current_exe().expect("path of this executable");
        let mut child = Command::new(exe)
            .arg("child-calib")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn the calibration helper");
        let mut replies = BufReader::new(child.stdout.take().expect("piped"));
        let mut ready = String::new();
        let _ = replies.read_line(&mut ready);
        Helper { child, replies }
    }

    /// The four loop rates, now (NaN if the helper died).
    pub fn rates(&mut self) -> [f64; 4] {
        let mut rates = [f64::NAN; 4];
        let mut line = String::new();
        let asked = self.child.stdin.as_mut().is_some_and(|pipe| pipe.write_all(b"\n").is_ok());
        if asked && self.replies.read_line(&mut line).is_ok() {
            for (slot, field) in rates.iter_mut().zip(line.split_whitespace()) {
                *slot = field.parse().unwrap_or(f64::NAN);
            }
        }
        rates
    }
}

impl Drop for Helper {
    fn drop(&mut self) {
        drop(self.child.stdin.take());
        let _ = self.child.wait();
    }
}
