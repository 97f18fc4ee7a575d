//! Shared helpers: seeded RNG, digests, order statistics, and a process
//! runner that reports wall time and peak RSS.

use std::io::Read;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

/// SplitMix64: the seed of every generated input.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5EED_BA5E_0000_0001)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i + 1);
            v.swap(i, j);
        }
    }
}

/// 64-bit FNV-1a, the harness's own digest (independent of the
/// program's hashing code).
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Digest of report text with `#` footer lines removed.
pub fn report_digest(stdout: &str) -> u64 {
    let body: String = stdout
        .lines()
        .filter(|l| !l.starts_with('#'))
        .map(|l| format!("{l}\n"))
        .collect();
    fnv64(body.as_bytes())
}

/// Linear-interpolated quantile (`q` in 0..=1) of unsorted samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// One finished child process.
pub struct Finished {
    pub wall_s: f64,
    pub code: i32,
    /// Peak resident set (the kernel's `VmHWM`), MB.
    pub peak_rss_mb: f64,
    pub stdout: String,
    pub stderr: String,
}

#[repr(C)]
struct Rusage {
    // ru_utime, ru_stime (two timevals), then 14 longs starting with
    // ru_maxrss
    fields: [i64; 18],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// Runs `cmd` to completion, timing it from spawn to exit. The peak RSS
/// comes from `wait4`'s `ru_maxrss`, which is the child's `VmHWM`.
pub fn run_timed(cmd: &mut Command) -> std::io::Result<Finished> {
    cmd.stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    let start = Instant::now();
    let mut child = cmd.spawn()?;
    let mut err_pipe = child.stderr.take().expect("piped stderr");
    let err_reader = std::thread::spawn(move || {
        let mut s = String::new();
        let _ = err_pipe.read_to_string(&mut s);
        s
    });
    let mut stdout = String::new();
    child
        .stdout
        .take()
        .expect("piped stdout")
        .read_to_string(&mut stdout)?;
    let mut status = 0i32;
    let mut usage = Rusage { fields: [0; 18] };
    // SAFETY: `child` is our unreaped child; `status` and `usage` are
    // valid, correctly sized out-parameters for the duration of the call.
    let rc = unsafe { wait4(child.id() as i32, &mut status, 0, &mut usage) };
    let wall_s = start.elapsed().as_secs_f64();
    if rc < 0 {
        return Err(std::io::Error::last_os_error());
    }
    let stderr = err_reader.join().unwrap_or_default();
    let code = if status & 0x7f == 0 {
        (status >> 8) & 0xff
    } else {
        128 + (status & 0x7f)
    };
    Ok(Finished {
        wall_s,
        code,
        peak_rss_mb: usage.fields[4] as f64 / 1024.0,
        stdout,
        stderr,
    })
}

/// `VmHWM` of a live process, MB.
pub fn vm_hwm_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Empties (or creates) a directory.
pub fn fresh_dir(path: &Path) -> std::io::Result<()> {
    if path.exists() {
        std::fs::remove_dir_all(path)?;
    }
    std::fs::create_dir_all(path)
}

/// Parses one `key value` line of the pinned expectations file.
pub fn expected(key: &str) -> Option<String> {
    EXPECTED
        .lines()
        .filter(|l| !l.starts_with('#'))
        .find_map(|l| {
            let mut it = l.split_whitespace();
            (it.next() == Some(key)).then(|| it.next().map(str::to_owned))?
        })
}

const EXPECTED: &str = include_str!("../expected.txt");
