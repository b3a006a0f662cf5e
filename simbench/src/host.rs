//! The host side of a run: the reference kernel, peak memory, and the
//! provenance header.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The repository checkout this benchmark was built from (the parent of
/// the benchmark's own package directory).
#[must_use]
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("package sits in the repo").to_path_buf()
}

/// Formatted keys per `Simulate` kernel timing (1 to 2 ms, as the host's
/// speed drifts, on the host the benchmark was tuned on).
const REF_KEYS: usize = 5_000;

/// Bytes of text the `Scan` kernel validates per pass, and its passes
/// per timing (about 1 ms on the same host).
const SCAN_BYTES: usize = 128 * 1024;
const SCAN_PASSES: usize = 200;

/// The kernel time, in milliseconds, that scaled times are expressed
/// against: a scaled time is what the operation would have taken on a
/// host where one kernel timing takes this long.
pub const REF_NOMINAL_MS: f64 = 1.0;

/// Which kind of work an operation does, and so which half of the
/// reference kernel tracks the host's speed for it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Work {
    /// Branchy, allocating code with a large instruction footprint: the
    /// simulator, codegen, engine construction.
    Simulate,
    /// Streaming over an L2-resident buffer: the checkpoint restore,
    /// whose time is almost all `Json::parse` validating UTF-8.
    Scan,
}

/// The host reference kernel, in two halves that share no code with the
/// simulator:
///
/// - `Simulate`: formats keys, counts them in a fresh hash map and sorts
///   a vector — branchy, allocating library code like the simulator's;
/// - `Scan`: validates a 128 KiB text buffer as UTF-8, over and over —
///   the loop that dominates `Json::parse`.
///
/// Timed beside an operation of the same kind, it cancels most host drift
/// (see `README.md`); an 8 MiB random walk, tried first, did not.
#[derive(Debug)]
pub struct RefKernel {
    calls: u64,
    text: Vec<u8>,
}

impl Default for RefKernel {
    fn default() -> Self {
        RefKernel::new()
    }
}

impl RefKernel {
    /// A kernel whose timings start from call 0.
    #[must_use]
    pub fn new() -> RefKernel {
        let text = (0..SCAN_BYTES).map(|i| b"0123456789abcdef\",: \n"[i % 21]).collect();
        RefKernel { calls: 0, text }
    }

    /// Times one run of the `work` half, in milliseconds.
    pub fn time_ms(&mut self, work: Work) -> f64 {
        self.calls += 1;
        let t = Instant::now();
        match work {
            Work::Simulate => self.simulate(),
            Work::Scan => self.scan(),
        }
        t.elapsed().as_secs_f64() * 1e3
    }

    fn simulate(&self) {
        let mut x = self.calls.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut counts: HashMap<String, usize> = HashMap::new();
        let mut values = Vec::with_capacity(REF_KEYS);
        for i in 0..REF_KEYS {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
            let v = x >> 11;
            *counts.entry(format!("{v:x}-{}", v % 977)).or_default() += i;
            values.push(v ^ i as u64);
        }
        values.sort_unstable();
        std::hint::black_box((counts.len(), values[REF_KEYS / 2]));
    }

    fn scan(&self) {
        let mut valid = 0;
        for pass in 0..SCAN_PASSES {
            let start = (pass + self.calls as usize) % 64;
            valid +=
                usize::from(std::str::from_utf8(std::hint::black_box(&self.text[start..])).is_ok());
        }
        std::hint::black_box(valid);
    }
}

/// Peak resident set size of this process (`VmHWM`), in MB.
#[must_use]
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The host CPU's model name, from `/proc/cpuinfo`.
#[must_use]
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Logical CPUs available to this process.
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The source revision: the git commit when the checkout is a git
/// repository, and always a digest of the simulator's sources, which
/// identifies the code in a plain copy too.
#[must_use]
pub fn revision(root: &Path) -> String {
    let digest = format!("src-fnv64:{:016x}", source_digest(root));
    match git_head(root) {
        Some(commit) => format!("git:{commit} {digest}"),
        None => digest,
    }
}

fn git_head(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None => Some(head.to_string()),
        Some(name) => {
            if let Ok(commit) = std::fs::read_to_string(git.join(name)) {
                return Some(commit.trim().to_string());
            }
            let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
            packed.lines().find_map(|l| {
                let (commit, r) = l.split_once(' ')?;
                (r == name).then(|| commit.to_string())
            })
        }
    }
}

/// FNV-1a over the path and bytes of every file under `Cargo.toml`,
/// `src/` and `crates/` (sorted, build outputs skipped).
fn source_digest(root: &Path) -> u64 {
    let mut files = Vec::new();
    for top in ["Cargo.toml", "Cargo.lock", "src", "crates"] {
        collect_files(&root.join(top), &mut files);
    }
    files.sort();
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for path in files {
        let rel = path.strip_prefix(root).unwrap_or(&path);
        feed(rel.to_string_lossy().as_bytes());
        if let Ok(bytes) = std::fs::read(&path) {
            feed(&bytes);
        }
    }
    h
}

fn collect_files(path: &Path, out: &mut Vec<PathBuf>) {
    if path.is_file() {
        out.push(path.to_path_buf());
    } else if let Ok(dir) = std::fs::read_dir(path) {
        for entry in dir.flatten() {
            let p = entry.path();
            if p.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            collect_files(&p, out);
        }
    }
}
