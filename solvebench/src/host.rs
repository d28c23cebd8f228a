//! Host fingerprint printed with every result: core count, an in-process
//! STREAM-style triad, a raw 2-thread/1-thread compute probe (the
//! measured parallel ceiling a thread gain is read against), the source
//! revision, and the process's peak resident memory.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Hardware threads the process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Elements per triad array: three 32 MiB arrays. They spill a per-core
/// L2 of a few MiB, but not a last-level cache of hundreds of MiB, which
/// some shared hosts report; there the triad measures LLC bandwidth.
const TRIAD_LEN: usize = 4 << 20;

/// Best-of-five `a = b + s·c` bandwidth over `threads` workers in GB/s,
/// counting 24 bytes per element as STREAM does.
pub fn triad_gbs(threads: usize) -> f64 {
    let mut a = vec![0.0f64; TRIAD_LEN];
    let b = vec![1.0f64; TRIAD_LEN];
    let c = vec![2.0f64; TRIAD_LEN];
    let chunk = TRIAD_LEN.div_ceil(threads.max(1));
    let mut best = f64::INFINITY;
    for rep in 0..5 {
        let s = black_box(3.0 + rep as f64);
        let t0 = Instant::now();
        std::thread::scope(|scope| {
            for ((a, b), c) in a
                .chunks_mut(chunk)
                .zip(b.chunks(chunk))
                .zip(c.chunks(chunk))
            {
                scope.spawn(move || {
                    for ((x, y), z) in a.iter_mut().zip(b).zip(c) {
                        *x = y + s * z;
                    }
                });
            }
        });
        best = best.min(t0.elapsed().as_secs_f64());
        black_box(&a);
    }
    (24 * TRIAD_LEN) as f64 / best / 1e9
}

/// A dependent floating-point chain no compiler can shorten.
fn spin(iters: u64) -> f64 {
    let mut x = black_box(1.0f64);
    for _ in 0..iters {
        x = x * 0.999_999_9 + 1e-7;
    }
    black_box(x)
}

/// Raw compute ceiling of two threads over one: the same chain run once
/// alone and then on two threads at once (twice the work), best of
/// three. 2.0 means two independent cores; ≈1.0 means the second vCPU
/// buys nothing.
pub fn par_ceiling() -> f64 {
    const ITERS: u64 = 20_000_000;
    let mut one = f64::INFINITY;
    let mut two = f64::INFINITY;
    for _ in 0..3 {
        let t0 = Instant::now();
        spin(ITERS);
        one = one.min(t0.elapsed().as_secs_f64());
        let t0 = Instant::now();
        std::thread::scope(|scope| {
            let h = scope.spawn(|| spin(ITERS));
            spin(ITERS);
            h.join().expect("probe thread does not panic");
        });
        two = two.min(t0.elapsed().as_secs_f64());
    }
    2.0 * one / two
}

/// Peak resident set of this process so far (`VmHWM`) in MiB, 0 when
/// the platform has no `/proc/self/status`.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Source revision: the git commit when the checkout has a `.git`
/// directory, and always an FNV-1a hash of the sources the benchmark
/// builds (`src/`, `crates/*/src`, the manifests), so results from a
/// checkout without git history still identify the code measured.
pub fn source_rev(root: &Path) -> String {
    let mut files = Vec::new();
    for top in ["src", "crates", "Cargo.toml", "Cargo.lock"] {
        collect(&root.join(top), &mut files);
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        let bytes = std::fs::read(f).unwrap_or_default();
        let name = f
            .strip_prefix(root)
            .unwrap_or(f)
            .to_string_lossy()
            .into_owned();
        for byte in name.bytes().chain(bytes) {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    match git_head(root) {
        Some(sha) => format!("git:{sha} src-fnv64:{h:016x}"),
        None => format!("src-fnv64:{h:016x}"),
    }
}

fn collect(path: &Path, out: &mut Vec<std::path::PathBuf>) {
    if path.is_file() {
        out.push(path.to_path_buf());
    } else if let Ok(entries) = std::fs::read_dir(path) {
        for e in entries.flatten() {
            let p = e.path();
            if p.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            collect(&p, out);
        }
    }
}

fn git_head(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_owned());
    };
    if let Ok(sha) = std::fs::read_to_string(git.join(reference)) {
        return Some(sha.trim().to_owned());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|sha| sha.trim().to_owned()))
}
