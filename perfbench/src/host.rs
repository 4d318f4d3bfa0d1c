//! Host fingerprint and process memory, recorded with every result.

use std::path::Path;

/// Where and how a result was measured.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    /// Threads the host offers (`available_parallelism`).
    pub nproc: usize,
    /// CPU model from `/proc/cpuinfo`.
    pub cpu: String,
    /// `release` or `debug`.
    pub profile: &'static str,
    /// Commit of the checkout, or `unknown` outside a git checkout.
    pub commit: String,
}

impl Fingerprint {
    /// Fingerprints this process's host, reading the commit from the
    /// `.git` directory under `root`.
    pub fn collect(root: &Path) -> Fingerprint {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|t| {
                t.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        Fingerprint {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu,
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            commit: git_commit(root).unwrap_or_else(|| "unknown".into()),
        }
    }
}

/// Resolves `HEAD` by reading `.git` directly (no `git` process).
fn git_commit(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|l| {
        let (id, name) = l.split_once(' ')?;
        (name == reference).then(|| id.to_string())
    })
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_reads_this_host() {
        let f = Fingerprint::collect(Path::new(env!("CARGO_MANIFEST_DIR")));
        assert!(f.nproc >= 1);
        assert_eq!(f.commit, "unknown");
        assert!(!f.cpu.is_empty());
        assert!(peak_rss_mb() > 0.0);
    }
}
