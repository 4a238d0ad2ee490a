//! Host fingerprint and resource limits.

use simkernel::obs::{self, Json};

/// `std::thread::available_parallelism`, at least 1.
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Refuses a worker or client-thread count above the host's
/// parallelism: a thread count the host cannot run at once measures the
/// OS scheduler, not the program.
///
/// # Errors
///
/// Returns a message naming `what` when `n` is 0 or exceeds [`nproc`].
pub fn check_threads(n: usize, what: &str) -> Result<usize, String> {
    let cores = nproc();
    if n == 0 || n > cores {
        return Err(format!(
            "refusing {n} {what}: available_parallelism is {cores}"
        ));
    }
    Ok(n)
}

/// Peak resident set size of this process in MiB.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    obs::read_peak_rss().map_or(0.0, |b| b as f64 / (1024.0 * 1024.0))
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The commit of the checkout in the working directory, read from
/// `.git` without running git (so nothing outside the checkout is
/// consulted); `unknown` when the checkout is not a git repository.
fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok().map(|s| s.trim().to_owned());
    match read(".git/HEAD") {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(r) => read(&format!(".git/{r}")).unwrap_or_else(|| "unknown".to_owned()),
            None => head,
        },
        None => "unknown".to_owned(),
    }
}

/// The fingerprint recorded with every result.
#[must_use]
pub fn fingerprint() -> Json {
    Json::obj([
        ("available_parallelism", Json::from(nproc() as u64)),
        ("cpu_model", Json::str(cpu_model())),
        ("rustc", Json::str(env!("BENCH_RUSTC_VERSION"))),
        ("profile", Json::str(env!("BENCH_PROFILE"))),
        ("git_commit", Json::str(git_commit())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_counts_above_the_host_are_refused() {
        assert_eq!(check_threads(nproc(), "workers"), Ok(nproc()));
        assert!(check_threads(nproc() + 1, "workers").is_err());
        assert!(check_threads(0, "client threads").is_err());
    }
}
