//! Output checks: named digests of deterministic outputs, the expected
//! values kept with the benchmark, and the pass/fail ledger.

/// Named deterministic outputs of one operation, compared bit for bit.
pub type Digest = Vec<(String, f64)>;

/// Expected canary outputs, one `<workload> <name> <f64 bits in hex>`
/// line each (regenerate with `--print-expected <workload>`).
const EXPECTED: &str = include_str!("../expected.txt");

/// The first output on which `actual` departs from `expected`, named,
/// or `None` when every name and every value bit agree.
#[must_use]
pub fn diverged(expected: &Digest, actual: &Digest) -> Option<String> {
    for (name, want) in expected {
        match actual.iter().find(|(n, _)| n == name) {
            None => return Some(format!("`{name}` missing (expected {want})")),
            Some((_, got)) if got.to_bits() != want.to_bits() => {
                return Some(format!("`{name}` diverged: expected {want}, got {got}"));
            }
            Some(_) => {}
        }
    }
    actual
        .iter()
        .find(|(n, _)| !expected.iter().any(|(e, _)| e == n))
        .map(|(n, v)| format!("`{n}` unexpected (got {v})"))
}

/// Parses the expected canary digest of `workload` from `text`.
///
/// # Errors
///
/// Returns a message for a malformed line or when `workload` has no
/// entries.
pub fn parse_expected(text: &str, workload: &str) -> Result<Digest, String> {
    let mut digest = Digest::new();
    for line in text.lines().map(str::trim) {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        let [w, name, bits] = fields[..] else {
            return Err(format!("malformed expected line `{line}`"));
        };
        if w == workload {
            let bits =
                u64::from_str_radix(bits, 16).map_err(|e| format!("bad bits in `{line}`: {e}"))?;
            digest.push((name.to_owned(), f64::from_bits(bits)));
        }
    }
    if digest.is_empty() {
        return Err(format!("no expected outputs for workload `{workload}`"));
    }
    Ok(digest)
}

/// The committed expected canary digest of `workload`.
///
/// # Errors
///
/// See [`parse_expected`].
pub fn expected(workload: &str) -> Result<Digest, String> {
    parse_expected(EXPECTED, workload)
}

/// Renders `digest` in the expected-file format.
#[must_use]
pub fn render_expected(workload: &str, digest: &Digest) -> String {
    digest
        .iter()
        .map(|(n, v)| format!("{workload} {n} {:016x}\n", v.to_bits()))
        .collect()
}

/// Ledger of attempted and failed operations. A failure is a replicate
/// that panicked or was excluded, an output that diverged, or a request
/// that failed.
#[derive(Debug, Default)]
pub struct Checks {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// One line per failure, naming what diverged.
    pub failures: Vec<String>,
}

impl Checks {
    /// Records one operation: passed when `problem` is `None`.
    pub fn record(&mut self, what: &str, problem: Option<String>) {
        self.attempted += 1;
        if let Some(p) = problem {
            self.failed += 1;
            self.failures.push(format!("{what}: {p}"));
        }
    }

    /// Records one operation checked against an expected digest.
    pub fn against(&mut self, what: &str, expected: &Digest, actual: &Digest) {
        self.record(what, diverged(expected, actual));
    }

    /// Whether every attempted operation passed.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }
}

/// Remembers the first digest seen for each input and checks every
/// repeat of that input against it.
#[derive(Debug, Default)]
pub struct Repeats {
    first: Vec<Option<Digest>>,
}

impl Repeats {
    /// Checks `digest` of input `index` against its first occurrence.
    pub fn check(&mut self, checks: &mut Checks, what: &str, index: usize, digest: Digest) {
        if self.first.len() <= index {
            self.first.resize(index + 1, None);
        }
        match &self.first[index] {
            Some(first) => checks.against(&format!("{what} {index} repeat"), first, &digest),
            None => {
                checks.record(&format!("{what} {index}"), None);
                self.first[index] = Some(digest);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digest(pairs: &[(&str, f64)]) -> Digest {
        pairs.iter().map(|&(n, v)| (n.to_owned(), v)).collect()
    }

    #[test]
    fn divergence_names_the_metric() {
        let a = digest(&[("on_time_ratio", 0.71), ("served", 12.0)]);
        assert_eq!(diverged(&a, &a), None);
        let b = digest(&[("on_time_ratio", 0.71), ("served", 13.0)]);
        let msg = diverged(&a, &b).expect("diverges");
        assert!(msg.contains("`served`"), "{msg}");
        let c = digest(&[("on_time_ratio", 0.71)]);
        assert!(diverged(&a, &c).expect("missing").contains("missing"));
        assert!(diverged(&c, &a).expect("extra").contains("unexpected"));
        // Bitwise, not numeric, equality: -0.0 differs from 0.0.
        assert!(diverged(&digest(&[("x", 0.0)]), &digest(&[("x", -0.0)])).is_some());
    }

    #[test]
    fn expected_file_round_trips() {
        let d = digest(&[("a", 1.0 / 3.0), ("b", -2.5)]);
        let text = format!("# comment\n{}{}", render_expected("w", &d), "other x 0\n");
        assert_eq!(parse_expected(&text, "w"), Ok(d));
        assert!(parse_expected(&text, "missing").is_err());
        assert!(parse_expected("w a", "w").is_err());
    }

    #[test]
    fn failures_are_counted_and_repeats_checked() {
        let mut checks = Checks::default();
        let mut repeats = Repeats::default();
        repeats.check(&mut checks, "op", 0, digest(&[("x", 1.0)]));
        repeats.check(&mut checks, "op", 0, digest(&[("x", 1.0)]));
        assert!(checks.correct());
        repeats.check(&mut checks, "op", 0, digest(&[("x", 2.0)]));
        assert_eq!((checks.attempted, checks.failed), (3, 1));
        assert!(checks.failures[0].contains("`x`"), "{:?}", checks.failures);
        assert!(!checks.correct());
    }
}
