//! Structured observability: run-trace export and phase profiling.
//!
//! Everything in this module obeys one contract, stated once and
//! relied on everywhere: **observation never feeds simulation
//! state**. Spans read the clock, records copy already-computed
//! values, and the trace writer runs after a replicate has finished —
//! so a run with `SAS_OBS=1` is bit-identical (in every
//! parity-relevant output: metrics, comms stats, explanation
//! sequences) to the same run with observability off, at any
//! `SAS_THREADS` value. The parity suites assert exactly that.
//!
//! Three layers:
//!
//! * **Toggle** — [`enabled`] reads the `SAS_OBS` environment variable
//!   once per process (overridable in-process via [`set_override`] for
//!   tests and tooling). The off path costs one atomic load plus one
//!   cached-bool read per call site.
//! * **Per-replicate sink** — the replication runner installs a
//!   thread-local [`ReplicateObs`] around each replicate attempt
//!   (see [`with_sink`]); simulator code drops [`span`] guards around
//!   its sense/decide/act/comms phases and [`emit`]s one structured
//!   record per replicate. With no sink installed (or obs off) both
//!   are no-ops.
//! * **Artifacts** — [`TraceWriter`] emits JSONL files under
//!   `target/obs/<experiment>/` (root overridable via `SAS_OBS_DIR`),
//!   one self-describing [`Json`] object per line. The hand-rolled
//!   [`Json`] value type exists because the workspace's vendored
//!   `serde` is a contract-only stand-in with no encoder.

use crate::stats::OnlineStats;
use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Environment variable enabling observability (`1`/`true` → on).
pub const OBS_ENV: &str = "SAS_OBS";

/// Environment variable overriding the artifact root directory
/// (default `target/obs`).
pub const OBS_DIR_ENV: &str = "SAS_OBS_DIR";

// ---------------------------------------------------------------------------
// Toggle
// ---------------------------------------------------------------------------

/// In-process override: 0 = unset (fall through to env), 1 = forced
/// off, 2 = forced on. Tests toggle this instead of mutating the
/// process environment (which is racy under the parallel test
/// harness).
static OVERRIDE: AtomicU8 = AtomicU8::new(0);

fn env_enabled() -> bool {
    static CACHE: OnceLock<bool> = OnceLock::new();
    *CACHE.get_or_init(|| {
        std::env::var(OBS_ENV)
            .map(|v| matches!(v.trim(), "1" | "true" | "TRUE" | "on"))
            .unwrap_or(false)
    })
}

/// Whether observability is on for this process.
///
/// Resolution order: [`set_override`] (if set) → `SAS_OBS`
/// environment variable (read once, cached). The off path is a
/// relaxed atomic load plus a cached boolean — cheap enough to call
/// per span site per tick.
#[must_use]
pub fn enabled() -> bool {
    match OVERRIDE.load(Ordering::Relaxed) {
        1 => false,
        2 => true,
        _ => env_enabled(),
    }
}

/// Forces observability on/off for this process (`None` restores the
/// environment-variable behaviour). Used by parity tests and
/// tooling; simulation results must not depend on it — that is the
/// whole point.
pub fn set_override(on: Option<bool>) {
    OVERRIDE.store(
        match on {
            None => 0,
            Some(false) => 1,
            Some(true) => 2,
        },
        Ordering::Relaxed,
    );
}

/// Serialises this crate's tests that flip the process-global
/// override: they share one test binary, and one test restoring the
/// override must not switch observability under another.
#[cfg(test)]
pub(crate) fn override_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

// ---------------------------------------------------------------------------
// JSON values (hand-rolled: the vendored serde has no encoder)
// ---------------------------------------------------------------------------

/// A JSON value, with a serializer ([`Json::render`]) and a strict
/// parser ([`parse`]) used by the artifact validator.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number. Non-finite values render as `null` (JSON has no
    /// NaN/Inf).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. Key order is preserved as built (builders in this
    /// workspace emit deterministic orders).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from `(key, value)` pairs.
    #[must_use]
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Self {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Builds a string value.
    #[must_use]
    pub fn str(s: impl Into<String>) -> Self {
        Json::Str(s.into())
    }

    /// Looks up `key` in an object (None for non-objects / missing).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    #[must_use]
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The array payload, if this is an array.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serializes to a compact single-line JSON string.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                if n.is_finite() {
                    // `{}` on f64 is the shortest representation that
                    // round-trips, and prints integers without ".0" —
                    // both valid JSON.
                    let _ = write!(out, "{n}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => render_str(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    render_str(k, out);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

impl From<f64> for Json {
    fn from(n: f64) -> Self {
        Json::Num(n)
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Self {
        // f64 is exact up to 2^53; every counter in this workspace is
        // far below that over any simulated horizon.
        Json::Num(n as f64)
    }
}

impl From<u32> for Json {
    fn from(n: u32) -> Self {
        Json::Num(f64::from(n))
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Self {
        Json::Bool(b)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Self {
        Json::Str(s.to_owned())
    }
}

fn render_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parses a JSON document (strict; no trailing garbage). Used by the
/// artifact validator and the round-trip tests — not a general-purpose
/// parser, but it accepts everything [`Json::render`] emits plus
/// standard whitespace and escapes.
///
/// # Errors
///
/// Returns a human-readable message with a byte offset on malformed
/// input.
pub fn parse(input: &str) -> Result<Json, String> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    skip_ws(bytes, &mut pos);
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing input at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("expected `{lit}` at byte {pos}", pos = *pos))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_owned()),
        Some(b'n') => expect(bytes, pos, "null").map(|()| Json::Null),
        Some(b't') => expect(bytes, pos, "true").map(|()| Json::Bool(true)),
        Some(b'f') => expect(bytes, pos, "false").map(|()| Json::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                skip_ws(bytes, pos);
                items.push(parse_value(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected `,` or `]` at byte {pos}", pos = *pos)),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut pairs = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(pairs));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, ":")?;
                skip_ws(bytes, pos);
                let value = parse_value(bytes, pos)?;
                pairs.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(pairs));
                    }
                    _ => return Err(format!("expected `,` or `}}` at byte {pos}", pos = *pos)),
                }
            }
        }
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {pos}", pos = *pos));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_owned()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or_else(|| "truncated \\u escape".to_owned())?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| format!("bad \\u escape `{hex}`"))?;
                        // Surrogate pairs are not produced by our
                        // renderer; map lone surrogates to U+FFFD.
                        out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {pos}", pos = *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the run up to the next quote or escape. Both are
                // ASCII, so in input that came from a &str the run ends
                // on a char boundary; decoding only the run keeps the
                // parse linear in the input length.
                let start = *pos;
                while !matches!(bytes.get(*pos), None | Some(b'"' | b'\\')) {
                    *pos += 1;
                }
                let run = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
                out.push_str(run);
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("bad number `{text}` at byte {start}"))
}

// ---------------------------------------------------------------------------
// Digests
// ---------------------------------------------------------------------------

/// 64-bit FNV-1a over `bytes` — stable, dependency-free content
/// digest for run provenance (not cryptographic).
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Hex-formatted [`fnv1a64`] of a configuration description string —
/// the `config_digest` field in provenance records.
#[must_use]
pub fn config_digest(description: &str) -> String {
    format!("{:016x}", fnv1a64(description.as_bytes()))
}

// ---------------------------------------------------------------------------
// Phase profiling
// ---------------------------------------------------------------------------

/// Number of log₂-spaced histogram buckets: bucket `i` counts
/// durations in `[2^(i-1), 2^i)` nanoseconds (bucket 0 is `< 1ns`),
/// so 64 buckets cover every representable duration.
const HIST_BUCKETS: usize = 64;

/// A fixed-size log₂-bucketed duration histogram: bounded memory no
/// matter how many spans a run records (exact-sample percentile
/// reservoirs would grow with ticks × replicates), mergeable across
/// worker threads, with quantile estimates good to a factor of 2 —
/// plenty for "where does the time go" profiling.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogHistogram {
    counts: [u64; HIST_BUCKETS],
    total: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self {
            counts: [0; HIST_BUCKETS],
            total: 0,
        }
    }
}

impl LogHistogram {
    fn bucket_for(nanos: u128) -> usize {
        // floor(log2(nanos)) + 1, clamped; 0ns → bucket 0.
        let n = u64::try_from(nanos).unwrap_or(u64::MAX);
        (64 - n.leading_zeros() as usize).min(HIST_BUCKETS - 1)
    }

    /// Records one duration.
    pub fn record(&mut self, d: Duration) {
        self.counts[Self::bucket_for(d.as_nanos())] += 1;
        self.total += 1;
    }

    /// Total recorded samples.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Adds every sample of `other` into `self`.
    pub fn merge(&mut self, other: &Self) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.total += other.total;
    }

    /// Estimated quantile `q` (0..=1) in seconds: the geometric
    /// midpoint of the bucket containing the q-th sample. 0.0 when
    /// empty.
    #[must_use]
    pub fn quantile_secs(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // Bucket i spans [2^(i-1), 2^i) ns; use the geometric
                // midpoint (√2·2^(i-1)) as the representative value.
                let lo = if i == 0 {
                    0.5
                } else {
                    (1u128 << (i - 1)) as f64
                };
                return lo * std::f64::consts::SQRT_2 * 1e-9;
            }
        }
        0.0
    }

    /// Non-empty `(bucket_upper_bound_secs, count)` pairs, for export.
    pub fn buckets(&self) -> impl Iterator<Item = (f64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| ((1u128 << i) as f64 * 1e-9, c))
    }
}

/// Streaming stats + histogram for one profiled phase.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PhaseStats {
    /// Welford moments over span durations, in seconds.
    pub stats: OnlineStats,
    /// Log₂ histogram of span durations.
    pub hist: LogHistogram,
}

impl PhaseStats {
    fn record(&mut self, d: Duration) {
        self.stats.push(d.as_secs_f64());
        self.hist.record(d);
    }

    fn merge(&mut self, other: &Self) {
        self.stats.merge(&other.stats);
        self.hist.merge(&other.hist);
    }

    /// JSON summary: count, total/mean seconds, and p50/p95/p99
    /// estimates from the histogram.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("count", Json::from(self.stats.count())),
            ("total_secs", Json::from(self.stats.sum())),
            ("mean_secs", Json::from(self.stats.mean())),
            ("min_secs", Json::from(self.stats.min())),
            ("max_secs", Json::from(self.stats.max())),
            ("p50_secs", Json::from(self.hist.quantile_secs(0.50))),
            ("p95_secs", Json::from(self.hist.quantile_secs(0.95))),
            ("p99_secs", Json::from(self.hist.quantile_secs(0.99))),
            (
                "hist",
                Json::Arr(
                    self.hist
                        .buckets()
                        .map(|(ub, c)| Json::Arr(vec![Json::from(ub), Json::from(c)]))
                        .collect(),
                ),
            ),
        ])
    }
}

/// Per-phase timing profile, keyed by span name. Phases sort by name
/// so every rendering is deterministic.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PhaseProfile {
    phases: BTreeMap<Cow<'static, str>, PhaseStats>,
}

impl PhaseProfile {
    /// Records one span duration for `phase`.
    pub fn record(&mut self, phase: impl Into<Cow<'static, str>>, d: Duration) {
        self.phases.entry(phase.into()).or_default().record(d);
    }

    /// Merges another profile into this one (used when folding
    /// per-replicate profiles into a run-level profile).
    pub fn merge(&mut self, other: &Self) {
        for (name, stats) in &other.phases {
            match self.phases.get_mut(name.as_ref()) {
                Some(mine) => mine.merge(stats),
                None => {
                    self.phases.insert(name.clone(), stats.clone());
                }
            }
        }
    }

    /// Stats for one phase, if any spans were recorded.
    #[must_use]
    pub fn phase(&self, name: &str) -> Option<&PhaseStats> {
        self.phases.get(name)
    }

    /// Iterates `(phase, stats)` in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &PhaseStats)> {
        self.phases.iter().map(|(k, v)| (k.as_ref(), v))
    }

    /// Whether no spans have been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.phases.is_empty()
    }

    /// JSON object `{phase: summary, ...}` in phase-name order.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::Obj(
            self.phases
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_json()))
                .collect(),
        )
    }
}

// ---------------------------------------------------------------------------
// Process resource sampling
// ---------------------------------------------------------------------------

/// Peak resident-set size of the current process in **bytes**, read
/// from `/proc/self/status` (`VmHWM`). Returns `None` on platforms
/// without procfs (or when the field is absent/unparseable), so a
/// caller (the repository benchmark's `peak_rss_mb`) can tell a
/// missing reading from a real one instead of reporting a bogus
/// number.
#[must_use]
pub fn read_peak_rss() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kib: u64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
            return Some(kib.saturating_mul(1024));
        }
    }
    None
}

// ---------------------------------------------------------------------------
// Per-replicate sink
// ---------------------------------------------------------------------------

/// Everything one replicate observed: phase spans and emitted
/// records. Collected thread-locally so worker threads never contend,
/// and drained by the replication runner after each attempt.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ReplicateObs {
    /// Phase timing recorded by [`span`] guards.
    pub profile: PhaseProfile,
    /// Structured records appended by [`emit`].
    pub records: Vec<Json>,
}

thread_local! {
    static SINK: RefCell<Option<ReplicateObs>> = const { RefCell::new(None) };
}

/// Runs `f` with a fresh observation sink installed on this thread
/// and returns `(f(), observations)`. The previous sink (if any) is
/// saved and restored, so nested replication runs — e.g. a scenario
/// that itself fans out — observe into their own sinks without
/// clobbering the outer one.
///
/// When observability is disabled the sink is not installed and the
/// returned observations are empty.
pub fn with_sink<R>(f: impl FnOnce() -> R) -> (R, ReplicateObs) {
    if !enabled() {
        return (f(), ReplicateObs::default());
    }
    let saved = SINK.with(|s| s.replace(Some(ReplicateObs::default())));
    let out = f();
    let collected = SINK.with(|s| s.replace(saved));
    (out, collected.unwrap_or_default())
}

/// Appends one structured record to the current replicate's sink.
/// No-op when observability is off or no sink is installed (so
/// library code can emit unconditionally).
pub fn emit(record: Json) {
    if !enabled() {
        return;
    }
    SINK.with(|s| {
        if let Some(sink) = s.borrow_mut().as_mut() {
            sink.records.push(record);
        }
    });
}

/// An RAII span guard: measures wall time from construction to drop
/// and records it under `phase` in the current sink. When
/// observability is off, construction is a cached-bool check and drop
/// is a no-op — cheap enough for per-tick scopes.
///
/// Timing is measurement only: span durations are never readable from
/// simulation code, so they cannot perturb results (the determinism
/// contract above).
#[must_use = "a span measures until dropped; binding it to `_` drops immediately"]
pub struct Span {
    phase: &'static str,
    start: Option<Instant>,
}

/// Opens a [`Span`] for `phase`. Convention: `<substrate>:<stage>`
/// with stages `sense`, `decide`, `act`, and the cross-substrate
/// `comms` span recorded by the protocol layer itself.
pub fn span(phase: &'static str) -> Span {
    Span {
        phase,
        start: enabled().then(Instant::now),
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            let elapsed = start.elapsed();
            SINK.with(|s| {
                if let Some(sink) = s.borrow_mut().as_mut() {
                    sink.profile.record(self.phase, elapsed);
                }
            });
        }
    }
}

// ---------------------------------------------------------------------------
// Trace writer
// ---------------------------------------------------------------------------

/// Default artifact root, relative to the workspace root (see
/// [`artifact_root`] for how that is located).
pub const DEFAULT_OBS_ROOT: &str = "target/obs";

/// Resolves the artifact root: `SAS_OBS_DIR` if set, else
/// [`DEFAULT_OBS_ROOT`] under the workspace root.
///
/// Cargo runs test and bench binaries with their working directory
/// set to the *package* root, not the workspace root, so a plain
/// relative default would scatter artifacts across `crates/*/target/`
/// depending on which binary emitted them. Instead the default is
/// anchored at the nearest ancestor of the working directory that
/// holds a `Cargo.lock` (the workspace root marker), falling back to
/// the working directory itself.
#[must_use]
pub fn artifact_root() -> PathBuf {
    if let Some(dir) = std::env::var_os(OBS_DIR_ENV) {
        return PathBuf::from(dir);
    }
    let cwd = std::env::current_dir().unwrap_or_default();
    let mut dir = cwd.as_path();
    loop {
        if dir.join("Cargo.lock").exists() {
            return dir.join(DEFAULT_OBS_ROOT);
        }
        match dir.parent() {
            Some(parent) => dir = parent,
            None => return PathBuf::from(DEFAULT_OBS_ROOT),
        }
    }
}

/// Writes one JSONL run-trace artifact. Lines are buffered in memory
/// and flushed on [`TraceWriter::finish`], so a crashed run leaves no
/// half-written file behind.
#[derive(Debug)]
pub struct TraceWriter {
    path: PathBuf,
    buf: String,
}

impl TraceWriter {
    /// Creates a writer for `<artifact_root>/<experiment>/<stem>.jsonl`.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn create(experiment: &str, stem: &str) -> std::io::Result<Self> {
        Self::create_in(artifact_root(), experiment, stem)
    }

    /// [`TraceWriter::create`] with an explicit root (used by tests to
    /// stay inside the workspace `target/` directory).
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn create_in(
        root: impl AsRef<Path>,
        experiment: &str,
        stem: &str,
    ) -> std::io::Result<Self> {
        let dir = root.as_ref().join(experiment);
        std::fs::create_dir_all(&dir)?;
        Ok(Self {
            path: dir.join(format!("{stem}.jsonl")),
            buf: String::new(),
        })
    }

    /// Appends one record as a single JSONL line.
    pub fn line(&mut self, record: &Json) {
        record.render_into(&mut self.buf);
        self.buf.push('\n');
    }

    /// Destination path of the artifact.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Writes the buffered lines to disk and returns the artifact
    /// path.
    ///
    /// # Errors
    ///
    /// Propagates filesystem write failures.
    pub fn finish(self) -> std::io::Result<PathBuf> {
        std::fs::write(&self.path, self.buf.as_bytes())?;
        Ok(self.path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_rss_is_positive_on_linux_and_none_elsewhere() {
        match read_peak_rss() {
            // A process that got this far has touched megabytes; the
            // value is in bytes, so it must comfortably exceed a page.
            Some(bytes) => assert!(bytes >= 4096, "implausible peak RSS: {bytes}"),
            // Non-Linux (no procfs): the helper must degrade to None
            // rather than fabricate a number.
            None => {
                if cfg!(target_os = "linux") {
                    panic!("Linux with procfs should report VmHWM");
                }
            }
        }
    }

    #[test]
    fn json_renders_compact() {
        let v = Json::obj([
            ("a", Json::from(1.5)),
            ("b", Json::Arr(vec![Json::Null, Json::Bool(true)])),
            ("c", Json::str("x\"y\\z\n")),
        ]);
        assert_eq!(v.render(), r#"{"a":1.5,"b":[null,true],"c":"x\"y\\z\n"}"#);
    }

    #[test]
    fn json_numbers_round_trip_exactly() {
        for n in [
            0.0,
            -1.0,
            1.0 / 3.0,
            1e300,
            123456789.125,
            f64::MIN_POSITIVE,
        ] {
            let rendered = Json::Num(n).render();
            match parse(&rendered) {
                Ok(Json::Num(back)) => assert_eq!(back.to_bits(), n.to_bits(), "{rendered}"),
                other => panic!("expected number back, got {other:?}"),
            }
        }
        assert_eq!(Json::Num(f64::NAN).render(), "null");
        assert_eq!(Json::Num(f64::INFINITY).render(), "null");
    }

    #[test]
    fn json_parse_round_trips_structures() {
        let v = Json::obj([
            ("experiment", Json::str("f5")),
            ("seed", Json::from(0xF5_u64)),
            ("empty_obj", Json::obj::<&str>([])),
            ("empty_arr", Json::Arr(vec![])),
            (
                "nested",
                Json::Arr(vec![Json::obj([("k", Json::from(2.0))]), Json::Null]),
            ),
            ("tab", Json::str("a\tb\u{1} ± → ≈")),
        ]);
        let back = parse(&v.render()).expect("round trip");
        assert_eq!(back, v);
    }

    #[test]
    fn json_parse_accepts_whitespace_and_rejects_garbage() {
        assert_eq!(
            parse(" { \"a\" : [ 1 , 2 ] } ").expect("ok"),
            Json::obj([("a", Json::Arr(vec![Json::from(1.0), Json::from(2.0)]))])
        );
        assert!(parse("{\"a\":1} trailing").is_err());
        assert!(parse("{\"a\"").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("nul").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn fnv_digest_is_stable_and_input_sensitive() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(config_digest("a"), config_digest("b"));
        assert_eq!(config_digest("steps=6000"), config_digest("steps=6000"));
        assert_eq!(config_digest("x").len(), 16);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let mut h = LogHistogram::default();
        for _ in 0..99 {
            h.record(Duration::from_nanos(1000)); // bucket ~1µs
        }
        h.record(Duration::from_millis(10));
        assert_eq!(h.total(), 100);
        let p50 = h.quantile_secs(0.50);
        assert!(p50 > 0.4e-6 && p50 < 2.2e-6, "p50={p50}");
        let p99 = h.quantile_secs(0.99);
        assert!(p99 < 2.2e-6, "99 of 100 samples are ~1µs, p99={p99}");
        let p100 = h.quantile_secs(1.0);
        assert!(p100 > 5e-3 && p100 < 25e-3, "p100={p100}");
        assert_eq!(h.quantile_secs(0.0), p50.min(h.quantile_secs(0.01)));
    }

    #[test]
    fn histogram_merge_adds_counts() {
        let mut a = LogHistogram::default();
        let mut b = LogHistogram::default();
        a.record(Duration::from_nanos(10));
        b.record(Duration::from_nanos(10));
        b.record(Duration::from_secs(1));
        a.merge(&b);
        assert_eq!(a.total(), 3);
        assert_eq!(a.buckets().count(), 2);
    }

    #[test]
    fn profile_reports_the_shortest_span_as_min() {
        let mut p = PhaseProfile::default();
        p.record("act", Duration::from_millis(3));
        let json = parse(&p.to_json().render()).expect("profile JSON parses");
        let min = json.get("act").and_then(|a| a.get("min_secs"));
        assert_eq!(min.and_then(Json::as_num), Some(0.003));
    }

    #[test]
    fn profile_records_and_merges() {
        let mut p = PhaseProfile::default();
        p.record("sense", Duration::from_micros(5));
        p.record("sense", Duration::from_micros(7));
        p.record("act", Duration::from_micros(2));
        let mut q = PhaseProfile::default();
        q.record("sense", Duration::from_micros(1));
        p.merge(&q);
        let sense = p.phase("sense").expect("sense recorded");
        assert_eq!(sense.stats.count(), 3);
        assert!(p.phase("act").is_some());
        assert!(p.phase("comms").is_none());
        let names: Vec<&str> = p.iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["act", "sense"], "name-ordered");
        let json = p.to_json().render();
        assert!(json.contains("\"sense\""), "{json}");
        assert!(json.contains("\"p95_secs\""), "{json}");
    }

    #[test]
    fn sink_collects_only_when_enabled() {
        let _guard = override_lock();
        set_override(Some(false));
        let ((), off) = with_sink(|| {
            let _s = span("phase");
            emit(Json::Null);
        });
        assert!(off.records.is_empty());
        assert!(off.profile.is_empty());

        set_override(Some(true));
        let ((), on) = with_sink(|| {
            let _s = span("phase");
            emit(Json::str("r"));
        });
        set_override(None);
        assert_eq!(on.records, vec![Json::str("r")]);
        assert_eq!(on.profile.phase("phase").map(|p| p.stats.count()), Some(1));
    }

    #[test]
    fn sink_nesting_saves_and_restores() {
        let _guard = override_lock();
        set_override(Some(true));
        let ((), outer) = with_sink(|| {
            emit(Json::str("outer-1"));
            let ((), inner) = with_sink(|| emit(Json::str("inner")));
            assert_eq!(inner.records, vec![Json::str("inner")]);
            emit(Json::str("outer-2"));
        });
        set_override(None);
        assert_eq!(
            outer.records,
            vec![Json::str("outer-1"), Json::str("outer-2")]
        );
    }

    #[test]
    fn emit_without_sink_is_a_noop() {
        let _guard = override_lock();
        set_override(Some(true));
        emit(Json::str("dropped"));
        let _s = span("orphan");
        drop(_s);
        set_override(None);
        // Nothing to assert beyond "did not panic": no sink, no effect.
    }

    #[test]
    fn trace_writer_writes_jsonl() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../target/obs-test")
            .join("writer");
        let mut w = TraceWriter::create_in(&root, "exp", "trace").expect("create");
        w.line(&Json::obj([("type", Json::str("provenance"))]));
        w.line(&Json::obj([("type", Json::str("replicate"))]));
        let path = w.finish().expect("finish");
        let text = std::fs::read_to_string(&path).expect("read back");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in lines {
            let v = parse(line).expect("each line parses");
            assert!(v.get("type").is_some());
        }
        std::fs::remove_dir_all(&root).ok();
    }
}
