//! Robust communication over unreliable channels.
//!
//! Lewis (DATE 2017) grounds *collective* self-awareness in
//! decentralised agents that learn about one another through the
//! network — and real networks drop, delay, duplicate, and partition.
//! This module supplies the machinery a collective needs to stay
//! self-aware when its links misbehave:
//!
//! * [`Channel`] — the abstract unreliable medium. A transmission
//!   yields zero or more delivery ticks ([`ChannelOutcome`]); the
//!   deterministic lossy implementation lives in
//!   `workloads::faults::ChannelPlan`, while [`IdealChannel`] keeps
//!   the historical perfect-network behaviour.
//! * [`CommsNetwork`] — a message layer over a channel. In
//!   [`CommsPolicy::Naive`] mode it is fire-and-forget (the ablation
//!   baseline: no acknowledgements, no dedup, no retry). In
//!   [`CommsPolicy::Reliable`] mode it runs a full protocol: per-link
//!   sequence numbers, receiver-side dedup, ack/retry with exponential
//!   backoff under a retry budget, send timeouts, and per-peer
//!   staleness tracking, whose freshness weight `0.5^(age/half_life)`
//!   tells a controller how far to trust what it last heard. Every
//!   retry, expiry, and partition transition is recorded in the
//!   [`ExplanationLog`].
//! * [`CommandPlane`] — a controller and its agents over one network:
//!   the controller's newest report from each agent, the order each
//!   agent stands under and when to re-send it, and a view of the
//!   channel that loses every frame to or from an agent that is down.
//!
//! Determinism contract: the layer itself consumes **no** randomness;
//! all stochastic behaviour lives in the [`Channel`] implementation,
//! which must be a pure function of `(link, sequence number, tick)`.
//! Combined with the deterministic drain order of
//! [`simkernel::delivery::DeliveryQueue`], lossy runs stay
//! bit-identical between sequential and parallel replication.
//!
//! Allocation contract: the steady-state send/deliver/ack cycle is
//! free of per-message heap traffic. Payload bodies live once in a
//! reference-counted slab shared by duplicates and retries, dedup
//! uses a flat bitmap window, arrival outcomes are stored inline, and
//! drained per-tick buffers are recycled. [`CommsNetwork::step_into`]
//! lands deliveries in a buffer the caller reuses;
//! `crates/bench/tests/zero_alloc.rs` enforces the contract with a
//! counting allocator.
//!
//! ```
//! use selfaware::comms::{CommsNetwork, CommsPolicy, IdealChannel};
//! use selfaware::explain::ExplanationLog;
//! use simkernel::Tick;
//!
//! let mut net: CommsNetwork<&str> = CommsNetwork::new(CommsPolicy::default());
//! let mut log = ExplanationLog::new(64);
//! net.send(&IdealChannel, 0, 1, "hello", Tick(0), &mut log);
//! let mut got = Vec::new();
//! net.step_into(&IdealChannel, Tick(0), &mut log, &mut got);
//! assert_eq!(got.len(), 1);
//! assert_eq!(got[0].payload, "hello");
//! assert_eq!(net.stats().delivered, 1);
//! ```

use crate::explain::{Explanation, ExplanationLog};
use crate::replay::InterventionClass;
use serde::{Deserialize, Serialize};
use simkernel::delivery::DeliveryQueue;
use simkernel::obs::{self, Json};
use simkernel::Tick;
use std::collections::BTreeMap;

/// High bit of the wire sequence space: marks acknowledgement frames
/// so they never share a channel decision with the data frame they
/// acknowledge.
const ACK_BIT: u64 = 1 << 63;
/// Retransmission attempts are folded into the wire sequence above
/// this bit, so every retry gets an independent channel decision.
const ATTEMPT_SHIFT: u32 = 48;
/// Per-link receiver dedup window (sequence numbers remembered).
const SEEN_WINDOW: usize = 512;

/// Arrival ticks of one transmission.
///
/// Stored inline for up to two copies — the overwhelmingly common
/// outcomes "delivered once" and "duplicated" — with heap spill only
/// for exotic channels, so constructing an outcome on the per-frame
/// hot path never allocates.
#[derive(Debug, Clone, Default)]
pub struct Arrivals {
    inline: [Tick; 2],
    inline_len: u8,
    spill: Vec<Tick>,
}

impl Arrivals {
    /// No arrivals (a lost frame).
    #[must_use]
    pub const fn new() -> Self {
        Self {
            inline: [Tick(0); 2],
            inline_len: 0,
            spill: Vec::new(),
        }
    }

    /// A single arrival at `at`.
    #[must_use]
    pub fn once(at: Tick) -> Self {
        let mut a = Self::new();
        a.push(at);
        a
    }

    /// Appends an arrival tick (insertion order is preserved).
    pub fn push(&mut self, at: Tick) {
        if usize::from(self.inline_len) < self.inline.len() {
            self.inline[usize::from(self.inline_len)] = at;
            self.inline_len += 1;
        } else {
            self.spill.push(at);
        }
    }

    /// Number of copies that arrive.
    #[must_use]
    pub fn len(&self) -> usize {
        usize::from(self.inline_len) + self.spill.len()
    }

    /// True when no copy arrives.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.inline_len == 0
    }

    /// Arrival ticks in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = Tick> + '_ {
        self.inline[..usize::from(self.inline_len)]
            .iter()
            .copied()
            .chain(self.spill.iter().copied())
    }

    /// The first-pushed arrival, if any.
    #[must_use]
    pub fn first(&self) -> Option<Tick> {
        self.iter().next()
    }

    /// True when some copy arrives exactly at `at`.
    #[must_use]
    pub fn contains(&self, at: Tick) -> bool {
        self.iter().any(|t| t == at)
    }
}

// Equality is the arrival sequence; the inline/spill split and any
// stale inline slots beyond `inline_len` are representation details.
impl PartialEq for Arrivals {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

impl Eq for Arrivals {}

impl FromIterator<Tick> for Arrivals {
    fn from_iter<I: IntoIterator<Item = Tick>>(iter: I) -> Self {
        let mut a = Self::new();
        for t in iter {
            a.push(t);
        }
        a
    }
}

/// The fate of one transmission attempt on a channel.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ChannelOutcome {
    /// Ticks at which copies of the frame arrive (empty = lost;
    /// more than one = duplicated; later than `now` = delayed).
    pub arrivals: Arrivals,
    /// True when the frame was dropped because the link is inside a
    /// scheduled partition window.
    pub partitioned: bool,
}

impl ChannelOutcome {
    /// A frame that arrives exactly once, at `at`.
    #[must_use]
    pub fn delivered(at: Tick) -> Self {
        Self {
            arrivals: Arrivals::once(at),
            partitioned: false,
        }
    }

    /// A frame the channel dropped (outside any partition).
    #[must_use]
    pub fn lost() -> Self {
        Self::default()
    }

    /// True if any copy arrives at exactly `now` (same-tick success,
    /// the requirement for latency-bound exchanges like auctions).
    #[must_use]
    pub fn arrives_at(&self, now: Tick) -> bool {
        self.arrivals.contains(now)
    }
}

/// An unreliable point-to-point medium.
///
/// Implementations must be *pure*: the outcome may depend only on the
/// link `(src, dst)`, the wire sequence number, and the tick — never
/// on mutable state or an RNG stream — so that call order cannot
/// perturb replicate determinism.
pub trait Channel {
    /// Decides the fate of frame `seq` sent `src → dst` at `now`.
    fn transmit(&self, src: usize, dst: usize, seq: u64, now: Tick) -> ChannelOutcome;
}

/// The historical perfect network: every frame arrives once, in the
/// same tick it was sent.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct IdealChannel;

impl Channel for IdealChannel {
    fn transmit(&self, _src: usize, _dst: usize, _seq: u64, now: Tick) -> ChannelOutcome {
        ChannelOutcome::delivered(now)
    }
}

/// A channel view that silences dead agents: a frame to or from an
/// agent marked in `dead` is lost, otherwise `inner` decides. Ids past
/// the end of `dead` never die, and with no agent dead the view
/// transmits exactly as `inner`.
///
/// This is the restore ordering for overlapping outage and partition
/// windows: a partition healing while an agent is down re-opens the
/// *link*, but nobody is home behind it, so retransmits and acks must
/// keep dying until the outage itself lifts.
struct AgentLiveChannel<C> {
    /// The channel live agents talk over.
    inner: C,
    /// Per-agent death flags for the current tick.
    dead: Vec<bool>,
}

impl<C: Channel> Channel for AgentLiveChannel<C> {
    fn transmit(&self, src: usize, dst: usize, seq: u64, now: Tick) -> ChannelOutcome {
        let gone = |id: usize| self.dead.get(id).copied().unwrap_or(false);
        if gone(src) || gone(dst) {
            return ChannelOutcome::lost();
        }
        self.inner.transmit(src, dst, seq, now)
    }
}

/// Tuning for the reliable protocol.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ReliableConfig {
    /// Ticks before the first retransmission of an unacked message.
    pub retry_backoff: u64,
    /// Upper bound on the (doubling) retransmission interval.
    pub backoff_max: u64,
    /// Maximum transmissions per message (initial send included).
    pub retry_budget: u32,
    /// Ticks after which an unacked message expires outright.
    pub send_timeout: u64,
    /// Half-life (ticks) for staleness discounting of peer knowledge.
    pub half_life: f64,
}

impl Default for ReliableConfig {
    fn default() -> Self {
        Self {
            retry_backoff: 2,
            backoff_max: 32,
            retry_budget: 8,
            send_timeout: 120,
            half_life: 40.0,
        }
    }
}

/// How a collective moves messages between its members.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum CommsPolicy {
    /// Fire-and-forget: no acks, no dedup, no retry, no staleness
    /// model. The ablation baseline — what every pre-PR-4 run
    /// implicitly assumed, now made to face a real channel.
    Naive,
    /// Sequence numbers + dedup + ack/retry + timeouts + staleness.
    Reliable(ReliableConfig),
}

impl Default for CommsPolicy {
    fn default() -> Self {
        Self::Reliable(ReliableConfig::default())
    }
}

impl CommsPolicy {
    /// True for the fire-and-forget baseline.
    #[must_use]
    pub fn is_naive(&self) -> bool {
        matches!(self, Self::Naive)
    }

    /// Short label for tables and arm names.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            Self::Naive => "naive",
            Self::Reliable(_) => "staleness-aware",
        }
    }
}

/// Lifetime counters for a [`CommsNetwork`].
///
/// Alongside the flat totals, two per-link maps attribute abandoned
/// sends to the `(src, dst)` link that lost them: a degradation report
/// that only shows "expired = 741" hides *which* edge of the collective
/// went dark, which is exactly the signal cascade diagnosis needs.
/// Per-link entries are created lazily on the first expiry of a link,
/// so the steady-state send/deliver/ack cycle stays allocation-free.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CommsStats {
    /// Frames handed to the channel (retransmissions included).
    pub sent: u64,
    /// Unique messages delivered to a receiver.
    pub delivered: u64,
    /// Copies suppressed by receiver-side dedup.
    pub duplicates: u64,
    /// Retransmissions performed.
    pub retries: u64,
    /// Messages confirmed by an acknowledgement.
    pub acked: u64,
    /// Messages abandoned (budget or timeout exhausted).
    pub expired: u64,
    /// Messages abandoned specifically because the retry budget ran
    /// out (a subset of [`CommsStats::expired`]; the rest timed out).
    pub budget_exhausted: u64,
    /// Frames dropped inside a partition window.
    pub partition_hits: u64,
    /// Same-tick exchanges (probe/fire) that failed.
    pub exchange_failures: u64,
    /// Expired sends per `(src, dst)` link (all causes).
    pub expired_by_link: BTreeMap<(usize, usize), u64>,
    /// Retry-budget exhaustions per `(src, dst)` link.
    pub budget_exhausted_by_link: BTreeMap<(usize, usize), u64>,
}

impl CommsStats {
    /// Expired sends on the `src → dst` link (all causes).
    #[must_use]
    pub fn link_expired(&self, src: usize, dst: usize) -> u64 {
        self.expired_by_link.get(&(src, dst)).copied().unwrap_or(0)
    }

    /// Retry-budget exhaustions on the `src → dst` link.
    #[must_use]
    pub fn link_budget_exhausted(&self, src: usize, dst: usize) -> u64 {
        self.budget_exhausted_by_link
            .get(&(src, dst))
            .copied()
            .unwrap_or(0)
    }

    fn link_map_json(map: &BTreeMap<(usize, usize), u64>) -> Json {
        Json::obj(
            map.iter()
                .map(|(&(src, dst), &n)| (format!("{src}->{dst}"), Json::from(n))),
        )
    }

    /// Structured export for run traces (see [`simkernel::obs`]).
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("sent", Json::from(self.sent)),
            ("delivered", Json::from(self.delivered)),
            ("duplicates", Json::from(self.duplicates)),
            ("retries", Json::from(self.retries)),
            ("acked", Json::from(self.acked)),
            ("expired", Json::from(self.expired)),
            ("budget_exhausted", Json::from(self.budget_exhausted)),
            ("partition_hits", Json::from(self.partition_hits)),
            ("exchange_failures", Json::from(self.exchange_failures)),
            (
                "expired_by_link",
                Self::link_map_json(&self.expired_by_link),
            ),
            (
                "budget_exhausted_by_link",
                Self::link_map_json(&self.budget_exhausted_by_link),
            ),
        ])
    }
}

/// A message delivered by [`CommsNetwork::step_into`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delivered<M> {
    /// Original sender.
    pub src: usize,
    /// Receiver.
    pub dst: usize,
    /// Per-link sequence number.
    pub seq: u64,
    /// The payload.
    pub payload: M,
}

/// A data frame in the air. Payload bodies live in the network's
/// [`PayloadSlab`]; flights carry only the slot index, so duplicating
/// a frame across arrival ticks copies nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Flight {
    src: usize,
    dst: usize,
    seq: u64,
    wire_seq: u64,
    slot: u32,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct AckFlight {
    src: usize,
    dst: usize,
    seq: u64,
}

/// A message sent but not yet acknowledged (reliable mode).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Pending {
    seq: u64,
    slot: u32,
    sent_at: u64,
    next_retry: u64,
    attempts: u32,
}

/// Words in the dedup bitmap ([`SEEN_WINDOW`] bits).
const SEEN_WORDS: usize = SEEN_WINDOW / 64;

/// Receiver-side dedup with bounded memory: a sliding bitmap covering
/// the [`SEEN_WINDOW`] sequence numbers from `floor` up; anything
/// below the floor is treated as already seen. A flat bitmap rather
/// than a `BTreeSet` keeps the per-frame dedup check allocation-free
/// (ascending inserts split a B-tree node roughly every eleven
/// sequence numbers).
#[derive(Debug, Clone, PartialEq, Eq)]
struct SeenWindow {
    floor: u64,
    bits: [u64; SEEN_WORDS],
}

impl Default for SeenWindow {
    fn default() -> Self {
        Self {
            floor: 0,
            bits: [0; SEEN_WORDS],
        }
    }
}

impl SeenWindow {
    /// Marks `seq` as seen; returns true when it was fresh.
    fn mark(&mut self, seq: u64) -> bool {
        if seq < self.floor {
            return false;
        }
        let width = SEEN_WINDOW as u64;
        if seq - self.floor >= width {
            // Slide the window up so `seq` becomes its newest bit;
            // whatever falls off the bottom counts as seen.
            let advance = seq - self.floor - (width - 1);
            self.shift_down(advance);
            self.floor += advance;
        }
        let off = (seq - self.floor) as usize;
        let (word, bit) = (off / 64, off % 64);
        let mask = 1u64 << bit;
        if self.bits[word] & mask != 0 {
            return false;
        }
        self.bits[word] |= mask;
        true
    }

    /// Shifts the bitmap toward lower positions by `by`: the bit for
    /// sequence `floor + by + i` moves to position `i`, the lowest
    /// `by` bits drop off.
    fn shift_down(&mut self, by: u64) {
        if by >= SEEN_WINDOW as u64 {
            self.bits = [0; SEEN_WORDS];
            return;
        }
        let by = by as usize;
        let (words, bits) = (by / 64, by % 64);
        let mut next = [0u64; SEEN_WORDS];
        for (i, slot) in next.iter_mut().enumerate().take(SEEN_WORDS - words) {
            let lo = self.bits[i + words] >> bits;
            let hi = if bits == 0 || i + words + 1 >= SEEN_WORDS {
                0
            } else {
                self.bits[i + words + 1] << (64 - bits)
            };
            *slot = lo | hi;
        }
        self.bits = next;
    }
}

/// Per-link state in one flat `[src][dst]` table, `width` members a
/// side: the `src → dst` cell sits at `src * width + dst`, so the cells
/// in index order are the links in `(src, dst)` order. A write naming a
/// member past the side grows the table to take it; a read there finds
/// nothing.
#[derive(Debug, Clone, PartialEq)]
struct LinkTable<T> {
    width: usize,
    cells: Vec<T>,
}

impl<T: Default> LinkTable<T> {
    const fn new() -> Self {
        Self {
            width: 0,
            cells: Vec::new(),
        }
    }

    fn index(&self, src: usize, dst: usize) -> Option<usize> {
        (src < self.width && dst < self.width).then(|| src * self.width + dst)
    }

    fn get(&self, src: usize, dst: usize) -> Option<&T> {
        self.index(src, dst).map(|i| &self.cells[i])
    }

    fn get_mut(&mut self, src: usize, dst: usize) -> Option<&mut T> {
        self.index(src, dst).map(|i| &mut self.cells[i])
    }

    /// The `src → dst` cell, growing the table first if either member
    /// is new.
    fn entry(&mut self, src: usize, dst: usize) -> &mut T {
        let width = src.max(dst) + 1;
        if width > self.width {
            let mut grown = Vec::with_capacity(width * width);
            grown.resize_with(width * width, T::default);
            for (i, cell) in std::mem::take(&mut self.cells).into_iter().enumerate() {
                grown[i / self.width * width + i % self.width] = cell;
            }
            (self.cells, self.width) = (grown, width);
        }
        &mut self.cells[src * self.width + dst]
    }
}

/// What a [`CommsNetwork`] knows of one `src → dst` link.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Link {
    /// The sequence number of `src`'s next message to `dst`.
    seq: u64,
    /// Which of `src`'s messages `dst` has seen (reliable mode).
    seen: SeenWindow,
    /// When `src` last heard from `dst`; 0 if never.
    last_heard: u64,
    /// Whether the link's latest frame hit a partition.
    partitioned: bool,
}

/// Reference-counted payload arena: one copy of each message body,
/// shared by every in-flight duplicate and the retry buffer, indexed
/// by `u32` slot. Freed slots are recycled through an intrusive free
/// list, so the steady-state send/deliver/ack cycle allocates
/// nothing.
#[derive(Debug, Clone, PartialEq)]
enum PayloadSlot<M> {
    Free { next: Option<u32> },
    Full { payload: M, refs: u32 },
}

#[derive(Debug, Clone, PartialEq)]
struct PayloadSlab<M> {
    slots: Vec<PayloadSlot<M>>,
    free_head: Option<u32>,
}

impl<M> PayloadSlab<M> {
    const fn new() -> Self {
        Self {
            slots: Vec::new(),
            free_head: None,
        }
    }

    /// Stores `payload` with one reference; returns its slot index.
    fn insert(&mut self, payload: M) -> u32 {
        match self.free_head {
            Some(i) => {
                let slot = &mut self.slots[i as usize];
                self.free_head = match slot {
                    PayloadSlot::Free { next } => *next,
                    // Unreachable: only freed slots enter the list.
                    PayloadSlot::Full { .. } => None,
                };
                *slot = PayloadSlot::Full { payload, refs: 1 };
                i
            }
            None => {
                debug_assert!(self.slots.len() < u32::MAX as usize);
                let i = self.slots.len() as u32;
                self.slots.push(PayloadSlot::Full { payload, refs: 1 });
                i
            }
        }
    }

    /// The payload stored in `slot`.
    fn get(&self, slot: u32) -> &M {
        match &self.slots[slot as usize] {
            PayloadSlot::Full { payload, .. } => payload,
            PayloadSlot::Free { .. } => unreachable!("comms payload slot {slot} is free"),
        }
    }

    /// Adds a reference (another in-flight copy of the message).
    fn incref(&mut self, slot: u32) {
        if let PayloadSlot::Full { refs, .. } = &mut self.slots[slot as usize] {
            *refs += 1;
        }
    }

    /// Drops one reference; recycles the slot when none remain.
    fn decref(&mut self, slot: u32) {
        let entry = &mut self.slots[slot as usize];
        if let PayloadSlot::Full { refs, .. } = entry {
            *refs -= 1;
            if *refs == 0 {
                *entry = PayloadSlot::Free {
                    next: self.free_head,
                };
                self.free_head = Some(slot);
            }
        }
    }
}

/// A message layer for one collective: every member addressed by
/// index, every link running over the same [`Channel`].
///
/// The network consumes no randomness; pair it with a deterministic
/// channel and the whole exchange is a pure function of the seed.
///
/// Per-link state lives in flat `[src][dst]` tables sized to the
/// largest member id yet written, so sending, acknowledging,
/// deduplicating and the retry scan index instead of searching. The
/// tables hold `(largest id + 1)²` links: members are meant to be
/// numbered densely from 0.
#[derive(Debug, Clone, PartialEq)]
pub struct CommsNetwork<M> {
    policy: CommsPolicy,
    payloads: PayloadSlab<M>,
    data: DeliveryQueue<Flight>,
    acks: DeliveryQueue<AckFlight>,
    links: LinkTable<Link>,
    /// Each link's unacknowledged messages, in sequence order.
    pending: LinkTable<Vec<Pending>>,
    /// Messages in `pending`.
    unacked: usize,
    stats: CommsStats,
    // Scratch buffers reused across `step` calls. Always drained
    // empty before a call returns, so the derived `PartialEq` (which
    // sees only empty vectors) and `Clone` stay honest.
    flight_scratch: Vec<Flight>,
    ack_scratch: Vec<AckFlight>,
}

impl<M: Clone> CommsNetwork<M> {
    /// Creates an empty network under `policy`.
    ///
    /// # Panics
    ///
    /// Panics if a reliable policy's `half_life` is not strictly
    /// positive.
    #[must_use]
    pub fn new(policy: CommsPolicy) -> Self {
        if let CommsPolicy::Reliable(cfg) = policy {
            assert!(
                cfg.half_life.is_finite() && cfg.half_life > 0.0,
                "half_life must be positive"
            );
        }
        Self {
            policy,
            payloads: PayloadSlab::new(),
            data: DeliveryQueue::new(),
            acks: DeliveryQueue::new(),
            links: LinkTable::new(),
            pending: LinkTable::new(),
            unacked: 0,
            stats: CommsStats::default(),
            flight_scratch: Vec::new(),
            ack_scratch: Vec::new(),
        }
    }

    /// Lifetime counters, cloned out: the per-link attribution maps
    /// make [`CommsStats`] non-`Copy`.
    #[must_use]
    pub fn stats(&self) -> CommsStats {
        self.stats.clone()
    }

    /// Messages sent but not yet acknowledged (reliable mode).
    #[must_use]
    pub fn unacked(&self) -> usize {
        self.unacked
    }

    fn bump_seq(&mut self, src: usize, dst: usize) -> u64 {
        let link = self.links.entry(src, dst);
        let seq = link.seq;
        link.seq += 1;
        seq
    }

    /// Records that `observer` heard from `peer` at `now`.
    fn heard(&mut self, observer: usize, peer: usize, now: Tick) {
        self.links.entry(observer, peer).last_heard = now.0;
    }

    /// One raw channel attempt, with partition-transition logging.
    fn transmit_logged<C: Channel + ?Sized>(
        &mut self,
        ch: &C,
        src: usize,
        dst: usize,
        wire_seq: u64,
        now: Tick,
        log: &mut ExplanationLog,
    ) -> ChannelOutcome {
        let o = ch.transmit(src, dst, wire_seq, now);
        if o.partitioned {
            self.stats.partition_hits += 1;
            let link = self.links.entry(src, dst);
            if !link.partitioned {
                link.partitioned = true;
                log.record(Explanation::new(now, "comms:partition").link(src, dst));
            }
        } else if let Some(link) = self.links.get_mut(src, dst).filter(|l| l.partitioned) {
            link.partitioned = false;
            log.record(Explanation::new(now, "comms:heal").link(src, dst));
        }
        o
    }

    #[allow(clippy::too_many_arguments)] // first-send and retransmit share this path; attempt is the only extra knob
    fn launch<C: Channel + ?Sized>(
        &mut self,
        ch: &C,
        src: usize,
        dst: usize,
        seq: u64,
        attempt: u32,
        slot: u32,
        now: Tick,
        log: &mut ExplanationLog,
    ) {
        self.stats.sent += 1;
        let wire_seq = seq | (u64::from(attempt) << ATTEMPT_SHIFT);
        let o = self.transmit_logged(ch, src, dst, wire_seq, now, log);
        for at in o.arrivals.iter() {
            // Each airborne copy holds one slab reference; the body
            // itself is never duplicated.
            self.payloads.incref(slot);
            self.data.schedule(
                at,
                Flight {
                    src,
                    dst,
                    seq,
                    wire_seq,
                    slot,
                },
            );
        }
    }

    /// Sends `payload` from `src` to `dst`. Returns the per-link
    /// sequence number. In reliable mode the message is tracked until
    /// acked, expired, or out of retry budget.
    ///
    /// The payload is stored once in a reference-counted slab shared
    /// by every in-flight duplicate and the retry buffer: sending and
    /// retrying never clone the message body.
    pub fn send<C: Channel + ?Sized>(
        &mut self,
        ch: &C,
        src: usize,
        dst: usize,
        payload: M,
        now: Tick,
        log: &mut ExplanationLog,
    ) -> u64 {
        let _span = obs::span("comms");
        let seq = self.bump_seq(src, dst);
        let slot = self.payloads.insert(payload);
        if let CommsPolicy::Reliable(cfg) = self.policy {
            // The slab reference created by `insert` transfers to the
            // pending entry (released on ack or expiry). A link's
            // sequence numbers only grow, so the push keeps its
            // pending list in sequence order.
            self.pending.entry(src, dst).push(Pending {
                seq,
                slot,
                sent_at: now.0,
                // Saturating: `retry_backoff` is caller-supplied and
                // may be huge; a saturated deadline simply means "never
                // retries before the timeout".
                next_retry: now.0.saturating_add(cfg.retry_backoff),
                attempts: 1,
            });
            self.unacked += 1;
            self.launch(ch, src, dst, seq, 0, slot, now, log);
        } else {
            self.launch(ch, src, dst, seq, 0, slot, now, log);
            // Fire-and-forget: only airborne copies keep the body
            // alive, so a lost frame frees its slot immediately.
            self.payloads.decref(slot);
        }
        seq
    }

    /// Advances the protocol one tick: lands acks, delivers due
    /// frames (deduped in reliable mode, acknowledged back through
    /// the same lossy channel), retries what the backoff says is due,
    /// and expires what is out of budget or past its timeout. Appends
    /// the messages that reached their receiver this tick to `out`
    /// (not cleared first), in deterministic (arrival, send-order)
    /// order; with a reused buffer the steady-state send/deliver/ack
    /// cycle performs no heap allocation per message.
    ///
    /// Each retransmission launched counts one `CommsRetry` fire in
    /// `log`'s ledger. While `log`'s intervention mask suppresses
    /// `CommsRetry` (see [`crate::replay`]), pending messages still
    /// age, back off and expire on exactly the factual schedule; only
    /// the retransmission itself (and its stats and log footprint) is
    /// withheld. The network consumes no randomness either way.
    pub fn step_into<C: Channel + ?Sized>(
        &mut self,
        ch: &C,
        now: Tick,
        log: &mut ExplanationLog,
        out: &mut Vec<Delivered<M>>,
    ) {
        let _span = obs::span("comms");
        // 1. Acks coming home confirm pending messages (before the
        // retry scan, so an acked message never retries this tick).
        self.land_acks(now);

        // 2. Retries and expiries — before the delivery phase, so a
        // zero-delay retransmission can still land this same tick.
        self.drive_pending(ch, now, log);

        // 3. Data frames landing now.
        let reliable = matches!(self.policy, CommsPolicy::Reliable(_));
        let mut flights = std::mem::take(&mut self.flight_scratch);
        self.data.drain_due_into(now, &mut flights);
        for f in flights.drain(..) {
            let fresh = !reliable || self.links.entry(f.src, f.dst).seen.mark(f.seq);
            if fresh {
                self.stats.delivered += 1;
                self.heard(f.dst, f.src, now);
                out.push(Delivered {
                    src: f.src,
                    dst: f.dst,
                    seq: f.seq,
                    // The one deliberate copy: the receiver owns its
                    // message (trivial for the `Copy` payloads the
                    // substrates use).
                    payload: self.payloads.get(f.slot).clone(),
                });
            } else {
                self.stats.duplicates += 1;
            }
            self.payloads.decref(f.slot);
            if reliable {
                // Ack every copy (the ack for an earlier copy may
                // itself have been lost); the ack rides the reverse
                // link and is just as mortal as the data was.
                let o = self.transmit_logged(ch, f.dst, f.src, f.wire_seq | ACK_BIT, now, log);
                if let Some(at) = o.arrivals.first() {
                    self.acks.schedule(
                        at,
                        AckFlight {
                            src: f.src,
                            dst: f.dst,
                            seq: f.seq,
                        },
                    );
                }
            }
        }
        self.flight_scratch = flights;

        // 4. Acks generated by this tick's deliveries may arrive in
        // the same tick on a zero-delay link; land them now so an
        // ideal channel leaves nothing pending across ticks.
        self.land_acks(now);
    }

    fn land_acks(&mut self, now: Tick) {
        let mut acks = std::mem::take(&mut self.ack_scratch);
        self.acks.drain_due_into(now, &mut acks);
        for a in acks.drain(..) {
            let Some(pending) = self.pending.get_mut(a.src, a.dst) else {
                continue;
            };
            let Ok(i) = pending.binary_search_by_key(&a.seq, |p| p.seq) else {
                continue;
            };
            let p = pending.remove(i);
            self.unacked -= 1;
            self.stats.acked += 1;
            self.heard(a.src, a.dst, now);
            self.payloads.decref(p.slot);
        }
        self.ack_scratch = acks;
    }

    /// Retries and expires what is due: links in `(src, dst)` order,
    /// each link's messages in sequence order.
    fn drive_pending<C: Channel + ?Sized>(&mut self, ch: &C, now: Tick, log: &mut ExplanationLog) {
        let CommsPolicy::Reliable(cfg) = self.policy else {
            return;
        };
        if self.unacked == 0 {
            return;
        }
        let retry = log.mask().allows(InterventionClass::CommsRetry);
        let width = self.pending.width;
        for i in 0..self.pending.cells.len() {
            if self.pending.cells[i].is_empty() {
                continue;
            }
            let (src, dst) = (i / width, i % width);
            // Out of the table for the scan, since a retry launches
            // through `self`; put back below.
            let mut pending = std::mem::take(&mut self.pending.cells[i]);
            pending.retain_mut(|p| {
                if p.next_retry > now.0 {
                    return true;
                }
                // The retry budget is checked first (the crisper signal
                // when both trip on the same tick), so the stats can
                // tell it from the send timeout.
                let out_of_budget = p.attempts >= cfg.retry_budget;
                if out_of_budget || now.0.saturating_sub(p.sent_at) >= cfg.send_timeout {
                    self.expire(src, dst, p, out_of_budget, now, log);
                    return false;
                }
                let attempt = p.attempts;
                p.attempts += 1;
                // `1 << attempt.min(16)` cannot overflow: the literal is
                // inferred as u64 from the `saturating_mul` receiver, and
                // the shift amount is clamped to 16 ≪ 64, so the factor
                // is at most 2¹⁶. The multiply saturates, and the
                // deadline add below must too — `backoff_max` is
                // caller-supplied and may be near `u64::MAX`, where
                // `now + backoff` would overflow (a panic in debug, a
                // *past-due* wrapped deadline in release; the
                // regression tests cover both).
                let backoff = cfg
                    .retry_backoff
                    .saturating_mul(1 << attempt.min(16))
                    .min(cfg.backoff_max.max(1));
                p.next_retry = now.0.saturating_add(backoff);
                // Masked retry (counterfactual replay): the pending entry
                // above already aged and backed off exactly as in the
                // factual run — withholding only the wire attempt keeps
                // expiry timing bit-identical.
                if retry {
                    self.stats.retries += 1;
                    log.fired(InterventionClass::CommsRetry);
                    log.record(
                        Explanation::new(now, "comms:retry")
                            .anchoring(InterventionClass::CommsRetry)
                            .link(src, dst)
                            .because("seq", p.seq as f64)
                            .because("attempt", f64::from(attempt))
                            .because("backoff", backoff as f64),
                    );
                    // Retransmits straight out of the slab: no payload
                    // clone, however many attempts the budget allows.
                    self.launch(ch, src, dst, p.seq, attempt, p.slot, now, log);
                }
                true
            });
            self.pending.cells[i] = pending;
        }
    }

    /// Abandons `p`, sent on `src → dst`, out of retry budget or past
    /// its send timeout.
    fn expire(
        &mut self,
        src: usize,
        dst: usize,
        p: &Pending,
        out_of_budget: bool,
        now: Tick,
        log: &mut ExplanationLog,
    ) {
        self.unacked -= 1;
        self.stats.expired += 1;
        *self.stats.expired_by_link.entry((src, dst)).or_insert(0) += 1;
        if out_of_budget {
            self.stats.budget_exhausted += 1;
            *self
                .stats
                .budget_exhausted_by_link
                .entry((src, dst))
                .or_insert(0) += 1;
        }
        self.payloads.decref(p.slot);
        log.record(
            Explanation::new(now, "comms:expire")
                .link(src, dst)
                .because("seq", p.seq as f64)
                .because("attempts", f64::from(p.attempts))
                .because("age", now.0.saturating_sub(p.sent_at) as f64)
                .because("out_of_budget", f64::from(u8::from(out_of_budget))),
        );
    }

    /// A latency-bound request/response exchange (`a` asks, `b`
    /// answers): succeeds only when both directions land in the same
    /// tick. Updates staleness tracking for whichever directions got
    /// through. Used for auction ask/bid rounds where a late answer
    /// is as useless as a lost one.
    pub fn probe_roundtrip<C: Channel + ?Sized>(
        &mut self,
        ch: &C,
        a: usize,
        b: usize,
        now: Tick,
        log: &mut ExplanationLog,
    ) -> bool {
        let _span = obs::span("comms");
        let seq = self.bump_seq(a, b);
        self.stats.sent += 1;
        let ask = self.transmit_logged(ch, a, b, seq, now, log);
        if !ask.arrives_at(now) {
            self.stats.exchange_failures += 1;
            return false;
        }
        self.stats.delivered += 1;
        self.heard(b, a, now);
        let rseq = self.bump_seq(b, a);
        self.stats.sent += 1;
        let reply = self.transmit_logged(ch, b, a, rseq, now, log);
        if !reply.arrives_at(now) {
            self.stats.exchange_failures += 1;
            return false;
        }
        self.stats.delivered += 1;
        self.heard(a, b, now);
        true
    }

    /// A one-shot, same-tick transmission with sender-visible outcome
    /// (models a transfer whose completion the sender can observe).
    pub fn fire_once<C: Channel + ?Sized>(
        &mut self,
        ch: &C,
        src: usize,
        dst: usize,
        now: Tick,
        log: &mut ExplanationLog,
    ) -> bool {
        let _span = obs::span("comms");
        let seq = self.bump_seq(src, dst);
        self.stats.sent += 1;
        let o = self.transmit_logged(ch, src, dst, seq, now, log);
        if o.arrives_at(now) {
            self.stats.delivered += 1;
            self.heard(dst, src, now);
            true
        } else {
            self.stats.exchange_failures += 1;
            false
        }
    }

    /// Ticks since `observer` last heard from `peer` (never heard =
    /// ticks since the start of the run).
    #[must_use]
    pub fn staleness(&self, observer: usize, peer: usize, now: Tick) -> u64 {
        let heard = self.links.get(observer, peer).map_or(0, |l| l.last_heard);
        now.0.saturating_sub(heard)
    }

    /// The staleness discount `observer` should apply to knowledge
    /// about `peer`: `0.5^(staleness/half_life)`, 1.0 when fresh.
    /// Naive mode never discounts — it has no staleness model at all.
    #[must_use]
    pub fn freshness(&self, observer: usize, peer: usize, now: Tick) -> f64 {
        match self.policy {
            CommsPolicy::Naive => 1.0,
            CommsPolicy::Reliable(cfg) => {
                0.5_f64.powf(self.staleness(observer, peer, now) as f64 / cfg.half_life)
            }
        }
    }
}

/// When a [`CommandPlane`] re-sends an agent's standing order although
/// it has not changed. Each plane that gives orders picks one in code.
pub enum Reissue<R, O> {
    /// Every `period` ticks, phased by agent id: agent `a` at the ticks
    /// `t` with `t % period == a % period`, under either comms policy.
    Periodic {
        /// Ticks between re-sends.
        period: u64,
    },
    /// While the agent's newest report contradicts the order, once
    /// `after` ticks have passed since the order was issued. Only a
    /// staleness-aware plane re-issues: a naive controller assumes its
    /// orders land.
    OnContradiction {
        /// Ticks an order stands before it may be re-sent.
        after: u64,
        /// Whether a report contradicts an order.
        contradicts: fn(&R, &O) -> bool,
    },
}

/// Why [`CommandPlane::command`] sends an order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Issue {
    /// The order differs from the agent's standing order.
    Change,
    /// The unchanged standing order, re-sent under the [`Reissue`] rule.
    Reissue,
}

/// What a command plane's network carries.
#[derive(Debug, Clone)]
enum Frame<R, O> {
    Report(R),
    Order(O),
}

/// Whether `seq` is newer than a watermark: a delayed or duplicated
/// frame older than the newest one landed must not roll state back.
fn newer(watermark: Option<u64>, seq: u64) -> bool {
    watermark.is_none_or(|s| seq > s)
}

/// A controller and its agents over one [`CommsNetwork`]: reports `R`
/// flow from the agents to the controller, orders `O` from the
/// controller. Comms ids `0..agents` are the agents, `agents` is the
/// controller, and a higher id may receive orders too.
///
/// The plane is the controller's public self-awareness (paper §IV):
/// what each agent last reported, and which order each stands under.
/// It keeps each agent's dead flag, and every frame crosses a view of
/// the channel that loses frames to and from a dead agent (with none
/// dead, the view transmits exactly as the channel); the newest report
/// from each agent, which an older one never overwrites; each
/// destination's order watermark, which only an order the caller
/// applies advances; and each agent's standing order, the tick it was
/// issued and the [`Reissue`] rule. What a report carries and what a
/// landed order does stay with the caller.
///
/// ```
/// use selfaware::comms::{CommandPlane, CommsPolicy, IdealChannel};
/// use selfaware::explain::ExplanationLog;
/// use simkernel::Tick;
///
/// // Two agents report a load; the controller starts believing 0.
/// let policy = CommsPolicy::default();
/// let mut plane = CommandPlane::new(policy, IdealChannel, vec![0, 0]);
/// let mut log = ExplanationLog::new(16);
/// plane.send_report(1, 7, Tick(0), &mut log);
/// plane.step(Tick(0), &mut log, |_, ()| true);
/// assert_eq!(plane.reports(), &[0, 7]);
/// ```
pub struct CommandPlane<R, O, C> {
    net: CommsNetwork<Frame<R, O>>,
    channel: AgentLiveChannel<C>,
    /// Delivery buffer reused every tick.
    inbox: Vec<Delivered<Frame<R, O>>>,
    reports: Vec<R>,
    report_seq: Vec<Option<u64>>,
    order_seq: Vec<Option<u64>>,
    standing: Vec<Option<O>>,
    issued_at: Vec<u64>,
    reissue: Option<Reissue<R, O>>,
}

impl<R: Clone, O: Clone + PartialEq, C: Channel> CommandPlane<R, O, C> {
    /// A plane of one agent per entry of `reports`, each entry the
    /// controller's belief until that agent's first report lands. No
    /// agent has a standing order, and without
    /// [`CommandPlane::with_orders`] none is ever re-issued.
    #[must_use]
    pub fn new(policy: CommsPolicy, channel: C, reports: Vec<R>) -> Self {
        let agents = reports.len();
        Self {
            net: CommsNetwork::new(policy),
            channel: AgentLiveChannel {
                inner: channel,
                dead: vec![false; agents],
            },
            inbox: Vec::new(),
            reports,
            report_seq: vec![None; agents],
            order_seq: vec![None; agents],
            standing: vec![None; agents],
            issued_at: vec![0; agents],
            reissue: None,
        }
    }

    /// Gives every agent `standing` as its standing order (`None`: no
    /// order yet), which [`CommandPlane::command`] re-sends under
    /// `reissue`.
    #[must_use]
    pub fn with_orders(mut self, reissue: Reissue<R, O>, standing: Option<O>) -> Self {
        self.standing.fill(standing);
        self.reissue = Some(reissue);
        self
    }

    /// The controller's comms id.
    fn controller(&self) -> usize {
        self.reports.len()
    }

    /// Marks `agent` dead or alive for this tick.
    pub fn set_dead(&mut self, agent: usize, dead: bool) {
        self.channel.dead[agent] = dead;
    }

    /// Sends `report` from `agent` to the controller, unless the agent
    /// is dead.
    pub fn send_report(&mut self, agent: usize, report: R, now: Tick, log: &mut ExplanationLog) {
        if !self.channel.dead[agent] {
            let (ch, ctrl) = (&self.channel, self.controller());
            self.net
                .send(ch, agent, ctrl, Frame::Report(report), now, log);
        }
    }

    /// Sends `order` from the controller to `dst` once, outside any
    /// standing order.
    pub fn send_order(&mut self, dst: usize, order: O, now: Tick, log: &mut ExplanationLog) {
        let (ch, ctrl) = (&self.channel, self.controller());
        self.net.send(ch, ctrl, dst, Frame::Order(order), now, log);
    }

    /// Makes `order` the standing order of `agent`. It is sent when it
    /// changes the standing order or, unchanged, when the [`Reissue`]
    /// rule says it is due and `log`'s intervention mask allows
    /// `CommsReissue`, which then counts one fire in `log`'s ledger.
    /// Just before the send, `note` gets why the order goes out and the
    /// agent's newest report, so the caller's records precede any the
    /// send makes.
    pub fn command(
        &mut self,
        agent: usize,
        order: O,
        now: Tick,
        log: &mut ExplanationLog,
        note: impl FnOnce(Issue, &R, &mut ExplanationLog),
    ) {
        let due = log.mask().allows(InterventionClass::CommsReissue)
            && match &self.reissue {
                Some(Reissue::Periodic { period }) => now.0 % period == agent as u64 % period,
                Some(Reissue::OnContradiction { after, contradicts }) => {
                    !self.net.policy.is_naive()
                        && contradicts(&self.reports[agent], &order)
                        && now.0.saturating_sub(self.issued_at[agent]) >= *after
                }
                None => false,
            };
        let issue = if self.standing[agent].as_ref() != Some(&order) {
            Issue::Change
        } else if due {
            log.fired(InterventionClass::CommsReissue);
            Issue::Reissue
        } else {
            return;
        };
        note(issue, &self.reports[agent], log);
        let (ch, ctrl) = (&self.channel, self.controller());
        self.net
            .send(ch, ctrl, agent, Frame::Order(order.clone()), now, log);
        self.standing[agent] = Some(order);
        self.issued_at[agent] = now.0;
    }

    /// A one-shot probe from the controller to `agent`; true when it
    /// lands this tick (see [`CommsNetwork::fire_once`]).
    pub fn probe(&mut self, agent: usize, now: Tick, log: &mut ExplanationLog) -> bool {
        let (ch, ctrl) = (&self.channel, self.controller());
        self.net.fire_once(ch, ctrl, agent, now, log)
    }

    /// Advances the network one tick and lands what arrives. A report
    /// newer than the controller's newest from its agent replaces it.
    /// An order newer than its destination's watermark goes to
    /// `apply(dst, order)`, which says whether the destination applied
    /// it; only an applied order advances the watermark.
    pub fn step(
        &mut self,
        now: Tick,
        log: &mut ExplanationLog,
        mut apply: impl FnMut(usize, O) -> bool,
    ) {
        self.net.step_into(&self.channel, now, log, &mut self.inbox);
        for d in self.inbox.drain(..) {
            match d.payload {
                Frame::Report(report) => {
                    if newer(self.report_seq[d.src], d.seq) {
                        self.report_seq[d.src] = Some(d.seq);
                        self.reports[d.src] = report;
                    }
                }
                Frame::Order(order) => {
                    if d.dst >= self.order_seq.len() {
                        self.order_seq.resize(d.dst + 1, None);
                    }
                    if newer(self.order_seq[d.dst], d.seq) && apply(d.dst, order) {
                        self.order_seq[d.dst] = Some(d.seq);
                    }
                }
            }
        }
    }

    /// The controller's newest report from each agent, by id.
    #[must_use]
    pub fn reports(&self) -> &[R] {
        &self.reports
    }

    /// How far the controller trusts what it last heard from `agent`
    /// (see [`CommsNetwork::freshness`]).
    #[must_use]
    pub fn freshness(&self, agent: usize, now: Tick) -> f64 {
        self.net.freshness(self.controller(), agent, now)
    }

    /// The network's lifetime counters.
    #[must_use]
    pub fn stats(&self) -> &CommsStats {
        &self.net.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay::InterventionMask;
    use std::collections::BTreeSet;

    /// A scriptable channel: drops wire frames whose (src, dst,
    /// wire_seq) is listed, delays others by a fixed amount.
    #[derive(Default)]
    struct ScriptChannel {
        drop: BTreeSet<(usize, usize, u64)>,
        delay: u64,
        partition_all: bool,
    }

    impl Channel for ScriptChannel {
        fn transmit(&self, src: usize, dst: usize, seq: u64, now: Tick) -> ChannelOutcome {
            if self.partition_all {
                return ChannelOutcome {
                    arrivals: Arrivals::new(),
                    partitioned: true,
                };
            }
            if self.drop.contains(&(src, dst, seq)) {
                return ChannelOutcome::lost();
            }
            ChannelOutcome::delivered(Tick(now.0 + self.delay))
        }
    }

    fn log() -> ExplanationLog {
        ExplanationLog::new(128)
    }

    /// One protocol tick, returning what was delivered.
    fn step<M: Clone, C: Channel>(
        net: &mut CommsNetwork<M>,
        ch: &C,
        now: Tick,
        l: &mut ExplanationLog,
    ) -> Vec<Delivered<M>> {
        let mut out = Vec::new();
        net.step_into(ch, now, l, &mut out);
        out
    }

    #[test]
    fn ideal_channel_delivers_same_tick() {
        let mut net: CommsNetwork<u32> = CommsNetwork::new(CommsPolicy::default());
        let mut l = log();
        net.send(&IdealChannel, 0, 1, 42, Tick(3), &mut l);
        let got = step(&mut net, &IdealChannel, Tick(3), &mut l);
        assert_eq!(got.len(), 1);
        assert_eq!((got[0].src, got[0].dst, got[0].payload), (0, 1, 42));
        // Ack lands the same tick too: nothing pending afterwards.
        assert_eq!(net.unacked(), 0);
        assert_eq!(net.stats().acked, 1);
        assert_eq!(net.staleness(1, 0, Tick(3)), 0);
    }

    #[test]
    fn lost_first_attempt_is_retried_and_delivered() {
        let mut ch = ScriptChannel::default();
        // Drop the first attempt (attempt bits 0) of seq 0 on 0->1.
        ch.drop.insert((0, 1, 0));
        let mut net: CommsNetwork<u32> = CommsNetwork::new(CommsPolicy::default());
        let mut l = log();
        net.send(&ch, 0, 1, 7, Tick(0), &mut l);
        assert!(step(&mut net, &ch, Tick(0), &mut l).is_empty());
        assert!(step(&mut net, &ch, Tick(1), &mut l).is_empty());
        // Backoff 2 -> retry fires at t2 with attempt 1 and lands.
        let got = step(&mut net, &ch, Tick(2), &mut l);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].payload, 7);
        assert_eq!(net.stats().retries, 1);
        assert_eq!(net.unacked(), 0);
        assert!(l.iter().any(|e| e.kind == "comms:retry"));
    }

    #[test]
    fn duplicates_are_suppressed_in_reliable_mode() {
        struct Dup;
        impl Channel for Dup {
            fn transmit(&self, _s: usize, _d: usize, _q: u64, now: Tick) -> ChannelOutcome {
                ChannelOutcome {
                    arrivals: [now, Tick(now.0 + 1)].into_iter().collect(),
                    partitioned: false,
                }
            }
        }
        let mut net: CommsNetwork<u32> = CommsNetwork::new(CommsPolicy::default());
        let mut l = log();
        net.send(&Dup, 0, 1, 9, Tick(0), &mut l);
        assert_eq!(step(&mut net, &Dup, Tick(0), &mut l).len(), 1);
        assert!(step(&mut net, &Dup, Tick(1), &mut l).is_empty());
        assert_eq!(net.stats().duplicates, 1);

        // Naive mode happily double-delivers.
        let mut naive: CommsNetwork<u32> = CommsNetwork::new(CommsPolicy::Naive);
        naive.send(&Dup, 0, 1, 9, Tick(0), &mut l);
        assert_eq!(step(&mut naive, &Dup, Tick(0), &mut l).len(), 1);
        assert_eq!(step(&mut naive, &Dup, Tick(1), &mut l).len(), 1);
    }

    #[test]
    fn naive_mode_never_retries() {
        let mut ch = ScriptChannel::default();
        ch.drop.insert((0, 1, 0));
        let mut net: CommsNetwork<u32> = CommsNetwork::new(CommsPolicy::Naive);
        let mut l = log();
        net.send(&ch, 0, 1, 5, Tick(0), &mut l);
        for t in 0..50 {
            assert!(step(&mut net, &ch, Tick(t), &mut l).is_empty());
        }
        assert_eq!(net.stats().retries, 0);
        assert_eq!(net.stats().sent, 1);
    }

    #[test]
    fn partition_expires_messages_and_logs_transitions() {
        let mut ch = ScriptChannel {
            partition_all: true,
            ..ScriptChannel::default()
        };
        let cfg = ReliableConfig {
            retry_budget: 3,
            send_timeout: 100,
            ..ReliableConfig::default()
        };
        let mut net: CommsNetwork<u32> = CommsNetwork::new(CommsPolicy::Reliable(cfg));
        let mut l = log();
        net.send(&ch, 2, 3, 1, Tick(0), &mut l);
        for t in 0..40 {
            step(&mut net, &ch, Tick(t), &mut l);
        }
        assert_eq!(net.stats().expired, 1);
        assert_eq!(net.unacked(), 0);
        assert!(net.stats().partition_hits >= 3);
        let partitions = l.iter().filter(|e| e.action() == "comms:partition:2->3");
        assert_eq!(partitions.count(), 1);
        assert!(l.iter().any(|e| e.kind == "comms:expire"));
        // A 3-retry budget runs out long before the 100-tick timeout,
        // and the loss is attributed to the 2→3 link.
        assert_eq!(net.stats().budget_exhausted, 1);
        assert_eq!(net.stats().link_expired(2, 3), 1);
        assert_eq!(net.stats().link_budget_exhausted(2, 3), 1);
        assert_eq!(net.stats().link_expired(3, 2), 0);

        // Healing is logged once the link carries a frame again.
        ch.partition_all = false;
        net.send(&ch, 2, 3, 2, Tick(50), &mut l);
        let heals = l.iter().filter(|e| e.action() == "comms:heal:2->3");
        assert_eq!(heals.count(), 1);
    }

    /// The default protocol's whole life over a channel that loses
    /// every frame: the backoff doubles from 2 up to its 32-tick cap,
    /// and the 120-tick `send_timeout` expires the message after its
    /// seventh transmission, before the 8-send `retry_budget` binds.
    #[test]
    fn default_policy_retries_until_the_timeout_not_the_budget() {
        struct LoseAll(std::cell::RefCell<Vec<u64>>);
        impl Channel for LoseAll {
            fn transmit(&self, _s: usize, _d: usize, _q: u64, now: Tick) -> ChannelOutcome {
                self.0.borrow_mut().push(now.0);
                ChannelOutcome::lost()
            }
        }
        let ch = LoseAll(std::cell::RefCell::default());
        let mut net: CommsNetwork<u32> = CommsNetwork::new(CommsPolicy::default());
        let mut l = log();
        net.send(&ch, 0, 1, 3, Tick(0), &mut l);
        for t in 0..=200 {
            step(&mut net, &ch, Tick(t), &mut l);
        }
        assert_eq!(*ch.0.borrow(), [0, 2, 6, 14, 30, 62, 94]);
        let expiries: Vec<&Explanation> = l.iter().filter(|e| e.kind == "comms:expire").collect();
        assert_eq!(expiries.len(), 1);
        assert_eq!(expiries[0].at, Tick(126));
        assert!(expiries[0].factors().contains(&("out_of_budget", 0.0)));
        let s = net.stats();
        assert_eq!((s.sent, s.retries, s.expired), (7, 6, 1));
        assert_eq!(s.budget_exhausted, 0);
        assert_eq!(net.unacked(), 0);
    }

    #[test]
    fn timeout_expiry_is_not_counted_as_budget_exhaustion() {
        // A generous retry budget with a tight send timeout: the
        // message expires by age, so the aggregate `expired` counter
        // and the per-link map tick but `budget_exhausted` stays 0.
        let mut ch = ScriptChannel {
            partition_all: true,
            ..ScriptChannel::default()
        };
        let cfg = ReliableConfig {
            retry_budget: 1_000,
            retry_backoff: 1,
            backoff_max: 1,
            send_timeout: 5,
            ..ReliableConfig::default()
        };
        let mut net: CommsNetwork<u32> = CommsNetwork::new(CommsPolicy::Reliable(cfg));
        let mut l = log();
        net.send(&ch, 7, 8, 1, Tick(0), &mut l);
        for t in 0..20 {
            step(&mut net, &ch, Tick(t), &mut l);
        }
        let s = net.stats();
        assert_eq!(s.expired, 1);
        assert_eq!(s.budget_exhausted, 0);
        assert_eq!(s.link_expired(7, 8), 1);
        assert_eq!(s.link_budget_exhausted(7, 8), 0);
        // The healed link carries traffic again without phantom
        // attribution to other links.
        ch.partition_all = false;
        net.send(&ch, 8, 7, 2, Tick(30), &mut l);
        step(&mut net, &ch, Tick(30), &mut l);
        assert_eq!(net.stats().link_expired(8, 7), 0);
        assert!(s.to_json().get("expired_by_link").is_some());
    }

    #[test]
    fn ack_loss_causes_duplicate_then_reack() {
        // Data always passes; the first ack frame is dropped, so the
        // sender retries, the receiver dedups and re-acks.
        struct AckDrop;
        impl Channel for AckDrop {
            fn transmit(&self, _s: usize, _d: usize, seq: u64, now: Tick) -> ChannelOutcome {
                // Drop exactly the ack of attempt 0 of seq 0.
                if seq == ACK_BIT {
                    return ChannelOutcome::lost();
                }
                ChannelOutcome::delivered(now)
            }
        }
        let mut net: CommsNetwork<u32> = CommsNetwork::new(CommsPolicy::default());
        let mut l = log();
        net.send(&AckDrop, 0, 1, 3, Tick(0), &mut l);
        assert_eq!(step(&mut net, &AckDrop, Tick(0), &mut l).len(), 1);
        assert_eq!(net.unacked(), 1);
        step(&mut net, &AckDrop, Tick(1), &mut l);
        step(&mut net, &AckDrop, Tick(2), &mut l);
        assert_eq!(net.stats().duplicates, 1);
        assert_eq!(net.unacked(), 0);
        assert_eq!(net.stats().delivered, 1);
    }

    #[test]
    fn probe_roundtrip_and_fire_once_track_staleness() {
        let mut net: CommsNetwork<()> = CommsNetwork::new(CommsPolicy::default());
        let mut l = log();
        assert!(net.probe_roundtrip(&IdealChannel, 4, 5, Tick(10), &mut l));
        assert_eq!(net.staleness(4, 5, Tick(12)), 2);
        assert_eq!(net.staleness(5, 4, Tick(12)), 2);
        // Unheard peers are stale since the epoch.
        assert_eq!(net.staleness(4, 9, Tick(12)), 12);
        let mut dead = ScriptChannel {
            partition_all: true,
            ..ScriptChannel::default()
        };
        assert!(!net.probe_roundtrip(&dead, 4, 5, Tick(13), &mut l));
        assert!(!net.fire_once(&dead, 4, 5, Tick(13), &mut l));
        dead.partition_all = false;
        assert!(net.fire_once(&dead, 4, 5, Tick(14), &mut l));
        assert_eq!(net.stats().exchange_failures, 2);
    }

    #[test]
    fn freshness_is_flat_for_naive_and_decays_for_reliable() {
        let naive: CommsNetwork<()> = CommsNetwork::new(CommsPolicy::Naive);
        assert!((naive.freshness(0, 1, Tick(1000)) - 1.0).abs() < 1e-12);
        let rel: CommsNetwork<()> = CommsNetwork::new(CommsPolicy::default());
        let f = rel.freshness(0, 1, Tick(40));
        assert!((f - 0.5).abs() < 1e-12, "{f}");
    }

    /// A channel that delivers each listed wire frame at the given
    /// delays (several = duplicates) and every other frame at once.
    #[derive(Default)]
    struct Delays(BTreeMap<(usize, usize, u64), Vec<u64>>);

    impl Channel for Delays {
        fn transmit(&self, src: usize, dst: usize, seq: u64, now: Tick) -> ChannelOutcome {
            let delays = self.0.get(&(src, dst, seq)).map_or(&[0][..], Vec::as_slice);
            ChannelOutcome {
                arrivals: delays.iter().map(|d| Tick(now.0 + d)).collect(),
                partitioned: false,
            }
        }
    }

    fn plane<C: Channel>(
        policy: CommsPolicy,
        channel: C,
        reports: Vec<u32>,
    ) -> CommandPlane<u32, u32, C> {
        CommandPlane::new(policy, channel, reports)
    }

    #[test]
    fn older_and_duplicate_reports_never_overwrite_newer_ones() {
        for policy in [CommsPolicy::Naive, CommsPolicy::default()] {
            // Agent 0's first report (seq 0) lands late and twice; its
            // second (seq 1) overtakes it. A reliable plane also
            // retransmits the first one at tick 2.
            let mut ch = Delays::default();
            ch.0.insert((0, 1, 0), vec![3, 5]);
            let mut p = plane(policy, ch, vec![0]);
            let mut l = log();
            let mut seen = Vec::new();
            for t in 0..7 {
                let report = [Some(10), Some(20)].get(t as usize).copied().flatten();
                if let Some(r) = report {
                    p.send_report(0, r, Tick(t), &mut l);
                }
                p.step(Tick(t), &mut l, |_, _| true);
                seen.push(p.reports()[0]);
            }
            assert_eq!(seen, [0, 20, 20, 20, 20, 20, 20], "{policy:?}");
        }
    }

    #[test]
    fn a_declined_order_does_not_advance_the_watermark() {
        // Every order arrives twice, one tick apart; the naive policy
        // hands both copies up.
        let mut ch = Delays::default();
        ch.0.insert((1, 0, 0), vec![0, 1]);
        ch.0.insert((1, 0, 1), vec![0, 1]);
        let mut p = plane(CommsPolicy::Naive, ch, vec![0]);
        let mut l = log();
        let mut offered = Vec::new();
        for t in 0..4 {
            if t % 2 == 0 {
                p.send_order(0, 7 + t as u32, Tick(t), &mut l);
            }
            // The destination declines the first copy it is offered.
            p.step(Tick(t), &mut l, |dst, order| {
                offered.push((t, dst, order));
                t > 0
            });
        }
        // The declined copy left the watermark alone, so the duplicate
        // was offered again; the applied order's duplicate was not.
        assert_eq!(offered, [(0, 0, 7), (1, 0, 7), (2, 0, 9)]);
    }

    #[test]
    fn periodic_reissue_fires_on_its_phase_and_never_when_masked() {
        let rule = || Reissue::Periodic { period: 4 };
        let masked = InterventionMask::suppressing(InterventionClass::CommsReissue);
        for mask in [InterventionMask::allow_all(), masked] {
            let mut p = plane(CommsPolicy::default(), IdealChannel, vec![0; 3])
                .with_orders(rule(), Some(0));
            let mut l = log().with_mask(mask);
            let mut issued = Vec::new();
            for t in 0..12 {
                for z in 0..3 {
                    p.command(z, 0, Tick(t), &mut l, |why, _, _| issued.push((t, z, why)));
                }
                p.step(Tick(t), &mut l, |_, _| true);
            }
            p.command(1, 5, Tick(12), &mut l, |why, _, _| {
                issued.push((12, 1, why))
            });
            let mut want: Vec<(u64, usize, Issue)> = Vec::new();
            if mask.allows(InterventionClass::CommsReissue) {
                for t in 0..12 {
                    want.extend(
                        (0..3)
                            .filter(|z| t % 4 == z % 4)
                            .map(|z| (t, z as usize, Issue::Reissue)),
                    );
                }
            }
            want.push((12, 1, Issue::Change));
            assert_eq!(issued, want);
            assert_eq!(
                l.fires(InterventionClass::CommsReissue),
                want.len() as u64 - 1
            );
            assert_eq!(p.stats().sent, want.len() as u64);
        }
    }

    #[test]
    fn contradiction_reissue_waits_out_its_interval_and_stops_on_agreement() {
        let rule = || Reissue::OnContradiction {
            after: 40,
            contradicts: |report: &u32, order: &u32| report != order,
        };
        let masked = InterventionMask::suppressing(InterventionClass::CommsReissue);
        for (policy, mask, reissues) in [
            (
                CommsPolicy::default(),
                InterventionMask::allow_all(),
                vec![40, 80],
            ),
            (CommsPolicy::Naive, InterventionMask::allow_all(), vec![]),
            (CommsPolicy::default(), masked, vec![]),
        ] {
            // The agent reports 5 until tick 81, then the ordered 3.
            let mut p = plane(policy, IdealChannel, vec![5]).with_orders(rule(), None);
            let mut l = log().with_mask(mask);
            let mut issued = Vec::new();
            for t in 0..200 {
                p.command(0, 3, Tick(t), &mut l, |why, &report, _| {
                    issued.push((t, why, report));
                });
                if t == 81 {
                    p.send_report(0, 3, Tick(t), &mut l);
                }
                p.step(Tick(t), &mut l, |_, _| true);
            }
            let mut want = vec![(0, Issue::Change, 5)];
            want.extend(reissues.iter().map(|&t| (t, Issue::Reissue, 5)));
            assert_eq!(issued, want, "{policy:?} {mask:?}");
            assert_eq!(p.reports(), [3]);
            assert_eq!(
                l.fires(InterventionClass::CommsReissue),
                reissues.len() as u64
            );
        }
    }

    #[test]
    fn with_no_agent_dead_the_view_transmits_as_its_channel() {
        /// Loses, delays, duplicates and partitions by a hash of the
        /// frame, so every kind of outcome occurs.
        struct Hashed;
        impl Channel for Hashed {
            fn transmit(&self, src: usize, dst: usize, seq: u64, now: Tick) -> ChannelOutcome {
                let h = (src as u64 * 31 + dst as u64 * 17 + seq * 7 + now.0 * 3) % 6;
                match h {
                    0 => ChannelOutcome::lost(),
                    1 => ChannelOutcome {
                        arrivals: Arrivals::new(),
                        partitioned: true,
                    },
                    2 => ChannelOutcome::delivered(Tick(now.0 + h)),
                    3 => ChannelOutcome {
                        arrivals: [now, Tick(now.0 + 2)].into_iter().collect(),
                        partitioned: false,
                    },
                    _ => ChannelOutcome::delivered(now),
                }
            }
        }
        let mut view = AgentLiveChannel {
            inner: Hashed,
            dead: vec![false; 3],
        };
        for (src, dst, seq, now) in
            (0..5).flat_map(|s| (0..5).flat_map(move |d| (0..12).map(move |q| (s, d, q, q % 5))))
        {
            let now = Tick(now);
            assert_eq!(
                view.transmit(src, dst, seq, now),
                Hashed.transmit(src, dst, seq, now)
            );
        }
        view.dead[1] = true;
        for other in [0, 2, 4] {
            assert_eq!(view.transmit(1, other, 5, Tick(0)), ChannelOutcome::lost());
            assert_eq!(view.transmit(other, 1, 5, Tick(0)), ChannelOutcome::lost());
        }

        // A dead agent sends no report, and a probe to it fails.
        let mut p = plane(CommsPolicy::default(), IdealChannel, vec![0; 2]);
        let mut l = log();
        p.set_dead(1, true);
        p.send_report(1, 9, Tick(0), &mut l);
        assert_eq!(p.stats().sent, 0);
        assert!(!p.probe(1, Tick(0), &mut l));
        assert!(p.probe(0, Tick(0), &mut l));
    }

    #[test]
    fn seen_window_floor_treats_ancient_as_duplicates() {
        let mut w = SeenWindow::default();
        for s in 0..(SEEN_WINDOW as u64 + 10) {
            assert!(w.mark(s));
        }
        // Everything below the advanced floor reads as a duplicate.
        assert!(!w.mark(0));
        assert!(!w.mark(5));
        assert!(w.mark(SEEN_WINDOW as u64 + 50));
    }

    #[test]
    fn seen_window_tracks_reordered_and_far_jumps() {
        let mut w = SeenWindow::default();
        assert!(w.mark(3));
        assert!(w.mark(1));
        assert!(w.mark(2));
        assert!(!w.mark(3));
        assert!(!w.mark(1));
        // A far jump slides the window; in-window history survives
        // the shift, out-of-window history falls below the floor.
        let far = 3 + SEEN_WINDOW as u64 - 1;
        assert!(w.mark(far));
        assert!(!w.mark(3), "still inside the window after the slide");
        assert!(w.mark(4), "unseen in-window seq stays fresh");
        // Jump beyond the whole window: everything old is below floor.
        assert!(w.mark(far + 3 * SEEN_WINDOW as u64));
        assert!(!w.mark(far));
        assert!(!w.mark(4));
    }

    #[test]
    fn arrivals_inline_spill_and_equality() {
        let mut a = Arrivals::new();
        assert!(a.is_empty());
        assert_eq!(a.first(), None);
        for t in 0..5 {
            a.push(Tick(t));
        }
        assert_eq!(a.len(), 5);
        assert_eq!(a.first(), Some(Tick(0)));
        assert!(a.contains(Tick(4)));
        assert!(!a.contains(Tick(9)));
        let collected: Arrivals = (0..5).map(Tick).collect();
        assert_eq!(a, collected);
        assert_ne!(a, Arrivals::once(Tick(0)));
        let ticks: Vec<Tick> = a.iter().collect();
        assert_eq!(ticks, (0..5).map(Tick).collect::<Vec<_>>());
    }

    #[test]
    fn payload_slab_recycles_slots() {
        let mut slab: PayloadSlab<u32> = PayloadSlab::new();
        let a = slab.insert(10);
        let b = slab.insert(20);
        assert_ne!(a, b);
        slab.incref(a);
        slab.decref(a);
        assert_eq!(*slab.get(a), 10, "still alive while referenced");
        slab.decref(a);
        // Freed slot is recycled before the backing Vec grows.
        let c = slab.insert(30);
        assert_eq!(c, a);
        assert_eq!(*slab.get(c), 30);
        assert_eq!(*slab.get(b), 20);
        assert_eq!(slab.slots.len(), 2);
    }

    #[test]
    fn reliable_cycle_reuses_payload_slots() {
        // A long steady-state conversation must not grow the slab:
        // every send/deliver/ack cycle returns its slot.
        let mut net: CommsNetwork<u64> = CommsNetwork::new(CommsPolicy::default());
        let mut l = log();
        for t in 0..200u64 {
            net.send(&IdealChannel, 0, 1, t, Tick(t), &mut l);
            let got = step(&mut net, &IdealChannel, Tick(t), &mut l);
            assert_eq!(got.len(), 1);
            assert_eq!(got[0].payload, t);
        }
        assert_eq!(net.unacked(), 0);
        assert_eq!(
            net.payloads.slots.len(),
            1,
            "steady state should recycle a single slot"
        );
    }
}
