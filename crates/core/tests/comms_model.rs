//! Model check of the comms network: over random sends, probe round
//! trips and one-shot fires on channels that lose, duplicate, delay
//! and partition frames, `selfaware::comms::CommsNetwork` delivers,
//! acknowledges, retries, expires and logs exactly as a reference
//! network does, tick by tick.
//!
//! The reference is the plain form of the same protocol: per-link
//! state in `BTreeMap`s keyed by `(src, dst)`, unacknowledged messages
//! in one map keyed by `(src, dst, seq)` whose ascending scan is the
//! retry order, a `BTreeSet` per dedup window, and a clone of the
//! payload wherever a frame or a pending message holds one.

use proptest::prelude::*;
use selfaware::comms::{
    Channel, ChannelOutcome, CommsNetwork, CommsPolicy, CommsStats, Delivered, ReliableConfig,
};
use selfaware::explain::{Explanation, ExplanationLog};
use selfaware::replay::{InterventionClass, InterventionMask};
use simkernel::{DeliveryQueue, Tick};
use std::collections::{BTreeMap, BTreeSet};

/// Copies of the network's private wire constants: acknowledgement
/// frames set the top bit, and the attempt rides above bit 48.
const ACK_BIT: u64 = 1 << 63;
const ATTEMPT_SHIFT: u32 = 48;
/// Sequence numbers a dedup window remembers.
const SEEN_WINDOW: u64 = 512;

/// Ticks a case runs: long enough for every retry schedule below to
/// run out, and for a busy link to slide its dedup window.
const TICKS: u64 = 300;

#[derive(Debug, Clone, Copy)]
struct Flight {
    src: usize,
    dst: usize,
    seq: u64,
    wire_seq: u64,
    payload: u64,
}

#[derive(Debug, Clone, Copy)]
struct Pending {
    payload: u64,
    sent_at: u64,
    next_retry: u64,
    attempts: u32,
}

/// A dedup window: everything below `floor` reads as seen.
#[derive(Debug, Default)]
struct Seen {
    floor: u64,
    seqs: BTreeSet<u64>,
}

impl Seen {
    fn mark(&mut self, seq: u64) -> bool {
        if seq < self.floor {
            return false;
        }
        if seq - self.floor >= SEEN_WINDOW {
            self.floor = seq + 1 - SEEN_WINDOW;
            let floor = self.floor;
            self.seqs.retain(|&s| s >= floor);
        }
        self.seqs.insert(seq)
    }
}

/// The reference network.
struct Reference {
    policy: CommsPolicy,
    mask: InterventionMask,
    seq: BTreeMap<(usize, usize), u64>,
    data: DeliveryQueue<Flight>,
    acks: DeliveryQueue<(usize, usize, u64)>,
    pending: BTreeMap<(usize, usize, u64), Pending>,
    seen: BTreeMap<(usize, usize), Seen>,
    last_heard: BTreeMap<(usize, usize), u64>,
    partitioned: BTreeSet<(usize, usize)>,
    stats: CommsStats,
}

impl Reference {
    fn new(policy: CommsPolicy, mask: InterventionMask) -> Self {
        Self {
            policy,
            mask,
            seq: BTreeMap::new(),
            data: DeliveryQueue::new(),
            acks: DeliveryQueue::new(),
            pending: BTreeMap::new(),
            seen: BTreeMap::new(),
            last_heard: BTreeMap::new(),
            partitioned: BTreeSet::new(),
            stats: CommsStats::default(),
        }
    }

    fn bump_seq(&mut self, src: usize, dst: usize) -> u64 {
        let c = self.seq.entry((src, dst)).or_insert(0);
        *c += 1;
        *c - 1
    }

    fn transmit(
        &mut self,
        ch: &Hashed,
        src: usize,
        dst: usize,
        wire_seq: u64,
        now: Tick,
        log: &mut ExplanationLog,
    ) -> ChannelOutcome {
        let o = ch.transmit(src, dst, wire_seq, now);
        if o.partitioned {
            self.stats.partition_hits += 1;
            if self.partitioned.insert((src, dst)) {
                log.record(Explanation::new(now, "comms:partition").link(src, dst));
            }
        } else if self.partitioned.remove(&(src, dst)) {
            log.record(Explanation::new(now, "comms:heal").link(src, dst));
        }
        o
    }

    #[allow(clippy::too_many_arguments)]
    fn launch(
        &mut self,
        ch: &Hashed,
        src: usize,
        dst: usize,
        seq: u64,
        attempt: u32,
        payload: u64,
        now: Tick,
        log: &mut ExplanationLog,
    ) {
        self.stats.sent += 1;
        let wire_seq = seq | (u64::from(attempt) << ATTEMPT_SHIFT);
        let o = self.transmit(ch, src, dst, wire_seq, now, log);
        for at in o.arrivals.iter() {
            let flight = Flight {
                src,
                dst,
                seq,
                wire_seq,
                payload,
            };
            self.data.schedule(at, flight);
        }
    }

    fn send(
        &mut self,
        ch: &Hashed,
        src: usize,
        dst: usize,
        payload: u64,
        now: Tick,
        log: &mut ExplanationLog,
    ) -> u64 {
        let seq = self.bump_seq(src, dst);
        if let CommsPolicy::Reliable(cfg) = self.policy {
            let pending = Pending {
                payload,
                sent_at: now.0,
                next_retry: now.0.saturating_add(cfg.retry_backoff),
                attempts: 1,
            };
            self.pending.insert((src, dst, seq), pending);
        }
        self.launch(ch, src, dst, seq, 0, payload, now, log);
        seq
    }

    fn step(
        &mut self,
        ch: &Hashed,
        now: Tick,
        log: &mut ExplanationLog,
        out: &mut Vec<Delivered<u64>>,
    ) {
        self.land_acks(now);
        self.drive_pending(ch, now, log);
        let reliable = matches!(self.policy, CommsPolicy::Reliable(_));
        for f in self.data.due(now) {
            let fresh = !reliable || self.seen.entry((f.src, f.dst)).or_default().mark(f.seq);
            if fresh {
                self.stats.delivered += 1;
                self.last_heard.insert((f.dst, f.src), now.0);
                out.push(Delivered {
                    src: f.src,
                    dst: f.dst,
                    seq: f.seq,
                    payload: f.payload,
                });
            } else {
                self.stats.duplicates += 1;
            }
            if reliable {
                let o = self.transmit(ch, f.dst, f.src, f.wire_seq | ACK_BIT, now, log);
                if let Some(at) = o.arrivals.first() {
                    self.acks.schedule(at, (f.src, f.dst, f.seq));
                }
            }
        }
        self.land_acks(now);
    }

    fn land_acks(&mut self, now: Tick) {
        for (src, dst, seq) in self.acks.due(now) {
            if self.pending.remove(&(src, dst, seq)).is_some() {
                self.stats.acked += 1;
                self.last_heard.insert((src, dst), now.0);
            }
        }
    }

    fn drive_pending(&mut self, ch: &Hashed, now: Tick, log: &mut ExplanationLog) {
        let CommsPolicy::Reliable(cfg) = self.policy else {
            return;
        };
        let due: Vec<(usize, usize, u64)> = self
            .pending
            .iter()
            .filter(|(_, p)| p.next_retry <= now.0)
            .map(|(&key, _)| key)
            .collect();
        for key in due {
            let (src, dst, seq) = key;
            let p = self.pending[&key];
            let out_of_budget = p.attempts >= cfg.retry_budget;
            if out_of_budget || now.0.saturating_sub(p.sent_at) >= cfg.send_timeout {
                self.pending.remove(&key);
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
                log.record(
                    Explanation::new(now, "comms:expire")
                        .link(src, dst)
                        .because("seq", seq as f64)
                        .because("attempts", f64::from(p.attempts))
                        .because("age", now.0.saturating_sub(p.sent_at) as f64)
                        .because("out_of_budget", f64::from(u8::from(out_of_budget))),
                );
                continue;
            }
            let attempt = p.attempts;
            let backoff = cfg
                .retry_backoff
                .saturating_mul(1 << attempt.min(16))
                .min(cfg.backoff_max.max(1));
            let entry = self
                .pending
                .get_mut(&key)
                .expect("a due message is pending");
            entry.attempts += 1;
            entry.next_retry = now.0.saturating_add(backoff);
            if self.mask.suppresses(InterventionClass::CommsRetry) {
                continue;
            }
            self.stats.retries += 1;
            log.fired(InterventionClass::CommsRetry);
            log.record(
                Explanation::new(now, "comms:retry")
                    .anchoring(InterventionClass::CommsRetry)
                    .link(src, dst)
                    .because("seq", seq as f64)
                    .because("attempt", f64::from(attempt))
                    .because("backoff", backoff as f64),
            );
            self.launch(ch, src, dst, seq, attempt, p.payload, now, log);
        }
    }

    fn probe_roundtrip(
        &mut self,
        ch: &Hashed,
        a: usize,
        b: usize,
        now: Tick,
        log: &mut ExplanationLog,
    ) -> bool {
        let seq = self.bump_seq(a, b);
        self.stats.sent += 1;
        if !self.transmit(ch, a, b, seq, now, log).arrives_at(now) {
            self.stats.exchange_failures += 1;
            return false;
        }
        self.stats.delivered += 1;
        self.last_heard.insert((b, a), now.0);
        let rseq = self.bump_seq(b, a);
        self.stats.sent += 1;
        if !self.transmit(ch, b, a, rseq, now, log).arrives_at(now) {
            self.stats.exchange_failures += 1;
            return false;
        }
        self.stats.delivered += 1;
        self.last_heard.insert((a, b), now.0);
        true
    }

    fn fire_once(
        &mut self,
        ch: &Hashed,
        src: usize,
        dst: usize,
        now: Tick,
        log: &mut ExplanationLog,
    ) -> bool {
        let seq = self.bump_seq(src, dst);
        self.stats.sent += 1;
        if self.transmit(ch, src, dst, seq, now, log).arrives_at(now) {
            self.stats.delivered += 1;
            self.last_heard.insert((dst, src), now.0);
            true
        } else {
            self.stats.exchange_failures += 1;
            false
        }
    }

    fn unacked(&self) -> usize {
        self.pending.len()
    }

    fn staleness(&self, observer: usize, peer: usize, now: Tick) -> u64 {
        let heard = self.last_heard.get(&(observer, peer)).copied().unwrap_or(0);
        now.0.saturating_sub(heard)
    }
}

/// A pure channel: each frame's fate is a hash of the case's seed and
/// `(src, dst, seq, tick)`. Frames are lost, delayed by up to
/// `max_delay` ticks and sent twice at the given rates (in 1/256ths),
/// and a link inside one of `partitions`' windows, `(src, dst, from,
/// len)`, drops everything as a partition.
struct Hashed {
    seed: u64,
    loss: u64,
    dup: u64,
    delay: u64,
    max_delay: u64,
    partitions: Vec<(usize, usize, u64, u64)>,
}

fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A frame's stream of rolls, each in `0..256`.
struct Rolls(u64);

impl Rolls {
    fn next(&mut self) -> u64 {
        self.0 = mix(self.0);
        self.0 % 256
    }
}

impl Hashed {
    /// When one copy of a frame sent at `now` arrives.
    fn arrival(&self, now: Tick, rolls: &mut Rolls) -> Tick {
        if rolls.next() < self.delay {
            Tick(now.0 + 1 + rolls.next() % self.max_delay)
        } else {
            now
        }
    }
}

impl Channel for Hashed {
    fn transmit(&self, src: usize, dst: usize, seq: u64, now: Tick) -> ChannelOutcome {
        let cut = self
            .partitions
            .iter()
            .any(|&(s, d, from, len)| (s, d) == (src, dst) && (from..from + len).contains(&now.0));
        if cut {
            return ChannelOutcome {
                partitioned: true,
                ..ChannelOutcome::lost()
            };
        }
        let mut rolls =
            Rolls(self.seed ^ mix(src as u64 ^ mix(dst as u64 ^ mix(seq ^ mix(now.0)))));
        if rolls.next() < self.loss {
            return ChannelOutcome::lost();
        }
        let mut o = ChannelOutcome::delivered(self.arrival(now, &mut rolls));
        if rolls.next() < self.dup {
            o.arrivals.push(self.arrival(now, &mut rolls));
        }
        o
    }
}

/// One operation of a tick.
#[derive(Debug, Clone, Copy)]
enum Op {
    Send(usize, usize),
    Probe(usize, usize),
    Fire(usize, usize),
}

/// Six sends to one probe and one fire, between members
/// `0..members`.
fn op(members: usize) -> impl Strategy<Value = Op> {
    (0u8..8, 0..members, 0..members).prop_map(|(kind, a, b)| match kind {
        0..=5 => Op::Send(a, b),
        6 => Op::Probe(a, b),
        _ => Op::Fire(a, b),
    })
}

/// Naive, the default reliable protocol, or one whose backoff, budget
/// and timeout each bind within a run.
fn policy() -> impl Strategy<Value = CommsPolicy> {
    (0u8..4, 1u64..=4, 1u64..=24, 1u32..=8, 4u64..=80).prop_map(
        |(kind, retry_backoff, backoff_max, retry_budget, send_timeout)| match kind {
            0 => CommsPolicy::Naive,
            1 => CommsPolicy::default(),
            _ => CommsPolicy::Reliable(ReliableConfig {
                retry_backoff,
                backoff_max,
                retry_budget,
                send_timeout,
                ..ReliableConfig::default()
            }),
        },
    )
}

/// Members the network has, for the cases' ids; ids arrive in random
/// order, so the network's tables grow mid-run.
const MEMBERS: usize = 6;

proptest! {
    // Every tick runs a few operations between members 0..6 (some
    // from a member to itself, one busy pair often enough to slide its
    // dedup window), then one protocol step, and both networks must
    // agree on what they did, what they know and what they logged.
    #[test]
    fn network_delivers_exactly_as_the_reference_network(
        seed in any::<u64>(),
        policy in policy(),
        masked in any::<bool>(),
        loss in 0u64..128,
        dup in 0u64..64,
        delay in 0u64..128,
        max_delay in 1u64..=12,
        partitions in proptest::collection::vec(
            (0..MEMBERS, 0..MEMBERS, 0u64..TICKS, 1u64..60),
            0..6,
        ),
        ticks in proptest::collection::vec(proptest::collection::vec(op(MEMBERS), 0..5), TICKS as usize),
        busy in (any::<bool>(), 0..MEMBERS, 0..MEMBERS),
    ) {
        let ch = Hashed { seed, loss, dup, delay, max_delay, partitions };
        let busy = busy.0.then_some((busy.1, busy.2));
        let mask = if masked {
            InterventionMask::suppressing(InterventionClass::CommsRetry)
        } else {
            InterventionMask::allow_all()
        };
        let mut net: CommsNetwork<u64> = CommsNetwork::new(policy).with_mask(mask);
        let mut reference = Reference::new(policy, mask);
        let (mut net_log, mut ref_log) = (ExplanationLog::new(256), ExplanationLog::new(256));
        let (mut got, mut want) = (Vec::new(), Vec::new());
        let mut payload = 0u64;
        for (t, ops) in ticks.iter().enumerate() {
            let now = Tick(t as u64);
            let extra = busy.map(|(a, b)| [Op::Send(a, b), Op::Send(a, b)]);
            for &op in ops.iter().chain(extra.iter().flatten()) {
                payload += 1;
                match op {
                    Op::Send(a, b) => prop_assert_eq!(
                        net.send(&ch, a, b, payload, now, &mut net_log),
                        reference.send(&ch, a, b, payload, now, &mut ref_log),
                        "tick {}: seq of {:?}", t, op
                    ),
                    Op::Probe(a, b) => prop_assert_eq!(
                        net.probe_roundtrip(&ch, a, b, now, &mut net_log),
                        reference.probe_roundtrip(&ch, a, b, now, &mut ref_log),
                        "tick {}: {:?}", t, op
                    ),
                    Op::Fire(a, b) => prop_assert_eq!(
                        net.fire_once(&ch, a, b, now, &mut net_log),
                        reference.fire_once(&ch, a, b, now, &mut ref_log),
                        "tick {}: {:?}", t, op
                    ),
                }
            }
            got.clear();
            want.clear();
            net.step_into(&ch, now, &mut net_log, &mut got);
            reference.step(&ch, now, &mut ref_log, &mut want);
            prop_assert_eq!(&got, &want, "tick {}: delivered", t);
            prop_assert_eq!(net.stats(), reference.stats, "tick {}: stats", t);
            prop_assert_eq!(net.unacked(), reference.unacked(), "tick {}: unacked", t);
            // One id past the members: a peer nobody has heard from.
            for observer in 0..=MEMBERS {
                for peer in 0..=MEMBERS {
                    prop_assert_eq!(
                        net.staleness(observer, peer, now),
                        reference.staleness(observer, peer, now),
                        "tick {}: staleness of {} at {}", t, peer, observer
                    );
                }
            }
            prop_assert_eq!(&net_log, &ref_log, "tick {}: log", t);
        }
    }
}
