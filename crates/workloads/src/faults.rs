//! Scheduled component faults: cameras dying, links cut, cores
//! failing, correlated zone outages and sensor corruption.
//!
//! Where [`crate::disturbance`] perturbs *scalar signals* (demand,
//! load), a [`FaultPlan`] breaks *components*: the machinery a
//! self-aware system runs on. The plan is pure data — a sorted list of
//! `(tick, fault)` events each simulator applies at the top of its
//! tick loop — so the same plan replayed against the same
//! [`simkernel::SeedTree`] is bit-identical whether the replicate runs
//! sequentially or on a worker pool. Randomised plans are derived from
//! a seed subtree (never from wall-clock or execution order) for the
//! same reason.

use rand::Rng as _;
use selfaware::comms::{Arrivals, Channel, ChannelOutcome};
use selfaware::replay::InterventionMask;
use selfaware::supervision::{Corruptible, SelfModel};
use serde::{Deserialize, Serialize};
use simkernel::rng::{Rng, SeedTree};
use simkernel::Tick;

/// How a faulty sensor corrupts its readings.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SensorFaultKind {
    /// The sensor freezes: it keeps reporting the last value it held
    /// before the fault began.
    StuckAt,
    /// A constant additive offset on every reading.
    Bias {
        /// Offset added to the true value.
        offset: f64,
    },
    /// The sensor returns nothing at all.
    Dropout,
    /// Heavy uniform noise on every reading.
    Noise {
        /// Half-width of the uniform noise band.
        sigma: f64,
    },
}

impl SensorFaultKind {
    /// Applies the fault to one reading. `clean` is the true value the
    /// sensor would have reported, `held` the last pre-fault reading
    /// (what a stuck sensor repeats). Returns `None` for a dropout.
    pub fn corrupt(&self, clean: f64, held: f64, rng: &mut Rng) -> Option<f64> {
        match *self {
            SensorFaultKind::StuckAt => Some(held),
            SensorFaultKind::Bias { offset } => Some(clean + offset),
            SensorFaultKind::Dropout => None,
            SensorFaultKind::Noise { sigma } => {
                Some(clean + sigma * (rng.gen::<f64>() * 2.0 - 1.0))
            }
        }
    }
}

/// One scheduled component fault.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FaultKind {
    /// A camera goes dark: it drops every object it owns, stops
    /// bidding in auctions and cannot redetect.
    CameraFail {
        /// Camera index.
        camera: usize,
    },
    /// A failed camera reboots and rejoins the network.
    CameraRecover {
        /// Camera index.
        camera: usize,
    },
    /// A network link is severed; packets queued on it stall until
    /// restoration and routers must detour.
    LinkCut {
        /// One endpoint.
        a: usize,
        /// The other endpoint.
        b: usize,
    },
    /// A previously cut link comes back.
    LinkRestore {
        /// One endpoint.
        a: usize,
        /// The other endpoint.
        b: usize,
    },
    /// A core halts: its queue is orphaned and must be redistributed.
    CoreFail {
        /// Core index.
        core: usize,
    },
    /// A failed core is brought back online.
    CoreRecover {
        /// Core index.
        core: usize,
    },
    /// A correlated outage: a contiguous block of cloud nodes is
    /// forced offline for `duration` ticks (rack/zone failure), on top
    /// of whatever stochastic churn the nodes already exhibit.
    ZoneOutage {
        /// First node index in the zone.
        first: usize,
        /// Number of nodes in the zone.
        count: usize,
        /// Outage length in ticks.
        duration: u64,
    },
    /// A sensor starts misreporting for `duration` ticks.
    SensorFault {
        /// Sensor index (the consumer maps indices to sensor keys).
        sensor: usize,
        /// Corruption mode.
        kind: SensorFaultKind,
        /// Fault length in ticks.
        duration: u64,
    },
    /// A controller's *self-model* is corrupted in place — the fault
    /// class the supervision runtime (`selfaware::supervision`)
    /// exists to survive. Unlike the component faults above, nothing
    /// in the environment breaks: the awareness machinery itself does.
    ModelCorruption {
        /// Controller index (the consumer maps indices to whichever
        /// supervised model it runs; single-controller substrates use
        /// index 0).
        controller: usize,
        /// Corruption mode.
        kind: ModelCorruptionKind,
    },
}

/// How a controller self-model is corrupted.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ModelCorruptionKind {
    /// Model state is overwritten with NaN — the classic silent
    /// poisoning of an EWMA/Holt pipeline, where one NaN propagates
    /// through every subsequent forecast.
    NanPoison,
    /// Model weights are multiplied by a large `gain` (sign-flipped by
    /// the consumer where that makes the corruption nastier), sending
    /// forecasts off the rails while keeping them finite.
    WeightScramble {
        /// Multiplicative blow-up factor.
        gain: f64,
    },
    /// The model stops updating for `duration` ticks: outputs freeze
    /// while the world moves on.
    StateFreeze {
        /// Freeze length in ticks.
        duration: u64,
    },
}

impl ModelCorruptionKind {
    /// Corrupts the self-model in `slot` at `now`, bare or supervised
    /// alike: poison and scramble damage the model in place, and a
    /// freeze holds its training until the freeze's own end, replacing
    /// any earlier deadline. Every substrate applies its model
    /// corruptions here.
    pub fn apply<M: Corruptible + Clone>(self, slot: &mut SelfModel<M>, now: Tick) {
        match self {
            ModelCorruptionKind::NanPoison => slot.model_mut().poison(),
            ModelCorruptionKind::WeightScramble { gain } => slot.model_mut().scramble(gain),
            ModelCorruptionKind::StateFreeze { duration } => {
                slot.freeze_until(Tick(now.value() + duration));
            }
        }
    }
}

/// A fault bound to its onset time.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultEvent {
    /// Onset tick.
    pub at: Tick,
    /// What breaks.
    pub kind: FaultKind,
}

impl FaultEvent {
    /// Camera `camera` fails at `at`.
    #[must_use]
    pub fn camera_fail(at: Tick, camera: usize) -> Self {
        Self {
            at,
            kind: FaultKind::CameraFail { camera },
        }
    }

    /// Camera `camera` recovers at `at`.
    #[must_use]
    pub fn camera_recover(at: Tick, camera: usize) -> Self {
        Self {
            at,
            kind: FaultKind::CameraRecover { camera },
        }
    }

    /// Link `a — b` is cut at `at`.
    #[must_use]
    pub fn link_cut(at: Tick, a: usize, b: usize) -> Self {
        Self {
            at,
            kind: FaultKind::LinkCut { a, b },
        }
    }

    /// Link `a — b` is restored at `at`.
    #[must_use]
    pub fn link_restore(at: Tick, a: usize, b: usize) -> Self {
        Self {
            at,
            kind: FaultKind::LinkRestore { a, b },
        }
    }

    /// Core `core` fails at `at`.
    #[must_use]
    pub fn core_fail(at: Tick, core: usize) -> Self {
        Self {
            at,
            kind: FaultKind::CoreFail { core },
        }
    }

    /// Core `core` recovers at `at`.
    #[must_use]
    pub fn core_recover(at: Tick, core: usize) -> Self {
        Self {
            at,
            kind: FaultKind::CoreRecover { core },
        }
    }

    /// Nodes `first .. first + count` go dark for `duration` ticks.
    #[must_use]
    pub fn zone_outage(at: Tick, first: usize, count: usize, duration: u64) -> Self {
        Self {
            at,
            kind: FaultKind::ZoneOutage {
                first,
                count,
                duration,
            },
        }
    }

    /// Sensor `sensor` misreports per `kind` for `duration` ticks.
    #[must_use]
    pub fn sensor_fault(at: Tick, sensor: usize, kind: SensorFaultKind, duration: u64) -> Self {
        Self {
            at,
            kind: FaultKind::SensorFault {
                sensor,
                kind,
                duration,
            },
        }
    }

    /// Controller `controller`'s self-model is corrupted per `kind` at
    /// `at`.
    #[must_use]
    pub fn model_corruption(at: Tick, controller: usize, kind: ModelCorruptionKind) -> Self {
        Self {
            at,
            kind: FaultKind::ModelCorruption { controller, kind },
        }
    }

    /// For duration-carrying faults (zone outages, sensor faults,
    /// state freezes), the first tick *after* the fault window — the
    /// restore edge an event-driven simulator must also be woken at.
    /// `None` for instantaneous events (their recovery, if any, is its
    /// own event).
    #[must_use]
    pub fn end_tick(&self) -> Option<Tick> {
        let duration = match self.kind {
            FaultKind::ZoneOutage { duration, .. } | FaultKind::SensorFault { duration, .. } => {
                duration
            }
            FaultKind::ModelCorruption {
                kind: ModelCorruptionKind::StateFreeze { duration },
                ..
            } => duration,
            _ => return None,
        };
        Some(Tick(self.at.value().saturating_add(duration)))
    }
}

/// An ordered set of scheduled faults.
///
/// # Example
///
/// ```
/// use workloads::faults::{FaultEvent, FaultPlan};
/// use simkernel::Tick;
///
/// let plan = FaultPlan::none()
///     .and(FaultEvent::camera_fail(Tick(100), 3))
///     .and(FaultEvent::camera_recover(Tick(200), 3));
/// assert_eq!(plan.events_at(Tick(100)).count(), 1);
/// assert_eq!(plan.events_at(Tick(150)).count(), 0);
/// assert!(plan.changes_in(Tick(0), Tick(101)));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// Creates a plan from events (any order; sorted by onset, ties
    /// keeping insertion order).
    #[must_use]
    pub fn new(mut events: Vec<FaultEvent>) -> Self {
        events.sort_by_key(|e| e.at.value());
        Self { events }
    }

    /// The empty plan (unbreakable-hardware control).
    #[must_use]
    pub fn none() -> Self {
        Self::default()
    }

    /// Adds an event (builder style), keeping the plan sorted.
    #[must_use]
    pub fn and(mut self, e: FaultEvent) -> Self {
        self.events.push(e);
        self.events.sort_by_key(|e| e.at.value());
        self
    }

    /// The scheduled events, in onset order.
    #[must_use]
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Whether the plan schedules nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events whose onset is exactly `t` — simulators call this at the
    /// top of every tick and apply what comes back, in order.
    pub fn events_at(&self, t: Tick) -> impl Iterator<Item = &FaultEvent> {
        self.events.iter().filter(move |e| e.at == t)
    }

    /// Whether any fault begins in `[from, to)`.
    #[must_use]
    pub fn changes_in(&self, from: Tick, to: Tick) -> bool {
        self.events.iter().any(|e| e.at >= from && e.at < to)
    }

    /// Registers this plan's events as wakes on a sparse-activation
    /// scheduler, so event-driven simulators are *woken* by their
    /// fault plan instead of polling [`FaultPlan::events_at`] every
    /// tick. For each event, `keys_of` pushes the entity keys the
    /// event touches (a zone outage expands to every node in the
    /// block; events the simulator does not model push nothing); one
    /// wake is scheduled per key at the event's onset and — for
    /// duration-carrying faults — another at the window's end
    /// ([`FaultEvent::end_tick`]) so the *restore* edge can never be
    /// skipped by sparse activation either. Returns the number of
    /// wakes scheduled.
    pub fn schedule_wakes<K>(
        &self,
        sched: &mut simkernel::SimScheduler<K>,
        class: u8,
        mut keys_of: impl FnMut(&FaultEvent, &mut Vec<K>),
    ) -> usize {
        let mut keys = Vec::new();
        let mut scheduled = 0;
        for e in &self.events {
            keys.clear();
            keys_of(e, &mut keys);
            for key in keys.drain(..) {
                sched.wake_at(e.at, class, key);
                scheduled += 1;
            }
            if let Some(end) = e.end_tick() {
                keys_of(e, &mut keys);
                for key in keys.drain(..) {
                    sched.wake_at(end, class, key);
                    scheduled += 1;
                }
            }
        }
        scheduled
    }

    /// The sensor fault governing `sensor` at time `t`, if any (the
    /// latest-onset active fault wins when windows overlap).
    #[must_use]
    pub fn sensor_fault_at(&self, sensor: usize, t: Tick) -> Option<SensorFaultKind> {
        self.events
            .iter()
            .filter_map(|e| match e.kind {
                FaultKind::SensorFault {
                    sensor: s,
                    kind,
                    duration,
                } if s == sensor && e.at <= t && t.value() < e.at.value() + duration => Some(kind),
                _ => None,
            })
            .next_back()
    }

    /// Whether node `node` is inside an active
    /// [`FaultKind::ZoneOutage`] window at `t`. This is the plan-side
    /// truth a zoned command plane consults so that *communication*
    /// recovery (a [`NetPartition`] healing) cannot be mistaken for
    /// *zone* recovery: delivery to a zone must stay suppressed while
    /// the zone's nodes are still scheduled dead, whatever the channel
    /// is doing (see the overlap-matrix tests in `cloudsim::sim`).
    #[must_use]
    pub fn zone_down_at(&self, node: usize, t: Tick) -> bool {
        self.events.iter().any(|e| match e.kind {
            FaultKind::ZoneOutage {
                first,
                count,
                duration,
            } => {
                node >= first
                    && node < first.saturating_add(count)
                    && e.at <= t
                    && t.value() < e.at.value().saturating_add(duration)
            }
            _ => false,
        })
    }

    /// Merges another plan's events into this one (builder style).
    #[must_use]
    pub fn merged(mut self, other: &Self) -> Self {
        self.events.extend(other.events.iter().cloned());
        self.events.sort_by_key(|e| e.at.value());
        self
    }

    /// A seed-derived plan of `outages` random camera fail/recover
    /// pairs: each picks a camera in `0..cameras` and an onset in
    /// `[window.0, window.1)`, recovering `downtime` ticks later.
    ///
    /// Deterministic per seed subtree — the basis of the fault-plan
    /// parity guarantee (see DESIGN.md, "Fault model").
    ///
    /// # Panics
    ///
    /// Panics if `cameras == 0` or the window is empty.
    #[must_use]
    pub fn random_camera_outages(
        seeds: &SeedTree,
        cameras: usize,
        outages: usize,
        window: (u64, u64),
        downtime: u64,
    ) -> Self {
        assert!(cameras > 0, "need at least one camera");
        assert!(window.0 < window.1, "fault window must be non-empty");
        let mut rng = seeds.rng("fault-plan");
        let mut events = Vec::with_capacity(outages * 2);
        for _ in 0..outages {
            let cam = rng.gen_range(0..cameras);
            let at = rng.gen_range(window.0..window.1);
            events.push(FaultEvent::camera_fail(Tick(at), cam));
            events.push(FaultEvent::camera_recover(Tick(at + downtime), cam));
        }
        Self::new(events)
    }
}

/// Per-link unreliability parameters.
///
/// All probabilities are per-frame; `max_delay` bounds the extra
/// latency (in ticks) a delayed frame suffers. Delay is the source of
/// *reordering*: an undelayed later frame overtakes a delayed earlier
/// one.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkModel {
    /// Probability a frame is silently dropped.
    pub loss: f64,
    /// Probability a delivered frame arrives twice.
    pub dup: f64,
    /// Probability a delivered frame is delayed.
    pub delay_prob: f64,
    /// Maximum extra latency in ticks for a delayed frame (the actual
    /// delay is drawn uniformly from `1..=max_delay`).
    pub max_delay: u64,
}

impl LinkModel {
    /// The perfect link: no loss, no duplication, no delay.
    #[must_use]
    pub fn ideal() -> Self {
        Self {
            loss: 0.0,
            dup: 0.0,
            delay_prob: 0.0,
            max_delay: 0,
        }
    }

    /// A link that only loses frames, with probability `loss`.
    #[must_use]
    pub fn lossy(loss: f64) -> Self {
        Self {
            loss,
            ..Self::ideal()
        }
    }

    /// Whether the link never misbehaves.
    #[must_use]
    pub fn is_ideal(&self) -> bool {
        self.loss == 0.0 && self.dup == 0.0 && (self.delay_prob == 0.0 || self.max_delay == 0)
    }

    fn validate(&self) {
        for (name, p) in [
            ("loss", self.loss),
            ("dup", self.dup),
            ("delay_prob", self.delay_prob),
        ] {
            assert!(
                (0.0..=1.0).contains(&p),
                "{name} must be a probability in [0, 1]"
            );
        }
    }
}

impl Default for LinkModel {
    fn default() -> Self {
        Self::ideal()
    }
}

/// A scheduled network partition: for `duration` ticks starting at
/// `start`, every link with *exactly one* endpoint in `nodes` is cut
/// (nodes inside the partition still talk to each other, as do nodes
/// outside it).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetPartition {
    /// First tick of the partition window.
    pub start: u64,
    /// Window length in ticks.
    pub duration: u64,
    /// The isolated node group.
    pub nodes: Vec<usize>,
}

impl NetPartition {
    /// Whether the `src → dst` link is cut at `t`.
    #[must_use]
    pub fn cuts(&self, src: usize, dst: usize, t: Tick) -> bool {
        if t.value() < self.start || t.value() >= self.start + self.duration {
            return false;
        }
        self.nodes.contains(&src) != self.nodes.contains(&dst)
    }
}

/// `splitmix64` finalizer — the stateless hash behind every channel
/// decision.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A deterministic lossy-channel plan: one [`LinkModel`] of drop,
/// duplication and delay probabilities for every link, plus scheduled
/// partitions, derived purely from a [`SeedTree`].
///
/// Unlike the RNG-stream disturbances elsewhere in this crate, the
/// channel consumes **no** stream state: every decision is a stateless
/// hash of `(salt, src, dst, wire sequence number)`. That makes the
/// fate of a frame independent of *when* or *in what order* the
/// simulator asks — the property that keeps lossy runs bit-identical
/// between sequential and parallel replication (see DESIGN.md,
/// "Communication fault model").
///
/// # Example
///
/// ```
/// use workloads::faults::{ChannelPlan, LinkModel};
/// use selfaware::comms::Channel as _;
/// use simkernel::{SeedTree, Tick};
///
/// let seeds = SeedTree::new(7);
/// let plan = ChannelPlan::uniform(&seeds, LinkModel::lossy(0.3))
///     .with_partition(100, 50, vec![2, 3]);
/// assert!(!plan.is_ideal());
/// // Partition windows cut links that cross the boundary...
/// assert!(plan.transmit(0, 2, 9, Tick(120)).partitioned);
/// // ...but not links wholly inside or outside the group.
/// assert!(!plan.transmit(2, 3, 9, Tick(120)).partitioned);
/// // The ideal plan is exactly the historical perfect network.
/// assert!(ChannelPlan::ideal().transmit(0, 1, 0, Tick(5)).arrives_at(Tick(5)));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChannelPlan {
    salt: u64,
    default: LinkModel,
    partitions: Vec<NetPartition>,
}

impl Default for ChannelPlan {
    fn default() -> Self {
        Self::ideal()
    }
}

impl ChannelPlan {
    /// The perfect network (every substrate's default — existing runs
    /// are bit-for-bit unchanged).
    #[must_use]
    pub fn ideal() -> Self {
        Self {
            salt: 0,
            default: LinkModel::ideal(),
            partitions: Vec::new(),
        }
    }

    /// A plan applying `model` to every link, salted from the
    /// `"channel-plan"` seed subtree (same seed ⇒ same per-frame
    /// fates).
    ///
    /// # Panics
    ///
    /// Panics if a probability in `model` is outside `[0, 1]`.
    #[must_use]
    pub fn uniform(seeds: &SeedTree, model: LinkModel) -> Self {
        model.validate();
        Self {
            salt: seeds.rng("channel-plan").gen::<u64>(),
            default: model,
            partitions: Vec::new(),
        }
    }

    /// Replaces the all-links model, keeping the salt and scheduled
    /// partitions (builder style).
    ///
    /// # Panics
    ///
    /// Panics if a probability in `model` is outside `[0, 1]`.
    #[must_use]
    pub fn with_default(mut self, model: LinkModel) -> Self {
        model.validate();
        self.default = model;
        self
    }

    /// Schedules a partition isolating `nodes` for `duration` ticks
    /// from `start` (builder style).
    #[must_use]
    pub fn with_partition(mut self, start: u64, duration: u64, nodes: Vec<usize>) -> Self {
        self.partitions.push(NetPartition {
            start,
            duration,
            nodes,
        });
        self
    }

    /// Whether the `src → dst` link is inside any partition window at
    /// `t`.
    #[must_use]
    pub fn partitioned_at(&self, src: usize, dst: usize, t: Tick) -> bool {
        self.partitions.iter().any(|p| p.cuts(src, dst, t))
    }

    /// A uniform hash in `[0, 1)` for one named decision about one
    /// frame. Pure in `(salt, src, dst, seq, label)`.
    fn unit(&self, src: usize, dst: usize, seq: u64, label: u64) -> f64 {
        let mut h = self.salt;
        for v in [src as u64, dst as u64, seq, label] {
            h = splitmix64(h ^ v);
        }
        (h >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Whether the plan never loses, delays, duplicates, or
    /// partitions.
    #[must_use]
    pub fn is_ideal(&self) -> bool {
        self.default.is_ideal() && self.partitions.is_empty()
    }
}

// Decision labels: one per independent draw about a frame.
const DRAW_LOSS: u64 = 1;
const DRAW_DELAY: u64 = 2;
const DRAW_DELAY_TICKS: u64 = 3;
const DRAW_DUP: u64 = 4;
const DRAW_DUP_DELAY: u64 = 5;
const DRAW_DUP_TICKS: u64 = 6;

impl Channel for ChannelPlan {
    fn transmit(&self, src: usize, dst: usize, seq: u64, now: Tick) -> ChannelOutcome {
        if self.partitioned_at(src, dst, now) {
            return ChannelOutcome {
                arrivals: Arrivals::new(),
                partitioned: true,
            };
        }
        let m = &self.default;
        if m.is_ideal() {
            return ChannelOutcome::delivered(now);
        }
        if self.unit(src, dst, seq, DRAW_LOSS) < m.loss {
            return ChannelOutcome::lost();
        }
        let delay_of = |prob_label: u64, ticks_label: u64| -> u64 {
            if m.max_delay > 0 && self.unit(src, dst, seq, prob_label) < m.delay_prob {
                1 + (self.unit(src, dst, seq, ticks_label) * m.max_delay as f64) as u64
            } else {
                0
            }
        };
        let mut arrivals = Arrivals::once(Tick(now.0 + delay_of(DRAW_DELAY, DRAW_DELAY_TICKS)));
        if self.unit(src, dst, seq, DRAW_DUP) < m.dup {
            arrivals.push(Tick(now.0 + delay_of(DRAW_DUP_DELAY, DRAW_DUP_TICKS)));
        }
        ChannelOutcome {
            arrivals,
            partitioned: false,
        }
    }
}

/// A named, composed fault scenario: scheduled hardware/model faults
/// ([`FaultPlan`] — zone outages, camera and core failures, model
/// corruption) riding on an unreliable medium ([`ChannelPlan`] — loss,
/// duplication, delay, partitions). One campaign describes everything
/// that goes wrong in one run of a composed world, so cascading
/// scenarios ("the zone dies, the network jams, the cameras starve")
/// are built once and handed to the simulator whole.
///
/// Both halves keep their independent determinism contracts: fault
/// events are an explicit schedule, channel draws are stateless hashes
/// of the plan salt — so any campaign preserves seq-vs-parallel
/// bit-identity.
///
/// ```
/// use simkernel::{SeedTree, Tick};
/// use workloads::faults::{FaultCampaign, FaultEvent, LinkModel};
///
/// let seeds = SeedTree::new(7);
/// let campaign = FaultCampaign::new("demo", &seeds)
///     .with_loss(LinkModel::lossy(0.2))
///     .zone_outage(Tick(100), 0, 4, 50)
///     .net_partition(120, 60, vec![2])
///     .fault(FaultEvent::camera_fail(Tick(130), 1));
/// assert!(campaign.faults().zone_down_at(2, Tick(120)));
/// assert!(campaign.channel().partitioned_at(2, 9, Tick(130)));
/// ```
#[derive(Debug, Clone)]
pub struct FaultCampaign {
    name: String,
    faults: FaultPlan,
    channel: ChannelPlan,
    mask: InterventionMask,
}

impl FaultCampaign {
    /// An empty campaign: no faults, a channel that is ideal but
    /// already salted from `seeds` so later [`FaultCampaign::with_loss`]
    /// calls stay deterministic per seed subtree, and the factual
    /// (allow-everything) intervention mask.
    #[must_use]
    pub fn new(name: impl Into<String>, seeds: &SeedTree) -> Self {
        Self {
            name: name.into(),
            faults: FaultPlan::none(),
            channel: ChannelPlan::uniform(seeds, LinkModel::ideal()),
            mask: InterventionMask::allow_all(),
        }
    }

    /// The campaign's display name (table rows, trace records).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The counterfactual-replay intervention mask the composed city
    /// runs this campaign under (see [`selfaware::replay`]): its run's
    /// log carries it to every intervention site. Factual by default.
    #[must_use]
    pub fn mask(&self) -> InterventionMask {
        self.mask
    }

    /// Sets the intervention mask: re-running an otherwise identical
    /// campaign with one class suppressed is the single-flip
    /// counterfactual the F10 harness measures.
    #[must_use]
    pub fn with_mask(mut self, mask: InterventionMask) -> Self {
        self.mask = mask;
        self
    }

    /// The scheduled fault events.
    #[must_use]
    pub fn faults(&self) -> &FaultPlan {
        &self.faults
    }

    /// The channel model the campaign's traffic crosses.
    #[must_use]
    pub fn channel(&self) -> &ChannelPlan {
        &self.channel
    }

    /// Adds one fault event.
    #[must_use]
    pub fn fault(mut self, e: FaultEvent) -> Self {
        self.faults = self.faults.and(e);
        self
    }

    /// Merges a whole fault plan into the campaign.
    #[must_use]
    pub fn with_faults(mut self, plan: &FaultPlan) -> Self {
        self.faults = self.faults.merged(plan);
        self
    }

    /// Sets the default link model on every channel link (keeps the
    /// campaign's salt and any scheduled partitions).
    #[must_use]
    pub fn with_loss(mut self, model: LinkModel) -> Self {
        self.channel = self.channel.with_default(model);
        self
    }

    /// Replaces the channel plan wholesale.
    #[must_use]
    pub fn with_channel(mut self, channel: ChannelPlan) -> Self {
        self.channel = channel;
        self
    }

    /// Schedules a zone outage: backend nodes
    /// `first .. first + count` dead for `duration` ticks from `at`.
    #[must_use]
    pub fn zone_outage(self, at: Tick, first: usize, count: usize, duration: u64) -> Self {
        self.fault(FaultEvent::zone_outage(at, first, count, duration))
    }

    /// Schedules a network partition silencing `nodes` for
    /// `duration` ticks from `start` (channel-side: frames are
    /// dropped, not delayed).
    #[must_use]
    pub fn net_partition(mut self, start: u64, duration: u64, nodes: Vec<usize>) -> Self {
        self.channel = self.channel.with_partition(start, duration, nodes);
        self
    }

    /// Schedules a model corruption against `controller`.
    #[must_use]
    pub fn corruption(self, at: Tick, controller: usize, kind: ModelCorruptionKind) -> Self {
        self.fault(FaultEvent::model_corruption(at, controller, kind))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_sorts_by_onset() {
        let plan = FaultPlan::new(vec![
            FaultEvent::core_fail(Tick(50), 1),
            FaultEvent::camera_fail(Tick(10), 0),
        ]);
        assert_eq!(plan.events()[0].at, Tick(10));
        assert_eq!(plan.events()[1].at, Tick(50));
        assert!(!plan.is_empty());
        assert!(FaultPlan::none().is_empty());
    }

    #[test]
    fn events_at_filters_by_tick() {
        let plan = FaultPlan::none()
            .and(FaultEvent::link_cut(Tick(5), 0, 1))
            .and(FaultEvent::link_restore(Tick(9), 0, 1))
            .and(FaultEvent::core_fail(Tick(5), 2));
        assert_eq!(plan.events_at(Tick(5)).count(), 2);
        assert_eq!(plan.events_at(Tick(9)).count(), 1);
        assert_eq!(plan.events_at(Tick(6)).count(), 0);
    }

    #[test]
    fn changes_in_window() {
        let plan = FaultPlan::none().and(FaultEvent::zone_outage(Tick(100), 0, 4, 50));
        assert!(plan.changes_in(Tick(0), Tick(101)));
        assert!(!plan.changes_in(Tick(101), Tick(500)));
    }

    #[test]
    fn zone_down_window_and_bounds() {
        let plan = FaultPlan::none().and(FaultEvent::zone_outage(Tick(100), 2, 3, 50));
        // Half-open in both node range and time.
        assert!(!plan.zone_down_at(2, Tick(99)));
        assert!(plan.zone_down_at(2, Tick(100)));
        assert!(plan.zone_down_at(4, Tick(149)));
        assert!(!plan.zone_down_at(4, Tick(150)));
        assert!(!plan.zone_down_at(1, Tick(120)));
        assert!(!plan.zone_down_at(5, Tick(120)));
        // Overlapping outages union.
        let plan = plan.and(FaultEvent::zone_outage(Tick(140), 4, 2, 30));
        assert!(plan.zone_down_at(4, Tick(160)));
        assert!(plan.zone_down_at(5, Tick(145)));
        assert!(!plan.zone_down_at(2, Tick(160)));
    }

    #[test]
    fn merged_plans_stay_sorted() {
        let a = FaultPlan::none().and(FaultEvent::core_fail(Tick(50), 0));
        let b = FaultPlan::none().and(FaultEvent::core_fail(Tick(10), 1));
        let m = a.merged(&b);
        assert_eq!(m.events().len(), 2);
        assert_eq!(m.events()[0].at, Tick(10));
    }

    #[test]
    fn fault_campaign_composes_faults_and_channel() {
        use simkernel::SeedTree;
        let seeds = SeedTree::new(11);
        let c = FaultCampaign::new("cascade", &seeds)
            .with_loss(LinkModel::lossy(0.3))
            .zone_outage(Tick(100), 0, 4, 50)
            .net_partition(120, 60, vec![2])
            .corruption(Tick(130), 0, ModelCorruptionKind::NanPoison)
            .fault(FaultEvent::camera_fail(Tick(5), 1));
        assert_eq!(c.name(), "cascade");
        assert_eq!(c.faults().events().len(), 3);
        assert!(c.faults().zone_down_at(3, Tick(110)));
        assert!(c.channel().partitioned_at(2, 7, Tick(130)));
        assert!(!c.channel().is_ideal());
        // Channel draws are salted from the seed subtree: same seed,
        // same campaign, same per-frame fates.
        let c2 = FaultCampaign::new("cascade", &SeedTree::new(11)).with_loss(LinkModel::lossy(0.3));
        let fate = |p: &ChannelPlan| {
            (0..64)
                .map(|s| p.transmit(0, 1, s, Tick(0)).arrivals.iter().count())
                .collect::<Vec<_>>()
        };
        assert_eq!(fate(c.channel()), fate(c2.channel()));
    }

    #[test]
    fn sensor_fault_window_and_precedence() {
        let plan = FaultPlan::none()
            .and(FaultEvent::sensor_fault(
                Tick(10),
                0,
                SensorFaultKind::StuckAt,
                20,
            ))
            .and(FaultEvent::sensor_fault(
                Tick(15),
                0,
                SensorFaultKind::Dropout,
                5,
            ));
        assert_eq!(plan.sensor_fault_at(0, Tick(9)), None);
        assert_eq!(
            plan.sensor_fault_at(0, Tick(10)),
            Some(SensorFaultKind::StuckAt)
        );
        // Overlap: the later onset wins.
        assert_eq!(
            plan.sensor_fault_at(0, Tick(16)),
            Some(SensorFaultKind::Dropout)
        );
        // Inner window over, outer fault still active.
        assert_eq!(
            plan.sensor_fault_at(0, Tick(25)),
            Some(SensorFaultKind::StuckAt)
        );
        assert_eq!(plan.sensor_fault_at(0, Tick(30)), None);
        assert_eq!(plan.sensor_fault_at(1, Tick(12)), None, "other sensor");
    }

    #[test]
    fn corrupt_modes() {
        let mut rng = SeedTree::new(3).rng("t");
        assert_eq!(
            SensorFaultKind::StuckAt.corrupt(5.0, 2.0, &mut rng),
            Some(2.0)
        );
        assert_eq!(
            SensorFaultKind::Bias { offset: 1.5 }.corrupt(5.0, 2.0, &mut rng),
            Some(6.5)
        );
        assert_eq!(SensorFaultKind::Dropout.corrupt(5.0, 2.0, &mut rng), None);
        let noisy = SensorFaultKind::Noise { sigma: 3.0 }
            .corrupt(5.0, 2.0, &mut rng)
            .expect("noise keeps reporting");
        assert!((noisy - 5.0).abs() <= 3.0);
    }

    #[test]
    fn random_outages_are_seed_deterministic() {
        let seeds = SeedTree::new(77);
        let a = FaultPlan::random_camera_outages(&seeds, 16, 4, (100, 500), 80);
        let b = FaultPlan::random_camera_outages(&seeds, 16, 4, (100, 500), 80);
        assert_eq!(a, b);
        assert_eq!(a.events().len(), 8);
        let other = FaultPlan::random_camera_outages(&SeedTree::new(78), 16, 4, (100, 500), 80);
        assert_ne!(a, other, "different seed, different plan");
        for e in a.events() {
            match e.kind {
                FaultKind::CameraFail { camera } | FaultKind::CameraRecover { camera } => {
                    assert!(camera < 16);
                }
                _ => panic!("unexpected kind"),
            }
        }
    }

    #[test]
    #[should_panic(expected = "fault window must be non-empty")]
    fn empty_window_panics() {
        let _ = FaultPlan::random_camera_outages(&SeedTree::new(1), 4, 1, (5, 5), 10);
    }

    #[test]
    fn model_frozen_at_windows() {
        use selfaware::models::holt::Holt;
        use selfaware::models::{Forecaster, OnlineModel};
        let mut slot = SelfModel::new("m", Holt::new(0.3, 0.1), false);
        assert!(!slot.frozen(Tick(50)));
        ModelCorruptionKind::StateFreeze { duration: 10 }.apply(&mut slot, Tick(50));
        assert!(slot.frozen(Tick(50)));
        assert!(slot.frozen(Tick(59)));
        assert!(!slot.frozen(Tick(60)));
        // A later freeze sets the deadline to its own end, even an
        // earlier one.
        ModelCorruptionKind::StateFreeze { duration: 2 }.apply(&mut slot, Tick(52));
        assert!(slot.frozen(Tick(53)));
        assert!(!slot.frozen(Tick(54)), "the later freeze's end holds");
        // Poison and scramble reach the model whatever the freeze says.
        slot.model_mut().observe(1.0);
        slot.model_mut().observe(2.0);
        let mut reference = slot.model().clone();
        ModelCorruptionKind::WeightScramble { gain: 5.0 }.apply(&mut slot, Tick(53));
        reference.scramble(5.0);
        assert_eq!(slot.model(), &reference);
        ModelCorruptionKind::NanPoison.apply(&mut slot, Tick(53));
        assert!(slot.model().forecast().is_some_and(f64::is_nan));
    }

    #[test]
    fn channel_plan_is_pure_and_seed_deterministic() {
        let seeds = SeedTree::new(9);
        let plan = ChannelPlan::uniform(
            &seeds,
            LinkModel {
                loss: 0.3,
                dup: 0.1,
                delay_prob: 0.2,
                max_delay: 5,
            },
        );
        let again = ChannelPlan::uniform(
            &seeds,
            LinkModel {
                loss: 0.3,
                dup: 0.1,
                delay_prob: 0.2,
                max_delay: 5,
            },
        );
        assert_eq!(plan, again);
        for seq in 0..200u64 {
            let a = plan.transmit(1, 2, seq, Tick(10));
            let b = plan.transmit(1, 2, seq, Tick(10));
            assert_eq!(a, b, "same frame, same fate");
            for at in a.arrivals.iter() {
                assert!(at.value() >= 10 && at.value() <= 15);
            }
        }
        let other = ChannelPlan::uniform(&SeedTree::new(10), LinkModel::lossy(0.3));
        let differing = (0..200u64)
            .filter(|&s| plan.transmit(1, 2, s, Tick(0)) != other.transmit(1, 2, s, Tick(0)))
            .count();
        assert!(differing > 0, "different seed, different frame fates");
    }

    #[test]
    fn channel_plan_loss_rate_is_roughly_calibrated() {
        let plan = ChannelPlan::uniform(&SeedTree::new(4), LinkModel::lossy(0.25));
        let lost = (0..4000u64)
            .filter(|&s| plan.transmit(0, 1, s, Tick(0)).arrivals.is_empty())
            .count();
        let rate = lost as f64 / 4000.0;
        assert!((rate - 0.25).abs() < 0.03, "observed loss {rate}");
    }

    #[test]
    fn channel_plan_partitions_cut_boundary_links_only() {
        let plan = ChannelPlan::ideal().with_partition(50, 20, vec![0, 1]);
        assert!(!plan.is_ideal(), "partition makes the plan non-ideal");
        assert!(plan.transmit(0, 5, 3, Tick(50)).partitioned);
        assert!(plan.transmit(5, 1, 3, Tick(69)).partitioned);
        assert!(!plan.transmit(0, 1, 3, Tick(60)).partitioned, "both inside");
        assert!(
            !plan.transmit(4, 5, 3, Tick(60)).partitioned,
            "both outside"
        );
        assert!(!plan.transmit(0, 5, 3, Tick(70)).partitioned, "window over");
        assert!(plan.transmit(0, 5, 3, Tick(70)).arrives_at(Tick(70)));
    }

    #[test]
    fn ideal_plan_is_ideal() {
        assert!(ChannelPlan::ideal().is_ideal());
        assert!(ChannelPlan::default().is_ideal());
        assert!(!ChannelPlan::uniform(&SeedTree::new(0), LinkModel::lossy(0.1)).is_ideal());
        // Zero-probability uniform plans still count as ideal.
        assert!(ChannelPlan::uniform(&SeedTree::new(0), LinkModel::ideal()).is_ideal());
    }

    #[test]
    #[should_panic(expected = "loss must be a probability")]
    fn channel_plan_rejects_bad_probability() {
        let _ = ChannelPlan::uniform(&SeedTree::new(0), LinkModel::lossy(1.5));
    }

    #[test]
    fn schedule_wakes_covers_onsets_and_restore_edges() {
        use simkernel::SimScheduler;
        let plan = FaultPlan::none()
            .and(FaultEvent::camera_fail(Tick(10), 3))
            .and(FaultEvent::camera_recover(Tick(40), 3))
            .and(FaultEvent::zone_outage(Tick(20), 5, 2, 15));
        let mut sched: SimScheduler<usize> = SimScheduler::new();
        let n = plan.schedule_wakes(&mut sched, 0, |e, keys| match e.kind {
            FaultKind::CameraFail { camera } | FaultKind::CameraRecover { camera } => {
                keys.push(camera);
            }
            FaultKind::ZoneOutage { first, count, .. } => keys.extend(first..first + count),
            _ => {}
        });
        // camera fail + recover (1 key each) + outage onset and end (2
        // keys each) = 6 wakes.
        assert_eq!(n, 6);
        let mut fired = Vec::new();
        while let Some((at, _, key)) = sched.pop_due(Tick(100)) {
            fired.push((at, key));
        }
        assert_eq!(
            fired,
            vec![
                (Tick(10), 3),
                (Tick(20), 5),
                (Tick(20), 6),
                (Tick(35), 5), // restore edge: onset 20 + duration 15
                (Tick(35), 6),
                (Tick(40), 3),
            ]
        );
    }

    #[test]
    fn end_tick_only_for_duration_faults() {
        assert_eq!(FaultEvent::camera_fail(Tick(5), 0).end_tick(), None);
        assert_eq!(
            FaultEvent::zone_outage(Tick(5), 0, 1, 7).end_tick(),
            Some(Tick(12))
        );
        assert_eq!(
            FaultEvent::sensor_fault(Tick(3), 0, SensorFaultKind::StuckAt, 4).end_tick(),
            Some(Tick(7))
        );
    }
}
