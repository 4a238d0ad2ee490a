//! World configuration: city topology, per-layer awareness policy,
//! and the typed events the substrates exchange over the command
//! plane.

use cpn::RoutingStrategy;
use selfaware::comms::CommsPolicy;
use simkernel::rng::SeedTree;
use workloads::FaultCampaign;

/// Zone agent → controller over the city's command plane
/// ([`selfaware::comms::CommandPlane`]): the zone's backend backlog
/// (queued tasks across its cores) and the packet pressure on the
/// links into its gateway, both as observed by the agent this tick.
/// Comms ids `0..zones` are the zone agents, `zones` is the city
/// controller, `zones + 1` is the camera cluster head.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ZoneReport {
    /// Tasks queued across the zone's cores.
    pub backlog: u64,
    /// Packets queued on links into the zone's gateway node.
    pub gateway_pressure: u64,
}

/// Controller → camera cluster head or zone agent, over the city's
/// command plane.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CityOrder {
    /// To the camera cluster head: the current rung of the degradation
    /// ladder, sent when it changes. `shed` levels: 0 = full quality,
    /// 1 = halve the detection rate, 2 = quarter the rate and reduce
    /// resolution. `rehome[z] = Some(z')` redirects detections bound
    /// for zone `z` to zone `z'`'s gateway while `z` is believed
    /// unreachable.
    Directive {
        /// Camera shed level (0, 1 or 2).
        shed: u8,
        /// Per-zone re-home targets (`None` = deliver normally).
        rehome: Vec<Option<u8>>,
    },
    /// To a zone agent: its standing admission throttle, decided by
    /// hysteresis over the controller's *believed* backlog for the
    /// zone (so a stale belief throttles late — the cost the naive
    /// comms ablation pays). Re-sent periodically, which keeps command
    /// traffic flowing into a zone even while it is dark and makes
    /// retry-budget burn on dead links observable.
    Throttle {
        /// Whether the zone should stop admitting new detections.
        on: bool,
    },
}

/// Which layers of the stack run self-aware and which run naive —
/// the ablation surface of experiment F9.
#[derive(Debug, Clone, PartialEq)]
pub struct CityPolicy {
    /// Detection transport routing: learned CPN (optionally under a
    /// supervisor) or a periodically recomputed table.
    pub router: RoutingStrategy,
    /// Command-plane discipline: reliable + staleness-tracking, or
    /// fire-and-forget.
    pub comms: CommsPolicy,
    /// Whether camera quality readings pass through the
    /// [`selfaware::health::SensorHealth`] quarantine layer.
    pub health: bool,
    /// Whether the cross-layer degradation ladder (shed → re-home →
    /// throttle) is active.
    pub ladder: bool,
}

impl CityPolicy {
    /// The fully supervised, staleness-aware stack: every layer on.
    #[must_use]
    pub fn supervised() -> Self {
        Self {
            router: RoutingStrategy::SupervisedCpn,
            comms: CommsPolicy::default(),
            health: true,
            ladder: true,
        }
    }

    /// Ablation: fire-and-forget command plane (no acks, no
    /// staleness model — the controller trusts every stale report).
    #[must_use]
    pub fn naive_comms() -> Self {
        Self {
            comms: CommsPolicy::Naive,
            ..Self::supervised()
        }
    }

    /// Ablation: periodic table routing — no smart packets, no
    /// reinforcement learning, no routing supervisor.
    #[must_use]
    pub fn naive_router() -> Self {
        Self {
            router: RoutingStrategy::Periodic { period: 25 },
            ..Self::supervised()
        }
    }

    /// Ablation: raw camera readings — no sensor-health quarantine,
    /// corrupted qualities flow straight downstream.
    #[must_use]
    pub fn naive_cameras() -> Self {
        Self {
            health: false,
            ..Self::supervised()
        }
    }

    /// Every layer naive: table routing, fire-and-forget comms, raw
    /// sensors, no degradation ladder.
    #[must_use]
    pub fn all_naive() -> Self {
        Self {
            router: RoutingStrategy::Periodic { period: 25 },
            comms: CommsPolicy::Naive,
            health: false,
            ladder: false,
        }
    }

    /// Table label.
    #[must_use]
    pub fn label(&self) -> String {
        if *self == Self::supervised() {
            return "supervised".into();
        }
        if *self == Self::all_naive() {
            return "all-naive".into();
        }
        if *self == Self::naive_comms() {
            return "naive-comms".into();
        }
        if *self == Self::naive_router() {
            return "naive-router".into();
        }
        if *self == Self::naive_cameras() {
            return "naive-cameras".into();
        }
        format!(
            "custom({},{},health={},ladder={})",
            self.router.label(),
            self.comms.label(),
            self.health,
            self.ladder
        )
    }
}

/// Configuration of one composed smart-city run.
#[derive(Debug, Clone)]
pub struct CityConfig {
    /// Simulation length in ticks.
    pub steps: u64,
    /// City zones (vertical strips of the unit square), each with a
    /// gateway node and a backend.
    pub zones: usize,
    /// Multicore machines per zone backend (machine `z *
    /// cores_per_zone + k` is zone `z`'s k-th core — the index space
    /// [`workloads::FaultPlan`] `ZoneOutage` events address).
    pub cores_per_zone: usize,
    /// Cameras watching the square.
    pub cameras: usize,
    /// Baseline wanderer population; diurnal modulation activates a
    /// time-varying subset.
    pub wanderers: usize,
    /// Extra wanderers active during the flash-crowd window.
    pub crowd_extra: usize,
    /// Flash-crowd window `[start, end)` in ticks.
    pub crowd_window: (u64, u64),
    /// CPN grid rows.
    pub rows: usize,
    /// CPN grid columns.
    pub cols: usize,
    /// Mean service demand per detection (work units, exponential).
    pub mean_work: f64,
    /// End-to-end SLA deadline in ticks (camera shutter to backend
    /// completion).
    pub deadline: u64,
    /// The composed fault scenario: component faults + channel model
    /// + model corruption, one builder.
    pub campaign: FaultCampaign,
    /// Which layers run self-aware.
    pub policy: CityPolicy,
}

impl CityConfig {
    /// The standard F9 world: 3 zones × 3 cores, 8 cameras over a
    /// 4×6 CPN grid, 8 + 6 wanderers with a late flash crowd, and a
    /// benign (ideal-channel, fault-free) campaign — experiments
    /// replace [`CityConfig::campaign`] with real scenarios.
    #[must_use]
    pub fn standard(policy: CityPolicy, steps: u64, seeds: &SeedTree) -> Self {
        Self {
            steps,
            zones: 3,
            cores_per_zone: 3,
            cameras: 8,
            wanderers: 8,
            crowd_extra: 6,
            crowd_window: (steps * 3 / 5, steps * 3 / 5 + steps / 6),
            rows: 4,
            cols: 6,
            mean_work: 1.2,
            deadline: 30,
            campaign: FaultCampaign::new("benign", seeds),
            policy,
        }
    }

    /// The zone of a point with horizontal coordinate `x ∈ [0, 1]`.
    #[must_use]
    pub fn zone_of(&self, x: f64) -> usize {
        ((x * self.zones as f64) as usize).min(self.zones - 1)
    }

    /// The CPN gateway node of zone `z`: bottom row, centre column of
    /// the zone's strip.
    #[must_use]
    pub fn gateway(&self, z: usize) -> usize {
        let col = (z * self.cols / self.zones + self.cols / (2 * self.zones)).min(self.cols - 1);
        (self.rows - 1) * self.cols + col
    }

    /// The CPN ingress node of a camera at horizontal coordinate
    /// `x`: top row, nearest column.
    #[must_use]
    pub fn ingress(&self, x: f64) -> usize {
        ((x * self.cols as f64) as usize).min(self.cols - 1)
    }

    /// Machine-index range of zone `z`'s backend in the fault plan's
    /// node space.
    #[must_use]
    pub fn machine_range(&self, z: usize) -> std::ops::Range<usize> {
        z * self.cores_per_zone..(z + 1) * self.cores_per_zone
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkernel::rng::SeedTree;

    #[test]
    fn topology_maps_are_in_bounds() {
        let cfg = CityConfig::standard(CityPolicy::supervised(), 100, &SeedTree::new(1));
        let n = cfg.rows * cfg.cols;
        for z in 0..cfg.zones {
            let gw = cfg.gateway(z);
            assert!(gw < n, "gateway {gw} out of grid");
            assert!(
                gw >= (cfg.rows - 1) * cfg.cols,
                "gateway must sit on the bottom row"
            );
        }
        for x in [0.0, 0.3, 0.5, 0.99, 1.0] {
            assert!(cfg.ingress(x) < cfg.cols);
            assert!(cfg.zone_of(x) < cfg.zones);
        }
        // Distinct zones get distinct gateways.
        let gws: Vec<usize> = (0..cfg.zones).map(|z| cfg.gateway(z)).collect();
        let mut dedup = gws.clone();
        dedup.dedup();
        assert_eq!(gws, dedup);
    }

    #[test]
    fn policy_labels_are_distinct() {
        let labels: Vec<String> = [
            CityPolicy::supervised(),
            CityPolicy::naive_comms(),
            CityPolicy::naive_router(),
            CityPolicy::naive_cameras(),
            CityPolicy::all_naive(),
        ]
        .iter()
        .map(CityPolicy::label)
        .collect();
        let mut sorted = labels.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), labels.len(), "labels collide: {labels:?}");
    }
}
