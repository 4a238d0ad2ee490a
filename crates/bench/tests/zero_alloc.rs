//! Counting-allocator proofs of allocation contracts: the comms
//! layer's, the packet plane's, the DES scheduler's and the sparse
//! camnet tick's zero-allocation steady states, per-tick allocation
//! bounds on a supervised composed-city replicate and on a
//! `cpn::run_cpn` world, and a CPN router copy whose cost does not
//! grow with the grid.
//!
//! `selfaware::comms` promises that the steady-state reliable
//! send/deliver/ack cycle performs no heap allocation per message
//! (payload slab + bitmap dedup + recycled delivery buffers), and
//! that the retry path stays allocation-free while it records an
//! explanation per retry. This test installs a counting `GlobalAlloc` and
//! holds the layer to it: after a warmup that populates every reused
//! buffer, a long steady-state run must leave the allocation counter
//! untouched.
//!
//! The counter is **per-thread**: the libtest harness thread keeps
//! running (and occasionally allocating for its timed bookkeeping)
//! while the test thread measures, so a process-wide counter would be
//! flaky. Only allocations made by the measuring thread itself count.

use selfaware::comms::{Channel, ChannelOutcome, CommsNetwork, CommsPolicy, IdealChannel};
use selfaware::explain::ExplanationLog;
use simkernel::{obs, SeedTree, SimScheduler, Tick};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Mutex;

/// Serialises the tests that force observability off: the override is
/// process-wide, and one test restoring it must not switch spans on
/// under another test's measurement.
static OBS_OFF: Mutex<()> = Mutex::new(());

thread_local! {
    // const-initialised Cell: reading/bumping it never allocates, so
    // the allocator cannot recurse into itself.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // try_with: a thread whose TLS is already torn down (destructor
    // running a final allocation) simply goes uncounted instead of
    // panicking inside the allocator.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

struct CountingAlloc;

// SAFETY: defers entirely to `System`; the counter is a plain
// thread-local cell with no other side effects.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCS.try_with(Cell::get).unwrap_or(0)
}

/// Loses every first attempt of a data frame; retransmissions and
/// acks pass. Forces the retry path on every single message.
struct FirstAttemptDrop;

const ACK_BIT: u64 = 1 << 63;
const ATTEMPT_SHIFT: u32 = 48;

impl Channel for FirstAttemptDrop {
    fn transmit(&self, _src: usize, _dst: usize, seq: u64, now: Tick) -> ChannelOutcome {
        let is_ack = seq & ACK_BIT != 0;
        let attempt = (seq & !ACK_BIT) >> ATTEMPT_SHIFT;
        if !is_ack && attempt == 0 {
            ChannelOutcome::lost()
        } else {
            ChannelOutcome::delivered(now)
        }
    }
}

/// Runs `ticks` send+step cycles and returns how many allocations
/// they performed.
fn run_cycles<C: Channel>(
    net: &mut CommsNetwork<u64>,
    ch: &C,
    log: &mut ExplanationLog,
    start: u64,
    ticks: u64,
) -> u64 {
    let mut inbox = Vec::with_capacity(16);
    // One send per tick from each direction keeps both links hot.
    let before = allocations();
    for t in start..start + ticks {
        net.send(ch, 0, 1, t, Tick(t), log);
        net.send(ch, 1, 0, t, Tick(t), log);
        inbox.clear();
        net.step_into(ch, Tick(t), log, &mut inbox);
    }
    allocations() - before
}

#[test]
fn steady_state_comms_cycle_is_allocation_free() {
    // Force observability off regardless of the environment: span
    // timing is outside this contract.
    let _obs = OBS_OFF
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    obs::set_override(Some(false));

    // Phase A: ideal channel (the steady state records nothing).
    let mut net: CommsNetwork<u64> = CommsNetwork::new(CommsPolicy::default());
    let mut log = ExplanationLog::new(64);
    let warmup = run_cycles(&mut net, &IdealChannel, &mut log, 0, 64);
    assert!(warmup > 0, "warmup should populate the reused buffers");
    let steady = run_cycles(&mut net, &IdealChannel, &mut log, 64, 512);
    assert_eq!(
        steady, 0,
        "ideal-channel send/deliver/ack steady state must not allocate"
    );

    // Phase B: every message loses its first attempt, so every
    // message exercises backoff bookkeeping and retransmission, and
    // every retry records its explanation: recording must keep the
    // whole retry path allocation-free too.
    let mut lossy_net: CommsNetwork<u64> = CommsNetwork::new(CommsPolicy::default());
    let mut lossy_log = ExplanationLog::new(64);
    run_cycles(&mut lossy_net, &FirstAttemptDrop, &mut lossy_log, 0, 64);
    let retry_allocs = run_cycles(&mut lossy_net, &FirstAttemptDrop, &mut lossy_log, 64, 512);
    assert_eq!(
        retry_allocs, 0,
        "retry/ack steady state, recording each retry, must not allocate"
    );
    assert!(
        lossy_net.stats().retries > 500,
        "the lossy phase must actually exercise retries (saw {})",
        lossy_net.stats().retries
    );
    assert!(
        lossy_log.iter().any(|e| e.kind == "comms:retry"),
        "the lossy phase must record its retries"
    );

    obs::set_override(None);
}

/// A supervised city replicate under the F9 cascade allocates at most
/// this many times per tick, set-up included: 1.63 measured (1.74
/// before the command plane's per-link tables), rounded up past a
/// quarter for headroom. Packets wait in the plane's queues
/// as handles and take their hop logs from a pool, the backend keeps
/// task qualities in an id-ordered window, every per-tick buffer is
/// reused, the router's fallback table is built only while the
/// supervisor benches the model, a copy of the router is a few
/// allocations (see the clone test below), and recording an
/// explanation allocates nothing.
const CITY_ALLOCS_PER_TICK: u64 = 3;

#[test]
fn supervised_city_replicate_stays_under_its_allocation_bound() {
    let _obs = OBS_OFF
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    obs::set_override(Some(false));
    let steps = 3000;
    let seeds = SeedTree::new(7).child("city");
    let mut cfg = compose::CityConfig::standard(compose::CityPolicy::supervised(), steps, &seeds);
    cfg.campaign = sas_bench::f9_campaign(&seeds, steps);
    let before = allocations();
    let r = compose::run_city(&cfg, &seeds);
    let allocs = allocations() - before;
    obs::set_override(None);
    assert!(
        r.metrics.get("model_rollbacks").unwrap_or(0.0)
            + r.metrics.get("model_fallbacks").unwrap_or(0.0)
            > 0.0,
        "the cascade must exercise the supervisor: {:?}",
        r.metrics
    );
    assert!(
        allocs <= CITY_ALLOCS_PER_TICK * steps,
        "{allocs} allocations over {steps} ticks ({:.2} per tick) exceed the bound of {CITY_ALLOCS_PER_TICK} per tick",
        allocs as f64 / steps as f64
    );
}

/// A 3000-tick run of F2's standard world under the CPN router
/// allocates at most this many times per tick, set-up included: 0.37
/// measured, rounded up to the next whole number. The packet plane
/// moves handles and pools its hop logs, routing reads the believed
/// queue reports in place unless a lossy channel discounts them, each
/// router's queue report is a `Copy` array, copied into the believed
/// state on delivery, and the command plane keeps its per-link state in
/// flat tables. Its B-tree maps made it 3.37 a tick, reports sent as
/// fresh `Vec`s 51.4, and a hop log allocated per packet 56.0.
const CPN_ALLOCS_PER_TICK: u64 = 1;

#[test]
fn cpn_run_stays_under_its_allocation_bound() {
    let _obs = OBS_OFF
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    obs::set_override(Some(false));
    let steps = 3000;
    let cfg = cpn::CpnConfig::standard(cpn::RoutingStrategy::cpn_default(), steps);
    let before = allocations();
    let r = cpn::run_cpn(&cfg, &SeedTree::new(0xF2));
    let allocs = allocations() - before;
    obs::set_override(None);
    assert!(
        r.metrics.get("delivered").unwrap_or(0.0) > 0.0,
        "the run must carry traffic: {:?}",
        r.metrics
    );
    assert!(
        allocs <= CPN_ALLOCS_PER_TICK * steps,
        "{allocs} allocations over {steps} ticks ({:.2} per tick) exceed the bound of {CPN_ALLOCS_PER_TICK} per tick",
        allocs as f64 / steps as f64
    );
}

/// Allocations of a sparse `camnet::des` run over `steps` ticks, 20²
/// cameras tracking 256 objects, set-up and result included.
fn sparse_camnet_allocations(steps: u64) -> u64 {
    let cfg = camnet::des::DesCamnetConfig::at_scale(20, 256, steps);
    let before = allocations();
    let r = camnet::des::run_des_camnet(&cfg, &SeedTree::new(12));
    let allocs = allocations() - before;
    assert!(
        r.perf.wakes > 100 * steps,
        "the objects must wake cameras: {:?}",
        r.perf
    );
    allocs
}

/// A longer sparse camnet run may allocate at most this many times more
/// than a shorter one: the scheduler's arena and the seer buffer can
/// reach a new high-water mark now and then. 0 measured over 1,800
/// extra ticks.
const CAMNET_EXTRA_ALLOCS: u64 = 8;

/// Once its buffers have grown, a sparse camnet tick allocates nothing:
/// the seer query, the per-camera tallies and every wake reuse
/// storage.
#[test]
fn sparse_camnet_tick_is_allocation_free() {
    let short = sparse_camnet_allocations(200);
    let long = sparse_camnet_allocations(2_000);
    assert!(
        long <= short + CAMNET_EXTRA_ALLOCS,
        "2,000 ticks made {long} allocations, 200 ticks {short}"
    );
}

/// Ticks of packet-plane warm-up and of measurement.
const PLANE_TICKS: u64 = 2_000;

/// Runs the plane through `ticks`, injecting `per_tick` packets between
/// random nodes each tick, and returns how many allocations that
/// performed and how many hops the packets delivered in it took.
fn run_plane_ticks(
    net: &mut cpn::net::Net<()>,
    graph: &cpn::Graph,
    routing: &mut cpn::Routing,
    rngs: &mut (simkernel::rng::Rng, simkernel::rng::Rng),
    ticks: std::ops::Range<u64>,
    per_tick: usize,
) -> (u64, usize) {
    use rand::Rng as _;
    let n = graph.len();
    let mut hops = 0;
    let before = allocations();
    for t in ticks {
        let (inject, route) = rngs;
        let mut env = cpn::net::Env {
            graph,
            routing,
            rng: route,
            frozen: false,
            now: Tick(t),
        };
        for _ in 0..per_tick {
            let (src, dst) = (inject.gen_range(0..n), inject.gen_range(0..n));
            net.inject(&mut env, src, dst, (), |()| {});
        }
        // The first tick sends a packet over every link, so that no
        // queue is used for the first time later on.
        if t == 0 {
            for u in 0..n {
                for &v in graph.neighbours(u) {
                    net.inject(&mut env, u, v, (), |()| {});
                }
            }
        }
        let arrive = |pkt: &cpn::net::Packet<()>| {
            // Without the destination logged, a delivered packet's log
            // holds one entry per hop.
            hops += pkt.hop_log.len();
            cpn::net::Arrival::Deliver
        };
        net.step(&mut env, |_, _| cpn::net::BANDWIDTH, arrive, |()| {});
    }
    (allocations() - before, hops)
}

/// Once every queue, the packet slab and the hop-log pool have grown to
/// their working size, moving packets allocates nothing: a packet waits
/// in its queues as a handle, its hop log comes from the pool, and a
/// hop reinforces the model in place.
#[test]
fn steady_state_packet_plane_is_allocation_free() {
    let policy = cpn::net::Policy {
        ttl: 48,
        queue_cap: 60,
        log_destination: false,
    };
    let graph = cpn::Graph::grid(4, 6);
    let mut routing = cpn::Routing::new(
        cpn::RoutingStrategy::cpn_default(),
        &graph,
        "plane",
        selfaware::replay::InterventionMask::allow_all(),
    );
    // Room for the TTL's worth of entries: no log ever regrows.
    let mut net = cpn::net::Net::new(&graph, policy, policy.ttl);
    let seeds = SeedTree::new(23);
    let mut rngs = (seeds.rng("inject"), seeds.rng("route"));
    // The warm-up's heavier load grows every queue, the slab and the
    // log pool past what the measured load needs.
    let ticks = 0..PLANE_TICKS;
    let (warmup, _) = run_plane_ticks(&mut net, &graph, &mut routing, &mut rngs, ticks, 9);
    assert!(warmup > 0, "warmup should grow the plane's storage");
    let ticks = PLANE_TICKS..2 * PLANE_TICKS;
    let (steady, hops) = run_plane_ticks(&mut net, &graph, &mut routing, &mut rngs, ticks, 6);
    assert!(hops > 10_000, "only {hops} hops");
    assert_eq!(
        steady, 0,
        "the packet plane's steady state must not allocate"
    );
}

/// Cloning a CPN router, as the supervisor's copy-on-write does after
/// every checkpoint, costs a fixed handful of allocations whatever the
/// grid's size: the delay estimates are one slab.
#[test]
fn cpn_router_clone_allocations_do_not_grow_with_the_grid() {
    let clone_allocs = |rows: usize, cols: usize| {
        let router = cpn::RoutingStrategy::cpn_default().build(&cpn::Graph::grid(rows, cols));
        let before = allocations();
        let copy = router.clone();
        let allocs = allocations() - before;
        drop(copy);
        allocs
    };
    let small = clone_allocs(4, 6);
    assert_eq!(small, clone_allocs(8, 8), "clone cost grew with the grid");
    assert!(small <= 3, "{small} allocations per clone");
}

/// Same-tick wakes per tick in the scheduler cycle below.
const BURST: usize = 256;
/// Entities that keep one churn wake pending at all times.
const CHURNERS: usize = 512;
/// Ticks per cycle: longer than the longest churn gap.
const SCHED_CYCLE: u64 = 51_200;
/// The scheduler's wheel span in ticks (a copy of its private
/// constant): a wake this far ahead or more waits in the far heap.
const SCHED_WINDOW: u64 = 1 << 15;

/// Ticks until churner `k`'s next transition after tick `t`: 2,000 to
/// 49,999, so about a third land beyond the scheduler's wheel.
fn churn_gap(k: usize, t: u64) -> u64 {
    2_000 + (k as u64 * 7_919 + t * 31) % 48_000
}

/// Runs `ticks` ticks shaped like the `des` worlds and returns how many
/// allocations they performed and how many churn wakes they scheduled
/// beyond the wheel: churn wakes (class 0) re-arm a few thousand to
/// tens of thousands of ticks ahead, a same-tick burst of dirty-input
/// wakes (class 1) drains in its tick, and every eighth woken entity
/// stays busy and re-wakes at `t + 1`.
fn run_sched_ticks(s: &mut SimScheduler<usize>, start: u64, ticks: u64) -> (u64, u64) {
    let mut far = 0;
    let before = allocations();
    for t in start..start + ticks {
        let now = Tick(t);
        s.advance(now);
        while s.peek().is_some_and(|(at, class)| at <= now && class == 0) {
            if let Some((_, _, k)) = s.pop_due(now) {
                let gap = churn_gap(k, t);
                far += u64::from(gap >= SCHED_WINDOW);
                s.wake_at(Tick(t + gap), 0, k);
            }
        }
        for k in 0..BURST {
            s.wake_on_input(1, 2 * k);
        }
        // Odd keys are re-wakes, which do not re-wake again.
        while let Some((_, _, k)) = s.pop_due(now) {
            if k % 16 == 0 {
                s.wake_at(Tick(t + 1), 1, k + 1);
            }
        }
    }
    (allocations() - before, far)
}

#[test]
fn steady_state_scheduler_cycle_is_allocation_free() {
    let mut s: SimScheduler<usize> = SimScheduler::new();
    for k in 0..CHURNERS {
        s.wake_at(Tick(churn_gap(k, 0)), 0, k);
    }
    let (warmup, _) = run_sched_ticks(&mut s, 0, SCHED_CYCLE);
    assert!(warmup > 0, "warmup should grow the scheduler's storage");
    let (steady, far) = run_sched_ticks(&mut s, SCHED_CYCLE, SCHED_CYCLE);
    assert_eq!(steady, 0, "the scheduler's steady state must not allocate");
    // 356 of the cycle's 997 re-arms go beyond the wheel.
    assert!(
        far >= CHURNERS as u64 / 2,
        "only {far} churn wakes went beyond the wheel"
    );
    assert_eq!(
        s.len(),
        CHURNERS + BURST / 8,
        "one churn wake per churner plus the re-wakes"
    );
}
