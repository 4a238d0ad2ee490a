//! Counting-allocator proofs of allocation contracts: the comms
//! layer's zero-allocation steady state, a per-tick allocation bound
//! on a supervised composed-city replicate, and a CPN router copy whose
//! cost does not grow with the grid.
//!
//! `selfaware::comms` promises that the steady-state reliable
//! send/deliver/ack cycle performs no heap allocation per message
//! (payload slab + bitmap dedup + recycled delivery buffers), and
//! that the retry path stays allocation-free while the explanation
//! log is disabled. This test installs a counting `GlobalAlloc` and
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
use simkernel::{obs, SeedTree, Tick};
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

    // Phase A: ideal channel, explanation log enabled (the steady
    // state records nothing, so enabled logging must still be free).
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
    // message exercises backoff bookkeeping and retransmission. With
    // the log disabled, the lazy explanation construction must keep
    // the whole retry path allocation-free too.
    let mut lossy_net: CommsNetwork<u64> = CommsNetwork::new(CommsPolicy::default());
    let mut quiet = ExplanationLog::new(64);
    quiet.set_enabled(false);
    run_cycles(&mut lossy_net, &FirstAttemptDrop, &mut quiet, 0, 64);
    let retry_allocs = run_cycles(&mut lossy_net, &FirstAttemptDrop, &mut quiet, 64, 512);
    assert_eq!(
        retry_allocs, 0,
        "retry/ack steady state with a disabled log must not allocate"
    );
    assert!(
        lossy_net.stats().retries > 500,
        "the lossy phase must actually exercise retries (saw {})",
        lossy_net.stats().retries
    );

    obs::set_override(None);
}

/// A supervised city replicate under the F9 cascade allocates at most
/// this many times per tick, set-up included: 27.2 measured, plus a
/// quarter for headroom. The router's fallback table is built only
/// while the supervisor benches the model, a copy of the router is a
/// few allocations (see the clone test below), the transit loop reuses
/// its arrivals buffer, and each packet's hop log is sized for a
/// shortest route across the grid when the packet is created.
const CITY_ALLOCS_PER_TICK: u64 = 34;

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
        "{allocs} allocations over {steps} ticks ({} per tick) exceed the bound of {CITY_ALLOCS_PER_TICK} per tick",
        allocs / steps
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
