//! Quick-start demo: run the standard chaos campaign against the
//! supervised live server and print what the governor did.
//!
//! ```text
//! cargo run --release --bin liveserve_demo [seed] [ticks]
//! ```
//!
//! Ticks are 10 ms governor quanta (default 500 = 5 s of traffic).

use liveserve::{run_arm, Arm, ChaosPlan};
use simkernel::SeedTree;

fn main() {
    liveserve::install_quiet_panic_hook();
    let mut args = std::env::args().skip(1);
    let seed: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(42);
    let ticks: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(500);

    let plan = ChaosPlan::standard(ticks);
    println!(
        "liveserve demo: seed={seed} ticks={ticks} (~{}s), base {} rps, burst x{}",
        ticks * plan.quantum_ms / 1000,
        plan.base_rps,
        plan.burst_mult
    );

    let seeds = SeedTree::new(seed);
    for arm in [Arm::Supervised, Arm::Naive] {
        match run_arm(arm, &plan, &seeds) {
            Ok(r) => {
                println!("\n== {} ==", arm.label());
                println!(
                    "  goodput {:.1} ok/s | on-time {}/{} | p50 {:.0}ms p99 {:.0}ms | err {:.1}%",
                    r.load.goodput(),
                    r.load.on_time,
                    r.load.offered,
                    r.load.latency_percentile(0.50),
                    r.load.latency_percentile(0.99),
                    r.load.error_rate() * 100.0
                );
                println!(
                    "  server: served {} shed {} timed-out {} panics {} | clean shutdown: {} ({}/{} threads joined)",
                    r.server.served,
                    r.server.shed,
                    r.server.timed_out,
                    r.server.panicked,
                    r.server.clean_shutdown,
                    r.server.threads_joined,
                    r.server.threads_spawned
                );
                if arm == Arm::Supervised {
                    println!(
                        "  supervision: warns {} rollbacks {} fallbacks {} repromotions {}",
                        r.supervision.warns,
                        r.supervision.rollbacks,
                        r.supervision.fallbacks,
                        r.supervision.repromotions
                    );
                    for e in r.log.iter() {
                        println!("  t={:>5} {}", e.at.value(), e.action());
                    }
                }
            }
            Err(e) => {
                eprintln!("{} arm failed: {e}", arm.label());
                std::process::exit(1);
            }
        }
    }
}
