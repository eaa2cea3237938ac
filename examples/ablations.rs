//! Ablation sweeps over the design space the paper holds fixed.
//!
//! * **WAN latency** — how each configuration's remote-browser experience
//!   scales as the one-way latency grows (the design rules matter *more*
//!   the farther the edge);
//! * **RMI chattiness** — the §4.2 observation that DGC/ping round trips
//!   dilute the façade pattern's benefit;
//! * **Write blocking** — the sync-push vs async crossover on the writer
//!   path (Pet Store Commit, §4.3 vs §4.5).
//!
//! ```sh
//! cargo run --release --example ablations
//! ```

use mutable_services::core::{AppKind, Config, Scenario};
use mutable_services::desim::SimDuration;

const REMOTE: [&str; 2] = ["remote1", "remote2"];

fn main() {
    println!("\n== ablation: WAN one-way latency vs remote browser session (Pet Store) ==");
    println!(
        "{:<12} {:>14} {:>14} {:>14}",
        "latency(ms)", "centralized", "remote-facade", "async-updates"
    );
    for ms in [25, 50, 100, 200] {
        let mut row = format!("{ms:<12}");
        for config in [
            Config::Centralized,
            Config::RemoteFacade,
            Config::AsyncUpdates,
        ] {
            let report = Scenario::quick(AppKind::PetStore, config)
                .with_wan_latency(SimDuration::from_millis(ms))
                .run();
            let v = report
                .stats
                .session_mean_over_groups(&REMOTE, "Browser")
                .unwrap();
            row.push_str(&format!(" {v:>12.0}ms"));
        }
        println!("{row}");
    }

    println!("\n== ablation: RMI extra-round-trip probability vs remote Category page ==");
    println!("{:<12} {:>14}", "probability", "remote-facade");
    for prob in [0.0, 0.35, 0.65, 1.0] {
        let report = Scenario::quick(AppKind::PetStore, Config::RemoteFacade)
            .with_rmi_chattiness(prob)
            .run();
        let v = report
            .stats
            .mean_ms_over_groups(&REMOTE, "Browser", "Category")
            .unwrap();
        println!("{prob:<12} {v:>12.0}ms");
    }

    println!("\n== ablation: writer path — blocking push vs async (Pet Store Commit) ==");
    println!("{:<18} {:>10} {:>10}", "configuration", "local", "remote");
    for config in [
        Config::RemoteFacade,
        Config::StatefulCaching,
        Config::AsyncUpdates,
    ] {
        let report = Scenario::quick(AppKind::PetStore, config).run();
        let local = report.stats.mean_ms("local", "Buyer", "Commit").unwrap();
        let remote = report
            .stats
            .mean_ms_over_groups(&REMOTE, "Buyer", "Commit")
            .unwrap();
        println!("{:<18} {local:>8.0}ms {remote:>8.0}ms", config.name());
    }
    println!();
}
