//! Policy sweep: one application across NuRAPID's promotion policies and
//! d-group counts, using the same experiment harness the paper figures
//! use.
//!
//! ```text
//! cargo run --release --example policy_sweep [app]
//! ```

use nurapid_suite::experiments::exps::{kind_of, Sweep};
use nurapid_suite::experiments::runner::run_app;
use nurapid_suite::experiments::Scale;
use nurapid_suite::workloads::profiles;

fn main() {
    let name = std::env::args().nth(1).unwrap_or_else(|| "mgrid".into());
    let app = profiles::by_name(&name).unwrap_or_else(|| {
        eprintln!(
            "unknown application {name:?}; choose one of: {}",
            profiles::ROSTER.iter().map(|p| p.name).collect::<Vec<_>>().join(", ")
        );
        std::process::exit(2);
    });

    let scale = Scale {
        warmup: 400_000,
        measure: 600_000,
    };
    let base = run_app(app, &kind_of("base"), scale);
    println!(
        "{}: base IPC {:.2}, {:.1} L2 accesses / 1K instructions\n",
        app.name,
        base.ipc(),
        base.apki()
    );
    println!(
        "{:<34} {:>8} {:>9} {:>8} {:>8}",
        "configuration", "rel perf", "g0 hits", "swaps", "L2 nJ/KI"
    );
    let configs = [
        ("demotion-only, 4 d-groups", "dm4"),
        ("next-fastest, 4 d-groups", "nf4"),
        ("fastest, 4 d-groups", "fs4"),
        ("ideal (14-cycle hits)", "id4"),
        ("next-fastest, 2 d-groups", "nf2"),
        ("next-fastest, 8 d-groups", "nf8"),
        ("set-assoc placement, 4 d-groups", "sa4"),
        ("D-NUCA ss-performance", "dn-perf"),
    ];
    let sweep = Sweep::with_apps(scale, vec![app]);
    for (label, key) in configs {
        let r = sweep.run(app, key);
        let c = &r.counters;
        println!(
            "{:<34} {:>8.3} {:>8.1}% {:>8} {:>8.2}",
            label,
            r.ipc() / base.ipc(),
            r.group_fracs().first().copied().unwrap_or(0.0) * 100.0,
            c.org.swaps,
            c.org.l2_energy.nj() * 1000.0 / c.core.instructions as f64
        );
    }
    println!(
        "\n(rel perf = IPC relative to the conventional 1-MB L2 + 8-MB L3\n\
         hierarchy; g0 hits = fraction of L2 accesses served by the fastest\n\
         d-group / bank position.)"
    );
}
