//! `gate` — the bench-trajectory regression gate.
//!
//! Compares a freshly produced `BENCH_*.json` against a committed
//! baseline for exact structural equality (see [`here_bench::gate`]) and
//! exits 1 on any difference, so CI fails when a change moves a result.
//!
//! ```text
//! gate <baseline.json> <fresh.json>
//! ```
//!
//! Anything else — a flag, one path, three paths — prints usage and
//! exits 2.

use here_bench::gate::gate_files;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [baseline, fresh] = args.as_slice() else {
        usage()
    };
    if baseline.starts_with('-') || fresh.starts_with('-') {
        usage();
    }
    match gate_files(baseline, fresh) {
        Ok(report) => print!("{report}"),
        Err(report) => {
            // Read/parse errors carry no trailing newline; reports do.
            println!("{}", report.trim_end());
            std::process::exit(1);
        }
    }
}

fn usage() -> ! {
    eprintln!("usage: gate <baseline.json> <fresh.json>");
    std::process::exit(2);
}
