//! The repository benchmark: one workload per run, its outputs checked,
//! one JSON result line on stdout. Why each workload exists and what each
//! metric means is in NOTES.md.
//!
//! ```text
//! perfbench --workload paper-mpi --seed 7 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` runs the workload
//! with spans around every call into the workspace's crates and reports
//! the per-layer metrics, writing the spans as Chrome-trace JSON.

mod advisor;
mod harness;
mod paper_mpi;
mod replay;
mod sched;
mod trace;

use harness::{Args, Outcome};
use trace::Tracer;

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut tracer = Tracer::new(args.trace);
    let mut out = Outcome::default();
    let result = match args.workload.as_str() {
        "paper-mpi" => paper_mpi::run(&args, &mut tracer, &mut out),
        "sched-stream" => sched::run_stream(&args, &mut tracer, &mut out),
        "sched-conservative" => sched::run_conservative(&args, &mut tracer, &mut out),
        "advisor-zipf" => advisor::run(&args, &mut tracer, &mut out),
        other => unreachable!("Args::parse admits only known workloads, got {other}"),
    };
    if let Err(e) = result {
        eprintln!("perfbench: {}: {e}", args.workload);
        std::process::exit(1);
    }
    if args.trace {
        out.absorb_trace(&tracer);
        write_trace(&args, &tracer);
    }
    out.print(&args);
}

/// Write the spans next to the build output (`$CARGO_TARGET_DIR`, else
/// `target`), where `*.trace.json` is ignored by git.
fn write_trace(args: &Args, tracer: &Tracer) {
    let dir = std::path::PathBuf::from(
        std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into()),
    )
    .join("perfbench");
    let path = dir.join(format!("{}-seed{}.trace.json", args.workload, args.seed));
    let json = tracer.to_chrome_json(&format!("perfbench {}", args.workload));
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, json)) {
        Ok(()) => eprintln!("perfbench: wrote {}", path.display()),
        Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
    }
}
