//! Command line of the benchmark.
//!
//! ```text
//! perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! perfbench --record <seed>...
//! ```
//!
//! A run prints a human-readable table on standard error and, as the last
//! line of standard output, one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics` (end-to-end metrics with
//! `--trace 0`, per-layer metrics with `--trace 1`). A traced run also
//! writes its per-boundary records and spans to
//! `perfbench/out/trace-<workload>-seed<N>.json`.
//!
//! `--record` runs one iteration of every workload at each seed and prints
//! the `fingerprints.txt` lines; re-record after any intended change to
//! modelled timing.

use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use perfbench::probe::Probe;
use perfbench::report::{fingerprint, result_json};
use perfbench::workloads::{run_iteration, Inputs, Scale, Workload};
use perfbench::{recorded_fingerprint, run, DEFAULT_SEED};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 20.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::parse(name).ok_or_else(|| format!("unknown workload {name}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_owned());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn record(seeds: &[String]) -> Result<(), String> {
    println!("# Fingerprints of every simulated statistic of one iteration at Scale::FULL:");
    println!("# <workload> <seed> <hex>. Regenerate after an intended change to modelled");
    println!("# timing: cargo run --release --offline --manifest-path perfbench/Cargo.toml -- --record $(seq 0 31) 20151205 > perfbench/fingerprints.txt");
    for s in seeds {
        let seed: u64 = s.parse().map_err(|e| format!("seed {s}: {e}"))?;
        for w in Workload::ALL {
            let probe = Probe::new(Instant::now(), 0);
            let it = run_iteration(w, seed, &Scale::FULL, false, probe, &mut Inputs::default());
            if it.failed != 0 {
                return Err(format!(
                    "{} seed {seed}: {} failed operations",
                    w.name(),
                    it.failed
                ));
            }
            println!("{} {seed} {:016x}", w.name(), fingerprint(w, &it));
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--record") {
        return match record(&argv[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let recorded = recorded_fingerprint(w, args.seed);
    let out = run(
        w,
        args.seed,
        args.seconds,
        args.trace,
        &Scale::FULL,
        recorded,
    );

    eprintln!(
        "{} seed {}: {} iterations, {} attempted, {} failed; fingerprint {:016x} ({}, {})",
        w.name(),
        args.seed,
        out.iterations,
        out.attempted,
        out.failed,
        out.fingerprint,
        if out.repeatable {
            "repeats"
        } else {
            "DIFFERS between iterations"
        },
        match recorded {
            Some(r) if r == out.fingerprint => "matches the recorded value".to_owned(),
            Some(r) => format!("MISMATCH: recorded {r:016x}"),
            None => "no recorded value for this seed".to_owned(),
        }
    );
    for (i, (eps, setup, calib)) in out.per_iteration.iter().enumerate() {
        eprintln!(
            "  untraced iteration {i:>2}: {eps:>14.1} raw events/s, raw set-up {setup:.6} s, calibration {calib:.6} s"
        );
    }
    for m in &out.metrics {
        eprintln!("  {:<40} {:>18.6} {}", m.name, m.value, m.unit);
    }
    if args.trace {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("trace-{}-seed{}.json", w.name(), args.seed));
        let written = std::fs::create_dir_all(&dir).and_then(|()| {
            std::fs::write(
                &path,
                perfbench::report::trace_json(w, args.seed, &out.trace),
            )
        });
        match written {
            Ok(()) => eprintln!("  trace written to {}", path.display()),
            Err(e) => {
                eprintln!("perfbench: writing {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    println!(
        "{}",
        result_json(out.correct, out.attempted, out.failed, &out.metrics)
    );
    ExitCode::SUCCESS
}
