//! `strandbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints one JSON result line last on standard output; notes go to
//! standard error. A failed check exits 1 without a result line.

use std::path::PathBuf;
use std::process::ExitCode;

use strandbench::trace::Spans;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {val}: {e}");
        match flag.as_str() {
            "--workload" => a.workload = val,
            "--seed" => a.seed = val.parse().map_err(|e| bad(&e))?,
            "--seconds" => a.seconds = val.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                a.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {val}: expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if a.workload.is_empty() {
        return Err("--workload is required".into());
    }
    if !(a.seconds > 0.0 && a.seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(a)
}

/// Where the traced run writes its Chrome trace: the build directory.
fn trace_path(a: &Args) -> PathBuf {
    let dir = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target"));
    dir.join(format!("strandbench-trace-{}-{}.json", a.workload, a.seed))
}

fn main() -> ExitCode {
    let a = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("strandbench: {e}");
            return ExitCode::from(2);
        }
    };
    let (_, _, steal0) = strandbench::common::sched_counters();
    let mut spans = Spans::on(200_000);
    let result = strandbench::run(
        &a.workload,
        a.seed,
        a.seconds,
        a.trace.then_some(&mut spans),
    );
    let outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!(
                "strandbench: {} seed {}: check failed: {e}",
                a.workload, a.seed
            );
            return ExitCode::FAILURE;
        }
    };
    let (cpu, wait, steal1) = strandbench::common::sched_counters();
    eprintln!(
        "{}: cpu_s={cpu:.2} runqueue_wait_s={wait:.2} host_steal_ticks={}",
        a.workload,
        steal1.saturating_sub(steal0)
    );
    for n in &outcome.notes {
        eprintln!("{}: {n}", a.workload);
    }
    eprintln!("{}: fingerprint={:016x}", a.workload, outcome.fingerprint);
    if a.trace {
        let counters: Vec<(String, f64)> = outcome
            .metrics
            .iter()
            .map(|m| (m.name.clone(), m.value))
            .collect();
        let path = trace_path(&a);
        match spans.write_chrome(&path, &counters) {
            Ok(()) => eprintln!("{}: trace written to {}", a.workload, path.display()),
            Err(e) => eprintln!("{}: trace not written: {e}", a.workload),
        }
    }
    match outcome.result_line() {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("strandbench: {e}");
            ExitCode::FAILURE
        }
    }
}
