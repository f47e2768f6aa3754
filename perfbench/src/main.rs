//! `silc-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload from the checkout root and prints its full record,
//! then, as the last line, the result: `correct`, `attempted`, `failed`
//! and every end-to-end metric (untraced) or per-layer metric (traced) by
//! name with its unit. Exits non-zero when the correctness gate fails or
//! the run cannot complete.

use silc_perfbench::metrics::{END_TO_END, PER_LAYER};
use silc_perfbench::{run, Config, Constants, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

fn usage(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: silc-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        Workload::ALL.map(Workload::name).join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 10.0f64, false);
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut value = || args.next().unwrap_or_default();
        match a.as_str() {
            "--workload" => match Workload::parse(&value()) {
                Some(w) => workload = Some(w),
                None => return usage("unknown workload"),
            },
            "--seed" => match value().parse() {
                Ok(s) => seed = s,
                Err(_) => return usage("--seed takes an unsigned integer"),
            },
            "--seconds" => match value().parse::<f64>() {
                Ok(s) if s > 0.0 => seconds = s,
                _ => return usage("--seconds takes a positive number"),
            },
            "--trace" => match value().as_str() {
                "0" => trace = false,
                "1" => trace = true,
                _ => return usage("--trace takes 0 or 1"),
            },
            other => return usage(&format!("unknown argument {other}")),
        }
    }
    let Some(workload) = workload else { return usage("--workload is required") };
    let root = PathBuf::from(".");
    let cfg = Config {
        workload,
        seed,
        seconds,
        trace,
        constants: Constants::full(),
        work_dir: root.join(".perfbench-work"),
        root,
    };
    let rec = match run(&cfg) {
        Ok(rec) => rec,
        Err(e) => {
            eprintln!("error: {} failed: {e}", workload.name());
            return ExitCode::FAILURE;
        }
    };
    let defs = if trace { PER_LAYER } else { END_TO_END };
    let line = match rec.result_line(defs) {
        Ok(line) => line,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("{}", rec.record_line());
    println!("{line}");
    if rec.correct() {
        ExitCode::SUCCESS
    } else {
        for m in &rec.mismatches {
            eprintln!("gate: {m}");
        }
        ExitCode::FAILURE
    }
}
