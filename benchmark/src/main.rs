//! End-to-end benchmark of the ICNet chain: label → train → serve.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload runs the whole chain, stage after stage, each stage in a
//! child process of its own (see [`stage`]), so every run measures every
//! end-to-end metric:
//!
//! 1. label — the SAT-attack labelling sweep (`labels_per_s`);
//! 2. train — batched ICNet training on the bundled 120-instance dataset
//!    (`epoch_ms`);
//! 3. serve — the prediction server under open and closed loop
//!    (`lat_lo_p50_ms`, `lat_hi_p50_ms`, `max_rps`).
//!
//! The workloads differ in what the server is sent:
//!
//! * `chain-shared` — one c1529 netlist with many key-gate masks over
//!   keep-alive connections;
//! * `chain-fresh` — a new small netlist and a new connection per request.
//!
//! `setup_s` is the sum of the stages' set-up times and `peak_rss_mb` the
//! largest peak resident set of the stages' processes. With `--trace 0`
//! the run measures the end-to-end metrics; with `--trace 1` a separate run
//! fills the per-layer ledger of every stage (printed to stderr and written
//! to `.bench_out/ledger-<workload>.json`). The last stdout line is always one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`. A failed
//! output check prints `"correct": false` and exits with code 1.

mod client;
mod host;
mod label;
mod ledger;
mod report;
mod serving;
mod stage;
mod stats;
mod train;

use ledger::Ledger;
use report::Outcome;
use stage::{StageProcess, StageResult, Started};
use std::time::Instant;

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Fill the per-layer ledger instead of the end-to-end metrics.
    pub trace: bool,
    /// Run this one stage of the workload and report it to the parent
    /// process (set only by the parent).
    pub stage: Option<String>,
}

const WORKLOADS: [&str; 2] = ["chain-shared", "chain-fresh"];

const USAGE: &str = "usage: icnet-benchmark --workload <chain-shared|chain-fresh> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Shares of `--seconds` the label, train and serve stages measure for.
const STAGE_SHARES: [f64; 3] = [0.5, 0.2, 0.3];

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut stage) =
        (None, None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => return Err(format!("unknown workload `{value}`")),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--stage" if stage::STAGES.contains(&value.as_str()) => stage = Some(value),
            "--stage" => return Err(format!("unknown stage `{value}`")),
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(0),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
        stage,
    })
}

/// How many times a workload sets up per run; `setup_s` is the median.
pub const SETUP_REPS: usize = 3;

/// Runs `setup` [`SETUP_REPS`] times and returns the median wall time in
/// seconds with the last result; earlier results go to `teardown`.
pub fn repeated_setup<T>(mut setup: impl FnMut() -> T, mut teardown: impl FnMut(T)) -> (f64, T) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        if let Some(previous) = last.take() {
            teardown(previous);
        }
        let started = Instant::now();
        last = Some(setup());
        times.push(started.elapsed().as_secs_f64());
    }
    (stats::median(&times), last.expect("SETUP_REPS > 0"))
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("icnet-benchmark: {msg}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if let Some(stage) = &args.stage {
        print!("{}", stage::encode(&run_stage(&args, stage)));
        return;
    }
    let started = Instant::now();
    let steal = host::StealMeter::start();
    let calib_ms = host::calib_ms();

    let results = match run_stages(&args) {
        Ok(results) => results,
        Err(e) => {
            eprintln!("icnet-benchmark: {e}");
            std::process::exit(1);
        }
    };
    let mut outcome = Outcome::default();
    let mut setup_s = 0.0;
    let mut peak_rss_mb: f64 = 0.0;
    let mut peaks = Vec::new();
    let mut ledger = Ledger::default();
    for (stage, r) in stage::STAGES.into_iter().zip(results) {
        setup_s += r.setup_s;
        outcome.check(r.peak_rss_mb.is_finite(), || {
            format!("stage {stage}: peak RSS unreadable")
        });
        peak_rss_mb = peak_rss_mb.max(r.peak_rss_mb);
        peaks.push(format!("{stage} {:.1} MB", r.peak_rss_mb));
        outcome.attempted += r.outcome.attempted;
        outcome.failed += r.outcome.failed;
        outcome.metrics.extend(r.outcome.metrics);
        outcome.problems.extend(r.outcome.problems);
        if let Some(rows) = r.ledger {
            ledger.extend(rows);
        }
    }
    eprintln!("# peak resident set per stage: {}", peaks.join(", "));

    let steal_share = steal.share();
    let wall_s = started.elapsed().as_secs_f64();
    if args.trace {
        ledger.stat("host.steal_share", steal_share, "ratio", 1);
        ledger.stat("host.calib_ms", calib_ms, "ms", 5);
        eprint!("{}", ledger.render(&args.workload));
        write_ledger(&args, &ledger);
        outcome.metrics = ledger
            .rows()
            .iter()
            .map(|r| report::Metric {
                name: r.name,
                value: r.value,
                unit: r.unit,
            })
            .collect();
    } else {
        outcome.metrics.insert(
            0,
            report::Metric {
                name: "setup_s",
                value: setup_s,
                unit: "s",
            },
        );
        outcome.metric("peak_rss_mb", peak_rss_mb, "MB");
    }
    outcome.check(outcome.metrics.iter().all(|m| m.value.is_finite()), || {
        "a metric is not finite".into()
    });
    eprintln!(
        "# record {{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"host_cores\": {}, \
         \"rev\": \"{}\", \"host.steal_share\": {}, \"host.calib_ms\": {}, \"wall_s\": {}, \
         \"attempted\": {}}}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        host::cores(),
        host::revision(),
        steal_share,
        calib_ms,
        wall_s,
        outcome.attempted
    );
    for problem in &outcome.problems {
        eprintln!("icnet-benchmark: OUTPUT CHECK FAILED: {problem}");
    }
    println!("{}", outcome.to_json());
    if !outcome.problems.is_empty() {
        std::process::exit(1);
    }
}

/// Runs the stages in child processes and returns what each measured, in
/// [`stage::STAGES`] order. A traced run runs them one after the other; a
/// timed run sets them up one after the other and then gives them turns
/// (see [`stage`]) until none wants another.
fn run_stages(args: &Args) -> Result<Vec<StageResult>, String> {
    let planned = STAGE_SHARES.map(|share| share * args.seconds);
    let stages = stage::STAGES.into_iter().zip(planned);
    if args.trace {
        return stages
            .map(|(name, seconds)| StageProcess::spawn(args, name, seconds)?.end())
            .collect();
    }
    // On an error the stages still running are stopped as they drop.
    let mut running = Vec::new();
    for (name, seconds) in stages {
        let mut stage = StageProcess::spawn(args, name, seconds)?;
        stage.ready()?;
        running.push(stage);
    }
    let mut wants = vec![true; running.len()];
    while wants.contains(&true) {
        for (stage, wants_more) in running.iter_mut().zip(&mut wants) {
            if *wants_more {
                *wants_more = stage.turn()?;
            }
        }
    }
    running.into_iter().map(StageProcess::end).collect()
}

/// Runs one stage of the workload in this process, as a child of the
/// process that runs the workload.
fn run_stage(args: &Args, stage: &str) -> StageResult {
    let traffic = match args.workload.as_str() {
        "chain-shared" => serving::Traffic::SharedNetlist,
        "chain-fresh" => serving::Traffic::FreshNetlists,
        _ => unreachable!("parse_args admits only known workloads"),
    };
    let mut outcome = Outcome::default();
    let (setup_s, started) = match stage {
        "label" => label::start(args, &mut outcome),
        "train" => train::start(args, &mut outcome),
        "serve" => serving::start(args, traffic, &mut outcome),
        _ => unreachable!("parse_args admits only known stages"),
    };
    let ledger = match started {
        Started::Traced(ledger) => Some(ledger),
        Started::Timed(timed) => {
            stage::take_turns(timed, args.seconds, &mut outcome);
            None
        }
    };
    StageResult {
        setup_s,
        peak_rss_mb: host::peak_rss_mb().unwrap_or(f64::NAN),
        outcome,
        ledger,
    }
}

/// Writes the ledger, with sample counts, to `.bench_out/` (best effort:
/// the same rows are on stderr).
fn write_ledger(args: &Args, ledger: &Ledger) {
    let body = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"host_cores\": {}, \"rev\": \"{}\", \"rows\": {}}}\n",
        args.workload,
        args.seed,
        host::cores(),
        host::revision(),
        ledger.to_json()
    );
    let path = format!(".bench_out/ledger-{}.json", args.workload);
    if let Err(e) = std::fs::create_dir_all(".bench_out").and_then(|()| std::fs::write(&path, body))
    {
        eprintln!("# could not write {path}: {e}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(str::to_owned))
    }

    #[test]
    fn parses_the_command_line() {
        let a = parse("--workload chain-fresh --seed 7 --seconds 12 --trace 1").unwrap();
        assert_eq!(
            a,
            Args {
                workload: "chain-fresh".into(),
                seed: 7,
                seconds: 12.0,
                trace: true,
                stage: None,
            }
        );
        assert!(parse("--workload nope --seed 1").is_err());
        assert!(parse("--workload chain-shared --trace 2").is_err());
        assert!(parse("--workload chain-shared --seconds 0").is_err());
        assert!(parse("--seed 1").is_err());
        let child = parse("--workload chain-shared --stage serve").unwrap();
        assert_eq!(child.stage.as_deref(), Some("serve"));
        assert!(parse("--workload chain-shared --stage sweep").is_err());
    }

    #[test]
    fn setup_is_repeated_and_earlier_results_torn_down() {
        let mut built = 0;
        let mut torn = Vec::new();
        let (secs, last) = repeated_setup(
            || {
                built += 1;
                built
            },
            |x| torn.push(x),
        );
        assert_eq!(last, SETUP_REPS);
        assert_eq!(torn, (1..SETUP_REPS).collect::<Vec<_>>());
        assert!(secs >= 0.0);
    }
}
