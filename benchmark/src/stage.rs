//! The stages of a chain run, each in a process of its own, and the line
//! protocol between a stage process and its parent.
//!
//! A process per stage makes each stage's peak resident set its own (what
//! one stage freed is not resident under the next one's peak) and keeps
//! thread-local buffer pools from leaking from one stage into the next.
//!
//! The timed phases take turns. The parent sets the stages up one after
//! the other, then runs [`ROUNDS`] rounds in which each stage measures for
//! a [`ROUNDS`]th of its planned time while the others wait, blocked on a
//! read. Host speed drifts by 10-30% over tens of seconds on a shared host;
//! taking turns spreads every stage's samples over the whole run instead
//! of one stretch of it.
//!
//! Parent to child (stdin): `turn` or `end`. Child to parent (stdout):
//! `stage ready` after set-up, `stage more <0|1>` after each turn (whether
//! it wants another turn past its plan, see [`stats::keep_sampling`]), and
//! after `end` the stage's result ([`encode`]).

use crate::ledger::Ledger;
use crate::report::{Metric, Outcome};
use crate::{stats, Args};
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Read, Write};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};

/// The stages of a chain run, in the order they set up and take turns.
pub const STAGES: [&str; 3] = ["label", "train", "serve"];

/// Turns each stage's planned time is split into.
pub const ROUNDS: usize = 4;

/// What a stage's set-up hands on.
pub enum Started {
    /// The traced run already ran: its closed ledger.
    Traced(Ledger),
    /// The timed phase, to be driven turn by turn.
    Timed(Box<dyn Timed>),
}

/// A stage's timed phase.
pub trait Timed {
    /// Takes one sample (a sweep, a training run, a round of serve
    /// windows), recording its checks in `out`; returns the seconds it
    /// measured.
    fn sample(&mut self, out: &mut Outcome) -> f64;
    /// The host steal each sample so far saw.
    fn steals(&self) -> Vec<f64>;
    /// Steal at or below which a sample counts as quiet.
    fn quiet(&self) -> f64 {
        stats::QUIET_STEAL
    }
    /// Computes the stage's end-to-end metrics from its samples.
    fn finish(self: Box<Self>, out: &mut Outcome);
}

/// The child's side of the turns: on each `turn` from stdin, samples for
/// about `planned_s / ROUNDS` seconds, until `end`. A turn takes at least
/// one sample, and another only while half of one more still fits.
pub fn take_turns(mut timed: Box<dyn Timed>, planned_s: f64, out: &mut Outcome) {
    let turn_s = planned_s / ROUNDS as f64;
    let mut measured_s = 0.0;
    say("ready");
    for line in std::io::stdin().lock().lines() {
        match line.as_deref().map(str::trim) {
            Ok("turn") => {
                let (mut this_turn, mut last) = (0.0, 0.0);
                while this_turn == 0.0 || this_turn + 0.5 * last < turn_s {
                    last = timed.sample(out);
                    this_turn += last;
                }
                measured_s += this_turn;
                let more =
                    stats::keep_sampling(measured_s, planned_s, &timed.steals(), timed.quiet());
                say(&format!("more {}", u8::from(more)));
            }
            Ok("end") => break,
            other => panic!("unexpected line from the parent process: {other:?}"),
        }
    }
    timed.finish(out);
}

/// One protocol line to the parent, flushed at once.
fn say(what: &str) {
    let mut stdout = std::io::stdout().lock();
    writeln!(stdout, "{TAG} {what}")
        .and_then(|()| stdout.flush())
        .expect("parent reads stdout");
}

/// What one stage process measured.
#[derive(Debug, Default)]
pub struct StageResult {
    /// Median set-up time of the stage, in seconds.
    pub setup_s: f64,
    /// Peak resident set of the stage's process, in MiB.
    pub peak_rss_mb: f64,
    /// Attempted and failed operations, end-to-end metrics, failed checks.
    pub outcome: Outcome,
    /// The stage's closed ledger (traced runs only).
    pub ledger: Option<Ledger>,
}

/// Every line of the protocol starts with this word.
const TAG: &str = "stage";

/// The lines a stage process prints on stdout for its parent.
pub fn encode(r: &StageResult) -> String {
    let mut s = String::new();
    let o = &r.outcome;
    let _ = writeln!(s, "{TAG} setup_s {}", r.setup_s);
    let _ = writeln!(s, "{TAG} peak_rss_mb {}", r.peak_rss_mb);
    let _ = writeln!(s, "{TAG} attempted {}", o.attempted);
    let _ = writeln!(s, "{TAG} failed {}", o.failed);
    for m in &o.metrics {
        let _ = writeln!(s, "{TAG} metric {} {} {}", m.name, m.unit, m.value);
    }
    for row in r.ledger.iter().flat_map(Ledger::rows) {
        let _ = writeln!(
            s,
            "{TAG} row {} {} {} {} {}",
            row.name,
            row.unit,
            row.samples,
            u8::from(row.attributed),
            row.value
        );
    }
    for p in &o.problems {
        let _ = writeln!(s, "{TAG} problem {}", p.replace('\n', " | "));
    }
    s
}

/// A name read back from a stage process; it lives as long as the run.
fn intern(s: &str) -> &'static str {
    Box::leak(s.to_owned().into_boxed_str())
}

/// Reads back what [`encode`] wrote; other lines are ignored.
pub fn decode(text: &str) -> Result<StageResult, String> {
    let mut r = StageResult::default();
    let mut rows = Vec::new();
    for line in text.lines() {
        let Some(rest) = line.strip_prefix(TAG).and_then(|l| l.strip_prefix(' ')) else {
            continue;
        };
        let bad = || format!("malformed stage line `{line}`");
        let (key, rest) = rest.split_once(' ').ok_or_else(bad)?;
        let fields: Vec<&str> = rest.split(' ').collect();
        let num = |i: usize| -> Result<f64, String> {
            fields.get(i).and_then(|f| f.parse().ok()).ok_or_else(bad)
        };
        let count = |i: usize| -> Result<u64, String> {
            fields.get(i).and_then(|f| f.parse().ok()).ok_or_else(bad)
        };
        match (key, fields.len()) {
            ("setup_s", 1) => r.setup_s = num(0)?,
            ("peak_rss_mb", 1) => r.peak_rss_mb = num(0)?,
            ("attempted", 1) => r.outcome.attempted = count(0)?,
            ("failed", 1) => r.outcome.failed = count(0)?,
            ("metric", 3) => r.outcome.metrics.push(Metric {
                name: intern(fields[0]),
                unit: intern(fields[1]),
                value: num(2)?,
            }),
            ("row", 5) => rows.push((
                intern(fields[0]),
                intern(fields[1]),
                count(2)?,
                count(3)? == 1,
                num(4)?,
            )),
            ("problem", _) => r.outcome.problems.push(rest.to_owned()),
            _ => return Err(bad()),
        }
    }
    if !rows.is_empty() {
        let mut ledger = Ledger::default();
        for (name, unit, samples, attributed, value) in rows {
            if attributed {
                ledger.layer(name, value, samples);
            } else {
                ledger.stat(name, value, unit, samples);
            }
        }
        r.ledger = Some(ledger);
    }
    Ok(r)
}

/// A stage running in a child process of this program.
pub struct StageProcess {
    name: &'static str,
    /// A traced stage runs to its result without turns.
    traced: bool,
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
}

impl StageProcess {
    /// Starts `stage` of the parent's workload, planned to measure for
    /// `seconds`. The child's stderr goes to the parent's. A timed stage
    /// then sets up and waits for turns; a traced one runs to its result.
    pub fn spawn(args: &Args, name: &'static str, seconds: f64) -> Result<Self, String> {
        let exe = std::env::current_exe().map_err(|e| format!("cannot find this program: {e}"))?;
        let mut child = Command::new(exe)
            .args(["--workload", &args.workload])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .args(["--stage", name])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("stage {name} did not start: {e}"))?;
        let stdin = child.stdin.take();
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        Ok(StageProcess {
            name,
            traced: args.trace,
            child,
            stdin,
            stdout,
        })
    }

    /// Reads the next protocol line, which must be `stage <expected> ...`;
    /// returns what follows `expected`.
    fn expect(&mut self, expected: &str) -> Result<String, String> {
        let mut line = String::new();
        self.stdout
            .read_line(&mut line)
            .map_err(|e| format!("stage {}: {e}", self.name))?;
        line.trim_end()
            .strip_prefix(TAG)
            .and_then(|l| l.strip_prefix(' '))
            .and_then(|l| l.strip_prefix(expected))
            .map(|l| l.trim().to_owned())
            .ok_or_else(|| format!("stage {}: expected `{expected}`, got `{line}`", self.name))
    }

    fn send(&mut self, what: &str) -> Result<(), String> {
        let stdin = self.stdin.as_mut().expect("stdin is open until end");
        writeln!(stdin, "{what}")
            .and_then(|()| stdin.flush())
            .map_err(|e| format!("stage {}: {e}", self.name))
    }

    /// Waits until the stage has set up.
    pub fn ready(&mut self) -> Result<(), String> {
        self.expect("ready").map(drop)
    }

    /// Gives the stage one turn; returns whether it wants another one.
    pub fn turn(&mut self) -> Result<bool, String> {
        self.send("turn")?;
        Ok(self.expect("more")? == "1")
    }

    /// Ends the stage (a timed one computes its metrics first), waits for
    /// its process to exit, and returns what it measured.
    pub fn end(mut self) -> Result<StageResult, String> {
        if !self.traced {
            self.send("end")?;
        }
        drop(self.stdin.take());
        let mut rest = String::new();
        let read = self.stdout.read_to_string(&mut rest);
        let status = self
            .child
            .wait()
            .map_err(|e| format!("stage {}: {e}", self.name))?;
        read.map_err(|e| format!("stage {}: {e}", self.name))?;
        if !status.success() {
            return Err(format!("stage {} failed: {status}", self.name));
        }
        decode(&rest)
    }
}

impl Drop for StageProcess {
    /// A stage abandoned on an error path is stopped and waited for (after
    /// [`StageProcess::end`] the process has exited and this does nothing).
    fn drop(&mut self) {
        if !matches!(self.child.try_wait(), Ok(Some(_))) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_stage_result_survives_the_round_trip() {
        let mut ledger = Ledger::default();
        ledger.layer("attack.wall_ms", 0.1 + 0.2, 40);
        ledger.stat("sat.work", 31077658.0, "count", 40);
        ledger.finish("label.unattributed_ms", 1.0, 40);
        let sent = StageResult {
            setup_s: 0.115206192,
            peak_rss_mb: 100.13671875,
            outcome: Outcome {
                attempted: 160,
                failed: 1,
                metrics: vec![Metric {
                    name: "labels_per_s",
                    value: 1.0 / 3.0,
                    unit: "1/s",
                }],
                problems: vec!["sweep quarantined instances:\n  #3 deadline".into()],
            },
            ledger: Some(ledger),
        };
        let got = decode(&format!("noise\n{}", encode(&sent))).unwrap();
        assert_eq!(got.setup_s.to_bits(), sent.setup_s.to_bits());
        assert_eq!(got.peak_rss_mb, sent.peak_rss_mb);
        assert_eq!((got.outcome.attempted, got.outcome.failed), (160, 1));
        assert_eq!(got.outcome.metrics, sent.outcome.metrics);
        assert_eq!(
            got.outcome.problems,
            ["sweep quarantined instances: |   #3 deadline"]
        );
        let rows = got.ledger.unwrap();
        let sent_rows = sent.ledger.unwrap();
        assert_eq!(rows.rows().len(), 3);
        for (a, b) in rows.rows().iter().zip(sent_rows.rows()) {
            assert_eq!(
                (a.name, a.unit, a.samples, a.attributed),
                (b.name, b.unit, b.samples, b.attributed)
            );
            assert_eq!(a.value.to_bits(), b.value.to_bits());
        }
    }

    #[test]
    fn malformed_lines_are_refused() {
        assert!(decode("stage metric labels_per_s 1/s").is_err());
        assert!(decode("stage setup_s fast").is_err());
        assert!(decode("stage unknown 1").is_err());
        assert!(decode("not a stage line\n").unwrap().ledger.is_none());
    }
}
