//! The serving stage: the prediction server in-process
//! (`serve::Server::start`, one worker per core) under the benchmark's own
//! load generator.
//!
//! The stage has three phases of equal length: open loop at a low and at a
//! high fixed rate, and a closed-loop saturation phase with one connection
//! per core. The phases run as one-second windows, interleaved round by
//! round, and each metric pools the requests of its phase's quietest
//! windows (see [`stats::quietest`]).
//!
//! * `chain-shared` sends one c1529 netlist with a different key-gate mask
//!   per request over keep-alive connections: the paper's defender scoring
//!   placements on one circuit. `.bench` parsing and graph building
//!   dominate the server's work, and every request reuses the netlist.
//! * `chain-fresh` sends a new small (c432-profile) netlist per request,
//!   never repeated, on a new connection each: accept, queueing, the
//!   micro-batch window and socket I/O dominate, and nothing is reused.

use crate::client::{self, Connections, Sample};
use crate::ledger::Ledger;
use crate::report::Outcome;
use crate::stage::{Started, Timed};
use crate::{host, stats, Args};
use icnet::{encode_features, Aggregation, CircuitGraph, FeatureSet, GraphModel, ModelKind};
use netlist::{Circuit, GateId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serve::{ModelRegistry, Reply, Request, ServeConfig, ServeStats, Server};
use std::borrow::Cow;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashSet;
use std::hash::{Hash, Hasher};
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;
use tensor::{CsrMatrix, Matrix};

const MODEL: &str = "icnet";
/// Requests each set-up repetition sends before timing, closed loop.
const WARMUP: usize = 100;
/// The low open-loop rate, both workloads.
const LO_RPS: f64 = 50.0;
/// Distinct masks the shared-netlist traffic cycles through.
const SHARED_MASKS: usize = 256;
/// Key-gate masks hold this many gates (inclusive range).
const MASK_GATES: (usize, usize) = (1, 8);
/// Target length of one measurement window.
const WINDOW_S: f64 = 1.0;
/// Host steal at or below which a serve window counts as quiet: the
/// server's own thread wake-ups see 2-7% steal on a calm 2-core host, so
/// the compute-bound threshold (`stats::QUIET_STEAL`) would reject them all.
const QUIET_STEAL: f64 = 0.08;

/// Which traffic a serve workload sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Traffic {
    /// One c1529 netlist, many masks, keep-alive connections.
    SharedNetlist,
    /// A new c432-profile netlist per request, one connection each.
    FreshNetlists,
}

impl Traffic {
    fn connections(self) -> Connections {
        match self {
            Traffic::SharedNetlist => Connections::KeepAlive,
            Traffic::FreshNetlists => Connections::PerRequest,
        }
    }

    /// The fixed high open-loop rate: about half the closed-loop
    /// throughput this traffic reached on a 2-core host.
    fn hi_rps(self) -> f64 {
        match self {
            Traffic::SharedNetlist => 150.0,
            Traffic::FreshNetlists => 250.0,
        }
    }

    /// Closed-loop requests per second the request pool provisions for;
    /// a phase that runs out fails the run rather than repeat a netlist.
    fn closed_cap_rps(self) -> f64 {
        match self {
            Traffic::SharedNetlist => 5000.0,
            Traffic::FreshNetlists => 1500.0,
        }
    }
}

/// The request stream of one run. Request `i` is a pure function of
/// `(traffic, seed, i)`, so each window's requests are generated (untimed)
/// just before it runs, and memory holds one window at a time.
struct Inputs {
    traffic: Traffic,
    seed: u64,
    model: GraphModel,
    /// The shared netlist's payloads, one per mask, and the bits of each
    /// one's in-process prediction (both empty for fresh netlists).
    shared: Vec<Vec<u8>>,
    shared_expected: Vec<u64>,
}

/// Requests ready to send: `ids[k]` indexes the payload of request `k`.
struct Batch<'a> {
    payloads: Cow<'a, [Vec<u8>]>,
    ids: Vec<usize>,
    /// Expected prediction bits per payload, when known in advance.
    expected: Option<&'a [u64]>,
}

/// Draws a mask of `MASK_GATES` logic gates of `circuit`.
fn mask(circuit: &Circuit, rng: &mut StdRng) -> Vec<String> {
    let logic: Vec<GateId> = circuit
        .iter()
        .filter(|(_, g)| !g.kind().is_input())
        .map(|(id, _)| id)
        .collect();
    let count = rng.gen_range(MASK_GATES.0..=MASK_GATES.1);
    let mut picked: Vec<GateId> = Vec::with_capacity(count);
    while picked.len() < count {
        let id = logic[rng.gen_range(0..logic.len())];
        if !picked.contains(&id) {
            picked.push(id);
        }
    }
    picked
        .iter()
        .map(|&id| circuit.gate(id).name().to_owned())
        .collect()
}

/// A request for `bench` with a mask drawn from its parsed gate names (the
/// names the server will look up).
fn request(bench: String, rng: &mut StdRng) -> Vec<u8> {
    let parsed = Circuit::from_bench(MODEL, &bench).expect("generated netlists parse");
    Request {
        model: MODEL.to_owned(),
        deadline_ms: 0,
        mask: mask(&parsed, rng),
        bench,
    }
    .encode()
}

impl Inputs {
    fn new(traffic: Traffic, seed: u64) -> Self {
        let model = GraphModel::new(
            ModelKind::ICNet,
            Aggregation::Nn,
            FeatureSet::All.width(),
            16,
            16,
            seed,
        );
        let (mut shared, mut shared_expected) = (Vec::new(), Vec::new());
        if traffic == Traffic::SharedNetlist {
            let mut rng = StdRng::seed_from_u64(seed ^ 0x5E4F_E000);
            let bench = synth::iscas::circuit("c1529", 0)
                .expect("c1529 profile exists")
                .to_bench();
            // One netlist: parse it and build its operator once.
            let circuit = Circuit::from_bench(MODEL, &bench).expect("generated netlists parse");
            let op = Arc::new(model.kind.operator(&CircuitGraph::from_circuit(&circuit)));
            for _ in 0..SHARED_MASKS {
                let payload = request(bench.clone(), &mut rng);
                let mask = Request::decode(&payload).expect("payload decodes").mask;
                shared_expected.push(model.predict(&op, &features(&circuit, &mask)).to_bits());
                shared.push(payload);
            }
        }
        Inputs {
            traffic,
            seed,
            model,
            shared,
            shared_expected,
        }
    }

    /// Requests `range` of the stream.
    fn batch(&self, range: Range<usize>) -> Batch<'_> {
        match self.traffic {
            Traffic::SharedNetlist => Batch {
                payloads: Cow::Borrowed(&self.shared),
                ids: range.map(|i| i % SHARED_MASKS).collect(),
                expected: Some(&self.shared_expected),
            },
            Traffic::FreshNetlists => Batch {
                ids: (0..range.len()).collect(),
                expected: None,
                payloads: Cow::Owned(
                    range
                        .map(|i| {
                            // A distinct synthesis seed per request number.
                            let netlist_seed =
                                self.seed.wrapping_mul(1_000_003).wrapping_add(i as u64);
                            let circuit = synth::iscas::circuit("c432", netlist_seed)
                                .expect("c432 profile exists");
                            request(circuit.to_bench(), &mut StdRng::seed_from_u64(netlist_seed))
                        })
                        .collect(),
                ),
            },
        }
    }
}

/// Hands out consecutive request numbers, so no two uses share one.
#[derive(Default)]
struct Stream(usize);

impl Stream {
    fn take(&mut self, n: usize) -> Range<usize> {
        self.0 += n;
        self.0 - n..self.0
    }
}

/// Set-up: register the model, start the server, and warm it up.
fn start_server(inputs: &Inputs, warmup: &Batch) -> Server {
    let registry = ModelRegistry::from_models([(MODEL.to_owned(), inputs.model.clone())])
        .expect("model width has an encoder");
    let server = Server::start(
        registry,
        ServeConfig {
            workers: host::cores(),
            ..ServeConfig::default()
        },
    )
    .expect("server binds a loopback port");
    let (warm, _) = client::closed_loop(
        server.local_addr(),
        inputs.traffic.connections(),
        host::cores(),
        &warmup.payloads,
        &warmup.ids,
        f64::INFINITY,
    );
    assert!(
        warm.iter().all(|s| s.value().is_some()),
        "warm-up requests failed: {:?}",
        warm.iter().find(|s| s.value().is_none()).map(|s| &s.reply)
    );
    server
}

/// A decoded request made ready for the model the way the server does it:
/// parse, look up the mask, build the operator, encode the features.
fn prepare(model: &GraphModel, request: &Request) -> (Arc<CsrMatrix>, Matrix) {
    let circuit = Circuit::from_bench(MODEL, &request.bench).expect("parses");
    let op = Arc::new(model.kind.operator(&CircuitGraph::from_circuit(&circuit)));
    (op, features(&circuit, &request.mask))
}

fn features(circuit: &Circuit, mask: &[String]) -> Matrix {
    let selected: Vec<GateId> = mask
        .iter()
        .map(|n| circuit.find(n).expect("mask gate exists"))
        .collect();
    encode_features(circuit, &selected, FeatureSet::All)
}

/// Counts failures and checks every successful reply bit-for-bit against
/// an in-process `GraphModel::predict` on the same netlist and mask.
fn check_replies(
    out: &mut Outcome,
    model: &GraphModel,
    batch: &Batch,
    samples: &[Sample],
    phase: &str,
) {
    out.attempted += samples.len() as u64;
    let failed = samples.iter().filter(|s| s.value().is_none()).count();
    out.failed += failed as u64;
    out.check(failed == 0, || {
        let first = samples
            .iter()
            .find(|s| s.value().is_none())
            .map(|s| &s.reply);
        format!(
            "{phase}: {failed} of {} requests failed, first: {first:?}",
            samples.len()
        )
    });
    let mut wrong = 0;
    for s in samples {
        let Some(value) = s.value() else { continue };
        let want = match batch.expected {
            Some(expected) => expected[s.id],
            None => {
                let request = Request::decode(&batch.payloads[s.id]).expect("payload decodes");
                let (op, x) = prepare(model, &request);
                model.predict(&op, &x).to_bits()
            }
        };
        wrong += usize::from(value.to_bits() != want);
    }
    out.check(wrong == 0, || {
        format!("{phase}: {wrong} replies differ from the in-process prediction")
    });
}

fn latencies(samples: &[Sample]) -> Vec<f64> {
    stats::sorted(&samples.iter().map(Sample::latency_ms).collect::<Vec<_>>())
}

/// How a phase loads the server.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Load {
    /// Open loop at this many requests per second.
    Open(f64),
    /// Closed loop, one connection per core.
    Closed,
}

/// The server under test and what it is sent.
struct Bench<'a> {
    inputs: &'a Inputs,
    server: &'a Server,
}

impl Bench<'_> {
    /// Sends `batch` under `load` for at most `seconds`; returns the
    /// samples and the wall time.
    fn send(&self, batch: &Batch, load: Load, seconds: f64) -> (Vec<Sample>, f64) {
        let (addr, mode, conns) = (
            self.server.local_addr(),
            self.inputs.traffic.connections(),
            host::cores(),
        );
        match load {
            Load::Open(rate) => {
                let started = Instant::now();
                let samples =
                    client::open_loop(addr, mode, conns, &batch.payloads, &batch.ids, rate);
                (samples, started.elapsed().as_secs_f64())
            }
            Load::Closed => {
                client::closed_loop(addr, mode, conns, &batch.payloads, &batch.ids, seconds)
            }
        }
    }

    /// One measurement window on the next requests of `stream`: generated
    /// before, checked after, timed in between.
    fn window(
        &self,
        load: Load,
        seconds: f64,
        stream: &mut Stream,
        out: &mut Outcome,
        phase: &str,
    ) -> Window {
        let n = match load {
            Load::Open(rate) => (rate * seconds).round() as usize,
            Load::Closed => (self.inputs.traffic.closed_cap_rps() * seconds).ceil() as usize,
        };
        let batch = self.inputs.batch(stream.take(n));
        let steal = host::StealMeter::start();
        let (samples, seconds) = self.send(&batch, load, seconds);
        let steal = steal.share();
        check_replies(out, &self.inputs.model, &batch, &samples, phase);
        out.check(
            load != Load::Closed || samples.len() < batch.ids.len(),
            || format!("{phase}: the window ran out of distinct requests"),
        );
        Window {
            steal,
            samples,
            seconds,
        }
    }
}

/// One measurement window: the host steal it saw and what it measured.
struct Window {
    steal: f64,
    samples: Vec<Sample>,
    seconds: f64,
}

impl Window {
    fn p50_ms(&self) -> f64 {
        stats::percentile(&latencies(&self.samples), 50.0)
    }

    fn completed(&self) -> usize {
        self.samples.iter().filter(|s| s.value().is_some()).count()
    }
}

/// Sets the stage up (the server runs from here until the stage ends);
/// when tracing, runs both open-loop phases whole into a ledger.
pub fn start(args: &Args, traffic: Traffic, out: &mut Outcome) -> (f64, Started) {
    let inputs = Inputs::new(traffic, args.seed);
    let mut stream = Stream::default();
    let warmups: Vec<Batch> = (0..crate::SETUP_REPS)
        .map(|_| inputs.batch(stream.take(WARMUP)))
        .collect();
    let mut rep = 0;
    let (setup_s, server) = crate::repeated_setup(
        || {
            rep += 1;
            start_server(&inputs, &warmups[rep - 1])
        },
        |server| {
            server.shutdown();
        },
    );
    drop(warmups);
    if args.trace {
        let bench = Bench {
            inputs: &inputs,
            server: &server,
        };
        let ledger = traced(&bench, args.seconds / 3.0, &mut stream, out);
        server.shutdown();
        return (setup_s, Started::Traced(ledger));
    }
    let rounds = Rounds {
        workload: args.workload.clone(),
        inputs,
        server,
        stream,
        lo: Vec::new(),
        hi: Vec::new(),
        closed: Vec::new(),
        round_steal: Vec::new(),
    };
    (setup_s, Started::Timed(Box::new(rounds)))
}

/// The timed phase: rounds of one window per phase, interleaved so that a
/// burst of host steal touches every phase a little instead of one phase
/// wholly.
struct Rounds {
    workload: String,
    inputs: Inputs,
    server: Server,
    stream: Stream,
    lo: Vec<Window>,
    hi: Vec<Window>,
    closed: Vec<Window>,
    /// Mean steal of each round's windows.
    round_steal: Vec<f64>,
}

impl Timed for Rounds {
    fn sample(&mut self, out: &mut Outcome) -> f64 {
        let bench = Bench {
            inputs: &self.inputs,
            server: &self.server,
        };
        let round = [
            (Load::Open(LO_RPS), "low rate", &mut self.lo),
            (
                Load::Open(self.inputs.traffic.hi_rps()),
                "high rate",
                &mut self.hi,
            ),
            (Load::Closed, "closed loop", &mut self.closed),
        ];
        let (mut steal, mut measured_s) = (0.0, 0.0);
        for (load, name, windows) in round {
            let w = bench.window(load, WINDOW_S, &mut self.stream, out, name);
            measured_s += w.seconds;
            steal += w.steal / 3.0;
            windows.push(w);
        }
        self.round_steal.push(steal);
        measured_s
    }

    fn steals(&self) -> Vec<f64> {
        self.round_steal.clone()
    }

    fn quiet(&self) -> f64 {
        QUIET_STEAL
    }

    fn finish(self: Box<Self>, out: &mut Outcome) {
        let Rounds {
            workload,
            server,
            lo,
            hi,
            closed,
            ..
        } = *self;
        let server_stats = server.shutdown();
        out.check(server_stats.errors == 0 && server_stats.shed == 0, || {
            format!("server refused requests: {server_stats:?}")
        });

        // Each metric pools the samples of the phase's quietest windows.
        fn quiet(ws: &[Window]) -> Vec<&Window> {
            stats::quietest(ws.iter().map(|w| (w.steal, w)).collect(), QUIET_STEAL)
        }
        let p50 = |ws: &[Window]| {
            let samples: Vec<Sample> = quiet(ws)
                .into_iter()
                .flat_map(|w| w.samples.iter().cloned())
                .collect();
            stats::percentile(&latencies(&samples), 50.0)
        };
        let quiet_closed = quiet(&closed);
        let completed: usize = quiet_closed.iter().map(|w| w.completed()).sum();
        let seconds: f64 = quiet_closed.iter().map(|w| w.seconds).sum();
        let late: Vec<f64> = lo
            .iter()
            .chain(&hi)
            .flat_map(|w| &w.samples)
            .map(|s| stats::lateness_ms(s.due_s, s.sent_s))
            .collect();
        let windows_of = |ws: &[Window], f: fn(&Window) -> f64| -> Vec<(f64, f64)> {
            ws.iter().map(|w| (w.steal, f(w))).collect()
        };
        eprintln!(
            "# {workload} serve: {} requests in {} windows per phase; generator late p99 {:.3} ms\n\
             #   (steal, p50 ms) low {:.3?}\n#   (steal, p50 ms) high {:.3?}\n#   (steal, rps) closed {:.1?}",
            out.attempted,
            lo.len(),
            stats::percentile(&stats::sorted(&late), 99.0),
            windows_of(&lo, Window::p50_ms),
            windows_of(&hi, Window::p50_ms),
            windows_of(&closed, |w| w.completed() as f64 / w.seconds),
        );
        out.metric("lat_lo_p50_ms", p50(&lo), "ms");
        out.metric("lat_hi_p50_ms", p50(&hi), "ms");
        out.metric("max_rps", completed as f64 / seconds, "1/s");
    }
}

/// Server-reported (wait, infer) of a successful reply, in ms.
fn server_times(s: &Sample) -> Option<(f64, f64)> {
    match s.reply {
        Ok(Reply::Prediction {
            wait_ns, infer_ns, ..
        }) => Some((wait_ns as f64 / 1e6, infer_ns as f64 / 1e6)),
        _ => None,
    }
}

fn batch_mean(before: &ServeStats, after: &ServeStats) -> f64 {
    let completed = after.completed - before.completed;
    let batches = (after.infer_batches - before.infer_batches).max(1);
    completed as f64 / batches as f64
}

/// Share of `requests` whose netlist text already appeared earlier in the
/// list.
fn netlist_reuse_share(requests: &[Request]) -> f64 {
    let mut seen = HashSet::new();
    let reused = requests
        .iter()
        .filter(|r| {
            let mut h = DefaultHasher::new();
            r.bench.hash(&mut h);
            !seen.insert(h.finish())
        })
        .count();
    reused as f64 / requests.len() as f64
}

/// The traced run: both open-loop phases whole, with the server's own
/// timings per reply, then each server stage called directly on the
/// low-rate phase's requests.
fn traced(bench: &Bench, phase_s: f64, stream: &mut Stream, out: &mut Outcome) -> Ledger {
    let (inputs, server) = (bench.inputs, bench.server);
    let hi_rps = inputs.traffic.hi_rps();
    let lo_batch = inputs.batch(stream.take((LO_RPS * phase_s).round() as usize));
    let hi_batch = inputs.batch(stream.take((hi_rps * phase_s).round() as usize));
    let failed_before = out.failed;
    let before = server.stats();
    let (lo, _) = bench.send(&lo_batch, Load::Open(LO_RPS), phase_s);
    let mid = server.stats();
    let (hi, _) = bench.send(&hi_batch, Load::Open(hi_rps), phase_s);
    let after = server.stats();
    check_replies(out, &inputs.model, &lo_batch, &lo, "low rate");
    check_replies(out, &inputs.model, &hi_batch, &hi, "high rate");

    // Per reply: server wait, server inference, and the rest of the
    // latency (client, socket, accept poll): the transport.
    let split = |samples: &[Sample]| -> (Vec<f64>, Vec<f64>, Vec<f64>) {
        let mut parts = (Vec::new(), Vec::new(), Vec::new());
        for s in samples {
            if let Some((wait, infer)) = server_times(s) {
                parts.0.push(wait);
                parts.1.push(infer);
                parts.2.push(s.latency_ms() - wait - infer);
            }
        }
        parts
    };
    let (wait_lo, infer_lo, transport_lo) = split(&lo);
    let (wait_hi, _, _) = split(&hi);
    let lat_lo = latencies(&lo);
    let lat_lo_p50 = stats::percentile(&lat_lo, 50.0);
    let tail = stats::tail(&lat_lo, 10).expect("the low-rate phase has a tail");
    let late: Vec<f64> = lo
        .iter()
        .chain(&hi)
        .map(|s| stats::lateness_ms(s.due_s, s.sent_s))
        .collect();

    // Each server stage called alone on the low-rate phase's requests.
    let payloads: Vec<&Vec<u8>> = lo_batch
        .ids
        .iter()
        .map(|&id| &lo_batch.payloads[id])
        .collect();
    let decode_ms = stats::median_ms(&payloads, |p| Request::decode(p).expect("decodes"));
    let requests: Vec<Request> = payloads
        .iter()
        .map(|p| Request::decode(p).expect("decodes"))
        .collect();
    let parse_ms = stats::median_ms(&requests, |r| {
        Circuit::from_bench(MODEL, &r.bench).expect("parses")
    });
    let circuits: Vec<(Circuit, &Request)> = requests
        .iter()
        .map(|r| (Circuit::from_bench(MODEL, &r.bench).expect("parses"), r))
        .collect();
    let graph_ms = stats::median_ms(&circuits, |(c, _)| {
        inputs.model.kind.operator(&CircuitGraph::from_circuit(c))
    });
    let features_ms = stats::median_ms(&circuits, |(c, r)| features(c, &r.mask));
    let prepared: Vec<(Arc<CsrMatrix>, Matrix)> =
        requests.iter().map(|r| prepare(&inputs.model, r)).collect();
    let predict_ms = stats::median_ms(&prepared, |(op, x)| inputs.model.predict(op, x));

    let n_lo = lo.len() as u64;
    let n = (lo.len() + hi.len()) as u64;
    let stages = requests.len() as u64;
    let mut ledger = Ledger::default();
    ledger.layer("serve.wait_ms", stats::median(&wait_lo), n_lo);
    ledger.layer("serve.transport_ms", stats::median(&transport_lo), n_lo);
    ledger.stat("serve.infer_ms", stats::median(&infer_lo), "ms", n_lo);
    ledger.layer("serve.decode_ms", decode_ms, stages);
    ledger.layer("netlist.parse_ms", parse_ms, stages);
    ledger.layer("icnet.graph_ms", graph_ms, stages);
    ledger.layer("icnet.features_ms", features_ms, stages);
    ledger.layer("serve.predict_ms", predict_ms, stages);
    ledger.stat(
        "serve.wait_hi_ms",
        stats::median(&wait_hi),
        "ms",
        hi.len() as u64,
    );
    ledger.stat(
        "serve.netlist_reuse_share",
        netlist_reuse_share(&requests),
        "ratio",
        stages,
    );
    ledger.stat("serve.batch_mean", batch_mean(&before, &after), "count", n);
    ledger.stat(
        "serve.batch_mean_lo",
        batch_mean(&before, &mid),
        "count",
        n_lo,
    );
    ledger.stat("serve.tail_ms", tail.value, "ms", tail.beyond as u64);
    ledger.stat("serve.tail_pct", tail.pct, "percentile", n_lo);
    ledger.stat(
        "serve.gen_late_p99_ms",
        stats::percentile(&stats::sorted(&late), 99.0),
        "ms",
        n,
    );
    ledger.stat(
        "serve.failed",
        (out.failed - failed_before) as f64,
        "count",
        n,
    );
    // The end-to-end figure the rows above explain: the median low-rate
    // latency = wait + transport + the stages, with the micro-batch
    // window and the hand-offs between threads left unattributed.
    ledger.stat("serve.lat_lo_p50_ms", lat_lo_p50, "ms", n_lo);
    ledger.finish("serve.unattributed_ms", lat_lo_p50, n_lo);
    ledger
}
