//! The benchmark's own load generator (not `serve::loadgen`, which is
//! code under test).
//!
//! * It opens at most as many connections as the caller asks for (the
//!   workloads ask for the core count), one client thread each.
//! * Open loop: request `i` is due at `i / rate` seconds; latency counts
//!   from the due time and the generator reports how late it sent.
//! * Closed loop: each connection sends its next request when the previous
//!   reply arrives.
//! * Keep-alive connections reconnect before the server's per-connection
//!   request cap.
//! * Every reply other than `Prediction`, and every transport error, is a
//!   failed request.

use serve::protocol::{read_reply, write_frame};
use serve::{FrameType, Reply};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Requests a keep-alive connection carries before the generator replaces it;
/// below the server's default cap of 1024 per connection.
const RECONNECT_AFTER: usize = 1000;
const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// How requests use connections.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Connections {
    /// One long-lived connection per client thread.
    KeepAlive,
    /// A new connection for every request.
    PerRequest,
}

/// One request as the generator saw it. Times are seconds since the phase
/// started.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Index into the payload pool.
    pub id: usize,
    pub due_s: f64,
    pub sent_s: f64,
    pub done_s: f64,
    /// The reply, or the transport error.
    pub reply: Result<Reply, String>,
}

impl Sample {
    /// The prediction value when the request succeeded.
    pub fn value(&self) -> Option<f64> {
        match self.reply {
            Ok(Reply::Prediction { value, .. }) => Some(value),
            _ => None,
        }
    }

    /// Latency from the due time in ms; a failed request counts as
    /// infinitely late, so it misses any latency limit.
    pub fn latency_ms(&self) -> f64 {
        match self.value() {
            Some(_) => crate::stats::latency_from_due_ms(self.due_s, self.done_s),
            None => f64::INFINITY,
        }
    }
}

/// A client connection that reconnects when needed.
struct Client {
    addr: SocketAddr,
    mode: Connections,
    stream: Option<TcpStream>,
    served: usize,
}

impl Client {
    fn new(addr: SocketAddr, mode: Connections) -> Self {
        Client {
            addr,
            mode,
            stream: None,
            served: 0,
        }
    }

    fn call(&mut self, payload: &[u8]) -> Result<Reply, String> {
        if self.stream.is_none() || self.served >= RECONNECT_AFTER {
            let stream = TcpStream::connect(self.addr).map_err(|e| format!("connect: {e}"))?;
            let _ = stream.set_nodelay(true);
            let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
            let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
            self.stream = Some(stream);
            self.served = 0;
        }
        let stream = self.stream.as_mut().expect("connected above");
        let result = write_frame(stream, FrameType::Predict, payload)
            .and_then(|()| read_reply(stream))
            .map_err(|e| format!("transport: {e}"));
        self.served += 1;
        if result.is_err() || self.mode == Connections::PerRequest {
            self.stream = None;
        }
        result
    }
}

/// Sends `ids.len()` requests open-loop at `rate` per second over `conns`
/// connections (request `i` goes out on connection `i % conns`) and returns
/// the samples in request order.
pub fn open_loop(
    addr: SocketAddr,
    mode: Connections,
    conns: usize,
    payloads: &[Vec<u8>],
    ids: &[usize],
    rate: f64,
) -> Vec<Sample> {
    let conns = conns.max(1);
    let started = Instant::now();
    let slots: Mutex<Vec<Option<Sample>>> = Mutex::new(vec![None; ids.len()]);
    std::thread::scope(|scope| {
        for t in 0..conns {
            let slots = &slots;
            scope.spawn(move || {
                let mut client = Client::new(addr, mode);
                for i in (t..ids.len()).step_by(conns) {
                    let due_s = i as f64 / rate;
                    let now = started.elapsed().as_secs_f64();
                    if now < due_s {
                        std::thread::sleep(Duration::from_secs_f64(due_s - now));
                    }
                    let sent_s = started.elapsed().as_secs_f64();
                    let reply = client.call(&payloads[ids[i]]);
                    let done_s = started.elapsed().as_secs_f64();
                    slots.lock().expect("client thread panicked")[i] = Some(Sample {
                        id: ids[i],
                        due_s,
                        sent_s,
                        done_s,
                        reply,
                    });
                }
            });
        }
    });
    slots
        .into_inner()
        .expect("client thread panicked")
        .into_iter()
        .map(|s| s.expect("every request was sent"))
        .collect()
}

/// Closed loop: `conns` connections each send back-to-back until `seconds`
/// have passed or `ids` run out. Returns the samples in completion order
/// and the phase's wall time in seconds.
pub fn closed_loop(
    addr: SocketAddr,
    mode: Connections,
    conns: usize,
    payloads: &[Vec<u8>],
    ids: &[usize],
    seconds: f64,
) -> (Vec<Sample>, f64) {
    let started = Instant::now();
    let next = AtomicUsize::new(0);
    let samples: Mutex<Vec<Sample>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..conns.max(1) {
            scope.spawn(|| {
                let mut client = Client::new(addr, mode);
                loop {
                    let sent_s = started.elapsed().as_secs_f64();
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if sent_s >= seconds || i >= ids.len() {
                        break;
                    }
                    let reply = client.call(&payloads[ids[i]]);
                    let done_s = started.elapsed().as_secs_f64();
                    samples
                        .lock()
                        .expect("client thread panicked")
                        .push(Sample {
                            id: ids[i],
                            due_s: sent_s,
                            sent_s,
                            done_s,
                            reply,
                        });
                }
            });
        }
    });
    let wall = started.elapsed().as_secs_f64();
    (samples.into_inner().expect("client thread panicked"), wall)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failed_requests_are_infinitely_late() {
        let ok = Sample {
            id: 0,
            due_s: 1.0,
            sent_s: 1.002,
            done_s: 1.005,
            reply: Ok(Reply::Prediction {
                value: 0.5,
                infer_ns: 1,
                wait_ns: 0,
            }),
        };
        assert!((ok.latency_ms() - 5.0).abs() < 1e-9);
        assert_eq!(ok.value(), Some(0.5));
        let refused = Sample {
            reply: Ok(Reply::Error {
                code: serve::ErrorCode::Overloaded,
                message: String::new(),
            }),
            ..ok.clone()
        };
        assert_eq!(refused.latency_ms(), f64::INFINITY);
        let broken = Sample {
            reply: Err("transport".into()),
            ..ok
        };
        assert_eq!(broken.value(), None);
    }
}
