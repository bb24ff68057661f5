//! The open-loop load generator: requests leave on a fixed schedule
//! whatever the server does, and each one's latency is charged from its
//! scheduled send, so a stall also charges the requests queued behind it.
//! How late the generator itself sent (`lag`) is recorded per request.

use lowtw::servd::proto::WireError;
use lowtw::servd::{Client, ClientError};
use lowtw::twgraph::Dist;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Every 64th scheduled request ships as one batch of this many pairs.
pub const BATCH_EVERY: usize = 64;
pub const BATCH_LEN: usize = 32;

/// How long before each send the open loop stops sleeping and yields.
const OPEN_LOOP_SPIN: Duration = Duration::from_millis(2);

/// Sends on a fixed schedule: request `i` is due at `start + i·interval`.
pub struct Pacer {
    start: Instant,
    interval: Duration,
    /// How long before a due instant the pacer stops sleeping and yields.
    spin: Duration,
}

impl Pacer {
    pub fn new(rate_per_s: f64, spin: Duration) -> Self {
        Pacer {
            start: Instant::now(),
            interval: Duration::from_secs_f64(1.0 / rate_per_s),
            spin,
        }
    }

    /// Wait until request `i` is due; returns its due instant. Sleeps
    /// until `spin` before, then yields until due, which keeps the CPU
    /// from idling: on a virtual machine an idle CPU can take
    /// milliseconds to wake, and that would be measured as serving time.
    pub fn wait(&self, i: usize) -> Instant {
        let due = self.start + self.interval * i as u32;
        let now = Instant::now();
        if due > now + self.spin {
            std::thread::sleep(due - now - self.spin);
        }
        while Instant::now() < due {
            std::thread::yield_now();
        }
        due
    }
}

/// A refused or errored answer, classified.
pub fn classify(e: &ClientError) -> &'static str {
    match e {
        ClientError::Server(WireError::Overloaded { .. }) => "overloaded",
        ClientError::Server(WireError::BatchTooLarge { .. }) => "too_large",
        ClientError::Server(_) => "server_error",
        ClientError::Io(_) => "io_error",
        ClientError::Proto(_) | ClientError::UnexpectedResponse => "protocol_error",
    }
}

/// One connection's part of a step.
#[derive(Default)]
pub struct ConnOut {
    /// Scheduled (closed loop: actual) send → reply, ns, in send order.
    pub lat_ns: Vec<u64>,
    /// Actual send − scheduled send, ns, in send order.
    pub lag_ns: Vec<u64>,
    /// Every answered pair.
    pub answers: Vec<(u32, u32, Dist)>,
    pub requests: u64,
    /// Refused or errored requests: kind, message, answers lost.
    pub failures: Vec<(&'static str, String, u64)>,
}

impl ConnOut {
    /// Append another part's record.
    pub fn absorb(&mut self, other: ConnOut) {
        self.lat_ns.extend(other.lat_ns);
        self.lag_ns.extend(other.lag_ns);
        self.answers.extend(other.answers);
        self.requests += other.requests;
        self.failures.extend(other.failures);
    }
}

/// Send `requests` requests over `client`, drawing pairs from `pairs` in
/// order: on a fixed schedule at `rate_per_s` (open loop), or each as soon
/// as the previous answer arrived (closed loop, `None`).
pub fn drive(
    client: &mut Client,
    pairs: &[(u32, u32)],
    requests: usize,
    rate_per_s: Option<f64>,
) -> ConnOut {
    let mut out = ConnOut::default();
    let mut next = pairs.iter().copied();
    let pacer = rate_per_s.map(|r| Pacer::new(r, OPEN_LOOP_SPIN));
    for i in 0..requests {
        let due = pacer.as_ref().map_or_else(Instant::now, |p| p.wait(i));
        let sent = Instant::now();
        out.lag_ns.push(sent.duration_since(due).as_nanos() as u64);
        let (asked, result) = if i % BATCH_EVERY == BATCH_EVERY - 1 {
            let batch: Vec<(u32, u32)> = next.by_ref().take(BATCH_LEN).collect();
            let r = client.batch(&batch);
            (batch, r)
        } else {
            let q: Vec<(u32, u32)> = next.by_ref().take(1).collect();
            let r = client.distance(q[0].0, q[0].1).map(|d| vec![d]);
            (q, r)
        };
        out.lat_ns.push(due.elapsed().as_nanos() as u64);
        out.requests += 1;
        match result {
            Ok(ds) if ds.len() == asked.len() => {
                out.answers
                    .extend(asked.iter().zip(ds).map(|(&(s, t), d)| (s, t, d)));
            }
            Ok(ds) => {
                let msg = format!("{} answers for {}", ds.len(), asked.len());
                out.failures
                    .push(("protocol_error", msg, asked.len() as u64));
            }
            Err(e) => {
                let mut lost = asked.len() as u64;
                let gone = matches!(e, ClientError::Io(_));
                if gone {
                    // The connection is gone: the rest of its schedule is lost.
                    lost += (pairs_needed(requests) - pairs_needed(i + 1)) as u64;
                }
                out.failures.push((classify(&e), e.to_string(), lost));
                if gone {
                    break;
                }
            }
        }
    }
    out
}

/// Pairs consumed by `requests` scheduled requests.
pub fn pairs_needed(requests: usize) -> usize {
    let batches = requests / BATCH_EVERY;
    requests - batches + batches * BATCH_LEN
}

/// Split per-request samples of several connections (each in send order,
/// `requests` scheduled per connection) into `n` windows of send time.
pub fn windows<'a>(
    per_conn: impl Iterator<Item = &'a [u64]>,
    requests: usize,
    n: usize,
) -> Vec<Vec<u64>> {
    let mut out = vec![Vec::new(); n];
    for samples in per_conn {
        for (i, &x) in samples.iter().enumerate() {
            out[(i * n / requests.max(1)).min(n - 1)].push(x);
        }
    }
    out
}

/// Nearest-rank percentile `q` of unsorted samples (0 when empty).
pub fn pct(samples: &[u64], q: f64) -> u64 {
    let mut v = samples.to_vec();
    v.sort_unstable();
    lowtw::servd::percentile_us(&v, q)
}

/// Connect, or record the whole schedule as lost.
pub fn connect(addr: SocketAddr, requests: usize) -> Result<Client, ConnOut> {
    Client::connect(addr).map_err(|e| ConnOut {
        failures: vec![("io_error", e.to_string(), pairs_needed(requests) as u64)],
        ..ConnOut::default()
    })
}
