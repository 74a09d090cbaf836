//! The serving workload: a quantized thin ResNet-20 behind an in-process
//! `NetServer` on loopback, with the shipped default configuration, driven
//! by a seeded open-loop Poisson generator while a stats poller rides
//! beside the inference traffic.

use crate::offline::{
    finite, image_seed, input_dims, same_bits, sqnr_vs_fp32, Model, Outputs, FAST_Q,
};
use crate::stats::{self, latencies_ms, percentile, poisson_schedule, RequestTimes, SplitMix64};
use crate::{metric, Args, Metric, Outcome};
use std::io::{BufReader, ErrorKind, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};
use wino_nets::{resnet20_graph, Graph};
use wino_serve::net::{
    encode_frame, read_frame, Frame, FrameRead, ModelServeConfig, NetClient, NetServer,
    NetServerConfig, RegistryBuilder,
};
use wino_tensor::{normal, Tensor};

/// Registry name of the served model.
pub const MODEL: &str = "resnet20";
/// Channel divisor applied to ResNet-20 (a thin, cache-resident model).
pub const CHANNEL_DIV: usize = 8;
/// Generator connections, one generator thread each.
pub const CONNECTIONS: usize = 2;
/// Offered rate of the fixed-rate phase, requests (= images) per second:
/// about a fifth of the ladder capacity. From 150 up, the median request
/// queues behind a pipelined one often enough that p50 spreads by a fifth
/// across seeds; at 100 it spreads by a few percent.
pub const FIXED_RATE: f64 = 100.0;
/// Latency limit on the p99 of a ladder rung.
pub const SLO_P99_MS: f64 = 100.0;
/// The rate ladder `max_rps_under_slo` is searched on: 5% steps from 250.
pub const LADDER: [f64; 31] = [
    250.0, 262.0, 276.0, 289.0, 304.0, 319.0, 335.0, 352.0, 369.0, 388.0, 407.0, 428.0, 449.0,
    471.0, 495.0, 520.0, 546.0, 573.0, 602.0, 632.0, 663.0, 696.0, 731.0, 768.0, 806.0, 847.0,
    889.0, 933.0, 980.0, 1029.0, 1080.0,
];
/// Share of `--seconds` spent at the fixed rate. The ladder probes that
/// follow are sized in requests and take about as long again.
const FIXED_SHARE: f64 = 0.5;
/// Ladder probes per run (bisection over the 31 rungs needs five).
const LADDER_PROBES: usize = 5;
/// Interval of the `Frame::Stats` polls during the fixed-rate phase.
pub const STATS_EVERY: Duration = Duration::from_millis(100);
/// Distinct seeded images the generator cycles through.
const POOL: usize = 64;
/// How long after its window a phase waits for outstanding replies.
const DRAIN: Duration = Duration::from_secs(2);
/// Images of the fixed SQNR sample.
const SQNR_IMAGES: u64 = 128;

/// The served graph.
pub fn graph() -> Graph {
    resnet20_graph().with_channel_div(CHANNEL_DIV)
}

/// A running server with its model.
pub struct Served {
    pub model: Model,
    pub server: NetServer,
}

/// Builds and calibrates the model, registers it with the shipped
/// defaults and binds loopback.
pub fn setup() -> Served {
    let model = crate::offline::setup(graph(), 1);
    let registry = RegistryBuilder::new()
        .model(
            MODEL,
            Arc::clone(&model.exec),
            Arc::clone(&model.prepared),
            ModelServeConfig::default(),
        )
        .build();
    let server = NetServer::bind("127.0.0.1:0", registry, NetServerConfig::default())
        .expect("bind loopback");
    Served { model, server }
}

/// Seconds of one full serving set-up, torn down afterwards.
pub fn timed_setup() -> f64 {
    let t = Instant::now();
    let served = setup();
    let s = t.elapsed().as_secs_f64();
    served.server.shutdown();
    s
}

/// The seeded image pool the generator cycles through.
pub fn image_pool(graph: &Graph, batch: usize, seed: u64) -> Vec<Tensor<f32>> {
    let dims = input_dims(graph, batch);
    (0..POOL as u64)
        .map(|i| normal(&dims, 0.0, 1.0, image_seed(seed, i)))
        .collect()
}

/// Which pool image request `k` of connection `conn` carries.
fn pool_index(seed: u64, conn: usize, k: usize) -> usize {
    (SplitMix64::new(seed ^ ((conn as u64) << 40) ^ k as u64).next_u64() % POOL as u64) as usize
}

/// One open-loop phase's outcome.
#[derive(Debug, Default)]
pub struct Load {
    /// Every request's timeline, all connections.
    pub times: Vec<RequestTimes>,
    /// Requests answered with a typed error (refusals included).
    pub errors: u64,
    /// Replies whose outputs differ from the in-process run of their image.
    pub mismatches: u64,
    /// Round-trip milliseconds of the stats polls and pings, and polls that
    /// failed.
    pub stats_ms: Vec<f64>,
    pub ping_ms: Vec<f64>,
    pub poll_failed: u64,
    /// Pool image index and outputs of every reply, until verified.
    pub replies: Vec<(usize, Outputs)>,
    /// Phase window.
    pub window: Duration,
}

impl Load {
    /// Requests sent.
    pub fn sent(&self) -> usize {
        self.times.len()
    }

    /// Requests that got no reply before the drain deadline.
    pub fn unanswered(&self) -> usize {
        self.times.iter().filter(|t| t.done.is_none()).count()
    }

    /// Requests still outstanding when the send window closed.
    pub fn outstanding_at_end(&self) -> usize {
        self.times
            .iter()
            .filter(|t| t.done.is_none_or(|d| d > self.window))
            .count()
    }

    /// Operations attempted: requests and polls.
    pub fn attempted(&self) -> u64 {
        (self.sent() + self.stats_ms.len() + self.ping_ms.len()) as u64 + self.poll_failed
    }

    /// Failed operations: typed errors, wrong outputs, no reply, failed
    /// polls.
    pub fn failed(&self) -> u64 {
        self.errors + self.mismatches + self.unanswered() as u64 + self.poll_failed
    }

    /// Compares every kept reply with the in-process outputs of its image.
    pub fn verify(&mut self, expected: &[Outputs]) {
        self.mismatches += std::mem::take(&mut self.replies)
            .iter()
            .filter(|(i, out)| !same_bits(&expected[*i], out))
            .count() as u64;
    }

    /// Due-time latency percentile over every request sent, a request that
    /// failed or got no reply counting as infinitely late.
    pub fn latency_ms(&self, q: f64) -> f64 {
        let mut lat = latencies_ms(&self.times);
        let failed = self.errors as usize + self.unanswered();
        lat.extend(std::iter::repeat_n(f64::INFINITY, failed));
        if lat.is_empty() {
            return f64::INFINITY;
        }
        percentile(&lat, q)
    }

    /// Replies per second from the window start to the last reply.
    pub fn throughput(&self) -> f64 {
        let answered = self.sent() - self.unanswered();
        let last = self.times.iter().filter_map(|t| t.done).max();
        last.map_or(0.0, |d| answered as f64 / d.as_secs_f64())
    }

    /// Generator lateness in milliseconds, ascending.
    pub fn lag_ms(&self) -> Vec<f64> {
        stats::sorted(
            self.times
                .iter()
                .map(|t| t.lag().as_secs_f64() * 1e3)
                .collect(),
        )
    }
}

/// One connection's share of a phase.
struct ConnResult {
    times: Vec<RequestTimes>,
    /// Pool image and reply outputs of each request (`None`: no reply or a
    /// typed error).
    replies: Vec<(usize, Option<Outputs>)>,
    errors: u64,
}

/// One generator connection: this thread writes on schedule; a reader
/// thread timestamps replies as they arrive.
#[allow(clippy::too_many_arguments)]
fn connection(
    addr: SocketAddr,
    model: &str,
    conn: usize,
    schedule: Vec<Duration>,
    pool: &[Tensor<f32>],
    seed: u64,
    start: Instant,
    drain_until: Instant,
) -> ConnResult {
    let stream = TcpStream::connect(addr).expect("connect loopback");
    let read_half = stream.try_clone().expect("clone stream");
    let _ = read_half.set_read_timeout(Some(Duration::from_millis(200)));
    let n = schedule.len();
    let reader = std::thread::spawn(move || {
        let mut reader = BufReader::new(read_half);
        let mut done: Vec<Option<Duration>> = vec![None; n];
        let mut outputs: Vec<Option<Outputs>> = vec![None; n];
        let mut errors = 0u64;
        let mut answered = 0;
        while answered < n && Instant::now() < drain_until {
            let frame = match read_frame(&mut reader) {
                Ok(FrameRead::Frame(f)) => f,
                Ok(FrameRead::TimedOut) => continue,
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    continue
                }
                _ => break,
            };
            let at = start.elapsed();
            let k = frame.request_id() as usize;
            if k >= n || done[k].is_some() {
                errors += 1;
                continue;
            }
            done[k] = Some(at);
            answered += 1;
            match frame {
                Frame::InferReply { outputs: out, .. } => outputs[k] = Some(out),
                _ => errors += 1,
            }
        }
        (done, outputs, errors)
    });
    let mut writer = stream;
    let mut sent = Vec::with_capacity(n);
    let idx: Vec<usize> = (0..n).map(|k| pool_index(seed, conn, k)).collect();
    for (k, &due) in schedule.iter().enumerate() {
        let now = start.elapsed();
        if due > now {
            std::thread::sleep(due - now);
        }
        let bytes = encode_frame(&Frame::InferRequest {
            request_id: k as u64,
            model: model.to_string(),
            inputs: vec![pool[idx[k]].clone()],
        });
        sent.push(start.elapsed());
        if writer.write_all(&bytes).is_err() {
            break;
        }
    }
    let (done, outputs, errors) = reader.join().expect("reader thread");
    // Closing the socket abandons whatever backlog the server still holds.
    let _ = writer.shutdown(Shutdown::Both);
    let times = schedule
        .iter()
        .enumerate()
        .map(|(k, &due)| RequestTimes {
            due,
            sent: sent.get(k).copied().unwrap_or(due),
            done: done[k],
        })
        .collect();
    ConnResult {
        times,
        replies: idx.into_iter().zip(outputs).collect(),
        errors,
    }
}

/// Expected outputs of every pool image, run in process.
pub fn expected_outputs(model: &Model, pool: &[Tensor<f32>]) -> Vec<Outputs> {
    pool.iter()
        .map(|x| {
            model
                .exec
                .run_with_inputs(&model.prepared, std::slice::from_ref(x))
                .outputs
        })
        .collect()
}

/// What the side connection polls every [`STATS_EVERY`] during a phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Poll {
    Nothing,
    Stats,
    /// A stats poll followed by a ping.
    StatsAndPing,
}

/// Drives `rate` requests per second of seeded Poisson arrivals at `model`
/// over [`CONNECTIONS`] connections for `window`, with `poll` riding on a
/// connection of its own. Replies are kept for [`Load::verify`].
#[allow(clippy::too_many_arguments)]
pub fn open_loop(
    addr: SocketAddr,
    model: &str,
    pool: &[Tensor<f32>],
    rate: f64,
    window: Duration,
    drain: Duration,
    seed: u64,
    poll: Poll,
) -> Load {
    let mut poller =
        (poll != Poll::Nothing).then(|| NetClient::connect(addr).expect("connect loopback"));
    // A short lead lets the generator threads connect before the first
    // request is due.
    let start = Instant::now() + Duration::from_millis(20);
    let drain_until = start + window + drain;
    let (results, stats_ms, ping_ms, poll_failed) = std::thread::scope(|s| {
        let gens: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                let schedule = poisson_schedule(
                    image_seed(seed, c as u64),
                    rate / CONNECTIONS as f64,
                    window,
                );
                s.spawn(move || {
                    connection(addr, model, c, schedule, pool, seed, start, drain_until)
                })
            })
            .collect();
        let (mut stats_ms, mut ping_ms, mut poll_failed) = (Vec::new(), Vec::new(), 0u64);
        if let Some(client) = poller.as_mut() {
            let mut tick = start;
            while tick + STATS_EVERY < start + window {
                tick += STATS_EVERY;
                std::thread::sleep(tick.saturating_duration_since(Instant::now()));
                let t = Instant::now();
                match client.stats() {
                    Ok(_) => stats_ms.push(t.elapsed().as_secs_f64() * 1e3),
                    Err(_) => poll_failed += 1,
                }
                if poll == Poll::StatsAndPing {
                    match client.ping_rtt() {
                        Ok(rtt) => ping_ms.push(rtt.as_secs_f64() * 1e3),
                        Err(_) => poll_failed += 1,
                    }
                }
            }
        }
        let results: Vec<ConnResult> = gens
            .into_iter()
            .map(|g| g.join().expect("generator thread"))
            .collect();
        (results, stats_ms, ping_ms, poll_failed)
    });
    let mut load = Load {
        window,
        stats_ms,
        ping_ms,
        poll_failed,
        ..Load::default()
    };
    for r in results {
        load.times.extend(r.times);
        load.errors += r.errors;
        load.replies
            .extend(r.replies.into_iter().filter_map(|(i, out)| Some((i, out?))));
    }
    load
}

/// Whether a ladder rung holds: no typed error or refusal, p99 within the
/// SLO (a request unanswered one SLO after the window counts as infinitely
/// late), and no backlog left when the window closed beyond what one SLO's
/// worth of arrivals explains.
fn rung_holds(load: &Load, rate: f64) -> bool {
    load.errors == 0
        && load.latency_ms(0.99) <= SLO_P99_MS
        && load.outstanding_at_end() as f64 <= (rate * SLO_P99_MS / 1e3).ceil()
}

/// Requests each ladder probe sends (p99 then has fourteen samples beyond
/// it).
const RUNG_REQUESTS: f64 = 1500.0;
/// How long a ladder probe waits for replies after its window.
const RUNG_DRAIN: Duration = Duration::from_millis(SLO_P99_MS as u64);

/// The outcome of the ladder search.
#[derive(Debug, Default)]
pub struct Ladder {
    /// The highest rung that held and the reply throughput measured on it.
    pub best: Option<(f64, f64)>,
    /// Every probe: rung rate and whether it held.
    pub probes: Vec<(f64, bool)>,
    pub attempted: u64,
    pub mismatches: u64,
}

/// Bisects [`LADDER`] for the highest rung that holds.
pub fn search_ladder(
    addr: SocketAddr,
    pool: &[Tensor<f32>],
    seed: u64,
    expected: &[Outputs],
) -> Ladder {
    let (mut lo, mut hi) = (-1isize, LADDER.len() as isize);
    let mut ladder = Ladder::default();
    while hi - lo > 1 && ladder.probes.len() < LADDER_PROBES {
        let mid = (lo + hi) / 2;
        let rate = LADDER[mid as usize];
        let window = Duration::from_secs_f64(RUNG_REQUESTS / rate);
        let mut load = open_loop(
            addr,
            MODEL,
            pool,
            rate,
            window,
            RUNG_DRAIN,
            image_seed(seed, 1000 + ladder.probes.len() as u64),
            Poll::Nothing,
        );
        load.verify(expected);
        ladder.attempted += load.sent() as u64;
        ladder.mismatches += load.mismatches;
        let holds = rung_holds(&load, rate);
        ladder.probes.push((rate, holds));
        if holds {
            lo = mid;
            ladder.best = Some((rate, load.throughput()));
        } else {
            hi = mid;
        }
        // Let the server finish abandoned work before the next probe.
        std::thread::sleep(Duration::from_millis(50));
    }
    ladder
}

/// The untraced serving run.
pub fn run(args: &Args) -> Outcome {
    let start = Instant::now();
    let served = setup();
    let addr = served.server.local_addr();
    let pool = image_pool(&served.model.graph, 1, args.seed);
    let first_setup = start.elapsed().as_secs_f64();

    let fixed_window = Duration::from_secs_f64(args.seconds * FIXED_SHARE);
    let mut fixed = open_loop(
        addr,
        MODEL,
        &pool,
        FIXED_RATE,
        fixed_window,
        DRAIN,
        args.seed,
        Poll::Stats,
    );
    // Read after the fixed-rate phase, whose request count is set by the
    // schedule; the ladder's probe path differs from run to run.
    let peak_rss = stats::peak_rss_mib().unwrap_or(f64::NAN);
    let expected = expected_outputs(&served.model, &pool);
    let non_finite = expected.iter().filter(|o| !finite(o)).count() as u64;
    fixed.verify(&expected);
    let ladder = search_ladder(addr, &pool, args.seed, &expected);
    let Served { model, server } = served;
    server.shutdown();
    let sqnr = sqnr_vs_fp32(model, 1, args.seed, SQNR_IMAGES as usize);
    let setup_s = crate::offline::repeat_setups(first_setup, timed_setup);

    let (max_rps, served_rps) = ladder.best.unwrap_or((0.0, 0.0));
    let lag = fixed.lag_ms();
    let stats_sorted = stats::sorted(fixed.stats_ms.clone());
    let attempted = fixed.attempted() + ladder.attempted;
    let failed = fixed.failed() + ladder.mismatches + non_finite;
    let metrics: Vec<Metric> = vec![
        metric("setup_s", setup_s, "s"),
        metric("images_per_s", served_rps, "1/s"),
        metric("latency_ms_p10", fixed.latency_ms(FAST_Q), "ms"),
        metric("sqnr_db", sqnr, "dB"),
        metric("peak_rss_mib", peak_rss, "MiB"),
    ];
    let mut report = vec![
        metric("first_setup_s", first_setup, "s"),
        metric("fixed_rate_rps", FIXED_RATE, "1/s"),
        metric("slo_p99_ms", SLO_P99_MS, "ms"),
        metric("samples", fixed.sent() as f64, "count"),
        metric("latency_ms_p50", fixed.latency_ms(0.5), "ms"),
        metric("latency_ms_p90", fixed.latency_ms(0.9), "ms"),
        metric("latency_ms_p99", fixed.latency_ms(0.99), "ms"),
        metric("max_rps_under_slo", max_rps, "1/s"),
        metric(
            "stats_ms_p90",
            if stats_sorted.is_empty() {
                f64::NAN
            } else {
                percentile(&stats_sorted, 0.9)
            },
            "ms",
        ),
        metric("stats_polls", stats_sorted.len() as f64, "count"),
        metric("failed_share", failed as f64 / attempted.max(1) as f64, "1"),
        metric("loadgen.lag_ms_p99", percentile(&lag, 0.99), "ms"),
        metric(
            "completed_per_s",
            (fixed.sent() - fixed.unanswered()) as f64 / fixed_window.as_secs_f64(),
            "1/s",
        ),
    ];
    for (rate, holds) in ladder.probes {
        report.push(metric(
            format!("ladder.{rate}"),
            f64::from(u8::from(holds)),
            "pass",
        ));
    }
    Outcome {
        metrics,
        report,
        attempted,
        failed,
    }
}
