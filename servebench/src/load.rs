//! The served configuration, the seeded request inputs, the benchmark's own
//! closed- and open-loop load generators, and the output checks.
//!
//! The load generators speak the wire protocol directly on `std::net`
//! sockets with pre-encoded frames, so the client side costs one buffer
//! copy and one write per request. The open loop never skips a tick: a
//! request that is due is sent as soon as the sender can, however late, and
//! its latency is timed from when it was due.

use crate::host::realtime_thread;
use crate::stats::poisson_schedule;
use std::io::{self, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tia_engine::{Backend, EngineConfig, PrecisionPolicy};
use tia_nn::{zoo, Network};
use tia_quant::{Precision, PrecisionSet};
use tia_serve::{infer_frame, Frame, InferResponse, Metrics, Server, ServerConfig, WirePolicy};
use tia_tensor::{KernelMode, SeededRng, Tensor};

/// Served image geometry `[C, H, W]` (tia-served's default).
pub const INPUT: [usize; 3] = [3, 16, 16];
/// Model width and classes (tia-served's defaults).
pub const WIDTH: usize = 4;
/// Output classes.
pub const CLASSES: usize = 10;
/// tia-served's `--model-seed` default.
pub const MODEL_SEED: u64 = 1;
/// tia-served's `--seed` default (the engine's precision schedule).
const ENGINE_SEED: u64 = 7;
/// Worker shards.
pub const WORKERS: usize = 2;
/// tia-served's `--max-batch` default.
const MAX_BATCH: usize = 8;
/// tia-served's `--queue-cap` default.
const QUEUE: usize = 1024;
/// Connections of the closed loops.
pub const CLOSED_CONNS: usize = 2;
/// Requests each closed-loop connection keeps in flight.
const IN_FLIGHT: usize = 16;
/// Offered load of the open loop, requests per second.
const OPEN_RATE: f64 = 800.0;
/// Distinct seeded images requests cycle through.
const POOL: usize = 64;
/// Responses per server recomputed in-process and compared bit for bit.
const VERIFY_SAMPLE: usize = 64;
/// One answer in this many (by a hash of its id) is kept for that.
const KEEP_ONE_IN: u64 = 64;
/// A connection that hears nothing for this long has lost requests.
const READ_TIMEOUT: Duration = Duration::from_secs(30);

/// The RPS candidate set of the served model.
pub fn rps_set() -> PrecisionSet {
    PrecisionSet::range(4, 8)
}

/// One fresh replica of the served model, on the native kernels.
pub fn model() -> Network {
    let mut net = zoo::preact_resnet18_rps(
        INPUT[0],
        WIDTH,
        CLASSES,
        rps_set(),
        &mut SeededRng::new(MODEL_SEED),
    );
    net.set_kernel(KernelMode::Native);
    net
}

/// The engine configuration every server and in-process engine uses.
pub fn engine_config() -> EngineConfig {
    EngineConfig::default()
        .with_max_batch(MAX_BATCH)
        .with_seed(ENGINE_SEED)
        .with_kernel(KernelMode::Native)
}

/// A traffic mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed loop, every request on the server's seeded RPS schedule.
    ClosedRps,
    /// Closed loop, every request pinned to fp32.
    ClosedFp32,
    /// Open loop, Poisson arrivals at [`OPEN_RATE`], RPS schedule.
    OpenRps,
}

impl Workload {
    /// Parses a workload name.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "closed_rps" => Some(Self::ClosedRps),
            "closed_fp32" => Some(Self::ClosedFp32),
            "open_rps" => Some(Self::OpenRps),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Self::ClosedRps => "closed_rps",
            Self::ClosedFp32 => "closed_fp32",
            Self::OpenRps => "open_rps",
        }
    }

    /// The policy every request of the workload carries.
    pub fn wire_policy(self) -> WirePolicy {
        match self {
            Self::ClosedFp32 => WirePolicy::Fixed(None),
            Self::ClosedRps | Self::OpenRps => WirePolicy::Server,
        }
    }

    /// The same policy as an in-process engine policy.
    pub fn engine_policy(self) -> PrecisionPolicy {
        match self {
            Self::ClosedFp32 => PrecisionPolicy::Fixed(None),
            Self::ClosedRps | Self::OpenRps => PrecisionPolicy::Random(rps_set()),
        }
    }

    /// Whether a response's precision lies in the workload's set.
    pub fn allows(self, p: Option<Precision>) -> bool {
        match (self, p) {
            (Self::ClosedFp32, None) => true,
            (Self::ClosedRps | Self::OpenRps, Some(p)) => rps_set().contains(p),
            _ => false,
        }
    }
}

/// Wire id layout: `tag << 48 | conn << 40 | seq`, so every request of a
/// run has a distinct id and its image can be recovered from the id.
fn wire_id(tag: u64, conn: usize, seq: u64) -> u64 {
    tag << 48 | (conn as u64) << 40 | seq
}

fn image_index(conn: usize, seq: u64) -> usize {
    (seq as usize * CLOSED_CONNS + conn) % POOL
}

/// The seeded request images and, per wire policy, their encoded frames.
pub struct Inputs {
    images: Vec<Tensor>,
}

impl Inputs {
    /// Draws [`POOL`] images uniformly in `[0, 1)` from `seed`.
    pub fn new(seed: u64) -> Self {
        let mut rng = SeededRng::new(seed);
        let images = (0..POOL)
            .map(|_| Tensor::rand_uniform(&INPUT, 0.0, 1.0, &mut rng))
            .collect();
        Self { images }
    }

    /// The images, stacked as one `[n, C, H, W]` burst (cycling the pool).
    pub fn burst(&self, n: usize) -> Tensor {
        let chw: usize = INPUT.iter().product();
        let mut data = Vec::with_capacity(n * chw);
        for i in 0..n {
            data.extend_from_slice(self.images[i % POOL].data());
        }
        Tensor::from_vec(data, &[n, INPUT[0], INPUT[1], INPUT[2]])
    }

    /// Every image encoded as an `Infer` frame under `policy`.
    pub fn frames(&self, policy: &WirePolicy) -> Frames {
        let templates = self
            .images
            .iter()
            .map(|img| {
                let bytes = infer_frame(0, img, policy.clone()).encode();
                // A v1 Infer frame carries its id at payload offset 0,
                // right after the 12-byte header; `send` patches it there.
                assert_eq!(bytes[4], 1, "expected a v1 Infer frame");
                bytes
            })
            .collect();
        Frames { templates }
    }
}

/// Pre-encoded request frames, one per pool image.
pub struct Frames {
    templates: Vec<Vec<u8>>,
}

impl Frames {
    fn send(
        &self,
        w: &mut TcpStream,
        scratch: &mut Vec<u8>,
        tag: u64,
        conn: usize,
        seq: u64,
    ) -> io::Result<()> {
        scratch.clear();
        scratch.extend_from_slice(&self.templates[image_index(conn, seq)]);
        scratch[12..20].copy_from_slice(&wire_id(tag, conn, seq).to_le_bytes());
        w.write_all(scratch)
    }
}

/// What one client connection sent and heard back.
pub struct ConnLog {
    tag: u64,
    conn: usize,
    /// Requests sent (sequence numbers `0..sent`).
    sent: u64,
    /// Answers seen per sequence number (exactly one is correct).
    answers: Vec<u8>,
    /// Per sequence number, when the request was due, ns after the phase
    /// start: its scheduled time in the open loop, its send in the closed
    /// loop. Latency is timed from here.
    due_ns: Vec<u64>,
    /// Per sequence number, when its `Logits` answer arrived, ns after the
    /// phase start (`u64::MAX` if none did).
    recv_ns: Vec<u64>,
    /// How late each send ran, ns: behind its scheduled time in the open
    /// loop, behind the answer that freed its slot in the closed loop.
    pub lag_ns: Vec<u64>,
    /// Per sequence number, the precision its `Logits` answer ran at.
    precision: Vec<Option<Precision>>,
    /// The `Logits` answers kept for recomputation: one id in
    /// [`KEEP_ONE_IN`], so the client's memory does not grow with
    /// throughput.
    kept: Vec<InferResponse>,
    /// `Reject` answers.
    rejected: u64,
    /// `Error` frames, unexpected frames and answers to unknown ids.
    errored: u64,
    /// The transport error that ended the connection early, if any.
    broken: Option<String>,
    /// Whether the open loop's client threads ran under `SCHED_FIFO`.
    pub realtime: bool,
}

impl ConnLog {
    fn new(tag: u64, conn: usize) -> Self {
        Self {
            tag,
            conn,
            sent: 0,
            answers: Vec::new(),
            due_ns: Vec::new(),
            recv_ns: Vec::new(),
            lag_ns: Vec::new(),
            precision: Vec::new(),
            kept: Vec::new(),
            rejected: 0,
            errored: 0,
            broken: None,
            realtime: false,
        }
    }

    fn sent_one(&mut self, due_ns: u64) {
        self.sent += 1;
        self.answers.push(0);
        self.due_ns.push(due_ns);
        self.recv_ns.push(u64::MAX);
        self.precision.push(None);
    }

    /// Records one answer that arrived `at_ns` after the phase start.
    fn heard(&mut self, frame: Frame, at_ns: u64) {
        let id = match &frame {
            Frame::Logits(r) => r.id,
            Frame::Reject { id, .. } => *id,
            _ => {
                self.errored += 1;
                return;
            }
        };
        let seq = id & ((1 << 40) - 1);
        if id != wire_id(self.tag, self.conn, seq) || seq >= self.sent {
            self.errored += 1;
            return;
        }
        let slot = &mut self.answers[seq as usize];
        *slot = slot.saturating_add(1);
        match frame {
            Frame::Logits(r) => {
                self.recv_ns[seq as usize] = at_ns;
                self.precision[seq as usize] = r.precision;
                if id.wrapping_mul(0x9E37_79B9_7F4A_7C15) % KEEP_ONE_IN == 0 {
                    self.kept.push(r);
                }
            }
            _ => self.rejected += 1,
        }
    }

    /// `(wire id, due ns, client latency ns)` of every `Logits` answer.
    pub fn answered(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        self.recv_ns
            .iter()
            .zip(&self.due_ns)
            .enumerate()
            .filter(|(_, (&r, _))| r != u64::MAX)
            .map(|(seq, (&r, &d))| {
                (
                    wire_id(self.tag, self.conn, seq as u64),
                    d,
                    r.saturating_sub(d),
                )
            })
    }
}

fn connect(addr: SocketAddr) -> io::Result<(BufReader<TcpStream>, TcpStream)> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(READ_TIMEOUT))?;
    Ok((
        BufReader::with_capacity(1 << 16, stream.try_clone()?),
        stream,
    ))
}

/// When a closed loop stops issuing new requests.
#[derive(Clone, Copy)]
pub enum Stop {
    /// After this many requests.
    Count(u64),
    /// Once this instant has passed.
    At(Instant),
}

/// One closed-loop connection: keeps [`IN_FLIGHT`] requests outstanding,
/// sending the next as each answer arrives, until `stop`; then drains.
/// Latency is timed from each request's send.
fn closed_conn(
    addr: SocketAddr,
    frames: &Frames,
    tag: u64,
    conn: usize,
    stop: Stop,
    start: Instant,
) -> ConnLog {
    let mut log = ConnLog::new(tag, conn);
    if let Err(e) = closed_inner(addr, frames, stop, start, &mut log) {
        log.broken = Some(e.to_string());
    }
    log
}

fn closed_inner(
    addr: SocketAddr,
    frames: &Frames,
    stop: Stop,
    start: Instant,
    log: &mut ConnLog,
) -> io::Result<()> {
    let (mut reader, mut writer) = connect(addr)?;
    let mut scratch = Vec::new();
    let more = |sent: u64| match stop {
        Stop::Count(n) => sent < n,
        Stop::At(t) => Instant::now() < t,
    };
    let ns = |t: Instant| t.duration_since(start).as_nanos() as u64;
    let mut outstanding = 0;
    while outstanding < IN_FLIGHT && more(log.sent) {
        let due = ns(Instant::now());
        frames.send(&mut writer, &mut scratch, log.tag, log.conn, log.sent)?;
        log.sent_one(due);
        outstanding += 1;
    }
    while outstanding > 0 {
        let frame = Frame::read_from(&mut reader).map_err(|e| io::Error::other(e.to_string()))?;
        let heard = Instant::now();
        outstanding -= 1;
        log.heard(frame, ns(heard));
        if more(log.sent) {
            let now = Instant::now();
            log.lag_ns.push(now.duration_since(heard).as_nanos() as u64);
            frames.send(&mut writer, &mut scratch, log.tag, log.conn, log.sent)?;
            log.sent_one(ns(now));
            outstanding += 1;
        }
    }
    Ok(())
}

/// Runs [`closed_conn`] on `conns` connections at once, one thread each.
pub fn closed_loop(
    addr: SocketAddr,
    frames: &Frames,
    tag: u64,
    conns: usize,
    stop: Stop,
    start: Instant,
) -> Vec<ConnLog> {
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..conns)
            .map(|c| s.spawn(move || closed_conn(addr, frames, tag, c, stop, start)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("closed-loop client thread panicked"))
            .collect()
    })
}

/// The open loop on one connection: a sender thread issues request `i` at
/// `start + schedule[i]` (immediately if already late, never skipping
/// one), and a receiver thread reads the answers. Both run under
/// `SCHED_FIFO` where the host allows it (see [`realtime_thread`]); they
/// are fresh threads so the priority never reaches the server's. Latency
/// is timed from the scheduled send; `lag_ns` records how late each send
/// actually went out.
pub fn open_loop(
    addr: SocketAddr,
    frames: &Frames,
    tag: u64,
    schedule: &[u64],
    start: Instant,
) -> ConnLog {
    let mut log = ConnLog::new(tag, 0);
    let (mut reader, mut writer) = match connect(addr) {
        Ok(c) => c,
        Err(e) => {
            log.broken = Some(e.to_string());
            return log;
        }
    };
    // Sequence numbers `0..n` are all sent (unless the socket breaks);
    // the receiver accounts for every one of them.
    let n = schedule.len() as u64;
    for &due in schedule {
        log.sent_one(due);
    }
    let sender = std::thread::scope(|s| {
        let sender = s.spawn(|| {
            let realtime = realtime_thread();
            let mut scratch = Vec::new();
            let mut lag = Vec::with_capacity(schedule.len());
            for (seq, &due) in schedule.iter().enumerate() {
                let at = start + Duration::from_nanos(due);
                let now = Instant::now();
                if at > now {
                    std::thread::sleep(at - now);
                }
                lag.push(Instant::now().saturating_duration_since(at).as_nanos() as u64);
                if let Err(e) = frames.send(&mut writer, &mut scratch, tag, 0, seq as u64) {
                    // Unblock the receiver: nothing more will be answered.
                    drop(writer.shutdown(std::net::Shutdown::Both));
                    return (lag, realtime, Some(e.to_string()));
                }
            }
            (lag, realtime, None)
        });
        let log = &mut log;
        s.spawn(move || {
            let realtime = realtime_thread();
            for _ in 0..n {
                match Frame::read_from(&mut reader) {
                    Ok(frame) => {
                        let at = Instant::now().duration_since(start).as_nanos() as u64;
                        log.heard(frame, at);
                    }
                    Err(e) => {
                        log.broken = Some(e.to_string());
                        break;
                    }
                }
            }
            log.realtime = realtime;
        })
        .join()
        .expect("open-loop receiver thread panicked");
        sender.join().expect("open-loop sender thread panicked")
    });
    log.lag_ns = sender.0;
    log.realtime &= sender.1;
    if let Some(e) = sender.2 {
        log.broken = Some(e);
    }
    log
}

/// The open-loop schedule of a run: seeded Poisson arrivals.
pub fn open_schedule(seed: u64, seconds: f64) -> Vec<u64> {
    poisson_schedule(seed ^ 0x0A11_0CA7_E5C4_ED01, OPEN_RATE, seconds)
}

/// The serving configuration: tia-served's defaults with 2 shards.
fn server_config(trace: bool) -> ServerConfig {
    let cfg = ServerConfig::default()
        .with_addr("127.0.0.1:0")
        .with_workers(WORKERS)
        .with_queue_capacity(QUEUE)
        .with_max_wait(Duration::ZERO)
        .with_input_shape(INPUT)
        .with_policy(PrecisionPolicy::Random(rps_set()))
        .with_engine(engine_config());
    if trace {
        cfg.with_trace()
    } else {
        cfg
    }
}

/// Frames for the warm-up: each precision pinned in turn, then the
/// workload's own mix.
pub struct Warmup {
    pinned: Vec<Frames>,
    own: Frames,
}

/// Wire-id tags: the warm-up and the measured traffic never share ids.
const WARM_TAG: u64 = 1;
/// Tag of measured traffic.
pub const RUN_TAG: u64 = 2;

impl Warmup {
    /// Encodes the warm-up frames for `workload`.
    pub fn new(inputs: &Inputs, workload: Workload) -> Self {
        let pinned = std::iter::once(None)
            .chain(rps_set().iter().map(Some))
            .map(|p| inputs.frames(&WirePolicy::Fixed(p)))
            .collect();
        Self {
            pinned,
            own: inputs.frames(&workload.wire_policy()),
        }
    }
}

/// A running server plus the handles that outlive it.
pub struct Served {
    /// The server.
    pub server: Server<Network>,
    /// Its metrics registry.
    pub metrics: Arc<Metrics>,
    /// Warm-up connection logs (checked with the run's own).
    pub warm_logs: Vec<ConnLog>,
}

/// Spawns the server and warms it: every precision's weights packed on both
/// shards, workspaces sized for full batches. Returns it with the seconds
/// this took (the benchmark's set-up time).
pub fn spawn_warm(trace: bool, warm: &Warmup) -> io::Result<(Served, f64)> {
    let t0 = Instant::now();
    let server = Server::spawn(server_config(trace), |_| model())?;
    let addr = server.addr();
    let mut warm_logs = Vec::new();
    for frames in warm.pinned.iter().chain([&warm.own]) {
        warm_logs.extend(closed_loop(
            addr,
            frames,
            WARM_TAG,
            CLOSED_CONNS,
            Stop::Count(64),
            t0,
        ));
    }
    let setup_s = t0.elapsed().as_secs_f64();
    let metrics = server.metrics_handle();
    Ok((
        Served {
            server,
            metrics,
            warm_logs,
        },
        setup_s,
    ))
}

/// Output checks of one server's lifetime.
#[derive(Debug, Default)]
pub struct Check {
    /// Requests sent.
    pub sent: u64,
    /// `Logits` answers that passed every check.
    pub ok: u64,
    /// `Reject` answers.
    pub rejected: u64,
    /// Error frames, unknown ids, duplicates and missing answers.
    pub errored: u64,
    /// Answers at a precision outside the workload's set, or whose logits
    /// differ from an in-process recomputation.
    pub wrong: u64,
    /// Responses recomputed in-process.
    pub verified: u64,
    /// Human-readable descriptions of every failure.
    pub problems: Vec<String>,
}

impl Check {
    /// Requests that failed (rejected, errored or wrong).
    pub fn failed(&self) -> u64 {
        self.rejected + self.errored + self.wrong
    }

    /// Folds another check into this one.
    pub fn absorb(&mut self, o: Check) {
        self.sent += o.sent;
        self.ok += o.ok;
        self.rejected += o.rejected;
        self.errored += o.errored;
        self.wrong += o.wrong;
        self.verified += o.verified;
        self.problems.extend(o.problems);
    }
}

/// Checks a connection set: every id answered exactly once and, for the
/// measured traffic of `workload` (`None` for the warm-up, whose pinned
/// precisions span every set), every precision in the workload's set and a
/// seeded sample of responses recomputed at batch 1 on `verifier` and
/// compared bit for bit.
pub fn check_logs(
    logs: &[ConnLog],
    workload: Option<Workload>,
    inputs: &Inputs,
    verifier: &mut Network,
    seed: u64,
) -> Check {
    let mut c = Check::default();
    for log in logs {
        c.sent += log.sent;
        c.rejected += log.rejected;
        c.errored += log.errored;
        if let Some(e) = &log.broken {
            c.problems
                .push(format!("connection {} broke: {e}", log.conn));
        }
        let missing = log.answers.iter().filter(|&&a| a == 0).count() as u64;
        let extra: u64 = log
            .answers
            .iter()
            .map(|&a| u64::from(a.saturating_sub(1)))
            .sum();
        if missing + extra > 0 {
            c.problems.push(format!(
                "connection {}: {missing} request(s) unanswered, {extra} answered twice",
                log.conn
            ));
        }
        c.errored += missing + extra;
        let answered: Vec<usize> = (0..log.recv_ns.len())
            .filter(|&i| log.recv_ns[i] != u64::MAX)
            .collect();
        c.ok += answered.len() as u64;
        if let Some(w) = workload {
            let off: Vec<usize> = answered
                .into_iter()
                .filter(|&i| !w.allows(log.precision[i]))
                .collect();
            if let Some(&i) = off.first() {
                c.problems.push(format!(
                    "connection {}: {} answer(s) outside the workload's precisions, first at {:?}",
                    log.conn,
                    off.len(),
                    log.precision[i]
                ));
            }
            c.wrong += off.len() as u64;
        }
    }
    // The seeded sample, drawn from the kept answers.
    let mut all: Vec<(usize, &InferResponse)> = logs
        .iter()
        .flat_map(|l| l.kept.iter().map(move |r| (l.conn, r)))
        .collect();
    SeededRng::new(seed ^ 0x5A3D_1E00_C0FF_EE11).shuffle(&mut all);
    let sample = if workload.is_some() { VERIFY_SAMPLE } else { 0 };
    for &(conn, r) in all.iter().take(sample) {
        let img = &inputs.images[image_index(conn, r.id & ((1 << 40) - 1))];
        let x = img.reshape(&[1, INPUT[0], INPUT[1], INPUT[2]]);
        let y = Backend::infer_batch(verifier, &x, r.precision);
        let same = y.data().len() == r.logits.len()
            && y.data()
                .iter()
                .zip(&r.logits)
                .all(|(a, b)| a.to_bits() == b.to_bits());
        verifier.recycle(y);
        c.verified += 1;
        if !same {
            c.wrong += 1;
            c.problems.push(format!(
                "id {:#x} at {:?}: served logits differ from in-process batch-1 logits",
                r.id, r.precision
            ));
        }
    }
    c.ok = c.ok.saturating_sub(c.wrong);
    c
}

/// Drains the server and checks conservation at quiescence. Returns the
/// engine's stats.
pub fn finish(served: Served) -> (tia_engine::EngineStats, Vec<String>) {
    let Served {
        server, metrics, ..
    } = served;
    let engine = server.shutdown();
    let snap = metrics.snapshot();
    let mut problems = Vec::new();
    if let Err(v) = snap.conservation_check() {
        problems.push(format!("conservation violated at drain: {v:?}"));
    }
    if snap.shed + snap.errored > 0 {
        problems.push(format!(
            "server shed {} and errored {} request(s)",
            snap.shed, snap.errored
        ));
    }
    (engine.stats(), problems)
}
