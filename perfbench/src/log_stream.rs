//! `log_stream`: closed-loop ZLog appends with a tailing reader per log.
//!
//! 4 OSDs, a 32-PG × 2-replica pool, 1 MDS rank, 8 logs of stripe width
//! 4. Per log, one pipelined appender keeps 8 appends of 256 B in flight
//! (queue depth 8, 1 ms flush window), and one tailing reader (read-ahead
//! 64) delivers every position in order, checkpoints and trims every 256
//! entries it delivers, keeping the last 128.

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;

use mala_sim::{Actor, Context, NodeId, SimDuration, SimTime};
use mala_zlog::log::ZlogOut;
use mala_zlog::{
    zlog_interface_update, AppendResult, BatchConfig, ReadConfig, ReadOutcome, ZlogClient,
    ZlogConfig,
};

use crate::cluster::{self, client_node, mds_node, Bench, Shape, ZlogDriver, MON};
use crate::run::{payload, payload_seq, span_dists, Layers, Run, SimStat};
use crate::stats::Dist;
use crate::timed::HostClock;

const LOGS: u32 = 8;
const STRIPE_WIDTH: u32 = 4;
const DEPTH: usize = 8;
const ENTRY_BYTES: usize = 256;
const READAHEAD: usize = 64;
const TRIM_EVERY: u64 = 256;
const TRIM_KEEP: u64 = 128;
const POOL: &str = "zlogpool";
/// Measured window of simulated time.
pub const WINDOW: SimDuration = SimDuration(500_000);
/// How long a caught-up reader waits before asking again.
const POLL: SimDuration = SimDuration(1_000);
/// Driver timer band, clear of the client's tokens (1, 2^32.., 2^40..,
/// 2^48..).
const TOKEN_POLL: u64 = 1 << 16;

/// Ground truth of one log, shared by its appender and reader.
#[derive(Default)]
struct Truth {
    /// Acked position → (append seq, ack time).
    acked: HashMap<u64, (u64, SimTime)>,
    /// Seqs already acked, to catch an append acked twice.
    acked_seqs: HashMap<u64, u64>,
    /// Positions delivered before their ack arrived: (seq, delivery).
    early: HashMap<u64, (u64, SimTime)>,
    /// Positions delivered as junk fills.
    filled: HashMap<u64, SimTime>,
    /// Ack → delivery lag samples (µs) for deliveries in the window.
    lag_us: Vec<u64>,
    violations: Vec<String>,
}

struct Shared {
    /// Appends in flight over all appenders.
    appends_inflight: Cell<u64>,
    /// End of the measured window.
    window_end: Cell<SimTime>,
}

/// Owns one appending `ZlogClient`.
pub struct Appender {
    client: ZlogClient,
    clock: Rc<HostClock>,
    log: u32,
    seed: u64,
    truth: Rc<RefCell<Truth>>,
    shared: Rc<Shared>,
    running: bool,
    /// (op, seq, submitted at).
    inflight: Vec<(u64, u64, SimTime)>,
    next_seq: u64,
    attempted: u64,
    failed: u64,
    acked_in_window: u64,
    lat_us: Vec<u64>,
}

impl Appender {
    fn submit(&mut self, ctx: &mut Context<'_>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let data = payload(self.seed, self.log, seq, ENTRY_BYTES);
        let client = &mut self.client;
        let op = self.clock.time(|| client.append_async(ctx, data));
        self.inflight.push((op, seq, ctx.now()));
        self.attempted += 1;
        let n = &self.shared.appends_inflight;
        n.set(n.get() + 1);
    }

    fn reap(&mut self, ctx: &mut Context<'_>) {
        let now = ctx.now();
        let in_window = now <= self.shared.window_end.get();
        let mut i = 0;
        while i < self.inflight.len() {
            let (op, seq, at) = self.inflight[i];
            let Some(result) = self.client.take_result(op) else {
                i += 1;
                continue;
            };
            self.inflight.swap_remove(i);
            let n = &self.shared.appends_inflight;
            n.set(n.get() - 1);
            match result {
                AppendResult::Ok(ZlogOut::Pos(pos)) => {
                    self.ack(pos, seq, now);
                    if in_window {
                        self.acked_in_window += 1;
                        self.lat_us.push(now.since(at).as_micros());
                    }
                }
                other => {
                    self.failed += 1;
                    self.truth
                        .borrow_mut()
                        .violations
                        .push(format!("log {}: append {seq} failed: {other:?}", self.log));
                }
            }
            if self.running && in_window {
                self.submit(ctx);
            }
        }
        if !in_window {
            self.running = false;
        }
    }

    fn ack(&mut self, pos: u64, seq: u64, now: SimTime) {
        let mut t = self.truth.borrow_mut();
        let log = self.log;
        if t.acked.insert(pos, (seq, now)).is_some() {
            t.violations
                .push(format!("log {log}: position {pos} acked twice"));
        }
        if let Some(prev) = t.acked_seqs.insert(seq, pos) {
            t.violations
                .push(format!("log {log}: append {seq} acked at {prev} and {pos}"));
        }
        if t.filled.contains_key(&pos) {
            t.violations.push(format!(
                "log {log}: acked position {pos} was read as a fill"
            ));
        }
        if let Some((got, _)) = t.early.remove(&pos) {
            if got != seq {
                t.violations.push(format!(
                    "log {log}: reader saw append {got} at {pos}, ack says {seq}"
                ));
            }
        }
    }
}

impl ZlogDriver for Appender {
    fn zlog(&self) -> &ZlogClient {
        &self.client
    }
    fn zlog_mut(&mut self) -> &mut ZlogClient {
        &mut self.client
    }
}

impl Actor for Appender {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        let client = &mut self.client;
        self.clock.time(|| client.on_start(ctx));
    }

    fn on_message(&mut self, ctx: &mut Context<'_>, from: NodeId, msg: Box<dyn Any>) {
        let client = &mut self.client;
        self.clock.time(|| client.on_message(ctx, from, msg));
        self.reap(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, token: u64) {
        let client = &mut self.client;
        self.clock.time(|| client.on_timer(ctx, token));
        self.reap(ctx);
    }
}

enum Housekeeping {
    Checkpoint(u64),
    Trim,
}

/// Owns one tailing-reader `ZlogClient`.
pub struct Reader {
    client: ZlogClient,
    clock: Rc<HostClock>,
    log: u32,
    seed: u64,
    truth: Rc<RefCell<Truth>>,
    shared: Rc<Shared>,
    cursor: u64,
    /// Pending `next_batch` op, and whether it was asked after every
    /// appender went idle (an empty answer then means fully caught up).
    batch: Option<(u64, bool)>,
    house: Option<(u64, Housekeeping)>,
    next_pos: u64,
    since_trim: u64,
    caught_up: bool,
    attempted: u64,
    failed: u64,
    delivered_in_window: u64,
}

impl Reader {
    fn start(&mut self, ctx: &mut Context<'_>) {
        let client = &mut self.client;
        self.cursor = self.clock.time(|| client.tail_cursor(ctx));
        self.ask(ctx);
    }

    fn ask(&mut self, ctx: &mut Context<'_>) {
        let idle =
            self.shared.appends_inflight.get() == 0 && ctx.now() > self.shared.window_end.get();
        let (client, cursor) = (&mut self.client, self.cursor);
        let op = self
            .clock
            .time(|| client.cursor_next_batch(ctx, cursor, READAHEAD));
        self.attempted += 1;
        self.batch = Some((op, idle));
    }

    fn reap(&mut self, ctx: &mut Context<'_>) {
        if let Some((op, idle)) = self.batch {
            if let Some(result) = self.client.take_result(op) {
                self.batch = None;
                match result {
                    AppendResult::Ok(ZlogOut::CursorBatch(entries)) if entries.is_empty() => {
                        if idle {
                            self.caught_up = true;
                        } else {
                            ctx.set_timer(POLL, TOKEN_POLL);
                        }
                    }
                    AppendResult::Ok(ZlogOut::CursorBatch(entries)) => {
                        for (pos, outcome) in entries {
                            self.deliver(ctx.now(), pos, outcome);
                        }
                        self.ask(ctx);
                    }
                    other => {
                        self.failed += 1;
                        self.truth
                            .borrow_mut()
                            .violations
                            .push(format!("log {}: cursor batch failed: {other:?}", self.log));
                        ctx.set_timer(POLL, TOKEN_POLL);
                    }
                }
            }
        }
        if let Some((op, _)) = &self.house {
            if let Some(result) = self.client.take_result(*op) {
                let (_, step) = self.house.take().expect("checked above");
                match (step, result) {
                    (Housekeeping::Checkpoint(pos), AppendResult::Ok(ZlogOut::CheckpointAt(_))) => {
                        let client = &mut self.client;
                        let op = self.clock.time(|| client.trim_to(ctx, pos));
                        self.house = Some((op, Housekeeping::Trim));
                    }
                    (Housekeeping::Trim, AppendResult::Ok(ZlogOut::Done)) => {}
                    (_, other) => {
                        self.failed += 1;
                        self.truth.borrow_mut().violations.push(format!(
                            "log {}: checkpoint/trim failed: {other:?}",
                            self.log
                        ));
                    }
                }
            }
        }
        if self.house.is_none() && self.since_trim >= TRIM_EVERY {
            self.since_trim = 0;
            let pos = self.next_pos - TRIM_KEEP;
            let client = &mut self.client;
            let op = self
                .clock
                .time(|| client.checkpoint(ctx, pos, pos.to_string().into_bytes()));
            self.attempted += 2;
            self.house = Some((op, Housekeeping::Checkpoint(pos)));
        }
    }

    fn deliver(&mut self, now: SimTime, pos: u64, outcome: ReadOutcome) {
        let log = self.log;
        let in_window = now <= self.shared.window_end.get();
        let mut t = self.truth.borrow_mut();
        if pos != self.next_pos {
            t.violations.push(format!(
                "log {log}: reader got position {pos}, expected {}",
                self.next_pos
            ));
        }
        self.next_pos = pos + 1;
        self.since_trim += 1;
        match outcome {
            ReadOutcome::Data(data) => {
                let Some(seq) = payload_seq(self.seed, log, &data) else {
                    t.violations
                        .push(format!("log {log}: corrupt payload at {pos}"));
                    return;
                };
                if in_window {
                    self.delivered_in_window += 1;
                }
                match t.acked.get(&pos).copied() {
                    Some((acked, at)) => {
                        if acked != seq {
                            t.violations.push(format!(
                                "log {log}: reader saw append {seq} at {pos}, ack says {acked}"
                            ));
                        }
                        if in_window {
                            t.lag_us.push(now.since(at).as_micros());
                        }
                    }
                    None => {
                        // Delivered before its ack reached the appender:
                        // no lag; the seq is checked when the ack lands.
                        t.early.insert(pos, (seq, now));
                        if in_window {
                            t.lag_us.push(0);
                        }
                    }
                }
            }
            ReadOutcome::Filled => {
                if t.acked.contains_key(&pos) {
                    t.violations
                        .push(format!("log {log}: acked position {pos} read as a fill"));
                }
                t.filled.insert(pos, now);
            }
            other => t
                .violations
                .push(format!("log {log}: reader got {other:?} at {pos}")),
        }
    }
}

impl Actor for Reader {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        let client = &mut self.client;
        self.clock.time(|| client.on_start(ctx));
    }

    fn on_message(&mut self, ctx: &mut Context<'_>, from: NodeId, msg: Box<dyn Any>) {
        let client = &mut self.client;
        self.clock.time(|| client.on_message(ctx, from, msg));
        self.reap(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, token: u64) {
        if token == TOKEN_POLL {
            if self.batch.is_none() && !self.caught_up {
                self.ask(ctx);
            }
            return;
        }
        let client = &mut self.client;
        self.clock.time(|| client.on_timer(ctx, token));
        self.reap(ctx);
    }
}

fn appender_node(log: u32) -> NodeId {
    client_node(2 * log)
}

fn reader_node(log: u32) -> NodeId {
    client_node(2 * log + 1)
}

fn zcfg(log: u32) -> ZlogConfig {
    ZlogConfig {
        name: format!("stream{log}"),
        pool: POOL.to_string(),
        stripe_width: STRIPE_WIDTH,
        mds_nodes: HashMap::from([(0, mds_node(0))]),
        home_rank: 0,
        monitor: MON,
    }
}

/// Runs one repetition.
pub fn run(seed: u64, traced: bool, window: SimDuration) -> Run {
    let setup = std::time::Instant::now();
    let mut bench = Bench::assemble(
        seed,
        Shape {
            osds: 4,
            pool: POOL,
            pg_num: 32,
            replicas: 2,
            mds_ranks: 1,
            extra: vec![zlog_interface_update()],
        },
        traced,
    );
    let shared = Rc::new(Shared {
        appends_inflight: Cell::new(0),
        window_end: Cell::new(SimTime(u64::MAX)),
    });
    let mut truths = Vec::new();
    for log in 0..LOGS {
        let truth = Rc::new(RefCell::new(Truth::default()));
        truths.push(truth.clone());
        let appender = Appender {
            client: ZlogClient::with_batching(
                zcfg(log),
                BatchConfig {
                    queue_depth: DEPTH,
                    flush_window: SimDuration::from_millis(1),
                },
            ),
            clock: bench.clocks.zlog_client.clone(),
            log,
            seed,
            truth: truth.clone(),
            shared: shared.clone(),
            running: false,
            inflight: Vec::new(),
            next_seq: 0,
            attempted: 0,
            failed: 0,
            acked_in_window: 0,
            lat_us: Vec::new(),
        };
        bench.sim.add_node(appender_node(log), appender);
        let reader = Reader {
            client: ZlogClient::with_read_config(
                zcfg(log),
                ReadConfig {
                    readahead: READAHEAD,
                    ..ReadConfig::default()
                },
            ),
            clock: bench.clocks.zlog_client.clone(),
            log,
            seed,
            truth,
            shared: shared.clone(),
            cursor: 0,
            batch: None,
            house: None,
            next_pos: 0,
            since_trim: 0,
            caught_up: false,
            attempted: 0,
            failed: 0,
            delivered_in_window: 0,
        };
        bench.sim.add_node(reader_node(log), reader);
    }
    let mut violations = Vec::new();
    let appenders: Vec<NodeId> = (0..LOGS).map(appender_node).collect();
    cluster::create_logs::<Appender>(&mut bench.sim, &appenders, &mut violations);
    let setup_s = setup.elapsed().as_secs_f64();

    // Measured window.
    let t0 = bench.sim.now();
    let t1 = t0 + window;
    shared.window_end.set(t1);
    let before = cluster::counters(&bench.sim);
    let compactions_before = bench.journal_compactions();
    for log in 0..LOGS {
        bench
            .sim
            .with_actor::<Appender, _>(appender_node(log), |a, ctx| {
                a.running = true;
                for _ in 0..DEPTH {
                    a.submit(ctx);
                }
            });
        bench
            .sim
            .with_actor::<Reader, _>(reader_node(log), |r, ctx| r.start(ctx));
    }
    let measured = bench
        .measure(t1, |s| s.now() >= t1)
        .expect("the window always has events");
    let counters = cluster::delta(&before, &cluster::counters(&bench.sim));
    let mut layers = Layers {
        counters,
        journal_records: bench.journals_len(),
        journal_compactions: bench.journal_compactions() - compactions_before,
        stored_bytes: bench.stored_bytes(),
        spans: span_dists(&bench.sim, t0, t1),
        ..Layers::default()
    };
    bench.record_host(&mut layers);

    // Drain: appenders finish what is in flight, readers catch up.
    let deadline = t1 + SimDuration::from_secs(30);
    let drained = cluster::drive(&mut bench.sim, deadline, |s| {
        (0..LOGS).all(|log| s.actor::<Reader>(reader_node(log)).caught_up)
    });
    if let Err(e) = drained {
        violations.push(format!("drain: {e}"));
    }

    let (mut attempted, mut failed, mut ops) = (0, 0, 0);
    let (mut write_us, mut lag_us) = (Vec::new(), Vec::new());
    for log in 0..LOGS {
        let a = bench.sim.actor::<Appender>(appender_node(log));
        let r = bench.sim.actor::<Reader>(reader_node(log));
        attempted += a.attempted + r.attempted;
        failed += a.failed + r.failed;
        ops += a.acked_in_window + r.delivered_in_window;
        layers.appends += a.acked_in_window;
        layers.entries_read += r.delivered_in_window;
        write_us.extend_from_slice(&a.lat_us);
        let t = truths[log as usize].borrow();
        lag_us.extend_from_slice(&t.lag_us);
        violations.extend(t.violations.iter().cloned());
        check_dense(log, r.next_pos, &t, &mut violations);
    }
    layers.user_bytes = layers.appends * ENTRY_BYTES as u64;
    let write = Dist::new(write_us);
    let lag = Dist::new(lag_us);
    let sim = vec![
        SimStat::value("sim_ops_per_s", "ops/s", ops as f64 / window.as_secs_f64()),
        SimStat::pct_ms("sim_write_p50_ms", &write, 50, &mut violations),
        SimStat::pct_ms("sim_write_p99_ms", &write, 99, &mut violations),
        SimStat::pct_ms("sim_tail_lag_p50_ms", &lag, 50, &mut violations),
        SimStat::pct_ms("sim_tail_lag_p99_ms", &lag, 99, &mut violations),
    ];
    Run {
        setup_s,
        measured,
        ops,
        attempted,
        failed,
        sim,
        violations,
        layers,
    }
}

/// Every position below the reader's end was delivered exactly once, in
/// order, as an acked append or a junk fill; every acked position was
/// delivered.
fn check_dense(log: u32, end: u64, t: &Truth, violations: &mut Vec<String>) {
    if !t.early.is_empty() {
        violations.push(format!(
            "log {log}: {} delivered entries were never acked",
            t.early.len()
        ));
    }
    let covered = t.acked.len() as u64 + t.filled.len() as u64;
    if covered != end {
        violations.push(format!(
            "log {log}: {} acked + {} filled positions, reader reached {end}",
            t.acked.len(),
            t.filled.len()
        ));
    }
    if let Some(max) = t.acked.keys().max() {
        if *max >= end {
            violations.push(format!("log {log}: acked position {max} never delivered"));
        }
    }
}
