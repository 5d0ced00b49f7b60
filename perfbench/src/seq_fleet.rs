//! `seq_fleet`: open-loop appends from many independent logs, with MDS
//! sequencer queueing setting latency end to end.
//!
//! 4 OSDs (a 32-PG × 2-replica pool) and 4 MDS ranks. 64 logs of stripe
//! width 2, one `ZlogClient` each, created on rank 0 and exported round
//! robin (`AdminExport`, Direct) at set-up. Arrivals are Poisson at the
//! offered rate, each choosing a log by Zipf(0.6); every arrival is a plain
//! `append` of a 64 B entry, so each costs one sequencer grant and one
//! stripe write. The offered rate climbs a three-step ladder.
//!
//! Not listed in `BENCHMARK.json`: with 64 clients per OSD the journal's
//! compaction refolds the whole journal on every append, and one
//! repetition takes minutes of host time (`METRICS.md`). It is kept,
//! runnable by name, as the harness that measures that defect and the
//! fix that will let it back into the benchmark.

use std::any::Any;
use std::collections::HashMap;
use std::rc::Rc;

use mala_mds::{MdsMsg, ServeStyle};
use mala_sim::{Actor, Context, NodeId, SimDuration, SimTime};
use mala_zlog::log::ZlogOut;
use mala_zlog::{zlog_interface_update, AppendResult, ZlogClient, ZlogConfig};

use crate::cluster::{self, client_node, mds_node, Bench, Shape, ZlogDriver, MON};
use crate::run::{payload, span_dists, Layers, Rng, Run, SimStat};
use crate::stats::Dist;
use crate::timed::HostClock;

const LOGS: u32 = 64;
const RANKS: u32 = 4;
const STRIPE_WIDTH: u32 = 2;
const ENTRY_BYTES: usize = 64;
const ZIPF_S: f64 = 0.6;
const POOL: &str = "fleetpool";
/// Offered appends per simulated second, lowest step first.
const LADDER: [f64; 3] = [4000.0, 7000.0, 10000.0];
/// The step whose latencies are reported.
const REPORTED_STEP: usize = 1;
/// Simulated time each step offers load for.
pub const STEP: SimDuration = SimDuration(1_000_000);
/// Append p99 a step must meet to count as sustained.
const P99_LIMIT_US: u64 = 5_000;
/// Driver timer band, clear of the client's tokens (1, 2^32.., 2^40..,
/// 2^48..).
const TOKEN_ARRIVAL: u64 = 1 << 16;

/// Owns one log's `ZlogClient` and its share of the arrival process.
pub struct FleetClient {
    client: ZlogClient,
    clock: Rc<HostClock>,
    log: u32,
    seed: u64,
    rng: Rng,
    /// Zipf share of the offered rate.
    share: f64,
    /// Current step, its offered rate (appends/s over all logs) and end.
    step: usize,
    rate: f64,
    step_end: SimTime,
    /// Due time of the armed arrival.
    due: Option<SimTime>,
    /// (op, due time, step).
    inflight: Vec<(u64, SimTime, usize)>,
    next_seq: u64,
    positions: Vec<u64>,
    late: u64,
    attempted: u64,
    failed: u64,
    violations: Vec<String>,
    /// Per step: append latencies from the due time (µs).
    lat_us: [Vec<u64>; 3],
}

impl FleetClient {
    /// Starts step `step`: arrivals at this log's share of `rate` until
    /// `end`.
    fn begin_step(&mut self, ctx: &mut Context<'_>, step: usize, end: SimTime) {
        self.step = step;
        self.rate = LADDER[step];
        self.step_end = end;
        self.arm(ctx);
    }

    fn arm(&mut self, ctx: &mut Context<'_>) {
        let mean_us = 1e6 / (self.rate * self.share);
        let gap = SimDuration::from_micros(self.rng.exp(mean_us).round() as u64);
        let due = ctx.now() + gap;
        if due < self.step_end {
            ctx.set_timer(gap, TOKEN_ARRIVAL);
            self.due = Some(due);
        } else {
            self.due = None;
        }
    }

    fn arrive(&mut self, ctx: &mut Context<'_>) {
        let Some(due) = self.due.take() else {
            return;
        };
        if ctx.now() != due {
            self.late += 1;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        let data = payload(self.seed, self.log, seq, ENTRY_BYTES);
        let client = &mut self.client;
        let op = self.clock.time(|| client.append(ctx, data));
        self.inflight.push((op, due, self.step));
        self.attempted += 1;
        self.arm(ctx);
    }

    fn reap(&mut self, ctx: &mut Context<'_>) {
        let mut i = 0;
        while i < self.inflight.len() {
            let (op, due, step) = self.inflight[i];
            let Some(result) = self.client.take_result(op) else {
                i += 1;
                continue;
            };
            self.inflight.swap_remove(i);
            match result {
                AppendResult::Ok(ZlogOut::Pos(pos)) => {
                    self.positions.push(pos);
                    self.lat_us[step].push(ctx.now().since(due).as_micros());
                }
                other => {
                    self.failed += 1;
                    self.violations
                        .push(format!("log {}: append failed: {other:?}", self.log));
                }
            }
        }
    }
}

impl ZlogDriver for FleetClient {
    fn zlog(&self) -> &ZlogClient {
        &self.client
    }
    fn zlog_mut(&mut self) -> &mut ZlogClient {
        &mut self.client
    }
}

impl Actor for FleetClient {
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
        if token == TOKEN_ARRIVAL {
            self.arrive(ctx);
            return;
        }
        let client = &mut self.client;
        self.clock.time(|| client.on_timer(ctx, token));
        self.reap(ctx);
    }
}

/// Runs one repetition; `step` is the simulated time of each ladder
/// step.
pub fn run(seed: u64, traced: bool, step: SimDuration) -> Run {
    let setup = std::time::Instant::now();
    let mut bench = Bench::assemble(
        seed,
        Shape {
            osds: 4,
            pool: POOL,
            pg_num: 32,
            replicas: 2,
            mds_ranks: RANKS,
            extra: vec![zlog_interface_update()],
        },
        traced,
    );
    let weights: Vec<f64> = (0..LOGS)
        .map(|k| 1.0 / f64::from(k + 1).powf(ZIPF_S))
        .collect();
    let total: f64 = weights.iter().sum();
    let mds_nodes: HashMap<u32, NodeId> = (0..RANKS).map(|r| (r, mds_node(r))).collect();
    for log in 0..LOGS {
        let client = FleetClient {
            client: ZlogClient::new(ZlogConfig {
                name: format!("fleet{log}"),
                pool: POOL.to_string(),
                stripe_width: STRIPE_WIDTH,
                mds_nodes: mds_nodes.clone(),
                home_rank: 0,
                monitor: MON,
            }),
            clock: bench.clocks.zlog_client.clone(),
            log,
            seed,
            rng: Rng::new(seed, u64::from(log)),
            share: weights[log as usize] / total,
            step: 0,
            rate: 0.0,
            step_end: SimTime::ZERO,
            due: None,
            inflight: Vec::new(),
            next_seq: 0,
            positions: Vec::new(),
            late: 0,
            attempted: 0,
            failed: 0,
            violations: Vec::new(),
            lat_us: Default::default(),
        };
        bench.sim.add_node(client_node(log), client);
    }
    let mut violations = Vec::new();
    // Create every sequencer on rank 0, then export them round robin.
    let nodes: Vec<NodeId> = (0..LOGS).map(client_node).collect();
    let inos = cluster::create_logs::<FleetClient>(&mut bench.sim, &nodes, &mut violations);
    for (log, ino) in (0..LOGS).zip(inos) {
        if let (Some(ino), target @ 1..) = (ino, log % RANKS) {
            bench.sim.inject(
                mds_node(0),
                MdsMsg::AdminExport {
                    ino,
                    target,
                    style: ServeStyle::Direct,
                },
            );
        }
    }
    bench.sim.run_for(SimDuration::from_millis(1500));
    let setup_s = setup.elapsed().as_secs_f64();

    // The ladder.
    let t0 = bench.sim.now();
    let before = cluster::counters(&bench.sim);
    let compactions_before = bench.journal_compactions();
    let mut measured = cluster::Measured {
        host_s: 0.0,
        events: 0,
    };
    let mut backlog = [0u64; 3];
    for (k, _) in LADDER.iter().enumerate() {
        let end = bench.sim.now() + step;
        for log in 0..LOGS {
            bench
                .sim
                .with_actor::<FleetClient, _>(client_node(log), |c, ctx| c.begin_step(ctx, k, end));
        }
        let seg = bench
            .measure(end, |s| s.now() >= end)
            .expect("the ladder always has events");
        measured.host_s += seg.host_s;
        measured.events += seg.events;
        backlog[k] = (0..LOGS)
            .map(|log| {
                bench
                    .sim
                    .actor::<FleetClient>(client_node(log))
                    .inflight
                    .len() as u64
            })
            .sum();
    }
    let t1 = bench.sim.now();
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

    // Drain what is still in flight.
    let deadline = t1 + SimDuration::from_secs(60);
    let drained = cluster::drive(&mut bench.sim, deadline, |s| {
        (0..LOGS).all(|log| s.actor::<FleetClient>(client_node(log)).inflight.is_empty())
    });
    if let Err(e) = drained {
        violations.push(format!("drain: {e}"));
    }

    let (mut attempted, mut failed, mut late) = (0, 0, 0);
    let mut steps: [Vec<u64>; 3] = Default::default();
    for log in 0..LOGS {
        let c = bench.sim.actor::<FleetClient>(client_node(log));
        attempted += c.attempted;
        failed += c.failed;
        late += c.late;
        for (k, lat) in c.lat_us.iter().enumerate() {
            steps[k].extend_from_slice(lat);
        }
        violations.extend(c.violations.iter().cloned());
        let mut pos = c.positions.clone();
        pos.sort_unstable();
        if pos.iter().enumerate().any(|(i, p)| *p != i as u64) {
            violations.push(format!(
                "log {log}: {} acked positions are not exactly 0..{}",
                pos.len(),
                pos.len()
            ));
        }
    }
    if late > 0 {
        violations.push(format!("{late} arrivals fired after their due time"));
    }
    let ops: u64 = steps.iter().map(|s| s.len() as u64).sum();
    layers.appends = ops;
    layers.user_bytes = ops * ENTRY_BYTES as u64;
    let dists: Vec<Dist> = steps.into_iter().map(Dist::new).collect();
    // A step is sustained when its p99 meets the limit and no more ops
    // are left in flight at its end than the limit allows by Little's
    // law (rate × limit).
    let max_ok = (0..LADDER.len())
        .filter(|&k| {
            let limit_inflight = LADDER[k] * P99_LIMIT_US as f64 / 1e6;
            dists[k]
                .supported(99)
                .is_some_and(|p99| p99 <= P99_LIMIT_US)
                && backlog[k] as f64 <= limit_inflight
        })
        .map(|k| LADDER[k])
        .fold(0.0, f64::max);
    let mid = &dists[REPORTED_STEP];
    let sim = vec![
        SimStat::value(
            "sim_ops_per_s",
            "ops/s",
            mid.len() as f64 / step.as_secs_f64(),
        ),
        SimStat::pct_ms("sim_write_p50_ms", mid, 50, &mut violations),
        SimStat::pct_ms("sim_write_p99_ms", mid, 99, &mut violations),
        SimStat::value("sim_max_ok_rate", "ops/s", max_ok),
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
