//! `rados_rebalance`: closed-loop native RADOS I/O through an OSD join
//! and a drain.
//!
//! 4 OSDs and a 64-PG × 2-replica pool. 8 `RadosClient`s, one op in
//! flight each, own 128 objects apiece, preloaded at 8 KiB. 70% of ops are
//! 512 B writes at random 512-aligned offsets, 30% are 512 B reads, each
//! checked against the client's shadow copy. A fifth OSD joins at a third
//! of the window and osd0 is drained at two thirds; after the window every
//! object is read back in full and compared.

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::rc::Rc;

use mala_rados::{ObjectId, Op, OpResult, OsdMapView, RadosClient};
use mala_sim::{Actor, Context, NodeId, Sim, SimDuration, SimTime};

use crate::cluster::{self, client_node, osd_node, Bench, Measured, Shape, MON};
use crate::run::{span_dists, Layers, Rng, Run, SimStat};
use crate::stats::Dist;
use crate::timed::{HostClock, Timed};

const CLIENTS: u32 = 8;
const OBJECTS_PER_CLIENT: usize = 128;
const OBJECT_BYTES: usize = 8192;
const IO_BYTES: usize = 512;
const WRITE_PERCENT: u64 = 70;
const POOL: &str = "data";
/// Measured window of simulated time.
pub const WINDOW: SimDuration = SimDuration(3_000_000);

enum Pending {
    Preload {
        obj: usize,
        data: Vec<u8>,
    },
    Write {
        obj: usize,
        off: usize,
        data: Vec<u8>,
    },
    Read {
        obj: usize,
        off: usize,
    },
    ReadBack {
        obj: usize,
    },
}

struct Shared {
    /// Ops in flight over all clients.
    inflight: Cell<u64>,
    /// End of the measured window.
    window_end: Cell<SimTime>,
}

/// Owns one `RadosClient` and its objects' shadow copies.
pub struct Client {
    client: RadosClient,
    clock: Rc<HostClock>,
    id: u32,
    rng: Rng,
    shared: Rc<Shared>,
    objects: Vec<ObjectId>,
    shadow: Vec<Vec<u8>>,
    /// Objects whose content is unknown after a failed write.
    poisoned: Vec<bool>,
    /// Scripted ops (preload, read-back) run before random ones.
    script: VecDeque<Pending>,
    running: bool,
    pending: Option<(u64, Pending, SimTime)>,
    attempted: u64,
    failed: u64,
    ops_in_window: u64,
    write_us: Vec<u64>,
    read_us: Vec<u64>,
    violations: Vec<String>,
}

impl Client {
    fn next(&mut self, ctx: &mut Context<'_>) {
        let in_window = ctx.now() <= self.shared.window_end.get();
        let op = match self.script.pop_front() {
            Some(op) => op,
            None if self.running && in_window => {
                let obj = self.rng.below(OBJECTS_PER_CLIENT as u64) as usize;
                let off = IO_BYTES * self.rng.below((OBJECT_BYTES / IO_BYTES) as u64) as usize;
                if self.rng.below(100) < WRITE_PERCENT {
                    Pending::Write {
                        obj,
                        off,
                        data: self.rng.bytes(IO_BYTES),
                    }
                } else {
                    Pending::Read { obj, off }
                }
            }
            None => {
                self.running = false;
                return;
            }
        };
        let (obj, txn) = match &op {
            Pending::Preload { obj, data } => (*obj, vec![Op::WriteFull { data: data.clone() }]),
            Pending::Write { obj, off, data } => (
                *obj,
                vec![Op::Write {
                    offset: *off,
                    data: data.clone(),
                }],
            ),
            Pending::Read { obj, off } => (
                *obj,
                vec![Op::Read {
                    offset: *off,
                    len: IO_BYTES,
                }],
            ),
            Pending::ReadBack { obj } => (
                *obj,
                vec![Op::Read {
                    offset: 0,
                    len: OBJECT_BYTES,
                }],
            ),
        };
        let oid = self.objects[obj].clone();
        let client = &mut self.client;
        let reqid = self.clock.time(|| client.submit(ctx, oid, txn));
        self.pending = Some((reqid, op, ctx.now()));
        self.attempted += 1;
        let n = &self.shared.inflight;
        n.set(n.get() + 1);
    }

    fn reap(&mut self, ctx: &mut Context<'_>) {
        let Some((reqid, _, _)) = &self.pending else {
            return;
        };
        let Some(event) = self.client.take_completed(*reqid) else {
            return;
        };
        let (_, op, at) = self.pending.take().expect("checked above");
        let n = &self.shared.inflight;
        n.set(n.get() - 1);
        let now = ctx.now();
        let lat = now.since(at).as_micros();
        let in_window = now <= self.shared.window_end.get();
        let id = self.id;
        match (op, event.result) {
            (op, Err(e)) => {
                self.failed += 1;
                self.violations
                    .push(format!("client {id}: op failed: {e:?}"));
                if let Pending::Write { obj, .. } | Pending::Preload { obj, .. } = op {
                    self.poisoned[obj] = true;
                }
            }
            (Pending::Preload { obj, data }, Ok(_)) => self.shadow[obj] = data,
            (Pending::Write { obj, off, data }, Ok(_)) => {
                if !self.poisoned[obj] {
                    self.shadow[obj][off..off + IO_BYTES].copy_from_slice(&data);
                }
                if in_window && self.running {
                    self.ops_in_window += 1;
                    self.write_us.push(lat);
                }
            }
            (Pending::Read { obj, off }, Ok(out)) => {
                self.check(obj, off, IO_BYTES, &out);
                if in_window && self.running {
                    self.ops_in_window += 1;
                    self.read_us.push(lat);
                }
            }
            (Pending::ReadBack { obj }, Ok(out)) => self.check(obj, 0, OBJECT_BYTES, &out),
        }
        self.next(ctx);
    }

    fn check(&mut self, obj: usize, off: usize, len: usize, out: &[OpResult]) {
        if self.poisoned[obj] {
            return;
        }
        let want = &self.shadow[obj][off..off + len];
        if !matches!(out, [OpResult::Data(got)] if got.as_slice() == want) {
            self.violations.push(format!(
                "client {}: {} bytes at {off} of {} differ from the shadow copy",
                self.id, len, self.objects[obj].name
            ));
        }
    }

    fn run_script(&mut self, ctx: &mut Context<'_>, script: VecDeque<Pending>) {
        self.script = script;
        self.next(ctx);
    }
}

impl Actor for Client {
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

/// Times each rebalance from the monitor's commit of the map change to
/// the last PG backfill it caused.
#[derive(Default)]
struct Watch {
    state: WatchState,
    done_ms: Vec<f64>,
}

#[derive(Default)]
enum WatchState {
    #[default]
    Idle,
    Commit {
        before: u64,
    },
    Backfill {
        commit: SimTime,
        epoch: u64,
        last: SimTime,
        ended: u64,
    },
}

fn backfills_ended(sim: &Sim) -> u64 {
    let m = sim.metrics();
    m.counter("osd.backfills_completed")
        + m.counter("osd.backfill_aborted")
        + m.counter("osd.backfill_dropped")
}

impl Watch {
    fn arm(&mut self, sim: &Sim) -> Result<(), String> {
        if !matches!(self.state, WatchState::Idle) {
            return Err("a rebalance was still running at the next map change".into());
        }
        self.state = WatchState::Commit {
            before: Bench::osdmap_epoch(sim),
        };
        Ok(())
    }

    fn idle(&self) -> bool {
        matches!(self.state, WatchState::Idle)
    }

    fn poll(&mut self, sim: &Sim, osds: u32) {
        match &mut self.state {
            WatchState::Idle => {}
            WatchState::Commit { before } => {
                let epoch = Bench::osdmap_epoch(sim);
                if epoch > *before {
                    self.state = WatchState::Backfill {
                        commit: sim.now(),
                        epoch,
                        last: sim.now(),
                        ended: backfills_ended(sim),
                    };
                }
            }
            WatchState::Backfill {
                commit,
                epoch,
                last,
                ended,
            } => {
                let now_ended = backfills_ended(sim);
                if now_ended != *ended {
                    *ended = now_ended;
                    *last = sim.now();
                }
                let quiet = sim.metrics().counter("osd.backfills_started") == now_ended;
                if quiet
                    && (0..osds).all(|i| {
                        sim.actor::<Timed<mala_rados::Osd>>(osd_node(i))
                            .inner
                            .map_epoch()
                            >= *epoch
                    })
                {
                    self.done_ms.push(last.since(*commit).as_millis_f64());
                    self.state = WatchState::Idle;
                }
            }
        }
    }
}

fn idle(shared: &Shared) -> impl Fn(&Sim) -> bool + '_ {
    move |_| shared.inflight.get() == 0
}

/// Runs one repetition.
pub fn run(seed: u64, traced: bool, window: SimDuration) -> Run {
    let setup = std::time::Instant::now();
    let mut bench = Bench::assemble(
        seed,
        Shape {
            osds: 4,
            pool: POOL,
            pg_num: 64,
            replicas: 2,
            mds_ranks: 0,
            extra: Vec::new(),
        },
        traced,
    );
    let shared = Rc::new(Shared {
        inflight: Cell::new(0),
        window_end: Cell::new(SimTime(u64::MAX)),
    });
    for id in 0..CLIENTS {
        let client = Client {
            client: RadosClient::new(MON),
            clock: bench.clocks.rados_client.clone(),
            id,
            rng: Rng::new(seed, u64::from(id)),
            shared: shared.clone(),
            objects: (0..OBJECTS_PER_CLIENT)
                .map(|i| ObjectId::new(POOL, format!("c{id}.obj{i}")))
                .collect(),
            shadow: vec![Vec::new(); OBJECTS_PER_CLIENT],
            poisoned: vec![false; OBJECTS_PER_CLIENT],
            script: VecDeque::new(),
            running: false,
            pending: None,
            attempted: 0,
            failed: 0,
            ops_in_window: 0,
            write_us: Vec::new(),
            read_us: Vec::new(),
            violations: Vec::new(),
        };
        bench.sim.add_node(client_node(id), client);
    }
    let mut violations = Vec::new();
    for id in 0..CLIENTS {
        bench
            .sim
            .with_actor::<Client, _>(client_node(id), |c, ctx| {
                let script = (0..OBJECTS_PER_CLIENT)
                    .map(|obj| Pending::Preload {
                        obj,
                        data: c.rng.bytes(OBJECT_BYTES),
                    })
                    .collect();
                c.run_script(ctx, script);
            });
    }
    let deadline = bench.sim.now() + SimDuration::from_secs(60);
    if let Err(e) = cluster::drive(&mut bench.sim, deadline, idle(&shared)) {
        violations.push(format!("preload: {e}"));
    }
    let setup_s = setup.elapsed().as_secs_f64();

    // Measured window: a join at 1/3, a drain of osd0 at 2/3.
    let t0 = bench.sim.now();
    let t1 = t0 + window;
    shared.window_end.set(t1);
    let before = cluster::counters(&bench.sim);
    let compactions_before = bench.journal_compactions();
    for id in 0..CLIENTS {
        bench
            .sim
            .with_actor::<Client, _>(client_node(id), |c, ctx| {
                c.running = true;
                c.next(ctx);
            });
    }
    let mut watch = Watch::default();
    let mut measured = Measured {
        host_s: 0.0,
        events: 0,
    };
    for (k, stop) in [
        (1, t0 + window.div(3)),
        (2, t0 + window.div(3).mul(2)),
        (3, t1),
    ] {
        let osds = bench.osds;
        let seg = bench
            .measure(stop, |s| {
                watch.poll(s, osds);
                s.now() >= stop
            })
            .expect("the window always has events");
        measured.host_s += seg.host_s;
        measured.events += seg.events;
        let update = match k {
            1 => bench.spawn_osd(),
            2 => OsdMapView::update_osd_weighted(0, osd_node(0), true, 0),
            _ => break,
        };
        if let Err(e) = watch.arm(&bench.sim) {
            violations.push(e);
        }
        bench.submit(k + 1, vec![update]);
    }
    let counters = cluster::delta(&before, &cluster::counters(&bench.sim));
    let mut layers = Layers {
        counters,
        journal_records: bench.journals_len(),
        journal_compactions: bench.journal_compactions() - compactions_before,
        stored_bytes: bench.stored_bytes(),
        user_bytes: (CLIENTS as usize * OBJECTS_PER_CLIENT * OBJECT_BYTES) as u64,
        spans: span_dists(&bench.sim, t0, t1),
        ..Layers::default()
    };
    bench.record_host(&mut layers);

    // Finish in-flight ops and the drain's backfills, then read back
    // every object in full.
    let deadline = t1 + SimDuration::from_secs(30);
    let osds = bench.osds;
    let settled = cluster::drive(&mut bench.sim, deadline, |s| {
        watch.poll(s, osds);
        watch.idle() && shared.inflight.get() == 0
    });
    if let Err(e) = settled {
        violations.push(format!("rebalance did not finish: {e}"));
    }
    for id in 0..CLIENTS {
        bench
            .sim
            .with_actor::<Client, _>(client_node(id), |c, ctx| {
                let script = (0..OBJECTS_PER_CLIENT)
                    .map(|obj| Pending::ReadBack { obj })
                    .collect();
                c.run_script(ctx, script);
            });
    }
    let deadline = bench.sim.now() + SimDuration::from_secs(60);
    if let Err(e) = cluster::drive(&mut bench.sim, deadline, idle(&shared)) {
        violations.push(format!("read-back: {e}"));
    }
    let (mut attempted, mut failed, mut ops) = (0, 0, 0);
    let (mut write_us, mut read_us) = (Vec::new(), Vec::new());
    for id in 0..CLIENTS {
        let c = bench.sim.actor::<Client>(client_node(id));
        attempted += c.attempted;
        failed += c.failed;
        ops += c.ops_in_window;
        write_us.extend_from_slice(&c.write_us);
        read_us.extend_from_slice(&c.read_us);
        violations.extend(c.violations.iter().cloned());
    }
    if watch.done_ms.len() != 2 {
        violations.push(format!(
            "expected 2 timed rebalances, got {}",
            watch.done_ms.len()
        ));
    }
    let write = Dist::new(write_us);
    let read = Dist::new(read_us);
    let sim = vec![
        SimStat::value("sim_ops_per_s", "ops/s", ops as f64 / window.as_secs_f64()),
        SimStat::pct_ms("sim_write_p50_ms", &write, 50, &mut violations),
        SimStat::pct_ms("sim_write_p99_ms", &write, 99, &mut violations),
        SimStat::pct_ms("sim_read_p50_ms", &read, 50, &mut violations),
        SimStat::pct_ms("sim_read_p99_ms", &read, 99, &mut violations),
        SimStat::value("sim_rebalance_ms", "ms", watch.done_ms.iter().sum()),
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
