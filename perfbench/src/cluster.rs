//! Cluster assembly for the benchmark, with every daemon behind a
//! [`Timed`] adapter, and the loop that drives the simulation.
//!
//! Node ids follow the repository's layout: monitor `0`, OSDs `10..`, MDS
//! ranks `1000..`, clients `2000..`.

use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::{Duration, Instant};

use mala_consensus::{MapUpdate, MonConfig, MonMsg, Monitor, SERVICE_MAP_OSD};
use mala_mds::server::Mds;
use mala_mds::{Ino, MdsConfig, MdsMapView, NoBalancer};
use mala_rados::{JournalSet, Osd, OsdConfig, OsdMapView, PoolInfo};
use mala_sim::{Actor, NetConfig, Network, NodeId, Sim, SimDuration, SimTime};
use mala_zlog::log::ZlogOut;
use mala_zlog::{AppendResult, ZlogClient};

use crate::run::Layers;
use crate::timed::{HostClock, Timed};

/// The monitor's node.
pub const MON: NodeId = NodeId(0);

/// Node of OSD `i`.
pub fn osd_node(i: u32) -> NodeId {
    NodeId(10 + i)
}

/// Node of MDS rank `r`.
pub fn mds_node(r: u32) -> NodeId {
    NodeId(1000 + r)
}

/// Node of client `i`.
pub fn client_node(i: u32) -> NodeId {
    NodeId(2000 + i)
}

/// One host clock per timed layer. The clocks run only inside
/// [`Bench::measure`], so they charge nothing outside the host time of
/// the measured phase.
pub struct Clocks {
    pub mon: Rc<HostClock>,
    pub osd: Rc<HostClock>,
    pub mds: Rc<HostClock>,
    /// Driver time inside `RadosClient` calls.
    pub rados_client: Rc<HostClock>,
    /// Driver time inside `ZlogClient` calls.
    pub zlog_client: Rc<HostClock>,
    /// Whether the clocks run in the measured phase.
    traced: bool,
}

impl Clocks {
    fn new(traced: bool) -> Clocks {
        Clocks {
            mon: HostClock::shared(false),
            osd: HostClock::shared(false),
            mds: HostClock::shared(false),
            rados_client: HostClock::shared(false),
            zlog_client: HostClock::shared(false),
            traced,
        }
    }

    fn all(&self) -> [&Rc<HostClock>; 5] {
        [
            &self.mon,
            &self.osd,
            &self.mds,
            &self.rados_client,
            &self.zlog_client,
        ]
    }

    /// Host nanoseconds charged to adapters and client calls.
    pub fn charged_ns(&self) -> u64 {
        self.all().iter().map(|c| c.ns()).sum()
    }
}

/// Shape of the cluster a workload runs on.
pub struct Shape {
    pub osds: u32,
    pub pool: &'static str,
    pub pg_num: u32,
    pub replicas: u32,
    pub mds_ranks: u32,
    /// Extra map updates committed with the bootstrap maps.
    pub extra: Vec<MapUpdate>,
}

/// An assembled, settled cluster.
pub struct Bench {
    pub sim: Sim,
    pub clocks: Clocks,
    journals: JournalSet,
    pub osds: u32,
}

impl Bench {
    /// Assembles the cluster with the default network model and a
    /// journal on every OSD, commits the bootstrap maps and lets them
    /// settle. With `traced` the adapters time callbacks and the tracer
    /// records spans; otherwise both are off.
    pub fn assemble(seed: u64, shape: Shape, traced: bool) -> Bench {
        let mut sim = Sim::with_network(seed, Network::new(NetConfig::default()));
        sim.tracer_mut().set_enabled(traced);
        let clocks = Clocks::new(traced);
        sim.add_node(
            MON,
            Timed::new(
                Monitor::new(0, vec![MON], MonConfig::default()),
                clocks.mon.clone(),
            ),
        );
        let journals = JournalSet::new();
        let mut bench = Bench {
            sim,
            clocks,
            journals,
            osds: 0,
        };
        let mut updates = vec![OsdMapView::update_pool(
            shape.pool,
            PoolInfo {
                pg_num: shape.pg_num,
                replicas: shape.replicas,
            },
        )];
        for _ in 0..shape.osds {
            updates.push(bench.spawn_osd());
        }
        for rank in 0..shape.mds_ranks {
            let mds = Mds::new(rank, MON, MdsConfig::default(), Box::new(NoBalancer));
            bench
                .sim
                .add_node(mds_node(rank), Timed::new(mds, bench.clocks.mds.clone()));
            updates.push(MdsMapView::update_rank(rank, mds_node(rank), true));
        }
        updates.extend(shape.extra);
        bench.sim.inject(MON, MonMsg::Submit { seq: 1, updates });
        bench.sim.run_for(SimDuration::from_secs(3));
        bench
    }

    /// Starts the next OSD (journaled, timed) and returns the osdmap
    /// update admitting it at full weight.
    pub fn spawn_osd(&mut self) -> MapUpdate {
        let i = self.osds;
        self.osds += 1;
        let node = osd_node(i);
        let osd = Osd::with_journal(i, MON, OsdConfig::default(), self.journals.journal(node));
        self.sim
            .add_node(node, Timed::new(osd, self.clocks.osd.clone()));
        OsdMapView::update_osd_weighted(i, node, true, mala_rados::WEIGHT_UNIT)
    }

    /// Steps the simulation until `done` holds, as [`measure`], with the
    /// layer clocks running when traced.
    pub fn measure(
        &mut self,
        deadline: SimTime,
        done: impl FnMut(&Sim) -> bool,
    ) -> Result<Measured, String> {
        let clocks = &self.clocks;
        clocks.all().iter().for_each(|c| c.set_on(clocks.traced));
        let out = measure(&mut self.sim, deadline, done);
        clocks.all().iter().for_each(|c| c.set_on(false));
        out
    }

    /// Submits map updates to the monitor without waiting for the commit.
    pub fn submit(&mut self, seq: u64, updates: Vec<MapUpdate>) {
        self.sim.inject(MON, MonMsg::Submit { seq, updates });
    }

    /// Typed access to OSD `i`.
    pub fn osd(&self, i: u32) -> &Osd {
        &self.sim.actor::<Timed<Osd>>(osd_node(i)).inner
    }

    /// Σ `Journal::len` over the OSDs.
    pub fn journals_len(&self) -> u64 {
        (0..self.osds)
            .filter_map(|i| self.osd(i).journal().map(|j| j.len() as u64))
            .sum()
    }

    /// Σ `Journal::compactions` over the OSDs.
    pub fn journal_compactions(&self) -> u64 {
        (0..self.osds)
            .filter_map(|i| self.osd(i).journal().map(|j| j.compactions()))
            .sum()
    }

    /// Bytes (data, omap and xattrs) held by every OSD store.
    pub fn stored_bytes(&self) -> u64 {
        (0..self.osds)
            .flat_map(|i| self.osd(i).store().values())
            .map(|o| {
                let kv = |m: &BTreeMap<String, Vec<u8>>| -> usize {
                    m.iter().map(|(k, v)| k.len() + v.len()).sum()
                };
                (o.data.len() + kv(&o.omap) + kv(&o.xattrs)) as u64
            })
            .sum()
    }

    /// Copies the layer clocks, which ran only in [`Bench::measure`],
    /// into `layers`.
    pub fn record_host(&self, layers: &mut Layers) {
        let c = &self.clocks;
        layers.host_ns = BTreeMap::from([
            ("consensus", c.mon.ns()),
            ("rados.osd", c.osd.ns()),
            ("rados.client", c.rados_client.ns()),
            ("mds", c.mds.ns()),
            ("zlog.client", c.zlog_client.ns()),
            ("charged", c.charged_ns()),
        ]);
    }

    /// The monitor's committed osdmap epoch.
    pub fn osdmap_epoch(sim: &Sim) -> u64 {
        sim.actor::<Timed<Monitor>>(MON)
            .inner
            .map(SERVICE_MAP_OSD)
            .map_or(0, |m| m.epoch)
    }
}

/// A driver actor that owns a `ZlogClient`.
pub trait ZlogDriver: Actor {
    fn zlog(&self) -> &ZlogClient;
    fn zlog_mut(&mut self) -> &mut ZlogClient;
}

/// Creates the namespace entry and sequencer of every log whose driver
/// sits at one of `nodes`, all at once, and returns each sequencer inode
/// (`None` after a failure, which is recorded in `violations`).
pub fn create_logs<D: ZlogDriver>(
    sim: &mut Sim,
    nodes: &[NodeId],
    violations: &mut Vec<String>,
) -> Vec<Option<Ino>> {
    let ops: Vec<u64> = nodes
        .iter()
        .map(|&node| sim.with_actor::<D, _>(node, |d, ctx| d.zlog_mut().setup(ctx)))
        .collect();
    let deadline = sim.now() + SimDuration::from_secs(30);
    let created = drive(sim, deadline, |s| {
        nodes
            .iter()
            .zip(&ops)
            .all(|(&node, &op)| s.actor::<D>(node).zlog().is_done(op))
    });
    if let Err(e) = created {
        violations.push(format!("log setup: {e}"));
    }
    nodes
        .iter()
        .zip(&ops)
        .map(
            |(&node, &op)| match sim.actor_mut::<D>(node).zlog_mut().take_result(op) {
                Some(AppendResult::Ok(ZlogOut::SetUp(ino))) => Some(ino),
                other => {
                    violations.push(format!("log setup at {node}: {other:?}"));
                    None
                }
            },
        )
        .collect()
}

/// Steps the simulation until `done` holds; fails past `deadline`.
/// Returns the number of events processed.
pub fn drive(
    sim: &mut Sim,
    deadline: SimTime,
    done: impl FnMut(&Sim) -> bool,
) -> Result<u64, String> {
    measure(sim, deadline, done).map(|m| m.events)
}

/// Host time and event count of one measured phase.
#[derive(Debug)]
pub struct Measured {
    /// Host seconds spent inside `Sim::step`.
    pub host_s: f64,
    pub events: u64,
}

/// Steps the simulation until `done` holds; fails past `deadline`. Only
/// `Sim::step` is timed, so the caller's `done` (the benchmark's own
/// bookkeeping) stays out of the host time.
pub fn measure(
    sim: &mut Sim,
    deadline: SimTime,
    mut done: impl FnMut(&Sim) -> bool,
) -> Result<Measured, String> {
    let mut host = Duration::ZERO;
    let mut events = 0u64;
    while !done(sim) {
        if sim.now() > deadline {
            return Err(format!("stalled: condition unmet at {}", sim.now()));
        }
        let start = Instant::now();
        let stepped = sim.step();
        host += start.elapsed();
        if stepped.is_none() {
            return Err(format!("event queue drained at {}", sim.now()));
        }
        events += 1;
    }
    Ok(Measured {
        host_s: host.as_secs_f64(),
        events,
    })
}

/// A snapshot of every counter, for phase deltas.
pub fn counters(sim: &Sim) -> BTreeMap<String, u64> {
    sim.metrics()
        .counters()
        .map(|(k, v)| (k.to_string(), v))
        .collect()
}

/// `after - before` for every counter in `after`.
pub fn delta(
    before: &BTreeMap<String, u64>,
    after: &BTreeMap<String, u64>,
) -> BTreeMap<String, u64> {
    after
        .iter()
        .map(|(k, v)| (k.clone(), v - before.get(k).copied().unwrap_or(0)))
        .collect()
}
