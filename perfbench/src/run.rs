//! What one repetition of a workload reports, and the pieces the
//! workloads share: the seeded input generator and the payload checks.

use std::collections::BTreeMap;

use mala_sim::{Sim, SimTime};

use crate::cluster::Measured;
use crate::stats::Dist;

/// A simulated-time metric: deterministic at a given seed.
#[derive(Debug, Clone, PartialEq)]
pub struct SimStat {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Samples behind a percentile, `None` for non-percentile metrics.
    pub n: Option<usize>,
}

impl SimStat {
    /// A plain value.
    pub fn value(name: &'static str, unit: &'static str, value: f64) -> SimStat {
        SimStat {
            name,
            unit,
            value,
            n: None,
        }
    }

    /// The nearest-rank `p`-th percentile of `dist` (µs samples) in ms.
    /// A percentile without ten samples beyond it is a violation.
    pub fn pct_ms(
        name: &'static str,
        dist: &Dist,
        p: u32,
        violations: &mut Vec<String>,
    ) -> SimStat {
        let value = match dist.supported(p) {
            Some(us) => us as f64 / 1000.0,
            None => {
                violations.push(format!(
                    "{name}: only {} samples, fewer than 10 beyond p{p}",
                    dist.len()
                ));
                0.0
            }
        };
        SimStat {
            name,
            unit: "ms",
            value,
            n: Some(dist.len()),
        }
    }
}

/// Raw material for the per-layer metrics, all from the measured phase.
#[derive(Debug, Default)]
pub struct Layers {
    /// Counter deltas over the measured phase.
    pub counters: BTreeMap<String, u64>,
    /// Host ns charged to each adapter or client clock.
    pub host_ns: BTreeMap<&'static str, u64>,
    /// Span durations (µs) by stage name, spans opened in the window.
    pub spans: BTreeMap<String, Dist>,
    /// Records held in the OSD journals at the end of the phase.
    pub journal_records: u64,
    /// Journal compactions during the phase.
    pub journal_compactions: u64,
    /// Bytes held by the OSD object stores at the end of the phase.
    pub stored_bytes: u64,
    /// Payload bytes clients got acknowledged during the phase.
    pub user_bytes: u64,
    /// Appends acknowledged during the phase (zlog workloads).
    pub appends: u64,
    /// Log entries delivered to readers during the phase.
    pub entries_read: u64,
}

/// Everything one repetition of a workload reports.
#[derive(Debug)]
pub struct Run {
    /// Host seconds to assemble, settle and preload.
    pub setup_s: f64,
    /// The measured phase.
    pub measured: Measured,
    /// Client ops completed in the measured window.
    pub ops: u64,
    /// Client ops attempted, and those that failed or were refused.
    pub attempted: u64,
    pub failed: u64,
    /// Simulated-time metrics.
    pub sim: Vec<SimStat>,
    /// Output-check failures.
    pub violations: Vec<String>,
    pub layers: Layers,
}

/// Per-stage span durations in µs, for spans opened in `[from, to)`.
pub fn span_dists(sim: &Sim, from: SimTime, to: SimTime) -> BTreeMap<String, Dist> {
    let mut raw: BTreeMap<String, Vec<u64>> = BTreeMap::new();
    for span in sim.tracer().spans() {
        if span.start < from || span.start >= to {
            continue;
        }
        if let Some(d) = span.duration() {
            raw.entry(span.name.clone())
                .or_default()
                .push(d.as_micros());
        }
    }
    raw.into_iter().map(|(k, v)| (k, Dist::new(v))).collect()
}

/// The payload of append `seq` on `log`: the sequence number, then
/// seeded filler, so a reader can tell exactly which append it got. The
/// zlog storage class carries entries as text, so the payload is hex.
pub fn payload(seed: u64, log: u32, seq: u64, len: usize) -> Vec<u8> {
    let mut rng = Rng::new(seed ^ (u64::from(log) << 40), seq);
    let mut out = format!("{seq:016x}").into_bytes();
    while out.len() < len {
        out.extend_from_slice(format!("{:016x}", rng.next()).as_bytes());
    }
    out.truncate(len);
    out
}

/// The append a payload came from, if it is intact.
pub fn payload_seq(seed: u64, log: u32, data: &[u8]) -> Option<u64> {
    let seq = std::str::from_utf8(data.get(..16)?).ok()?;
    let seq = u64::from_str_radix(seq, 16).ok()?;
    (payload(seed, log, seq, data.len()) == data).then_some(seq)
}

/// SplitMix64: the benchmark's input generator, seeded per client.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next();
        rng
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// Exponentially distributed with the given mean.
    pub fn exp(&mut self, mean: f64) -> f64 {
        let u = ((self.next() >> 11) + 1) as f64 / (1u64 << 53) as f64;
        -u.ln() * mean
    }

    /// `len` pseudo-random bytes.
    pub fn bytes(&mut self, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len + 8);
        while out.len() < len {
            out.extend_from_slice(&self.next().to_le_bytes());
        }
        out.truncate(len);
        out
    }
}
