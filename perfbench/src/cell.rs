//! The simulated pass: its settings, its result, the traced run loop
//! and the agent proxies' installation; and the repeated set-up every
//! workload times.

use crate::trace::{span, Site, TimedCore, TimedEdge};
use experiments::harness::Runner;
use netsim::packet::ArenaStats;
use netsim::sim::GlobalStats;
use netsim::{NodeId, Time};
use std::sync::Arc;
use std::time::Instant;
use ufab::{CoreHwCfg, UfabConfig, UfabCore, UfabEdge};
use workloads::driver::Driver;

/// How one pass of a simulated cell runs. The default is the cell as
/// the program runs it: determinism hash on, no invariant suite, one
/// shard worker, agents not proxied.
#[derive(Debug, Clone, Copy)]
pub struct Mode {
    /// Reinstall the μFAB agents inside timing proxies.
    pub proxies: bool,
    /// Fold every event into the determinism digest.
    pub det_hash: bool,
    /// Evaluate the simulator invariant suite between run slices.
    pub invariants: bool,
    /// Shard workers (`--shards`).
    pub shards: usize,
}

impl Default for Mode {
    fn default() -> Self {
        Self {
            proxies: false,
            det_hash: true,
            invariants: false,
            shards: 1,
        }
    }
}

/// One pass of a simulated cell.
#[derive(Debug, Clone, Default)]
pub struct SimPass {
    /// Host seconds before the first simulated event.
    pub setup_s: f64,
    /// Host seconds from the first simulated event to the horizon.
    pub wall_s: f64,
    /// Hosts in the built fabric.
    pub hosts: usize,
    /// Determinism digest (`None` with the hash off).
    pub digest: Option<u64>,
    /// Simulator counters at the horizon.
    pub stats: GlobalStats,
    /// Packet-arena counters at the horizon.
    pub arena: Option<ArenaStats>,
    /// Host seconds building the topology.
    pub build_s: f64,
    /// Host seconds computing the admission plan.
    pub plan_s: f64,
    /// Simulated outcomes, `(name, value, unit)`.
    pub outcome: Vec<(&'static str, f64, &'static str)>,
    /// Checks the pass failed, one line each.
    pub faults: Vec<String>,
    /// Host seconds of each event-queue kernel sample taken during the
    /// timed section (kept out of `wall_s`); none under a trace.
    pub reference_s: Vec<f64>,
}

impl SimPass {
    /// Events processed.
    pub fn events(&self) -> u64 {
        self.stats.events
    }

    /// Record that `check` failed unless `ok`.
    pub fn require(&mut self, ok: bool, check: impl FnOnce() -> String) {
        if !ok {
            self.faults.push(check());
        }
    }
}

/// Times a cell is set up in one pass; the pass reports the median.
const SETUPS: usize = 11;

/// Set a cell up [`SETUPS`] times, dropping all but the last, and
/// return it with the median set-up time (host seconds).
pub fn set_up<C>(f: impl Fn() -> C) -> (C, f64) {
    let mut times = Vec::with_capacity(SETUPS);
    let mut cell = None;
    for _ in 0..SETUPS {
        drop(cell.take());
        let t0 = Instant::now();
        cell = Some(f());
        times.push(secs(t0));
    }
    (
        cell.expect("set up at least once"),
        crate::stats::median(&times),
    )
}

/// Host seconds since `t0`.
pub fn secs(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// Fill in the counters every simulated pass reports, and check the
/// built fabric against the server count the workload declares (the
/// topology builder falls back to another size without a word).
pub fn finish(p: &mut SimPass, r: &Runner, servers: usize) {
    let hosts = r.topo.hosts.len();
    p.hosts = hosts;
    p.require(hosts == servers, || {
        format!("fabric has {hosts} hosts, workload declares {servers}")
    });
    p.digest = r.sim.det_digest();
    p.stats = r.sim.stats();
    p.arena = Some(r.sim.arena_stats());
    let n = r.invariant_violations();
    p.require(n == 0, || {
        format!(
            "{n} simulator invariant violation(s):\n{}",
            r.invariant_report()
        )
    });
}

/// Reinstall every μFAB agent of `r` inside a timing proxy, built with
/// the constructors `Runner::new` uses. Call before the first event.
pub fn install_proxies(r: &mut Runner, cfg: &UfabConfig) {
    let hosts = r.topo.hosts.clone();
    for h in hosts {
        let rec = Arc::clone(&r.recs[r.sim.owner_of(h) as usize]);
        let edge = UfabEdge::new(
            cfg.clone(),
            Arc::clone(&r.topo),
            Arc::clone(&r.fabric),
            rec,
            h,
        );
        r.sim.set_edge_agent(h, Box::new(TimedEdge(edge)));
    }
    let switches: Vec<NodeId> = r
        .topo
        .tors
        .iter()
        .chain(&r.topo.aggs)
        .chain(&r.topo.cores)
        .copied()
        .collect();
    for s in switches {
        let core = UfabCore::with_hw(CoreHwCfg::from(cfg));
        r.sim.set_switch_agent(s, Box::new(TimedCore(core)));
    }
}

/// `Runner::run`, with each step it takes under its own span: advance
/// to `until` in `slice` steps, polling `drivers`, sampling watched
/// queues and evaluating due invariants between slices.
pub fn run(r: &mut Runner, until: Time, slice: Time, drivers: &mut [&mut dyn Driver]) {
    assert!(slice > 0);
    span(Site::Netsim, || r.sim.start());
    let comps = span(Site::Harness, || r.drain_completions());
    for d in drivers.iter_mut() {
        d.poll(r, &comps);
    }
    while r.sim.now() < until {
        let next_wake = drivers
            .iter()
            .map(|d| d.next_wake())
            .min()
            .unwrap_or(Time::MAX);
        let now = r.sim.now();
        let target = (now + slice).min(until).min(next_wake.max(now + 1));
        span(Site::Netsim, || r.sim.run_until(target));
        let comps = span(Site::Harness, || r.drain_completions());
        for d in drivers.iter_mut() {
            d.poll(r, &comps);
        }
        span(Site::Harness, || sample_queues(r));
        let now = r.sim.now();
        if let Some(suite) = &mut r.invariants {
            if suite.due(now) {
                span(Site::SimInvariants, || suite.run(&r.sim, now, &r.obs));
            }
        }
    }
}

fn sample_queues(r: &mut Runner) {
    if r.queue_watch.is_empty() {
        return;
    }
    let mut max_q = 0u64;
    for &(n, p) in &r.queue_watch {
        let q = r.sim.port(n, p).q_bytes;
        r.queue_samples.add(q as f64);
        max_q = max_q.max(q);
    }
    r.queue_series.push((r.sim.now(), max_q));
}
