//! The `churn` workload: the abuse containment cell at 128 servers.
//!
//! `experiments::scenarios::abuse::run_cell` with first-fit placement
//! and the quick timeline: a Poisson tenant stream for 68 ms with
//! lognormal lifetimes and the bulk/web/KV/whale/over-claim demand mix,
//! 10 % of admitted tenants hostile at intensity 4, edge enforcement
//! and the quarantine loop on, one core switch down for 5 ms mid-run.
//!
//! The cell is rebuilt here from the library's public parts so that
//! set-up and run can be timed apart, and each layer where it is
//! called. Untraced passes advance the simulator with the library's
//! `Runner::run`; passes under a trace with [`cell::run`], which gives
//! each of its steps a span. The cell's containment loop between run steps,
//! and the constants and helpers the library keeps crate-private, are
//! copied below, so a change to the speed of the library's own copy
//! does not show here (the loop is about 1.5 % of a traced pass).
//! Untraced passes also sample the event-queue reference kernel
//! ([`crate::reference`]) every [`REFERENCE_EVERY`] steps; the samples'
//! time is kept out of the pass's `wall_s`.
//! Every pass's event count and digest must equal the library's own
//! `run_cell` for its seed, so this copy cannot drift from it
//! unnoticed.

use crate::cell::{self, secs, Mode, SimPass};
use crate::reference;
use crate::trace::{self, span, Site, TimedDriver};
use experiments::harness::{Runner, SystemKind, SLICE};
use experiments::scenarios::abuse;
use experiments::scenarios::common::Scale;
use experiments::scenarios::fig17::build_topo;
use fabric::{
    AbuseCfg, AdmissionCfg, FabricManager, LedgerConservation, Policy, QualifyingStagger,
    TenantState,
};
use metrics::Percentiles;
use netsim::{FaultKind, FaultPlan, NodeId, PairId, TenantId, Time, MS, US};
use obs::InvariantSuite;
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;
use ufab::edge::enforce::HostileProfile;
use ufab::{FabricSpec, UfabConfig, UfabEdge};
use workloads::abuse::{hostile_demand, select_hostiles};
use workloads::churn::{
    gen_trace, ChurnCfg, ChurnDriver, DemandKind, PairDemand, TenantArrival, TenantTraffic,
};
use workloads::dists::{kv_object_sizes, websearch_flow_sizes};
use workloads::driver::Driver;

/// Servers of the cell: the smallest fabric with four pods.
pub const SERVERS: usize = 128;
/// Share of admitted tenants that are hostile (percent).
const HOSTILE_PCT: u32 = 10;
/// Abuse intensity of the hostile tenants.
const INTENSITY: u32 = 4;

// Copies of `experiments::scenarios::churn`'s crate-private cell
// parameters (quick mode).
const STEP: Time = 250 * US;
const STAGGER_BOUND: Time = 25 * MS;
const GUAR_FRACTION: f64 = 0.85;
const FIRST_ARRIVAL: Time = 2 * MS;
const LAST_ARRIVAL: Time = FIRST_ARRIVAL + 68 * MS;
const FAULT_AT: Time = FIRST_ARRIVAL + 34 * MS;
const FAULT_RECOVER: Time = FAULT_AT + 5 * MS;
const HORIZON: Time = LAST_ARRIVAL + 20 * MS + MS + 4 * MS;

/// Untraced passes sample the event-queue reference kernel every this
/// many run steps: ten samples spread over the 380 steps of a pass.
const REFERENCE_EVERY: u64 = 38;

fn churn_cfg(seed: u64, n_hosts: usize) -> ChurnCfg {
    ChurnCfg {
        seed,
        arrivals_per_sec: 22_000.0 * n_hosts as f64 / 512.0,
        first_arrival: FIRST_ARRIVAL,
        last_arrival: LAST_ARRIVAL,
        mean_lifetime_ns: 5e6,
        sigma_lifetime: 0.8,
        min_lifetime: 600 * US,
        max_lifetime: 20 * MS,
    }
}

fn demand_for(kind: DemandKind, guar_bps: f64) -> PairDemand {
    match kind {
        DemandKind::Bulk => PairDemand::Steady { bps: guar_bps },
        DemandKind::Whale => PairDemand::Steady {
            bps: guar_bps.min(1.5e9),
        },
        DemandKind::WebFlows => {
            let sizes = websearch_flow_sizes();
            let rate = (0.3 * guar_bps / (sizes.mean() * 8.0)).max(1.0);
            PairDemand::Flows {
                mean_gap_ns: 1e9 / rate,
                sizes,
            }
        }
        DemandKind::KvFlows => PairDemand::Flows {
            mean_gap_ns: 500_000.0,
            sizes: kv_object_sizes(),
        },
        DemandKind::Overclaim => unreachable!("overclaim tenants are never admitted"),
    }
}

/// The library's own run of the cell: `(events, digest)`.
pub fn library(seed: u64) -> (u64, u64) {
    let scale = Scale {
        seed,
        quick: true,
        servers: Some(SERVERS),
        ..Scale::default()
    };
    let out = abuse::run_cell(scale, Policy::FirstFit, HOSTILE_PCT, INTENSITY);
    let digest = u64::from_str_radix(&out.digest, 16).unwrap_or(0);
    (out.events, digest)
}

/// Sample every admitted tenant's acked bytes on each of its pairs.
fn acked(r: &Runner, pairs: &[(NodeId, PairId)]) -> Vec<u64> {
    pairs
        .iter()
        .map(|&(src, pair)| {
            r.sim
                .try_edge::<UfabEdge>(src)
                .map(|e| e.ep.acked_bytes(pair))
                .unwrap_or(0)
        })
        .collect()
}

struct Cell {
    trace: Vec<TenantArrival>,
    plan: fabric::Plan,
    hostiles: Vec<Option<HostileProfile>>,
    tenant_pairs: Vec<Vec<(NodeId, PairId)>>,
    mgr: FabricManager,
    r: Runner,
    fsuite: InvariantSuite<FabricManager>,
    churn: ChurnDriver,
    dead_core: NodeId,
    build_s: f64,
    plan_s: f64,
}

fn set_up(seed: u64, mode: Mode) -> Cell {
    let t0 = Instant::now();
    let mut topo = build_topo(SERVERS, false);
    topo.enable_pod_partition();
    let build_s = secs(t0);
    let n_hosts = topo.hosts.len();

    // 1) Trace + admission plan.
    let trace = gen_trace(&churn_cfg(seed, n_hosts));
    let acfg = AdmissionCfg {
        policy: Policy::FirstFit,
        ..AdmissionCfg::default()
    };
    let reqs: Vec<fabric::TenantReq> = trace
        .iter()
        .enumerate()
        .map(|(i, a)| fabric::TenantReq {
            name: format!("churn-{i}"),
            n_vms: a.n_vms,
            tokens_per_vm: a.tokens_per_vm,
            arrival: a.arrival,
            lifetime: a.lifetime,
        })
        .collect();
    let t_plan = Instant::now();
    let plan = fabric::plan(&topo, &acfg, &reqs);
    let plan_s = secs(t_plan);
    let hostiles = select_hostiles(seed, plan.admitted.len(), HOSTILE_PCT, INTENSITY);

    // 2) FabricSpec + traffic programs.
    let mut fabric_spec = FabricSpec::new(acfg.bu_bps);
    let mut fabric_ids: Vec<u32> = Vec::with_capacity(plan.admitted.len());
    let mut tenant_pairs: Vec<Vec<(NodeId, PairId)>> = Vec::with_capacity(plan.admitted.len());
    let mut programs: Vec<TenantTraffic> = Vec::with_capacity(plan.admitted.len());
    for (idx, t) in plan.admitted.iter().enumerate() {
        let kind = trace[t.req].kind;
        let tid = fabric_spec.add_tenant(&t.name, t.tokens_per_vm);
        let vms: Vec<_> = t
            .hosts
            .iter()
            .map(|&h| fabric_spec.add_vm(tid, h))
            .collect();
        let guar = t.tokens_per_vm * acfg.bu_bps;
        let mut pairs = Vec::with_capacity(vms.len());
        let mut prog_pairs = Vec::with_capacity(vms.len());
        for i in 0..vms.len() {
            let pair = fabric_spec.add_pair(vms[i], vms[(i + 1) % vms.len()]);
            pairs.push((t.hosts[i], pair));
            let dem = match &hostiles[idx] {
                Some(h) => hostile_demand(h.kind, guar, h.intensity),
                None => demand_for(kind, guar),
            };
            prog_pairs.push((t.hosts[i], pair, dem));
        }
        fabric_ids.push(tid.raw());
        tenant_pairs.push(pairs);
        programs.push(TenantTraffic {
            tag: tid.raw(),
            start: t.decision,
            stop: t.depart,
            pairs: prog_pairs,
        });
    }
    let mut mgr = FabricManager::new(&topo, acfg, &plan, &fabric_ids);
    mgr.enable_abuse(AbuseCfg::default());

    // 3) Simulator + chaos, with the edge enforcement stage armed.
    let dead_core = topo.cores[0];
    let mut fplan = FaultPlan::new(seed);
    fplan.push(FaultKind::SwitchFail {
        node: dead_core,
        at: FAULT_AT,
        recover_at: Some(FAULT_RECOVER),
    });
    let ucfg = UfabConfig {
        core_cleanup_period: 5 * MS,
        enforce: true,
        ..UfabConfig::default()
    };
    experiments::executor::set_shards(mode.shards);
    let mut r = Runner::new(
        topo,
        fabric_spec,
        SystemKind::Ufab,
        seed,
        Some(ucfg.clone()),
        MS,
    );
    experiments::executor::set_shards(1);
    if mode.proxies {
        cell::install_proxies(&mut r, &ucfg);
    }
    if mode.det_hash {
        r.sim.enable_det_hash();
    }
    if mode.invariants {
        r.enable_chaos_invariants(MS / 4, 5 * MS, FAULT_RECOVER + 15 * MS);
    }
    mgr.set_obs(r.obs.clone());
    r.sim.apply_chaos(&fplan);
    for (i, h) in hostiles.iter().enumerate() {
        let Some(h) = h else { continue };
        let t = TenantId(fabric_ids[i]);
        let hosts: BTreeSet<NodeId> = tenant_pairs[i].iter().map(|&(src, _)| src).collect();
        for host in hosts {
            r.sim
                .edge_mut::<UfabEdge>(host)
                .set_hostile(t, h.kind, h.intensity);
        }
    }
    let mut fsuite: InvariantSuite<FabricManager> = InvariantSuite::new(MS);
    fsuite.register(Box::new(LedgerConservation));
    fsuite.register(Box::new(QualifyingStagger::new(STAGGER_BOUND)));
    let churn = ChurnDriver::new(programs, seed ^ 0x5eed, 0);
    Cell {
        trace,
        plan,
        hostiles,
        tenant_pairs,
        mgr,
        r,
        fsuite,
        churn,
        dead_core,
        build_s,
        plan_s,
    }
}

/// One pass of the cell.
pub fn pass(seed: u64, mode: Mode) -> SimPass {
    let (c, setup_s) = cell::set_up(|| set_up(seed, mode));
    let Cell {
        trace,
        plan,
        hostiles,
        tenant_pairs,
        mut mgr,
        mut r,
        mut fsuite,
        mut churn,
        dead_core,
        build_s,
        plan_s,
    } = c;
    let mut p = SimPass {
        setup_s,
        build_s,
        plan_s,
        ..SimPass::default()
    };

    // 4) Run loop: the churn loop plus the containment loop.
    let t1 = Instant::now();
    let mut baselines: Vec<Vec<u64>> = vec![Vec::new(); mgr.tenants().len()];
    let mut enf_seen: BTreeMap<(u32, u32), [u64; 3]> = BTreeMap::new();
    let mut unsettled: BTreeSet<usize> = BTreeSet::new();
    let mut fault_done = false;
    let mut now = 0;
    let mut steps = 0u64;
    let mut paused_s = 0.0;
    while now < HORIZON {
        let step_start = now;
        now = (now + STEP).min(HORIZON);
        if trace::active() {
            let mut driver = TimedDriver(&mut churn);
            let mut drivers: [&mut dyn Driver; 1] = [&mut driver];
            cell::run(&mut r, now, SLICE, &mut drivers);
        } else {
            r.run(now, SLICE, &mut [&mut churn]);
            steps += 1;
            if steps.is_multiple_of(REFERENCE_EVERY) {
                let t = Instant::now();
                p.reference_s.push(reference::event_queue());
                paused_s += secs(t);
            }
        }
        let out = span(Site::ManagerAdvance, || mgr.advance(now));
        span(Site::CellLoop, || {
            for &i in &out.admitted {
                baselines[i] = acked(&r, &tenant_pairs[i]);
            }
            if !fault_done && now >= FAULT_AT {
                fault_done = true;
                let hit: Vec<usize> = (0..mgr.tenants().len())
                    .filter(|&i| mgr.tenants()[i].state == TenantState::Guaranteed)
                    .filter(|&i| {
                        tenant_pairs[i].iter().any(|&(src, pair)| {
                            r.sim
                                .try_edge::<UfabEdge>(src)
                                .and_then(|e| e.route_of(pair))
                                .map(|route| r.topo.walk_route(src, &route).contains(&dead_core))
                                .unwrap_or(false)
                        })
                    })
                    .collect();
                for i in hit {
                    mgr.requalify(i, now);
                    baselines[i] = acked(&r, &tenant_pairs[i]);
                }
            }
            for (i, _) in mgr.qualifying() {
                let ok = tenant_pairs[i]
                    .iter()
                    .zip(&baselines[i])
                    .all(|(&(src, pair), &base)| {
                        r.sim
                            .try_edge::<UfabEdge>(src)
                            .map(|e| {
                                e.pair_qualified(pair) == Some(true)
                                    && e.ep.acked_bytes(pair) > base
                            })
                            .unwrap_or(false)
                    });
                if ok {
                    mgr.note_qualified(i, now);
                }
            }
            // Enforcement counter deltas, hosts then tenants ascending.
            let mut deltas: BTreeMap<u32, [u64; 3]> = BTreeMap::new();
            for &host in &r.topo.hosts {
                let Some(e) = r.sim.try_edge::<UfabEdge>(host) else {
                    continue;
                };
                for t in e.enforced_tenants() {
                    let Some(c) = e.enforcement_counters(t) else {
                        continue;
                    };
                    let cum = [c.policed_pkts, c.throttled_probes, c.unsol_pkts];
                    let prev = enf_seen
                        .insert((host.raw(), t.raw()), cum)
                        .unwrap_or([0; 3]);
                    let d = [cum[0] - prev[0], cum[1] - prev[1], cum[2] - prev[2]];
                    if d != [0; 3] {
                        let agg = deltas.entry(t.raw()).or_insert([0; 3]);
                        for (a, x) in agg.iter_mut().zip(d) {
                            *a += x;
                        }
                    }
                }
            }
            let open_abuse = mgr.tenants().iter().enumerate().any(|(i, t)| {
                hostiles[i].is_some()
                    && t.planned.decision <= now
                    && now < t.planned.depart
                    && t.state != TenantState::Quarantined
                    && deltas.contains_key(&t.fabric_tenant)
            });
            if open_abuse {
                for b in (step_start / MS) as usize..=(now / MS) as usize {
                    unsettled.insert(b);
                }
            }
            for (&t, &[pol, pr, un]) in &deltas {
                mgr.note_enforcement(t, pol, pr, un);
            }
        });
        let clamps = span(Site::AbuseTick, || mgr.abuse_tick(now));
        span(Site::CellLoop, || {
            for a in clamps {
                let hosts: BTreeSet<NodeId> = tenant_pairs[a.tenant_idx]
                    .iter()
                    .map(|&(src, _)| src)
                    .collect();
                for host in hosts {
                    r.sim.edge_mut::<UfabEdge>(host).set_enforce_clamp(
                        TenantId(a.fabric_tenant),
                        a.clamp,
                        now,
                    );
                }
            }
        });
        if fsuite.due(now) {
            span(Site::FabricInvariants, || fsuite.run(&mgr, now, &r.obs));
        }
    }
    p.wall_s = secs(t1) - paused_s;

    // 5) Outcomes and the cell's own pass conditions.
    let ab = mgr.abuse().expect("abuse ledger is enabled");
    let false_quar = (0..mgr.tenants().len())
        .filter(|&i| hostiles[i].is_none() && ab.quarantines(i) > 0)
        .count();
    let mut ttg = Percentiles::new();
    for t in mgr.tenants() {
        if let Some(x) = t.ttg_ns {
            ttg.add(x as f64);
        }
    }
    let rec = r.merged_recorder();
    let mut victim_viol_ms = 0u64;
    for (i, t) in mgr.tenants().iter().enumerate() {
        if hostiles[i].is_some() || trace[t.planned.req].kind != DemandKind::Bulk {
            continue;
        }
        let series = rec.tenant_rates.get(&t.fabric_tenant);
        let tenant_guar = GUAR_FRACTION
            * t.planned.tokens_per_vm
            * mgr.cfg().bu_bps
            * tenant_pairs[i].len() as f64;
        for &(enter, exit) in &t.guaranteed_spans {
            let b0 = ((enter + MS) / MS + 1) as usize;
            for b in b0..(exit / MS) as usize {
                if !unsettled.contains(&b)
                    && series.map(|s| s.rate_at(b)).unwrap_or(0.0) < tenant_guar
                {
                    victim_viol_ms += 1;
                }
            }
        }
    }
    drop(rec);
    let admitted = plan.admitted.len();
    let reclaimed = mgr.count(TenantState::Reclaimed);
    p.outcome = vec![
        ("victim_viol_ms", victim_viol_ms as f64, "ms"),
        (
            "ttg_p99_ms",
            ttg.percentile(99.0).unwrap_or(0.0) / 1e6,
            "ms",
        ),
        ("admitted", admitted as f64, "count"),
        ("rejected", plan.rejected.len() as f64, "count"),
        (
            "quarantined",
            (0..admitted).filter(|&i| ab.quarantines(i) > 0).count() as f64,
            "count",
        ),
    ];
    p.require(false_quar == 0, || {
        format!("{false_quar} honest tenant(s) quarantined")
    });
    p.require(reclaimed == admitted, || {
        format!("{reclaimed} of {admitted} admitted tenants reclaimed")
    });
    p.require(fsuite.violations().is_empty(), || {
        format!("fabric invariants violated:\n{}", fsuite.report())
    });
    cell::finish(&mut p, &r, SERVERS);
    p
}
