//! Admission control and the tenant lifecycle state machine.
//!
//! The manager is split into a **plan** pass and a **replay** runtime so
//! churn scenarios stay deterministic under the parallel executor:
//!
//! 1. [`plan`] consumes the full arrival trace before the simulation
//!    starts. It paces decisions through the admission queue (one every
//!    [`AdmissionCfg::decision_gap`] ns), releases departures that
//!    precede each decision, and runs the placement policy — producing
//!    an immutable [`Plan`] of per-tenant host assignments, decision
//!    times and rejections. Everything here is pure control-plane math:
//!    no simulator state, no randomness, no wall-clock.
//! 2. [`FabricManager`] replays that plan against the running
//!    simulation. Only the transitions that need data-plane feedback
//!    happen at run time: `Qualifying → Guaranteed` (driven by μFAB-E's
//!    qualification signal via [`FabricManager::note_qualified`]) and
//!    chaos-driven re-qualification ([`FabricManager::requalify`]).
//!
//! Because `FabricSpec` is immutable once a `Runner` is built, planned
//! admissions double as the tenant set handed to μFAB; a tenant that is
//! "not yet admitted" simply has no traffic and no open guarantee span.

use crate::abuse::{AbuseCfg, ClampAction, MisbehaviorLedger};
use crate::ledger::Ledger;
use crate::place::{Placer, Policy, RejectReason};
use netsim::{NodeId, Time};
use obs::{Category, Event, ObsHandle};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use topology::Topo;

/// Admission-control configuration.
#[derive(Debug, Clone, Copy)]
pub struct AdmissionCfg {
    /// Unit bandwidth B_u (paper: 500 Mbps); hose = tokens × B_u.
    pub bu_bps: f64,
    /// Ledger provisioning headroom η: links admit hose up to η·cap.
    pub headroom: f64,
    /// Minimum spacing between admission decisions (ns). The queue
    /// drains one decision per gap, which both rate-limits control-plane
    /// churn and staggers qualification load.
    pub decision_gap: Time,
    /// VM slots per host.
    pub max_vms_per_host: usize,
    /// Placement policy.
    pub policy: Policy,
    /// Time a departed tenant lingers in `Departing` before `Reclaimed`
    /// (models control-plane teardown; capacity is freed at departure).
    pub reclaim_grace: Time,
}

impl Default for AdmissionCfg {
    fn default() -> Self {
        Self {
            bu_bps: 500e6,
            headroom: 0.9,
            decision_gap: 20_000,
            max_vms_per_host: 8,
            policy: Policy::FirstFit,
            reclaim_grace: netsim::MS,
        }
    }
}

/// One tenant request in the churn trace.
#[derive(Debug, Clone)]
pub struct TenantReq {
    /// Human-readable tenant name (also the `FabricSpec` tenant name).
    pub name: String,
    /// Number of VMs requested.
    pub n_vms: usize,
    /// Hose tokens per VM (B_min = tokens × B_u).
    pub tokens_per_vm: f64,
    /// Arrival time of the request (ns).
    pub arrival: Time,
    /// Requested lifetime from the admission decision (ns).
    pub lifetime: Time,
}

impl TenantReq {
    /// The per-VM hose bandwidth under `cfg`.
    pub fn hose_bps(&self, cfg: &AdmissionCfg) -> f64 {
        self.tokens_per_vm * cfg.bu_bps
    }
}

/// Tenant lifecycle states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TenantState {
    /// In the admission queue, not yet decided.
    Requested,
    /// Admitted and placed; guarantee not yet active.
    Admitted,
    /// Waiting for μFAB-E to qualify every pair's path.
    Qualifying,
    /// All pairs qualified: the B_min guarantee is in force.
    Guaranteed,
    /// Misbehavior score over the enter threshold; guarantee still in
    /// force while the hysteresis window decides (DESIGN §10).
    Suspected,
    /// Sustained abuse: rate clamped to a penalty fraction at the edge,
    /// guarantee released back to the ledger.
    Quarantined,
    /// Probation after quarantine: guarantee re-committed, score
    /// decaying; re-offending returns straight to `Quarantined`.
    Reinstated,
    /// Departed; capacity freed, teardown in progress.
    Departing,
    /// Fully reclaimed.
    Reclaimed,
    /// Refused at admission.
    Rejected,
}

impl TenantState {
    /// Stable lowercase label (used in obs events and tables).
    pub fn label(self) -> &'static str {
        match self {
            TenantState::Requested => "requested",
            TenantState::Admitted => "admitted",
            TenantState::Qualifying => "qualifying",
            TenantState::Guaranteed => "guaranteed",
            TenantState::Suspected => "suspected",
            TenantState::Quarantined => "quarantined",
            TenantState::Reinstated => "reinstated",
            TenantState::Departing => "departing",
            TenantState::Reclaimed => "reclaimed",
            TenantState::Rejected => "rejected",
        }
    }

    /// Is `self → next` a legal lifecycle transition? Public so other
    /// state-machine owners (the fabricd service) enforce the same
    /// rules as [`FabricManager`].
    pub fn can_go(self, next: TenantState) -> bool {
        use TenantState::*;
        matches!(
            (self, next),
            (Requested, Admitted)
                | (Requested, Rejected)
                | (Admitted, Qualifying)
                | (Qualifying, Guaranteed)
                | (Guaranteed, Qualifying) // chaos re-qualification
                | (Qualifying, Departing)
                | (Guaranteed, Departing)
                | (Departing, Reclaimed)
                // Quarantine ladder (DESIGN §10): hysteresis up and down.
                | (Guaranteed, Suspected)
                | (Suspected, Guaranteed)
                | (Suspected, Quarantined)
                | (Quarantined, Reinstated)
                | (Reinstated, Guaranteed)
                | (Reinstated, Quarantined)
                | (Suspected, Departing)
                | (Quarantined, Departing)
                | (Reinstated, Departing)
        )
    }
}

/// An admitted tenant as decided by [`plan`].
#[derive(Debug, Clone)]
pub struct PlannedTenant {
    /// Index into the original request trace.
    pub req: usize,
    /// Tenant name (copied from the request).
    pub name: String,
    /// VM count.
    pub n_vms: usize,
    /// Hose tokens per VM.
    pub tokens_per_vm: f64,
    /// Request arrival (ns).
    pub arrival: Time,
    /// Admission decision instant (ns).
    pub decision: Time,
    /// Departure instant (ns): `decision + lifetime`.
    pub depart: Time,
    /// Host of each VM (`hosts[i]` holds VM *i*).
    pub hosts: Vec<NodeId>,
}

/// A rejected request as decided by [`plan`].
#[derive(Debug, Clone)]
pub struct Rejection {
    /// Index into the original request trace.
    pub req: usize,
    /// Decision instant (ns).
    pub at: Time,
    /// Why it was refused.
    pub reason: RejectReason,
}

/// The immutable output of the admission pre-pass.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Admitted tenants in decision order.
    pub admitted: Vec<PlannedTenant>,
    /// Rejected requests in decision order.
    pub rejected: Vec<Rejection>,
    /// Queueing latency (decision − arrival, ns) of every decision,
    /// admitted and rejected alike, in decision order.
    pub decision_latency_ns: Vec<u64>,
}

impl Plan {
    /// Fraction of requests refused.
    pub fn rejection_rate(&self) -> f64 {
        let n = self.admitted.len() + self.rejected.len();
        if n == 0 {
            0.0
        } else {
            self.rejected.len() as f64 / n as f64
        }
    }
}

/// Run the admission queue over a full arrival trace.
///
/// `reqs` must be sorted by arrival time. Decisions are paced one per
/// `cfg.decision_gap`; before each decision every tenant whose departure
/// precedes the decision instant has its capacity released, so the
/// ledger the decision sees is exactly the ledger the replaying
/// [`FabricManager`] will hold at that instant.
pub fn plan(topo: &Topo, cfg: &AdmissionCfg, reqs: &[TenantReq]) -> Plan {
    for w in reqs.windows(2) {
        assert!(
            w[0].arrival <= w[1].arrival,
            "plan: requests must be sorted by arrival"
        );
    }
    let mut ledger = Ledger::new(topo, cfg.headroom);
    let mut placer = Placer::new(&topo.hosts, cfg.policy, cfg.max_vms_per_host);
    let mut admitted: Vec<PlannedTenant> = Vec::new();
    let mut rejected = Vec::new();
    let mut latency = Vec::with_capacity(reqs.len());
    // (depart, admitted-index) min-heap of live tenants.
    let mut departs: BinaryHeap<Reverse<(Time, usize)>> = BinaryHeap::new();
    let mut next_slot: Time = 0;

    for (req_idx, r) in reqs.iter().enumerate() {
        let t_dec = r.arrival.max(next_slot);
        next_slot = t_dec + cfg.decision_gap;
        // Free everything that departs before this decision lands.
        while let Some(&Reverse((dep, ai))) = departs.peek() {
            if dep > t_dec {
                break;
            }
            departs.pop();
            let t = &admitted[ai];
            placer.release(&mut ledger, &t.hosts, t.tokens_per_vm * cfg.bu_bps);
        }
        latency.push(t_dec - r.arrival);
        match placer.place(&mut ledger, r.n_vms, r.hose_bps(cfg)) {
            Ok(hosts) => {
                let ai = admitted.len();
                departs.push(Reverse((t_dec + r.lifetime, ai)));
                admitted.push(PlannedTenant {
                    req: req_idx,
                    name: r.name.clone(),
                    n_vms: r.n_vms,
                    tokens_per_vm: r.tokens_per_vm,
                    arrival: r.arrival,
                    decision: t_dec,
                    depart: t_dec + r.lifetime,
                    hosts,
                });
            }
            Err(reason) => rejected.push(Rejection {
                req: req_idx,
                at: t_dec,
                reason,
            }),
        }
    }
    debug_assert!(ledger.conservation().is_ok());
    Plan {
        admitted,
        rejected,
        decision_latency_ns: latency,
    }
}

/// Run-time record of one admitted tenant.
#[derive(Debug, Clone)]
pub struct TenantRun {
    /// The planned admission this replays.
    pub planned: PlannedTenant,
    /// The tenant's id in the `FabricSpec` (`TenantId::raw()`).
    pub fabric_tenant: u32,
    /// Current lifecycle state.
    pub state: TenantState,
    /// When the tenant last entered `Qualifying` (ns).
    pub qualifying_since: Time,
    /// When the tenant first reached `Guaranteed` (ns).
    pub guaranteed_at: Option<Time>,
    /// How many times chaos sent it back to `Qualifying`.
    pub requalified: u32,
    /// Time-to-guarantee: first `Guaranteed` − decision (ns).
    pub ttg_ns: Option<u64>,
    /// Closed `[enter, exit)` windows in which the guarantee was in
    /// force (an open window is closed at departure / requalify).
    pub guaranteed_spans: Vec<(Time, Time)>,
}

/// What [`FabricManager::advance`] did this step.
#[derive(Debug, Default)]
pub struct AdvanceOut {
    /// Tenants (indices into [`FabricManager::tenants`]) that just
    /// entered `Qualifying` — callers should snapshot their baselines.
    pub admitted: Vec<usize>,
    /// Tenants that just departed — callers should stop their traffic.
    pub departing: Vec<usize>,
}

/// The run-time fabric manager: replays a [`Plan`] against the
/// simulation clock and owns every tenant's state machine and the live
/// capacity ledger.
pub struct FabricManager {
    cfg: AdmissionCfg,
    ledger: Ledger,
    placer: Placer,
    tenants: Vec<TenantRun>,
    /// Next tenant (by plan order) whose decision hasn't fired yet.
    admit_cursor: usize,
    /// Tenant indices sorted by `(depart, idx)`.
    depart_order: Vec<usize>,
    depart_cursor: usize,
    reclaim_cursor: usize,
    n_rejected: usize,
    obs: ObsHandle,
    /// Misbehavior scorer + quarantine machine (None = enforcement off).
    abuse: Option<MisbehaviorLedger>,
    /// `fabric_tenant` → index into `tenants`, built with the scorer.
    fabric_idx: HashMap<u32, usize>,
}

impl FabricManager {
    /// Build the replay runtime. `fabric_ids[i]` is the `FabricSpec`
    /// tenant id of `plan.admitted[i]`.
    pub fn new(topo: &Topo, cfg: AdmissionCfg, plan: &Plan, fabric_ids: &[u32]) -> Self {
        assert_eq!(
            plan.admitted.len(),
            fabric_ids.len(),
            "one fabric id per planned tenant"
        );
        let ledger = Ledger::new(topo, cfg.headroom);
        let placer = Placer::new(&topo.hosts, cfg.policy, cfg.max_vms_per_host);
        let tenants: Vec<TenantRun> = plan
            .admitted
            .iter()
            .zip(fabric_ids)
            .map(|(p, &fid)| TenantRun {
                planned: p.clone(),
                fabric_tenant: fid,
                state: TenantState::Requested,
                qualifying_since: 0,
                guaranteed_at: None,
                requalified: 0,
                ttg_ns: None,
                guaranteed_spans: Vec::new(),
            })
            .collect();
        let mut depart_order: Vec<usize> = (0..tenants.len()).collect();
        depart_order.sort_by_key(|&i| (tenants[i].planned.depart, i));
        Self {
            cfg,
            ledger,
            placer,
            tenants,
            admit_cursor: 0,
            depart_order,
            depart_cursor: 0,
            reclaim_cursor: 0,
            n_rejected: plan.rejected.len(),
            obs: ObsHandle::disabled(),
            abuse: None,
            fabric_idx: HashMap::new(),
        }
    }

    /// Arm the misbehavior scorer and quarantine machine.
    pub fn enable_abuse(&mut self, cfg: AbuseCfg) {
        self.fabric_idx = self
            .tenants
            .iter()
            .enumerate()
            .map(|(i, t)| (t.fabric_tenant, i))
            .collect();
        self.abuse = Some(MisbehaviorLedger::new(cfg, self.tenants.len()));
    }

    /// The misbehavior ledger, when armed.
    pub fn abuse(&self) -> Option<&MisbehaviorLedger> {
        self.abuse.as_ref()
    }

    /// Mutable misbehavior ledger (fabricd snapshot restore).
    pub fn abuse_mut(&mut self) -> Option<&mut MisbehaviorLedger> {
        self.abuse.as_mut()
    }

    /// Attach a flight-recorder handle for tenant lifecycle events.
    pub fn set_obs(&mut self, obs: ObsHandle) {
        self.obs = obs;
    }

    /// The admission configuration.
    pub fn cfg(&self) -> &AdmissionCfg {
        &self.cfg
    }

    /// The live ledger.
    pub fn ledger(&self) -> &Ledger {
        &self.ledger
    }

    /// All tenant records in plan order.
    pub fn tenants(&self) -> &[TenantRun] {
        &self.tenants
    }

    /// Rejections carried over from the plan.
    pub fn n_rejected(&self) -> usize {
        self.n_rejected
    }

    fn set_state(&mut self, i: usize, next: TenantState, now: Time, aux: u64) {
        let t = &mut self.tenants[i];
        assert!(
            t.state.can_go(next),
            "tenant {} illegal transition {} -> {} at {now} ns",
            t.planned.name,
            t.state.label(),
            next.label()
        );
        t.state = next;
        let tenant = t.fabric_tenant;
        let state = next.label();
        self.obs.rec(Category::Tenant, now, || Event::Tenant {
            tenant,
            state,
            aux,
        });
    }

    /// Fire the admission at the admit cursor (placement replay).
    fn fire_admission(&mut self, out: &mut AdvanceOut) {
        let i = self.admit_cursor;
        self.admit_cursor += 1;
        let decision = self.tenants[i].planned.decision;
        let hose = self.tenants[i].planned.tokens_per_vm * self.cfg.bu_bps;
        let hosts = self.tenants[i].planned.hosts.clone();
        self.placer.place_fixed(&mut self.ledger, &hosts, hose);
        let latency = decision - self.tenants[i].planned.arrival;
        self.set_state(i, TenantState::Admitted, decision, latency);
        self.set_state(i, TenantState::Qualifying, decision, 0);
        self.tenants[i].qualifying_since = decision;
        out.admitted.push(i);
    }

    /// Fire the departure at the depart cursor (frees capacity).
    fn fire_departure(&mut self, out: &mut AdvanceOut) {
        let i = self.depart_order[self.depart_cursor];
        self.depart_cursor += 1;
        let dep = self.tenants[i].planned.depart;
        // `guaranteed_at` is `Some` exactly while a guarantee span is
        // open (Guaranteed, Suspected, or Reinstated).
        if let Some(enter) = self.tenants[i].guaranteed_at.take() {
            self.tenants[i].guaranteed_spans.push((enter, dep));
        }
        // A quarantined tenant's capacity was already released back to
        // the ledger when the quarantine clamp landed.
        if self.tenants[i].state != TenantState::Quarantined {
            let hose = self.tenants[i].planned.tokens_per_vm * self.cfg.bu_bps;
            let hosts = self.tenants[i].planned.hosts.clone();
            self.placer.release(&mut self.ledger, &hosts, hose);
        }
        self.set_state(i, TenantState::Departing, dep, 0);
        out.departing.push(i);
    }

    /// Advance the lifecycle clock to `now`: fire due admissions and
    /// departures merged in timestamp order (a departure at or before a
    /// decision instant frees its capacity first, exactly as
    /// [`plan`] released it), then due reclaims.
    pub fn advance(&mut self, now: Time) -> AdvanceOut {
        let mut out = AdvanceOut::default();
        loop {
            let admit = (self.admit_cursor < self.tenants.len())
                .then(|| self.tenants[self.admit_cursor].planned.decision)
                .filter(|&d| d <= now);
            let depart = (self.depart_cursor < self.depart_order.len())
                .then(|| {
                    self.tenants[self.depart_order[self.depart_cursor]]
                        .planned
                        .depart
                })
                .filter(|&d| d <= now);
            match (admit, depart) {
                (Some(a), Some(d)) if d <= a => self.fire_departure(&mut out),
                (Some(_), _) => self.fire_admission(&mut out),
                (None, Some(_)) => self.fire_departure(&mut out),
                (None, None) => break,
            }
        }
        // Reclaims are cosmetic (capacity already freed) but complete
        // the state machine after the teardown grace.
        while self.reclaim_cursor < self.depart_order.len() {
            let i = self.depart_order[self.reclaim_cursor];
            let dep = self.tenants[i].planned.depart;
            if dep + self.cfg.reclaim_grace > now {
                break;
            }
            // A tenant later in depart order can't reclaim earlier:
            // grace is constant, so reclaim order == depart order.
            if self.tenants[i].state != TenantState::Departing {
                break;
            }
            self.reclaim_cursor += 1;
            self.set_state(i, TenantState::Reclaimed, dep + self.cfg.reclaim_grace, 0);
        }
        out
    }

    /// μFAB-E reports tenant `i` fully qualified at `now`.
    ///
    /// # Panics
    /// Panics unless the tenant is in `Qualifying`.
    pub fn note_qualified(&mut self, i: usize, now: Time) {
        let ttg = now.saturating_sub(self.tenants[i].planned.decision);
        self.set_state(i, TenantState::Guaranteed, now, ttg);
        self.tenants[i].guaranteed_at = Some(now);
        if self.tenants[i].ttg_ns.is_none() {
            self.tenants[i].ttg_ns = Some(ttg);
        }
    }

    /// Chaos invalidated tenant `i`'s qualified paths: back to
    /// `Qualifying`. No-op unless the tenant is currently `Guaranteed`.
    pub fn requalify(&mut self, i: usize, now: Time) {
        if self.tenants[i].state != TenantState::Guaranteed {
            return;
        }
        let enter = self.tenants[i].guaranteed_at.expect("open span");
        self.tenants[i].guaranteed_spans.push((enter, now));
        self.tenants[i].guaranteed_at = None;
        self.set_state(i, TenantState::Qualifying, now, 1);
        self.tenants[i].qualifying_since = now;
        self.tenants[i].requalified += 1;
    }

    /// Indices and `qualifying_since` of every tenant currently in
    /// `Qualifying`.
    pub fn qualifying(&self) -> Vec<(usize, Time)> {
        self.tenants
            .iter()
            .enumerate()
            .filter(|(_, t)| t.state == TenantState::Qualifying)
            .map(|(i, t)| (i, t.qualifying_since))
            .collect()
    }

    /// Count of tenants currently in `state`.
    pub fn count(&self, state: TenantState) -> usize {
        self.tenants.iter().filter(|t| t.state == state).count()
    }

    /// Rebuild the ledger from tenant states and compare with the live
    /// ledger — the conservation audit behind the
    /// `fabric_ledger_conservation` invariant.
    pub fn audit(&self) -> Result<(), String> {
        self.ledger.conservation()?;
        let mut shadow = self.ledger.cleared();
        for t in &self.tenants {
            // Suspected and Reinstated tenants still hold their
            // guarantee; Quarantined capacity was released back to the
            // ledger and must NOT appear in the shadow — the audit
            // covers released-while-quarantined capacity exactly.
            if matches!(
                t.state,
                TenantState::Admitted
                    | TenantState::Qualifying
                    | TenantState::Guaranteed
                    | TenantState::Suspected
                    | TenantState::Reinstated
            ) {
                let hose = t.planned.tokens_per_vm * self.cfg.bu_bps;
                for &h in &t.planned.hosts {
                    shadow.replay_commit(h, hose);
                }
            }
        }
        self.ledger.diff(&shadow)
    }

    /// Record edge enforcement-counter deltas for a tenant (keyed by its
    /// `FabricSpec` id). No-op when the scorer is off or the id is
    /// unknown (e.g. a spec tenant the plan rejected).
    pub fn note_enforcement(&mut self, fabric_tenant: u32, policed: u64, probes: u64, unsol: u64) {
        let Some(ab) = self.abuse.as_mut() else {
            return;
        };
        if let Some(&i) = self.fabric_idx.get(&fabric_tenant) {
            ab.note(i, policed, probes, unsol);
        }
    }

    fn enter_quarantine(
        &mut self,
        i: usize,
        now: Time,
        ab: &mut MisbehaviorLedger,
        actions: &mut Vec<ClampAction>,
    ) {
        if let Some(enter) = self.tenants[i].guaranteed_at.take() {
            self.tenants[i].guaranteed_spans.push((enter, now));
        }
        let hose = self.tenants[i].planned.tokens_per_vm * self.cfg.bu_bps;
        let hosts = self.tenants[i].planned.hosts.clone();
        self.placer.release(&mut self.ledger, &hosts, hose);
        let permille = (ab.cfg.penalty_fraction * 1000.0).round() as u64;
        self.set_state(i, TenantState::Quarantined, now, permille);
        ab.begin_quarantine(i, now);
        let tenant = self.tenants[i].fabric_tenant;
        self.obs
            .rec(Category::Enforcement, now, || Event::Enforcement {
                edge: u32::MAX,
                tenant,
                class: "clamp",
                aux: permille,
            });
        actions.push(ClampAction {
            tenant_idx: i,
            fabric_tenant: tenant,
            clamp: Some(ab.cfg.penalty_fraction),
        });
    }

    /// One observation tick of the quarantine machine: decay every live
    /// tenant's misbehavior score, integrate the pending enforcement
    /// deltas, and walk the hysteresis ladder. Returns the clamp
    /// directives the caller must push to the offenders' edges.
    /// Iteration is in tenant-plan order, so the emitted transitions
    /// and actions are deterministic.
    pub fn abuse_tick(&mut self, now: Time) -> Vec<ClampAction> {
        let Some(mut ab) = self.abuse.take() else {
            return Vec::new();
        };
        let mut actions = Vec::new();
        for i in 0..self.tenants.len() {
            use TenantState::*;
            let st = self.tenants[i].state;
            if !matches!(st, Guaranteed | Suspected | Quarantined | Reinstated) {
                // Not under the scorer's jurisdiction: drop any deltas
                // (e.g. counted during teardown) so they cannot bias a
                // later state.
                ab.clear_pending(i);
                continue;
            }
            let score = ab.integrate(i);
            match st {
                Guaranteed => {
                    if score >= ab.cfg.enter_score {
                        self.set_state(i, Suspected, now, (score * 1000.0) as u64);
                        ab.set_suspect_ticks(i, 1);
                    }
                }
                Suspected => {
                    if score <= ab.cfg.exit_score {
                        // Decayed out: bursty-but-honest, back to good
                        // standing without ever touching the ledger.
                        self.set_state(i, Guaranteed, now, 0);
                        ab.set_suspect_ticks(i, 0);
                    } else if score >= ab.cfg.enter_score
                        && ab.bump_suspect_ticks(i) >= ab.cfg.sustain_ticks
                    {
                        self.enter_quarantine(i, now, &mut ab, &mut actions);
                    }
                    // Between exit and enter: hold (the hysteresis band
                    // neither advances nor resets the sustain count).
                }
                Quarantined => {
                    let since = ab.quarantined_at(i).expect("quarantined_at set");
                    if now.saturating_sub(since) >= ab.cfg.quarantine_hold
                        && score <= ab.cfg.exit_score
                    {
                        // Reinstate on probation: re-commit the hose the
                        // quarantine released (replaying the planned
                        // hosts, so the ledger returns exactly to its
                        // pre-quarantine level) and lift the edge clamp.
                        let hose = self.tenants[i].planned.tokens_per_vm * self.cfg.bu_bps;
                        let hosts = self.tenants[i].planned.hosts.clone();
                        self.placer.place_fixed(&mut self.ledger, &hosts, hose);
                        self.set_state(i, Reinstated, now, 0);
                        self.tenants[i].guaranteed_at = Some(now);
                        ab.begin_probation(i, now);
                        let tenant = self.tenants[i].fabric_tenant;
                        self.obs
                            .rec(Category::Enforcement, now, || Event::Enforcement {
                                edge: u32::MAX,
                                tenant,
                                class: "unclamp",
                                aux: 0,
                            });
                        actions.push(ClampAction {
                            tenant_idx: i,
                            fabric_tenant: tenant,
                            clamp: None,
                        });
                    }
                }
                Reinstated => {
                    if score >= ab.cfg.enter_score {
                        // Re-offended during probation.
                        self.enter_quarantine(i, now, &mut ab, &mut actions);
                    } else if now.saturating_sub(ab.reinstated_at(i).expect("probation"))
                        >= ab.cfg.probation
                    {
                        self.set_state(i, Guaranteed, now, 0);
                        ab.end_probation(i);
                    }
                }
                _ => unreachable!("filtered above"),
            }
        }
        self.abuse = Some(ab);
        actions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::builder::LinkSpec;
    use netsim::{MS, US};
    use topology::{leaf_spine, Topo};

    fn topo() -> Topo {
        leaf_spine(
            2,
            2,
            4,
            LinkSpec::gbps(10, 1000),
            LinkSpec::gbps(10, 1000),
            1500,
        )
    }

    fn req(name: &str, n_vms: usize, tokens: f64, arrival: Time, life: Time) -> TenantReq {
        TenantReq {
            name: name.into(),
            n_vms,
            tokens_per_vm: tokens,
            arrival,
            lifetime: life,
        }
    }

    fn cfg() -> AdmissionCfg {
        AdmissionCfg {
            max_vms_per_host: 2,
            ..AdmissionCfg::default()
        }
    }

    #[test]
    fn plan_paces_decisions_and_rejects_overclaim() {
        let t = topo();
        let c = cfg();
        // Both arrive at t=0; second decision slips one gap later.
        // 10G access × 0.9 = 9G; 20 tokens × 500M = 10G → inadmissible.
        let reqs = vec![
            req("a", 2, 2.0, 0, 10 * MS),
            req("over", 1, 20.0, 0, 10 * MS),
            req("b", 2, 2.0, 50 * US, 10 * MS),
        ];
        let p = plan(&t, &c, &reqs);
        assert_eq!(p.admitted.len(), 2);
        assert_eq!(p.rejected.len(), 1);
        assert_eq!(p.rejected[0].reason, RejectReason::NoCapacity);
        assert_eq!(p.admitted[0].decision, 0);
        assert_eq!(p.decision_latency_ns, vec![0, c.decision_gap, 0]);
        assert!(p.rejection_rate() > 0.3 && p.rejection_rate() < 0.4);
    }

    #[test]
    fn plan_releases_departures_before_deciding() {
        let t = topo();
        let c = cfg();
        // "big" (one 4.5G VM on every host) saturates both leaves'
        // uplink pools: 4 hosts × 4.5G × ½ = 9G = η·10G per uplink.
        // "late" only fits if "big"'s capacity was released first.
        let reqs = vec![
            req("big", 8, 9.0, 0, 1 * MS),
            req("late", 2, 9.0, 2 * MS, 1 * MS),
        ];
        let p = plan(&t, &c, &reqs);
        assert_eq!(p.admitted.len(), 2, "{:?}", p.rejected);
    }

    #[test]
    fn replay_walks_the_full_lifecycle() {
        let t = topo();
        let c = cfg();
        let reqs = vec![
            req("a", 2, 2.0, 0, 2 * MS),
            req("b", 2, 2.0, 100 * US, 2 * MS),
        ];
        let p = plan(&t, &c, &reqs);
        let mut m = FabricManager::new(&t, c, &p, &[0, 1]);

        let out = m.advance(150 * US);
        assert_eq!(out.admitted, vec![0, 1]);
        assert_eq!(m.count(TenantState::Qualifying), 2);
        assert!(m.audit().is_ok());

        m.note_qualified(0, 300 * US);
        m.note_qualified(1, 400 * US);
        assert_eq!(m.count(TenantState::Guaranteed), 2);
        assert_eq!(m.tenants()[0].ttg_ns, Some(300 * US));

        // Chaos sends tenant 0 back; second guarantee keeps first TTG.
        m.requalify(0, 500 * US);
        assert_eq!(m.count(TenantState::Qualifying), 1);
        assert_eq!(m.tenants()[0].requalified, 1);
        m.note_qualified(0, 700 * US);
        assert_eq!(m.tenants()[0].ttg_ns, Some(300 * US));
        assert_eq!(m.tenants()[0].guaranteed_spans.len(), 1);

        // Departure closes spans and frees capacity; reclaim follows
        // only after the teardown grace (1 ms) has elapsed.
        let out = m.advance(2500 * US);
        assert_eq!(out.departing.len(), 2);
        assert_eq!(m.count(TenantState::Departing), 2);
        assert!(m.ledger().utilization().abs() < 1e-12);
        assert!(m.audit().is_ok());
        m.advance(2500 * US + c.reclaim_grace + 1);
        assert_eq!(m.count(TenantState::Reclaimed), 2);
        assert_eq!(m.tenants()[0].guaranteed_spans.len(), 2);
        assert!(m.audit().is_ok());
    }

    #[test]
    fn replay_ledger_matches_plan_at_every_decision() {
        let t = topo();
        let c = cfg();
        let mut reqs = Vec::new();
        for i in 0..24 {
            reqs.push(req(
                &format!("t{i}"),
                1 + i % 3,
                1.0 + (i % 4) as f64,
                (i as Time) * 30 * US,
                (1 + i as Time % 5) * MS,
            ));
        }
        let p = plan(&t, &c, &reqs);
        assert!(!p.admitted.is_empty());
        let ids: Vec<u32> = (0..p.admitted.len() as u32).collect();
        let mut m = FabricManager::new(&t, c, &p, &ids);
        let mut now = 0;
        while now < 30 * MS {
            m.advance(now);
            assert!(m.audit().is_ok(), "audit failed at {now}");
            now += 100 * US;
        }
        m.advance(40 * MS);
        assert_eq!(m.count(TenantState::Reclaimed), p.admitted.len());
        assert!(m.ledger().utilization().abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "illegal transition")]
    fn illegal_transition_panics() {
        let t = topo();
        let c = cfg();
        let p = plan(&t, &c, &[req("a", 1, 1.0, 0, MS)]);
        let mut m = FabricManager::new(&t, c, &p, &[0]);
        // Qualified before admission fired.
        m.note_qualified(0, 0);
    }

    fn abuse_cfg() -> AbuseCfg {
        AbuseCfg {
            quarantine_hold: 500 * US,
            probation: 500 * US,
            ..AbuseCfg::default()
        }
    }

    #[test]
    fn sustained_abuse_walks_quarantine_ladder_and_reinstates() {
        let t = topo();
        let c = cfg();
        let p = plan(&t, &c, &[req("mal", 2, 2.0, 0, 20 * MS)]);
        let mut m = FabricManager::new(&t, c, &p, &[0]);
        m.enable_abuse(abuse_cfg());
        m.advance(0);
        m.note_qualified(0, 100 * US);
        let committed = m.ledger().utilization();
        assert!(committed > 0.0);

        // Sustained abuse: policed + probe-throttled every tick.
        let mut now = 200 * US;
        let mut clamp = None;
        for _ in 0..32 {
            m.note_enforcement(0, 3, 1, 0);
            for a in m.abuse_tick(now) {
                clamp = Some(a);
            }
            assert!(m.audit().is_ok(), "audit during ladder at {now}");
            if m.tenants()[0].state == TenantState::Quarantined {
                break;
            }
            now += 50 * US;
        }
        let a = clamp.expect("clamp action emitted");
        assert_eq!(a.clamp, Some(abuse_cfg().penalty_fraction));
        assert_eq!(m.tenants()[0].state, TenantState::Quarantined);
        // Guarantee released back to the ledger, span closed.
        assert!(m.ledger().utilization().abs() < 1e-12);
        assert_eq!(m.abuse().unwrap().quarantines(0), 1);
        assert_eq!(m.tenants()[0].guaranteed_spans.len(), 1);

        // Abuse stops: score decays through the hold, then reinstate.
        let mut unclamp = None;
        for _ in 0..64 {
            now += 50 * US;
            for a in m.abuse_tick(now) {
                unclamp = Some(a);
            }
            assert!(m.audit().is_ok(), "audit during hold at {now}");
            if m.tenants()[0].state == TenantState::Reinstated {
                break;
            }
        }
        assert_eq!(unclamp.expect("unclamp action emitted").clamp, None);
        assert!((m.ledger().utilization() - committed).abs() < 1e-9);
        // Probation elapses back to full Guaranteed.
        for _ in 0..16 {
            now += 100 * US;
            m.abuse_tick(now);
        }
        assert_eq!(m.tenants()[0].state, TenantState::Guaranteed);
        assert!(m.audit().is_ok());
    }

    #[test]
    fn departure_while_quarantined_does_not_double_release() {
        let t = topo();
        let c = cfg();
        let p = plan(&t, &c, &[req("mal", 1, 1.0, 0, 2 * MS)]);
        let mut m = FabricManager::new(&t, c, &p, &[0]);
        m.enable_abuse(abuse_cfg());
        m.advance(0);
        m.note_qualified(0, 100 * US);
        let mut now = 200 * US;
        while m.tenants()[0].state != TenantState::Quarantined {
            m.note_enforcement(0, 1, 1, 1);
            m.abuse_tick(now);
            now += 50 * US;
            assert!(now < 2 * MS, "never quarantined");
        }
        // Departure fires with the tenant still quarantined: its
        // capacity was already released, so the ledger stays balanced
        // and the audit (which excludes Quarantined) keeps passing.
        m.advance(2 * MS);
        assert_eq!(m.tenants()[0].state, TenantState::Departing);
        assert!(m.ledger().utilization().abs() < 1e-12);
        assert!(m.audit().is_ok());
        m.advance(2 * MS + c.reclaim_grace);
        assert_eq!(m.tenants()[0].state, TenantState::Reclaimed);
        assert!(m.audit().is_ok());
    }

    #[test]
    fn bursty_honest_tenant_never_suspected() {
        let t = topo();
        let c = cfg();
        let p = plan(&t, &c, &[req("bursty", 1, 1.0, 0, 20 * MS)]);
        let mut m = FabricManager::new(&t, c, &p, &[0]);
        m.enable_abuse(abuse_cfg());
        m.advance(0);
        m.note_qualified(0, 100 * US);
        // Policed in every *other* observation window: the decayed
        // score peaks at 1/(1 − d²) = 4/3 < enter (1.5), so the
        // hysteresis keeps the tenant in Guaranteed forever.
        let mut now = 200 * US;
        for tick in 0..128 {
            if tick % 2 == 0 {
                m.note_enforcement(0, 1, 0, 0);
            }
            assert!(m.abuse_tick(now).is_empty());
            assert_eq!(m.tenants()[0].state, TenantState::Guaranteed);
            now += 50 * US;
        }
        assert_eq!(m.abuse().unwrap().quarantines(0), 0);
    }

    #[test]
    fn requested_to_guaranteed_requires_advance() {
        let t = topo();
        let c = cfg();
        let p = plan(&t, &c, &[req("a", 1, 1.0, 0, MS)]);
        let mut m = FabricManager::new(&t, c, &p, &[0]);
        assert_eq!(m.count(TenantState::Requested), 1);
        m.advance(0);
        assert_eq!(m.count(TenantState::Qualifying), 1);
        m.note_qualified(0, 10 * US);
        assert_eq!(m.count(TenantState::Guaranteed), 1);
    }
}
