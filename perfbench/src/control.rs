//! The `control` workload: a seeded stream of operator ops driven
//! straight into `fabricd::FabricService`, with no simulator.
//!
//! The service manages the 512-server paper FatTree. One closed-loop
//! caller submits each op and advances the service clock until the op
//! is applied. The stream is the control plane of `repro ops --quick
//! --ops-script mixed` (`experiments::scenarios::ops`), repeated: each
//! [`WINDOW`] is the arrival window of one `ops` cell, with that cell's
//! tenant arrivals from `workloads::churn::gen_trace` and its operator
//! script ([`SCRIPT`]). After each restore the caller carries on
//! against the restored service, as an operator would after a
//! failover.

use crate::cell::secs;
use experiments::scenarios::fig17::build_topo;
use fabric::AdmissionCfg;
use fabricd::{FabricOp, FabricReply, FabricService};
use netsim::{Time, MS, US};
use std::sync::Arc;
use std::time::Instant;
use topology::Topo;
use workloads::churn::{gen_trace, ChurnCfg};

/// Servers of the managed fabric.
pub const SERVERS: usize = 512;
/// Tenant arrival rate (tenants/s) of the 512-server `ops` cell.
const ARRIVALS_PER_SEC: f64 = 8_000.0;
/// The arrival window of one quick `repro ops` cell; the operator
/// script runs once per window.
const WINDOW: Time = 48 * MS;
/// Windows in one pass: about one simulated second of arrivals.
const WINDOWS: u64 = 21;
/// A resize only targets a tenant with at least this long to live, so
/// its scheduled departure cannot overtake the op.
const TARGET_MARGIN: Time = MS;

/// One operator action of the script.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// Cordon the first core switch (spread-table rebuild around it).
    CordonCore,
    /// Grow or shrink up to four active tenants in id order.
    Resize,
    /// Snapshot, restore and audit the service; carry on with the
    /// restored one.
    Failover,
    /// Cordon and drain the first host carrying an active tenant.
    DrainHost,
    /// Lift the core cordon, if it was granted.
    UncordonCore,
    /// Return the drained host to service, so every window starts from
    /// the whole fabric, as every `ops` cell does.
    UncordonHost,
}

/// The `mixed` preset of `repro ops` with its default snapshot instant
/// (half-way), as percent of the window at which each step runs, plus
/// the return of the drained host at the window's end.
const SCRIPT: [(u64, Step); 7] = [
    (25, Step::CordonCore),
    (35, Step::Resize),
    (50, Step::Failover),
    (55, Step::Resize),
    (70, Step::DrainHost),
    (85, Step::UncordonCore),
    (100, Step::UncordonHost),
];

/// The op kinds whose latency is reported per kind.
pub const KINDS: [&str; 5] = ["admit", "resize", "drain", "cordon", "uncordon"];

/// One pass of the stream.
#[derive(Debug, Default)]
pub struct ControlPass {
    /// Host seconds before the first op.
    pub setup_s: f64,
    /// Host seconds from the first op to the last.
    pub wall_s: f64,
    /// Host seconds building the topology.
    pub build_s: f64,
    /// Hosts in the managed fabric.
    pub hosts: usize,
    /// Ops submitted.
    pub ops: u64,
    /// Snapshot → restore → audit cycles performed.
    pub restores: u64,
    /// Service digest at the end of the stream.
    pub digest: u64,
    /// Host µs of every op, submit through the `advance` applying it.
    pub op_us: Vec<f64>,
    /// The same, split by [`KINDS`].
    pub kind_us: [Vec<f64>; 5],
    /// Host seconds of every snapshot → restore → audit cycle.
    pub failover_s: f64,
    /// End-of-stream snapshot: host ms to render it.
    pub snapshot_ms: f64,
    /// Size of the end-of-stream snapshot.
    pub snapshot_bytes: usize,
    /// Host ms to restore the end-of-stream snapshot.
    pub restore_ms: f64,
    /// Host ms to audit the restored service.
    pub audit_ms: f64,
    /// Admissions refused over admissions submitted.
    pub reject_ratio: f64,
    /// Drains the service rolled back (the host was not emptied).
    pub drains_rolled_back: u64,
    /// Core cordons the service refused (see [`is_cordon_refusal`]).
    pub cordons_refused: u64,
    /// Ops answered with `Error`, and restores that failed a check.
    pub faults: Vec<String>,
    /// Host seconds of one record-kernel sample taken right after the
    /// timed section.
    pub reference_s: f64,
}

struct Caller {
    svc: FabricService,
    topo: Arc<Topo>,
    now: Time,
    out: ControlPass,
}

impl Caller {
    /// Submit `op` no earlier than `at`, then advance until it is
    /// applied. Returns the reply.
    fn call(&mut self, at: Time, op: FabricOp) -> FabricReply {
        let op_kind = op.label();
        let kind = KINDS.iter().position(|&k| k == op_kind);
        let t0 = Instant::now();
        self.now = self.now.max(at);
        let seq = self.svc.submit(self.now, op);
        let reply = loop {
            let applied = self.svc.advance(self.now);
            if let Some(a) = applied.into_iter().find(|a| a.seq == seq) {
                break a.reply;
            }
            self.now += self.svc.cfg().decision_gap.max(1);
        };
        let us = t0.elapsed().as_secs_f64() * 1e6;
        self.out.op_us.push(us);
        if let Some(k) = kind {
            self.out.kind_us[k].push(us);
        }
        self.out.ops += 1;
        if let FabricReply::Error { detail } = &reply {
            if is_cordon_refusal(op_kind, detail) {
                self.out.cordons_refused += 1;
            } else {
                self.out.faults.push(format!("op {seq}: {detail}"));
            }
        }
        reply
    }

    /// Snapshot, restore and audit; carry on with the restored service.
    fn failover(&mut self) {
        let t = Instant::now();
        self.out.restores += 1;
        let t0 = Instant::now();
        let snap = self.svc.snapshot();
        self.out.snapshot_ms = secs(t0) * 1e3;
        self.out.snapshot_bytes = snap.len();
        let t1 = Instant::now();
        let restored = FabricService::restore(Arc::clone(&self.topo), &snap);
        self.out.restore_ms = secs(t1) * 1e3;
        match restored {
            Ok(restored) => {
                let t2 = Instant::now();
                let audit = restored.audit();
                self.out.audit_ms = secs(t2) * 1e3;
                if let Err(e) = audit {
                    self.out
                        .faults
                        .push(format!("restored service fails audit: {e}"));
                } else if restored.digest() != self.svc.digest() {
                    self.out.faults.push(format!(
                        "restored digest {:016x} != {:016x}",
                        restored.digest(),
                        self.svc.digest()
                    ));
                } else {
                    self.svc = restored;
                }
            }
            Err(e) => self.out.faults.push(format!("restore failed: {e}")),
        }
        self.out.failover_s += secs(t);
    }

    /// The ops of one script step at `at`. `live` holds the admitted
    /// tenants in id order; those that have left are dropped from it.
    fn step(&mut self, at: Time, step: Step, live: &mut Vec<u32>, st: &mut ScriptState) {
        let core = self.topo.cores[0].raw();
        match step {
            Step::CordonCore => {
                st.core_cordoned = matches!(
                    self.call(at, FabricOp::Cordon { node: core }),
                    FabricReply::Cordoned { .. }
                );
            }
            Step::UncordonCore => {
                if std::mem::take(&mut st.core_cordoned) {
                    self.call(at, FabricOp::Uncordon { node: core });
                }
            }
            Step::Resize => {
                self.now = self.now.max(at);
                let tenants = self.svc.tenants();
                live.retain(|&t| tenants[t as usize].is_live());
                let targets: Vec<(u32, f64)> = live
                    .iter()
                    .map(|&t| (t, &tenants[t as usize]))
                    .filter(|(_, r)| r.is_active() && r.depart_at > self.now + TARGET_MARGIN)
                    .take(4)
                    .map(|(t, r)| {
                        // Alternate grow and shrink, as the preset does,
                        // so both the commit and the release path run.
                        let grow = (t + st.resize_round).is_multiple_of(2);
                        (t, r.tokens_per_vm * if grow { 1.25 } else { 0.75 })
                    })
                    .collect();
                st.resize_round += 1;
                for (tenant, new_tokens_per_vm) in targets {
                    self.call(
                        at,
                        FabricOp::Resize {
                            tenant,
                            new_tokens_per_vm,
                        },
                    );
                }
            }
            Step::Failover => {
                self.now = self.now.max(at);
                self.failover();
            }
            Step::DrainHost => {
                self.now = self.now.max(at);
                let tenants = self.svc.tenants();
                live.retain(|&t| tenants[t as usize].is_live());
                let Some(host) = live
                    .iter()
                    .map(|&t| &tenants[t as usize])
                    .find(|r| r.is_active())
                    .map(|r| r.hosts[0].raw())
                else {
                    return;
                };
                match self.call(at, FabricOp::Drain { node: host }) {
                    FabricReply::Drained { node, .. } => st.drained = Some(node),
                    FabricReply::DrainFailed { .. } => self.out.drains_rolled_back += 1,
                    _ => {}
                }
            }
            Step::UncordonHost => {
                if let Some(node) = st.drained.take() {
                    self.call(at, FabricOp::Uncordon { node });
                }
            }
        }
    }
}

/// What the script carries from one step to the next.
#[derive(Default)]
struct ScriptState {
    /// Resize steps so far (picks grow or shrink).
    resize_round: u32,
    /// The host the window's drain emptied.
    drained: Option<u32>,
    /// Whether the window's core cordon was granted.
    core_cordoned: bool,
}

/// Whether `detail`, the `Error` answer to an op of kind `op_kind`, is
/// the service refusing a switch cordon. Cordoning an agg or core
/// switch re-seats every guarantee around it, all or nothing; when one
/// no longer fits, the service keeps the switch in service and answers
/// `Error` "cordon of <kind> <node> rejected: …". That is a refusal,
/// like an admission rejection or a rolled-back drain, not a fault.
fn is_cordon_refusal(op_kind: &str, detail: &str) -> bool {
    op_kind == "cordon" && detail.starts_with("cordon of ") && detail.contains(" rejected: ")
}

/// One pass of the stream.
pub fn pass(seed: u64) -> ControlPass {
    let ((topo, trace, svc, build_s), setup_s) = crate::cell::set_up(|| {
        let t0 = Instant::now();
        let topo = Arc::new(build_topo(SERVERS, false));
        let build_s = secs(t0);
        let trace = gen_trace(&ChurnCfg {
            seed,
            arrivals_per_sec: ARRIVALS_PER_SEC,
            first_arrival: 0,
            last_arrival: WINDOWS * WINDOW - 1,
            mean_lifetime_ns: 5e6,
            sigma_lifetime: 0.8,
            min_lifetime: 600 * US,
            max_lifetime: 20 * MS,
        });
        let svc = FabricService::new(Arc::clone(&topo), AdmissionCfg::default());
        (topo, trace, svc, build_s)
    });
    let out = ControlPass {
        setup_s,
        build_s,
        hosts: topo.hosts.len(),
        ..ControlPass::default()
    };
    let mut c = Caller {
        svc,
        topo,
        now: 0,
        out,
    };

    let t1 = Instant::now();
    let mut live: Vec<u32> = Vec::new();
    let mut st = ScriptState::default();
    // Script instants in order; arrivals win ties, as in `repro ops`.
    let mut script = (0..WINDOWS).flat_map(|w| {
        SCRIPT
            .iter()
            .map(move |&(pct, step)| (w * WINDOW + WINDOW * pct / 100, step))
    });
    let mut next = script.next();
    let mut admitted = 0usize;
    for (i, a) in trace.iter().enumerate() {
        while let Some((at, step)) = next.filter(|&(at, _)| at < a.arrival) {
            c.step(at, step, &mut live, &mut st);
            next = script.next();
        }
        let reply = c.call(
            a.arrival,
            FabricOp::Admit {
                name: format!("t{i}"),
                n_vms: a.n_vms,
                tokens_per_vm: a.tokens_per_vm,
                lifetime: a.lifetime,
            },
        );
        if let FabricReply::Admitted { tenant, .. } = reply {
            live.push(tenant);
            admitted += 1;
        }
    }
    while let Some((at, step)) = next {
        c.step(at, step, &mut live, &mut st);
        next = script.next();
    }
    // The end-of-stream failover gives the reported snapshot figures.
    c.failover();
    c.out.wall_s = secs(t1);
    c.out.reference_s = crate::reference::records();

    // A restored service must re-render its snapshot byte for byte.
    let snap = c.svc.snapshot();
    match FabricService::restore(Arc::clone(&c.topo), &snap) {
        Ok(s) if s.snapshot() == snap => {}
        Ok(_) => c
            .out
            .faults
            .push("restore does not re-snapshot byte-identically".into()),
        Err(e) => c.out.faults.push(format!("final restore failed: {e}")),
    }
    c.out.digest = c.svc.digest();
    c.out.reject_ratio = (trace.len() - admitted) as f64 / trace.len().max(1) as f64;
    if c.out.hosts != SERVERS {
        let h = c.out.hosts;
        c.out
            .faults
            .push(format!("fabric has {h} hosts, workload declares {SERVERS}"));
    }
    c.out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_a_refused_switch_cordon_is_a_refusal() {
        let refused = "cordon of core 0 rejected: tenant 3 (t3) hose 1 bps no longer fits";
        assert!(is_cordon_refusal("cordon", refused));
        assert!(!is_cordon_refusal("uncordon", refused));
        assert!(!is_cordon_refusal("cordon", "node 0 is already cordoned"));
        assert!(!is_cordon_refusal(
            "cordon",
            "node 9999 is not in the topology"
        ));
    }
}
