//! Outside-in tracing: spans recorded around calls into each layer's
//! public functions, from this benchmark's own code. Nothing inside
//! the program is instrumented.
//!
//! The μFAB agents are timed by reinstalling each one inside a proxy
//! ([`TimedEdge`], [`TimedCore`]) that forwards every callback and
//! `as_any`, so the simulator's downcasts still reach the real agent.
//! Workload drivers are wrapped in [`TimedDriver`]. Everything else
//! is timed where the benchmark calls it, with [`span`].
//!
//! Spans nest on one thread. Each keeps its call count, its total
//! time, and its self time: its duration minus the part its child
//! spans cover. While no trace is active, [`span`] costs one
//! thread-local flag read and the proxies are not installed at all.

use metrics::recorder::Completion;
use netsim::{EdgeAgent, EdgeCtx, Packet, PortView, SwitchAgent, SwitchCtx};
use std::any::Any;
use std::cell::{Cell, RefCell};
use std::time::Instant;
use workloads::driver::{Driver, WorkloadPort};

/// A traced call site. The name is the layer and function it times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Site {
    /// `Simulator::start` and `Simulator::run_until`.
    Netsim,
    /// `UfabEdge::on_packet`.
    EdgeOnPacket,
    /// `UfabEdge::on_nic_idle` (the WFQ pick).
    EdgeOnNicIdle,
    /// `UfabEdge::on_timer` (the per-RTT tick).
    EdgeOnTimer,
    /// `UfabEdge::on_inject`.
    EdgeOnInject,
    /// `UfabEdge::on_start` / `on_restart`.
    EdgeOther,
    /// `UfabCore::on_egress`.
    CoreOnEgress,
    /// `UfabCore::on_timer` (the idle sweep).
    CoreOnTimer,
    /// `UfabCore::on_start` / `on_reset`.
    CoreOther,
    /// `Driver::poll` of a workload driver.
    Poll,
    /// The harness glue between run slices: draining completions and
    /// sampling watched queues.
    Harness,
    /// Simulator invariant suite (`--check-invariants`).
    SimInvariants,
    /// `FabricManager::advance`.
    ManagerAdvance,
    /// `FabricManager::abuse_tick`.
    AbuseTick,
    /// The fabric invariant suite (ledger conservation, qualifying
    /// stagger).
    FabricInvariants,
    /// The cell's own control loop between manager calls:
    /// qualification polling and the enforcement-counter sweep.
    CellLoop,
}

/// Number of [`Site`]s.
pub const N_SITES: usize = Site::CellLoop as usize + 1;

/// What one site accumulated.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Acc {
    /// Calls.
    pub calls: u64,
    /// Summed span durations (ns).
    pub total_ns: u64,
    /// Summed self time (ns): durations minus child coverage.
    pub self_ns: u64,
}

struct Frame {
    site: Site,
    start: u64,
    child_ns: u64,
}

/// A span stack over explicit timestamps. Spans opened on one thread
/// close in reverse order, so the children of a span never overlap and
/// the time they cover is the sum of their durations.
#[derive(Default)]
pub struct Tracer {
    stack: Vec<Frame>,
    acc: [Acc; N_SITES],
}

impl Tracer {
    /// Open a span of `site` at `at` ns.
    pub fn open(&mut self, site: Site, at: u64) {
        self.stack.push(Frame {
            site,
            start: at,
            child_ns: 0,
        });
    }

    /// Close the innermost open span at `at` ns.
    ///
    /// # Panics
    /// Panics if no span is open (a bug in the benchmark).
    pub fn close(&mut self, at: u64) {
        let f = self.stack.pop().expect("close without an open span");
        let dur = at.saturating_sub(f.start);
        let a = &mut self.acc[f.site as usize];
        a.calls += 1;
        a.total_ns += dur;
        a.self_ns += dur.saturating_sub(f.child_ns);
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur;
        }
    }

    /// Self time summed over every site: the time covered by spans.
    pub fn self_ns_total(&self) -> u64 {
        self.acc.iter().map(|a| a.self_ns).sum()
    }

    /// What `site` accumulated so far.
    pub fn get(&self, site: Site) -> Acc {
        self.acc[site as usize]
    }
}

thread_local! {
    static ACTIVE: Cell<bool> = const { Cell::new(false) };
    static TRACER: RefCell<Tracer> = RefCell::new(Tracer::default());
    static EPOCH: Instant = Instant::now();
}

fn now_ns() -> u64 {
    EPOCH.with(|e| e.elapsed().as_nanos() as u64)
}

/// Start a fresh trace on this thread; [`span`] records from now on.
pub fn begin() {
    TRACER.with(|t| *t.borrow_mut() = Tracer::default());
    ACTIVE.with(|a| a.set(true));
}

/// Whether a trace is recording on this thread.
pub fn active() -> bool {
    ACTIVE.with(Cell::get)
}

/// Stop recording and return what was recorded.
pub fn end() -> Tracer {
    ACTIVE.with(|a| a.set(false));
    TRACER.with(|t| std::mem::take(&mut *t.borrow_mut()))
}

/// Run `f` inside a span of `site` when a trace is active; otherwise
/// just run it.
#[inline]
pub fn span<R>(site: Site, f: impl FnOnce() -> R) -> R {
    if !active() {
        return f();
    }
    timed(site, f)
}

#[inline]
fn timed<R>(site: Site, f: impl FnOnce() -> R) -> R {
    TRACER.with(|t| t.borrow_mut().open(site, now_ns()));
    let out = f();
    TRACER.with(|t| t.borrow_mut().close(now_ns()));
    out
}

/// An edge agent inside a timing proxy.
pub struct TimedEdge<A: EdgeAgent>(pub A);

impl<A: EdgeAgent> EdgeAgent for TimedEdge<A> {
    fn on_start(&mut self, ctx: &mut EdgeCtx) {
        timed(Site::EdgeOther, || self.0.on_start(ctx))
    }
    fn on_packet(&mut self, ctx: &mut EdgeCtx, pkt: Packet) {
        timed(Site::EdgeOnPacket, || self.0.on_packet(ctx, pkt))
    }
    fn on_timer(&mut self, ctx: &mut EdgeCtx, kind: u64) {
        timed(Site::EdgeOnTimer, || self.0.on_timer(ctx, kind))
    }
    fn on_nic_idle(&mut self, ctx: &mut EdgeCtx) {
        timed(Site::EdgeOnNicIdle, || self.0.on_nic_idle(ctx))
    }
    fn on_inject(&mut self, ctx: &mut EdgeCtx, msg: netsim::msg::Inject) {
        timed(Site::EdgeOnInject, || self.0.on_inject(ctx, msg))
    }
    fn on_restart(&mut self, ctx: &mut EdgeCtx) {
        timed(Site::EdgeOther, || self.0.on_restart(ctx))
    }
    fn as_any(&self) -> &dyn Any {
        self.0.as_any()
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.0.as_any_mut()
    }
}

/// A switch agent inside a timing proxy.
pub struct TimedCore<A: SwitchAgent>(pub A);

impl<A: SwitchAgent> SwitchAgent for TimedCore<A> {
    fn on_start(&mut self, ctx: &mut SwitchCtx) {
        timed(Site::CoreOther, || self.0.on_start(ctx))
    }
    fn on_egress(&mut self, ctx: &mut SwitchCtx, view: PortView, pkt: &mut Packet) {
        timed(Site::CoreOnEgress, || self.0.on_egress(ctx, view, pkt))
    }
    fn on_timer(&mut self, ctx: &mut SwitchCtx, kind: u64) {
        timed(Site::CoreOnTimer, || self.0.on_timer(ctx, kind))
    }
    fn on_reset(&mut self, ctx: &mut SwitchCtx) {
        timed(Site::CoreOther, || self.0.on_reset(ctx))
    }
    fn as_any(&self) -> &dyn Any {
        self.0.as_any()
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.0.as_any_mut()
    }
}

/// A workload driver whose `poll` is timed under [`Site::Poll`].
pub struct TimedDriver<'a>(pub &'a mut dyn Driver);

impl Driver for TimedDriver<'_> {
    fn poll(&mut self, port: &mut dyn WorkloadPort, completions: &[Completion]) {
        span(Site::Poll, || self.0.poll(port, completions))
    }
    fn next_wake(&self) -> netsim::Time {
        self.0.next_wake()
    }
    fn done(&self) -> bool {
        self.0.done()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_child_coverage() {
        let mut t = Tracer::default();
        // Netsim [0, 100) holds two agent calls, [10, 30) and [50, 55),
        // the first of which holds a nested poll [12, 18).
        t.open(Site::Netsim, 0);
        t.open(Site::EdgeOnPacket, 10);
        t.open(Site::Poll, 12);
        t.close(18);
        t.close(30);
        t.open(Site::CoreOnEgress, 50);
        t.close(55);
        t.close(100);
        let n = t.get(Site::Netsim);
        assert_eq!((n.calls, n.total_ns, n.self_ns), (1, 100, 75));
        let e = t.get(Site::EdgeOnPacket);
        assert_eq!((e.calls, e.total_ns, e.self_ns), (1, 20, 14));
        assert_eq!(t.get(Site::Poll).self_ns, 6);
        assert_eq!(t.get(Site::CoreOnEgress).total_ns, 5);
        // Self times partition the outermost span.
        let sum: u64 = t.acc.iter().map(|a| a.self_ns).sum();
        assert_eq!(sum, 100);
    }

    #[test]
    fn spans_accumulate_across_calls() {
        let mut t = Tracer::default();
        for k in 0..3 {
            t.open(Site::ManagerAdvance, k * 10);
            t.close(k * 10 + 4);
        }
        assert_eq!(
            t.get(Site::ManagerAdvance),
            Acc {
                calls: 3,
                total_ns: 12,
                self_ns: 12
            }
        );
    }

    #[test]
    fn span_records_only_while_active() {
        span(Site::Harness, || ());
        begin();
        span(Site::Harness, || span(Site::Poll, || ()));
        let t = end();
        span(Site::Harness, || ());
        assert_eq!(t.get(Site::Harness).calls, 1);
        assert_eq!(t.get(Site::Poll).calls, 1);
        assert!(t.get(Site::Harness).total_ns >= t.get(Site::Poll).total_ns);
    }
}
