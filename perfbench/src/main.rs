//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <churn|control> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it times the workload as the program runs it and
//! prints the end-to-end metrics; with `--trace 1` it adds a traced
//! pass and prints the per-layer metrics. Readable lines come first;
//! the last line is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. See README.md beside this crate for why each
//! workload was chosen and which layer moves which metric.

mod cell;
mod churn;
mod control;
mod reference;
mod stats;
mod trace;

use cell::{secs, Mode, SimPass};
use stats::{median, quartiles, seed_balanced, Summary, Tally};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;
use trace::{Site, Tracer};

/// End-to-end metrics, `(name, unit)`, reported with `--trace 0`.
///
/// `work_ref_ns` is a pass's host time per unit of work: per simulated
/// event on `churn`, per operator op on `control`. A seed's unit count
/// is fixed (the event count is pinned by the digest), which takes out
/// the difference in work between the cells of different seeds. It and
/// `setup_s` are scaled to the host speed of a quiet stretch by the
/// workload's reference kernel, sampled in the same stretch (see
/// [`reference`]), which takes out the host's slow spells. The unscaled
/// host times are printed.
const END_TO_END: [(&str, &str); 3] = [
    ("work_ref_ns", "ns"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, `(name, unit)`, reported with `--trace 1`. A
/// metric of a layer the workload does not run reads 0.
const PER_LAYER: [(&str, &str); 72] = [
    ("netsim.events", "count"),
    ("netsim.self_s", "s"),
    ("netsim.ns_per_event", "ns"),
    ("netsim.arena_fresh_ratio", "ratio"),
    ("netsim.probe_byte_share", "ratio"),
    ("netsim.drops", "count"),
    ("netsim.retx_pkts", "count"),
    ("netsim.shard_speedup", "ratio"),
    ("ufab.edge.on_packet.calls", "count"),
    ("ufab.edge.on_packet.s", "s"),
    ("ufab.edge.on_packet.ns", "ns"),
    ("ufab.edge.on_nic_idle.calls", "count"),
    ("ufab.edge.on_nic_idle.s", "s"),
    ("ufab.edge.on_nic_idle.ns", "ns"),
    ("ufab.edge.on_timer.calls", "count"),
    ("ufab.edge.on_timer.s", "s"),
    ("ufab.edge.on_timer.ns", "ns"),
    ("ufab.edge.on_inject.calls", "count"),
    ("ufab.edge.on_inject.s", "s"),
    ("ufab.edge.on_inject.ns", "ns"),
    ("ufab.core.on_egress.calls", "count"),
    ("ufab.core.on_egress.s", "s"),
    ("ufab.core.on_egress.ns", "ns"),
    ("ufab.core.on_timer.calls", "count"),
    ("ufab.core.on_timer.s", "s"),
    ("workloads.poll.calls", "count"),
    ("workloads.poll.s", "s"),
    ("experiments.harness.s", "s"),
    ("experiments.cell_loop.s", "s"),
    ("fabric.manager_advance.calls", "count"),
    ("fabric.manager_advance.s", "s"),
    ("fabric.abuse_tick.calls", "count"),
    ("fabric.abuse_tick.s", "s"),
    ("fabric.invariants.calls", "count"),
    ("fabric.invariants.s", "s"),
    ("fabric.plan_s", "s"),
    ("topology.build_s", "s"),
    ("fabricd.op.p50_us", "us"),
    ("fabricd.op.p99_us", "us"),
    ("fabricd.admit.calls", "count"),
    ("fabricd.admit.p50_us", "us"),
    ("fabricd.admit.tail_us", "us"),
    ("fabricd.admit.share", "ratio"),
    ("fabricd.resize.calls", "count"),
    ("fabricd.resize.p50_us", "us"),
    ("fabricd.resize.tail_us", "us"),
    ("fabricd.resize.share", "ratio"),
    ("fabricd.drain.calls", "count"),
    ("fabricd.drain.p50_us", "us"),
    ("fabricd.drain.tail_us", "us"),
    ("fabricd.drain.share", "ratio"),
    ("fabricd.drain.rolled_back", "count"),
    ("fabricd.cordon.calls", "count"),
    ("fabricd.cordon.p50_us", "us"),
    ("fabricd.cordon.tail_us", "us"),
    ("fabricd.cordon.share", "ratio"),
    ("fabricd.cordon.refused", "count"),
    ("fabricd.uncordon.calls", "count"),
    ("fabricd.uncordon.p50_us", "us"),
    ("fabricd.uncordon.tail_us", "us"),
    ("fabricd.uncordon.share", "ratio"),
    ("fabricd.failover.share", "ratio"),
    ("fabricd.snapshot_ms", "ms"),
    ("fabricd.snapshot_bytes", "bytes"),
    ("fabricd.restore_ms", "ms"),
    ("fabricd.audit_ms", "ms"),
    ("fabricd.reject_ratio", "ratio"),
    ("obs.digest_share", "ratio"),
    ("obs.sim_invariants.calls", "count"),
    ("obs.sim_invariants.s", "s"),
    ("trace.overhead", "ratio"),
    ("trace.accounted_share", "ratio"),
];

/// Fewest rotations over the seeds a run without tracing makes.
const MIN_ROTATIONS: usize = 2;
/// Without tracing, timed passes rotate over this many seeds derived
/// from `--seed` (the first is `--seed` itself), so a run's figures
/// describe several cells of the workload rather than one.
const SUBSEEDS: u64 = 4;

/// The seeds a run's timed passes rotate over. A traced run times the
/// cell of `--seed` alone, so traced and untraced passes are the same
/// cell.
fn pass_seeds(args: &Args) -> Vec<u64> {
    let n = if args.trace { 1 } else { SUBSEEDS };
    (0..n)
        .map(|j| args.seed.wrapping_add(j * 1_000_003))
        .collect()
}

/// A run starts no pass that would end after this many host seconds,
/// so it ends well inside its time limit.
const HARD_STOP_S: f64 = 120.0;

/// Timed passes a run makes at least: one with tracing, else
/// [`MIN_ROTATIONS`] rotations over the seeds.
fn min_passes(args: &Args) -> usize {
    if args.trace {
        1
    } else {
        MIN_ROTATIONS * SUBSEEDS as usize
    }
}

/// Whether to stop after `passes` timed passes of a rotation over
/// `rotation` seeds, `spent_s` host seconds of timed passes into a run
/// that has lasted `run_s`. A run stops only at the end of a rotation,
/// so every seed has as many passes as every other, once `min_passes`
/// are done, at the rotation end nearest to `seconds` of timed passes.
/// It also stops, wherever it is, when another pass as long as the
/// passes so far would carry it past [`HARD_STOP_S`].
fn stop_after(
    seconds: f64,
    passes: usize,
    rotation: usize,
    min_passes: usize,
    spent_s: f64,
    run_s: f64,
) -> bool {
    let per_pass = spent_s / passes as f64;
    let half_rotation = per_pass * rotation as f64 / 2.0;
    run_s + per_pass > HARD_STOP_S
        || (passes >= min_passes
            && passes.is_multiple_of(rotation)
            && spent_s + half_rotation > seconds)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if seconds.is_nan() || seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["churn", "control"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?} (churn, control)"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// What a run prints.
struct Report {
    metrics: Vec<(&'static str, f64, &'static str)>,
    tally: Tally,
}

impl Report {
    fn new(table: &[(&'static str, &'static str)]) -> Self {
        Self {
            metrics: table.iter().map(|&(n, u)| (n, 0.0, u)).collect(),
            tally: Tally::default(),
        }
    }

    /// Set a declared metric.
    ///
    /// # Panics
    /// Panics on a name the table does not declare (a benchmark bug).
    fn set(&mut self, name: &str, value: f64) {
        let m = self
            .metrics
            .iter_mut()
            .find(|(n, _, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not declared"));
        m.1 = value;
    }

    /// Set a timing to its seed-balanced figure, and print it.
    fn set_timing(&mut self, name: &str, unit: &str, xs: &[(u64, f64)]) {
        self.set(name, print_timing(name, unit, xs));
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|&(n, v, u)| {
                let v = if v.is_finite() { v } else { 0.0 };
                format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.tally.failed == 0,
            self.tally.attempted.max(1),
            self.tally.failed,
            metrics.join(", ")
        )
    }
}

/// Print a timing's seed-balanced figure with the quartiles of the
/// samples and their count, and return the figure.
fn print_timing(name: &str, unit: &str, xs: &[(u64, f64)]) -> f64 {
    let all: Vec<f64> = xs.iter().map(|&(_, x)| x).collect();
    let (q1, q3) = quartiles(&all);
    let m = seed_balanced(xs);
    println!(
        "{name:<28} {m:>14.6} {unit:<6} q1 {q1:.6}  q3 {q3:.6}  n {}",
        xs.len()
    );
    m
}

/// The host times of one untraced pass.
struct PassTimes {
    /// Host seconds of the timed section.
    wall_s: f64,
    /// Units of work in it: simulated events, or operator ops.
    units: u64,
    /// Host seconds of the set-up.
    setup_s: f64,
    /// Quiet-host seconds per host second in this pass: the reference
    /// kernel's nominal time over its measured time.
    speed: f64,
}

/// Print the unscaled timings of the passes and set the end-to-end
/// metrics from them and from the peak resident memory `rss`.
fn set_end_to_end(rep: &mut Report, times: &[(u64, PassTimes)], rss: f64) {
    let of = |f: &dyn Fn(&PassTimes) -> f64| -> Vec<(u64, f64)> {
        times.iter().map(|(s, t)| (*s, f(t))).collect()
    };
    let work_ns = |t: &PassTimes| t.wall_s * 1e9 / t.units.max(1) as f64;
    print_timing("wall_s", "s", &of(&|t| t.wall_s));
    print_timing("work_ns", "ns", &of(&work_ns));
    print_timing("setup_host_s", "s", &of(&|t| t.setup_s));
    print_timing("reference_speed", "ratio", &of(&|t| t.speed));
    rep.set_timing("work_ref_ns", "ns", &of(&|t| work_ns(t) * t.speed));
    rep.set_timing("setup_s", "s", &of(&|t| t.setup_s * t.speed));
    println!("{:<28} {rss:>14.1} MB", "peak_rss_mb");
    rep.set("peak_rss_mb", rss);
}

/// Peak resident memory of this process so far, in MB (`VmHWM`). A run
/// reads it once every seed has had a pass, so the figure covers a
/// fixed amount of work however many passes the run goes on to make.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Run `f`, turning a panic into a counted failure.
fn guarded<T>(tally: &mut Tally, what: &str, f: impl FnOnce() -> T) -> Option<T> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(v) => Some(v),
        Err(_) => {
            tally.fail(format!("{what} panicked"));
            None
        }
    }
}

/// The pass's faults, and its digest and event count against the
/// library's run of the same seed. One attempt.
fn check_pass(tally: &mut Tally, seed: u64, p: &SimPass, reference: (u64, u64), digest: bool) {
    let mut faults = p.faults.clone();
    if p.events() != reference.0 {
        faults.push(format!("{} events, reference {}", p.events(), reference.0));
    }
    if digest && p.digest != Some(reference.1) {
        faults.push(format!(
            "digest {}, reference {:016x}",
            p.digest.map_or("-".into(), |d| format!("{d:016x}")),
            reference.1
        ));
    }
    tally.check(faults.is_empty(), || {
        format!("seed {seed}: {}", faults.join("; "))
    });
}

fn run_churn(args: &Args) -> Report {
    let seed = args.seed;
    let mut rep = Report::new(if args.trace { &PER_LAYER } else { &END_TO_END });
    let t_run = Instant::now();
    let seeds = pass_seeds(args);

    // Warm-up, discarded: the library's own run of the cell of every
    // seed the run times. Its event count and digest are the reference
    // every pass of that seed must match.
    let mut refs = BTreeMap::new();
    for &s in &seeds {
        let Some(r) = guarded(&mut rep.tally, "library run", || churn::library(s)) else {
            return rep;
        };
        rep.tally.ok();
        println!("reference seed {s}  events {}  digest {:016x}", r.0, r.1);
        refs.insert(s, r);
    }
    let reference = refs[&seed];

    // Timed passes; with tracing, each untraced pass is followed by a
    // traced one and one with the determinism hash off.
    let mut plain: Vec<(u64, SimPass)> = Vec::new();
    let mut traced: Vec<(SimPass, Tracer)> = Vec::new();
    let mut hash_off: Vec<f64> = Vec::new();
    let t_timed = Instant::now();
    let min_passes = min_passes(args);
    let mut rss = 0.0;
    for n in 1.. {
        let s = seeds[(n - 1) % seeds.len()];
        if let Some(p) = guarded(&mut rep.tally, "pass", || churn::pass(s, Mode::default())) {
            check_pass(&mut rep.tally, s, &p, refs[&s], true);
            plain.push((s, p));
        }
        if args.trace {
            let mode = Mode {
                proxies: true,
                ..Mode::default()
            };
            trace::begin();
            let p = guarded(&mut rep.tally, "traced pass", || churn::pass(seed, mode));
            let tr = trace::end();
            if let Some(p) = p {
                check_pass(&mut rep.tally, seed, &p, reference, true);
                traced.push((p, tr));
            }
            // The determinism hash off: what hashing costs.
            let off = Mode {
                det_hash: false,
                ..Mode::default()
            };
            if let Some(p) = guarded(&mut rep.tally, "hash-off pass", || churn::pass(seed, off)) {
                check_pass(&mut rep.tally, seed, &p, reference, false);
                hash_off.push(p.wall_s);
            }
        }
        if n == seeds.len() {
            rss = peak_rss_mb();
        }
        let (spent, run) = (secs(t_timed), secs(t_run));
        if stop_after(args.seconds, n, seeds.len(), min_passes, spent, run) {
            break;
        }
    }
    // The first pass is the cell of `--seed` itself.
    let Some((_, own)) = plain.first().cloned() else {
        return rep;
    };
    println!(
        "{} servers, {} events, digest {}",
        own.hosts,
        own.events(),
        own.digest.map_or("-".into(), |d| format!("{d:016x}"))
    );
    for &(n, v, u) in &own.outcome {
        println!("{n:<28} {v:>14.6} {u}");
    }
    let by_seed = |f: fn(&SimPass) -> f64| -> Vec<(u64, f64)> {
        plain.iter().map(|(s, p)| (*s, f(p))).collect()
    };
    if !args.trace {
        let times: Vec<(u64, PassTimes)> = plain
            .iter()
            .map(|(s, p)| {
                let t = PassTimes {
                    wall_s: p.wall_s,
                    units: p.events(),
                    setup_s: p.setup_s,
                    speed: reference::QUEUE_NOMINAL_S / median(&p.reference_s),
                };
                (*s, t)
            })
            .collect();
        set_end_to_end(&mut rep, &times, rss);
        return rep;
    }

    // Per-layer numbers: medians over the traced passes.
    let wall = seed_balanced(&by_seed(|p| p.wall_s));
    let med =
        |f: &dyn Fn(&(SimPass, Tracer)) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
    let acc_s = |site: Site| med(&|(_, t)| t.get(site).total_ns as f64 / 1e9);
    let calls = |site: Site| traced.last().map_or(0.0, |(_, t)| t.get(site).calls as f64);
    let traced_wall = med(&|(p, _)| p.wall_s);
    let st = own.stats;
    rep.set("netsim.events", st.events as f64);
    let self_s = med(&|(_, t)| t.get(Site::Netsim).self_ns as f64 / 1e9);
    rep.set("netsim.self_s", self_s);
    rep.set(
        "netsim.ns_per_event",
        self_s * 1e9 / st.events.max(1) as f64,
    );
    if let Some(a) = own.arena {
        rep.set(
            "netsim.arena_fresh_ratio",
            a.fresh as f64 / a.allocated.max(1) as f64,
        );
    }
    rep.set(
        "netsim.probe_byte_share",
        st.probe_bytes_tx as f64 / st.host_bytes_tx.max(1) as f64,
    );
    rep.set("netsim.drops", st.drops as f64);
    rep.set("netsim.retx_pkts", st.retx_pkts as f64);
    for (prefix, site, per_call) in [
        ("ufab.edge.on_packet", Site::EdgeOnPacket, true),
        ("ufab.edge.on_nic_idle", Site::EdgeOnNicIdle, true),
        ("ufab.edge.on_timer", Site::EdgeOnTimer, true),
        ("ufab.edge.on_inject", Site::EdgeOnInject, true),
        ("ufab.core.on_egress", Site::CoreOnEgress, true),
        ("ufab.core.on_timer", Site::CoreOnTimer, false),
        ("workloads.poll", Site::Poll, false),
        ("fabric.manager_advance", Site::ManagerAdvance, false),
        ("fabric.abuse_tick", Site::AbuseTick, false),
        ("fabric.invariants", Site::FabricInvariants, false),
    ] {
        let (n, s) = (calls(site), acc_s(site));
        rep.set(&format!("{prefix}.calls"), n);
        rep.set(&format!("{prefix}.s"), s);
        if per_call {
            rep.set(
                &format!("{prefix}.ns"),
                if n > 0.0 { s * 1e9 / n } else { 0.0 },
            );
        }
    }
    rep.set("experiments.harness.s", acc_s(Site::Harness));
    rep.set("experiments.cell_loop.s", acc_s(Site::CellLoop));
    rep.set("fabric.plan_s", seed_balanced(&by_seed(|p| p.plan_s)));
    rep.set("topology.build_s", seed_balanced(&by_seed(|p| p.build_s)));
    rep.set("trace.overhead", traced_wall / wall);
    let covered = med(&|(p, t)| t.self_ns_total() as f64 / 1e9 / p.wall_s);
    rep.set("trace.accounted_share", covered);

    if !hash_off.is_empty() {
        rep.set("obs.digest_share", (wall - median(&hash_off)) / wall);
    }
    // The simulator invariant suite on: what `--check-invariants` costs.
    let inv = Mode {
        invariants: true,
        ..Mode::default()
    };
    trace::begin();
    let p = guarded(&mut rep.tally, "invariants pass", || churn::pass(seed, inv));
    let tr = trace::end();
    if let Some(p) = p {
        check_pass(&mut rep.tally, seed, &p, reference, true);
        rep.set(
            "obs.sim_invariants.calls",
            tr.get(Site::SimInvariants).calls as f64,
        );
        rep.set(
            "obs.sim_invariants.s",
            tr.get(Site::SimInvariants).total_ns as f64 / 1e9,
        );
    }
    // One shard worker per core, against the serial passes above.
    let cores = host_cores();
    if cores > 1 {
        let m = Mode {
            shards: cores,
            ..Mode::default()
        };
        if let Some(p) = guarded(&mut rep.tally, "sharded pass", || churn::pass(seed, m)) {
            check_pass(&mut rep.tally, seed, &p, reference, true);
            rep.set("netsim.shard_speedup", wall / p.wall_s);
        }
    }
    println!("untraced wall {wall:.4} s, traced wall {traced_wall:.4} s");
    print_layers(&rep, traced_wall);
    rep
}

/// Print the per-layer table; span times also as a share of `wall`.
fn print_layers(rep: &Report, wall: f64) {
    println!("{:<32} {:>16}", "per-layer metric", "value");
    for &(n, v, u) in &rep.metrics {
        if n.ends_with(".s") || n.ends_with("self_s") {
            let share = 100.0 * v / wall;
            println!("{n:<32} {v:>16.6} {u:<6} {share:5.1}% of wall");
        } else {
            println!("{n:<32} {v:>16.6} {u}");
        }
    }
}

fn run_control(args: &Args) -> Report {
    let seed = args.seed;
    let mut rep = Report::new(if args.trace { &PER_LAYER } else { &END_TO_END });
    let t_run = Instant::now();
    let tally_pass = |tally: &mut Tally, p: &control::ControlPass, reference: Option<u64>| {
        tally.add(p.ops + p.restores, &p.faults);
        if let Some(d) = reference {
            tally.check(p.digest == d, || {
                format!("digest {:016x}, reference {d:016x}", p.digest)
            });
        }
    };

    // Warm-up, discarded; its digest is the reference for `--seed`.
    let Some(warm) = guarded(&mut rep.tally, "warm-up pass", || control::pass(seed)) else {
        return rep;
    };
    tally_pass(&mut rep.tally, &warm, None);
    let mut refs = BTreeMap::from([(seed, warm.digest)]);
    drop(warm);
    let seeds = pass_seeds(args);

    // `control` has no spans to trace: its per-op timing is part of
    // every pass, so a traced run times the same passes.
    let mut passes: Vec<(u64, control::ControlPass)> = Vec::new();
    let t_timed = Instant::now();
    let min_passes = min_passes(args);
    let mut rss = 0.0;
    for n in 1.. {
        let s = seeds[(n - 1) % seeds.len()];
        if let Some(p) = guarded(&mut rep.tally, "pass", || control::pass(s)) {
            let reference = refs.get(&s).copied();
            refs.entry(s).or_insert(p.digest);
            tally_pass(&mut rep.tally, &p, reference);
            passes.push((s, p));
        }
        if n == seeds.len() {
            rss = peak_rss_mb();
        }
        let (spent, run) = (secs(t_timed), secs(t_run));
        if stop_after(args.seconds, n, seeds.len(), min_passes, spent, run) {
            break;
        }
    }
    // The first pass is the stream of `--seed` itself.
    let Some((_, own)) = passes.first() else {
        return rep;
    };
    let by_seed = |f: fn(&control::ControlPass) -> f64| -> Vec<(u64, f64)> {
        passes.iter().map(|(s, p)| (*s, f(p))).collect()
    };
    let all_ops: Vec<f64> = passes
        .iter()
        .flat_map(|(_, p)| p.op_us.iter().copied())
        .collect();
    let op = Summary::of(&all_ops);
    println!(
        "control: {} servers, {} ops/pass, {} restores/pass, digest {:016x}",
        own.hosts, own.ops, own.restores, own.digest
    );
    println!(
        "{:<28} {:>14.3} us   p{} {:.3} us  n {}",
        "op_p50_us", op.p50, op.tail_p, op.tail, op.n
    );
    let snap = seed_balanced(&by_seed(|p| p.snapshot_ms));
    let rest = seed_balanced(&by_seed(|p| p.restore_ms));
    println!(
        "{:<28} {:>14.3} ms   ({} bytes)",
        "snapshot_ms", snap, own.snapshot_bytes
    );
    println!("{:<28} {:>14.3} ms", "restore_ms", rest);
    println!("{:<28} {:>14.4}", "reject_ratio", own.reject_ratio);
    println!(
        "{:<28} {:>14}",
        "drains_rolled_back", own.drains_rolled_back
    );
    println!("{:<28} {:>14}", "cordons_refused", own.cordons_refused);
    // What share of a pass's wall time each op kind and the failovers
    // take: the weights the operator script puts on each path.
    let share = |f: &dyn Fn(&control::ControlPass) -> f64| {
        let xs: Vec<f64> = passes.iter().map(|(_, p)| f(p) / p.wall_s).collect();
        median(&xs)
    };
    let kind_share: Vec<f64> = (0..control::KINDS.len())
        .map(|k| share(&|p| p.kind_us[k].iter().sum::<f64>() / 1e6))
        .collect();
    let failover_share = share(&|p| p.failover_s);
    for (kind, sh) in control::KINDS.iter().zip(&kind_share) {
        println!("{:<28} {:>14.4} of wall", format!("{kind} share"), sh);
    }
    println!("{:<28} {failover_share:>14.4} of wall", "failover share");
    if !args.trace {
        let times: Vec<(u64, PassTimes)> = passes
            .iter()
            .map(|(s, p)| {
                let t = PassTimes {
                    wall_s: p.wall_s,
                    units: p.ops,
                    setup_s: p.setup_s,
                    speed: reference::RECORDS_NOMINAL_S / p.reference_s,
                };
                (*s, t)
            })
            .collect();
        set_end_to_end(&mut rep, &times, rss);
        return rep;
    }

    let wall = seed_balanced(&by_seed(|p| p.wall_s));
    rep.set("fabricd.op.p50_us", op.p50);
    rep.set(
        "fabricd.op.p99_us",
        stats::percentile(&all_ops, 99.0).unwrap_or(0.0),
    );
    for (k, kind) in control::KINDS.iter().enumerate() {
        let xs: Vec<f64> = passes
            .iter()
            .flat_map(|(_, p)| p.kind_us[k].iter().copied())
            .collect();
        let s = Summary::of(&xs);
        rep.set(
            &format!("fabricd.{kind}.calls"),
            own.kind_us[k].len() as f64,
        );
        rep.set(&format!("fabricd.{kind}.p50_us"), s.p50);
        rep.set(&format!("fabricd.{kind}.tail_us"), s.tail);
        rep.set(&format!("fabricd.{kind}.share"), kind_share[k]);
        println!(
            "fabricd.{kind}: tail taken at p{} of {} samples",
            s.tail_p, s.n
        );
    }
    rep.set("fabricd.drain.rolled_back", own.drains_rolled_back as f64);
    rep.set("fabricd.cordon.refused", own.cordons_refused as f64);
    rep.set("fabricd.failover.share", failover_share);
    rep.set("fabricd.snapshot_ms", snap);
    rep.set("fabricd.snapshot_bytes", own.snapshot_bytes as f64);
    rep.set("fabricd.restore_ms", rest);
    rep.set("fabricd.audit_ms", seed_balanced(&by_seed(|p| p.audit_ms)));
    rep.set("fabricd.reject_ratio", own.reject_ratio);
    rep.set("topology.build_s", seed_balanced(&by_seed(|p| p.build_s)));
    rep.set("trace.overhead", 1.0);
    print_layers(&rep, wall);
    rep
}

/// Cores this process may run on (`nproc`).
fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    // Program defaults: one job, one shard worker, whatever the
    // environment asks for.
    experiments::executor::set_jobs(1);
    experiments::executor::set_shards(1);
    // The git helpers look for a repository upward from here; stop
    // them at this checkout.
    if let Some(parent) = std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(|p| p.to_path_buf()))
    {
        std::env::set_var("GIT_CEILING_DIRECTORIES", parent);
    }
    let (rev, dirty) = (bench::report::git_rev(), bench::report::git_dirty());
    println!(
        "perfbench workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    println!(
        "provenance host_cores {} git_rev {rev} dirty {dirty}{}",
        host_cores(),
        if dirty {
            "  (numbers from a dirty tree)"
        } else {
            ""
        }
    );
    let rep = match args.workload.as_str() {
        "churn" => run_churn(&args),
        _ => run_control(&args),
    };
    for why in rep.tally.reasons.iter().take(20) {
        println!("FAIL {why}");
    }
    println!(
        "attempted {}  failed {}  fail_ratio {}",
        rep.tally.attempted,
        rep.tally.failed,
        rep.tally.fail_ratio()
    );
    if rep.tally.attempted == 0 {
        eprintln!("perfbench: nothing ran");
        std::process::exit(1);
    }
    println!("{}", rep.json());
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric tables here and the declaration in `BENCHMARK.json`
    /// at the repository root name the same metrics, in the same order.
    #[test]
    fn tables_match_benchmark_json() {
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let section = |key: &str| -> Vec<(String, String)> {
            let start = json.find(&format!("\"{key}\"")).expect(key);
            let end = start + json[start..].find(']').expect("section end");
            json[start..end]
                .split('{')
                .skip(1)
                .map(|obj| {
                    let field = |f: &str| {
                        let at = obj.find(&format!("\"{f}\": \"")).expect(f) + f.len() + 5;
                        obj[at..at + obj[at..].find('"').expect("quote")].to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter().map(|&(n, u)| (n.into(), u.into())).collect()
        };
        assert_eq!(section("end_to_end"), own(&END_TO_END));
        assert_eq!(section("per_layer"), own(&PER_LAYER));
    }

    #[test]
    fn runs_stop_only_at_rotation_ends() {
        // 4 seeds, 8 passes at least, 40 s asked for, 5 s a pass.
        let stop = |passes: usize| stop_after(40.0, passes, 4, 8, 5.0 * passes as f64, 0.0);
        assert!(!stop(4), "fewer than the minimum");
        assert!(!stop(7) && !stop(9), "mid-rotation");
        // At 8 passes (40 s) the nearest rotation end is this one.
        assert!(stop(8));
        // At 2 s a pass, 16 passes (32 s) plus half a rotation (4 s)
        // is still short of 40 s, so the run goes on to 20.
        let quick = |passes: usize| stop_after(40.0, passes, 4, 8, 2.0 * passes as f64, 0.0);
        assert!(!quick(8) && !quick(16) && quick(20));
        // The hard stop ends a run anywhere.
        assert!(stop_after(40.0, 3, 4, 8, 15.0, HARD_STOP_S - 1.0));
    }

    #[test]
    fn report_json_has_the_required_keys() {
        let mut r = Report::new(&END_TO_END);
        r.set("work_ref_ns", 1.25);
        r.set("setup_s", f64::NAN);
        r.tally.ok();
        let j = r.json();
        assert!(
            j.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {")
        );
        assert!(j.contains("\"work_ref_ns\": {\"value\": 1.25, \"unit\": \"ns\"}"));
        assert!(j.contains("\"setup_s\": {\"value\": 0, \"unit\": \"s\"}"));
    }
}
