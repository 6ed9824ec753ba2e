//! Versioned snapshot serialization for [`FabricService`].
//!
//! Format (line-oriented text, one `\n`-terminated record per line):
//!
//! ```text
//! ufab-fabricd-snapshot v2
//! cfg <bu_bits> <headroom_bits> <decision_gap> <max_vms> <policy> <reclaim_grace>
//! clock <clock> <last_submit> <next_slot> <next_seq> <digest>
//! counters <n_rejected> <n_resized> <n_resize_denied> <n_drained_vms>
//! cordon <raw,...|->
//! tenant <name> <tokens_bits> <state> <admitted> <depart> <departed|->
//!        <qsince> <guaranteed|-> <ttg|-> <resizes> <migrations>
//!        hosts <raw,...> spans <a:b,...|->          (one line per tenant)
//! queue <submitted> <seq> <op wire form>            (one line per pending op)
//! ledger <bits> <bits> ...                          (one entry per link)
//! placer <raw:vms:bits> ...|-
//! abusecfg <wp> <wpr> <wu> <decay> <enter> <exit> <sustain> <penalty>
//!          <hold> <probation>                       (only when the scorer is on)
//! abuserow <id> <w0> .. <w8>                        (one line per scorer row)
//! end
//! ```
//!
//! `v2` added the quarantine machine (`abusecfg`/`abuserow`, DESIGN
//! §10): the misbehavior scorer's thresholds and the per-tenant row
//! words from [`fabric::MisbehaviorLedger::dump_row`] — so a service
//! restored mid-quarantine keeps every score, sustain count, and
//! hold/probation deadline. `v1` snapshots predate the scorer and still
//! restore (with the scorer off); both sections are simply absent.
//!
//! Every `f64` travels as its IEEE-754 bit pattern in fixed-width hex,
//! so a restored ledger/placer is **byte-exact** — replaying
//! commitments in tenant order would accumulate different float dust
//! than the chronological live sums and could flip a later admission
//! decision near the headroom ceiling. The admission-queue ops reuse
//! the canonical wire form, and the digest state rides along so the
//! restored service continues the original reply stream. Rendering is
//! canonical: `render(restore(s)) == s`, which is what the
//! `SnapshotRoundTrip` invariant asserts online.
//!
//! Rendering writes every field straight into one pre-sized byte
//! buffer (see `Out`), and restore reads each record with one byte cursor (see
//! `Fields`). Restore treats the text as untrusted: every value a later
//! call would panic on is checked first and turns into a labelled
//! `Err`.
//!
//! What is *not* serialized: the topology (the restore caller provides
//! an identically-built one — it is static config, not state), the
//! departure/reclaim heaps (rebuilt from tenant records), and the obs
//! handle (re-attach with [`FabricService::set_obs`]).

use crate::ops::FabricOp;
use crate::service::{apply_host_cordons, FabricService, SvcTenant};
use fabric::{AbuseCfg, AdmissionCfg, Ledger, MisbehaviorLedger, Placer, Policy, TenantState};
use netsim::{NodeId, Time};
use obs::{DetHash, ObsHandle};
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap, VecDeque};
use std::sync::Arc;
use topology::{NodeKind, Topo};

/// First line of every snapshot; bump the suffix on format changes.
pub const HEADER: &str = "ufab-fabricd-snapshot v2";

/// Previous format version, still accepted by [`FabricService::restore`]
/// (no `abusecfg`/`abuserow` records; the scorer restores as off).
pub const HEADER_V1: &str = "ufab-fabricd-snapshot v1";

/// Reserved bytes per tenant record beyond its name, host list and
/// spans (a record's fixed fields run to about this much).
const TENANT_FIXED_BYTES: usize = 96;

/// No rendered tenant record is shorter (`tenant`, a name, 16 hex
/// digits, a state of eight or more letters and twelve more fields), so
/// a snapshot of `n` bytes holds at most `n / MIN_TENANT_BYTES` tenants
/// — the bound restore reserves by, not a check.
const MIN_TENANT_BYTES: usize = 64;

/// Append `v` in decimal.
fn push_dec(out: &mut Vec<u8>, mut v: u64) {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.extend_from_slice(&buf[i..]);
}

/// Append `v` as 16 lowercase hex digits (`{:016x}`).
fn push_hex(out: &mut Vec<u8>, v: u64) {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let mut buf = [0u8; 16];
    for (k, d) in buf.iter_mut().enumerate() {
        *d = DIGITS[(v >> (60 - 4 * k)) as usize & 0xf];
    }
    out.extend_from_slice(&buf);
}

/// A snapshot being written: records of space-separated fields, as
/// bytes (checked as UTF-8 once, at the end).
struct Out(Vec<u8>);

impl Out {
    /// Start a record.
    fn tag(&mut self, tag: &str) -> &mut Self {
        self.0.extend_from_slice(tag.as_bytes());
        self
    }

    /// ` <w>`.
    fn word(&mut self, w: &str) -> &mut Self {
        self.0.push(b' ');
        self.0.extend_from_slice(w.as_bytes());
        self
    }

    /// ` <v>` in decimal.
    fn dec(&mut self, v: impl Into<u64>) -> &mut Self {
        self.0.push(b' ');
        push_dec(&mut self.0, v.into());
        self
    }

    /// ` <v>` as 16 hex digits.
    fn hex(&mut self, v: u64) -> &mut Self {
        self.0.push(b' ');
        push_hex(&mut self.0, v);
        self
    }

    /// ` <v>` in decimal, or ` -`.
    fn opt(&mut self, v: Option<u64>) -> &mut Self {
        match v {
            Some(v) => self.dec(v),
            None => self.word("-"),
        }
    }

    /// The items, `sep`-separated, each written by `item`.
    fn join<T>(
        &mut self,
        items: impl IntoIterator<Item = T>,
        sep: u8,
        mut item: impl FnMut(&mut Vec<u8>, T),
    ) -> &mut Self {
        for (k, x) in items.into_iter().enumerate() {
            if k > 0 {
                self.0.push(sep);
            }
            item(&mut self.0, x);
        }
        self
    }

    /// ` <joined items>`, or ` -` when there are none.
    fn list<T>(
        &mut self,
        items: impl IntoIterator<Item = T>,
        sep: u8,
        item: impl FnMut(&mut Vec<u8>, T),
    ) -> &mut Self {
        self.0.push(b' ');
        let at = self.0.len();
        self.join(items, sep, item);
        if self.0.len() == at {
            self.0.push(b'-');
        }
        self
    }

    /// End the record.
    fn end(&mut self) {
        self.0.push(b'\n');
    }
}

/// Bytes to reserve for `s`'s snapshot: its tenant records plus one
/// 17-byte ledger field per link, which make up nearly all of it.
fn size_hint(s: &FabricService) -> usize {
    let tenants: usize = s
        .tenants
        .iter()
        .map(|t| {
            TENANT_FIXED_BYTES + t.name.len() + 4 * t.hosts.len() + 24 * t.guaranteed_spans.len()
        })
        .sum();
    let abuse = s.abuse.as_ref().map_or(0, |ab| 128 * ab.len());
    1024 + tenants + abuse + 17 * s.ledger.n_links()
}

/// Serialize the complete service state.
pub(crate) fn render(s: &FabricService) -> String {
    let mut o = Out(Vec::with_capacity(size_hint(s)));
    o.tag(HEADER).end();
    let c = &s.cfg;
    o.tag("cfg")
        .hex(c.bu_bps.to_bits())
        .hex(c.headroom.to_bits())
        .dec(c.decision_gap)
        .dec(c.max_vms_per_host as u64)
        .word(c.policy.label())
        .dec(c.reclaim_grace)
        .end();
    o.tag("clock")
        .dec(s.clock)
        .dec(s.last_submit)
        .dec(s.next_slot)
        .dec(s.next_seq)
        .hex(s.digest.digest())
        .end();
    o.tag("counters")
        .dec(s.n_rejected)
        .dec(s.n_resized)
        .dec(s.n_resize_denied)
        .dec(s.n_drained_vms)
        .end();
    o.tag("cordon")
        .list(&s.cordoned, b',', |b, &x| push_dec(b, x.into()))
        .end();
    for t in &s.tenants {
        o.tag("tenant")
            .word(&t.name)
            .hex(t.tokens_per_vm.to_bits())
            .word(t.state.label())
            .dec(t.admitted_at)
            .dec(t.depart_at)
            .opt(t.departed_at)
            .dec(t.qualifying_since)
            .opt(t.guaranteed_at)
            .opt(t.ttg_ns)
            .dec(t.resizes)
            .dec(t.migrations)
            .word("hosts")
            .list(&t.hosts, b',', |b, h| push_dec(b, h.raw().into()))
            .word("spans")
            .list(&t.guaranteed_spans, b',', |b, &(x, y)| {
                push_dec(b, x);
                b.push(b':');
                push_dec(b, y);
            })
            .end();
    }
    for (t, seq, op) in &s.queue {
        o.tag("queue").dec(*t).dec(*seq).word(&op.encode()).end();
    }
    o.tag("ledger ")
        .join(s.ledger.links(), b' ', |b, l| {
            push_hex(b, l.committed_bps.to_bits())
        })
        .end();
    o.tag("placer")
        .list(s.placer.dump_state(), b' ', |b, (raw, vms, bits)| {
            push_dec(b, raw.into());
            b.push(b':');
            push_dec(b, vms as u64);
            b.push(b':');
            push_hex(b, bits);
        })
        .end();
    if let Some(ab) = &s.abuse {
        let c = ab.cfg();
        o.tag("abusecfg")
            .hex(c.w_policed.to_bits())
            .hex(c.w_probe.to_bits())
            .hex(c.w_unsol.to_bits())
            .hex(c.decay.to_bits())
            .hex(c.enter_score.to_bits())
            .hex(c.exit_score.to_bits())
            .dec(c.sustain_ticks)
            .hex(c.penalty_fraction.to_bits())
            .dec(c.quarantine_hold)
            .dec(c.probation)
            .end();
        for i in 0..ab.len() {
            let w = ab.dump_row(i);
            o.tag("abuserow").dec(i as u64).hex(w[0]);
            for &x in &w[1..] {
                o.dec(x);
            }
            o.end();
        }
    }
    o.tag("end").end();
    String::from_utf8(o.0).expect("every field is a str or ASCII digits")
}

impl FabricService {
    /// Serialize the complete service state (versioned; see the module
    /// docs for the format). Also emitted as an `Ops` trace event.
    pub fn snapshot(&self) -> String {
        let snap = render(self);
        let bytes = snap.len() as u64;
        self.obs
            .rec(obs::Category::Ops, self.clock, || obs::Event::Op {
                kind: "snapshot",
                subject: 0,
                aux: bytes,
            });
        snap
    }

    /// Rebuild a service from a snapshot over an identically-built
    /// `topo`. The restored instance passes the conservation audit
    /// before it is returned, and re-snapshots byte-identically.
    pub fn restore(topo: Arc<Topo>, snap: &str) -> Result<Self, String> {
        let mut lines = snap.lines();
        let header = lines.next();
        if header != Some(HEADER) && header != Some(HEADER_V1) {
            return Err(format!(
                "snapshot header mismatch (want {HEADER:?} or {HEADER_V1:?})"
            ));
        }

        let mut f = expect(&mut lines, "cfg")?;
        let cfg = AdmissionCfg {
            bu_bps: f64::from_bits(f.hex("cfg bu_bps")?),
            headroom: f64::from_bits(f.hex("cfg headroom")?),
            decision_gap: f.dec("cfg decision_gap")?,
            max_vms_per_host: f.dec("cfg max_vms_per_host")?,
            policy: match f.word("cfg policy")? {
                "first_fit" => Policy::FirstFit,
                "load_spread" => Policy::LoadSpread,
                p => return Err(format!("unknown placement policy {p:?}")),
            },
            reclaim_grace: f.dec("cfg reclaim_grace")?,
        };
        if !(cfg.headroom > 0.0 && cfg.headroom <= 1.0) {
            return Err(format!("cfg headroom {} is outside (0, 1]", cfg.headroom));
        }
        if cfg.max_vms_per_host == 0 {
            return Err("cfg max_vms_per_host is 0".into());
        }

        let mut f = expect(&mut lines, "clock")?;
        let clock: Time = f.dec("clock")?;
        let last_submit: Time = f.dec("clock last_submit")?;
        let next_slot: Time = f.dec("clock next_slot")?;
        let next_seq: u64 = f.dec("clock next_seq")?;
        let digest = DetHash::resume(f.hex("clock digest")?);

        let mut f = expect(&mut lines, "counters")?;
        let n_rejected = f.dec("counters n_rejected")?;
        let n_resized = f.dec("counters n_resized")?;
        let n_resize_denied = f.dec("counters n_resize_denied")?;
        let n_drained_vms = f.dec("counters n_drained_vms")?;

        let cordoned: BTreeSet<u32> =
            expect(&mut lines, "cordon")?.list("cordon", b',', |f| f.digits("cordon entry"))?;

        // Variable-count sections: tenants, then queued ops, then the
        // fixed tail (ledger, placer, end). Every tenant came from an
        // admit op, and no record is shorter than `MIN_TENANT_BYTES`.
        let mut tenants: Vec<SvcTenant> =
            Vec::with_capacity((next_seq as usize).min(snap.len() / MIN_TENANT_BYTES));
        let mut queue: VecDeque<(Time, u64, FabricOp)> = VecDeque::new();
        let mut ledger_bits: Option<Vec<u64>> = None;
        let mut placer_rows: Option<Vec<(u32, usize, u64)>> = None;
        let mut abuse_cfg: Option<AbuseCfg> = None;
        let mut abuse_rows: Vec<(usize, [u64; 9])> = Vec::new();
        let mut saw_end = false;
        for line in lines {
            let (tag, rest) = line.split_at(line.find(' ').unwrap_or(line.len()));
            let mut f = Fields::new(rest);
            match tag {
                "tenant" => tenants.push(parse_tenant(&mut f)?),
                "queue" => {
                    let t: Time = f.dec("queue time")?;
                    let seq: u64 = f.dec("queue seq")?;
                    queue.push_back((t, seq, FabricOp::decode(f.rest("queue op")?)?));
                }
                "ledger" => {
                    let mut bits = Vec::with_capacity(rest.len() / 17);
                    while f.more() {
                        bits.push(f.hex("ledger bits")?);
                    }
                    ledger_bits = Some(bits);
                }
                "placer" => {
                    placer_rows = Some(f.list("placer rows", b' ', |f| {
                        let host = f.digits("placer host")?;
                        f.expect_byte(b':', "placer row")?;
                        let vms = f.digits("placer vms")?;
                        f.expect_byte(b':', "placer row")?;
                        Ok((host, vms, f.hex_digits("placer bits")?))
                    })?);
                }
                "abusecfg" => {
                    abuse_cfg = Some(AbuseCfg {
                        w_policed: f64::from_bits(f.hex("abusecfg w_policed")?),
                        w_probe: f64::from_bits(f.hex("abusecfg w_probe")?),
                        w_unsol: f64::from_bits(f.hex("abusecfg w_unsol")?),
                        decay: f64::from_bits(f.hex("abusecfg decay")?),
                        enter_score: f64::from_bits(f.hex("abusecfg enter")?),
                        exit_score: f64::from_bits(f.hex("abusecfg exit")?),
                        sustain_ticks: f.dec("abusecfg sustain")?,
                        penalty_fraction: f64::from_bits(f.hex("abusecfg penalty")?),
                        quarantine_hold: f.dec("abusecfg hold")?,
                        probation: f.dec("abusecfg probation")?,
                    });
                }
                "abuserow" => {
                    let i: usize = f.dec("abuserow id")?;
                    let mut w = [0u64; 9];
                    w[0] = f.hex("abuserow score")?;
                    for slot in w.iter_mut().skip(1) {
                        *slot = f.dec("abuserow word")?;
                    }
                    abuse_rows.push((i, w));
                }
                "end" => {
                    saw_end = true;
                    break;
                }
                other => return Err(format!("unexpected snapshot record {other:?}")),
            }
        }
        if !saw_end {
            return Err("snapshot truncated: missing end record".into());
        }
        let ledger_bits = ledger_bits.ok_or("snapshot missing ledger record")?;
        let placer_rows = placer_rows.ok_or("snapshot missing placer record")?;
        let abuse = match abuse_cfg {
            Some(c) => {
                c.validate().map_err(|e| format!("abusecfg: {e}"))?;
                let mut ab = MisbehaviorLedger::new(c, tenants.len());
                for &(i, w) in &abuse_rows {
                    if i >= tenants.len() {
                        return Err(format!("abuserow {i} has no matching tenant"));
                    }
                    ab.restore_row(i, w);
                }
                Some(ab)
            }
            None if abuse_rows.is_empty() => None,
            None => return Err("abuserow records without an abusecfg record".into()),
        };

        let mut ledger = Ledger::new_excluding(&topo, cfg.headroom, &cordoned);
        if ledger_bits.len() != ledger.n_links() {
            return Err(format!(
                "snapshot ledger has {} links, topology has {} — wrong topology?",
                ledger_bits.len(),
                ledger.n_links()
            ));
        }
        ledger.set_committed_bits(&ledger_bits);
        let mut placer = Placer::new(&topo.hosts, cfg.policy, cfg.max_vms_per_host);
        placer.restore_state(&placer_rows)?;
        apply_host_cordons(&topo, &cordoned, &mut placer);

        let mut departs: BinaryHeap<Reverse<(Time, u32)>> = BinaryHeap::new();
        let mut reclaims: BinaryHeap<Reverse<(Time, u32)>> = BinaryHeap::new();
        for (i, t) in tenants.iter().enumerate() {
            if let Some(h) = t
                .hosts
                .iter()
                .find(|&&h| topo.kind(h) != Some(NodeKind::Host))
            {
                return Err(format!(
                    "tenant {i} has a VM on node {h}, which is not a host"
                ));
            }
            if t.is_live() {
                departs.push(Reverse((t.depart_at, i as u32)));
            } else if t.state == TenantState::Departing {
                let due = t
                    .departed_at
                    .ok_or_else(|| format!("departing tenant {i} has no departed_at"))?
                    .checked_add(cfg.reclaim_grace)
                    .ok_or_else(|| format!("tenant {i} reclaim time overflows"))?;
                reclaims.push(Reverse((due, i as u32)));
            }
        }

        let svc = Self {
            cfg,
            topo,
            ledger,
            placer,
            tenants,
            cordoned,
            queue,
            next_seq,
            last_submit,
            next_slot,
            clock,
            n_rejected,
            n_resized,
            n_resize_denied,
            n_drained_vms,
            digest,
            departs,
            reclaims,
            abuse,
            obs: ObsHandle::disabled(),
        };
        svc.audit()
            .map_err(|e| format!("restored state fails conservation audit: {e}"))?;
        Ok(svc)
    }
}

fn parse_tenant(f: &mut Fields) -> Result<SvcTenant, String> {
    let name = f.word("tenant name")?.to_string();
    let tokens_per_vm = f64::from_bits(f.hex("tenant tokens")?);
    let state = match f.word("tenant state")? {
        "requested" => TenantState::Requested,
        "admitted" => TenantState::Admitted,
        "qualifying" => TenantState::Qualifying,
        "guaranteed" => TenantState::Guaranteed,
        "suspected" => TenantState::Suspected,
        "quarantined" => TenantState::Quarantined,
        "reinstated" => TenantState::Reinstated,
        "departing" => TenantState::Departing,
        "reclaimed" => TenantState::Reclaimed,
        "rejected" => TenantState::Rejected,
        s => return Err(format!("unknown tenant state {s:?}")),
    };
    let admitted_at = f.dec("tenant admitted_at")?;
    let depart_at = f.dec("tenant depart_at")?;
    let departed_at = f.opt_dec("tenant departed_at")?;
    let qualifying_since = f.dec("tenant qualifying_since")?;
    let guaranteed_at = f.opt_dec("tenant guaranteed_at")?;
    let ttg_ns = f.opt_dec("tenant ttg")?;
    let resizes = f.dec("tenant resizes")?;
    let migrations = f.dec("tenant migrations")?;
    if f.word("tenant hosts marker")? != "hosts" {
        return Err("tenant: missing hosts marker".into());
    }
    let hosts = f.list("tenant hosts", b',', |f| {
        f.digits("tenant host").map(NodeId)
    })?;
    if f.word("tenant spans marker")? != "spans" {
        return Err("tenant: missing spans marker".into());
    }
    let guaranteed_spans = f.list("tenant spans", b',', |f| {
        let a = f.digits("span start")?;
        f.expect_byte(b':', "span")?;
        Ok((a, f.digits("span end")?))
    })?;
    Ok(SvcTenant {
        name,
        tokens_per_vm,
        state,
        hosts,
        admitted_at,
        depart_at,
        departed_at,
        qualifying_since,
        guaranteed_at,
        ttg_ns,
        guaranteed_spans,
        resizes,
        migrations,
    })
}

/// The fields of one record after its tag, parsed straight from the
/// bytes: every field follows exactly one space, as [`render`] writes
/// them, and numbers are plain digits (no sign). Errors name the field.
/// The cursor only ever stops next to an ASCII byte, so `at` is always
/// a char boundary of `s`.
struct Fields<'a> {
    s: &'a str,
    at: usize,
}

impl<'a> Fields<'a> {
    fn new(s: &'a str) -> Self {
        Self { s, at: 0 }
    }

    fn peek(&self) -> Option<u8> {
        self.s.as_bytes().get(self.at).copied()
    }

    /// Does a number end here? Only a separator or the record's end
    /// may follow one.
    fn delimited(&self) -> bool {
        matches!(self.peek(), None | Some(b' ' | b',' | b':'))
    }

    /// Is there another field?
    fn more(&self) -> bool {
        self.peek() == Some(b' ') && self.at + 1 < self.s.len()
    }

    fn expect_byte(&mut self, b: u8, what: &str) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.at += 1;
            Ok(())
        } else {
            Err(format!("bad {what} {:?}", self.token(self.at)))
        }
    }

    /// Step over the space in front of the next field.
    fn sep(&mut self, what: &str) -> Result<(), String> {
        self.expect_byte(b' ', what)
            .map_err(|_| format!("missing {what}"))
    }

    /// The field text from `at` on, for error messages.
    fn token(&self, at: usize) -> &'a str {
        let rest = &self.s[at..];
        rest.split(' ').next().unwrap_or(rest)
    }

    /// The next field, verbatim.
    fn word(&mut self, what: &str) -> Result<&'a str, String> {
        self.sep(what)?;
        let w = self.token(self.at);
        self.at += w.len();
        if w.is_empty() {
            return Err(format!("missing {what}"));
        }
        Ok(w)
    }

    /// Everything after the next space (a queued op's wire form).
    fn rest(&mut self, what: &str) -> Result<&'a str, String> {
        self.sep(what)?;
        let rest = &self.s[self.at..];
        self.at = self.s.len();
        Ok(rest)
    }

    /// A decimal number at the cursor, no space in front.
    fn digits<T: TryFrom<u64>>(&mut self, what: &str) -> Result<T, String> {
        let start = self.at;
        let mut v: Option<u64> = Some(0);
        while let Some(d) = self
            .peek()
            .map(|c| c.wrapping_sub(b'0'))
            .filter(|&d| d < 10)
        {
            v = v.and_then(|v| v.checked_mul(10)?.checked_add(d as u64));
            self.at += 1;
        }
        let bad = || format!("bad {what} {:?}", self.token(start));
        if self.at == start || !self.delimited() {
            return Err(bad());
        }
        v.and_then(|v| T::try_from(v).ok()).ok_or_else(bad)
    }

    /// ` <decimal>`.
    fn dec<T: TryFrom<u64>>(&mut self, what: &str) -> Result<T, String> {
        self.sep(what)?;
        self.digits(what)
    }

    /// ` <decimal>` or ` -`.
    fn opt_dec<T: TryFrom<u64>>(&mut self, what: &str) -> Result<Option<T>, String> {
        self.sep(what)?;
        if self.peek() == Some(b'-') {
            self.at += 1;
            return Ok(None);
        }
        self.digits(what).map(Some)
    }

    /// Up to 16 hex digits at the cursor, no space in front.
    fn hex_digits(&mut self, what: &str) -> Result<u64, String> {
        let start = self.at;
        let mut v = 0u64;
        while let Some(d) = self.peek().and_then(|c| (c as char).to_digit(16)) {
            if self.at - start == 16 {
                return Err(format!("bad {what} {:?}", self.token(start)));
            }
            v = v << 4 | d as u64;
            self.at += 1;
        }
        if self.at == start || !self.delimited() {
            return Err(format!("bad {what} {:?}", self.token(start)));
        }
        Ok(v)
    }

    /// ` <hex>`.
    fn hex(&mut self, what: &str) -> Result<u64, String> {
        self.sep(what)?;
        self.hex_digits(what)
    }

    /// ` -`, or ` <item><sep><item>...` with each item parsed by `item`.
    fn list<T, C: FromIterator<T>>(
        &mut self,
        what: &str,
        sep: u8,
        mut item: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<C, String> {
        self.sep(what)?;
        if self.peek() == Some(b'-') {
            self.at += 1;
            return Ok(C::from_iter(std::iter::empty()));
        }
        // One item, then another for as long as a separator follows.
        let mut more = true;
        std::iter::from_fn(|| {
            more.then(|| {
                let x = item(self);
                more = self.peek() == Some(sep);
                if more {
                    self.at += 1;
                }
                x
            })
        })
        .collect()
    }
}

/// The next line, which must be a `tag` record; its fields.
fn expect<'a>(lines: &mut std::str::Lines<'a>, tag: &str) -> Result<Fields<'a>, String> {
    let line = lines
        .next()
        .ok_or_else(|| format!("snapshot truncated before {tag} record"))?;
    match line.strip_prefix(tag) {
        Some(rest) if rest.is_empty() || rest.starts_with(' ') => Ok(Fields::new(rest)),
        _ => Err(format!("expected {tag} record, got {line:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::FabricQuery;
    use netsim::builder::LinkSpec;
    use netsim::{MS, US};
    use obs::Snapshottable;
    use topology::leaf_spine;

    fn topo() -> Arc<Topo> {
        Arc::new(leaf_spine(
            2,
            2,
            4,
            LinkSpec::gbps(10, 1000),
            LinkSpec::gbps(10, 1000),
            1500,
        ))
    }

    fn admit(name: &str, n_vms: usize, tokens: f64, lifetime: Time) -> FabricOp {
        FabricOp::Admit {
            name: name.into(),
            n_vms,
            tokens_per_vm: tokens,
            lifetime,
        }
    }

    /// A service mid-flight: mixed tenant states, one resize applied,
    /// one departure fired, and one op still pending in the queue.
    fn busy_service() -> FabricService {
        let t = topo();
        let mut s = FabricService::new(t, AdmissionCfg::default());
        s.submit(0, admit("a", 3, 2.0, 5 * MS));
        s.submit(10 * US, admit("b", 2, 4.0, 800 * US));
        s.submit(20 * US, admit("c", 2, 1.5, 5 * MS));
        s.advance(100 * US);
        s.note_qualified(0, 150 * US);
        s.submit(
            200 * US,
            FabricOp::Resize {
                tenant: 2,
                new_tokens_per_vm: 3.0,
            },
        );
        s.advance(900 * US); // resize applies; "b" departs at 810 µs
                             // Leave one op pending beyond the current clock.
        s.submit(2 * MS, admit("late", 1, 1.0, MS));
        s
    }

    #[test]
    fn field_writers_match_format() {
        for v in [
            0,
            1,
            9,
            10,
            99,
            100,
            12_345,
            u32::MAX as u64,
            u64::MAX - 1,
            u64::MAX,
        ] {
            let (mut d, mut h) = (Vec::new(), Vec::new());
            push_dec(&mut d, v);
            push_hex(&mut h, v);
            assert_eq!(d, v.to_string().as_bytes());
            assert_eq!(h, format!("{v:016x}").as_bytes());
        }
    }

    #[test]
    fn restore_re_renders_byte_identically() {
        let s = busy_service();
        let snap = s.snapshot();
        let r = FabricService::restore(s.topo.clone(), &snap).unwrap();
        assert_eq!(render(&r), snap);
        // The trait-level check (what the invariant runs online).
        s.verify_restore(&snap).unwrap();
    }

    #[test]
    fn restored_service_continues_the_digest_stream() {
        let mut live = busy_service();
        let snap = live.snapshot();
        let mut back = FabricService::restore(live.topo.clone(), &snap).unwrap();
        assert_eq!(live.digest(), back.digest());

        // Apply an identical tail of ops to both; the pending "late"
        // admit and the new ops must produce identical replies and an
        // identical final digest.
        for s in [&mut live, &mut back] {
            s.submit(3 * MS, admit("d", 2, 2.0, 4 * MS));
            s.submit(3 * MS + 10 * US, FabricOp::Depart { tenant: 0 });
        }
        let (a, b) = (live.advance(4 * MS), back.advance(4 * MS));
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.reply.encode(), y.reply.encode());
            assert_eq!(x.applied, y.applied);
        }
        assert_eq!(live.digest(), back.digest());
        assert_eq!(
            live.query(FabricQuery::Stats).encode(),
            back.query(FabricQuery::Stats).encode()
        );
        back.audit().unwrap();
    }

    /// A service with the scorer on and tenant 0 held in `Quarantined`
    /// (its capacity released, the hold clock running), plus a pending
    /// enforcement delta that has not been integrated yet.
    fn quarantined_service() -> (FabricService, Time) {
        let mut s = busy_service();
        s.enable_abuse(fabric::AbuseCfg {
            sustain_ticks: 2,
            quarantine_hold: 500 * US,
            probation: 500 * US,
            ..fabric::AbuseCfg::default()
        });
        let mut now = 900 * US;
        loop {
            s.note_enforcement(0, 3, 1, 0);
            let actions = s.abuse_tick(now);
            now += 50 * US;
            if !actions.is_empty() {
                break;
            }
            assert!(now < 10 * MS, "never quarantined");
        }
        assert_eq!(s.tenants()[0].state, TenantState::Quarantined);
        // Leave an un-integrated delta pending so the snapshot must
        // carry it (the next tick after restore integrates it).
        s.note_enforcement(0, 1, 0, 0);
        (s, now)
    }

    #[test]
    fn abuse_state_round_trips_mid_quarantine() {
        let (s, _) = quarantined_service();
        let snap = s.snapshot();
        assert!(snap.starts_with(HEADER), "{snap}");
        assert!(snap.contains("abusecfg "), "{snap}");
        let r = FabricService::restore(s.topo.clone(), &snap).unwrap();
        assert_eq!(render(&r), snap);
        s.verify_restore(&snap).unwrap();
        let (a, b) = (s.abuse().unwrap(), r.abuse().unwrap());
        assert_eq!(a.quarantines(0), 1);
        assert_eq!(b.quarantines(0), 1);
        assert_eq!(a.score(0).to_bits(), b.score(0).to_bits());
        assert_eq!(a.quarantined_at(0), b.quarantined_at(0));
        assert_eq!(r.tenants()[0].state, TenantState::Quarantined);
    }

    #[test]
    fn restored_service_continues_mid_quarantine_digest_stream() {
        let (mut live, now) = quarantined_service();
        let snap = live.snapshot();
        let mut back = FabricService::restore(live.topo.clone(), &snap).unwrap();
        assert_eq!(live.digest(), back.digest());

        // Drive both through the rest of the ladder — reinstatement,
        // probation, back to Guaranteed — plus an identical op tail.
        // Every transition and reply must land at the same instant.
        for s in [&mut live, &mut back] {
            s.submit(3 * MS, admit("d", 1, 1.0, 4 * MS));
            s.submit(3 * MS + 10 * US, FabricOp::Depart { tenant: 0 });
        }
        for k in 0..60u64 {
            let t = now + k * 50 * US;
            let (a, b) = (live.abuse_tick(t), back.abuse_tick(t));
            assert_eq!(a, b, "clamp actions diverged at {t} ns");
            assert_eq!(live.tenants()[0].state, back.tenants()[0].state);
        }
        // The ladder completed identically (reinstated, then the depart
        // op landed) and un-clamped exactly once on each side.
        let (a, b) = (live.advance(4 * MS), back.advance(4 * MS));
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.reply.encode(), y.reply.encode());
            assert_eq!(x.applied, y.applied);
        }
        assert_eq!(live.digest(), back.digest());
        assert_eq!(
            live.query(FabricQuery::Stats).encode(),
            back.query(FabricQuery::Stats).encode()
        );
        back.audit().unwrap();
    }

    #[test]
    fn v1_snapshots_restore_with_the_scorer_off() {
        let s = busy_service();
        let snap = s.snapshot(); // v2 header, no abuse records
        let v1 = snap.replacen(HEADER, HEADER_V1, 1);
        assert_ne!(v1, snap);
        let r = FabricService::restore(s.topo.clone(), &v1).unwrap();
        assert!(r.abuse().is_none());
        // Re-rendering upgrades the header; the body is unchanged.
        assert_eq!(render(&r), snap);
        r.audit().unwrap();
    }

    /// `snap` with whitespace field `k` (0 is the tag) of the first
    /// record matching `pick` replaced by `v`.
    fn with_field(snap: &str, pick: impl Fn(&str) -> bool, k: usize, v: &str) -> String {
        let mut done = false;
        let mut out = String::new();
        for line in snap.lines() {
            if !done && pick(line) {
                done = true;
                let mut f: Vec<&str> = line.split(' ').collect();
                f[k] = v;
                out.push_str(&f.join(" "));
            } else {
                out.push_str(line);
            }
            out.push('\n');
        }
        assert!(done, "no record to mutate");
        out
    }

    /// Each value that a later call inside restore would panic on is
    /// refused up front with a reason.
    #[test]
    fn values_that_would_panic_are_refused_with_reasons() {
        let (s, _) = quarantined_service();
        let snap = s.snapshot();
        let host = s.topo.hosts[0].raw();
        let not_host = s.topo.cores[0].raw().to_string();
        let over_cap = format!("{host}:{}:0000000000000000", s.cfg.max_vms_per_host + 1);
        let cases: [(String, &str); 7] = [
            (
                with_field(&snap, |l| l.starts_with("cfg "), 2, "0000000000000000"),
                "headroom",
            ),
            (
                with_field(&snap, |l| l.starts_with("cfg "), 4, "0"),
                "max_vms_per_host",
            ),
            (
                with_field(
                    &snap,
                    |l| l.starts_with("placer "),
                    1,
                    "9999:1:0000000000000000",
                ),
                "unknown host",
            ),
            (
                with_field(&snap, |l| l.starts_with("placer "), 1, &over_cap),
                "cap",
            ),
            (
                with_field(&snap, |l| l.starts_with("tenant "), 13, &not_host),
                "not a host",
            ),
            (
                with_field(
                    &snap,
                    |l| l.contains(" departing "),
                    6,
                    &u64::MAX.to_string(),
                ),
                "overflows",
            ),
            (
                with_field(&snap, |l| l.starts_with("abusecfg "), 4, "3ff0000000000000"),
                "decay",
            ),
        ];
        for (bad, label) in cases {
            let e = FabricService::restore(s.topo.clone(), &bad).err().unwrap();
            assert!(e.contains(label), "want {label:?} in {e:?}");
        }
    }

    #[test]
    fn bad_snapshots_are_rejected_with_reasons() {
        let s = busy_service();
        let snap = s.snapshot();

        let e = FabricService::restore(s.topo.clone(), "bogus v9\n")
            .err()
            .unwrap();
        assert!(e.contains("header"), "{e}");

        let truncated: String = snap.lines().take(4).map(|l| format!("{l}\n")).collect();
        let e = FabricService::restore(s.topo.clone(), &truncated)
            .err()
            .unwrap();
        assert!(e.contains("truncated") || e.contains("missing"), "{e}");

        // A topology of a different shape has a different link count.
        let small = Arc::new(leaf_spine(
            1,
            1,
            2,
            LinkSpec::gbps(10, 1000),
            LinkSpec::gbps(10, 1000),
            1500,
        ));
        let e = FabricService::restore(small, &snap).err().unwrap();
        assert!(e.contains("wrong topology"), "{e}");

        // Text glued to a record's last number is not ignored.
        let glued = with_field(&snap, |l| l.starts_with("cfg "), 6, "1000000x");
        let e = FabricService::restore(s.topo.clone(), &glued)
            .err()
            .unwrap();
        assert!(e.contains("reclaim_grace"), "{e}");
    }
}
