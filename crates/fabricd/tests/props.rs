//! Property-based tests for the control-plane wire format and the
//! snapshot/restore path.

use fabric::{AbuseCfg, AdmissionCfg, TenantState};
use fabricd::{FabricOp, FabricReply, FabricService};
use netsim::builder::LinkSpec;
use netsim::{MS, US};
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};
use topology::{leaf_spine, three_tier, ThreeTierCfg, Topo};

fn topo() -> Arc<Topo> {
    Arc::new(leaf_spine(
        3,
        2,
        4,
        LinkSpec::gbps(10, 1000),
        LinkSpec::gbps(40, 1000),
        1500,
    ))
}

const NAME_CHARS: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789_.";
const DETAIL_CHARS: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789 :()#/-";

fn text(idx: &[usize], alphabet: &[u8]) -> String {
    idx.iter()
        .map(|&i| alphabet[i % alphabet.len()] as char)
        .collect()
}

/// Build one of the six op variants from a flat tuple of field values;
/// `kind` selects the variant, the other fields are reinterpreted as
/// needed so every variant sees arbitrary values.
fn make_op(
    kind: usize,
    name: String,
    n_vms: usize,
    tokens: f64,
    lifetime: u64,
    id: u32,
) -> FabricOp {
    match kind % 6 {
        0 => FabricOp::Admit {
            name,
            n_vms,
            tokens_per_vm: tokens,
            lifetime,
        },
        1 => FabricOp::Depart { tenant: id },
        2 => FabricOp::Resize {
            tenant: id,
            new_tokens_per_vm: tokens,
        },
        3 => FabricOp::Cordon { node: id },
        4 => FabricOp::Uncordon { node: id },
        _ => FabricOp::Drain { node: id },
    }
}

proptest! {
    /// Every op decodes back from its canonical wire form, exactly —
    /// including the f64 token fields (Rust's `Display` is shortest
    /// round-trip).
    #[test]
    fn op_wire_round_trips(
        kind in 0usize..6,
        name_idx in prop::collection::vec(0usize..1000, 1..12),
        n_vms in 1usize..16,
        tokens in 0.1f64..64.0,
        lifetime in 1u64..100_000_000,
        id in 0u32..10_000,
    ) {
        let op = make_op(kind, text(&name_idx, NAME_CHARS), n_vms, tokens, lifetime, id);
        let line = op.encode();
        let back = FabricOp::decode(&line).unwrap();
        prop_assert_eq!(&back, &op);
        prop_assert_eq!(back.encode(), line);
    }

    /// Replies with free-text detail fields and host/move lists
    /// round-trip through the wire form.
    #[test]
    fn reply_wire_round_trips(
        tenant in 0u32..1000,
        hosts in prop::collection::vec(0u32..512, 0..8),
        detail_idx in prop::collection::vec(0usize..1000, 0..40),
        moved in prop::collection::vec((0u32..64, 0u32..8, 0u32..512, 0u32..512), 0..6),
    ) {
        let detail = text(&detail_idx, DETAIL_CHARS).trim().to_string();
        let replies = vec![
            FabricReply::Admitted { tenant, hosts: hosts.clone() },
            FabricReply::ResizeDenied { tenant, detail: detail.clone() },
            FabricReply::Drained { node: tenant, moved },
            FabricReply::Error { detail },
        ];
        for r in replies {
            let line = r.encode();
            let back = FabricReply::decode(&line).unwrap();
            prop_assert_eq!(&back, &r);
            prop_assert_eq!(back.encode(), line);
        }
    }

    /// Snapshot → restore round-trips byte-exactly and passes the
    /// conservation audit for any randomized tenant mix, including
    /// mixes with departures, resizes, and rejections in the history.
    #[test]
    fn snapshot_restore_survives_random_tenant_mixes(
        admits in prop::collection::vec(
            (1usize..6, (5u64..80, 1u64..40, 1u64..5000)),
            1..12,
        ),
        resizes in prop::collection::vec((0u32..12, 5u64..80), 0..4),
        cut in 1u64..60,
    ) {
        let t = topo();
        let mut s = FabricService::new(t.clone(), AdmissionCfg::default());
        let mut now = 0;
        for (n_vms, (tokens_tenths, gap_us, life_us)) in admits {
            s.submit(now, FabricOp::Admit {
                name: format!("t{now}"),
                n_vms,
                tokens_per_vm: tokens_tenths as f64 / 10.0,
                lifetime: life_us * US,
            });
            now += gap_us * US;
        }
        for (tenant, tokens_tenths) in resizes {
            s.submit(now, FabricOp::Resize {
                tenant,
                new_tokens_per_vm: tokens_tenths as f64 / 10.0,
            });
            now += 5 * US;
        }
        // Advance partway: some ops applied, some may still be queued,
        // some tenants departed or mid-reclaim.
        s.advance(cut * US);
        s.audit().unwrap();

        let snap = s.snapshot();
        let mut back = FabricService::restore(t, &snap).unwrap();
        prop_assert_eq!(back.snapshot(), snap);
        prop_assert_eq!(back.digest(), s.digest());

        // Both replay the remaining queue identically.
        let (a, b) = (s.advance(now + 10 * MS), back.advance(now + 10 * MS));
        prop_assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            prop_assert_eq!(x.reply.encode(), y.reply.encode());
        }
        prop_assert_eq!(back.digest(), s.digest());
        back.audit().unwrap();
        s.audit().unwrap();
    }
}

/// A valid v2 snapshot with every record kind in it: tenants in several
/// states (one quarantined, some departed), a cordoned core and a
/// drained host, a queued op and the scorer's rows — over a small
/// three-tier tree, so agg and core ids are in play.
fn busy_snapshot() -> &'static (Arc<Topo>, String) {
    static SNAP: OnceLock<(Arc<Topo>, String)> = OnceLock::new();
    SNAP.get_or_init(|| {
        let t = Arc::new(three_tier(ThreeTierCfg {
            pods: 2,
            tors_per_pod: 2,
            hosts_per_tor: 2,
            aggs_per_pod: 2,
            cores: 4,
            ..ThreeTierCfg::default()
        }));
        let mut s = FabricService::new(t.clone(), AdmissionCfg::default());
        s.enable_abuse(AbuseCfg {
            sustain_ticks: 2,
            quarantine_hold: 50 * MS,
            ..AbuseCfg::default()
        });
        for k in 0..8u64 {
            s.submit(
                k * 20 * US,
                FabricOp::Admit {
                    name: format!("m{k}"),
                    n_vms: 1 + k as usize % 3,
                    tokens_per_vm: 1.0 + k as f64 * 0.5,
                    lifetime: (1 + k % 4) * MS,
                },
            );
        }
        s.submit(
            200 * US,
            FabricOp::Cordon {
                node: t.cores[0].raw(),
            },
        );
        s.submit(
            210 * US,
            FabricOp::Resize {
                tenant: 1,
                new_tokens_per_vm: 2.5,
            },
        );
        s.submit(
            220 * US,
            FabricOp::Drain {
                node: t.hosts[0].raw(),
            },
        );
        s.advance(300 * US);
        for (id, _) in s.qualifying() {
            s.note_qualified(id, 300 * US);
        }
        let mut now = 300 * US;
        while s.tenants()[3].state != TenantState::Quarantined {
            s.note_enforcement(3, 3, 1, 0);
            s.abuse_tick(now);
            now += 50 * US;
            assert!(now < MS, "tenant 3 never quarantined");
        }
        s.advance(2500 * US);
        s.submit(10 * MS, FabricOp::Depart { tenant: 7 });
        let snap = s.snapshot();
        for tag in [
            "departing ",
            "reclaimed ",
            "quarantined ",
            "\nqueue ",
            "\nabuserow ",
        ] {
            assert!(snap.contains(tag), "fixture lacks {tag:?}");
        }
        (t, snap)
    })
}

/// Replace the `pick`-th token of `snap` (maximal runs between spaces,
/// newlines, commas and colons) by a value chosen by `how`: boundary
/// numbers, float bit patterns, small node ids, a token from elsewhere
/// in the snapshot, garbage, or nothing at all.
fn mutate(snap: &str, pick: usize, how: usize, v: u64) -> String {
    let is_sep = |c: char| matches!(c, ' ' | '\n' | ',' | ':');
    let mut tokens = Vec::new();
    let mut start = None;
    for (i, c) in snap.char_indices() {
        match (is_sep(c), start) {
            (false, None) => start = Some(i),
            (true, Some(s)) => {
                tokens.push((s, i));
                start = None;
            }
            _ => {}
        }
    }
    let (a, b) = tokens[pick % tokens.len()];
    let (c, d) = tokens[v as usize % tokens.len()];
    let repl = match how % 16 {
        0 => "0".to_string(),
        1 => "1".to_string(),
        2 => "-".to_string(),
        3 => u64::MAX.to_string(),
        4 => u32::MAX.to_string(),
        5 => "ffffffffffffffff".to_string(),
        6 => format!("{:016x}", f64::NAN.to_bits()),
        7 => format!("{:016x}", 0.0f64.to_bits()),
        8 => format!("{:016x}", (-1.0f64).to_bits()),
        9 => snap[c..d].to_string(),
        10 => String::new(),
        11 => (v % 64).to_string(),
        12 => (v % 16).to_string(),
        13 => format!("{v:016x}"),
        14 => "x".to_string(),
        _ => v.to_string(),
    };
    format!("{}{}{}", &snap[..a], repl, &snap[b..])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3_000))]

    /// Restore treats snapshot text as untrusted: every single-token
    /// mutation of a valid snapshot is restored or refused with a
    /// labelled error — never a panic — and whatever restores passes
    /// the conservation audit.
    #[test]
    fn mutated_snapshots_restore_or_err_without_panicking(
        pick in 0usize..1_000_000,
        how in 0usize..16,
        v in 0u64..u64::MAX,
    ) {
        let (t, snap) = busy_snapshot();
        let bad = mutate(snap, pick, how, v);
        match FabricService::restore(t.clone(), &bad) {
            Ok(r) => prop_assert!(r.audit().is_ok(), "restored but fails audit: {:?}", r.audit()),
            Err(e) => prop_assert!(!e.is_empty()),
        }
    }
}
