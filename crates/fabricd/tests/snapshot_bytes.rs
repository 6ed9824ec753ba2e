//! Pins the exact bytes of a busy service's snapshot.
//!
//! The v2 snapshot text is a stored format: a renderer rewrite must not
//! move a single byte of it. This drives a seeded service on the
//! 512-server paper FatTree (`fig17::build_topo(512, false)`, i.e.
//! `ThreeTierCfg::paper_512(16)`) through admits, resizes, a core
//! cordon, a ToR cordon, a host drain and the misbehavior scorer, then
//! checks the snapshot's length and FNV-1a hash against values recorded
//! from the renderer that wrote `format!` per field.

use fabric::{AbuseCfg, AdmissionCfg, TenantState};
use fabricd::{FabricOp, FabricReply, FabricService};
use netsim::{Time, MS, US};
use std::sync::Arc;
use topology::{three_tier, ThreeTierCfg, Topo};

/// Length of the pinned snapshot, in bytes.
const PINNED_LEN: usize = 88_536;
/// FNV-1a (64-bit) of the pinned snapshot.
const PINNED_FNV: u64 = 0xbadfc589dacf1086;

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// xorshift64: a fixed, dependency-free stream for the op mix.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn first_active(s: &FabricService) -> Option<u32> {
    s.tenants()
        .iter()
        .position(|t| t.is_active())
        .map(|i| i as u32)
}

fn busy_service() -> (FabricService, Arc<Topo>) {
    let topo = Arc::new(three_tier(ThreeTierCfg::paper_512(16)));
    let core = topo.cores[0].raw();
    let tor = topo.tors[3].raw();
    let mut s = FabricService::new(Arc::clone(&topo), AdmissionCfg::default());
    s.enable_abuse(AbuseCfg {
        sustain_ticks: 2,
        // Longer than the run: reinstatement re-commits on the tenant's
        // old hosts, which other tenants may have filled meanwhile.
        quarantine_hold: 100 * MS,
        ..AbuseCfg::default()
    });
    let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
    let step: Time = 20 * US;
    let mut n = 0u32;
    for k in 0..600u64 {
        let now = k * step;
        if rng.below(3) != 0 {
            s.submit(
                now,
                FabricOp::Admit {
                    name: format!("t{n}"),
                    n_vms: 1 + rng.below(8) as usize,
                    tokens_per_vm: (5 + rng.below(75)) as f64 / 10.0,
                    lifetime: 500 * US + rng.below(9_500) * US,
                },
            );
            n += 1;
        }
        match k {
            100 => {
                s.submit(now, FabricOp::Cordon { node: core });
            }
            200 => {
                if let Some(id) = first_active(&s) {
                    let host = s.tenants()[id as usize].hosts[0].raw();
                    s.submit(now, FabricOp::Drain { node: host });
                }
            }
            300 => {
                s.submit(now, FabricOp::Cordon { node: tor });
            }
            450 => {
                s.submit(now, FabricOp::Uncordon { node: tor });
            }
            _ => {}
        }
        if k % 50 == 25 {
            let targets: Vec<u32> = (0..s.tenants().len() as u32)
                .filter(|&i| s.tenants()[i as usize].is_active())
                .take(3)
                .collect();
            for (j, tenant) in targets.into_iter().enumerate() {
                let old = s.tenants()[tenant as usize].tokens_per_vm;
                let f = if j % 2 == 0 { 1.25 } else { 0.75 };
                s.submit(
                    now,
                    FabricOp::Resize {
                        tenant,
                        new_tokens_per_vm: old * f,
                    },
                );
            }
        }
        if k % 5 == 4 {
            for a in s.advance(now) {
                assert!(
                    !matches!(a.reply, FabricReply::Error { .. }),
                    "op {} failed: {}",
                    a.seq,
                    a.reply.encode()
                );
            }
            for (id, since) in s.qualifying() {
                if now >= since + 100 * US {
                    s.note_qualified(id, now);
                }
            }
            // Every seventh tenant is hostile while it is in good
            // standing, so the scorer walks the whole ladder.
            for id in (3..s.tenants().len() as u32).step_by(7) {
                if s.tenants()[id as usize].state == TenantState::Guaranteed
                    || s.tenants()[id as usize].state == TenantState::Suspected
                {
                    s.note_enforcement(id, 3, 1, 0);
                }
            }
            s.abuse_tick(now);
        }
    }
    // One op still queued past the clock.
    s.submit(
        600 * step + MS,
        FabricOp::Admit {
            name: "late".into(),
            n_vms: 2,
            tokens_per_vm: 1.0,
            lifetime: MS,
        },
    );
    (s, topo)
}

#[test]
fn snapshot_bytes_are_pinned() {
    let (s, topo) = busy_service();
    let snap = s.snapshot();
    // The mix must reach every record kind the format has.
    for tag in [
        "\ncordon ",
        "\ntenant ",
        "\nqueue ",
        "\nabusecfg ",
        "\nabuserow ",
    ] {
        assert!(snap.contains(tag), "snapshot lacks a {tag:?} record");
    }
    assert!(!snap.contains("\ncordon -\n"), "nothing is cordoned");
    for state in ["reclaimed", "quarantined", "guaranteed", "qualifying"] {
        assert!(snap.contains(&format!(" {state} ")), "no tenant is {state}");
    }
    assert_eq!(
        (snap.len(), fnv1a(snap.as_bytes())),
        (PINNED_LEN, PINNED_FNV),
        "snapshot bytes moved (len, FNV-1a)"
    );
    let back = FabricService::restore(topo, &snap).unwrap();
    assert_eq!(back.snapshot(), snap, "render(restore(s)) != s");
}
