//! Reference kernels: fixed work that belongs to the benchmark, not to
//! the program, timed in the same stretch as the program's passes.
//!
//! The host this benchmark is run on shares its cores, caches and
//! memory with other machines' work, and that load comes and goes: for
//! seconds to minutes the same pass runs 20–70 % slower. A kernel that
//! does the same kind of work as the workload slows with it, so the
//! ratio of the two stays put while each swings. Each workload has the
//! kernel that tracked it best: an event queue for the simulator, and
//! record rendering and parsing for the control plane. A pass's host
//! times are scaled by the kernel's nominal time over its measured one,
//! which gives them at the host speed of a quiet stretch. The kernels
//! never change with the program, so a change to the program moves the
//! scaled times by what it moves the program's own.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::fmt::Write;
use std::hint::black_box;
use std::time::Instant;

/// Pending entries in the event-queue kernel.
const QUEUE_LEN: u64 = 4096;
/// Pop-and-reschedule steps of one event-queue sample.
pub const QUEUE_STEPS: u64 = 30_000;
/// Records one record-kernel sample renders and parses.
pub const RECORDS: u64 = 10_000;
/// Host seconds of one [`event_queue`] sample, and of one [`records`]
/// sample, on the host the benchmark was tuned on in a quiet stretch:
/// the host speed that `*_ref_*` figures and `setup_s` are scaled to.
pub const QUEUE_NOMINAL_S: f64 = 2.6e-3;
pub const RECORDS_NOMINAL_S: f64 = 7.5e-3;

fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

/// The simulator's kind of work: a queue of [`QUEUE_LEN`] pending
/// timed entries with boxed payloads, each popped, read and rescheduled
/// a random delay later, [`QUEUE_STEPS`] times. Host seconds.
pub fn event_queue() -> f64 {
    let t0 = Instant::now();
    let mut s = 7u64;
    let mut q: BinaryHeap<(Reverse<u64>, Box<[u64; 8]>)> = (0..QUEUE_LEN)
        .map(|i| (Reverse(xorshift(&mut s) % 1_000_000), Box::new([i; 8])))
        .collect();
    let mut acc = 0u64;
    for _ in 0..QUEUE_STEPS {
        let (Reverse(at), payload) = q.pop().expect("the queue never empties");
        acc = acc.wrapping_add(payload[3]);
        q.push((Reverse(at + xorshift(&mut s) % 10_000), payload));
    }
    black_box(acc);
    t0.elapsed().as_secs_f64()
}

/// The control plane's kind of work: [`RECORDS`] tenant-like records
/// (key, name, host list, rate) in an ordered map, rendered to text
/// line by line and parsed back into a new map. Host seconds.
pub fn records() -> f64 {
    type Record = (String, Vec<u32>, f64);
    let t0 = Instant::now();
    let mut s = 11u64;
    let mut map: BTreeMap<u64, Record> = BTreeMap::new();
    for i in 0..RECORDS {
        let k = xorshift(&mut s) % (RECORDS * 4);
        let hosts = (0..(k % 8) as u32).collect();
        map.insert(k, (format!("t{i}"), hosts, k as f64 * 0.5));
    }
    let mut text = String::new();
    for (k, (name, hosts, rate)) in &map {
        let _ = write!(text, "tenant {k} {name} {rate}");
        for h in hosts {
            let _ = write!(text, " {h}");
        }
        text.push('\n');
    }
    let mut back: BTreeMap<u64, Record> = BTreeMap::new();
    for line in text.lines() {
        let mut it = line.split(' ').skip(1);
        let mut field = || it.next().expect("rendered above");
        let k: u64 = field().parse().expect("rendered above");
        let name = field().to_string();
        let rate: f64 = field().parse().expect("rendered above");
        let hosts = it.map(|h| h.parse().expect("rendered above")).collect();
        back.insert(k, (name, hosts, rate));
    }
    assert_eq!(back, map, "the record kernel round-trips");
    t0.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernels_run_and_take_time() {
        assert!(event_queue() > 0.0);
        assert!(records() > 0.0);
    }
}
