//! Schedule exploration of the router's journal/checkpoint/retract
//! protocol: 256 seeded schedules interleave the event streams a live
//! router serializes under its mutation lock — acknowledged writes,
//! replica kill/heal cycles, durability checkpoints, and no-winner
//! retractions — against two real [`Journal`]s, and every schedule must
//! converge to byte-identical replica state with zero deadlocks.
//!
//! The interpreter is deliberately serial: the router's `mutation_lock`
//! serializes fan-out writes, checkpoints, and heals against each other,
//! so the real nondeterminism is *which order those critical sections
//! run in*, not how they overlap. [`interleave`] draws that order from
//! the seed; the armed [`Schedule`] additionally fires the
//! `journal.push`/`journal.retract`/`journal.snapshot`/`journal.truncate`
//! yield points inside each Journal call. Deterministic: no wall clock —
//! the deadlock watchdog is [`run_bounded`]'s poll budget.

use pc_kernels::sched::{interleave, run_bounded, site_steps, Schedule};
use pc_service::protocol::{ReplayEntry, SequencedEntry};
use pc_service::ring::Journal;
use probable_cause::ErrorString;

const SEEDS: u64 = 256;
/// Poll budget per schedule; a healthy run finishes in well under this.
const BUDGET: usize = 20_000_000;
/// Acknowledged writes per run.
const WRITES: usize = 10;
/// Writes that land on no replica and are retracted per run.
const NO_ACKS: usize = 2;
/// The Journal yield points every schedule must reach.
const SITES: [&str; 4] = [
    "journal.push",
    "journal.retract",
    "journal.snapshot",
    "journal.truncate",
];

/// The mutation payload for acknowledged write `i` — alternating replay
/// entry variants so both wire shapes ride through the journal.
fn write_entry(i: usize) -> ReplayEntry {
    let errors = ErrorString::from_sorted(vec![3 + i as u64], 4096).expect("fixture errors");
    if i.is_multiple_of(2) {
        ReplayEntry::Characterize {
            label: format!("w{i}"),
            errors,
        }
    } else {
        ReplayEntry::ClusterIngest { errors }
    }
}

/// The payload for a retracted (no-winner) write — distinctive bits so a
/// leak into a store is unmistakable.
fn no_ack_entry(i: usize) -> ReplayEntry {
    ReplayEntry::Characterize {
        label: format!("noack{i}"),
        errors: ErrorString::from_sorted(vec![4000 + i as u64], 4096).expect("fixture errors"),
    }
}

/// One modeled replica: the router pushes every acknowledged write into
/// every replica's journal (live or not); only live replicas apply.
struct Replica {
    live: bool,
    journal: Journal,
    /// Highest applied write sequence — the replay idempotency watermark.
    watermark: u64,
    /// Applied mutations, in application order.
    store: Vec<SequencedEntry>,
}

impl Replica {
    fn new() -> Replica {
        Replica {
            live: true,
            journal: Journal::default(),
            watermark: 0,
            store: Vec::new(),
        }
    }

    fn apply(&mut self, seq: u64, entry: ReplayEntry) {
        if seq > self.watermark {
            self.watermark = seq;
            self.store.push(SequencedEntry { seq, entry });
        }
    }

    /// The heal critical section: replay the journal above the
    /// watermark, checkpoint (truncate what the snapshot covered), and
    /// rejoin the write fan-out.
    fn heal(&mut self) {
        if self.live {
            return;
        }
        let batch = self.journal.snapshot();
        let covered = batch.len();
        for entry in batch {
            self.apply(entry.seq, entry.entry);
        }
        self.journal.truncate(covered);
        self.live = true;
    }

    /// The checkpoint critical section: a live replica persists and its
    /// journal drops everything the checkpoint covered. A dead replica
    /// keeps its journal — that backlog is exactly what heal replays.
    fn save(&mut self) {
        if self.live {
            let covered = self.journal.len();
            self.journal.truncate(covered);
        }
    }
}

/// The event streams one run merges. Order within each stream is fixed
/// (writes ascend, kill precedes heal); the seed picks the merge.
const STREAM_WRITES: usize = 0;
const STREAM_FAIL: usize = 1;
const STREAM_SAVE: usize = 2;
const STREAM_NO_ACK: usize = 3;

/// Runs the full protocol under one merge order and returns the two
/// replicas for inspection. Replica A is always live (the quorum that
/// keeps the router accepting writes); replica B is killed and healed by
/// the fail stream.
fn run_schedule(seed: u64) -> (Replica, Replica) {
    let order = interleave(seed, &[WRITES, 4, 2, NO_ACKS]);
    let mut a = Replica::new();
    let mut b = Replica::new();
    let mut next_wseq = 0u64;
    let mut write_i = 0usize;
    let mut fail_i = 0usize;
    let mut no_ack_i = 0usize;
    for stream in order {
        match stream {
            STREAM_WRITES => {
                // fan_out_write: journal everywhere, apply on live nodes.
                next_wseq += 1;
                let entry = write_entry(write_i);
                write_i += 1;
                a.journal.push(next_wseq, entry.clone());
                b.journal.push(next_wseq, entry.clone());
                if a.live {
                    a.apply(next_wseq, entry.clone());
                }
                if b.live {
                    b.apply(next_wseq, entry);
                }
            }
            STREAM_FAIL => {
                // Alternating kill/heal of replica B.
                if fail_i.is_multiple_of(2) {
                    b.live = false;
                } else {
                    b.heal();
                }
                fail_i += 1;
            }
            STREAM_SAVE => {
                a.save();
                b.save();
            }
            STREAM_NO_ACK => {
                // A write no replica acknowledged: journaled, delivered
                // nowhere, retracted — one atomic critical section.
                next_wseq += 1;
                let entry = no_ack_entry(no_ack_i);
                no_ack_i += 1;
                a.journal.push(next_wseq, entry.clone());
                b.journal.push(next_wseq, entry);
                a.journal.retract_last();
                b.journal.retract_last();
            }
            _ => unreachable!("interleave only emits declared streams"),
        }
    }
    // Drain: heal B if the merge left it dead, then a final checkpoint.
    b.heal();
    a.save();
    b.save();
    (a, b)
}

/// Payload-only view of a store — stable across seeds even though
/// retracted no-ack writes shift the sequence numbers of later writes.
fn payloads(store: &[SequencedEntry]) -> Vec<String> {
    store.iter().map(|e| format!("{:?}", e.entry)).collect()
}

#[test]
fn journal_protocol_is_schedule_independent() {
    // Every acknowledged write, in order, and nothing else.
    let reference: Vec<String> = (0..WRITES)
        .map(|i| format!("{:?}", write_entry(i)))
        .collect();

    for seed in 0..SEEDS {
        let sched = Schedule::arm(seed);
        let (a, b) = run_bounded(BUDGET, move || run_schedule(seed))
            .unwrap_or_else(|d| panic!("seed {seed}: {d}"));
        // The hooks must actually fire: a site the armed schedule never
        // reached is a protocol step the explorer is not perturbing.
        for site in SITES {
            assert!(site_steps(site) > 0, "seed {seed}: {site} never fired");
        }
        drop(sched);

        // Replica convergence: byte-identical applied state, sequence
        // numbers included.
        assert_eq!(
            a.store, b.store,
            "seed {seed}: replicas diverged after heal"
        );
        // Schedule independence: every merge order converges to the same
        // payload sequence.
        assert_eq!(
            payloads(&a.store),
            reference,
            "seed {seed}: applied writes diverged across schedules"
        );
        // Retraction: no-winner writes never survive into a store.
        for entry in a.store.iter().chain(b.store.iter()) {
            if let ReplayEntry::Characterize { label, .. } = &entry.entry {
                assert!(
                    !label.starts_with("noack"),
                    "seed {seed}: retracted write {label} leaked into a store"
                );
            }
        }
        // Checkpointing: both journals drained by the final save, and
        // every push (acked or retracted) was counted on both replicas.
        assert!(a.journal.is_empty(), "seed {seed}: journal A not drained");
        assert!(b.journal.is_empty(), "seed {seed}: journal B not drained");
        let pushes = (WRITES + NO_ACKS) as u64;
        assert_eq!(a.journal.appended(), pushes, "seed {seed}: A push count");
        assert_eq!(b.journal.appended(), pushes, "seed {seed}: B push count");
    }
}
