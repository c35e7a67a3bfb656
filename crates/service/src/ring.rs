//! The deterministic replica ranking, replica health state machine, and
//! per-replica pending-write journal behind the `pc route` tier.
//!
//! Every replica holds the whole database (writes fan out to all of them),
//! so placement only decides which replica answers a read. It is
//! rendezvous (highest-random-weight) hashing: each replica address hashes
//! once, a key's point is mixed with that hash to give the replica a
//! score, and a key's walk is the replicas in descending score (Thaler &
//! Ravishankar, "Using name-based mappings to increase hit rates", IEEE/ACM
//! ToN 1998). All hashing goes through `pc_stats::mix64`, so the walk is
//! byte-identical across thread counts, process restarts, and platforms.
//! Adding or removing one replica moves only the keys that replica heads
//! (≈ `1/N` of them, pinned under `2/N` by proptest), and removing one
//! leaves every other key's walk in the same order, so a down replica's
//! reads spread over the survivors.
//!
//! Health is tracked per replica with hysteresis — `Up → Suspect → Down`
//! on consecutive failures, `Down → Up` only after consecutive probe
//! successes *and* a journal replay — so one dropped packet neither
//! removes a replica nor flaps it back mid-recovery. Probes to `Down`
//! replicas back off exponentially up to a cap.
//!
//! The journal records every acknowledged mutation per replica, each
//! tagged with the router's global write sequence. It is truncated at
//! durability checkpoints (a `save` acked by that replica) — issued by
//! clients or by the router itself once a live journal crosses the
//! configured depth — so a rejoining replica that lost everything since
//! its last checkpoint, including one restarted from an empty disk, can
//! be healed by replaying its pending entries in original order. The
//! sequence tags make that replay idempotent: a replica that kept its
//! state skips entries at or below its applied-write watermark instead
//! of refining the same observations twice. Each journal operation is a
//! named [`sched::yield_point`], so the schedule explorer can perturb the
//! router's journal protocol.

use crate::protocol::{ReplayEntry, SequencedEntry};
use pc_kernels::sched;
use pc_stats::mix64;
use probable_cause::ErrorString;
use std::cmp::Reverse;
use std::collections::VecDeque;

/// Deterministic string hash of a replica address: folds each byte
/// through `mix64`.
fn hash_str(s: &str) -> u64 {
    let mut h = mix64(0x5eed ^ 0x0070_632d_7269_6e67); // "pc-ring"
    for &b in s.as_bytes() {
        h = mix64(h ^ u64::from(b));
    }
    h
}

/// The routing key of an error string: a content hash over `(size,
/// positions)`. Identical observations route identically regardless of
/// which client sent them.
pub fn key_of(errors: &ErrorString) -> u64 {
    let mut h = mix64(errors.size() ^ 0x6b65_795f_6f66);
    for &p in errors.positions() {
        h = mix64(h ^ p);
    }
    h
}

/// A deterministic rendezvous ranking over replica indices.
///
/// The ring never mutates after construction; topology changes mean
/// building a new ring, which is how the remap bound is stated and tested.
#[derive(Debug, Clone)]
pub struct Ring {
    /// One address hash per replica, in declaration order.
    hashes: Vec<u64>,
}

impl Ring {
    /// Builds the ranking for `nodes` (replica addresses; declaration
    /// order is identity).
    pub fn new(nodes: &[String]) -> Self {
        Self {
            hashes: nodes.iter().map(|addr| hash_str(addr)).collect(),
        }
    }

    /// Every replica ranked for `key`: descending rendezvous score, exact
    /// score ties broken by replica index. The first entry answers the
    /// read; the rest are the failover order.
    pub fn walk(&self, key: u64) -> Vec<usize> {
        let point = mix64(key ^ 0x7072_6566);
        let mut scored: Vec<(u64, usize)> = self
            .hashes
            .iter()
            .enumerate()
            .map(|(index, &hash)| (mix64(point ^ hash), index))
            .collect();
        scored.sort_unstable_by_key(|&(score, index)| (Reverse(score), index));
        scored.into_iter().map(|(_, index)| index).collect()
    }
}

/// Replica health as the router sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Health {
    /// Serving: answers reads at its walk position and takes every write.
    Up,
    /// Recently failing but not yet evicted — still tried, deprioritized
    /// by callers that can.
    Suspect,
    /// Evicted from serving; probed with capped-exponential backoff and
    /// healed by journal replay before rejoining.
    Down,
}

impl Health {
    /// The wire string for this state (`"up"` / `"suspect"` / `"down"`).
    pub fn as_str(self) -> &'static str {
        match self {
            Health::Up => "up",
            Health::Suspect => "suspect",
            Health::Down => "down",
        }
    }
}

/// Hysteresis and backoff knobs for the health state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthPolicy {
    /// Consecutive failures before `Up` degrades to `Suspect`.
    pub suspect_after: u32,
    /// Consecutive failures before a replica is marked `Down`.
    pub down_after: u32,
    /// Consecutive probe successes a `Down` replica needs before it may
    /// rejoin (replay happens after the last one).
    pub up_after: u32,
    /// Base probe backoff for a `Down` replica, in milliseconds.
    pub probe_base_ms: u64,
    /// Probe backoff cap, in milliseconds.
    pub probe_max_ms: u64,
}

impl Default for HealthPolicy {
    fn default() -> Self {
        Self {
            suspect_after: 1,
            down_after: 3,
            up_after: 2,
            probe_base_ms: 20,
            probe_max_ms: 500,
        }
    }
}

/// One replica's health record: state plus the consecutive-outcome
/// counters that drive hysteresis.
#[derive(Debug, Clone, Copy)]
pub struct NodeHealth {
    state: Health,
    consecutive_failures: u32,
    consecutive_successes: u32,
    /// Probes attempted since the node went down (drives backoff).
    probes_down: u32,
}

impl Default for NodeHealth {
    fn default() -> Self {
        Self {
            state: Health::Up,
            consecutive_failures: 0,
            consecutive_successes: 0,
            probes_down: 0,
        }
    }
}

impl NodeHealth {
    /// Current state.
    pub fn state(&self) -> Health {
        self.state
    }

    /// Whether the replica is eligible for serving (`Up` or `Suspect`).
    pub fn is_live(&self) -> bool {
        self.state != Health::Down
    }

    /// Records a failed forward or probe. Returns `true` when this
    /// failure transitioned the replica to `Down`.
    pub fn record_failure(&mut self, policy: &HealthPolicy) -> bool {
        self.consecutive_successes = 0;
        self.consecutive_failures = self.consecutive_failures.saturating_add(1);
        match self.state {
            Health::Down => {
                self.probes_down = self.probes_down.saturating_add(1);
                false
            }
            _ => {
                if self.consecutive_failures >= policy.down_after {
                    self.state = Health::Down;
                    self.probes_down = 0;
                    true
                } else {
                    if self.consecutive_failures >= policy.suspect_after {
                        self.state = Health::Suspect;
                    }
                    false
                }
            }
        }
    }

    /// Records a successful forward or probe. Returns `true` when the
    /// replica has now earned rejoin (caller must replay its journal
    /// before flipping it up via [`mark_up`](Self::mark_up)).
    pub fn record_success(&mut self, policy: &HealthPolicy) -> bool {
        self.consecutive_failures = 0;
        self.consecutive_successes = self.consecutive_successes.saturating_add(1);
        match self.state {
            Health::Down => self.consecutive_successes >= policy.up_after,
            Health::Suspect => {
                if self.consecutive_successes >= policy.up_after {
                    self.state = Health::Up;
                }
                false
            }
            Health::Up => false,
        }
    }

    /// Evicts the replica immediately, bypassing hysteresis. Used when a
    /// fanned-out write was not acknowledged: the replica is by definition
    /// out of sync and must heal by journal replay before serving again.
    pub fn mark_down(&mut self) -> bool {
        let was_live = self.state != Health::Down;
        self.state = Health::Down;
        self.consecutive_successes = 0;
        if was_live {
            self.probes_down = 0;
        }
        was_live
    }

    /// Flips a `Down` replica back to `Up` after its journal replayed.
    pub fn mark_up(&mut self) {
        self.state = Health::Up;
        self.consecutive_failures = 0;
        self.consecutive_successes = 0;
        self.probes_down = 0;
    }

    /// The delay until this replica's next health probe, in milliseconds.
    ///
    /// `Up` replicas get a slow heartbeat at the backoff cap — ordinary
    /// forwards already exercise them, and probing every base interval
    /// opens enough throwaway connections to exhaust the ephemeral port
    /// range on a long run. `Suspect` replicas are probed at the base rate
    /// so they resolve quickly; `Down` replicas back off capped-exponentially.
    pub fn probe_delay_ms(&self, policy: &HealthPolicy) -> u64 {
        match self.state {
            Health::Up => policy.probe_max_ms.max(policy.probe_base_ms),
            Health::Suspect => policy.probe_base_ms,
            Health::Down => {
                let shift = self.probes_down.min(16);
                policy
                    .probe_base_ms
                    .saturating_mul(1u64 << shift)
                    .min(policy.probe_max_ms)
            }
        }
    }
}

/// A replica's pending-write journal: every acknowledged mutation since
/// the replica's last durability checkpoint, oldest first, each tagged
/// with the router's global write sequence.
#[derive(Debug, Default)]
pub struct Journal {
    entries: VecDeque<SequencedEntry>,
    appended: u64,
    replayed: u64,
}

impl Journal {
    /// Appends one mutation under the router's write sequence `seq`.
    pub fn push(&mut self, seq: u64, entry: ReplayEntry) {
        sched::yield_point("journal.push");
        self.entries.push_back(SequencedEntry { seq, entry });
        self.appended = self.appended.saturating_add(1);
    }

    /// Removes the newest entry — the write the caller just pushed and
    /// then failed to land on *any* replica. Journaling a write no
    /// replica acknowledged would re-apply it on heal even though the
    /// client was shed and will retry. Does not rewind
    /// [`appended`](Self::appended); retractions are counted separately
    /// by the caller.
    pub fn retract_last(&mut self) {
        sched::yield_point("journal.retract");
        self.entries.pop_back();
    }

    /// Pending (un-checkpointed) entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Mutations appended since start (monotone; never truncated).
    pub fn appended(&self) -> u64 {
        self.appended
    }

    /// Entries shipped in replay batches since start.
    pub fn replayed(&self) -> u64 {
        self.replayed
    }

    /// Snapshots the current pending entries for a replay batch, oldest
    /// first. The journal keeps them until [`truncate`](Self::truncate) —
    /// replay alone is not durable.
    pub fn snapshot(&mut self) -> Vec<SequencedEntry> {
        sched::yield_point("journal.snapshot");
        self.replayed = self.replayed.saturating_add(self.entries.len() as u64);
        self.entries.iter().cloned().collect()
    }

    /// Drops the oldest `n` entries after the replica acknowledged a
    /// durability checkpoint covering them.
    pub fn truncate(&mut self, n: usize) {
        sched::yield_point("journal.truncate");
        let n = n.min(self.entries.len());
        self.entries.drain(..n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addrs(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("127.0.0.1:9{i:03}")).collect()
    }

    #[test]
    fn walk_ranks_every_replica_once() {
        let nodes = addrs(5);
        let a = Ring::new(&nodes);
        let b = Ring::new(&nodes);
        for key in 0..256u64 {
            let walk = a.walk(mix64(key));
            assert_eq!(walk, b.walk(mix64(key)), "same replicas, same walk");
            let mut sorted = walk.clone();
            sorted.sort_unstable();
            assert_eq!(
                sorted,
                (0..5).collect::<Vec<_>>(),
                "walk must be a permutation"
            );
        }
    }

    #[test]
    fn key_of_hashes_content() {
        let a = ErrorString::from_sorted(vec![1, 5, 9], 4096).unwrap();
        let b = ErrorString::from_sorted(vec![1, 5, 9], 4096).unwrap();
        let c = ErrorString::from_sorted(vec![1, 5, 10], 4096).unwrap();
        assert_eq!(key_of(&a), key_of(&b));
        assert_ne!(key_of(&a), key_of(&c));
    }

    #[test]
    fn health_hysteresis_and_backoff() {
        let policy = HealthPolicy::default();
        let mut node = NodeHealth::default();
        assert!(node.is_live());

        // One failure: suspect, still live.
        assert!(!node.record_failure(&policy));
        assert_eq!(node.state(), Health::Suspect);
        assert!(node.is_live());

        // A success heals the streak but hysteresis holds it in suspect.
        assert!(!node.record_success(&policy));
        assert_eq!(node.state(), Health::Suspect);
        assert!(!node.record_success(&policy));
        assert_eq!(node.state(), Health::Up);

        // Three straight failures: down.
        assert!(!node.record_failure(&policy));
        assert!(!node.record_failure(&policy));
        assert!(node.record_failure(&policy));
        assert_eq!(node.state(), Health::Down);
        assert!(!node.is_live());

        // Probe backoff grows with failed probes and caps.
        let d0 = node.probe_delay_ms(&policy);
        node.record_failure(&policy);
        node.record_failure(&policy);
        let d2 = node.probe_delay_ms(&policy);
        assert!(d2 > d0);
        for _ in 0..40 {
            node.record_failure(&policy);
        }
        assert_eq!(node.probe_delay_ms(&policy), policy.probe_max_ms);

        // Two successes earn rejoin; mark_up completes it.
        assert!(!node.record_success(&policy));
        assert!(node.record_success(&policy));
        assert_eq!(node.state(), Health::Down, "rejoin waits for replay");
        node.mark_up();
        assert_eq!(node.state(), Health::Up);
    }

    #[test]
    fn journal_snapshot_keeps_entries_until_truncate() {
        let es = ErrorString::from_sorted(vec![3], 4096).unwrap();
        let mut journal = Journal::default();
        journal.push(1, ReplayEntry::ClusterIngest { errors: es.clone() });
        journal.push(
            2,
            ReplayEntry::Characterize {
                label: "x".into(),
                errors: es,
            },
        );
        assert_eq!(journal.len(), 2);
        let batch = journal.snapshot();
        assert_eq!(batch.len(), 2);
        assert_eq!(
            batch.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![1, 2],
            "snapshot must keep sequence order"
        );
        assert_eq!(journal.len(), 2, "snapshot must not drain");
        assert_eq!(journal.replayed(), 2);
        journal.truncate(2);
        assert!(journal.is_empty());
        assert_eq!(journal.appended(), 2);
    }

    #[test]
    fn journal_retract_drops_only_the_newest_entry() {
        let es = ErrorString::from_sorted(vec![3], 4096).unwrap();
        let mut journal = Journal::default();
        journal.push(1, ReplayEntry::ClusterIngest { errors: es.clone() });
        journal.push(
            2,
            ReplayEntry::Characterize {
                label: "x".into(),
                errors: es,
            },
        );
        journal.retract_last();
        assert_eq!(journal.len(), 1);
        let batch = journal.snapshot();
        assert_eq!(batch.len(), 1);
        assert_eq!(batch[0].seq, 1, "retraction must pop the newest entry");
        journal.retract_last();
        assert!(journal.is_empty());
        journal.retract_last(); // retracting an empty journal is a no-op
        assert!(journal.is_empty());
    }
}
