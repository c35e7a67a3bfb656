//! The deterministic consistent-hash ring, replica health state machine,
//! and per-replica pending-write journal behind the `pc route` tier.
//!
//! Placement is a classic consistent-hash ring with seeded virtual nodes:
//! each replica address hashes to [`RingConfig::vnodes`] points on a `u64`
//! circle (all hashing goes through `pc_stats::mix64`, so placement is
//! byte-identical across thread counts, process restarts, and platforms).
//! A key's *preference list* is the first `replication` distinct replicas
//! met walking clockwise from the key's point; adding or removing one
//! replica only remaps the arcs that replica's virtual nodes owned
//! (≈ `1/N` of keys, bounded well under `2/N` — pinned by proptest).
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
use std::collections::VecDeque;

/// Ring geometry: replication factor, virtual-node count, placement seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RingConfig {
    /// Distinct replicas in each key's preference list (R).
    pub replication: usize,
    /// Virtual nodes per replica on the hash circle.
    pub vnodes: usize,
    /// Placement seed mixed into every vnode hash.
    pub seed: u64,
}

impl Default for RingConfig {
    fn default() -> Self {
        Self {
            replication: 2,
            vnodes: 64,
            seed: 0x5eed,
        }
    }
}

/// Deterministic seeded string hash: folds each byte through `mix64`.
fn hash_str(seed: u64, s: &str) -> u64 {
    let mut h = mix64(seed ^ 0x0070_632d_7269_6e67); // "pc-ring"
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

/// A deterministic consistent-hash ring over replica indices.
///
/// The ring never mutates after construction; topology changes mean
/// building a new ring, which is how the remap bound is stated and tested.
#[derive(Debug, Clone)]
pub struct Ring {
    /// Sorted `(point, replica index)` pairs — the hash circle.
    points: Vec<(u64, usize)>,
    nodes: usize,
    replication: usize,
}

impl Ring {
    /// Builds the ring for `nodes` (replica addresses, declaration order
    /// is identity) under `config`. At least one node is required;
    /// `replication` and `vnodes` are clamped to sane minimums.
    pub fn new(nodes: &[String], config: &RingConfig) -> Self {
        let vnodes = config.vnodes.max(1);
        let mut points: Vec<(u64, usize)> = Vec::with_capacity(nodes.len() * vnodes);
        for (index, addr) in nodes.iter().enumerate() {
            let base = hash_str(config.seed, addr);
            for v in 0..vnodes {
                points.push((mix64(base ^ (v as u64).rotate_left(17)), index));
            }
        }
        // Sort by point; break exact hash collisions by replica index so
        // construction order never matters.
        points.sort_unstable();
        Self {
            points,
            nodes: nodes.len(),
            replication: config.replication.max(1),
        }
    }

    /// Number of distinct replicas on the ring.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// The replication factor requests are spread over.
    pub fn replication(&self) -> usize {
        self.replication
    }

    /// Every replica ranked for `key`: the full clockwise walk order with
    /// duplicates removed. The first `replication` entries are the
    /// preference list; the rest are the failover order beyond it.
    pub fn walk(&self, key: u64) -> Vec<usize> {
        let mut picks: Vec<usize> = Vec::with_capacity(self.nodes);
        if self.points.is_empty() {
            return picks;
        }
        let point = mix64(key ^ 0x7072_6566);
        let start = self
            .points
            .partition_point(|&(p, _)| p < point)
            .checked_rem(self.points.len())
            .unwrap_or(0);
        for offset in 0..self.points.len() {
            let at = (start + offset) % self.points.len();
            if let Some(&(_, node)) = self.points.get(at) {
                if !picks.contains(&node) {
                    picks.push(node);
                    if picks.len() == self.nodes {
                        break;
                    }
                }
            }
        }
        picks
    }

    /// The preference list for `key`: up to `min(R, nodes)` distinct
    /// replica indices, nearest clockwise successor first.
    pub fn preference(&self, key: u64) -> Vec<usize> {
        let mut picks = self.walk(key);
        picks.truncate(self.replication.min(self.nodes));
        picks
    }

    /// The primary replica for `key` (first of the preference list).
    pub fn primary(&self, key: u64) -> Option<usize> {
        self.preference(key).first().copied()
    }
}

/// Replica health as the router sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Health {
    /// Serving; in every preference list it appears on.
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
    fn preference_is_deterministic_and_distinct() {
        let nodes = addrs(5);
        let config = RingConfig {
            replication: 3,
            ..RingConfig::default()
        };
        let a = Ring::new(&nodes, &config);
        let b = Ring::new(&nodes, &config);
        for key in 0..256u64 {
            let pa = a.preference(mix64(key));
            assert_eq!(pa, b.preference(mix64(key)), "same ring, same routing");
            assert_eq!(pa.len(), 3);
            let mut dedup = pa.clone();
            dedup.sort_unstable();
            dedup.dedup();
            assert_eq!(dedup.len(), 3, "preference list must be distinct");
        }
    }

    #[test]
    fn replication_clamps_to_node_count() {
        let ring = Ring::new(
            &addrs(2),
            &RingConfig {
                replication: 5,
                ..RingConfig::default()
            },
        );
        assert_eq!(ring.preference(42).len(), 2);
    }

    #[test]
    fn seed_changes_placement() {
        let nodes = addrs(4);
        let a = Ring::new(&nodes, &RingConfig::default());
        let b = Ring::new(
            &nodes,
            &RingConfig {
                seed: 0xbeef,
                ..RingConfig::default()
            },
        );
        let moved = (0..512u64)
            .filter(|&k| a.primary(mix64(k)) != b.primary(mix64(k)))
            .count();
        assert!(moved > 0, "different seeds should shuffle ownership");
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
