//! Daemon-resident per-module state: what a long-lived `lpatd` keeps
//! between requests so a repeated request stops paying for work the
//! daemon has already done.
//!
//! - `PayloadMemo` maps the exact bytes of a `run -O` request to the
//!   verified, optimized module they produce (and its content hash), so
//!   a repeat skips decode, verify, the function pipeline and the
//!   source hash.
//! - `ProfileDeltas` accumulates the profile delta of every run,
//!   keyed by run hash, until a group commit merges each hash's pending
//!   runs into the store with one journaled write. Per the paper (§3.5,
//!   §3.6) profiles are field heuristics consumed at idle time, so the
//!   daemon's durability contract is: a `kill -9` loses at most one
//!   commit window of counts, never the accumulated store.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use lpat_core::Module;
use lpat_vm::{ProfileData, StoreError};

use crate::shard::ShardedStore;

/// Entries the payload memo holds before evicting the least recently
/// used one.
pub const MEMO_CAPACITY: usize = 32;

/// The most memory the payload memo may hold, as estimated by
/// [`entry_bytes`]: least recently used entries are evicted to stay
/// under it, and a result bigger than all of it is not memoized. Each
/// worker's memo has its own budget under `--isolate process`.
pub const MEMO_BUDGET_BYTES: usize = 16 << 20;

/// Estimated resident bytes per instruction slot of an optimized
/// module, blocks, use lists, types and names included. An upper
/// estimate: an `lpatd`'s resident set grew by 150–240 bytes per
/// instruction of each memoized module (x86-64 Linux, miniC payloads of
/// 60 KiB to 1 MiB).
const BYTES_PER_INST: usize = 256;

/// What one memo entry keeps alive: its key bytes plus an estimate of
/// the optimized module's in-memory IR, which is usually far larger
/// than the payload it came from.
fn entry_bytes(name: &str, payload: &[u8], module: &Module) -> usize {
    let insts: usize = module.funcs().map(|(_, f)| f.num_inst_slots()).sum();
    name.len() + payload.len() + insts.saturating_mul(BYTES_PER_INST)
}

/// How often the daemon's background flusher group-commits pending
/// profile deltas — the most counts a `kill -9` can lose.
pub const COMMIT_WINDOW: Duration = Duration::from_secs(1);

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // A panicking request must not wedge the daemon's resident state.
    m.lock().unwrap_or_else(|e| e.into_inner())
}

struct MemoEntry {
    flags: u8,
    name: String,
    payload: Vec<u8>,
    module: Arc<Module>,
    /// The module's content hash; `None` when the engine has no store
    /// and so never needs it.
    hash: Option<u64>,
    last_used: u64,
    /// [`entry_bytes`] of this entry.
    bytes: usize,
}

impl MemoEntry {
    fn is(&self, flags: u8, name: &str, payload: &[u8]) -> bool {
        self.flags == flags && self.name == name && self.payload == payload
    }
}

#[derive(Default)]
struct MemoTable {
    tick: u64,
    entries: Vec<MemoEntry>,
    /// Sum of the entries' [`entry_bytes`].
    bytes: usize,
}

/// An LRU table from `(flags, name, payload bytes)` to the optimized
/// module those bytes produce, bounded both in entries and in estimated
/// bytes. Lookups compare the payload byte for byte: a hash alone would
/// let a crafted collision run another tenant's module.
pub(crate) struct PayloadMemo {
    capacity: usize,
    budget: usize,
    table: Mutex<MemoTable>,
}

impl PayloadMemo {
    /// An empty memo holding at most `capacity` entries (0 disables it)
    /// and at most `budget` estimated bytes.
    pub(crate) fn new(capacity: usize, budget: usize) -> PayloadMemo {
        PayloadMemo {
            capacity,
            budget,
            table: Mutex::new(MemoTable::default()),
        }
    }

    /// The memoized module (and hash) for exactly these inputs.
    pub(crate) fn get(
        &self,
        flags: u8,
        name: &str,
        payload: &[u8],
    ) -> Option<(Arc<Module>, Option<u64>)> {
        let mut t = lock(&self.table);
        t.tick += 1;
        let tick = t.tick;
        let e = t.entries.iter_mut().find(|e| e.is(flags, name, payload))?;
        e.last_used = tick;
        Some((Arc::clone(&e.module), e.hash))
    }

    /// Remember the result for these inputs, evicting least recently
    /// used entries until both bounds hold. A result over the whole
    /// budget is not remembered.
    pub(crate) fn insert(
        &self,
        flags: u8,
        name: &str,
        payload: &[u8],
        module: Arc<Module>,
        hash: Option<u64>,
    ) {
        if self.capacity == 0 {
            return;
        }
        let bytes = entry_bytes(name, payload, &module);
        if bytes > self.budget {
            return;
        }
        let mut t = lock(&self.table);
        if let Some(same) = t.entries.iter().position(|e| e.is(flags, name, payload)) {
            // Two workers raced on one miss; keep the newer result.
            t.bytes -= t.entries.swap_remove(same).bytes;
        }
        while t.entries.len() >= self.capacity || t.bytes + bytes > self.budget {
            let Some(lru) = (0..t.entries.len()).min_by_key(|&i| t.entries[i].last_used) else {
                break;
            };
            t.bytes -= t.entries.swap_remove(lru).bytes;
        }
        t.tick += 1;
        t.bytes += bytes;
        let last_used = t.tick;
        t.entries.push(MemoEntry {
            flags,
            name: name.to_string(),
            payload: payload.to_vec(),
            module,
            hash,
            last_used,
            bytes,
        });
    }
}

/// The uncommitted runs of one run hash.
#[derive(Default)]
struct Pending {
    delta: ProfileData,
    runs: u64,
}

/// The daemon's accumulator of uncommitted profile deltas, one entry per
/// run hash. Each entry has its own lock, held across that hash's
/// commit, so a warm start never sees a batch in neither place (or in
/// both): it reads the stored profile and the pending delta under the
/// same lock.
#[derive(Default)]
pub(crate) struct ProfileDeltas {
    entries: Mutex<HashMap<u64, Arc<Mutex<Pending>>>>,
}

impl ProfileDeltas {
    fn entry(&self, hash: u64) -> Arc<Mutex<Pending>> {
        Arc::clone(lock(&self.entries).entry(hash).or_default())
    }

    fn existing(&self, hash: u64) -> Option<Arc<Mutex<Pending>>> {
        lock(&self.entries).get(&hash).map(Arc::clone)
    }

    /// Add the merged counters of `runs` runs of `hash`.
    pub(crate) fn add(&self, hash: u64, delta: &ProfileData, runs: u64) {
        let e = self.entry(hash);
        let mut p = lock(&e);
        p.delta.merge_saturating(delta);
        p.runs = p.runs.saturating_add(runs);
    }

    /// The lifetime profile a warm start should see: the stored profile
    /// merged with the pending delta. `None` when neither has counts.
    pub(crate) fn warm_profile(&self, store: &ShardedStore, hash: u64) -> Option<ProfileData> {
        let load = || {
            store
                .shard(hash)
                .load_profile(hash)
                .ok()
                .and_then(|l| l.value)
                .map(|sp| sp.profile)
        };
        let Some(e) = self.existing(hash) else {
            return load();
        };
        let p = lock(&e);
        let mut profile = load();
        if p.runs > 0 {
            profile
                .get_or_insert_with(ProfileData::default)
                .merge_saturating(&p.delta);
        }
        profile
    }

    /// Commit the pending runs of `hash` with one journaled write.
    /// `None` when nothing was pending; otherwise the number of runs
    /// committed, or the store's refusal — the runs then stay pending
    /// for the next commit.
    pub(crate) fn commit(
        &self,
        store: &ShardedStore,
        hash: u64,
    ) -> Option<Result<u64, StoreError>> {
        let e = self.existing(hash)?;
        let mut p = lock(&e);
        if p.runs == 0 {
            return None;
        }
        Some(
            store
                .shard(hash)
                .record_runs(hash, &p.delta, p.runs)
                .map(|_| std::mem::take(&mut *p).runs),
        )
    }

    /// Every hash with an entry (pending or in use), for a full commit.
    pub(crate) fn hashes(&self) -> Vec<u64> {
        lock(&self.entries).keys().copied().collect()
    }

    /// Drop entries with nothing pending that no request is using, so a
    /// stream of distinct modules does not grow the map without bound.
    pub(crate) fn prune(&self) {
        lock(&self.entries)
            .retain(|_, e| Arc::strong_count(e) > 1 || e.try_lock().map_or(true, |p| p.runs > 0));
    }

    /// Remove and return every pending entry as `(hash, delta, runs)` —
    /// how a process worker ships its deltas to the supervisor instead
    /// of committing them itself.
    pub(crate) fn take_all(&self) -> Vec<(u64, ProfileData, u64)> {
        let drained: Vec<_> = lock(&self.entries).drain().collect();
        drained
            .into_iter()
            .filter_map(|(hash, e)| {
                let p = std::mem::take(&mut *lock(&e));
                (p.runs > 0).then_some((hash, p.delta, p.runs))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn module(name: &str) -> Arc<Module> {
        Arc::new(Module::new(name))
    }

    #[test]
    fn memo_keys_on_every_byte_the_name_and_the_flags() {
        let memo = PayloadMemo::new(8, MEMO_BUDGET_BYTES);
        memo.insert(1, "m", b"payload", module("m"), Some(7));
        assert_eq!(memo.get(1, "m", b"payload").map(|(_, h)| h), Some(Some(7)));
        assert!(memo.get(1, "m", b"paylaod").is_none(), "one byte differs");
        assert!(memo.get(1, "m", b"payload!").is_none(), "one byte longer");
        assert!(memo.get(1, "n", b"payload").is_none(), "other name");
        assert!(memo.get(3, "m", b"payload").is_none(), "other flags");
    }

    #[test]
    fn memo_evicts_the_least_recently_used_entry_at_capacity() {
        let memo = PayloadMemo::new(2, MEMO_BUDGET_BYTES);
        memo.insert(0, "a", b"a", module("a"), None);
        memo.insert(0, "b", b"b", module("b"), None);
        assert!(memo.get(0, "a", b"a").is_some()); // b is now the LRU
        memo.insert(0, "c", b"c", module("c"), None);
        assert_eq!(lock(&memo.table).entries.len(), 2);
        assert!(memo.get(0, "b", b"b").is_none(), "LRU entry evicted");
        assert!(memo.get(0, "a", b"a").is_some());
        assert!(memo.get(0, "c", b"c").is_some());
    }

    #[test]
    fn memo_stays_within_its_byte_budget() {
        // Entry bytes here are name + payload: the modules are empty.
        let memo = PayloadMemo::new(8, 100);
        memo.insert(0, "a", &[0; 39], module("a"), None);
        memo.insert(0, "b", &[0; 39], module("b"), None);
        assert_eq!(lock(&memo.table).bytes, 80);
        // A third entry would pass the budget: the LRU one makes room.
        memo.insert(0, "c", &[0; 39], module("c"), None);
        assert_eq!(lock(&memo.table).bytes, 80);
        assert!(memo.get(0, "a", &[0; 39]).is_none(), "LRU entry evicted");
        // Re-inserting a key replaces its entry instead of adding bytes.
        memo.insert(0, "c", &[0; 39], module("c"), None);
        assert_eq!(lock(&memo.table).entries.len(), 2);
        assert_eq!(lock(&memo.table).bytes, 80);
        // Over the whole budget: not memoized, nothing evicted for it.
        memo.insert(0, "big", &[0; 101], module("big"), None);
        assert_eq!(lock(&memo.table).entries.len(), 2);
        let off = PayloadMemo::new(0, 100);
        off.insert(0, "a", b"a", module("a"), None);
        assert!(lock(&off.table).entries.is_empty());
    }

    #[test]
    fn entry_bytes_count_the_module_not_just_the_payload() {
        let m = lpat_asm::parse_module(
            "m",
            "define int @main() {\nentry:\n  %a = add int 40, 2\n  ret int %a\n}\n",
        )
        .unwrap();
        assert_eq!(entry_bytes("m", b"xy", &m), 3 + 2 * BYTES_PER_INST);
    }

    fn profile(n: u64) -> ProfileData {
        let mut p = ProfileData::default();
        p.call_counts.insert(lpat_core::FuncId::from_index(0), n);
        p
    }

    fn calls(p: &ProfileData) -> u64 {
        p.call_counts[&lpat_core::FuncId::from_index(0)]
    }

    #[test]
    fn deltas_commit_as_one_batch_and_warm_starts_see_pending_runs() {
        let dir = std::env::temp_dir().join(format!("lpat-deltas-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ShardedStore::open(&dir, 2).unwrap();
        let deltas = ProfileDeltas::default();
        let h = 0x42;
        assert!(deltas.warm_profile(&store, h).is_none());
        for _ in 0..3 {
            deltas.add(h, &profile(5), 1);
        }
        // Pending only: the warm start already sees all three runs.
        assert_eq!(calls(&deltas.warm_profile(&store, h).unwrap()), 15);
        assert!(store.shard(h).load_profile(h).unwrap().value.is_none());
        assert_eq!(deltas.commit(&store, h).unwrap().unwrap(), 3);
        assert!(deltas.commit(&store, h).is_none(), "nothing left pending");
        let sp = store.shard(h).load_profile(h).unwrap().value.unwrap();
        assert_eq!((sp.runs, calls(&sp.profile)), (3, 15));
        // Stored plus pending, each counted once.
        deltas.add(h, &profile(1), 1);
        assert_eq!(calls(&deltas.warm_profile(&store, h).unwrap()), 16);
        deltas.prune();
        assert_eq!(deltas.hashes(), vec![h], "pending entry survives a prune");
        deltas.commit(&store, h);
        deltas.prune();
        assert!(deltas.hashes().is_empty(), "idle entry pruned");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn take_all_drains_only_pending_entries() {
        let deltas = ProfileDeltas::default();
        deltas.add(3, &profile(2), 2);
        let shipped = deltas.take_all();
        assert_eq!(shipped.len(), 1);
        assert_eq!(
            (shipped[0].0, calls(&shipped[0].1), shipped[0].2),
            (3, 2, 2)
        );
        assert!(deltas.take_all().is_empty(), "taking drains");
    }
}
