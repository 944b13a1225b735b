//! A bounded, content-addressed cache of prepared netlists.
//!
//! A defender scoring key-gate placements sends the same `.bench` text
//! again and again with a new mask each time. Everything the server builds
//! from the text alone — the parsed [`Circuit`] and the model's graph
//! operator — is the same for every such request, so it is built once and
//! shared; the mask-dependent work (gate lookup, feature encoding) and the
//! forward pass still run per request.
//!
//! The key is exact equality on the model name plus the full netlist text.
//! A hash only picks the candidate slot; the text is compared in full, so a
//! collision can never hand back another circuit's graph. The model name
//! fixes the model (the registry never changes while the server runs), and
//! with it the kind of operator built.
//!
//! Two constants bound the cache: an entry count and a ceiling on logical
//! bytes (key text + circuit + operator). The least recently used entry is
//! evicted first, and a netlist whose entry alone exceeds the ceiling is
//! served without being cached. Failures are never stored: a netlist that
//! does not parse is parsed, and refused, on every request.
//!
//! The lock is held only to look up and to insert, never while a netlist is
//! parsed. Two workers that miss on the same text at once both build it;
//! the second insert finds the first and keeps it.

use netlist::Circuit;
use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use tensor::CsrMatrix;

/// Most prepared netlists the cache holds at once.
pub const NETLIST_CACHE_ENTRIES: usize = 16;

/// Ceiling on the logical bytes of all cached entries together (key text,
/// circuit, operator). A single netlist above it is served uncached.
pub const NETLIST_CACHE_BYTES: u64 = 32 << 20;

/// What the server builds from a netlist's text alone.
pub(crate) struct Prepared {
    /// The parsed netlist.
    pub circuit: Circuit,
    /// The model's propagation operator on the netlist's graph.
    pub op: Arc<CsrMatrix>,
}

struct Slot {
    hash: u64,
    model: String,
    bench: String,
    bytes: u64,
    prepared: Arc<Prepared>,
}

impl Slot {
    fn matches(&self, hash: u64, model: &str, bench: &str) -> bool {
        self.hash == hash && self.model == model && self.bench == bench
    }
}

/// Slots in recency order: the least recently used first.
#[derive(Default)]
struct Lru {
    slots: Vec<Slot>,
    bytes: u64,
}

impl Lru {
    /// Moves the matching slot to the most-recent end and returns its entry.
    fn touch(&mut self, hash: u64, model: &str, bench: &str) -> Option<Arc<Prepared>> {
        let at = self
            .slots
            .iter()
            .position(|s| s.matches(hash, model, bench))?;
        let slot = self.slots.remove(at);
        let prepared = Arc::clone(&slot.prepared);
        self.slots.push(slot);
        Some(prepared)
    }
}

/// The cache and its lifetime hit/miss counters.
pub(crate) struct PreparedNetlists {
    hasher: RandomState,
    lru: Mutex<Lru>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl PreparedNetlists {
    pub fn new() -> Self {
        PreparedNetlists {
            hasher: RandomState::new(),
            lru: Mutex::new(Lru::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Requests answered from a cached entry.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Requests that found no entry and built their netlist themselves
    /// (whether or not it parsed).
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// The prepared form of `bench` for `model`: the cached entry on a hit,
    /// otherwise whatever `prepare` builds, cached when it succeeds. An
    /// error from `prepare` is returned as is and leaves the cache alone.
    pub fn get_or_prepare<E>(
        &self,
        model: &str,
        bench: String,
        prepare: impl FnOnce(&str) -> Result<Prepared, E>,
    ) -> Result<Arc<Prepared>, E> {
        let hash = self.hasher.hash_one((model, bench.as_str()));
        if let Some(hit) = self.lock().touch(hash, model, &bench) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(hit);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let prepared = Arc::new(prepare(&bench)?);
        let bytes = (model.len() + bench.len()) as u64
            + prepared.circuit.logical_bytes()
            + prepared.op.logical_bytes();
        if bytes > NETLIST_CACHE_BYTES {
            return Ok(prepared);
        }
        let evicted = {
            let mut lru = self.lock();
            // Another worker may have built the same netlist meanwhile;
            // keep its entry rather than hold two.
            if let Some(existing) = lru.touch(hash, model, &bench) {
                return Ok(existing);
            }
            let mut evicted = Vec::new();
            while lru.slots.len() >= NETLIST_CACHE_ENTRIES
                || lru.bytes + bytes > NETLIST_CACHE_BYTES
            {
                let old = lru.slots.remove(0);
                lru.bytes -= old.bytes;
                evicted.push(old);
            }
            lru.bytes += bytes;
            lru.slots.push(Slot {
                hash,
                model: model.to_owned(),
                bench,
                bytes,
                prepared: Arc::clone(&prepared),
            });
            evicted
        };
        // Evicted circuits are freed after the lock is released.
        drop(evicted);
        Ok(prepared)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Lru> {
        // Nothing that can panic runs between the paired updates of
        // `slots` and `bytes`, so a poisoned guard still holds a valid LRU.
        self.lru.lock().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icnet::{CircuitGraph, ModelKind};

    fn prepare(bench: &str) -> Result<Prepared, String> {
        let circuit = Circuit::from_bench("t", bench).map_err(|e| e.to_string())?;
        let op = Arc::new(ModelKind::ICNet.operator(&CircuitGraph::from_circuit(&circuit)));
        Ok(Prepared { circuit, op })
    }

    /// c17 text made distinct by a trailing comment.
    fn variant(i: usize) -> String {
        format!("{}# variant {i}\n", netlist::c17().to_bench())
    }

    fn state(cache: &PreparedNetlists) -> (usize, u64) {
        let lru = cache.lock();
        (lru.slots.len(), lru.bytes)
    }

    #[test]
    fn least_recently_used_entry_is_evicted_at_the_count_bound() {
        let cache = PreparedNetlists::new();
        for i in 0..NETLIST_CACHE_ENTRIES {
            cache.get_or_prepare("m", variant(i), prepare).unwrap();
        }
        // Touch variant 0 so variant 1 is now the oldest.
        cache.get_or_prepare("m", variant(0), prepare).unwrap();
        cache
            .get_or_prepare("m", variant(NETLIST_CACHE_ENTRIES), prepare)
            .unwrap();
        assert_eq!(state(&cache).0, NETLIST_CACHE_ENTRIES);
        let misses = cache.misses();
        cache.get_or_prepare("m", variant(0), prepare).unwrap();
        assert_eq!(cache.misses(), misses, "the touched entry survived");
        cache.get_or_prepare("m", variant(1), prepare).unwrap();
        assert_eq!(cache.misses(), misses + 1, "the oldest entry was evicted");
    }

    #[test]
    fn byte_ceiling_holds_and_oversized_netlists_are_served_uncached() {
        let cache = PreparedNetlists::new();
        let entry = cache.get_or_prepare("m", variant(0), prepare).unwrap();
        let (_, one) = state(&cache);
        assert!(one > entry.circuit.logical_bytes() + entry.op.logical_bytes());

        // Padding the text with a comment past the ceiling: still served,
        // never cached.
        let huge = format!(
            "{}#{}\n",
            variant(1),
            "x".repeat(NETLIST_CACHE_BYTES as usize)
        );
        let served = cache.get_or_prepare("m", huge.clone(), prepare).unwrap();
        assert_eq!(served.circuit.num_gates(), entry.circuit.num_gates());
        assert_eq!(state(&cache), (1, one));
        cache.get_or_prepare("m", huge, prepare).unwrap();
        assert_eq!(cache.hits(), 0);

        // Texts of about a third of the ceiling each: the cache evicts to
        // stay under it.
        let third = NETLIST_CACHE_BYTES as usize / 3;
        for i in 0..4 {
            let text = format!("{}#{}\n", variant(2 + i), "y".repeat(third));
            cache.get_or_prepare("m", text, prepare).unwrap();
            assert!(state(&cache).1 <= NETLIST_CACHE_BYTES);
        }
        assert!(state(&cache).0 < 4);
    }
}
