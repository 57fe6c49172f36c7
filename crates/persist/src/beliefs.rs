//! Durable belief snapshots: per-chunk `(N1, n)` statistics keyed by
//! `(repo, class, chunks)`.
//!
//! A finished search leaves behind everything it learned about *where*
//! results live — its per-chunk [`ChunkStats`]. Persisting them lets a
//! future query over the same repository warm-start its Gamma beliefs
//! instead of re-paying the exploration phase (ROADMAP: "cross-session
//! belief sharing").
//!
//! One file per key, `beliefs-r<repo>-c<class>-m<chunks>.xsb`, written
//! atomically (temp file + rename) so a crash never leaves a half-written
//! snapshot under the live name. Each file is a one-record
//! [`framing`](exsample_store::framing) segment carrying the writer's
//! fingerprint; snapshots from a different detector configuration are
//! skipped (counted) at load. Snapshots are replaced, not merged — but
//! adoption through [`BeliefStore::offer`] is evidence-gated, so a short
//! or cancelled run never clobbers a richer snapshot of the same key.

use crate::codec::{decode_beliefs, encode_beliefs, BeliefSnapshot};
use crate::log::LoadStats;
use crate::PersistConfig;
use exsample_core::belief::ChunkStats;
use exsample_stats::FxHashMap;
use exsample_store::framing::{
    next_record, read_segment_header, write_record, write_segment_header, RecordStep,
};
use std::fs;
use std::path::{Path, PathBuf};

/// Magic of belief-snapshot files ("eXSample BeLiefs").
pub const BELIEF_MAGIC: &[u8; 4] = b"XSBL";
/// Current belief-snapshot format version.
pub const BELIEF_VERSION: u16 = 1;

/// Snapshot key: `(repo, class, chunk count)`. A snapshot only transfers
/// to a query using the *same* chunk partition of the same repository.
pub type BeliefKey = (u32, u16, u32);

fn belief_path(dir: &Path, key: BeliefKey) -> PathBuf {
    dir.join(format!("beliefs-r{}-c{}-m{}.xsb", key.0, key.1, key.2))
}

/// In-memory index of belief snapshots, mirrored to disk on every update.
#[derive(Debug)]
pub struct BeliefStore {
    dir: PathBuf,
    fingerprint: u64,
    map: FxHashMap<BeliefKey, Vec<ChunkStats>>,
    loaded: u64,
    skipped: u64,
    write_errors: u64,
}

impl BeliefStore {
    /// Open a store, loading every matching snapshot in the directory.
    /// Mismatched or damaged snapshot files are skipped and counted.
    pub fn open(cfg: &PersistConfig) -> std::io::Result<Self> {
        fs::create_dir_all(&cfg.dir)?;
        let mut store = BeliefStore {
            dir: cfg.dir.clone(),
            fingerprint: cfg.fingerprint,
            map: FxHashMap::default(),
            loaded: 0,
            skipped: 0,
            write_errors: 0,
        };
        for entry in fs::read_dir(&cfg.dir)? {
            let path = entry?.path();
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if name.starts_with("beliefs-") && name.ends_with(".xsb.tmp") {
                // Orphan from a crash between write and rename.
                let _ = fs::remove_file(&path);
                continue;
            }
            if !(name.starts_with("beliefs-") && name.ends_with(".xsb")) {
                continue;
            }
            match store.load_file(&path) {
                Some(snap) => {
                    store.loaded += 1;
                    store.map.insert(snap.key(), snap.stats);
                }
                None => {
                    store.skipped += 1;
                    eprintln!(
                        "exsample-persist: skipping belief snapshot {}",
                        path.display()
                    );
                }
            }
        }
        Ok(store)
    }

    fn load_file(&self, path: &Path) -> Option<BeliefSnapshot> {
        let data = fs::read(path).ok()?;
        let (hdr, body) = read_segment_header(&data, BELIEF_MAGIC).ok()?;
        if hdr.version != BELIEF_VERSION || hdr.fingerprint != self.fingerprint {
            return None;
        }
        match next_record(body) {
            RecordStep::Record { payload, rest: [] } => decode_beliefs(payload).ok(),
            _ => None,
        }
    }

    /// Warm-start statistics for a key, if a snapshot exists.
    pub fn get(&self, key: BeliefKey) -> Option<&[ChunkStats]> {
        self.map.get(&key).map(Vec::as_slice)
    }

    /// Record (and durably write) the belief state of a finished search.
    /// Replaces any previous snapshot for the key. Disk errors are
    /// absorbed and counted — the in-memory copy still serves this
    /// process.
    pub fn put(&mut self, key: BeliefKey, stats: Vec<ChunkStats>) {
        self.insert(key, stats);
        self.persist_key(key);
    }

    /// Update the in-memory index only — instantly visible to
    /// [`BeliefStore::get`], no IO. Pair with [`BeliefStore::persist_key`]
    /// once out of latency-sensitive sections (the engine inserts under
    /// its state lock so warm-starts observe completed sessions
    /// immediately, and writes the file after releasing it).
    pub fn insert(&mut self, key: BeliefKey, stats: Vec<ChunkStats>) {
        self.map.insert(key, stats);
    }

    /// [`BeliefStore::insert`], but only if `stats` carries at least as
    /// much evidence (total `n` across chunks) as the resident snapshot.
    /// Protects a rich snapshot from being overwritten — latest-wins —
    /// by a short or cancelled run over the same key. Returns whether the
    /// offer was adopted (memory only; pair with
    /// [`BeliefStore::persist_key`]).
    pub fn offer(&mut self, key: BeliefKey, stats: Vec<ChunkStats>) -> bool {
        let evidence = |s: &[ChunkStats]| s.iter().map(|c| c.n).sum::<u64>();
        if let Some(resident) = self.map.get(&key) {
            if evidence(&stats) < evidence(resident) {
                return false;
            }
        }
        self.map.insert(key, stats);
        true
    }

    /// Durably write the resident snapshot for `key` (no-op when the key
    /// has no snapshot). Disk errors are absorbed and counted.
    pub fn persist_key(&mut self, key: BeliefKey) {
        let Some(stats) = self.map.get(&key) else {
            return;
        };
        if let Err(e) = self.write_snapshot(key, stats) {
            self.write_errors += 1;
            eprintln!(
                "exsample-persist: belief snapshot write failed in {}: {e}",
                self.dir.display()
            );
        }
    }

    fn write_snapshot(&self, key: BeliefKey, stats: &[ChunkStats]) -> std::io::Result<()> {
        let snap = BeliefSnapshot {
            repo: key.0,
            class: key.1,
            stats: stats.to_vec(),
        };
        let mut payload = Vec::with_capacity(16 * snap.stats.len() + 16);
        encode_beliefs(&snap, &mut payload);
        let mut out = Vec::with_capacity(payload.len() + 32);
        write_segment_header(&mut out, BELIEF_MAGIC, BELIEF_VERSION, self.fingerprint);
        write_record(&mut out, &payload);
        crate::replace_file(&belief_path(&self.dir, snap.key()), &out)
    }

    /// Keys with a resident snapshot, in no particular order.
    pub fn keys(&self) -> impl Iterator<Item = BeliefKey> + '_ {
        self.map.keys().copied()
    }

    /// Number of keys with a resident snapshot.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no snapshot is resident.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Load counters in the shared [`LoadStats`] shape (snapshot files map
    /// onto the `segments_*` fields; each file holds one record).
    pub fn load_stats(&self) -> LoadStats {
        LoadStats {
            segments_loaded: self.loaded,
            segments_skipped: self.skipped,
            records_loaded: self.loaded,
            damaged_tails: 0,
        }
    }

    /// Snapshot write failures absorbed so far.
    pub fn write_errors(&self) -> u64 {
        self.write_errors
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "exsample-persist-beliefs-{tag}-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn stats(seed: u64, m: usize) -> Vec<ChunkStats> {
        (0..m)
            .map(|j| ChunkStats {
                n1: (seed as f64 + j as f64) * 0.37,
                n: seed * 100 + j as u64,
            })
            .collect()
    }

    #[test]
    fn put_get_survives_reopen_bit_identically() {
        let dir = tmp_dir("reopen");
        let cfg = PersistConfig::new(&dir).fingerprint(7);
        let mut store = BeliefStore::open(&cfg).unwrap();
        store.put((0, 0, 4), stats(1, 4));
        store.put((0, 1, 16), stats(2, 16));
        store.put((0, 0, 4), stats(3, 4)); // overwrite wins
        drop(store);

        let store = BeliefStore::open(&cfg).unwrap();
        assert_eq!(store.len(), 2);
        assert_eq!(store.load_stats().segments_loaded, 2);
        let got = store.get((0, 0, 4)).unwrap();
        for (a, b) in got.iter().zip(&stats(3, 4)) {
            assert_eq!(a.n1.to_bits(), b.n1.to_bits());
            assert_eq!(a.n, b.n);
        }
        assert!(store.get((9, 9, 9)).is_none());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn offer_is_evidence_gated() {
        let dir = tmp_dir("offer");
        let mut store = BeliefStore::open(&PersistConfig::new(&dir).fingerprint(1)).unwrap();
        let rich = vec![
            ChunkStats { n1: 3.0, n: 500 },
            ChunkStats { n1: 1.0, n: 700 },
        ];
        let poor = vec![ChunkStats { n1: 0.0, n: 2 }, ChunkStats { n1: 0.0, n: 1 }];
        assert!(store.offer((0, 0, 2), rich.clone()));
        // A cancelled-after-3-samples run must not clobber the snapshot.
        assert!(!store.offer((0, 0, 2), poor.clone()));
        assert_eq!(store.get((0, 0, 2)).unwrap()[0].n, 500);
        // Equal or better evidence is adopted.
        assert!(store.offer((0, 0, 2), rich));
        // A fresh key always adopts.
        assert!(store.offer((1, 0, 2), poor));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fingerprint_mismatch_and_damage_are_skipped() {
        let dir = tmp_dir("skip");
        let mut store = BeliefStore::open(&PersistConfig::new(&dir).fingerprint(1)).unwrap();
        store.put((0, 0, 8), stats(5, 8));
        drop(store);
        // Corrupt snapshot alongside a foreign-fingerprint one.
        fs::write(dir.join("beliefs-r9-c9-m9.xsb"), b"junk").unwrap();

        let other = BeliefStore::open(&PersistConfig::new(&dir).fingerprint(2)).unwrap();
        assert!(other.is_empty());
        assert_eq!(other.load_stats().segments_skipped, 2);

        let same = BeliefStore::open(&PersistConfig::new(&dir).fingerprint(1)).unwrap();
        assert_eq!(same.len(), 1);
        assert_eq!(same.load_stats().segments_skipped, 1);
        fs::remove_dir_all(&dir).unwrap();
    }
}
