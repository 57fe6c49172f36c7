//! Durable repository catalog: stable identity for registered repos.
//!
//! The detection log and belief snapshots key everything by a `u32`
//! repository id. Before this catalog existed that id was the engine's
//! *registration index*, so re-registering repositories in a different
//! order after a restart silently remapped yesterday's detections and
//! beliefs onto today's wrong footage (ROADMAP: "stable repository ids").
//!
//! The catalog fixes the id to the repository's *identity*: a
//! caller-supplied name plus the dataset fingerprint of its ground truth
//! ([`crate::dataset_fingerprint`]). [`RepoCatalog::resolve`] returns the
//! id previously assigned to that `(name, fingerprint)` pair, or
//! allocates the next free id and durably records the assignment. Ids are
//! never reused: footage that changes under the same name gets a *new*
//! id, so stale detections for the old footage can never be served for
//! the new.
//!
//! On disk the catalog is one `repos.xsr` file — a single
//! [`framing`](exsample_store::framing) segment whose records are
//! `(id, dataset fingerprint, name)` entries — rewritten atomically
//! (write, fsync, rename) on every assignment. A damaged tail is
//! salvaged record by record; an unreadable file degrades to an empty
//! catalog with a warning, consistent with the crate's philosophy that
//! persistence is an optimization, never a correctness dependency.

use crate::codec::Disk;
use exsample_stats::FxHashMap;
use exsample_store::framing::{
    next_record, read_segment_header, write_record, write_segment_header, RecordStep,
};
use exsample_store::le::{self, Le};
use exsample_store::le_record;
use std::fs;
use std::path::{Path, PathBuf};

/// Magic of the repository catalog file ("eXSample Repo Catalog").
pub const CATALOG_MAGIC: &[u8; 4] = b"XSRC";
/// Current catalog format version.
pub const CATALOG_VERSION: u16 = 1;

const CATALOG_FILE: &str = "repos.xsr";

/// One durable repository-identity assignment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CatalogEntry {
    /// The stable repository id assigned to this identity.
    pub id: u32,
    /// Structural fingerprint of the registered ground truth
    /// ([`crate::dataset_fingerprint`]).
    pub dataset_fingerprint: u64,
    /// Caller-supplied repository name.
    pub name: String,
}
le_record!(Disk: CatalogEntry { id, dataset_fingerprint, name });

/// In-memory index of the repository catalog, mirrored to disk on every
/// new assignment.
#[derive(Debug)]
pub struct RepoCatalog {
    path: PathBuf,
    entries: Vec<CatalogEntry>,
    by_key: FxHashMap<(String, u64), u32>,
    next_id: u32,
    write_errors: u64,
}

impl RepoCatalog {
    /// Open the catalog in `dir` (created if missing), loading any
    /// existing `repos.xsr`. A damaged file is salvaged up to its valid
    /// prefix; an unreadable one degrades to an empty catalog with a
    /// warning — never an error.
    pub fn open(dir: &Path) -> std::io::Result<Self> {
        fs::create_dir_all(dir)?;
        let path = dir.join(CATALOG_FILE);
        let mut catalog = RepoCatalog {
            path,
            entries: Vec::new(),
            by_key: FxHashMap::default(),
            next_id: 0,
            write_errors: 0,
        };
        let tmp = catalog.path.with_extension("xsr.tmp");
        if tmp.exists() {
            // Orphan from a crash between write and rename.
            let _ = fs::remove_file(&tmp);
        }
        if let Ok(data) = fs::read(&catalog.path) {
            catalog.load(&data);
        }
        Ok(catalog)
    }

    fn load(&mut self, data: &[u8]) {
        let Ok((hdr, mut body)) = read_segment_header(data, CATALOG_MAGIC) else {
            eprintln!(
                "exsample-persist: unreadable repository catalog {} — starting empty",
                self.path.display()
            );
            return;
        };
        if hdr.version != CATALOG_VERSION {
            eprintln!(
                "exsample-persist: repository catalog {} has version {} (want {}) — starting empty",
                self.path.display(),
                hdr.version,
                CATALOG_VERSION
            );
            return;
        }
        loop {
            match next_record(body) {
                RecordStep::Record { payload, rest } => {
                    if let Ok(entry) = le::decode::<Disk, CatalogEntry>(payload) {
                        self.adopt(entry);
                    }
                    body = rest;
                }
                RecordStep::End => break,
                RecordStep::Truncated | RecordStep::Corrupt => {
                    eprintln!(
                        "exsample-persist: repository catalog {} has a damaged tail — \
                         keeping the valid prefix",
                        self.path.display()
                    );
                    break;
                }
            }
        }
    }

    fn adopt(&mut self, entry: CatalogEntry) {
        self.next_id = self.next_id.max(entry.id.saturating_add(1));
        self.by_key
            .insert((entry.name.clone(), entry.dataset_fingerprint), entry.id);
        self.entries.push(entry);
    }

    /// The stable id for a repository identity, allocating (and durably
    /// recording) a fresh one the first time the pair is seen. The same
    /// `(name, dataset_fingerprint)` always resolves to the same id, in
    /// this process and across restarts; a different fingerprint under
    /// the same name is a different identity and gets a new id.
    pub fn resolve(&mut self, name: &str, dataset_fingerprint: u64) -> u32 {
        let (id, fresh) = self.assign(name, dataset_fingerprint);
        if fresh {
            self.persist();
        }
        id
    }

    /// Memory-only form of [`RepoCatalog::resolve`]: returns the id and
    /// whether it was freshly allocated, without touching the disk. Pair
    /// fresh assignments with [`RepoCatalog::persist`] once out of
    /// latency-sensitive sections (the engine assigns under its state
    /// lock and writes the file after releasing it).
    pub fn assign(&mut self, name: &str, dataset_fingerprint: u64) -> (u32, bool) {
        if let Some(&id) = self.by_key.get(&(name.to_string(), dataset_fingerprint)) {
            return (id, false);
        }
        let id = self.next_id;
        self.adopt(CatalogEntry {
            id,
            dataset_fingerprint,
            name: name.to_string(),
        });
        (id, true)
    }

    /// Durably rewrite the catalog file from the in-memory entries. Disk
    /// errors are absorbed and counted — assignments still serve from
    /// memory, and [`RepoCatalog::reserve_past`] protects the next run
    /// against the resulting gap.
    pub fn persist(&mut self) {
        if let Err(e) = self.write_file() {
            self.write_errors += 1;
            eprintln!(
                "exsample-persist: repository catalog write failed at {}: {e}",
                self.path.display()
            );
        }
    }

    /// Guarantee that no id at or below `id` is ever *newly* assigned.
    ///
    /// Called by consumers that observed `id` in other persisted
    /// artifacts (detection-log records, belief-snapshot keys) whose
    /// catalog entry may have been lost — an unreadable or torn
    /// `repos.xsr`, or an absorbed write error — so that a surviving
    /// artifact id keeps meaning its original footage or nothing, and
    /// can never be silently remapped onto footage registered later.
    pub fn reserve_past(&mut self, id: u32) {
        self.next_id = self.next_id.max(id.saturating_add(1));
    }

    fn write_file(&self) -> std::io::Result<()> {
        let mut out = Vec::new();
        // The header fingerprint slot is unused: identity assignments are
        // detector-independent (each entry carries its own dataset
        // fingerprint), so a detector upgrade must not invalidate them.
        write_segment_header(&mut out, CATALOG_MAGIC, CATALOG_VERSION, 0);
        let mut payload = Vec::new();
        for entry in &self.entries {
            payload.clear();
            entry.put(&mut payload);
            write_record(&mut out, &payload);
        }
        crate::replace_file(&self.path, &out)
    }

    /// All recorded assignments, in allocation order.
    pub fn entries(&self) -> &[CatalogEntry] {
        &self.entries
    }

    /// The id the next unseen identity would be assigned.
    pub fn next_id(&self) -> u32 {
        self.next_id
    }

    /// Number of recorded identities.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no identity has been recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Catalog write failures absorbed so far (assignments still serve
    /// from memory).
    pub fn write_errors(&self) -> u64 {
        self.write_errors
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "exsample-persist-catalog-{tag}-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn resolve_is_stable_across_reopen_and_order() {
        let dir = tmp_dir("stable");
        let mut cat = RepoCatalog::open(&dir).unwrap();
        let a = cat.resolve("cam-north", 111);
        let b = cat.resolve("cam-south", 222);
        assert_ne!(a, b);
        assert_eq!(cat.resolve("cam-north", 111), a);
        drop(cat);

        // Re-registration in the *opposite* order must not remap.
        let mut cat = RepoCatalog::open(&dir).unwrap();
        assert_eq!(cat.resolve("cam-south", 222), b);
        assert_eq!(cat.resolve("cam-north", 111), a);
        assert_eq!(cat.len(), 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn changed_footage_under_same_name_gets_a_new_id() {
        let dir = tmp_dir("refresh");
        let mut cat = RepoCatalog::open(&dir).unwrap();
        let old = cat.resolve("cam", 1);
        let new = cat.resolve("cam", 2);
        assert_ne!(old, new);
        drop(cat);
        let mut cat = RepoCatalog::open(&dir).unwrap();
        // Both identities survive; ids are never reused.
        assert_eq!(cat.resolve("cam", 1), old);
        assert_eq!(cat.resolve("cam", 2), new);
        assert_eq!(cat.next_id(), new + 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn damaged_tail_keeps_valid_prefix() {
        let dir = tmp_dir("torn");
        let mut cat = RepoCatalog::open(&dir).unwrap();
        let a = cat.resolve("first", 10);
        let _ = cat.resolve("second", 20);
        drop(cat);

        let path = dir.join(CATALOG_FILE);
        let data = fs::read(&path).unwrap();
        fs::write(&path, &data[..data.len() - 3]).unwrap();

        let mut cat = RepoCatalog::open(&dir).unwrap();
        assert_eq!(cat.len(), 1);
        assert_eq!(cat.resolve("first", 10), a);
        // The lost entry is reassigned a fresh id on next sight — its old
        // id is gone from the index, but new allocations start past the
        // salvaged maximum, so the surviving assignment keeps its meaning.
        let again = cat.resolve("second", 20);
        assert!(again > a);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reserve_past_prevents_reassignment_of_observed_ids() {
        let dir = tmp_dir("reserve");
        let mut cat = RepoCatalog::open(&dir).unwrap();
        // Ids 0..=4 were observed in other artifacts whose catalog
        // entries are gone; they must never be handed out fresh.
        cat.reserve_past(4);
        assert_eq!(cat.resolve("cam", 1), 5);
        cat.reserve_past(2); // never lowers the floor
        assert_eq!(cat.resolve("cam", 9), 6);
        assert_eq!(cat.resolve("cam", 1), 5); // existing entries unaffected
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn assign_then_persist_matches_resolve() {
        let dir = tmp_dir("assign");
        let mut cat = RepoCatalog::open(&dir).unwrap();
        let (id, fresh) = cat.assign("cam", 7);
        assert!(fresh);
        assert_eq!(cat.assign("cam", 7), (id, false));
        // Not yet durable; persist writes it out.
        cat.persist();
        drop(cat);
        let mut cat = RepoCatalog::open(&dir).unwrap();
        assert_eq!(cat.resolve("cam", 7), id);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn garbage_file_degrades_to_empty() {
        let dir = tmp_dir("garbage");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join(CATALOG_FILE), b"not a catalog").unwrap();
        let mut cat = RepoCatalog::open(&dir).unwrap();
        assert!(cat.is_empty());
        assert_eq!(cat.resolve("cam", 1), 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unicode_names_round_trip() {
        let dir = tmp_dir("names");
        let mut cat = RepoCatalog::open(&dir).unwrap();
        let id = cat.resolve("Überwachungskamera-3 🎥", 7);
        drop(cat);
        let cat = RepoCatalog::open(&dir).unwrap();
        assert_eq!(cat.entries()[0].id, id);
        assert_eq!(cat.entries()[0].name, "Überwachungskamera-3 🎥");
        fs::remove_dir_all(&dir).unwrap();
    }
}
