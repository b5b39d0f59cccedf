//! Disk-persistent layer under the in-memory result caches.
//!
//! The unit of persistence is one cache entry per file, addressed by the
//! same stable 128-bit content keys the in-memory [`MemoCache`]s use —
//! `results/` holds analysis outcomes keyed by content hash × registry key
//! × parameter digest, `identity/` holds the job-recipe → content-hash
//! memo (including "the generator declined this sample"). Because keys are
//! content hashes, entries never go stale with respect to their inputs;
//! the only invalidation is the format version in each file's magic line,
//! which a newer build bumps to orphan old entries.
//!
//! Robustness contract: a corrupt, truncated, stale-versioned, or
//! concurrently half-written entry **reads as a miss** (the engine
//! recomputes and rewrites it), and write failures are counted, never
//! fatal — a full disk degrades to an in-memory-only engine.
//!
//! Layout under the cache directory:
//!
//! ```text
//! <dir>/results/<hh>/<032x key>    one analysis outcome per file
//! <dir>/identity/<hh>/<032x key>   recipe → content hash (or "skip")
//! ```
//!
//! where `<hh>` is the top byte of the key in hex (256-way fan-out) and
//! each file is `magic line \n payload \n fnv64(payload)`.
//! Writes go through a temp file + atomic rename, so concurrent engines
//! sharing a directory never observe torn entries.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Once};

use hetrta_api::wire::fnv64;
use hetrta_api::AnalysisOutcome;
use hetrta_fault::FaultPlan;
use hetrta_obs::{span, Counter, MetricsRegistry, NoopRecorder, Recorder};

use crate::cache::CacheCounters;

/// First line of every entry file; bumping the version orphans (never
/// misreads) entries written by older builds.
const MAGIC: &str = "hetrta-cache v1";

/// Identity-entry payload for a declined sample.
const SKIP: &str = "skip";

/// A disk-persistent, content-addressed cache directory shared by every
/// engine (and every process) pointed at it.
#[derive(Debug)]
pub struct DiskCache {
    root: PathBuf,
    hits: Counter,
    misses: Counter,
    write_errors: Counter,
    tmp_counter: AtomicU64,
    recorder: Arc<dyn Recorder>,
    /// Entry paths with reads in flight in this process (refcounted); gc
    /// skips them so a reader never loses its file mid-read.
    pins: Mutex<HashMap<PathBuf, usize>>,
    /// Deterministic fault injection (`--chaos`): `disk.write.enospc`,
    /// `disk.write.torn` and `disk.read.bitflip` sites. `None` in
    /// production.
    fault: Option<Arc<FaultPlan>>,
    /// Emits the operator-facing degradation warning once per handle.
    write_warn: Once,
}

impl DiskCache {
    /// Opens (creating if needed) a cache directory.
    ///
    /// # Errors
    ///
    /// A human-readable message when the directory (or its `results/` and
    /// `identity/` namespaces) cannot be created.
    pub fn open(dir: impl Into<PathBuf>) -> Result<DiskCache, String> {
        let root = dir.into();
        for namespace in ["results", "identity"] {
            let path = root.join(namespace);
            std::fs::create_dir_all(&path)
                .map_err(|e| format!("cannot create cache dir {}: {e}", path.display()))?;
        }
        Ok(DiskCache {
            root,
            hits: Counter::detached(),
            misses: Counter::detached(),
            write_errors: Counter::detached(),
            tmp_counter: AtomicU64::new(0),
            recorder: Arc::new(NoopRecorder),
            pins: Mutex::new(HashMap::new()),
            fault: None,
            write_warn: Once::new(),
        })
    }

    /// Rebinds this cache's counters onto `metrics` (as `disk.hits`,
    /// `disk.misses`, `disk.write_failed`) and routes `disk.read` /
    /// `disk.write` / `disk.gc` spans to `recorder`.
    ///
    /// Called by the engine builder before the cache is shared; counts
    /// are zero at that point, so the swap is lossless.
    pub(crate) fn bind_observability(
        &mut self,
        metrics: &MetricsRegistry,
        recorder: Arc<dyn Recorder>,
    ) {
        self.hits = metrics.counter("disk.hits");
        self.misses = metrics.counter("disk.misses");
        self.write_errors = metrics.counter("disk.write_failed");
        self.recorder = recorder;
    }

    /// Arms deterministic fault injection on this cache's read and write
    /// paths (sites `disk.write.enospc`, `disk.write.torn`,
    /// `disk.read.bitflip`). Wired by
    /// [`EngineBuilder::with_fault_plan`](crate::EngineBuilder::with_fault_plan).
    pub(crate) fn set_fault_plan(&mut self, plan: Arc<FaultPlan>) {
        self.fault = Some(plan);
    }

    /// The directory this cache persists into.
    #[must_use]
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Hit/miss counters of disk probes (lifetime of this handle).
    #[must_use]
    pub fn counters(&self) -> CacheCounters {
        CacheCounters {
            hits: self.hits.get(),
            misses: self.misses.get(),
        }
    }

    /// Entries that failed to persist (full disk, permissions); reads are
    /// unaffected and the engine falls through to in-memory results —
    /// mirrored as the `disk.write_failed` metric.
    #[must_use]
    pub fn write_failed(&self) -> u64 {
        self.write_errors.get()
    }

    fn entry_path(&self, namespace: &str, key: u128) -> PathBuf {
        self.root
            .join(namespace)
            .join(format!("{:02x}", (key >> 120) as u8))
            .join(format!("{key:032x}"))
    }

    /// Reads and verifies one entry's payload; `None` on any defect.
    ///
    /// Does **not** count: a checksum-valid payload can still fail to
    /// decode, so hit/miss accounting happens in the typed loaders once
    /// the full decode has succeeded or failed.
    ///
    /// The entry is pinned for the duration of the read, so a concurrent
    /// [`DiskCache::gc`] on this handle never deletes a file out from
    /// under an in-flight reader.
    fn read_payload(&self, namespace: &str, key: u128) -> Option<String> {
        let _span = span!(self.recorder.as_ref(), "disk.read", ns = namespace);
        let path = self.entry_path(namespace, key);
        let _pin = self.pin(path.clone());
        let text = std::fs::read_to_string(path).ok().map(|text| {
            // Injected read corruption: flip one bit of the entry before
            // verification — it must read as a miss, never as data.
            let bits = match self.fault.as_deref() {
                Some(plan) if !text.is_empty() => plan.fires("disk.read.bitflip"),
                _ => None,
            };
            let Some(bits) = bits else { return text };
            let mut bytes = text.into_bytes();
            let index = (bits as usize) % bytes.len();
            bytes[index] ^= 1 << ((bits >> 32) % 8);
            String::from_utf8_lossy(&bytes).into_owned()
        });
        text.as_deref().and_then(verify_entry).map(str::to_owned)
    }

    /// Refcounts `path` into the pin registry; the returned guard
    /// releases it on drop.
    fn pin(&self, path: PathBuf) -> ReadPin<'_> {
        *self
            .pins
            .lock()
            .expect("disk pin registry")
            .entry(path.clone())
            .or_insert(0) += 1;
        ReadPin { cache: self, path }
    }

    /// Paths currently pinned by in-flight reads.
    fn pinned_paths(&self) -> std::collections::HashSet<PathBuf> {
        self.pins
            .lock()
            .expect("disk pin registry")
            .keys()
            .cloned()
            .collect()
    }

    /// Pins the `results/` entry of `key` until the returned guard drops,
    /// protecting it from [`DiskCache::gc`] on this handle. For daemons
    /// whose sweeps hold references to cached results while a background
    /// gc sweeps the directory.
    #[must_use]
    pub fn begin_read(&self, key: u128) -> ReadPin<'_> {
        self.pin(self.entry_path("results", key))
    }

    /// Persists one entry atomically (temp file + rename); failures are
    /// counted and swallowed.
    fn write_payload(&self, namespace: &str, key: u128, payload: &str) {
        let _span = span!(self.recorder.as_ref(), "disk.write", ns = namespace);
        let path = self.entry_path(namespace, key);
        let mut content = format!("{MAGIC}\n{payload}\n{:016x}\n", fnv64(payload.as_bytes()));
        // Injected torn write: commit a truncated entry, as a crash
        // straddling write and rename could — it must later read as a
        // miss and be recomputed, never misread.
        if let Some(bits) = self
            .fault
            .as_deref()
            .and_then(|p| p.fires("disk.write.torn"))
        {
            content.truncate(1 + (bits as usize) % content.len());
        }
        let tmp = path.with_extension(format!(
            "tmp.{}.{}",
            std::process::id(),
            self.tmp_counter.fetch_add(1, Ordering::Relaxed)
        ));
        let written = if self
            .fault
            .as_deref()
            .is_some_and(|p| p.fires("disk.write.enospc").is_some())
        {
            Err(std::io::Error::other("injected ENOSPC (chaos)"))
        } else {
            path.parent()
                .map_or(Ok(()), std::fs::create_dir_all)
                .and_then(|()| std::fs::write(&tmp, content))
                .and_then(|()| std::fs::rename(&tmp, &path))
        };
        if let Err(error) = written {
            let _ = std::fs::remove_file(&tmp);
            self.write_errors.incr();
            let _span = span!(self.recorder.as_ref(), "disk.write_failed", ns = namespace);
            self.write_warn.call_once(|| {
                eprintln!(
                    "hetrta: disk cache write failed ({error}) at {}; \
                     continuing with in-memory results (disk.write_failed counts)",
                    path.display()
                );
            });
        }
    }

    /// Loads a persisted analysis outcome, or `None` (miss / unreadable /
    /// corrupt / stale format).
    #[must_use]
    pub fn load_result(&self, key: u128) -> Option<AnalysisOutcome> {
        let decoded = self
            .read_payload("results", key)
            .and_then(|payload| AnalysisOutcome::decode(&payload));
        if decoded.is_some() {
            self.hits.incr();
        } else {
            self.misses.incr();
        }
        decoded
    }

    /// Persists one analysis outcome.
    pub fn store_result(&self, key: u128, outcome: &AnalysisOutcome) {
        self.write_payload("results", key, &outcome.encode());
    }

    /// Loads a persisted identity entry: `Some(None)` for a memoized
    /// declined sample, `Some(Some(content))` for a content hash, `None`
    /// for a miss.
    #[must_use]
    pub fn load_identity(&self, key: u128) -> Option<Option<u128>> {
        let decoded = self.read_payload("identity", key).and_then(|payload| {
            if payload == SKIP {
                return Some(None);
            }
            match u128::from_str_radix(&payload, 16) {
                Ok(content) if payload.len() == 32 => Some(Some(content)),
                _ => None,
            }
        });
        if decoded.is_some() {
            self.hits.incr();
        } else {
            self.misses.incr();
        }
        decoded
    }

    /// Persists one identity entry.
    pub fn store_identity(&self, key: u128, content: Option<u128>) {
        let payload = match content {
            None => SKIP.to_owned(),
            Some(c) => format!("{c:032x}"),
        };
        self.write_payload("identity", key, &payload);
    }

    /// Bounds the cache directory to (approximately) `max_bytes`, deleting
    /// the **oldest-mtime result entries first** until the total size fits.
    ///
    /// The identity memo (`identity/`) is never touched: its entries are a
    /// few dozen bytes each, and deleting one mid-sweep would force a
    /// running engine to regenerate an input it believes is memoized. When
    /// the identity namespace alone exceeds the bound, gc reports
    /// `remaining_bytes > max_bytes` instead of violating that invariant.
    ///
    /// Concurrent engines are safe: a deleted entry simply reads as a miss
    /// and is recomputed and rewritten. Half-written `*.tmp.*` files are
    /// ignored (and never counted), and entries with reads in flight in
    /// this process (pinned via [`DiskCache::begin_read`] or an internal
    /// load) are skipped — counted in [`GcStats::pinned_entries`] — so gc
    /// never races its own readers.
    ///
    /// # Errors
    ///
    /// A human-readable message when a namespace directory cannot be read;
    /// failures to delete individual entries are counted, not fatal.
    pub fn gc(&self, max_bytes: u64) -> Result<GcStats, String> {
        let _span = span!(self.recorder.as_ref(), "disk.gc", max_bytes = max_bytes);
        let identity_bytes: u64 = self.scan_entries("identity")?.iter().map(|e| e.bytes).sum();
        let mut results = self.scan_entries("results")?;
        // Oldest first; path disambiguates equal timestamps so the sweep
        // order is deterministic.
        results.sort_by(|a, b| (a.mtime, &a.path).cmp(&(b.mtime, &b.path)));
        // Snapshot the pin registry once: an entry pinned now stays
        // untouchable for this whole sweep (a pin acquired later pins a
        // file this sweep already decided to keep or already deleted —
        // the reader of a deleted file sees an ordinary miss).
        let pinned = self.pinned_paths();
        let mut remaining: u64 = identity_bytes + results.iter().map(|e| e.bytes).sum::<u64>();
        let scanned_bytes = remaining;
        let mut stats = GcStats {
            scanned_bytes,
            remaining_bytes: remaining,
            deleted_entries: 0,
            deleted_bytes: 0,
            pinned_entries: 0,
        };
        for entry in &results {
            if remaining <= max_bytes {
                break;
            }
            if pinned.contains(&entry.path) {
                stats.pinned_entries += 1;
                continue;
            }
            if std::fs::remove_file(&entry.path).is_ok() {
                remaining -= entry.bytes;
                stats.deleted_entries += 1;
                stats.deleted_bytes += entry.bytes;
            }
        }
        stats.remaining_bytes = remaining;
        Ok(stats)
    }

    /// Every committed entry file of `namespace` with its size and mtime.
    fn scan_entries(&self, namespace: &str) -> Result<Vec<DiskEntry>, String> {
        let root = self.root.join(namespace);
        let mut entries = Vec::new();
        let shards = std::fs::read_dir(&root)
            .map_err(|e| format!("cannot read cache dir {}: {e}", root.display()))?;
        for shard in shards.flatten() {
            let Ok(files) = std::fs::read_dir(shard.path()) else {
                continue;
            };
            for file in files.flatten() {
                // Committed entries are exactly 32 hex chars; anything else
                // (in-flight `*.tmp.*` files) is skipped.
                let name = file.file_name();
                let name = name.to_string_lossy();
                if name.len() != 32 || !name.bytes().all(|b| b.is_ascii_hexdigit()) {
                    continue;
                }
                let Ok(meta) = file.metadata() else { continue };
                let mtime = meta.modified().unwrap_or(std::time::SystemTime::UNIX_EPOCH);
                entries.push(DiskEntry {
                    path: file.path(),
                    bytes: meta.len(),
                    mtime,
                });
            }
        }
        Ok(entries)
    }
}

/// One committed cache entry on disk (gc bookkeeping).
#[derive(Debug, Clone)]
struct DiskEntry {
    path: PathBuf,
    bytes: u64,
    mtime: std::time::SystemTime,
}

/// What one [`DiskCache::gc`] sweep did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GcStats {
    /// Total committed bytes found (results + identity).
    pub scanned_bytes: u64,
    /// Result entries deleted.
    pub deleted_entries: u64,
    /// Bytes reclaimed.
    pub deleted_bytes: u64,
    /// Committed bytes left after the sweep.
    pub remaining_bytes: u64,
    /// Result entries spared because a read was in flight on them.
    pub pinned_entries: u64,
}

/// A pin on one cache entry: while it lives, [`DiskCache::gc`] on the
/// same handle will not delete the entry. Obtained via
/// [`DiskCache::begin_read`]; released on drop.
#[derive(Debug)]
pub struct ReadPin<'a> {
    cache: &'a DiskCache,
    path: PathBuf,
}

impl Drop for ReadPin<'_> {
    fn drop(&mut self) {
        let mut pins = self.cache.pins.lock().expect("disk pin registry");
        if let Some(count) = pins.get_mut(&self.path) {
            *count -= 1;
            if *count == 0 {
                pins.remove(&self.path);
            }
        }
    }
}

/// Validates `magic \n payload \n checksum` and returns the payload.
fn verify_entry(text: &str) -> Option<&str> {
    let mut lines = text.lines();
    if lines.next() != Some(MAGIC) {
        return None;
    }
    let payload = lines.next()?;
    let checksum = lines.next()?;
    if lines.next().is_some() || u64::from_str_radix(checksum, 16) != Ok(fnv64(payload.as_bytes()))
    {
        return None;
    }
    Some(payload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetrta_api::SimOutcome;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "hetrta-disk-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn outcome() -> AnalysisOutcome {
        AnalysisOutcome::Sim(SimOutcome {
            makespan: 17,
            transformed_makespan: Some(12),
        })
    }

    #[test]
    fn result_roundtrip_across_handles() {
        let dir = temp_dir("roundtrip");
        let cache = DiskCache::open(&dir).unwrap();
        assert_eq!(cache.load_result(42), None);
        cache.store_result(42, &outcome());
        assert_eq!(cache.load_result(42), Some(outcome()));
        // A second handle on the same directory (≈ a second process).
        let other = DiskCache::open(&dir).unwrap();
        assert_eq!(other.load_result(42), Some(outcome()));
        assert_eq!(other.counters().hits, 1);
        assert_eq!(cache.counters(), CacheCounters { hits: 1, misses: 1 });
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn identity_roundtrip_including_skips() {
        let dir = temp_dir("identity");
        let cache = DiskCache::open(&dir).unwrap();
        assert_eq!(cache.load_identity(7), None);
        cache.store_identity(7, Some(0xFEED_F00D));
        cache.store_identity(8, None);
        assert_eq!(cache.load_identity(7), Some(Some(0xFEED_F00D)));
        assert_eq!(cache.load_identity(8), Some(None));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corruption_and_stale_versions_read_as_misses() {
        let dir = temp_dir("corrupt");
        let cache = DiskCache::open(&dir).unwrap();
        cache.store_result(1, &outcome());
        let path = cache.entry_path("results", 1);

        // Flipped payload byte: checksum rejects it.
        let good = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, good.replace("17", "99")).unwrap();
        assert_eq!(cache.load_result(1), None);

        // Truncation.
        std::fs::write(&path, &good[..good.len() / 2]).unwrap();
        assert_eq!(cache.load_result(1), None);

        // Stale format version.
        std::fs::write(&path, good.replace(MAGIC, "hetrta-cache v0")).unwrap();
        assert_eq!(cache.load_result(1), None);

        // Garbage.
        std::fs::write(&path, b"\x00\xFF not a cache entry").unwrap();
        assert_eq!(cache.load_result(1), None);

        // Checksum-valid but grammatically stale payload.
        let payload = "frobnicate 1 2 3";
        std::fs::write(
            &path,
            format!("{MAGIC}\n{payload}\n{:016x}\n", fnv64(payload.as_bytes())),
        )
        .unwrap();
        assert_eq!(cache.load_result(1), None);
        assert_eq!(cache.counters().hits, 0, "no defect may count as a hit");

        // Rewriting repairs the entry.
        cache.store_result(1, &outcome());
        assert_eq!(cache.load_result(1), Some(outcome()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_respects_the_bound_and_spares_the_identity_memo() {
        let dir = temp_dir("gc");
        let cache = DiskCache::open(&dir).unwrap();
        // Identity memo entries (must survive any sweep) …
        cache.store_identity(1, Some(0xAA));
        cache.store_identity(2, None);
        // … and ten result entries, written oldest-first.
        for key in 0..10u128 {
            cache.store_result(key << 96 | 0x100 | key, &outcome());
        }
        let before = cache.gc(u64::MAX).unwrap();
        assert_eq!(before.deleted_entries, 0, "roomy bound deletes nothing");
        let entry_bytes = before.scanned_bytes / 12; // rough per-entry size

        // Bound to roughly half: the sweep must delete oldest-first until
        // the total fits, and the bound must hold afterwards.
        let bound = before.scanned_bytes / 2;
        let stats = cache.gc(bound).unwrap();
        assert!(stats.deleted_entries > 0);
        assert!(
            stats.remaining_bytes <= bound,
            "remaining {} > bound {bound}",
            stats.remaining_bytes
        );
        assert_eq!(
            stats.remaining_bytes,
            before.scanned_bytes - stats.deleted_bytes
        );
        // Oldest result entries went first; the newest still loads.
        assert_eq!(cache.load_result(9 << 96 | 0x100 | 9), Some(outcome()));
        assert_eq!(cache.load_result(0x100), None, "oldest entry swept");
        // The identity memo is untouched even by a zero-byte bound.
        let zero = cache.gc(0).unwrap();
        assert_eq!(cache.load_identity(1), Some(Some(0xAA)));
        assert_eq!(cache.load_identity(2), Some(None));
        assert!(
            zero.remaining_bytes >= 2 * entry_bytes / 2,
            "identity bytes remain counted"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_ignores_inflight_tmp_files() {
        let dir = temp_dir("gc-tmp");
        let cache = DiskCache::open(&dir).unwrap();
        cache.store_result(7, &outcome());
        // A concurrent writer's half-written file must be neither counted
        // nor deleted.
        let tmp = cache.entry_path("results", 7).with_extension("tmp.999.0");
        std::fs::write(&tmp, "half-written").unwrap();
        let stats = cache.gc(0).unwrap();
        assert_eq!(stats.deleted_entries, 1);
        assert!(tmp.exists(), "tmp files are not gc'd");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_skips_entries_with_reads_in_flight() {
        let dir = temp_dir("gc-pins");
        let cache = DiskCache::open(&dir).unwrap();
        for key in 0..4u128 {
            cache.store_result(key, &outcome());
        }
        // Pin two entries as an in-flight reader would, then demand a
        // zero-byte bound: everything unpinned goes, the pinned survive.
        let pin_a = cache.begin_read(0);
        let pin_b = cache.begin_read(2);
        let stats = cache.gc(0).unwrap();
        assert_eq!(stats.pinned_entries, 2);
        assert_eq!(stats.deleted_entries, 2);
        assert_eq!(cache.load_result(0), Some(outcome()), "pinned survives");
        assert_eq!(cache.load_result(2), Some(outcome()), "pinned survives");
        assert_eq!(cache.load_result(1), None, "unpinned swept");
        drop(pin_a);
        drop(pin_b);
        // Pins released: the next sweep reclaims them.
        let stats = cache.gc(0).unwrap();
        assert_eq!(stats.pinned_entries, 0);
        assert_eq!(cache.load_result(0), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn double_pins_are_refcounted() {
        let dir = temp_dir("gc-refcount");
        let cache = DiskCache::open(&dir).unwrap();
        cache.store_result(5, &outcome());
        let first = cache.begin_read(5);
        let second = cache.begin_read(5);
        drop(first);
        // One pin remains: still protected.
        cache.gc(0).unwrap();
        assert_eq!(cache.load_result(5), Some(outcome()));
        drop(second);
        cache.gc(0).unwrap();
        assert_eq!(cache.load_result(5), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unwritable_directory_fails_open() {
        let err = DiskCache::open("/proc/definitely-not-writable/hetrta").unwrap_err();
        assert!(err.contains("cannot create cache dir"), "{err}");
    }

    #[test]
    fn injected_write_failure_degrades_gracefully() {
        let dir = temp_dir("enospc");
        let mut cache = DiskCache::open(&dir).unwrap();
        // Every write hits an injected ENOSPC; reads stay healthy.
        cache.set_fault_plan(Arc::new(
            FaultPlan::with_rate(0xE205, 1, 1).restrict_to(["disk.write.enospc"]),
        ));
        cache.store_result(42, &outcome());
        cache.store_identity(7, Some(0xFEED));
        assert_eq!(cache.write_failed(), 2, "every failure is counted");
        assert_eq!(cache.load_result(42), None, "nothing was persisted");
        assert_eq!(cache.load_identity(7), None);
        // No half-written tmp litter survives a failed write.
        let tmp_litter = std::fs::read_dir(dir.join("results"))
            .unwrap()
            .flatten()
            .flat_map(|shard| std::fs::read_dir(shard.path()).into_iter().flatten())
            .count();
        assert_eq!(tmp_litter, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_torn_write_reads_as_a_miss() {
        let dir = temp_dir("torn");
        let mut cache = DiskCache::open(&dir).unwrap();
        cache.set_fault_plan(Arc::new(
            FaultPlan::with_rate(0x70B2, 1, 1).restrict_to(["disk.write.torn"]),
        ));
        cache.store_result(42, &outcome());
        // The torn entry committed (no write error) but must never
        // decode; the engine recomputes and rewrites.
        assert_eq!(cache.write_failed(), 0);
        assert_eq!(cache.load_result(42), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_read_bitflip_reads_as_a_miss() {
        let dir = temp_dir("bitflip");
        let mut cache = DiskCache::open(&dir).unwrap();
        cache.store_result(42, &outcome());
        assert_eq!(cache.load_result(42), Some(outcome()), "healthy first");
        cache.set_fault_plan(Arc::new(
            FaultPlan::with_rate(0xB17F, 1, 1).restrict_to(["disk.read.bitflip"]),
        ));
        assert_eq!(cache.load_result(42), None, "flipped bit fails checksum");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn engine_falls_through_to_memory_when_every_write_fails() {
        use crate::spec::{GeneratorPreset, SweepSpec};
        use crate::EngineBuilder;

        let dir = temp_dir("fall-through");
        let plan = Arc::new(FaultPlan::with_rate(0xDE6A, 1, 1).restrict_to(["disk.write.enospc"]));
        let engine = EngineBuilder::new()
            .threads(2)
            .with_cache_dir(&dir)
            .with_fault_plan(Arc::clone(&plan))
            .build()
            .unwrap();
        let spec = SweepSpec::fractions(GeneratorPreset::Small, vec![2], vec![0.2], 3, 5);
        let out = engine.run(&spec).unwrap();
        // The sweep succeeded purely in memory, failures were counted
        // and surfaced through both the metric and the fault counters.
        let healthy = crate::Engine::new(2).run(&spec).unwrap();
        assert_eq!(out.aggregate, healthy.aggregate);
        let snapshot = engine.metrics().snapshot();
        let failed = snapshot.counter("disk.write_failed").unwrap_or(0);
        assert!(failed > 0, "writes must have failed");
        assert_eq!(
            snapshot.counter("fault.disk.write.enospc"),
            Some(failed),
            "every failure was an injected one"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
