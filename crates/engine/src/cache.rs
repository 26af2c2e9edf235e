//! Content-addressed artifact cache keyed by [`SpecDigest`].
//!
//! Every run is a pure function of its canonical spec, base seed,
//! quantile selection and artifact kind — the engine guarantees (and
//! CI pins) bit-identical artifacts across thread counts, shard
//! splits and resume points. That makes finished artifacts perfectly
//! cacheable: the CLI's `--cache DIR` (or the `EPROC_CACHE`
//! environment variable) consults a [`CacheStore`] before executing,
//! serves hits byte-identical to the run that populated them, and
//! stores misses after a successful run.
//!
//! # Layout
//!
//! ```text
//! <root>/<hh>/<64-hex-digest>.json   the artifact bytes, verbatim
//! <root>/<hh>/<64-hex-digest>.spec   sidecar: canonical line + key + hash
//! ```
//!
//! where `<hh>` is the first two hex characters of the digest (a
//! git-style fan-out, keeping directories small). The `.spec` sidecar's
//! first line is the canonical spec line — `eproc cache ls` prints it so
//! a digest can be traced back to the experiment that produced it — and
//! its last line is `sha256=<hex>`, the artifact's content hash.
//!
//! # Integrity
//!
//! A lookup serves bytes only if they hash to the sidecar's `sha256`
//! line. An artifact whose hash is missing or disagrees — a flipped bit
//! on disk, a truncated copy, an entry written before hashes were
//! recorded — counts as a miss and is evicted, so the run executes again
//! and stores a fresh entry instead of serving damaged bytes.
//!
//! # Atomicity and safety
//!
//! Writes go through [`eproc_telemetry::write_atomic`] (temp sibling +
//! rename): a crash mid-store never leaves a truncated artifact, and
//! concurrent writers of the *same* digest race benignly — both write
//! identical bytes, the last rename wins. There is no locking and no
//! eviction policy beyond the explicit `eproc cache gc`.
//!
//! A cache entry is only correct if the digest preimage really covers
//! everything the bytes depend on — see [`crate::digest`] for the
//! contract and [`SPEC_DIGEST_VERSION`](crate::digest::SPEC_DIGEST_VERSION)
//! for how format changes invalidate old entries.

use crate::digest::{sha256, SpecDigest};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Environment variable that roots the cache when `--cache DIR` is not
/// given. Setting it turns caching on for every `run`/`compare`/
/// `scale` invocation in that environment.
pub const CACHE_ENV: &str = "EPROC_CACHE";

/// Prefix of the sidecar line recording the artifact's SHA-256.
const HASH_PREFIX: &str = "sha256=";

/// Lowercase hex SHA-256 of an artifact's bytes.
fn content_hash(artifact: &[u8]) -> String {
    SpecDigest::from_bytes(sha256(artifact)).hex()
}

/// One entry of [`CacheStore::entries`].
#[derive(Debug, Clone)]
pub struct CacheEntry {
    /// Full 64-hex digest (the file stem).
    pub digest: String,
    /// Artifact size in bytes.
    pub bytes: u64,
    /// First line of the `.spec` sidecar (the canonical spec line), or
    /// empty when the sidecar is missing.
    pub spec_line: String,
    /// Artifact modification time (eviction order for `gc`).
    pub modified: Option<std::time::SystemTime>,
}

/// Result of a [`CacheStore::gc`] sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GcStats {
    /// Entries removed.
    pub removed: usize,
    /// Entries kept.
    pub kept: usize,
    /// Artifact bytes freed.
    pub freed_bytes: u64,
}

/// A content-addressed artifact store rooted at one directory.
#[derive(Debug, Clone)]
pub struct CacheStore {
    root: PathBuf,
}

impl CacheStore {
    /// Opens (without touching the filesystem) a store rooted at
    /// `root`. Directories are created lazily on first store.
    pub fn open(root: impl Into<PathBuf>) -> CacheStore {
        CacheStore { root: root.into() }
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Where the artifact for `digest` lives (whether or not present).
    pub fn artifact_path(&self, digest: &SpecDigest) -> PathBuf {
        let hex = digest.hex();
        self.root.join(&hex[..2]).join(format!("{hex}.json"))
    }

    fn sidecar_path(&self, digest: &SpecDigest) -> PathBuf {
        self.artifact_path(digest).with_extension("spec")
    }

    /// Loads the artifact bytes for `digest`, or `None` on a miss. An
    /// entry whose bytes do not hash to its sidecar's `sha256` line (or
    /// whose sidecar has none) is a miss too, and is evicted.
    ///
    /// # Errors
    ///
    /// Any I/O error other than a file not existing — a present but
    /// unreadable entry is a real error, not a miss.
    pub fn load(&self, digest: &SpecDigest) -> io::Result<Option<String>> {
        let path = self.artifact_path(digest);
        let artifact = match fs::read(&path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e),
        };
        let recorded = match fs::read(self.sidecar_path(digest)) {
            Ok(sidecar) => String::from_utf8_lossy(&sidecar)
                .lines()
                .rev()
                .find_map(|line| line.strip_prefix(HASH_PREFIX))
                .map(String::from),
            Err(e) if e.kind() == io::ErrorKind::NotFound => None,
            Err(e) => return Err(e),
        };
        // Hash the raw bytes before decoding: a flip that breaks UTF-8 is
        // damage like any other, not a read error.
        if recorded.as_deref() == Some(content_hash(&artifact).as_str()) {
            if let Ok(text) = String::from_utf8(artifact) {
                return Ok(Some(text));
            }
        }
        // Damaged or unverifiable: evict, best effort, so the caller's
        // re-run stores a fresh entry.
        let _ = fs::remove_file(&path);
        let _ = fs::remove_file(self.sidecar_path(digest));
        Ok(None)
    }

    /// Stores `artifact` under `digest` with a `.spec` sidecar holding
    /// `sidecar` followed by the artifact's `sha256=<hex>` line, both
    /// atomically. Returns the artifact path.
    ///
    /// # Errors
    ///
    /// Any I/O error creating directories or writing either file.
    pub fn store(&self, digest: &SpecDigest, artifact: &str, sidecar: &str) -> io::Result<PathBuf> {
        let path = self.artifact_path(digest);
        let mut sidecar = sidecar.to_string();
        if !sidecar.ends_with('\n') {
            sidecar.push('\n');
        }
        sidecar.push_str(HASH_PREFIX);
        sidecar.push_str(&content_hash(artifact.as_bytes()));
        sidecar.push('\n');
        // Sidecar first: an artifact without a sidecar lists with an
        // empty spec line (and misses on lookup), but a sidecar without
        // an artifact is invisible (lookups go by artifact).
        eproc_telemetry::write_atomic(&self.sidecar_path(digest), &sidecar)?;
        eproc_telemetry::write_atomic(&path, artifact)?;
        Ok(path)
    }

    /// Every entry in the store, sorted by digest. A missing or
    /// unreadable root directory lists as empty (a cache that was
    /// never written to is empty, not broken).
    ///
    /// # Errors
    ///
    /// I/O errors reading an existing fan-out directory.
    pub fn entries(&self) -> io::Result<Vec<CacheEntry>> {
        let mut entries = Vec::new();
        let fanouts = match fs::read_dir(&self.root) {
            Ok(rd) => rd,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(entries),
            Err(e) => return Err(e),
        };
        for fanout in fanouts {
            let fanout = fanout?;
            if !fanout.file_type()?.is_dir() {
                continue;
            }
            for file in fs::read_dir(fanout.path())? {
                let file = file?;
                let path = file.path();
                let Some(stem) = path.file_stem().and_then(|s| s.to_str()) else {
                    continue;
                };
                let is_artifact = path.extension().is_some_and(|e| e == "json")
                    && stem.len() == 64
                    && stem.bytes().all(|b| b.is_ascii_hexdigit());
                if !is_artifact {
                    continue;
                }
                let meta = file.metadata()?;
                let spec_line = fs::read_to_string(path.with_extension("spec"))
                    .ok()
                    .and_then(|s| s.lines().next().map(String::from))
                    .unwrap_or_default();
                entries.push(CacheEntry {
                    digest: stem.to_string(),
                    bytes: meta.len(),
                    spec_line,
                    modified: meta.modified().ok(),
                });
            }
        }
        entries.sort_by(|a, b| a.digest.cmp(&b.digest));
        Ok(entries)
    }

    /// Resolves a (possibly partial) lowercase hex digest to the
    /// artifact paths it matches, in digest order.
    ///
    /// # Errors
    ///
    /// I/O errors from [`CacheStore::entries`].
    pub fn resolve_prefix(&self, prefix: &str) -> io::Result<Vec<PathBuf>> {
        Ok(self
            .entries()?
            .into_iter()
            .filter(|e| e.digest.starts_with(prefix))
            .map(|e| {
                self.root
                    .join(&e.digest[..2])
                    .join(format!("{}.json", e.digest))
            })
            .collect())
    }

    /// Removes entries — oldest modification time first — until the
    /// artifacts remaining total at most `max_bytes` (`0` clears the
    /// store). Sidecars are removed with their artifacts.
    ///
    /// # Errors
    ///
    /// I/O errors listing or removing entries.
    pub fn gc(&self, max_bytes: u64) -> io::Result<GcStats> {
        let mut entries = self.entries()?;
        // Oldest first; digest tiebreak keeps the order deterministic
        // when timestamps collide (or are unavailable).
        entries.sort_by(|a, b| (a.modified, &a.digest).cmp(&(b.modified, &b.digest)));
        let total: u64 = entries.iter().map(|e| e.bytes).sum();
        let mut excess = total.saturating_sub(max_bytes);
        let mut stats = GcStats {
            removed: 0,
            kept: 0,
            freed_bytes: 0,
        };
        for entry in entries {
            if excess == 0 {
                stats.kept += 1;
                continue;
            }
            let path = self
                .root
                .join(&entry.digest[..2])
                .join(format!("{}.json", entry.digest));
            fs::remove_file(&path)?;
            // A missing sidecar is fine — remove best-effort.
            let _ = fs::remove_file(path.with_extension("spec"));
            excess = excess.saturating_sub(entry.bytes);
            stats.removed += 1;
            stats.freed_bytes += entry.bytes;
        }
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digest::{sha256, spec_digest, ArtifactKind};
    use crate::spec::ExperimentSpec;

    fn temp_store(tag: &str) -> CacheStore {
        let dir =
            std::env::temp_dir().join(format!("eproc_cache_test_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        CacheStore::open(dir)
    }

    fn digest_of(line: &str) -> SpecDigest {
        let spec = ExperimentSpec::parse_cli(line).unwrap();
        spec_digest(&spec, 12345, &[0.5], ArtifactKind::Ensemble)
    }

    #[test]
    fn round_trips_bytes_verbatim() {
        let store = temp_store("roundtrip");
        let d = digest_of("--graph cycle:16 --process srw");
        assert_eq!(store.load(&d).unwrap(), None);
        store
            .store(&d, "{\"x\": 1}\n", "--graph cycle:16\n")
            .unwrap();
        assert_eq!(store.load(&d).unwrap().as_deref(), Some("{\"x\": 1}\n"));
        let entries = store.entries().unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].digest, d.hex());
        assert_eq!(entries[0].spec_line, "--graph cycle:16");
    }

    #[test]
    fn prefix_resolution_and_gc() {
        let store = temp_store("gc");
        let d1 = digest_of("--graph cycle:16 --process srw");
        let d2 = digest_of("--graph cycle:32 --process srw");
        store.store(&d1, "one", "l1").unwrap();
        store.store(&d2, "two!", "l2").unwrap();
        assert_eq!(store.resolve_prefix(&d1.short()).unwrap().len(), 1);
        assert_eq!(store.resolve_prefix("").unwrap().len(), 2);
        let stats = store.gc(0).unwrap();
        assert_eq!(stats.removed, 2);
        assert_eq!(stats.freed_bytes, 7);
        assert!(store.entries().unwrap().is_empty());
        assert_eq!(store.load(&d1).unwrap(), None);
    }

    #[test]
    fn gc_keeps_entries_under_the_budget() {
        let store = temp_store("budget");
        let d1 = digest_of("--graph cycle:16 --process srw");
        let d2 = digest_of("--graph cycle:32 --process srw");
        store.store(&d1, "aaaa", "l1").unwrap();
        store.store(&d2, "bbbb", "l2").unwrap();
        let stats = store.gc(4).unwrap();
        assert_eq!((stats.removed, stats.kept), (1, 1));
        assert_eq!(store.entries().unwrap().len(), 1);
    }

    #[test]
    fn a_damaged_or_unhashed_artifact_misses_and_is_evicted() {
        let store = temp_store("integrity");
        let d = digest_of("--graph cycle:16 --process srw");
        store
            .store(&d, "{\"x\": 1}\n", "--graph cycle:16\n")
            .unwrap();
        let sidecar = std::fs::read_to_string(store.sidecar_path(&d)).unwrap();
        assert!(
            sidecar.starts_with("--graph cycle:16\nsha256="),
            "{sidecar}"
        );
        // One flipped byte, here one that also breaks UTF-8: the lookup
        // misses and removes the entry.
        let path = store.artifact_path(&d);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[2] ^= 0x80;
        std::fs::write(&path, bytes).unwrap();
        assert_eq!(store.load(&d).unwrap(), None);
        assert!(!path.exists() && !store.sidecar_path(&d).exists());
        assert!(store.entries().unwrap().is_empty());
        // A sidecar without a hash line cannot vouch for its artifact.
        store.store(&d, "{}", "line").unwrap();
        std::fs::write(store.sidecar_path(&d), "line\n").unwrap();
        assert_eq!(store.load(&d).unwrap(), None);
        assert!(!path.exists());
        // Re-storing heals the entry.
        store.store(&d, "{}", "line").unwrap();
        assert_eq!(store.load(&d).unwrap().as_deref(), Some("{}"));
    }

    #[test]
    fn missing_root_is_an_empty_store() {
        let store = temp_store("missing");
        assert!(store.entries().unwrap().is_empty());
        assert_eq!(store.gc(0).unwrap().removed, 0);
        let d = SpecDigest::from_bytes(sha256(b"x"));
        assert_eq!(store.load(&d).unwrap(), None);
    }
}
