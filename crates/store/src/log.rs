//! The embedded keyed store: a single append-only log file plus an
//! in-memory index.
//!
//! Records are framed `marker ∥ key ∥ len ∥ payload ∥ digest`, where
//! the digest is the truncated SHA-256 of the record body. Opening a
//! store replays the log into a `HashMap`; a torn tail (the process
//! died mid-append) fails its frame or digest check, is dropped, and
//! the file is truncated back to the last whole record — every record
//! before it survives. Appends, the header write of a fresh file and
//! the cut of a torn tail all happen under a sibling lock file, so
//! several sweep processes can share one store: the worst race is two
//! processes measuring the same point and appending two identical
//! records, which last-wins replay makes harmless (measurements are
//! deterministic values).

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use crate::hash::{Hash, Sha256};

/// The 8-byte file magic (`TIASTOR` + layout revision digit).
pub const STORE_MAGIC: &[u8; 8] = b"TIASTOR1";

/// The log-file layout version this build reads and writes.
pub const STORE_FORMAT_VERSION: u32 = 1;

/// Header: magic ∥ format version ∥ schema version.
const HEADER_LEN: usize = 8 + 4 + 4;

/// Record framing marker, so replay can distinguish "clean EOF" from
/// "garbage where a record should start".
const RECORD_MARKER: u8 = 0xA5;

/// marker ∥ key ∥ payload length.
const RECORD_PREFIX_LEN: usize = 1 + 32 + 4;

/// Truncated record-body digest length.
const DIGEST_LEN: usize = 8;

/// A store failure.
#[derive(Debug)]
pub enum StoreError {
    /// File I/O failed.
    Io {
        /// The file involved.
        path: PathBuf,
        /// The underlying error message.
        message: String,
    },
    /// The file is a store, but written under a different schema
    /// version — its measurements describe other semantics and must
    /// not be trusted.
    Schema {
        /// The schema version recorded in the file.
        found: u32,
        /// The schema version the caller expects.
        expected: u32,
    },
    /// The file is a store of an incompatible layout revision.
    Format {
        /// The layout version recorded in the file.
        found: u32,
        /// The layout version this build supports.
        supported: u32,
    },
    /// The file exists but is not a store (wrong magic).
    NotAStore {
        /// The file involved.
        path: PathBuf,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io { path, message } => {
                write!(f, "store I/O failed for {}: {message}", path.display())
            }
            StoreError::Schema { found, expected } => write!(
                f,
                "store was written under schema version {found}, expected {expected}; \
                 its measurements are stale"
            ),
            StoreError::Format { found, supported } => write!(
                f,
                "store layout version {found} is not supported (this build reads {supported})"
            ),
            StoreError::NotAStore { path } => {
                write!(f, "{} is not a measurement store", path.display())
            }
        }
    }
}

impl std::error::Error for StoreError {}

fn io_err(path: &Path, e: std::io::Error) -> StoreError {
    StoreError::Io {
        path: path.to_path_buf(),
        message: e.to_string(),
    }
}

/// Holds `<path>.lock` for the duration of one append, so concurrent
/// processes sharing the store never interleave record bytes. Created
/// with `O_EXCL`; a lock file older than [`LockFile::STALE_SECONDS`]
/// (a crashed holder) is stolen.
struct LockFile {
    path: PathBuf,
}

impl LockFile {
    const STALE_SECONDS: u64 = 10;

    fn acquire(store_path: &Path) -> Result<LockFile, StoreError> {
        let mut path = store_path.as_os_str().to_owned();
        path.push(".lock");
        let path = PathBuf::from(path);
        loop {
            match OpenOptions::new().write(true).create_new(true).open(&path) {
                Ok(_) => return Ok(LockFile { path }),
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                    let stale = std::fs::metadata(&path)
                        .and_then(|m| m.modified())
                        .ok()
                        .and_then(|t| t.elapsed().ok())
                        .is_some_and(|age| age.as_secs() >= Self::STALE_SECONDS);
                    if stale {
                        let _ = std::fs::remove_file(&path);
                    } else {
                        std::thread::sleep(std::time::Duration::from_millis(1));
                    }
                }
                Err(e) => return Err(io_err(&path, e)),
            }
        }
    }
}

impl Drop for LockFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// Truncated digest over one record body.
fn record_digest(key: &Hash, payload: &[u8]) -> [u8; DIGEST_LEN] {
    let mut h = Sha256::new();
    h.update(&key.0);
    h.update(&(payload.len() as u32).to_le_bytes());
    h.update(payload);
    let full = h.finalize();
    full.0[..DIGEST_LEN].try_into().expect("8 bytes")
}

struct Inner {
    file: File,
    index: HashMap<Hash, Vec<u8>>,
}

/// A content-addressed keyed store over one append-only log file.
pub struct Store {
    path: PathBuf,
    schema: u32,
    dropped_tail_bytes: u64,
    inner: Mutex<Inner>,
}

impl std::fmt::Debug for Store {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Store")
            .field("path", &self.path)
            .field("schema", &self.schema)
            .field("records", &self.len())
            .finish()
    }
}

impl Store {
    /// Opens (creating if absent) the store at `path`, expecting
    /// `schema` as the caller's measurement-schema version.
    ///
    /// Replays the log into memory; a torn or corrupt tail is dropped
    /// and the file truncated back to the last whole record (see
    /// [`Store::dropped_tail_bytes`]).
    ///
    /// # Errors
    ///
    /// * [`StoreError::Schema`] — the file was written under another
    ///   schema version; the caller decides whether to discard it.
    /// * [`StoreError::Format`] / [`StoreError::NotAStore`] — the file
    ///   is not a store this build can read.
    /// * [`StoreError::Io`] — file-system failure.
    pub fn open(path: impl Into<PathBuf>, schema: u32) -> Result<Store, StoreError> {
        let path = path.into();
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir).map_err(|e| io_err(&path, e))?;
            }
        }
        let mut file = OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(&path)
            .map_err(|e| io_err(&path, e))?;
        let bytes = read_all(&mut file, &path)?;
        let mut clean = None;
        // A file shorter than a header may be another opener's header
        // write in progress; it is judged under the lock below.
        if bytes.len() >= HEADER_LEN {
            let (index, valid_end) = replay(&bytes, schema, &path)?;
            if valid_end == bytes.len() {
                clean = Some(index);
            }
        }
        let mut dropped_tail_bytes = 0;
        let index = match clean {
            Some(index) => index,
            None => {
                // Writing the header of a fresh file and cutting a torn
                // tail both rewrite the file. Do either only under the
                // append lock and on what the file holds once the lock
                // is ours: another opener may have written the header
                // since, and a "torn" tail may be an append still in
                // progress.
                let _lock = LockFile::acquire(&path)?;
                let mut bytes = read_all(&mut file, &path)?;
                if bytes.is_empty() {
                    bytes.extend_from_slice(STORE_MAGIC);
                    bytes.extend_from_slice(&STORE_FORMAT_VERSION.to_le_bytes());
                    bytes.extend_from_slice(&schema.to_le_bytes());
                    file.write_all(&bytes).map_err(|e| io_err(&path, e))?;
                }
                let (index, valid_end) = replay(&bytes, schema, &path)?;
                if valid_end < bytes.len() {
                    file.set_len(valid_end as u64)
                        .map_err(|e| io_err(&path, e))?;
                    dropped_tail_bytes = (bytes.len() - valid_end) as u64;
                }
                index
            }
        };
        Ok(Store {
            path,
            schema,
            dropped_tail_bytes,
            inner: Mutex::new(Inner { file, index }),
        })
    }

    /// The log file backing this store.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The measurement-schema version this store was opened under.
    pub fn schema(&self) -> u32 {
        self.schema
    }

    /// How many bytes of torn tail the open replay had to discard
    /// (0 for a cleanly written file).
    pub fn dropped_tail_bytes(&self) -> u64 {
        self.dropped_tail_bytes
    }

    /// Number of distinct keys in the store.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("no poisoned store").index.len()
    }

    /// Whether the store holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Looks a key up, returning a copy of its payload.
    pub fn get(&self, key: &Hash) -> Option<Vec<u8>> {
        self.inner
            .lock()
            .expect("no poisoned store")
            .index
            .get(key)
            .cloned()
    }

    /// Whether the store holds `key`.
    pub fn contains(&self, key: &Hash) -> bool {
        self.inner
            .lock()
            .expect("no poisoned store")
            .index
            .contains_key(key)
    }

    /// Inserts (or overwrites) `key` → `payload`, appending one record
    /// to the log. A put of the payload already stored is a no-op.
    ///
    /// # Errors
    ///
    /// Fails only on file I/O; the in-memory index is updated first,
    /// so the running sweep keeps its measurement either way.
    pub fn put(&self, key: Hash, payload: &[u8]) -> Result<(), StoreError> {
        let mut inner = self.inner.lock().expect("no poisoned store");
        if inner.index.get(&key).is_some_and(|held| held == payload) {
            return Ok(());
        }
        inner.index.insert(key, payload.to_vec());
        let mut record = Vec::with_capacity(RECORD_PREFIX_LEN + payload.len() + DIGEST_LEN);
        record.push(RECORD_MARKER);
        record.extend_from_slice(&key.0);
        record.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        record.extend_from_slice(payload);
        record.extend_from_slice(&record_digest(&key, payload));
        let _lock = LockFile::acquire(&self.path)?;
        inner
            .file
            .write_all(&record)
            .map_err(|e| io_err(&self.path, e))
    }
}

/// Reads the whole log file from its start.
fn read_all(file: &mut File, path: &Path) -> Result<Vec<u8>, StoreError> {
    let mut bytes = Vec::new();
    file.seek(SeekFrom::Start(0))
        .and_then(|_| file.read_to_end(&mut bytes))
        .map_err(|e| io_err(path, e))?;
    Ok(bytes)
}

/// Checks a non-empty log's header and replays its whole records into
/// an index; returns the index and the end of the last whole record.
/// Replay stops at the first frame that does not parse or verify (a
/// torn append).
fn replay(
    bytes: &[u8],
    schema: u32,
    path: &Path,
) -> Result<(HashMap<Hash, Vec<u8>>, usize), StoreError> {
    if bytes.len() < HEADER_LEN || &bytes[..8] != STORE_MAGIC {
        return Err(StoreError::NotAStore {
            path: path.to_path_buf(),
        });
    }
    let format = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    if format != STORE_FORMAT_VERSION {
        return Err(StoreError::Format {
            found: format,
            supported: STORE_FORMAT_VERSION,
        });
    }
    let found_schema = u32::from_le_bytes(bytes[12..16].try_into().expect("4 bytes"));
    if found_schema != schema {
        return Err(StoreError::Schema {
            found: found_schema,
            expected: schema,
        });
    }
    let mut index = HashMap::new();
    let mut at = HEADER_LEN;
    while at < bytes.len() {
        let Some(record_len) = parse_record(&bytes[at..], &mut index) else {
            break;
        };
        at += record_len;
    }
    Ok((index, at))
}

/// Parses one record at the head of `bytes`, inserting it into
/// `index`; returns the record's total length, or `None` when the
/// bytes do not form a whole, digest-verified record.
fn parse_record(bytes: &[u8], index: &mut HashMap<Hash, Vec<u8>>) -> Option<usize> {
    if bytes.len() < RECORD_PREFIX_LEN || bytes[0] != RECORD_MARKER {
        return None;
    }
    let key = Hash(bytes[1..33].try_into().expect("32 bytes"));
    let len = u32::from_le_bytes(bytes[33..37].try_into().expect("4 bytes")) as usize;
    let total = RECORD_PREFIX_LEN + len + DIGEST_LEN;
    if bytes.len() < total {
        return None;
    }
    let payload = &bytes[RECORD_PREFIX_LEN..RECORD_PREFIX_LEN + len];
    let digest = &bytes[RECORD_PREFIX_LEN + len..total];
    if digest != record_digest(&key, payload) {
        return None;
    }
    index.insert(key, payload.to_vec());
    Some(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::sha256;

    fn temp_store(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("tia-store-test");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join(name);
        let _ = std::fs::remove_file(&path);
        path
    }

    #[test]
    fn put_get_persist_roundtrip() {
        let path = temp_store("roundtrip.store");
        let store = Store::open(&path, 3).expect("open");
        let k1 = sha256(b"one");
        let k2 = sha256(b"two");
        store.put(k1, b"payload one").expect("put");
        store.put(k2, b"payload two").expect("put");
        assert_eq!(store.get(&k1).as_deref(), Some(b"payload one".as_ref()));
        drop(store);

        let back = Store::open(&path, 3).expect("reopen");
        assert_eq!(back.len(), 2);
        assert_eq!(back.dropped_tail_bytes(), 0);
        assert_eq!(back.get(&k2).as_deref(), Some(b"payload two".as_ref()));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn schema_mismatch_is_rejected() {
        let path = temp_store("schema.store");
        drop(Store::open(&path, 1).expect("open"));
        match Store::open(&path, 2) {
            Err(StoreError::Schema { found, expected }) => {
                assert_eq!((found, expected), (1, 2));
            }
            other => panic!("expected a schema error, got {other:?}"),
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn json_files_are_not_stores() {
        let path = temp_store("not_a_store.json");
        std::fs::write(&path, "{\"format_version\": 1}").expect("write");
        match Store::open(&path, 1) {
            Err(StoreError::NotAStore { .. }) => {}
            other => panic!("expected NotAStore, got {other:?}"),
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn last_write_wins_on_replay() {
        let path = temp_store("lastwins.store");
        let store = Store::open(&path, 1).expect("open");
        let k = sha256(b"key");
        store.put(k, b"old").expect("put");
        store.put(k, b"new").expect("put");
        drop(store);
        let back = Store::open(&path, 1).expect("reopen");
        assert_eq!(back.get(&k).as_deref(), Some(b"new".as_ref()));
        let _ = std::fs::remove_file(&path);
    }
}
