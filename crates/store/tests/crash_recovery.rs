//! Crash-recovery behavior of the append-only log: a record torn by
//! a mid-append kill is dropped on the next open, every earlier
//! record survives, and the store keeps accepting appends afterwards.
//! Concurrent openers of one file never clobber each other's records.

use std::path::PathBuf;
use std::sync::Barrier;

use tia_store::{sha256, Store};

fn temp_store(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("tia-store-crash-test");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join(name);
    let _ = std::fs::remove_file(&path);
    path
}

#[test]
fn truncated_tail_record_is_dropped_and_earlier_records_survive() {
    let path = temp_store("torn.store");
    let store = Store::open(&path, 1).expect("open");
    let keys: Vec<_> = (0..4u8).map(|i| sha256(&[i])).collect();
    for (i, key) in keys.iter().enumerate() {
        let payload = format!("measurement record {i} with some body to truncate into");
        store.put(*key, payload.as_bytes()).expect("put");
    }
    drop(store);
    let full_len = std::fs::metadata(&path).expect("metadata").len();

    // Simulate a kill mid-append of the last record: chop bytes off
    // the tail so its digest (or frame) can no longer verify.
    for cut in [1u64, 7, 20] {
        let bytes = std::fs::read(&path).expect("read");
        std::fs::write(&path, &bytes[..bytes.len() - cut as usize]).expect("truncate");
        let recovered = Store::open(&path, 1).expect("recovering open");
        assert_eq!(recovered.len(), 3, "tail dropped, earlier records intact");
        assert!(recovered.dropped_tail_bytes() > 0);
        for key in &keys[..3] {
            assert!(recovered.contains(key), "early record lost");
        }
        assert!(!recovered.contains(&keys[3]), "torn record must not load");

        // The recovered store accepts appends and persists them.
        recovered
            .put(keys[3], b"rewritten after crash")
            .expect("put");
        drop(recovered);
        let back = Store::open(&path, 1).expect("reopen");
        assert_eq!(back.len(), 4);
        assert_eq!(
            back.get(&keys[3]).as_deref(),
            Some(b"rewritten after crash".as_ref())
        );
        assert_eq!(back.dropped_tail_bytes(), 0, "recovery truncated the file");
        drop(back);

        // Restore the pristine 4-record file for the next cut size.
        // Rebuild from scratch: the recovered file still holds the
        // crash-era record for keys[3], and re-putting over it would
        // leave two records whose relative order the next truncation
        // could flip.
        let _ = std::fs::remove_file(&path);
        let store = Store::open(&path, 1).expect("open");
        for (i, key) in keys.iter().enumerate() {
            let payload = format!("measurement record {i} with some body to truncate into");
            store.put(*key, payload.as_bytes()).expect("put");
        }
        drop(store);
    }

    // Garbage appended after valid records is likewise dropped.
    let mut bytes = std::fs::read(&path).expect("read");
    assert!(bytes.len() as u64 >= full_len, "sanity: log only grows");
    bytes.extend_from_slice(b"\xDE\xAD\xBE\xEF garbage tail");
    std::fs::write(&path, &bytes).expect("write");
    let recovered = Store::open(&path, 1).expect("recovering open");
    assert_eq!(recovered.len(), 4);
    assert!(recovered.dropped_tail_bytes() > 0);

    let _ = std::fs::remove_file(&path);
}

#[test]
fn empty_and_header_only_files_open_clean() {
    let path = temp_store("header.store");
    drop(Store::open(&path, 9).expect("create"));
    let back = Store::open(&path, 9).expect("reopen header-only");
    assert!(back.is_empty());
    assert_eq!(back.dropped_tail_bytes(), 0);
    let _ = std::fs::remove_file(&path);
}

/// Several processes may open one store at once, for example two
/// suites, or a suite and a `dse_export`, that share a file. Writing
/// the header of a fresh file and cutting a torn tail both rewrite the
/// file, so an opener that did either without the append lock could
/// write a second header or cut a live append, and every record after
/// that point would be dropped on the next open.
#[test]
fn concurrent_openers_lose_no_records() {
    const OPENERS: usize = 8;
    for round in 0..50 {
        let path = temp_store(&format!("race-{round}.store"));
        let barrier = Barrier::new(OPENERS);
        std::thread::scope(|s| {
            for t in 0..OPENERS {
                let (path, barrier) = (&path, &barrier);
                s.spawn(move || {
                    barrier.wait();
                    let store = Store::open(path, 1).expect("open");
                    let payload = format!("record {t} from a concurrent opener");
                    store
                        .put(sha256(&[t as u8]), payload.as_bytes())
                        .expect("put");
                });
            }
        });
        let back = Store::open(&path, 1).expect("reopen");
        assert_eq!(
            (back.len(), back.dropped_tail_bytes()),
            (OPENERS, 0),
            "round {round}: records lost to a concurrent open"
        );
        drop(back);
        let _ = std::fs::remove_file(&path);
    }
}
