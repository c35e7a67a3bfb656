//! Allocation discipline of a store checkpoint and of the open that reads
//! it back. `save_to_paths` streams the database and index images from the
//! live entries straight into their files, so a checkpoint's peak heap does
//! not grow with the store — no flat copy of the database, no in-memory
//! image. The database keeps each fingerprint once, packed, so a loaded
//! database holds under 4 bytes per stored error bit, where a second copy
//! of the positions would cost 8 more. The loaders stream the images back
//! line by line, so an open's peak heap is what the loaded database and
//! index keep, not that plus the file. The test runs alone in its own
//! binary so the process-wide gauge sees only the checkpoint and the open.

use pc_service::store::{ShardedStore, StoreConfig};
use probable_cause::persistence::{
    load_db_from_path, load_index_from_path, save_db_to_path, save_index_to_path,
};
use probable_cause::{ErrorString, Fingerprint, FingerprintDb, PcDistance};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// `System` with a gauge of live heap bytes and its high-water mark.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrank(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: pure pass-through to `System`; the gauge is the only addition
// and allocator correctness (layout fidelity, pointer validity) is exactly
// `System`'s.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: caller upholds `GlobalAlloc`'s contract; forwarded verbatim.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        // SAFETY: same layout the caller passed.
        unsafe { System.alloc(layout) }
    }
    // SAFETY: caller upholds `GlobalAlloc`'s contract; forwarded verbatim.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrank(layout.size());
        // SAFETY: `ptr` was returned by `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
    // SAFETY: caller upholds `GlobalAlloc`'s contract; forwarded verbatim.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        grew(new_size);
        shrank(layout.size());
        // SAFETY: `ptr` was returned by `System.alloc` with this layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GAUGE: Counting = Counting;

/// The most one checkpoint may add to the live heap, and the most an open
/// may hold at its peak beyond what it keeps.
const BUDGET: usize = 1 << 20;

/// Peak live heap above the starting level while `f` runs.
fn peak_growth<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let out = f();
    (out, PEAK.load(Ordering::Relaxed).saturating_sub(base))
}

/// Error bits per stored fingerprint.
const BITS: u64 = 328;

/// `chips` fingerprints of [`BITS`] error bits in a 32 768-bit page, one
/// bit per 99-bit stripe so every chip's bits ascend.
fn fleet(chips: u64) -> FingerprintDb<String, PcDistance> {
    let mut db = FingerprintDb::new(PcDistance::new(), 0.25);
    for chip in 0..chips {
        let bits = (0..BITS)
            .map(|i| i * 99 + (chip * 31 + i * i) % 99)
            .collect();
        let errors = ErrorString::from_sorted(bits, 32_768).unwrap();
        db.insert(
            format!("chip-{chip:05}"),
            Fingerprint::from_parts(errors, 3),
        );
    }
    db
}

#[test]
fn checkpoint_streams_without_copying_the_database() {
    let db = fleet(2_000);
    let config = StoreConfig::default();
    let index = db.build_index(config.bands, config.rows_per_band, config.index_seed);
    let store = ShardedStore::from_db_with_index(config, &db, index.clone()).unwrap();
    let dir = std::env::temp_dir().join(format!("pc-checkpoint-alloc-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let (db_path, index_path) = (dir.join("db.txt"), dir.join("index.txt"));
    let save = || {
        store
            .save_to_paths(Some(&db_path), Some(&index_path))
            .unwrap()
    };

    // The first checkpoint creates the files and their backups and lets any
    // lazily initialized process state settle; the second is measured.
    save();
    let (written, growth) = peak_growth(save);
    assert_eq!(written, 2_000);
    let image = std::fs::read(&db_path).unwrap();
    assert!(
        image.len() > BUDGET,
        "the fixture must outgrow the budget: {} bytes",
        image.len()
    );
    assert!(
        growth < BUDGET,
        "a checkpoint grew the heap by {growth} bytes"
    );

    // Byte-identical to the reference savers over a flat copy.
    let (ref_db, ref_index) = (dir.join("ref-db.txt"), dir.join("ref-index.txt"));
    save_db_to_path(&store.to_db(), &ref_db).unwrap();
    save_index_to_path(&index, &ref_index).unwrap();
    assert!(
        image == std::fs::read(&ref_db).unwrap(),
        "database images differ"
    );
    assert!(
        std::fs::read(&index_path).unwrap() == std::fs::read(&ref_index).unwrap(),
        "index images differ"
    );

    // The database alone keeps one packed copy of each fingerprint.
    let before = LIVE.load(Ordering::Relaxed);
    let loaded_db = load_db_from_path(&db_path).unwrap().value;
    let kept = LIVE.load(Ordering::Relaxed).saturating_sub(before);
    let stored_bits = loaded_db.len() * BITS as usize;
    assert_eq!(loaded_db.len(), 2_000);
    assert!(
        kept < 4 * stored_bits,
        "a loaded database keeps {kept} bytes for {stored_bits} error bits"
    );
    drop(loaded_db);

    // Opening the pair again holds no image beside what it builds.
    let before = LIVE.load(Ordering::Relaxed);
    let ((loaded_db, loaded_index), peak) = peak_growth(|| {
        (
            load_db_from_path(&db_path).unwrap().value,
            load_index_from_path(&index_path).unwrap().value,
        )
    });
    let kept = LIVE.load(Ordering::Relaxed).saturating_sub(before);
    assert_eq!((loaded_db.len(), loaded_index.len()), (2_000, 2_000));
    assert!(
        peak - kept < BUDGET,
        "an open peaked {} bytes above the {kept} it keeps",
        peak - kept
    );
    let _ = std::fs::remove_dir_all(&dir);
}
