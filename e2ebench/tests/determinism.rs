//! The same seed gives byte-identical persisted files and request streams;
//! another seed gives different ones.

use pc_e2ebench::gen;
use pc_e2ebench::workload::Workload;
use pc_service::protocol::encode_request;
use pc_service::store::StoreConfig;
use probable_cause::persistence;

/// The persisted database and index bytes plus the encoded request stream.
fn inputs(workload: Workload, seed: u64) -> (Vec<u8>, Vec<u8>, Vec<u8>) {
    let mut shape = workload.shape();
    shape.chips = 300;
    shape.devices = shape.devices.min(40);
    shape.pool = 200;
    let db = gen::build_db(seed, shape.chips);
    let sc = StoreConfig::default();
    let index = db.build_index(sc.bands, sc.rows_per_band, sc.index_seed);
    let (mut db_bytes, mut index_bytes) = (Vec::new(), Vec::new());
    persistence::save_db(&db, &mut db_bytes).unwrap();
    persistence::save_index(&index, &mut index_bytes).unwrap();
    let mut stream = Vec::new();
    for (i, planned) in gen::plan_pool(seed, &shape.mix, shape.chips, shape.devices, shape.pool)
        .iter()
        .enumerate()
    {
        stream.extend(
            encode_request(i as u64, &planned.request)
                .to_compact()
                .bytes(),
        );
        stream.push(b'\n');
    }
    for errors in gen::seed_outputs(seed, shape.devices) {
        stream.extend(format!("{:?}\n", errors.positions()).bytes());
    }
    (db_bytes, index_bytes, stream)
}

#[test]
fn same_seed_gives_identical_inputs() {
    for workload in Workload::ALL {
        let a = inputs(workload, 7);
        assert_eq!(a, inputs(workload, 7), "{}: seed 7 twice", workload.name());
        let b = inputs(workload, 8);
        assert_ne!(a.0, b.0, "{}: database ignores the seed", workload.name());
        assert_ne!(a.2, b.2, "{}: requests ignore the seed", workload.name());
    }
}

#[test]
fn mixes_follow_their_shares() {
    for workload in Workload::ALL {
        let shape = workload.shape();
        let pool = gen::plan_pool(3, &shape.mix, 1_000, shape.devices, 4_000);
        let mut counts = [0usize; 3];
        for p in &pool {
            counts[pc_e2ebench::load::op_index(&p.request)] += 1;
        }
        let share = |n: usize| n as f64 / pool.len() as f64;
        let m = &shape.mix;
        for (got, want) in [
            (counts[0], m.identify),
            (counts[1], m.characterize),
            (counts[2], m.ingest),
        ] {
            assert!(
                (share(got) - want).abs() < 0.03,
                "{}: {counts:?}",
                workload.name()
            );
        }
    }
}
