//! Streaming-generator determinism: the iterator row sources must yield
//! exactly the rows the monolithic generators materialize.

use anoncmp_datagen::{
    generate, generate_hospital, CensusConfig, CensusRows, HospitalConfig, HospitalRows,
};
use anoncmp_microdata::prelude::*;

#[test]
fn census_stream_matches_monolithic_generation() {
    for (rows, seed, zip_pool) in [(0, 5, 20), (1, 5, 20), (257, 11, 10), (500, 42, 40)] {
        let cfg = CensusConfig {
            rows,
            seed,
            zip_pool,
        };
        let ds = generate(&cfg);
        let streamed: Vec<Vec<Value>> = CensusRows::new(&cfg).collect();
        assert_eq!(streamed.len(), ds.len(), "rows={rows} seed={seed}");
        for (t, row) in streamed.iter().enumerate() {
            assert_eq!(row.as_slice(), ds.row(t), "row {t} (seed {seed})");
        }
    }
}

#[test]
fn hospital_stream_matches_monolithic_generation() {
    for (rows, seed) in [(0, 7), (1, 7), (300, 5), (401, 13)] {
        let cfg = HospitalConfig { rows, seed };
        let ds = generate_hospital(&cfg);
        let streamed: Vec<Vec<Value>> = HospitalRows::new(&cfg).collect();
        assert_eq!(streamed.len(), ds.len(), "rows={rows} seed={seed}");
        for (t, row) in streamed.iter().enumerate() {
            assert_eq!(row.as_slice(), ds.row(t), "row {t} (seed {seed})");
        }
    }
}

#[test]
fn restarted_streams_are_identical() {
    let cfg = CensusConfig {
        rows: 100,
        seed: 9,
        zip_pool: 20,
    };
    let a: Vec<Vec<Value>> = CensusRows::new(&cfg).collect();
    let b: Vec<Vec<Value>> = CensusRows::new(&cfg).collect();
    assert_eq!(a, b, "the row factory must be deterministic");
}
