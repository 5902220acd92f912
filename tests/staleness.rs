//! Staleness tripwire: the checked-in result files belong to the engine
//! that is built.
//!
//! [`ENTRIES`] is append-only. Each entry pins an [`ENGINE_VERSION`] and
//! the FNV-1a 64 of every `results/*.txt` file and of the benchmark's
//! class-W reference. The files on disk must hash to the last entry, and
//! that entry's version must be the engine's. A change that alters what
//! the engine prints must regenerate the files, bump `ENGINE_VERSION` and
//! append an entry; a change that regenerates nothing must leave every
//! hash as it was. The test only reads files and runs no engine.

use std::collections::BTreeMap;

use lpomp::core::store::{fnv1a64, FNV_OFFSET};
use lpomp::prof::ENGINE_VERSION;

struct Entry {
    engine_version: u32,
    /// `(path from the repository root, FNV-1a 64 of its bytes)`.
    files: &'static [(&'static str, u64)],
}

const ENTRIES: &[Entry] = &[Entry {
    engine_version: 8,
    files: &[
        ("perfbench/reference_W.txt", 0x1072_4d44_205e_5cad),
        ("results/ablation_prealloc_W.txt", 0x44b5_3e35_1d84_f043),
        ("results/ablation_pwc_W.txt", 0xa7d2_e988_22fe_b2c9),
        ("results/diag_S.txt", 0x359b_2efd_b88c_5a8d),
        ("results/diag_W.txt", 0xfb40_9123_8994_aad8),
        ("results/ext_arch_W.txt", 0xc7a5_fbc2_bb63_74e0),
        ("results/ext_frag_W.txt", 0x2077_06ed_aa53_6ac1),
        ("results/ext_mixed_W.txt", 0xba3d_dc4f_7ead_b123),
        ("results/ext_numa_W.txt", 0x5c5e_dfd7_d637_6f98),
        ("results/ext_reach.txt", 0x43e7_427d_94ac_a6da),
        ("results/ext_sched_W.txt", 0x1872_4016_bab0_2825),
        ("results/ext_tenant_W.txt", 0xa98c_f9d3_a663_2b35),
        ("results/ext_thp_W.txt", 0x9b61_92c0_3f2f_1f7d),
        ("results/fig3_W.txt", 0xda49_481f_c34c_a216),
        ("results/fig4_W.txt", 0xf4be_1d51_1ffa_3bff),
        ("results/fig5_W.txt", 0xe92c_9957_1dbf_01c1),
        ("results/profile_W.txt", 0x990e_791c_6a78_7595),
        ("results/table1.txt", 0xc6d3_8b6d_4ef2_a62c),
        ("results/table2.txt", 0xc189_a668_6e83_936d),
        ("results/xval_W.txt", 0xe95f_c264_0c61_a340),
    ],
}];

/// Path → hash of the pinned files as they are on disk.
fn on_disk() -> BTreeMap<String, u64> {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut paths = vec!["perfbench/reference_W.txt".to_string()];
    for entry in std::fs::read_dir(root.join("results")).expect("results/ is checked in") {
        let name = entry.expect("results/ entry").file_name();
        let name = name.to_str().expect("UTF-8 file name");
        if name.ends_with(".txt") {
            paths.push(format!("results/{name}"));
        }
    }
    paths
        .into_iter()
        .map(|p| {
            let bytes = std::fs::read(root.join(&p)).unwrap_or_else(|e| panic!("{p}: {e}"));
            (p, fnv1a64(FNV_OFFSET, &bytes))
        })
        .collect()
}

#[test]
fn entries_are_append_only_by_engine_version() {
    for pair in ENTRIES.windows(2) {
        assert!(
            pair[0].engine_version < pair[1].engine_version,
            "engine versions must strictly increase: {} then {}",
            pair[0].engine_version,
            pair[1].engine_version
        );
    }
    let last = ENTRIES.last().expect("at least one entry");
    assert_eq!(
        last.engine_version, ENGINE_VERSION,
        "ENGINE_VERSION changed: regenerate results/ and append an entry"
    );
}

#[test]
fn result_files_match_the_last_entry() {
    let last = ENTRIES.last().expect("at least one entry");
    let pinned: BTreeMap<String, u64> = last
        .files
        .iter()
        .map(|&(p, h)| (p.to_string(), h))
        .collect();
    let disk = on_disk();
    for (path, hash) in &disk {
        match pinned.get(path) {
            None => panic!("{path} is not pinned: append an entry that lists it"),
            Some(want) => assert_eq!(
                hash, want,
                "{path} changed (fnv1a64 {hash:#018x}): a new ENGINE_VERSION needs a new entry"
            ),
        }
    }
    for path in pinned.keys() {
        assert!(disk.contains_key(path), "{path} is pinned but missing");
    }
}
