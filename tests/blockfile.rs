//! The one on-disk block file (`access::blockfile`) against a model: the
//! source bytes and an independent statement of which chunks a read covers.
//!
//! Both stores sit on this module — a datanode's `BlockStore` and the
//! `filestore::format` directory — so these are the properties both rely
//! on: a read returns the source's bytes or nothing; a damaged byte fails
//! exactly the reads that had to look at its chunk; and no damage to the
//! file, however shaped, panics or yields other bytes.

use std::io::ErrorKind;
use std::path::PathBuf;

use access::blockfile::{self, CHUNK, FOOTER_BYTES};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Payload lengths around every boundary the layout has.
const LENGTHS: [usize; 6] = [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 17];

fn temp_file(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("blockfile-prop-{tag}-{}.blk", std::process::id()))
}

fn payload(len: usize, seed: u64) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len).map(|_| rng.gen()).collect()
}

/// Every `sub` a block of `len` bytes divides into (an empty block
/// divides into anything; two widths stand for all).
fn subs(len: usize) -> Vec<usize> {
    match len {
        0 => vec![1, 3],
        _ => (1..=len).filter(|&s| len.is_multiple_of(s)).collect(),
    }
}

/// A random selection of units: any order, repeats allowed, runs likely.
fn unit_subset(rng: &mut StdRng, sub: usize) -> Vec<usize> {
    let mut units = Vec::new();
    for _ in 0..rng.gen_range(0..=sub.min(6)) {
        let start = rng.gen_range(0..sub);
        let run = rng.gen_range(1..=3usize).min(sub - start);
        units.extend(start..start + run);
    }
    units
}

fn slices(source: &[u8], sub: usize, units: &[usize]) -> Vec<u8> {
    let w = source.len() / sub;
    units
        .iter()
        .flat_map(|&u| &source[u * w..(u + 1) * w])
        .copied()
        .collect()
}

/// Whether reading `units` has to look at the chunk holding byte `pos`.
fn covers(len: usize, sub: usize, units: &[usize], pos: usize) -> bool {
    let w = len / sub;
    units
        .iter()
        .any(|&u| w > 0 && (u * w / CHUNK..=((u + 1) * w - 1) / CHUNK).contains(&(pos / CHUNK)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn reads_equal_the_source_and_fail_exactly_where_damage_is_covered(seed in any::<u64>()) {
        let path = temp_file("units");
        let mut rng = StdRng::seed_from_u64(seed);
        for len in LENGTHS {
            let source = payload(len, seed ^ len as u64);
            blockfile::write(&path, &source).unwrap();
            let stored = std::fs::read(&path).unwrap();
            prop_assert_eq!(stored.len(), len + len.div_ceil(CHUNK) * 4 + FOOTER_BYTES);
            prop_assert_eq!(blockfile::read(&path).unwrap().as_ref(), Some(&source));
            let stat = blockfile::stat(&path).unwrap().expect("intact block stats");
            prop_assert_eq!(stat.0, len as u64);

            // One flipped byte: anywhere in the payload, or in a chunk CRC.
            let trailer_at = stored.len() - FOOTER_BYTES;
            let flip_at = (trailer_at > 0).then(|| rng.gen_range(0..trailer_at));
            let mut damaged = stored.clone();
            if let Some(at) = flip_at {
                damaged[at] ^= 1u8 << rng.gen_range(0..8u32);
            }

            for sub in subs(len) {
                let units = unit_subset(&mut rng, sub);
                std::fs::write(&path, &stored).unwrap();
                let got = blockfile::read_units(&path, sub, &units).unwrap();
                prop_assert_eq!(got, Some(slices(&source, sub, &units)), "len {} sub {}", len, sub);

                let Some(at) = flip_at else { continue };
                std::fs::write(&path, &damaged).unwrap();
                let got = blockfile::read_units(&path, sub, &units).unwrap();
                // A damaged CRC table breaks the digest, which every read checks.
                let must_fail = at >= len || covers(len, sub, &units, at);
                let expect = (!must_fail).then(|| slices(&source, sub, &units));
                prop_assert_eq!(got, expect, "len {} sub {} flip at {}", len, sub, at);
            }
            if flip_at.is_some() {
                std::fs::write(&path, &damaged).unwrap();
                prop_assert_eq!(blockfile::read(&path).unwrap(), None);
                prop_assert_eq!(blockfile::stat(&path).unwrap(), None);
            }
        }
        let _ = std::fs::remove_file(&path);
    }
}

/// A damaged file under all three reads: each answers "absent" or — only
/// where `version_error_ok` — the named version error, never a block.
fn assert_quarantined(path: &std::path::Path, sub: usize, version_error_ok: bool, what: &str) {
    let reads = [
        blockfile::read(path).map(|r| r.is_some()),
        blockfile::read_units(path, sub, &[0]).map(|r| r.is_some()),
        blockfile::stat(path).map(|r| r.is_some()),
    ];
    for got in reads {
        match got {
            Ok(served) => assert!(!served, "{what} was served"),
            Err(e) => {
                assert!(version_error_ok, "{what}: {e}");
                assert_eq!(e.kind(), ErrorKind::InvalidData, "{what}: {e}");
                assert!(e.to_string().contains("this build reads version 1"), "{e}");
            }
        }
    }
}

#[test]
fn truncation_and_footer_damage_never_panic_or_serve_bytes() {
    let path = temp_file("damage");
    for len in LENGTHS {
        let source = payload(len, 0xB10C ^ len as u64);
        let sub = subs(len)[0];
        blockfile::write(&path, &source).unwrap();
        let stored = std::fs::read(&path).unwrap();

        for cut in 0..stored.len() {
            std::fs::write(&path, &stored[..cut]).unwrap();
            assert_quarantined(&path, sub, false, &format!("len {len} cut at {cut}"));
        }

        let footer_at = stored.len() - FOOTER_BYTES;
        for at in footer_at..stored.len() {
            for bit in 0..8 {
                let mut damaged = stored.clone();
                damaged[at] ^= 1 << bit;
                std::fs::write(&path, &damaged).unwrap();
                // Only the version byte may answer with the version error.
                let what = format!("len {len} footer byte {} bit {bit}", at - footer_at);
                assert_quarantined(&path, sub, at == footer_at + 4, &what);
            }
        }
    }
    let _ = std::fs::remove_file(&path);
}
