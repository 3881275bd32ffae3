//! On-disk block format: a directory with a `meta` file and one file per
//! block, used by the `carousel-tool` CLI.
//!
//! ```text
//! mydata.enc/
//!   meta                    # key=value lines
//!   s00000_b003.blk         # stripe 0, block 3
//!   ...
//! ```
//!
//! The metadata records the code as a [`CodeSpec`] so the directory is
//! self-describing; [`AnyCode`] instantiates it. Both live in `access`
//! (the one file naming every code family) and are re-exported here. The
//! geometry the metadata records is *checked* against the code it names
//! before anything is sized by it — a `meta` file is outside input.

use std::collections::HashMap;
use std::fs;
use std::path::Path;

pub use access::{AnyCode, CodeSpec};
use gf256::crc32;

use crate::codec::{EncodedFile, FileCodec, FileMeta};
use crate::error::FileError;

fn block_file_name(stripe: usize, block: usize) -> String {
    format!("s{stripe:05}_b{block:03}.blk")
}

/// Writes an encoded file to `dir` (created if absent): `meta` plus one
/// `.blk` file per *present* block.
///
/// # Errors
///
/// Propagates filesystem failures.
pub fn save(dir: &Path, spec: CodeSpec, file: &EncodedFile<AnyCode>) -> Result<(), FileError> {
    fs::create_dir_all(dir)?;
    let meta = file.meta();
    let mut text = String::new();
    text.push_str("format=carousel-filestore-v1\n");
    text.push_str(&format!("code={spec}\n"));
    text.push_str(&format!("file_len={}\n", meta.file_len));
    text.push_str(&format!("block_bytes={}\n", meta.block_bytes));
    text.push_str(&format!("stripes={}\n", meta.stripes));
    text.push_str(&format!("stripe_data_bytes={}\n", meta.stripe_data_bytes));
    for s in 0..file.stripes() {
        for b in 0..meta.n {
            if let Some(bytes) = file.block(s, b) {
                fs::write(dir.join(block_file_name(s, b)), bytes)?;
                text.push_str(&format!("crc_{s}_{b}={:08x}\n", crc32(bytes)));
            }
        }
    }
    fs::write(dir.join("meta"), text)?;
    Ok(())
}

/// What a `meta` file yields once checked: the spec, a codec built from it,
/// the metadata, and the recorded per-block CRCs.
type Opened = (
    CodeSpec,
    FileCodec<AnyCode>,
    FileMeta,
    HashMap<(usize, usize), u32>,
);

/// Parses `meta`, builds the code it names and checks the recorded
/// geometry against that code, so nothing downstream divides by, indexes
/// with or allocates from an unchecked number.
fn open(dir: &Path) -> Result<Opened, FileError> {
    let text = fs::read_to_string(dir.join("meta"))?;
    let mut code = None;
    let mut file_len: Option<u64> = None;
    let mut block_bytes = None;
    let mut stripes: Option<usize> = None;
    let mut stripe_data_bytes: Option<usize> = None;
    let mut crcs = HashMap::new();
    for line in text.lines() {
        let Some((key, value)) = line.split_once('=') else {
            continue;
        };
        let (key, value) = (key.trim(), value.trim());
        match key {
            "code" => {
                code = Some(CodeSpec::parse(value).map_err(|_| FileError::BadMeta {
                    reason: format!("unparseable code spec: {value:?}"),
                })?)
            }
            "file_len" => file_len = value.parse().ok(),
            "block_bytes" => block_bytes = value.parse().ok(),
            "stripes" => stripes = value.parse().ok(),
            "stripe_data_bytes" => stripe_data_bytes = value.parse().ok(),
            _ => {
                if let Some(id) = parse_crc_key(key) {
                    if let Ok(crc) = u32::from_str_radix(value, 16) {
                        crcs.insert(id, crc);
                    }
                }
            }
        }
    }
    let missing = |what: &str| FileError::BadMeta {
        reason: format!("missing or invalid {what}"),
    };
    let spec = code.ok_or_else(|| missing("code"))?;
    let file_len = file_len.ok_or_else(|| missing("file_len"))?;
    let block_bytes = block_bytes.ok_or_else(|| missing("block_bytes"))?;
    let stripes = stripes.ok_or_else(|| missing("stripes"))?;

    let codec = FileCodec::new(spec.build()?, block_bytes)?;
    let sdb = codec.stripe_data_bytes();
    // Older directories predate this field; the codec's value is the only
    // one that was ever correct.
    if let Some(recorded) = stripe_data_bytes.filter(|&r| r != sdb) {
        return Err(FileError::BadMeta {
            reason: format!(
                "stripe_data_bytes={recorded}, but {spec} with block_bytes={block_bytes} \
                 carries {sdb} per stripe"
            ),
        });
    }
    codec
        .geometry()
        .check_file(file_len, stripes)
        .map_err(|e| FileError::BadMeta {
            reason: e.to_string(),
        })?;
    let meta = codec.meta_for(file_len);
    Ok((spec, codec, meta, crcs))
}

/// `crc_<stripe>_<block>` → `(stripe, block)`.
fn parse_crc_key(key: &str) -> Option<(usize, usize)> {
    let (s, b) = key.strip_prefix("crc_")?.split_once('_')?;
    Some((s.parse().ok()?, b.parse().ok()?))
}

/// Reads the metadata of an encoded directory.
///
/// # Errors
///
/// Returns [`FileError::BadMeta`] on malformed metadata or a recorded
/// geometry (`file_len`, `stripes`, `stripe_data_bytes`) that does not fit
/// the recorded code, and I/O errors on filesystem failures.
pub fn read_meta(dir: &Path) -> Result<(CodeSpec, FileMeta), FileError> {
    let (spec, _, meta, _) = open(dir)?;
    Ok((spec, meta))
}

/// Loads an encoded directory: missing `.blk` files become missing blocks,
/// and blocks whose CRC-32 disagrees with the metadata are *quarantined*
/// (treated as missing, so the erasure code can recover them).
///
/// # Errors
///
/// Propagates metadata and filesystem failures; individual absent or
/// corrupt block files are *not* errors (that is the point of erasure
/// coding).
pub fn load(dir: &Path) -> Result<EncodedFile<AnyCode>, FileError> {
    let (_, codec, meta, crcs) = open(dir)?;
    let mut file = EncodedFile::empty(codec, meta.clone());
    for s in 0..meta.stripes {
        for b in 0..meta.n {
            let path = dir.join(block_file_name(s, b));
            if path.exists() {
                let bytes = fs::read(&path)?;
                if bytes.len() != meta.block_bytes {
                    return Err(FileError::BadMeta {
                        reason: format!(
                            "block file {} has {} bytes, expected {}",
                            path.display(),
                            bytes.len(),
                            meta.block_bytes
                        ),
                    });
                }
                // Quarantine blocks failing their recorded checksum.
                if let Some(&expect) = crcs.get(&(s, b)) {
                    if crc32(&bytes) != expect {
                        continue;
                    }
                }
                file.set_block(s, b, bytes);
            }
        }
    }
    Ok(file)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn save_load_round_trip() {
        let dir = std::env::temp_dir().join(format!("filestore-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let spec = CodeSpec::Carousel {
            n: 6,
            k: 3,
            d: 3,
            p: 6,
        };
        let codec = FileCodec::new(spec.build().unwrap(), 120).unwrap();
        let data: Vec<u8> = (0..777).map(|i| (i * 31 + 1) as u8).collect();
        let enc = codec.encode(&data).unwrap();
        save(&dir, spec, &enc).unwrap();

        // Delete two block files of stripe 0: still loads and decodes.
        fs::remove_file(dir.join(block_file_name(0, 1))).unwrap();
        fs::remove_file(dir.join(block_file_name(0, 4))).unwrap();
        let loaded = load(&dir).unwrap();
        assert_eq!(loaded.live_blocks(0).len(), 4);
        assert_eq!(loaded.decode().unwrap(), data);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_blocks_are_quarantined_and_recovered() {
        let dir = std::env::temp_dir().join(format!("filestore-corrupt-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let spec = CodeSpec::Rs { n: 5, k: 3 };
        let codec = FileCodec::new(spec.build().unwrap(), 90).unwrap();
        let data: Vec<u8> = (0..500).map(|i| (i * 13 + 5) as u8).collect();
        let enc = codec.encode(&data).unwrap();
        save(&dir, spec, &enc).unwrap();

        // Flip one byte inside a block file: bit rot.
        let victim = dir.join(block_file_name(0, 1));
        let mut bytes = fs::read(&victim).unwrap();
        bytes[7] ^= 0xFF;
        fs::write(&victim, bytes).unwrap();

        let loaded = load(&dir).unwrap();
        assert!(
            !loaded.live_blocks(0).contains(&1),
            "corrupt block must be quarantined"
        );
        assert_eq!(loaded.decode().unwrap(), data, "code recovers the damage");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn meta_errors_are_descriptive() {
        let dir = std::env::temp_dir().join(format!("filestore-badmeta-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("meta"), "format=x\ncode=rs(4,2)\nblock_bytes=64\n").unwrap();
        match read_meta(&dir) {
            Err(FileError::BadMeta { reason }) => assert!(reason.contains("file_len")),
            other => panic!("expected BadMeta, got {other:?}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// A `meta` whose recorded geometry does not fit its own code is
    /// refused by name, before anything divides by it or allocates from it.
    #[test]
    fn inconsistent_geometry_is_refused() {
        let dir = std::env::temp_dir().join(format!("filestore-tamper-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let spec = CodeSpec::Rs { n: 6, k: 4 };
        let codec = FileCodec::new(spec.build().unwrap(), 256).unwrap();
        let data: Vec<u8> = (0..5000).map(|i| (i * 7 + 1) as u8).collect();
        save(&dir, spec, &codec.encode(&data).unwrap()).unwrap();
        let good = fs::read_to_string(dir.join("meta")).unwrap();
        assert_eq!(
            load(&dir).unwrap().read_range(4000, 10).unwrap(),
            &data[4000..4010]
        );

        for (field, from, to) in [
            (
                "stripe_data_bytes",
                "stripe_data_bytes=1024",
                "stripe_data_bytes=0",
            ),
            (
                "stripe_data_bytes",
                "stripe_data_bytes=1024",
                "stripe_data_bytes=7",
            ),
            ("file_len", "file_len=5000", "file_len=999999"),
            ("file_len", "file_len=5000", "file_len=0"),
            ("stripes", "stripes=5", "stripes=99999999999"),
            ("code", "code=rs(6,4)", "code=rs(6;4)"),
        ] {
            assert!(good.contains(from), "fixture has {from}");
            fs::write(dir.join("meta"), good.replace(from, to)).unwrap();
            for result in [read_meta(&dir).map(drop), load(&dir).map(drop)] {
                match result {
                    Err(FileError::BadMeta { reason }) => {
                        assert!(reason.contains(field), "{to}: {reason}")
                    }
                    other => panic!("{to}: expected BadMeta, got {other:?}"),
                }
            }
        }
        // Directories older than the stripe_data_bytes field still load.
        fs::write(
            dir.join("meta"),
            good.replace("stripe_data_bytes=1024\n", ""),
        )
        .unwrap();
        assert_eq!(load(&dir).unwrap().decode().unwrap(), data);
        let _ = fs::remove_dir_all(&dir);
    }
}
