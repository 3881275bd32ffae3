//! On-disk directory format: a `meta` file and one file per block, used
//! by the `carousel-tool` CLI.
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
//!
//! Each `.blk` is an [`access::blockfile`] — the chunk-checksummed file a
//! datanode stores too — so a block vouches for itself: `meta` carries no
//! checksums, and no edit of it can make a damaged block load.

use std::fs;
use std::path::Path;

use access::blockfile;
pub use access::{AnyCode, CodeSpec};

use crate::codec::{EncodedFile, FileCodec, FileMeta};
use crate::error::FileError;

/// The `format=` value [`save`] writes and [`load`] insists on.
const FORMAT: &str = "carousel-filestore-v2";

/// The name of stripe `stripe`'s block `block` inside an encoded directory.
pub fn block_file_name(stripe: usize, block: usize) -> String {
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
    for s in 0..file.stripes() {
        for b in 0..meta.n {
            if let Some(bytes) = file.block(s, b) {
                blockfile::write(&dir.join(block_file_name(s, b)), bytes)?;
            }
        }
    }
    let text = format!(
        "format={FORMAT}\ncode={spec}\nfile_len={}\nblock_bytes={}\nstripes={}\n\
         stripe_data_bytes={}\n",
        meta.file_len, meta.block_bytes, meta.stripes, meta.stripe_data_bytes
    );
    fs::write(dir.join("meta"), text)?;
    Ok(())
}

/// Parses `meta`, builds the code it names and checks the recorded
/// geometry against that code, so nothing downstream divides by, indexes
/// with or allocates from an unchecked number.
fn open(dir: &Path) -> Result<(CodeSpec, FileCodec<AnyCode>, FileMeta), FileError> {
    let text = fs::read_to_string(dir.join("meta"))?;
    // `key=value` lines; the last line of a key wins, unknown keys are ignored.
    let field = |key: &str| {
        let mut pairs = text.lines().rev().filter_map(|line| line.split_once('='));
        pairs.find_map(|(k, v)| (k.trim() == key).then_some(v.trim()))
    };
    let bad = |reason: String| FileError::BadMeta { reason };
    let number = |key: &str| {
        let parsed = field(key).and_then(|v| v.parse::<usize>().ok());
        parsed.ok_or_else(|| bad(format!("missing or invalid {key}")))
    };
    let format = field("format").unwrap_or("");
    if format != FORMAT {
        return Err(bad(format!("format={format}, this build reads {FORMAT}")));
    }
    let code = field("code").ok_or_else(|| bad("missing or invalid code".into()))?;
    let spec =
        CodeSpec::parse(code).map_err(|_| bad(format!("unparseable code spec: {code:?}")))?;
    let file_len = number("file_len")? as u64;
    let block_bytes = number("block_bytes")?;
    let stripes = number("stripes")?;
    let recorded = number("stripe_data_bytes")?;

    let codec = FileCodec::new(spec.build()?, block_bytes)?;
    let sdb = codec.stripe_data_bytes();
    if recorded != sdb {
        return Err(bad(format!(
            "stripe_data_bytes={recorded}, but {spec} with block_bytes={block_bytes} \
             carries {sdb} per stripe"
        )));
    }
    codec
        .geometry()
        .check_file(file_len, stripes)
        .map_err(|e| bad(e.to_string()))?;
    let meta = codec.meta_for(file_len);
    Ok((spec, codec, meta))
}

/// Reads the metadata of an encoded directory.
///
/// # Errors
///
/// Returns [`FileError::BadMeta`] on malformed metadata, a `format=` other
/// than this build's, or a recorded geometry (`file_len`, `stripes`,
/// `stripe_data_bytes`) that does not fit the recorded code, and I/O
/// errors on filesystem failures.
pub fn read_meta(dir: &Path) -> Result<(CodeSpec, FileMeta), FileError> {
    let (spec, _, meta) = open(dir)?;
    Ok((spec, meta))
}

/// Loads an encoded directory: missing `.blk` files become missing blocks,
/// and so do block files that fail their own checksums or are not block
/// files at all — *quarantined*, so the erasure code can recover them.
///
/// # Errors
///
/// Propagates metadata and filesystem failures; individual absent or
/// corrupt block files are *not* errors (that is the point of erasure
/// coding). A block file of another format version is one, as is an
/// intact block whose length is not the recorded `block_bytes`.
pub fn load(dir: &Path) -> Result<EncodedFile<AnyCode>, FileError> {
    let (_, codec, meta) = open(dir)?;
    let mut file = EncodedFile::empty(codec, meta.clone());
    for s in 0..meta.stripes {
        for b in 0..meta.n {
            let path = dir.join(block_file_name(s, b));
            let Some(bytes) = blockfile::read(&path)? else {
                continue;
            };
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
            file.set_block(s, b, bytes);
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
        fs::write(&victim, &bytes).unwrap();

        // The block vouches for itself, so it stays quarantined whatever
        // `meta` says — the v1 format trusted a `crc_0_1=` line there, and
        // loaded the block unchecked once that line was deleted.
        let good = fs::read_to_string(dir.join("meta")).unwrap();
        assert!(!good.contains("crc_"), "meta carries no checksums");
        let forged = format!(
            "{good}crc_0_1={:08x}\n",
            crate::checksum::crc32(&bytes[..90])
        );
        for meta in [&good, &forged] {
            fs::write(dir.join("meta"), meta).unwrap();
            let loaded = load(&dir).unwrap();
            assert!(
                !loaded.live_blocks(0).contains(&1),
                "corrupt block must be quarantined"
            );
            assert_eq!(loaded.decode().unwrap(), data, "code recovers the damage");
        }

        // So does a v1 block file (bare payload, its CRC in `meta`) and a
        // truncated one; repairing and saving rewrites them.
        fs::write(dir.join(block_file_name(1, 0)), enc.block(1, 0).unwrap()).unwrap();
        fs::write(dir.join(block_file_name(1, 4)), &bytes[..40]).unwrap();
        let mut loaded = load(&dir).unwrap();
        assert_eq!(loaded.live_blocks(1), vec![1, 2, 3]);
        for (s, b) in [(0, 1), (1, 0), (1, 4)] {
            loaded.repair_block(s, b).unwrap();
        }
        save(&dir, spec, &loaded).unwrap();
        let healed = load(&dir).unwrap();
        assert!((0..healed.stripes()).all(|s| healed.live_blocks(s).len() == 5));
        assert_eq!(healed.decode().unwrap(), data);

        // A block file from a later format is refused, not repaired over.
        let mut bytes = fs::read(&victim).unwrap();
        let version_at = bytes.len() - blockfile::FOOTER_BYTES + 4;
        bytes[version_at] += 1;
        fs::write(&victim, bytes).unwrap();
        match load(&dir).map(drop) {
            Err(FileError::Io(e)) => assert!(e.to_string().contains("version 2"), "{e}"),
            other => panic!("expected a version error, got {other:?}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn meta_errors_are_descriptive() {
        let dir = std::env::temp_dir().join(format!("filestore-badmeta-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let v2 = format!("format={FORMAT}\ncode=rs(4,2)\nblock_bytes=64\n");
        for (meta, names) in [
            (v2.as_str(), "file_len"),
            // Any other format, the v1 this format replaced included, is
            // refused by the value found; so is no format line at all.
            ("format=x\ncode=rs(4,2)\n", "format=x"),
            ("format=carousel-filestore-v1\n", "carousel-filestore-v1"),
            ("code=rs(4,2)\nblock_bytes=64\n", "format="),
        ] {
            fs::write(dir.join("meta"), meta).unwrap();
            match read_meta(&dir) {
                Err(FileError::BadMeta { reason }) => assert!(reason.contains(names), "{reason}"),
                other => panic!("expected BadMeta, got {other:?}"),
            }
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
            ("stripe_data_bytes", "stripe_data_bytes=1024\n", ""),
            ("carousel-filestore-v1", FORMAT, "carousel-filestore-v1"),
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
        fs::write(dir.join("meta"), good).unwrap();
        assert_eq!(load(&dir).unwrap().decode().unwrap(), data);
        let _ = fs::remove_dir_all(&dir);
    }
}
