//! The one on-disk block file: payload, per-chunk checksums, footer.
//!
//! Both byte-moving stacks keep a stored block in this format — a
//! datanode's `cluster::BlockStore` and the `filestore::format` directory
//! of the CLI — so the layout, the atomic write and the
//! verify-or-quarantine rule live here and nowhere else.
//!
//! ```text
//! offset        size   field
//! 0             len    payload
//! len           4·c    CRC-32 (IEEE) of each CHUNK-byte piece of the payload,
//!                      little-endian, c = ceil(len / CHUNK)
//! len + 4·c     4      magic "CRBF"
//! +4            1      version (1)
//! +5            8      payload length `len`, little-endian
//! +13           4      block digest: CRC-32 of the 4·c checksum bytes
//! ```
//!
//! A read verifies exactly the bytes it returns: [`read`] and [`stat`]
//! check every chunk, [`read_units`] only the chunks covering the units
//! asked for (one seek + read per contiguous run of units), and all three
//! first check the footer and hold the chunk checksums to the digest. A
//! file that fails any check — bad magic, a length that does not fit the
//! file, a digest or chunk mismatch — is *quarantined*: reported absent,
//! exactly like a file that is not there, so the erasure code repairs what
//! bit rot damaged. The one exception is a good magic with another version byte:
//! that is a format this build does not read, and an error says so
//! rather than letting a repair overwrite the block.

use std::fs::{self, File};
use std::io::{self, ErrorKind, Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

use gf256::crc32;

/// Payload bytes covered by one checksum.
pub const CHUNK: usize = 4096;
/// Trailing magic identifying a block file.
pub const MAGIC: [u8; 4] = *b"CRBF";
/// The format version this build writes and reads.
pub const VERSION: u8 = 1;
/// Footer size: magic, version, payload length, digest.
pub const FOOTER_BYTES: usize = 4 + 1 + 8 + 4;

static TEMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Stores `payload` at `path`, replacing any previous version. The bytes
/// go to a temporary file that is fsynced and then renamed into place, so
/// a crash leaves either the old block or the new one. Every write uses
/// its own temporary name: concurrent writers of one path each rename a
/// complete file, and the last rename wins.
///
/// # Errors
///
/// Propagates filesystem failures.
pub fn write(path: &Path, payload: &[u8]) -> io::Result<()> {
    let mut trailer = Vec::with_capacity(payload.len().div_ceil(CHUNK) * 4 + FOOTER_BYTES);
    for chunk in payload.chunks(CHUNK) {
        trailer.extend_from_slice(&crc32(chunk).to_le_bytes());
    }
    let digest = crc32(&trailer);
    trailer.extend_from_slice(&MAGIC);
    trailer.push(VERSION);
    trailer.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    trailer.extend_from_slice(&digest.to_le_bytes());

    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(
        ".{}.{}.tmp",
        std::process::id(),
        TEMP_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let tmp = Path::new(&tmp);
    let written = (|| {
        let mut f = File::create(tmp)?;
        f.write_all(payload)?;
        f.write_all(&trailer)?;
        f.sync_all()?;
        fs::rename(tmp, path)
    })();
    if written.is_err() {
        let _ = fs::remove_file(tmp);
    }
    written
}

/// An open block file whose trailer has checked out: footer against the
/// file's size, chunk checksums against the digest.
struct Checked {
    file: File,
    len: usize,
    crcs: Vec<u8>,
    digest: u32,
}

/// Opens `path` and checks its trailer. `None` when the file is absent
/// *or* quarantined.
fn open(path: &Path) -> io::Result<Option<Checked>> {
    let mut file = match File::open(path) {
        Ok(file) => file,
        Err(e) if e.kind() == ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    let size = file.metadata()?.len();
    if size < FOOTER_BYTES as u64 {
        return Ok(None);
    }
    let mut footer = [0u8; FOOTER_BYTES];
    file.seek(SeekFrom::Start(size - FOOTER_BYTES as u64))?;
    file.read_exact(&mut footer)?;
    if footer[..4] != MAGIC {
        return Ok(None);
    }
    if footer[4] != VERSION {
        return Err(io::Error::new(
            ErrorKind::InvalidData,
            format!(
                "block file is format version {}, this build reads version {VERSION}",
                footer[4]
            ),
        ));
    }
    let len = u64::from_le_bytes(footer[5..13].try_into().expect("8 bytes"));
    let digest = u32::from_le_bytes(footer[13..].try_into().expect("4 bytes"));
    let crc_bytes = len.div_ceil(CHUNK as u64) * 4;
    if len.checked_add(crc_bytes + FOOTER_BYTES as u64) != Some(size) {
        return Ok(None);
    }
    let mut crcs = vec![0u8; crc_bytes as usize];
    file.seek(SeekFrom::Start(len))?;
    file.read_exact(&mut crcs)?;
    Ok((crc32(&crcs) == digest).then_some(Checked {
        file,
        len: len as usize,
        crcs,
        digest,
    }))
}

/// [`read_units`], with the block digest. Per contiguous run of units:
/// one seek, one read of the run rounded out to chunk boundaries straight
/// into the output, a check of those chunks, and the rounding trimmed off.
fn read_checked(path: &Path, sub: usize, units: &[usize]) -> io::Result<Option<(Vec<u8>, u32)>> {
    let Some(mut block) = open(path)? else {
        return Ok(None);
    };
    let len = block.len;
    if sub == 0 || !len.is_multiple_of(sub) || units.iter().any(|&u| u >= sub) {
        return Err(io::Error::new(
            ErrorKind::InvalidInput,
            format!("block of {len} bytes has no units {units:?} of sub={sub}"),
        ));
    }
    let w = len / sub;
    let mut out = Vec::with_capacity(units.len() * w + 2 * CHUNK);
    for run in units.chunk_by(|a, b| *b == a + 1) {
        let (start, end) = (run[0] * w, (run[run.len() - 1] + 1) * w);
        let from = start / CHUNK * CHUNK;
        let to = end.next_multiple_of(CHUNK).min(len);
        let base = out.len();
        block.file.seek(SeekFrom::Start(from as u64))?;
        // Appends into spare capacity: no zero-fill of bytes about to be read.
        let mut covering = (&mut block.file).take((to - from) as u64);
        let whole = covering.read_to_end(&mut out)? == to - from;
        let crcs = block.crcs[from / CHUNK * 4..].chunks_exact(4);
        let mut chunks = out[base..].chunks(CHUNK).zip(crcs);
        if !whole || !chunks.all(|(chunk, crc)| crc32(chunk).to_le_bytes() == crc) {
            return Ok(None);
        }
        out.truncate(base + end - from);
        out.drain(base..base + start - from);
    }
    Ok(Some((out, block.digest)))
}

/// Reads a block's payload, verifying every chunk. `None` when the file
/// is absent *or* quarantined.
///
/// # Errors
///
/// Filesystem failures other than absence, and
/// [`ErrorKind::InvalidData`] naming both versions for a block file of
/// another format version.
pub fn read(path: &Path) -> io::Result<Option<Vec<u8>>> {
    Ok(read_checked(path, 1, &[0])?.map(|(payload, _)| payload))
}

/// Reports a block as `(payload length, digest)` after verifying every
/// chunk, so a block that stats is a block that reads. `None` when the
/// file is absent *or* quarantined.
///
/// # Errors
///
/// As for [`read`].
pub fn stat(path: &Path) -> io::Result<Option<(u64, u32)>> {
    Ok(read_checked(path, 1, &[0])?.map(|(payload, digest)| (payload.len() as u64, digest)))
}

/// Reads selected units of a block split into `sub` equal units,
/// concatenated in request order, touching and verifying only the chunks
/// that cover them. `None` when the file is absent *or* the trailer or a
/// chunk it had to check fails.
///
/// # Errors
///
/// As for [`read`], plus [`ErrorKind::InvalidInput`] when the payload
/// does not divide into `sub` units or a unit index is not below `sub`.
pub fn read_units(path: &Path, sub: usize, units: &[usize]) -> io::Result<Option<Vec<u8>>> {
    Ok(read_checked(path, sub, units)?.map(|(bytes, _)| bytes))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("blockfile-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn write_read_stat_units_round_trip() {
        let dir = temp_dir("roundtrip");
        let path = dir.join("a.blk");
        assert!(read(&path).unwrap().is_none());
        assert!(read_units(&path, 2, &[0]).unwrap().is_none());
        let payload: Vec<u8> = (0..3 * CHUNK + 18).map(|i| (i * 7 + 3) as u8).collect();
        write(&path, &payload).unwrap();
        assert_eq!(read(&path).unwrap().unwrap(), payload);
        let (len, digest) = stat(&path).unwrap().unwrap();
        assert_eq!(len, payload.len() as u64);
        // The digest is the CRC of the chunk CRCs, not of the payload.
        let crcs: Vec<u8> = payload
            .chunks(CHUNK)
            .flat_map(|c| crc32(c).to_le_bytes())
            .collect();
        assert_eq!(digest, crc32(&crcs));
        let w = payload.len() / 6;
        let got = read_units(&path, 6, &[4, 5, 1]).unwrap().unwrap();
        assert_eq!(&got[..2 * w], &payload[4 * w..]);
        assert_eq!(&got[2 * w..], &payload[w..2 * w]);
        // Geometry the payload does not have is an error, not a panic.
        for (sub, units) in [(0, vec![]), (5, vec![0]), (6, vec![6])] {
            let e = read_units(&path, sub, &units).unwrap_err();
            assert_eq!(e.kind(), ErrorKind::InvalidInput, "{e}");
        }
        // Overwrite wins, and no temporary file is left behind.
        write(&path, b"v2").unwrap();
        assert_eq!(read(&path).unwrap().unwrap(), b"v2");
        assert_eq!(fs::read_dir(&dir).unwrap().count(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn unknown_version_is_an_error_naming_both() {
        let dir = temp_dir("version");
        let path = dir.join("a.blk");
        write(&path, &[9u8; 100]).unwrap();
        let mut bytes = fs::read(&path).unwrap();
        let version_at = bytes.len() - FOOTER_BYTES + 4;
        bytes[version_at] = 2;
        fs::write(&path, &bytes).unwrap();
        for result in [
            read(&path).map(drop),
            stat(&path).map(drop),
            read_units(&path, 1, &[0]).map(drop),
        ] {
            let e = result.unwrap_err();
            assert_eq!(e.kind(), ErrorKind::InvalidData);
            let text = e.to_string();
            assert!(
                text.contains("version 2") && text.contains("version 1"),
                "{text}"
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// Writers of one path used to share `<name>.tmp`, truncating each
    /// other's temporary file and writing on into the inode a rename had
    /// already made live.
    #[test]
    fn concurrent_writers_of_one_path_never_tear_it() {
        let dir = temp_dir("race");
        let path = dir.join("hot.blk");
        let payloads: Vec<Vec<u8>> = (0..4u8).map(|t| vec![t + 1; 1 << 20]).collect();
        for _ in 0..50 {
            let results = crate::parallel::ParallelCtx::builder()
                .threads(payloads.len())
                .build()
                .run(payloads.len(), |t| write(&path, &payloads[t]));
            for r in results {
                r.expect("every concurrent write succeeds");
            }
            let got = read(&path).unwrap().expect("the block is never torn");
            assert!(payloads.contains(&got), "exactly one writer's payload");
        }
        assert_eq!(fs::read_dir(&dir).unwrap().count(), 1, "no temp leaked");
        let _ = fs::remove_dir_all(&dir);
    }
}
