//! Per-datanode persistent block storage.
//!
//! One directory per datanode; one file per stored block, named
//! `<file>.s<stripe>.b<block>.blk`, holding the block bytes followed by a
//! 4-byte CRC-32 trailer (`gf256::crc32`, the same IEEE CRC the filestore format records).
//! Reads verify the trailer and *quarantine* corrupt files — they are
//! reported as missing so the erasure code repairs them, mirroring the
//! filestore on-disk loader's behavior.

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use gf256::crc32;

use crate::error::ClusterError;
use crate::protocol::BlockId;

/// A datanode's on-disk block store.
#[derive(Debug)]
pub struct BlockStore {
    root: PathBuf,
}

impl BlockStore {
    /// Opens (creating if absent) a block store rooted at `root`.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn open(root: impl Into<PathBuf>) -> Result<Self, ClusterError> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        Ok(BlockStore { root })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn path_for(&self, id: &BlockId) -> Result<PathBuf, ClusterError> {
        id.validate()?;
        Ok(self.root.join(format!(
            "{}.s{:05}.b{:03}.blk",
            id.file, id.stripe, id.block
        )))
    }

    /// Stores a block, overwriting any previous version. The write goes to
    /// a temporary file first and is renamed into place, so a crashed
    /// datanode never leaves a half-written block behind.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::Protocol`] for invalid ids and
    /// [`ClusterError::Io`] for filesystem failures.
    pub fn put(&self, id: &BlockId, data: &[u8]) -> Result<(), ClusterError> {
        let path = self.path_for(id)?;
        let tmp = path.with_extension("tmp");
        {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(data)?;
            f.write_all(&crc32(data).to_le_bytes())?;
            f.sync_all()?;
        }
        fs::rename(&tmp, &path)?;
        Ok(())
    }

    /// Reads a block and verifies its CRC trailer, returning the bytes
    /// with the checksum that was just checked. `None` when the block is
    /// absent *or* fails the trailer (quarantined: the caller treats it as
    /// lost and lets the code recover it).
    fn read_verified(&self, id: &BlockId) -> Result<Option<(Vec<u8>, u32)>, ClusterError> {
        let path = self.path_for(id)?;
        let mut bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        if bytes.len() < 4 {
            return Ok(None);
        }
        let crc_pos = bytes.len() - 4;
        let stored = u32::from_le_bytes([
            bytes[crc_pos],
            bytes[crc_pos + 1],
            bytes[crc_pos + 2],
            bytes[crc_pos + 3],
        ]);
        bytes.truncate(crc_pos);
        if crc32(&bytes) != stored {
            return Ok(None);
        }
        Ok(Some((bytes, stored)))
    }

    /// Fetches a block's bytes. Returns `None` when the block is absent
    /// *or* quarantined.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::Protocol`] for invalid ids and
    /// [`ClusterError::Io`] for filesystem failures other than absence.
    pub fn get(&self, id: &BlockId) -> Result<Option<Vec<u8>>, ClusterError> {
        Ok(self.read_verified(id)?.map(|(bytes, _)| bytes))
    }

    /// Reports a block's presence as `(length, crc32)` — the trailer
    /// checksum the read has just verified, not a second hash of the
    /// block. Quarantined blocks report as absent.
    ///
    /// # Errors
    ///
    /// Same as [`BlockStore::get`].
    pub fn stat(&self, id: &BlockId) -> Result<Option<(u32, u32)>, ClusterError> {
        Ok(self
            .read_verified(id)?
            .map(|(bytes, crc)| (bytes.len() as u32, crc)))
    }

    /// Removes a block if present.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::Protocol`] for invalid ids and
    /// [`ClusterError::Io`] for filesystem failures other than absence.
    pub fn delete(&self, id: &BlockId) -> Result<(), ClusterError> {
        let path = self.path_for(id)?;
        match fs::remove_file(&path) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e.into()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_store(tag: &str) -> BlockStore {
        let dir = std::env::temp_dir().join(format!("cluster-store-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        BlockStore::open(dir).unwrap()
    }

    fn id(file: &str, stripe: u32, block: u32) -> BlockId {
        BlockId {
            file: file.into(),
            stripe,
            block,
        }
    }

    #[test]
    fn put_get_stat_delete_roundtrip() {
        let store = temp_store("roundtrip");
        let a = id("f.bin", 0, 3);
        assert!(store.get(&a).unwrap().is_none());
        store.put(&a, b"hello block").unwrap();
        assert_eq!(store.get(&a).unwrap().unwrap(), b"hello block");
        let (len, crc) = store.stat(&a).unwrap().unwrap();
        assert_eq!(len, 11);
        assert_eq!(crc, crc32(b"hello block"));
        // Overwrite wins.
        store.put(&a, b"v2").unwrap();
        assert_eq!(store.get(&a).unwrap().unwrap(), b"v2");
        store.delete(&a).unwrap();
        assert!(store.get(&a).unwrap().is_none());
        store.delete(&a).unwrap(); // idempotent
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn corrupt_blocks_are_quarantined() {
        let store = temp_store("corrupt");
        let a = id("f", 1, 2);
        store.put(&a, &[7u8; 64]).unwrap();
        let path = store.root().join("f.s00001.b002.blk");
        let mut bytes = fs::read(&path).unwrap();
        bytes[10] ^= 0x40;
        fs::write(&path, bytes).unwrap();
        assert!(store.get(&a).unwrap().is_none(), "bit rot must quarantine");
        assert!(store.stat(&a).unwrap().is_none());
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn hostile_ids_rejected() {
        let store = temp_store("hostile");
        for name in ["../escape", "a/b", "", ".."] {
            let bad = id(name, 0, 0);
            assert!(store.put(&bad, b"x").is_err(), "{name:?}");
            assert!(store.get(&bad).is_err());
        }
        let _ = fs::remove_dir_all(store.root());
    }
}
