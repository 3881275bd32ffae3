//! Per-datanode persistent block storage.
//!
//! One directory per datanode; one file per stored block, named
//! `<file>.s<stripe>.b<block>.blk`, in the chunk-checksummed format of
//! [`access::blockfile`]. This type only validates ids and maps them to
//! paths: the layout, the atomic write, and the rule that a corrupt file
//! is *quarantined* — reported as missing so the erasure code repairs it —
//! are that module's, shared with the filestore directory format.

use std::fs;
use std::path::PathBuf;

use access::blockfile;

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

    fn path_for(&self, id: &BlockId) -> Result<PathBuf, ClusterError> {
        id.validate()?;
        Ok(self.root.join(format!(
            "{}.s{:05}.b{:03}.blk",
            id.file, id.stripe, id.block
        )))
    }

    /// Stores a block, overwriting any previous version, atomically: a
    /// crashed datanode never leaves a half-written block behind.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::Protocol`] for invalid ids and
    /// [`ClusterError::Io`] for filesystem failures.
    pub fn put(&self, id: &BlockId, data: &[u8]) -> Result<(), ClusterError> {
        Ok(blockfile::write(&self.path_for(id)?, data)?)
    }

    /// Fetches a block's bytes, every chunk verified. Returns `None` when
    /// the block is absent *or* quarantined.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::Protocol`] for invalid ids and
    /// [`ClusterError::Io`] for filesystem failures other than absence.
    pub fn get(&self, id: &BlockId) -> Result<Option<Vec<u8>>, ClusterError> {
        Ok(blockfile::read(&self.path_for(id)?)?)
    }

    /// Fetches the given units of a block of `sub` equal units, in request
    /// order, reading and verifying only the chunks that cover them.
    /// Returns `None` when the block is absent *or* one of those chunks
    /// fails.
    ///
    /// # Errors
    ///
    /// As for [`BlockStore::get`], plus [`ClusterError::Io`] when the block
    /// does not divide into `sub` units or a unit is not below `sub`.
    pub fn get_units(
        &self,
        id: &BlockId,
        sub: usize,
        units: &[usize],
    ) -> Result<Option<Vec<u8>>, ClusterError> {
        Ok(blockfile::read_units(&self.path_for(id)?, sub, units)?)
    }

    /// Reports a block's presence as `(length, digest)` — the block
    /// digest of its file (the CRC of its chunk CRCs), after one pass that
    /// verified every chunk. Quarantined blocks report as absent.
    ///
    /// # Errors
    ///
    /// Same as [`BlockStore::get`].
    pub fn stat(&self, id: &BlockId) -> Result<Option<(u32, u32)>, ClusterError> {
        Ok(blockfile::stat(&self.path_for(id)?)?.map(|(len, digest)| (len as u32, digest)))
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
        assert_eq!(
            store.get_units(&a, 11, &[10, 0, 1]).unwrap().unwrap(),
            b"khe"
        );
        let (len, _digest) = store.stat(&a).unwrap().unwrap();
        assert_eq!(len, 11);
        // Overwrite wins.
        store.put(&a, b"v2").unwrap();
        assert_eq!(store.get(&a).unwrap().unwrap(), b"v2");
        store.delete(&a).unwrap();
        assert!(store.get(&a).unwrap().is_none());
        store.delete(&a).unwrap(); // idempotent
        let _ = fs::remove_dir_all(&store.root);
    }

    #[test]
    fn corrupt_blocks_are_quarantined() {
        let store = temp_store("corrupt");
        let a = id("f", 1, 2);
        store.put(&a, &[7u8; 64]).unwrap();
        let path = store.root.join("f.s00001.b002.blk");
        let mut bytes = fs::read(&path).unwrap();
        bytes[10] ^= 0x40;
        fs::write(&path, bytes).unwrap();
        assert!(store.get(&a).unwrap().is_none(), "bit rot must quarantine");
        assert!(store.stat(&a).unwrap().is_none());
        assert!(store.get_units(&a, 4, &[0]).unwrap().is_none());
        let _ = fs::remove_dir_all(&store.root);
    }

    #[test]
    fn hostile_ids_rejected() {
        let store = temp_store("hostile");
        for name in ["../escape", "a/b", "", ".."] {
            let bad = id(name, 0, 0);
            assert!(store.put(&bad, b"x").is_err(), "{name:?}");
            assert!(store.get(&bad).is_err());
            assert!(store.get_units(&bad, 1, &[0]).is_err());
        }
        let _ = fs::remove_dir_all(&store.root);
    }
}
