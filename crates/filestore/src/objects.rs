//! [`LocalObjects`] — the in-memory [`access::ObjectBackend`] over
//! [`FileCodec`]: named striped files held as [`EncodedFile`]s, an extent
//! table and a pack cursor.
//!
//! That is all this module holds. What an *object* means on top of those
//! files — reserved names, duplicate puts, small-object packing and its
//! rollover rule, extent bounds, "packed objects cannot grow" — is the
//! one blanket [`access::ObjectStore`] impl in `access::object`, shared
//! with the TCP cluster client; `tests/object_store_contract.rs`
//! runs both through the same contract and checks that the same put
//! sequence lands at the same extents on each.

use std::collections::HashMap;

use access::{Extent, ObjectBackend, PackCursor, PutOptions, PACK_PREFIX};
use erasure::ErasureCode;

use crate::codec::{EncodedFile, FileCodec};
use crate::error::FileError;

/// An in-memory store of named encoded objects sharing one codec.
///
/// # Examples
///
/// ```
/// use access::{ObjectStore, PutOptions};
/// use filestore::{FileCodec, LocalObjects};
/// use rs_code::ReedSolomon;
///
/// let codec = FileCodec::new(ReedSolomon::new(6, 4).unwrap(), 64)?;
/// let mut store = LocalObjects::new(codec);
/// store.put("a", b"hello world")?;
/// store.write_range("a", 6, b"store")?;
/// store.append("a", b"!")?;
/// assert_eq!(store.get("a")?, b"hello store!");
/// // Small objects share stripes when packed:
/// store.put_opts("tiny", b"12", &PutOptions::new().pack(true))?;
/// assert_eq!(store.get("tiny")?, b"12");
/// # Ok::<(), filestore::FileError>(())
/// ```
#[derive(Debug, Clone)]
pub struct LocalObjects<C> {
    codec: FileCodec<C>,
    files: HashMap<String, EncodedFile<C>>,
    extents: HashMap<String, Extent>,
    packs: PackCursor,
}

impl<C: ErasureCode + Clone> LocalObjects<C> {
    /// Creates an empty store encoding every object with `codec`.
    pub fn new(codec: FileCodec<C>) -> LocalObjects<C> {
        LocalObjects {
            codec,
            files: HashMap::new(),
            extents: HashMap::new(),
            packs: PackCursor::default(),
        }
    }

    /// Sets the pack rollover size (bytes of object data per pack).
    #[must_use]
    pub fn with_pack_limit(mut self, bytes: u64) -> LocalObjects<C> {
        self.packs.limit = bytes;
        self
    }

    /// The shared codec.
    pub fn codec(&self) -> &FileCodec<C> {
        &self.codec
    }

    /// Direct access to an object's encoded form (packed objects resolve
    /// to their pack) — the hook tests use to drop blocks and exercise
    /// degraded reads and repair under packing.
    pub fn encoded_mut(&mut self, name: &str) -> Option<&mut EncodedFile<C>> {
        let backing = match self.extents.get(name) {
            Some(ext) => &ext.pack,
            None => name,
        };
        self.files.get_mut(backing)
    }

    /// Names of all live objects (packed and unpacked), unordered.
    pub fn names(&self) -> Vec<String> {
        self.files
            .keys()
            .filter(|n| !n.starts_with(PACK_PREFIX))
            .chain(self.extents.keys())
            .cloned()
            .collect()
    }

    fn file(&mut self, name: &str) -> Result<&mut EncodedFile<C>, FileError> {
        self.files
            .get_mut(name)
            .ok_or_else(|| FileError::UnknownObject { name: name.into() })
    }
}

/// The codec (and with it the code and block size) is fixed at
/// construction, so `create` ignores per-put code/block hints.
impl<C: ErasureCode + Clone> ObjectBackend for LocalObjects<C> {
    type Error = FileError;

    fn create(&mut self, file: &str, data: &[u8], _opts: &PutOptions) -> Result<(), FileError> {
        self.files.insert(file.into(), self.codec.encode(data)?);
        Ok(())
    }

    fn len(&mut self, file: &str) -> Option<u64> {
        self.files.get(file).map(|f| f.meta().file_len)
    }

    fn read(&mut self, file: &str, range: Option<(u64, u64)>) -> Result<Vec<u8>, FileError> {
        let file = self.file(file)?;
        let (offset, len) = range.unwrap_or((0, file.meta().file_len));
        file.read_range(offset, len)
    }

    fn overwrite(&mut self, file: &str, offset: u64, data: &[u8]) -> Result<(), FileError> {
        self.file(file)?.write_range(offset, data)
    }

    fn extend(&mut self, file: &str, data: &[u8]) -> Result<u64, FileError> {
        self.file(file)?.append(data)
    }

    fn remove(&mut self, file: &str) -> Result<bool, FileError> {
        Ok(self.files.remove(file).is_some())
    }

    fn extent(&mut self, object: &str) -> Option<Extent> {
        self.extents.get(object).cloned()
    }

    fn set_extent(&mut self, object: &str, extent: Extent) -> Result<(), FileError> {
        self.extents.insert(object.into(), extent);
        Ok(())
    }

    fn drop_extent(&mut self, object: &str) -> Result<bool, FileError> {
        Ok(self.extents.remove(object).is_some())
    }

    fn pack_cursor(&mut self) -> &mut PackCursor {
        &mut self.packs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use access::ObjectStore;
    use carousel::Carousel;

    fn bytes(len: usize, seed: usize) -> Vec<u8> {
        (0..len)
            .map(|i| ((i * 31 + seed * 17) % 251) as u8)
            .collect()
    }

    #[test]
    fn repair_under_packing() {
        // Losing blocks of a pack's stripes still serves every packed
        // object (degraded reads), and repair restores the pack.
        let codec = FileCodec::new(Carousel::new(6, 3, 3, 6).unwrap(), 60).unwrap();
        let mut s = LocalObjects::new(codec).with_pack_limit(2000);
        let opts = PutOptions::new().pack(true);
        let objs: Vec<Vec<u8>> = (0..6).map(|i| bytes(90 + i * 21, i + 40)).collect();
        for (i, data) in objs.iter().enumerate() {
            s.put_opts(&format!("o{i}"), data, &opts).unwrap();
        }
        let pack = s.extent("o0").unwrap().pack.clone();
        assert_eq!(s.extent("o5").unwrap().pack, pack, "one shared pack");
        let enc = s.encoded_mut("o0").unwrap();
        let stripes = enc.stripes();
        for t in 0..stripes {
            enc.drop_block(t, (t * 2) % 6);
        }
        for (i, data) in objs.iter().enumerate() {
            assert_eq!(&s.get(&format!("o{i}")).unwrap(), data, "degraded get");
        }
        let enc = s.encoded_mut("o0").unwrap();
        for t in 0..stripes {
            let missing = (t * 2) % 6;
            enc.repair_block(t, missing).unwrap();
        }
        for (i, data) in objs.iter().enumerate() {
            assert_eq!(&s.get(&format!("o{i}")).unwrap(), data, "after repair");
        }
    }
}
