//! The one object layer: the mutable-object API and its only
//! implementation.
//!
//! [`ObjectStore`] is the contract covering the full mutable-data
//! lifecycle: whole-object put/get, byte-range reads, **in-place
//! `write_range`** (delta parity updates — cost proportional to the
//! touched region, not the stripe), **`append`** (growing the object,
//! adding stripes as needed) and `delete`.
//!
//! The object *policy* — the reserved [`PACK_PREFIX`] namespace, the
//! duplicate-name check, small-object packing with its one rollover
//! rule, extent resolution with one overflow-checked bounds check
//! ([`check_range`]), "packed objects cannot grow" and
//! delete-drops-the-extent — is written once, here, as the blanket
//! [`ObjectStore`] impl for every [`ObjectBackend`]. A transport supplies
//! only that backend: per-file primitives on whole named striped
//! files, an extent table and a [`PackCursor`]. The in-memory filestore
//! (`filestore::LocalObjects`) and the TCP cluster client
//! (`cluster::ClusterClient`) are the two in-tree backends;
//! `tests/object_store_contract.rs` holds both to one executable
//! contract.
//!
//! Packing addresses the small-object problem of erasure-coded stores:
//! a 4 KiB object striped over `k` blocks wastes most of every block
//! and costs `n` block writes. A *packed* put instead appends the
//! object's bytes to a shared **pack** (an ordinary striped file named
//! `.pack-NNNN`) and records only a per-object [`Extent`]. Reads resolve
//! the extent to a range read on the pack; deletes drop the extent and
//! leave a hole (packs are append-only; reclaiming holes is a compaction
//! concern, out of scope here).
//!
//! [`PutOptions`] is the builder for per-put knobs. It is deliberately
//! transport-agnostic: the code is named by its *spec string* (e.g.
//! `"rs(8,4)"`, `"carousel(6,3,3,6)"`) so this crate does not depend on
//! any particular spec parser; stores that fix their code at
//! construction simply ignore it.

/// Per-put options, builder style.
///
/// # Examples
///
/// ```
/// use access::PutOptions;
///
/// let opts = PutOptions::new().code("rs(6,4)").block_bytes(4096).pack(true);
/// assert_eq!(opts.code_spec(), Some("rs(6,4)"));
/// assert_eq!(opts.block_bytes_hint(), Some(4096));
/// assert!(opts.packed());
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PutOptions {
    code: Option<String>,
    block_bytes: Option<usize>,
    pack: bool,
}

impl PutOptions {
    /// Default options: the store's default code and block size, no
    /// packing.
    pub fn new() -> PutOptions {
        PutOptions::default()
    }

    /// Selects the erasure code by spec string (e.g. `"rs(6,4)"`).
    /// Stores whose code is fixed at construction ignore this.
    #[must_use]
    pub fn code(mut self, spec: &str) -> PutOptions {
        self.code = Some(spec.to_string());
        self
    }

    /// Overrides the per-block byte size.
    #[must_use]
    pub fn block_bytes(mut self, bytes: usize) -> PutOptions {
        self.block_bytes = Some(bytes);
        self
    }

    /// Packs this (small) object into a shared stripe: the store
    /// appends its bytes to an open *pack* and records only a
    /// per-object extent, instead of dedicating whole stripes to it.
    #[must_use]
    pub fn pack(mut self, pack: bool) -> PutOptions {
        self.pack = pack;
        self
    }

    /// The requested code spec string, if any.
    pub fn code_spec(&self) -> Option<&str> {
        self.code.as_deref()
    }

    /// The requested block size, if any.
    pub fn block_bytes_hint(&self) -> Option<usize> {
        self.block_bytes
    }

    /// Whether this put asked to be packed into a shared stripe.
    pub fn packed(&self) -> bool {
        self.pack
    }
}

/// A named store of erasure-coded mutable objects.
///
/// Methods take `&mut self` because every in-tree backend keeps
/// per-connection or per-cache mutable state; a shared store wraps the
/// implementation in its own synchronization.
///
/// Contract highlights (verified against every backend by
/// `tests/object_store_contract.rs`):
///
/// * `get(name)` after `put(name, data)` returns exactly `data`;
/// * `write_range(name, off, patch)` only overwrites — `off +
///   patch.len()` must not exceed the current length (use `append` to
///   grow), and afterwards `get` reflects the edit byte-for-byte;
/// * `append(name, tail)` returns the new length and behaves like
///   `put(name, old ++ tail)` would have;
/// * `delete(name)` returns whether the object existed; a deleted name
///   can be re-`put`;
/// * parity stays consistent under every mutation: degraded reads and
///   repairs after a `write_range`/`append` see the updated bytes.
pub trait ObjectStore {
    /// The implementation's error type.
    type Error: std::error::Error;

    /// Stores `data` under `name` with explicit options.
    ///
    /// # Errors
    ///
    /// Implementation-defined; storing under an existing name is an
    /// error (delete first).
    fn put_opts(&mut self, name: &str, data: &[u8], opts: &PutOptions) -> Result<(), Self::Error>;

    /// Stores `data` under `name` with default options.
    ///
    /// # Errors
    ///
    /// See [`ObjectStore::put_opts`].
    fn put(&mut self, name: &str, data: &[u8]) -> Result<(), Self::Error> {
        self.put_opts(name, data, &PutOptions::new())
    }

    /// Reads the whole object back.
    ///
    /// # Errors
    ///
    /// Implementation-defined; unknown names are an error.
    fn get(&mut self, name: &str) -> Result<Vec<u8>, Self::Error>;

    /// Reads `len` bytes at byte `offset`.
    ///
    /// # Errors
    ///
    /// Implementation-defined; ranges past the object's end are an
    /// error.
    fn get_range(&mut self, name: &str, offset: u64, len: u64) -> Result<Vec<u8>, Self::Error>;

    /// Overwrites the object's bytes at `offset` with `data` in place,
    /// updating parity by delta. The range must lie within the current
    /// length.
    ///
    /// # Errors
    ///
    /// Implementation-defined; out-of-bounds ranges are an error.
    fn write_range(&mut self, name: &str, offset: u64, data: &[u8]) -> Result<(), Self::Error>;

    /// Appends `data` to the object, returning its new length.
    ///
    /// # Errors
    ///
    /// Implementation-defined.
    fn append(&mut self, name: &str, data: &[u8]) -> Result<u64, Self::Error>;

    /// Deletes the object. Returns `false` when it did not exist.
    ///
    /// # Errors
    ///
    /// Implementation-defined (transport failures, not absence).
    fn delete(&mut self, name: &str) -> Result<bool, Self::Error>;

    /// The object's current length in bytes.
    ///
    /// # Errors
    ///
    /// Implementation-defined; unknown names are an error.
    fn object_len(&mut self, name: &str) -> Result<u64, Self::Error>;
}

/// Reserved name prefix for pack files: no object may be stored under a
/// name starting with it.
pub const PACK_PREFIX: &str = ".pack-";

/// Default pack capacity: a packed put that would take the open pack
/// past this many bytes starts a fresh pack instead.
pub const DEFAULT_PACK_LIMIT: u64 = 1 << 20;

/// A packed object's location inside a pack file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Extent {
    /// The pack file (an ordinary striped file) holding the bytes.
    pub pack: String,
    /// Byte offset of the object within the pack.
    pub offset: u64,
    /// Object length in bytes.
    pub len: u64,
}

/// A refusal decided by the object policy rather than by a transport.
/// Backends map it onto their own error type (`From<ObjectError>`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ObjectError {
    /// The name starts with the reserved [`PACK_PREFIX`].
    ReservedName {
        /// The refused name.
        name: String,
    },
    /// An object is already stored under the name (delete first).
    Exists {
        /// The conflicting name.
        name: String,
    },
    /// No object is stored under the name.
    Unknown {
        /// The requested name.
        name: String,
    },
    /// `offset + len` overflows or runs past the object's end.
    RangeOutOfBounds {
        /// Requested range start.
        offset: u64,
        /// Requested length.
        len: u64,
        /// Length of the object (or file) the range was checked against.
        object_len: u64,
    },
    /// Packed objects cannot grow; delete and re-put instead.
    PackedAppend {
        /// The packed object's name.
        name: String,
    },
    /// Empty objects cannot be stored, packed or not.
    EmptyObject,
}

impl std::fmt::Display for ObjectError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ObjectError::ReservedName { name } => write!(
                f,
                "name {name:?} is reserved: names starting with {PACK_PREFIX:?} belong to packs"
            ),
            ObjectError::Exists { name } => write!(f, "object {name:?} already exists"),
            ObjectError::Unknown { name } => write!(f, "unknown object {name:?}"),
            ObjectError::RangeOutOfBounds {
                offset,
                len,
                object_len,
            } => write!(f, "range {offset}+{len} exceeds length {object_len}"),
            ObjectError::PackedAppend { name } => {
                write!(f, "packed object {name:?} cannot grow; delete and re-put")
            }
            ObjectError::EmptyObject => write!(f, "cannot store an empty object"),
        }
    }
}

impl std::error::Error for ObjectError {}

/// The one range validation: `[offset, offset + len)` must lie within
/// `object_len` bytes, with the sum overflow-checked. Returns the range's
/// end.
///
/// # Errors
///
/// [`ObjectError::RangeOutOfBounds`] when the sum overflows or exceeds
/// `object_len`.
///
/// # Examples
///
/// ```
/// use access::check_range;
///
/// assert_eq!(check_range(10, 5, 15), Ok(15));
/// assert!(check_range(10, 6, 15).is_err());
/// assert!(check_range(u64::MAX, 2, 15).is_err());
/// ```
pub fn check_range(offset: u64, len: u64, object_len: u64) -> Result<u64, ObjectError> {
    match offset.checked_add(len) {
        Some(end) if end <= object_len => Ok(end),
        _ => Err(ObjectError::RangeOutOfBounds {
            offset,
            len,
            object_len,
        }),
    }
}

/// Where a backend's next packed put goes: the pack being filled, the
/// next pack-name suffix to try, and the rollover limit.
#[derive(Debug, Clone)]
pub struct PackCursor {
    /// The open pack: `(name, bytes used)`.
    open: Option<(String, u64)>,
    /// Next `.pack-NNNN` suffix to try.
    seq: u64,
    /// A put that would take the open pack past this many bytes rolls
    /// over to a fresh pack.
    pub limit: u64,
}

impl Default for PackCursor {
    /// No open pack, [`DEFAULT_PACK_LIMIT`].
    fn default() -> Self {
        PackCursor {
            open: None,
            seq: 0,
            limit: DEFAULT_PACK_LIMIT,
        }
    }
}

/// What a transport supplies to become an [`ObjectStore`]: primitives on
/// whole named striped *files* (an object, or a pack shared by many
/// objects), an extent table for packed objects, and the open-pack
/// cursor. Everything an *object* means on top of that — naming rules,
/// packing, extent bounds — is the blanket [`ObjectStore`] impl's job,
/// so a backend never re-implements policy and a test can substitute a
/// fake.
///
/// File primitives validate their own byte ranges against the file's
/// length with [`check_range`].
pub trait ObjectBackend {
    /// The backend's error type; policy refusals convert into it.
    type Error: std::error::Error + From<ObjectError>;

    /// Encodes and stores `data` (non-empty) as a new file. Only `opts`'
    /// code and block-size hints apply; packing is decided above.
    ///
    /// # Errors
    ///
    /// Backend-defined (geometry, placement, transport).
    fn create(&mut self, file: &str, data: &[u8], opts: &PutOptions) -> Result<(), Self::Error>;

    /// The file's length in bytes, `None` when no such file exists.
    fn len(&mut self, file: &str) -> Option<u64>;

    /// Reads `len` bytes at `offset` of a file — or, with `range` `None`,
    /// the whole file.
    ///
    /// # Errors
    ///
    /// Backend-defined; unknown files and out-of-bounds ranges are errors.
    fn read(&mut self, file: &str, range: Option<(u64, u64)>) -> Result<Vec<u8>, Self::Error>;

    /// Overwrites the file's bytes at `offset` in place (parity follows by
    /// delta). Cannot grow the file.
    ///
    /// # Errors
    ///
    /// Backend-defined; unknown files and out-of-bounds ranges are errors.
    fn overwrite(&mut self, file: &str, offset: u64, data: &[u8]) -> Result<(), Self::Error>;

    /// Appends `data` to the file, returning its new length.
    ///
    /// # Errors
    ///
    /// Backend-defined; unknown files are an error.
    fn extend(&mut self, file: &str, data: &[u8]) -> Result<u64, Self::Error>;

    /// Removes the file, returning whether it existed.
    ///
    /// # Errors
    ///
    /// Backend-defined (transport failures, not absence).
    fn remove(&mut self, file: &str) -> Result<bool, Self::Error>;

    /// The extent of a packed object, `None` when `object` is not packed.
    fn extent(&mut self, object: &str) -> Option<Extent>;

    /// Records a packed object's extent.
    ///
    /// # Errors
    ///
    /// Backend-defined (e.g. a metadata-log append failure).
    fn set_extent(&mut self, object: &str, extent: Extent) -> Result<(), Self::Error>;

    /// Drops a packed object's extent, returning whether it existed. The
    /// pack keeps the (now unreachable) bytes.
    ///
    /// # Errors
    ///
    /// Backend-defined.
    fn drop_extent(&mut self, object: &str) -> Result<bool, Self::Error>;

    /// The open-pack cursor.
    fn pack_cursor(&mut self) -> &mut PackCursor;
}

/// Appends `data` to the backend's open pack — or, when none is open or
/// `open_len + data.len()` would exceed the cursor's limit, to a fresh
/// pack — and returns where it landed.
fn pack_put<B: ObjectBackend>(backend: &mut B, data: &[u8]) -> Result<Extent, B::Error> {
    let len = data.len() as u64;
    let cursor = backend.pack_cursor();
    let limit = cursor.limit;
    let open = cursor.open.clone().filter(|(_, used)| used + len <= limit);
    let (pack, offset, used) = match open {
        Some((pack, offset)) => {
            let used = backend.extend(&pack, data)?;
            (pack, offset, used)
        }
        None => {
            // Another writer may have taken a suffix already; probe the
            // namespace until a free one turns up.
            let pack = loop {
                let cursor = backend.pack_cursor();
                let candidate = format!("{PACK_PREFIX}{:04}", cursor.seq);
                cursor.seq += 1;
                if backend.len(&candidate).is_none() {
                    break candidate;
                }
            };
            // A pack's geometry is the backend's default, fixed when the
            // pack is created — never one object's options.
            backend.create(&pack, data, &PutOptions::new())?;
            (pack, 0, len)
        }
    };
    backend.pack_cursor().open = Some((pack.clone(), used));
    Ok(Extent { pack, offset, len })
}

/// Resolves `[offset, offset + len)` of a packed object to pack
/// coordinates, refusing ranges past the object's extent even though the
/// pack continues beyond it.
fn within_extent(ext: &Extent, offset: u64, len: u64) -> Result<u64, ObjectError> {
    check_range(offset, len, ext.len)?;
    Ok(ext.offset + offset)
}

impl<B: ObjectBackend> ObjectStore for B {
    type Error = B::Error;

    fn put_opts(&mut self, name: &str, data: &[u8], opts: &PutOptions) -> Result<(), B::Error> {
        if name.starts_with(PACK_PREFIX) {
            return Err(ObjectError::ReservedName { name: name.into() }.into());
        }
        if self.extent(name).is_some() || self.len(name).is_some() {
            return Err(ObjectError::Exists { name: name.into() }.into());
        }
        if data.is_empty() {
            return Err(ObjectError::EmptyObject.into());
        }
        if opts.packed() {
            let extent = pack_put(self, data)?;
            self.set_extent(name, extent)
        } else {
            self.create(name, data, opts)
        }
    }

    fn get(&mut self, name: &str) -> Result<Vec<u8>, B::Error> {
        match self.extent(name) {
            Some(ext) => self.read(&ext.pack, Some((ext.offset, ext.len))),
            None => self.read(name, None),
        }
    }

    fn get_range(&mut self, name: &str, offset: u64, len: u64) -> Result<Vec<u8>, B::Error> {
        match self.extent(name) {
            Some(ext) => {
                let at = within_extent(&ext, offset, len)?;
                self.read(&ext.pack, Some((at, len)))
            }
            None => self.read(name, Some((offset, len))),
        }
    }

    fn write_range(&mut self, name: &str, offset: u64, data: &[u8]) -> Result<(), B::Error> {
        match self.extent(name) {
            Some(ext) => {
                let at = within_extent(&ext, offset, data.len() as u64)?;
                self.overwrite(&ext.pack, at, data)
            }
            None => self.overwrite(name, offset, data),
        }
    }

    fn append(&mut self, name: &str, data: &[u8]) -> Result<u64, B::Error> {
        if self.extent(name).is_some() {
            return Err(ObjectError::PackedAppend { name: name.into() }.into());
        }
        self.extend(name, data)
    }

    fn delete(&mut self, name: &str) -> Result<bool, B::Error> {
        // A packed delete drops only the extent; the pack keeps the (now
        // unreachable) bytes until a future compaction.
        if self.extent(name).is_some() {
            return self.drop_extent(name);
        }
        self.remove(name)
    }

    fn object_len(&mut self, name: &str) -> Result<u64, B::Error> {
        if let Some(ext) = self.extent(name) {
            return Ok(ext.len);
        }
        self.len(name)
            .ok_or_else(|| ObjectError::Unknown { name: name.into() }.into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_roundtrip() {
        let opts = PutOptions::new();
        assert_eq!(opts.code_spec(), None);
        assert_eq!(opts.block_bytes_hint(), None);
        assert!(!opts.packed());
        let opts = opts.code("carousel(6,3,3,6)").block_bytes(120).pack(true);
        assert_eq!(opts.code_spec(), Some("carousel(6,3,3,6)"));
        assert_eq!(opts.block_bytes_hint(), Some(120));
        assert!(opts.packed());
    }
}
