//! Stripe geometry: how a file's bytes map onto stripes, and a stripe's
//! bytes onto message units, for one code at one block size.
//!
//! Both byte-moving stacks stripe files the same way — `filestore` in
//! memory, `cluster` over TCP — and both used to re-derive the numbers
//! (`k · block_bytes`, `offset / sdb`, `block_bytes / sub`) wherever they
//! were needed. [`StripeGeometry`] is the one owner: its constructor is the
//! only place a block size is checked against a code, and a stripe carries
//! `message_units · unit_bytes` data bytes — which is `k · block_bytes`
//! only for MDS-shaped codes (an MBR block stores more than `1/k` of the
//! stripe), so nothing outside this file may assume that product.

use erasure::{CodeError, EncodedStripe, ErasureCode};

/// One step of a byte-range walk: the part of the range that falls into
/// one stripe ([`StripeGeometry::spans`]) or one message unit
/// ([`StripeGeometry::units`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// The stripe (or message unit) this step falls into.
    pub index: usize,
    /// First byte of the step within that stripe's data (or that unit).
    pub within: usize,
    /// Bytes in the step.
    pub take: usize,
    /// Bytes of the walked range that precede the step.
    pub at: usize,
}

impl Span {
    /// The step's bytes as a sub-range of the walked range — the slice of
    /// the caller's buffer it reads or fills.
    pub fn range(&self) -> std::ops::Range<usize> {
        self.at..self.at + self.take
    }
}

/// Cuts `[offset, offset + len)` at multiples of `step`.
fn walk(step: usize, offset: u64, len: u64) -> impl Iterator<Item = Span> {
    let step = step as u64;
    let mut done = 0u64;
    std::iter::from_fn(move || {
        if done == len {
            return None;
        }
        let pos = offset + done;
        let within = pos % step;
        let take = (len - done).min(step - within);
        let span = Span {
            index: (pos / step) as usize,
            within: within as usize,
            take: take as usize,
            at: done as usize,
        };
        done += take;
        Some(span)
    })
}

/// The fixed shape of every stripe of a file: `n` blocks of `sub` units of
/// `unit_bytes` bytes, carrying `message_units` units of original data.
///
/// # Examples
///
/// ```
/// use access::{CodeSpec, StripeGeometry};
///
/// let code = CodeSpec::parse("rs(6,4)")?.build()?;
/// let geo = StripeGeometry::new(&code, 256)?;
/// assert_eq!((geo.stripe_data_bytes(), geo.stripes_for(3000)), (1024, 3));
/// // Bytes 1000..1100 straddle the first stripe boundary.
/// let spans: Vec<_> = geo.spans(1000, 100).collect();
/// assert_eq!((spans[0].index, spans[0].within, spans[0].range()), (0, 1000, 0..24));
/// assert_eq!((spans[1].index, spans[1].within, spans[1].range()), (1, 0, 24..100));
/// # Ok::<(), erasure::CodeError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StripeGeometry {
    n: usize,
    sub: usize,
    unit_bytes: usize,
    message_units: usize,
}

impl StripeGeometry {
    /// The geometry of `code` at `block_bytes` per block.
    ///
    /// # Errors
    ///
    /// [`CodeError::InvalidParameters`], naming the field, for a
    /// `block_bytes` that is zero or not a multiple of the code's
    /// units-per-block (`sub`): every unit needs a whole number of bytes.
    pub fn new(code: &dyn ErasureCode, block_bytes: usize) -> Result<Self, CodeError> {
        let linear = code.linear();
        let sub = linear.sub();
        if block_bytes == 0 || !block_bytes.is_multiple_of(sub) {
            return Err(CodeError::InvalidParameters {
                reason: format!(
                    "block_bytes = {block_bytes} must be a positive multiple of sub = {sub}"
                ),
            });
        }
        Ok(StripeGeometry {
            n: linear.n(),
            sub,
            unit_bytes: block_bytes / sub,
            message_units: linear.message_units(),
        })
    }

    /// Blocks per stripe.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Units per block.
    pub fn sub(&self) -> usize {
        self.sub
    }

    /// Bytes per unit.
    pub fn unit_bytes(&self) -> usize {
        self.unit_bytes
    }

    /// Bytes per encoded block.
    pub fn block_bytes(&self) -> usize {
        self.sub * self.unit_bytes
    }

    /// Original data bytes per stripe: `message_units · unit_bytes`
    /// (`k · block_bytes` for MDS-shaped codes, less for MBR).
    pub fn stripe_data_bytes(&self) -> usize {
        self.message_units * self.unit_bytes
    }

    /// Stripes needed to hold `len` data bytes.
    pub fn stripes_for(&self, len: u64) -> usize {
        len.div_ceil(self.stripe_data_bytes() as u64) as usize
    }

    /// Zero padding after the last byte of a `file_len`-byte file, up to
    /// the end of its last stripe — what an append fills before it needs
    /// new stripes.
    pub fn padding(&self, file_len: u64) -> u64 {
        self.stripes_for(file_len) as u64 * self.stripe_data_bytes() as u64 - file_len
    }

    /// Checks a recorded `(file_len, stripes)` pair — from a `meta` file, a
    /// manifest or a log record, all outside input — against this geometry.
    ///
    /// # Errors
    ///
    /// [`CodeError::InvalidParameters`], naming the field, for
    /// `file_len = 0` and for a `stripes` other than
    /// [`stripes_for(file_len)`](Self::stripes_for).
    pub fn check_file(&self, file_len: u64, stripes: usize) -> Result<(), CodeError> {
        if file_len == 0 {
            return Err(CodeError::InvalidParameters {
                reason: "file_len = 0: an encoded file is never empty".into(),
            });
        }
        let expected = self.stripes_for(file_len);
        if stripes != expected {
            return Err(CodeError::InvalidParameters {
                reason: format!(
                    "stripes = {stripes} disagrees with file_len = {file_len}: \
                     {expected} stripes of {} data bytes expected",
                    self.stripe_data_bytes()
                ),
            });
        }
        Ok(())
    }

    /// Walks the byte range `[offset, offset + len)` of a file stripe by
    /// stripe. The caller has bounds-checked the range
    /// ([`check_range`](crate::check_range)); an empty range yields nothing.
    pub fn spans(&self, offset: u64, len: u64) -> impl Iterator<Item = Span> {
        walk(self.stripe_data_bytes(), offset, len)
    }

    /// Walks `take` data bytes at offset `within` of one stripe message
    /// unit by message unit; the code's `DataLayout` says which block
    /// stores each unit.
    pub fn units(&self, within: usize, take: usize) -> impl Iterator<Item = Span> {
        walk(self.unit_bytes, within as u64, take as u64)
    }

    /// A zeroed stripe of this geometry: the buffer `SparseEncoder::
    /// encode_into` refills for every stripe of a file.
    pub fn empty_stripe(&self) -> EncodedStripe {
        EncodedStripe {
            blocks: vec![vec![0u8; self.block_bytes()]; self.n],
            unit_bytes: self.unit_bytes,
            original_len: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CodeSpec;

    fn geo(spec: &str, block_bytes: usize) -> Result<StripeGeometry, CodeError> {
        let code = CodeSpec::parse(spec).unwrap().build().unwrap();
        StripeGeometry::new(&code, block_bytes)
    }

    /// An MBR block stores more than `1/k` of the stripe, so data bytes per
    /// stripe is not `k · block_bytes` — the formula the cluster client
    /// used to hard-code.
    #[test]
    fn data_bytes_follow_message_units_not_k() {
        let rs = geo("rs(6,4)", 240).unwrap();
        assert_eq!(rs.stripe_data_bytes(), 4 * 240);
        let carousel = geo("carousel(9,6,6,9)", 240).unwrap();
        assert_eq!(carousel.stripe_data_bytes(), 6 * 240);
        let msr = geo("msr(6,3,4)", 240).unwrap();
        assert_eq!(msr.stripe_data_bytes(), 3 * 240);
        let mbr = geo("mbr(6,3,4)", 240).unwrap();
        assert!(mbr.stripe_data_bytes() < 3 * 240);
        assert_eq!(
            mbr.stripe_data_bytes() % mbr.unit_bytes(),
            0,
            "whole message units"
        );
    }

    #[test]
    fn block_size_is_checked_once_here() {
        for bad in [0, 7, 241] {
            let e = geo("msr(6,3,4)", bad).unwrap_err();
            assert!(e.to_string().contains("block_bytes"), "{e}");
        }
        let g = geo("msr(6,3,4)", 240).unwrap();
        assert_eq!(g.sub() * g.unit_bytes(), g.block_bytes());
        assert_eq!(g.empty_stripe().blocks.len(), g.n());
        assert_eq!(g.empty_stripe().block_bytes(), 240);
    }

    #[test]
    fn recorded_lengths_must_fit() {
        let g = geo("rs(6,4)", 256).unwrap(); // 1024 data bytes per stripe
        assert_eq!(g.stripes_for(1), 1);
        assert_eq!(g.stripes_for(1024), 1);
        assert_eq!(g.stripes_for(1025), 2);
        assert_eq!(g.padding(1024), 0);
        assert_eq!(g.padding(1025), 1023);
        g.check_file(5000, 5).unwrap();
        let e = g.check_file(0, 0).unwrap_err();
        assert!(e.to_string().contains("file_len"), "{e}");
        for stripes in [0, 4, 6, usize::MAX] {
            let e = g.check_file(5000, stripes).unwrap_err();
            assert!(e.to_string().contains("stripes"), "{e}");
        }
    }

    /// The walks cover their range exactly once, in order, never crossing a
    /// boundary within one step.
    #[test]
    fn walks_tile_their_range() {
        let g = geo("carousel(6,3,3,6)", 120).unwrap(); // sub 2: w = 60, sdb = 360
        for (offset, len) in [(0u64, 1u64), (359, 2), (0, 1080), (100, 900), (720, 360)] {
            let spans: Vec<Span> = g.spans(offset, len).collect();
            let mut pos = offset;
            for s in &spans {
                assert_eq!(s.at as u64, pos - offset);
                assert_eq!(s.index as u64 * 360 + s.within as u64, pos);
                assert!(s.take > 0 && s.within + s.take <= 360);
                pos += s.take as u64;
            }
            assert_eq!(pos, offset + len, "({offset},{len})");
        }
        assert_eq!(g.spans(77, 0).count(), 0);
        let units: Vec<Span> = g.units(50, 100).collect();
        assert_eq!(
            units
                .iter()
                .map(|u| (u.index, u.within, u.take, u.at))
                .collect::<Vec<_>>(),
            vec![(0, 50, 10, 0), (1, 0, 60, 10), (2, 0, 30, 70)]
        );
    }
}
