//! Streaming encode/decode: one stripe of memory at a time.
//!
//! For files too large to hold in memory, [`encode_stream`] reads a stripe
//! of data ([`FileCodec::stripe_data_bytes`]), encodes it and hands the
//! blocks to a sink; [`decode_stream`] pulls (possibly incomplete) stripes
//! from a source and writes the recovered bytes out.

use std::io::{Read, Write};

use erasure::ErasureCode;

use crate::codec::{FileCodec, FileMeta};
use crate::error::FileError;

/// Encodes everything `reader` yields, stripe by stripe.
///
/// `sink` receives `(stripe_index, blocks)` for each stripe and may write
/// them to disk, the network, etc. The block buffers are *borrowed*: they
/// belong to a single [`erasure::EncodedStripe`] that the loop re-encodes
/// in place for every stripe, so the steady state allocates nothing —
/// copy out whatever the sink needs to keep.
///
/// # Errors
///
/// Propagates reader/sink I/O failures and geometry errors; an empty input
/// is rejected.
pub fn encode_stream<C: ErasureCode, R: Read>(
    codec: &FileCodec<C>,
    mut reader: R,
    mut sink: impl FnMut(usize, &[Vec<u8>]) -> std::io::Result<()>,
) -> Result<FileMeta, FileError> {
    let sdb = codec.stripe_data_bytes();
    let mut buf = vec![0u8; sdb];
    let mut stripe = codec.empty_stripe();
    let mut stripes = 0usize;
    let mut file_len = 0u64;
    loop {
        let mut filled = 0;
        while filled < sdb {
            let n = reader.read(&mut buf[filled..])?;
            if n == 0 {
                break;
            }
            filled += n;
        }
        if filled == 0 {
            break;
        }
        codec.encode_stripe_into(&buf[..filled], &mut stripe)?;
        sink(stripes, &stripe.blocks)?;
        stripes += 1;
        file_len += filled as u64;
        if filled < sdb {
            break; // EOF mid-stripe
        }
    }
    if stripes == 0 {
        return Err(FileError::BadGeometry {
            reason: "cannot encode an empty stream".into(),
        });
    }
    Ok(codec.meta_for(file_len))
}

/// Decodes a streamed file: pulls each stripe's blocks from `source`
/// (missing blocks as `None`), decodes, and writes exactly
/// `meta.file_len` bytes to `writer`.
///
/// # Errors
///
/// Propagates source failures, unrecoverable stripes and writer I/O errors.
pub fn decode_stream<C: ErasureCode, W: Write>(
    codec: &FileCodec<C>,
    meta: &FileMeta,
    mut source: impl FnMut(usize) -> Result<Vec<Option<Vec<u8>>>, FileError>,
    mut writer: W,
) -> Result<(), FileError> {
    for span in codec.geometry().spans(0, meta.file_len) {
        let blocks = source(span.index)?;
        let data = codec.decode_stripe_at(span.index, &blocks)?;
        writer.write_all(&data[..span.take])?;
    }
    writer.flush()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use carousel::Carousel;

    #[test]
    fn stream_round_trip() {
        let codec = FileCodec::new(Carousel::new(6, 3, 3, 6).unwrap(), 60).unwrap();
        let file: Vec<u8> = (0..433).map(|i| (i * 29 + 3) as u8).collect();
        let mut store: Vec<Vec<Vec<u8>>> = Vec::new();
        let meta = encode_stream(&codec, &file[..], |s, blocks| {
            assert_eq!(s, store.len());
            store.push(blocks.to_vec());
            Ok(())
        })
        .unwrap();
        assert_eq!(meta.file_len, 433);
        assert_eq!(meta.stripes, 3); // 180 bytes per stripe

        let mut out = Vec::new();
        decode_stream(
            &codec,
            &meta,
            |s| Ok(store[s].iter().cloned().map(Some).collect()),
            &mut out,
        )
        .unwrap();
        assert_eq!(out, file);
    }

    #[test]
    fn stream_decode_with_losses() {
        let codec = FileCodec::new(Carousel::new(5, 3, 3, 5).unwrap(), 45).unwrap();
        let file: Vec<u8> = (0..600).map(|i| (i ^ 0x37) as u8).collect();
        let mut store: Vec<Vec<Vec<u8>>> = Vec::new();
        let meta = encode_stream(&codec, &file[..], |_, blocks| {
            store.push(blocks.to_vec());
            Ok(())
        })
        .unwrap();
        let mut out = Vec::new();
        decode_stream(
            &codec,
            &meta,
            |s| {
                // Drop two different blocks per stripe.
                Ok(store[s]
                    .iter()
                    .enumerate()
                    .map(|(i, b)| (i != s % 5 && i != (s + 2) % 5).then(|| b.clone()))
                    .collect())
            },
            &mut out,
        )
        .unwrap();
        assert_eq!(out, file);
    }

    #[test]
    fn empty_stream_rejected() {
        let codec = FileCodec::new(Carousel::new(4, 2, 2, 4).unwrap(), 16).unwrap();
        let empty: &[u8] = &[];
        assert!(encode_stream(&codec, empty, |_, _| Ok(())).is_err());
    }

    #[test]
    fn unrecoverable_stream_stripe_reported() {
        let codec = FileCodec::new(Carousel::new(4, 2, 2, 4).unwrap(), 16).unwrap();
        let file = [9u8; 100];
        let mut store: Vec<Vec<Vec<u8>>> = Vec::new();
        let meta = encode_stream(&codec, &file[..], |_, b| {
            store.push(b.to_vec());
            Ok(())
        })
        .unwrap();
        let result = decode_stream(
            &codec,
            &meta,
            |s| {
                Ok(store[s]
                    .iter()
                    .enumerate()
                    .map(|(i, b)| (s != 1 || i >= 3).then(|| b.clone()))
                    .collect())
            },
            std::io::sink(),
        );
        assert!(matches!(
            result,
            Err(FileError::StripeUnrecoverable { stripe: 1, .. })
        ));
    }
}
