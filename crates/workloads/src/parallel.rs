//! Whole-file encode/decode with per-stripe fan-out.
//!
//! The worker pool itself ([`ParallelCtx`], [`pipeline`]) lives in
//! [`access::parallel`], where the transports can reach it without
//! depending on this experiments crate; it is re-exported here so
//! `workloads::parallel::ParallelCtx` keeps resolving.

use erasure::ErasureCode;
use filestore::{EncodedFile, FileCodec, FileError};

pub use access::parallel::{available_threads, pipeline, ParallelCtx, ParallelCtxBuilder};

/// Encodes a whole file with per-stripe fan-out on `ctx`'s workers.
/// Produces exactly the same [`EncodedFile`] as [`FileCodec::encode`].
///
/// # Errors
///
/// Same as [`FileCodec::encode`]: rejects empty input and propagates
/// per-stripe geometry failures.
pub fn encode_file<C>(
    codec: &FileCodec<C>,
    data: &[u8],
    ctx: &ParallelCtx,
) -> Result<EncodedFile<C>, FileError>
where
    C: ErasureCode + Clone + Sync,
{
    if data.is_empty() {
        return Err(FileError::BadGeometry {
            reason: "cannot encode an empty file".into(),
        });
    }
    let chunks: Vec<&[u8]> = data.chunks(codec.stripe_data_bytes()).collect();
    let stripes = ctx.run(chunks.len(), |s| codec.encode_stripe(chunks[s]));
    let mut file = EncodedFile::empty(codec.clone(), codec.meta_for(data.len() as u64));
    for (s, blocks) in stripes.into_iter().enumerate() {
        for (b, bytes) in blocks?.into_iter().enumerate() {
            file.set_block(s, b, bytes);
        }
    }
    Ok(file)
}

/// Decodes a whole file with per-stripe fan-out on `ctx`'s workers.
/// Produces exactly the same bytes as [`EncodedFile::decode`].
///
/// # Errors
///
/// Returns [`FileError::StripeUnrecoverable`] naming the first
/// unrecoverable stripe, like the sequential path.
pub fn decode_file<C>(file: &EncodedFile<C>, ctx: &ParallelCtx) -> Result<Vec<u8>, FileError>
where
    C: ErasureCode + Sync,
{
    let parts = ctx.run(file.stripes(), |s| file.decode_stripe_at(s));
    let mut out = Vec::with_capacity(file.meta().file_len as usize);
    for part in parts {
        out.extend_from_slice(&part?);
    }
    out.truncate(file.meta().file_len as usize);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use carousel::Carousel;
    use rs_code::ReedSolomon;

    fn data(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 131 + 7) as u8).collect()
    }

    fn ctx(threads: usize) -> ParallelCtx {
        ParallelCtx::builder().threads(threads).build()
    }

    #[test]
    fn parallel_encode_matches_sequential() {
        let codec = FileCodec::new(Carousel::new(6, 3, 3, 6).unwrap(), 120).unwrap();
        let file = data(3000);
        let seq = codec.encode(&file).unwrap();
        let par = encode_file(&codec, &file, &ctx(4)).unwrap();
        assert_eq!(par.meta(), seq.meta());
        for s in 0..seq.stripes() {
            for b in 0..seq.meta().n {
                assert_eq!(par.block(s, b), seq.block(s, b), "stripe {s} block {b}");
            }
        }
    }

    #[test]
    fn parallel_decode_matches_source_with_failures() {
        let codec = FileCodec::new(ReedSolomon::new(6, 4).unwrap(), 64).unwrap();
        let file = data(2000);
        let mut enc = codec.encode(&file).unwrap();
        for s in 0..enc.stripes() {
            enc.drop_block(s, (s * 2) % 6);
        }
        assert_eq!(decode_file(&enc, &ctx(4)).unwrap(), file);
        assert_eq!(decode_file(&enc, &ParallelCtx::sequential()).unwrap(), file);
    }

    #[test]
    fn parallel_errors_propagate() {
        let codec = FileCodec::new(ReedSolomon::new(4, 2).unwrap(), 64).unwrap();
        assert!(encode_file(&codec, &[], &ctx(4)).is_err());
        let mut enc = codec.encode(&data(400)).unwrap();
        for b in 0..3 {
            enc.drop_block(1, b);
        }
        match decode_file(&enc, &ctx(4)) {
            Err(FileError::StripeUnrecoverable { stripe, .. }) => assert_eq!(stripe, 1),
            other => panic!("expected StripeUnrecoverable, got {other:?}"),
        }
    }
}
