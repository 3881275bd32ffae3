//! Runtime-dispatched bulk kernels: the engine behind every hot GF(2⁸) loop.
//!
//! A coded symbol row is `w` bytes long (hundreds of kilobytes to megabytes
//! in the paper's 512 MB-block experiments), and each output row is a linear
//! combination of input rows, so `dst[i] ^= c * src[i]` over long slices is
//! where encode, decode and repair spend their time. The paper's Hadoop
//! prototype delegates this to Intel ISA-L; this module is the pure-Rust
//! counterpart: several interchangeable [`Kernel`] implementations behind a
//! cheap [`Copy`] handle, selected once at process startup.
//!
//! Three portable kernels are always registered:
//!
//! * `scalar` — the textbook log/exp formulation, one table round-trip and
//!   one modular reduction per byte. Deliberately unclever: this is the
//!   correctness baseline every other kernel is property-tested against.
//! * `split` — the 4-bit split-table (nibble) kernel, the classic
//!   ISA-L/vector-shuffle decomposition: two indexed loads and an XOR per
//!   byte from tables small enough to stay resident in L1.
//! * `swar` — a 64-bit SWAR kernel ("slicing-by-8"): per call it derives the
//!   eight GF products `c·2ᵇ`, then processes eight bytes per `u64` word by
//!   masking out bit-plane `b` of the data and broadcasting `c·2ᵇ` into the
//!   selected lanes with one integer multiply. Because every partial product
//!   occupies a disjoint byte lane, integer addition coincides with XOR, so
//!   eight shift/mask/multiply steps produce eight full GF products with no
//!   per-byte table traffic at all.
//!
//! On top of those, the [`simd`] module contributes vector-shuffle kernels
//! that are registered **only when the CPU supports them**, probed once at
//! startup with `is_x86_feature_detected!` / `is_aarch64_feature_detected!`:
//! `ssse3` (16-byte PSHUFB split tables), `avx2` (the same scheme on
//! 32-byte lanes) and `neon` (aarch64 `vqtbl1q_u8`). The registry
//! ([`kernels`]) is therefore a detection-dependent slice, not a fixed
//! array: benches, the per-kernel proptests and the child-process
//! `CAROUSEL_KERNEL` tests automatically cover whatever the host supports.
//!
//! The process-wide default is the **best detected kernel**
//! ([`detected_best`]: `avx2` > `ssse3` > `neon` > `swar`); set
//! `CAROUSEL_KERNEL` to any registered name before startup to override,
//! e.g. for A/B benchmarking with `ext_kernels`. An unrecognized name warns
//! once on stderr and falls back to the detected best.
//!
//! # Examples
//!
//! ```
//! use gf256::{kernel, Gf256};
//!
//! let k = kernel(); // Copy handle, cached selection
//! let src = [1u8, 2, 3, 4];
//! let mut dst = [0u8; 4];
//! k.mul_acc(Gf256::new(0x53), &src, &mut dst);
//! assert_eq!(dst[1], (Gf256::new(0x53) * Gf256::new(2)).value());
//! ```

use std::sync::LazyLock;

use crate::tables::{gf_mul_const, EXP, LOG, SPLIT};
use crate::Gf256;

pub mod simd;

/// Bytes pushed through the multiply loops (any kernel).
static MUL_BYTES: LazyLock<&'static telemetry::Counter> =
    LazyLock::new(|| telemetry::counter("gf256.mul_bytes"));
/// Bytes pushed through the pure-XOR path (coefficient-1 terms).
static XOR_BYTES: LazyLock<&'static telemetry::Counter> =
    LazyLock::new(|| telemetry::counter("gf256.xor_bytes"));
/// Slice operations dispatched through a kernel handle.
static DISPATCH: LazyLock<&'static telemetry::Counter> =
    LazyLock::new(|| telemetry::counter("gf256.kernel.dispatch"));
/// Fused multi-row products executed via [`KernelHandle::mul_acc_rows`].
static FUSED_ROWS: LazyLock<&'static telemetry::Counter> =
    LazyLock::new(|| telemetry::counter("gf256.kernel.fused_rows"));

/// Column-block width (bytes) for the fused multi-row product: large enough
/// to amortize per-term setup, small enough that the destination block stays
/// in L1/L2 while every term of the linear combination is accumulated.
const FUSE_BLOCK: usize = 32 * 1024;

/// A bulk GF(2⁸) slice kernel.
///
/// Implementations only see the *raw* cases: the coefficient is never `0`
/// or `1` (the handle strips those into fill/copy/XOR fast paths first) and
/// slice lengths are already validated equal. Use through [`KernelHandle`];
/// the trait is public so benchmarks and tests can enumerate [`kernels`].
pub trait Kernel: Sync {
    /// Short stable identifier (`"scalar"`, `"split"`, `"swar"`, `"ssse3"`,
    /// `"avx2"`, `"neon"`), accepted by [`by_name`] and the
    /// `CAROUSEL_KERNEL` environment variable.
    fn name(&self) -> &'static str;

    /// `dst[i] ^= c * src[i]`. Called with `c ∉ {0, 1}` and equal lengths.
    fn mul_acc_raw(&self, c: u8, src: &[u8], dst: &mut [u8]);

    /// `dst[i] = c * src[i]`. Called with `c ∉ {0, 1}` and equal lengths.
    fn mul_raw(&self, c: u8, src: &[u8], dst: &mut [u8]);

    /// `buf[i] = c * buf[i]`, in place. Called with `c ∉ {0, 1}`.
    fn mul_in_place_raw(&self, c: u8, buf: &mut [u8]);

    /// `dst[i] ^= Σ terms[t].0 * terms[t].1[i]` — the fused multi-row
    /// product. Every coefficient is `∉ {0, 1}` and every slice length
    /// equals `dst`'s (the handle strips/validates first).
    ///
    /// The default walks the destination in cache-sized column blocks and
    /// accumulates every term into a block before moving on, so the block
    /// stays L1/L2-resident no matter how many source rows contribute. The
    /// SIMD kernels override this with a register-fused loop: the
    /// destination is held in vector registers across *all* terms of a
    /// column strip, so it is loaded and stored exactly once per strip.
    fn mul_acc_rows_raw(&self, terms: &[(u8, &[u8])], dst: &mut [u8]) {
        let len = dst.len();
        let mut start = 0;
        while start < len {
            let end = usize::min(start + FUSE_BLOCK, len);
            for &(c, src) in terms {
                self.mul_acc_raw(c, &src[start..end], &mut dst[start..end]);
            }
            start = end;
        }
    }
}

// ---------------------------------------------------------------------------
// scalar: textbook log/exp reference
// ---------------------------------------------------------------------------

/// The textbook log/exp reference kernel: `EXP[(LOG[c] + LOG[x]) % 255]`
/// with a zero check, one byte at a time. The correctness baseline.
struct ScalarKernel;

impl Kernel for ScalarKernel {
    fn name(&self) -> &'static str {
        "scalar"
    }

    fn mul_acc_raw(&self, c: u8, src: &[u8], dst: &mut [u8]) {
        let lc = LOG[c as usize] as usize;
        for (d, s) in dst.iter_mut().zip(src) {
            if *s != 0 {
                *d ^= EXP[(lc + LOG[*s as usize] as usize) % 255];
            }
        }
    }

    fn mul_raw(&self, c: u8, src: &[u8], dst: &mut [u8]) {
        let lc = LOG[c as usize] as usize;
        for (d, s) in dst.iter_mut().zip(src) {
            *d = if *s == 0 {
                0
            } else {
                EXP[(lc + LOG[*s as usize] as usize) % 255]
            };
        }
    }

    fn mul_in_place_raw(&self, c: u8, buf: &mut [u8]) {
        let lc = LOG[c as usize] as usize;
        for b in buf.iter_mut() {
            if *b != 0 {
                *b = EXP[(lc + LOG[*b as usize] as usize) % 255];
            }
        }
    }
}

// ---------------------------------------------------------------------------
// split: 4-bit split-table kernel
// ---------------------------------------------------------------------------

/// The 4-bit split-table kernel: `lo[x & 0xF] ^ hi[x >> 4] = c * x`, eight
/// bytes per iteration so the optimizer can unroll.
struct SplitKernel;

impl Kernel for SplitKernel {
    fn name(&self) -> &'static str {
        "split"
    }

    fn mul_acc_raw(&self, c: u8, src: &[u8], dst: &mut [u8]) {
        let lo = &SPLIT.lo[c as usize];
        let hi = &SPLIT.hi[c as usize];
        let mut dst_chunks = dst.chunks_exact_mut(8);
        let mut src_chunks = src.chunks_exact(8);
        for (d, s) in (&mut dst_chunks).zip(&mut src_chunks) {
            for i in 0..8 {
                d[i] ^= lo[(s[i] & 0xF) as usize] ^ hi[(s[i] >> 4) as usize];
            }
        }
        for (d, s) in dst_chunks
            .into_remainder()
            .iter_mut()
            .zip(src_chunks.remainder())
        {
            *d ^= lo[(s & 0xF) as usize] ^ hi[(s >> 4) as usize];
        }
    }

    fn mul_raw(&self, c: u8, src: &[u8], dst: &mut [u8]) {
        let lo = &SPLIT.lo[c as usize];
        let hi = &SPLIT.hi[c as usize];
        for (d, s) in dst.iter_mut().zip(src) {
            *d = lo[(s & 0xF) as usize] ^ hi[(s >> 4) as usize];
        }
    }

    fn mul_in_place_raw(&self, c: u8, buf: &mut [u8]) {
        let lo = &SPLIT.lo[c as usize];
        let hi = &SPLIT.hi[c as usize];
        for b in buf.iter_mut() {
            *b = lo[(*b & 0xF) as usize] ^ hi[(*b >> 4) as usize];
        }
    }
}

// ---------------------------------------------------------------------------
// swar: 64-bit bit-plane multiply-broadcast kernel
// ---------------------------------------------------------------------------

/// The 64-bit SWAR kernel. See the module docs for the construction; the
/// inner loop works on 32-byte blocks (four `u64` words) so the eight
/// independent multiply chains per word overlap across words.
struct SwarKernel;

/// Lane mask with the lowest bit of every byte set.
const LSB: u64 = 0x0101_0101_0101_0101;

/// The eight GF products `c·2ᵇ` for `b` in `0..8`, each as a `u64` so the
/// broadcast multiply needs no per-iteration widening.
#[inline]
fn swar_coeffs(c: u8) -> [u64; 8] {
    let mut cb = [0u64; 8];
    let mut cc = c;
    for slot in cb.iter_mut() {
        *slot = cc as u64;
        // GF doubling: shift, reduce by the primitive polynomial on carry.
        let hi = cc & 0x80;
        cc <<= 1;
        if hi != 0 {
            cc ^= 0x1D;
        }
    }
    cb
}

/// Multiplies all eight byte lanes of `x` by the coefficient described by
/// `cb`. Each `(x >> b) & LSB` selects bit-plane `b`; the integer multiply
/// broadcasts `c·2ᵇ` into exactly the selected lanes, and since every
/// partial product occupies a disjoint byte, addition carries never cross
/// lanes and the XOR accumulation is exact.
#[inline]
fn swar_mul_word(x: u64, cb: &[u64; 8]) -> u64 {
    ((x & LSB).wrapping_mul(cb[0]))
        ^ (((x >> 1) & LSB).wrapping_mul(cb[1]))
        ^ (((x >> 2) & LSB).wrapping_mul(cb[2]))
        ^ (((x >> 3) & LSB).wrapping_mul(cb[3]))
        ^ (((x >> 4) & LSB).wrapping_mul(cb[4]))
        ^ (((x >> 5) & LSB).wrapping_mul(cb[5]))
        ^ (((x >> 6) & LSB).wrapping_mul(cb[6]))
        ^ (((x >> 7) & LSB).wrapping_mul(cb[7]))
}

impl Kernel for SwarKernel {
    fn name(&self) -> &'static str {
        "swar"
    }

    fn mul_acc_raw(&self, c: u8, src: &[u8], dst: &mut [u8]) {
        let cb = swar_coeffs(c);
        let mut dst_chunks = dst.chunks_exact_mut(32);
        let mut src_chunks = src.chunks_exact(32);
        for (d, s) in (&mut dst_chunks).zip(&mut src_chunks) {
            for i in 0..4 {
                let x = u64::from_ne_bytes(s[i * 8..i * 8 + 8].try_into().expect("chunk of 8"));
                let r = u64::from_ne_bytes(d[i * 8..i * 8 + 8].try_into().expect("chunk of 8"))
                    ^ swar_mul_word(x, &cb);
                d[i * 8..i * 8 + 8].copy_from_slice(&r.to_ne_bytes());
            }
        }
        for (d, s) in dst_chunks
            .into_remainder()
            .iter_mut()
            .zip(src_chunks.remainder())
        {
            *d ^= gf_mul_const(c, *s);
        }
    }

    fn mul_raw(&self, c: u8, src: &[u8], dst: &mut [u8]) {
        let cb = swar_coeffs(c);
        let mut dst_chunks = dst.chunks_exact_mut(32);
        let mut src_chunks = src.chunks_exact(32);
        for (d, s) in (&mut dst_chunks).zip(&mut src_chunks) {
            for i in 0..4 {
                let x = u64::from_ne_bytes(s[i * 8..i * 8 + 8].try_into().expect("chunk of 8"));
                d[i * 8..i * 8 + 8].copy_from_slice(&swar_mul_word(x, &cb).to_ne_bytes());
            }
        }
        for (d, s) in dst_chunks
            .into_remainder()
            .iter_mut()
            .zip(src_chunks.remainder())
        {
            *d = gf_mul_const(c, *s);
        }
    }

    fn mul_in_place_raw(&self, c: u8, buf: &mut [u8]) {
        let cb = swar_coeffs(c);
        let mut chunks = buf.chunks_exact_mut(32);
        for d in &mut chunks {
            for i in 0..4 {
                let x = u64::from_ne_bytes(d[i * 8..i * 8 + 8].try_into().expect("chunk of 8"));
                d[i * 8..i * 8 + 8].copy_from_slice(&swar_mul_word(x, &cb).to_ne_bytes());
            }
        }
        for d in chunks.into_remainder() {
            *d = gf_mul_const(c, *d);
        }
    }
}

// ---------------------------------------------------------------------------
// handle, registry, process default
// ---------------------------------------------------------------------------

/// A cheap [`Copy`] handle to a registered kernel.
///
/// The handle owns the non-kernel-specific parts of every operation: length
/// validation, the `c == 0` / `c == 1` fast paths (skip, fill, copy or plain
/// XOR — no kernel ever sees those coefficients), telemetry, and the
/// cache-blocked fused multi-row product [`mul_acc_rows`]
/// (the gemm-style loop used by matrix×data applications).
///
/// [`mul_acc_rows`]: KernelHandle::mul_acc_rows
#[derive(Clone, Copy)]
pub struct KernelHandle {
    inner: &'static (dyn Kernel + Send + Sync),
}

impl std::fmt::Debug for KernelHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("KernelHandle").field(&self.name()).finish()
    }
}

impl KernelHandle {
    /// The kernel's stable name (`"scalar"`, `"split"`, `"swar"`).
    pub fn name(&self) -> &'static str {
        self.inner.name()
    }

    /// `dst[i] ^= src[i]` — adds `src` into `dst` over GF(2⁸).
    ///
    /// XOR is kernel-independent (every kernel would do the same thing), so
    /// the handle implements it directly on `u64` lanes.
    ///
    /// # Panics
    ///
    /// Panics if the two slices have different lengths.
    pub fn add_assign(&self, dst: &mut [u8], src: &[u8]) {
        assert_eq!(dst.len(), src.len(), "slice length mismatch");
        DISPATCH.add(1);
        xor_slices(dst, src);
    }

    /// `dst[i] = c * src[i]` for every byte.
    ///
    /// # Panics
    ///
    /// Panics if the two slices have different lengths.
    pub fn mul(&self, c: Gf256, src: &[u8], dst: &mut [u8]) {
        assert_eq!(dst.len(), src.len(), "slice length mismatch");
        DISPATCH.add(1);
        if c.is_zero() {
            dst.fill(0);
            return;
        }
        if c == Gf256::ONE {
            dst.copy_from_slice(src);
            return;
        }
        MUL_BYTES.add(dst.len() as u64);
        self.inner.mul_raw(c.value(), src, dst);
    }

    /// `buf[i] = c * buf[i]` for every byte, in place.
    pub fn mul_in_place(&self, c: Gf256, buf: &mut [u8]) {
        DISPATCH.add(1);
        if c.is_zero() {
            buf.fill(0);
            return;
        }
        if c == Gf256::ONE {
            return;
        }
        MUL_BYTES.add(buf.len() as u64);
        self.inner.mul_in_place_raw(c.value(), buf);
    }

    /// `dst[i] ^= c * src[i]` — the multiply-accumulate at the heart of
    /// encoding.
    ///
    /// Skips the work entirely when `c` is zero; this is what makes the
    /// sparse generating matrices of Carousel codes (paper §VIII-A, Fig. 5)
    /// encode as cheaply as the RS codes they were built from.
    ///
    /// # Panics
    ///
    /// Panics if the two slices have different lengths.
    pub fn mul_acc(&self, c: Gf256, src: &[u8], dst: &mut [u8]) {
        DISPATCH.add(1);
        self.mul_acc_inner(c, src, dst);
    }

    /// Fused multi-row multiply-accumulate:
    /// `dst[i] ^= Σ terms[t].0 * terms[t].1[i]` — one output row of a
    /// matrix×data product.
    ///
    /// Instead of streaming the full destination once per term, all terms
    /// are accumulated together — cache-blocked on the portable kernels,
    /// register-fused on the SIMD ones (see [`Kernel::mul_acc_rows_raw`]) —
    /// so the destination is read and written from L1/L2 (or registers) no
    /// matter how many source rows contribute. This is the kernel the
    /// decode/repair combine loops use.
    ///
    /// # Panics
    ///
    /// Panics if any source slice's length differs from `dst`'s.
    pub fn mul_acc_rows(&self, terms: &[(Gf256, &[u8])], dst: &mut [u8]) {
        for (_, src) in terms {
            assert_eq!(dst.len(), src.len(), "slice length mismatch");
        }
        DISPATCH.add(1);
        FUSED_ROWS.add(terms.len() as u64);
        // Strip the handle-level fast paths once for the whole product:
        // zero terms vanish, one terms are a plain XOR pass, and only the
        // general coefficients reach the kernel's fused loop. XOR commutes
        // with everything, so accumulation order does not matter.
        let mut raw: Vec<(u8, &[u8])> = Vec::with_capacity(terms.len());
        for &(c, src) in terms {
            if c.is_zero() {
                continue;
            }
            if c == Gf256::ONE {
                XOR_BYTES.add(dst.len() as u64);
                xor_slices(dst, src);
            } else {
                raw.push((c.value(), src));
            }
        }
        if raw.is_empty() {
            return;
        }
        MUL_BYTES.add((dst.len() * raw.len()) as u64);
        self.inner.mul_acc_rows_raw(&raw, dst);
        // Zero-length destinations: still a valid (empty) product.
    }

    /// The shared mul-acc body: fast paths + byte counters, no dispatch
    /// counter (so fused calls count once).
    fn mul_acc_inner(&self, c: Gf256, src: &[u8], dst: &mut [u8]) {
        assert_eq!(dst.len(), src.len(), "slice length mismatch");
        if c.is_zero() {
            return;
        }
        if c == Gf256::ONE {
            XOR_BYTES.add(dst.len() as u64);
            xor_slices(dst, src);
            return;
        }
        MUL_BYTES.add(dst.len() as u64);
        self.inner.mul_acc_raw(c.value(), src, dst);
    }
}

/// `dst ^= src` on `u64` lanes; lengths already validated equal.
fn xor_slices(dst: &mut [u8], src: &[u8]) {
    let mut dst_chunks = dst.chunks_exact_mut(8);
    let mut src_chunks = src.chunks_exact(8);
    for (d, s) in (&mut dst_chunks).zip(&mut src_chunks) {
        let x = u64::from_ne_bytes(d[..8].try_into().expect("chunk of 8"))
            ^ u64::from_ne_bytes(s[..8].try_into().expect("chunk of 8"));
        d.copy_from_slice(&x.to_ne_bytes());
    }
    for (d, s) in dst_chunks
        .into_remainder()
        .iter_mut()
        .zip(src_chunks.remainder())
    {
        *d ^= s;
    }
}

static SCALAR: ScalarKernel = ScalarKernel;
static SPLIT_KERNEL: SplitKernel = SplitKernel;
static SWAR: SwarKernel = SwarKernel;

/// The registry, built once: the three portable kernels in ascending speed
/// order, then every SIMD kernel the CPU supports (again ascending), so the
/// last entry is always the best detected kernel.
static REGISTRY: LazyLock<Vec<KernelHandle>> = LazyLock::new(|| {
    let mut v = vec![
        KernelHandle { inner: &SCALAR },
        KernelHandle {
            inner: &SPLIT_KERNEL,
        },
        KernelHandle { inner: &SWAR },
    ];
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("ssse3") {
            v.push(KernelHandle {
                inner: &simd::SSSE3,
            });
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            v.push(KernelHandle { inner: &simd::AVX2 });
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        if std::arch::is_aarch64_feature_detected!("neon") {
            v.push(KernelHandle { inner: &simd::NEON });
        }
    }
    v
});

/// Every kernel registered on this machine, scalar reference first, best
/// detected kernel last. The portable kernels (`scalar`, `split`, `swar`)
/// are always present; SIMD kernels appear only where runtime CPU-feature
/// detection approved them. Benchmarks and the equivalence proptests
/// iterate this slice, so a kernel is tested exactly where it can run.
pub fn kernels() -> &'static [KernelHandle] {
    &REGISTRY
}

/// The fastest kernel the CPU supports (`avx2` > `ssse3` > `neon` > `swar`
/// in practice) — the process default unless `CAROUSEL_KERNEL` overrides.
pub fn detected_best() -> KernelHandle {
    *REGISTRY.last().expect("registry is never empty")
}

/// The CPU features the registry probes for, with their detection results —
/// diagnostic data for `carousel-tool kernels` and the bench config blocks.
/// Features irrelevant to the build architecture are reported as absent.
pub fn detected_features() -> Vec<(&'static str, bool)> {
    #[cfg(target_arch = "x86_64")]
    {
        vec![
            ("ssse3", std::arch::is_x86_feature_detected!("ssse3")),
            ("avx2", std::arch::is_x86_feature_detected!("avx2")),
            ("neon", false),
        ]
    }
    #[cfg(target_arch = "aarch64")]
    {
        vec![
            ("ssse3", false),
            ("avx2", false),
            ("neon", std::arch::is_aarch64_feature_detected!("neon")),
        ]
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        vec![("ssse3", false), ("avx2", false), ("neon", false)]
    }
}

/// Looks a kernel up by its stable name; `None` for unknown names.
pub fn by_name(name: &str) -> Option<KernelHandle> {
    kernels().iter().copied().find(|k| k.name() == name)
}

/// The process-default kernel, resolved once on first use: the value of
/// `CAROUSEL_KERNEL` if set to a registered name, otherwise the best
/// detected kernel. An unrecognized value is reported on stderr once and
/// the detected best is used.
static DEFAULT: LazyLock<KernelHandle> = LazyLock::new(|| {
    let fallback = detected_best();
    match std::env::var("CAROUSEL_KERNEL") {
        Ok(name) if !name.is_empty() => by_name(&name).unwrap_or_else(|| {
            let registered: Vec<&str> = kernels().iter().map(|k| k.name()).collect();
            eprintln!(
                "warning: CAROUSEL_KERNEL={name:?} is not a registered kernel \
                 (expected one of {}); using detected best {:?}",
                registered.join("/"),
                fallback.name()
            );
            fallback
        }),
        _ => fallback,
    }
});

/// The process-default kernel handle. Cheap to call (one lazy-static read)
/// and the returned handle is `Copy`, so grab it once per operation or hold
/// it — both are fine.
pub fn kernel() -> KernelHandle {
    *DEFAULT
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scalar_mul(c: u8, x: u8) -> u8 {
        (Gf256::new(c) * Gf256::new(x)).value()
    }

    #[test]
    fn registry_names_are_unique_and_resolvable() {
        let names: Vec<_> = kernels().iter().map(|k| k.name()).collect();
        // The portable kernels always lead, in ascending speed order; any
        // further entries are the detection-gated SIMD kernels.
        assert_eq!(&names[..3], &["scalar", "split", "swar"]);
        for extra in &names[3..] {
            assert!(
                ["ssse3", "avx2", "neon"].contains(extra),
                "unexpected registered kernel {extra:?}"
            );
        }
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "duplicate kernel names");
        for n in names {
            assert_eq!(by_name(n).expect("registered").name(), n);
        }
        assert!(by_name("avx512").is_none());
    }

    #[test]
    fn default_kernel_resolves() {
        // Do not assert which one: CAROUSEL_KERNEL may be set in the
        // environment running the tests.
        assert!(by_name(kernel().name()).is_some());
    }

    #[test]
    fn detected_best_is_last_and_registered() {
        let best = detected_best();
        assert_eq!(best.name(), kernels().last().expect("nonempty").name());
        assert!(by_name(best.name()).is_some());
    }

    #[test]
    fn detected_features_match_registry() {
        // A feature reported as detected must have its kernel registered,
        // and vice versa — the registry and the diagnostics cannot drift.
        for (feature, detected) in detected_features() {
            assert_eq!(
                by_name(feature).is_some(),
                detected,
                "feature {feature} detection/registration mismatch"
            );
        }
    }

    #[test]
    fn every_kernel_matches_field_multiply() {
        let src: Vec<u8> = (0..=255u8).chain((0..77).map(|i| (i * 31) as u8)).collect();
        for k in kernels() {
            for c in [0u8, 1, 2, 0x1D, 0x53, 0x85, 0xFF] {
                let mut dst = vec![0u8; src.len()];
                k.mul(Gf256::new(c), &src, &mut dst);
                for (s, d) in src.iter().zip(&dst) {
                    assert_eq!(*d, scalar_mul(c, *s), "{} mul c={c}", k.name());
                }

                let mut acc: Vec<u8> = (0..src.len()).map(|i| (i * 13 + 1) as u8).collect();
                let before = acc.clone();
                k.mul_acc(Gf256::new(c), &src, &mut acc);
                for i in 0..src.len() {
                    assert_eq!(
                        acc[i],
                        before[i] ^ scalar_mul(c, src[i]),
                        "{} mul_acc c={c}",
                        k.name()
                    );
                }

                let mut buf = src.clone();
                k.mul_in_place(Gf256::new(c), &mut buf);
                assert_eq!(buf, dst, "{} mul_in_place c={c}", k.name());
            }
        }
    }

    #[test]
    fn mul_acc_rows_matches_term_by_term() {
        let rows: Vec<Vec<u8>> = (0..5)
            .map(|r| (0..333).map(|i| (i * 7 + r * 101 + 3) as u8).collect())
            .collect();
        let coeffs = [0u8, 1, 0x53, 0xCA, 0xFF];
        for k in kernels() {
            let terms: Vec<(Gf256, &[u8])> = coeffs
                .iter()
                .zip(&rows)
                .map(|(&c, row)| (Gf256::new(c), row.as_slice()))
                .collect();
            let mut fused = vec![0x5Au8; 333];
            k.mul_acc_rows(&terms, &mut fused);
            let mut sequential = vec![0x5Au8; 333];
            for &(c, src) in &terms {
                k.mul_acc(c, src, &mut sequential);
            }
            assert_eq!(fused, sequential, "{}", k.name());
        }
    }

    #[test]
    fn mul_acc_rows_blocks_large_buffers() {
        // Exercise the block loop with a destination spanning several
        // FUSE_BLOCK windows plus a ragged tail.
        let len = FUSE_BLOCK * 2 + 4097;
        let a: Vec<u8> = (0..len).map(|i| (i * 2654435761usize) as u8).collect();
        let b: Vec<u8> = (0..len).map(|i| (i * 40503 + 11) as u8).collect();
        for k in kernels() {
            let mut fused = vec![0u8; len];
            k.mul_acc_rows(
                &[(Gf256::new(0x1D), &a), (Gf256::new(0x85), &b)],
                &mut fused,
            );
            let mut reference = vec![0u8; len];
            k.mul_acc(Gf256::new(0x1D), &a, &mut reference);
            k.mul_acc(Gf256::new(0x85), &b, &mut reference);
            assert_eq!(fused, reference, "{}", k.name());
        }
        // Empty destination is valid.
        for k in kernels() {
            k.mul_acc_rows(&[(Gf256::new(3), &[]), (Gf256::new(7), &[])], &mut []);
        }
    }
}
