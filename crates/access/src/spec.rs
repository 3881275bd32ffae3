//! The code registry: [`CodeSpec`] names a code family and its parameters
//! in a form that can be written into metadata, and [`AnyCode`] is what it
//! instantiates.
//!
//! This is the one file that knows every family. Adding one means a new
//! variant plus one arm in each of [`CodeSpec::build`], [`CodeSpec::parse`]
//! and `CodeSpec::parts` (which `Display` and [`CodeSpec::n`] read); the
//! file codec, the plan cache and executor, and both transports handle the
//! result as an opaque [`ErasureCode`].

use std::fmt;
use std::sync::Arc;

use carousel::Carousel;
use erasure::{CodeError, ErasureCode};
use msr::{ProductMatrixMbr, ProductMatrixMsr};
use rs_code::ReedSolomon;

/// A runtime-selected code: a shared [`ErasureCode`] trait object, cheap to
/// clone and to hand to worker threads.
pub type AnyCode = Arc<dyn ErasureCode + Send + Sync>;

/// A serializable description of a code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodeSpec {
    /// Systematic `(n, k)` Reed-Solomon.
    Rs {
        /// Blocks per stripe.
        n: usize,
        /// Data blocks per stripe.
        k: usize,
    },
    /// `(n, k, d, p)` Carousel.
    Carousel {
        /// Blocks per stripe.
        n: usize,
        /// Data blocks per stripe.
        k: usize,
        /// Repair degree.
        d: usize,
        /// Data-parallelism degree.
        p: usize,
    },
    /// `(n, k, d)` product-matrix MSR.
    Msr {
        /// Blocks per stripe.
        n: usize,
        /// Data blocks per stripe.
        k: usize,
        /// Repair degree.
        d: usize,
    },
    /// `(n, k, d)` product-matrix MBR.
    Mbr {
        /// Blocks per stripe.
        n: usize,
        /// Data blocks per stripe.
        k: usize,
        /// Repair degree.
        d: usize,
    },
}

impl CodeSpec {
    /// Instantiates the code.
    ///
    /// # Errors
    ///
    /// Propagates construction failures for invalid parameters.
    pub fn build(self) -> Result<AnyCode, CodeError> {
        Ok(match self {
            CodeSpec::Rs { n, k } => Arc::new(ReedSolomon::new(n, k)?),
            CodeSpec::Carousel { n, k, d, p } => Arc::new(Carousel::new(n, k, d, p)?),
            CodeSpec::Msr { n, k, d } => Arc::new(ProductMatrixMsr::new(n, k, d)?),
            CodeSpec::Mbr { n, k, d } => Arc::new(ProductMatrixMbr::new(n, k, d)?),
        })
    }

    /// Parses the `family(n,k,…)` form produced by [`fmt::Display`].
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::InvalidParameters`] on malformed input.
    pub fn parse(s: &str) -> Result<Self, CodeError> {
        let bad = || CodeError::InvalidParameters {
            reason: format!("unparseable code spec: {s:?}"),
        };
        let (kind, rest) = s.split_once('(').ok_or_else(bad)?;
        let rest = rest.strip_suffix(')').ok_or_else(bad)?;
        let nums: Vec<usize> = rest
            .split(',')
            .map(|v| v.trim().parse().map_err(|_| bad()))
            .collect::<Result<_, _>>()?;
        match (kind.trim(), nums.as_slice()) {
            ("rs", &[n, k]) => Ok(CodeSpec::Rs { n, k }),
            ("carousel", &[n, k, d, p]) => Ok(CodeSpec::Carousel { n, k, d, p }),
            ("msr", &[n, k, d]) => Ok(CodeSpec::Msr { n, k, d }),
            ("mbr", &[n, k, d]) => Ok(CodeSpec::Mbr { n, k, d }),
            _ => Err(bad()),
        }
    }

    /// The family keyword and its parameters in spec-string order; `n` is
    /// always first.
    fn parts(self) -> (&'static str, Vec<usize>) {
        match self {
            CodeSpec::Rs { n, k } => ("rs", vec![n, k]),
            CodeSpec::Carousel { n, k, d, p } => ("carousel", vec![n, k, d, p]),
            CodeSpec::Msr { n, k, d } => ("msr", vec![n, k, d]),
            CodeSpec::Mbr { n, k, d } => ("mbr", vec![n, k, d]),
        }
    }

    /// Blocks per stripe, without building the code — what placement needs.
    pub fn n(self) -> usize {
        self.parts().1[0]
    }
}

impl fmt::Display for CodeSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (family, params) = self.parts();
        let params: Vec<String> = params.iter().map(usize::to_string).collect();
        write!(f, "{family}({})", params.join(","))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn code_spec_round_trip() {
        for spec in [
            CodeSpec::Rs { n: 12, k: 6 },
            CodeSpec::Carousel {
                n: 12,
                k: 6,
                d: 10,
                p: 12,
            },
            CodeSpec::Msr { n: 12, k: 6, d: 10 },
            CodeSpec::Mbr { n: 12, k: 6, d: 10 },
        ] {
            assert_eq!(CodeSpec::parse(&spec.to_string()).unwrap(), spec);
            assert_eq!(spec.n(), 12);
            assert_eq!(spec.build().unwrap().n(), 12);
        }
        assert_eq!(
            CodeSpec::Carousel {
                n: 12,
                k: 6,
                d: 10,
                p: 12
            }
            .to_string(),
            "carousel(12,6,10,12)"
        );
        assert!(CodeSpec::parse("nonsense").is_err());
        assert!(CodeSpec::parse("rs(1,2,3)").is_err());
        assert!(CodeSpec::parse("carousel(1,x,3,4)").is_err());
    }

    /// A built code keeps its family's read planner behind the trait
    /// object: Carousel reads from `p` blocks, RS from `k`.
    #[test]
    fn built_codes_keep_their_planner() {
        let all: Vec<usize> = (0..12).collect();
        for (spec, parallelism) in [("rs(12,6)", 6), ("carousel(12,6,10,12)", 12)] {
            let code = CodeSpec::parse(spec).unwrap().build().unwrap();
            assert_eq!(code.plan_read(&all).unwrap().parallelism(), parallelism);
        }
    }
}
