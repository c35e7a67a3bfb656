//! Fingerprints: the stable cores of error patterns.

use crate::ErrorString;

/// A device (or page) fingerprint: the error bits that survived intersection
/// across every observed output, plus how many observations back it.
///
/// More observations shrink the fingerprint toward the device's most volatile
/// cells, which is what keeps fingerprints small ("approximately 1% of the
/// bits", §4) and robust to trial noise.
///
/// # Example
///
/// ```
/// use probable_cause::{ErrorString, Fingerprint};
/// let o1 = ErrorString::from_sorted(vec![1, 4, 9], 16)?;
/// let o2 = ErrorString::from_sorted(vec![1, 9, 12], 16)?;
/// let fp = Fingerprint::from_observation(o1).refine(&o2)?;
/// assert_eq!(fp.errors().positions(), &[1, 9]);
/// assert_eq!(fp.observations(), 2);
/// # Ok::<(), probable_cause::BitStringError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    errors: ErrorString,
    observations: u32,
}

impl Fingerprint {
    /// Starts a fingerprint from a single observed error string.
    pub fn from_observation(errors: ErrorString) -> Self {
        Self {
            errors,
            observations: 1,
        }
    }

    /// Reassembles a fingerprint from stored parts (database loading).
    ///
    /// # Panics
    ///
    /// Panics if `observations` is zero — a fingerprint is always backed by
    /// at least one observation.
    pub fn from_parts(errors: ErrorString, observations: u32) -> Self {
        assert!(
            observations > 0,
            "a fingerprint needs at least one observation"
        );
        Self {
            errors,
            observations,
        }
    }

    /// Refines the fingerprint with another observation (intersection), the
    /// incremental form of Algorithm 1.
    ///
    /// # Errors
    ///
    /// Propagates a size mismatch.
    pub fn refine(&self, observation: &ErrorString) -> Result<Fingerprint, crate::BitStringError> {
        Ok(Fingerprint {
            errors: self.errors.intersect(observation)?,
            observations: self.observations + 1,
        })
    }

    /// Widens the fingerprint with another observation (union). The
    /// complement of [`Fingerprint::refine`], used when observations carry
    /// *data-dependent* error subsets: only cells that were charged could
    /// fail, so the union across differently-charged outputs converges to the
    /// full volatile-cell set.
    ///
    /// # Errors
    ///
    /// Propagates a size mismatch.
    pub fn extend(&self, observation: &ErrorString) -> Result<Fingerprint, crate::BitStringError> {
        Ok(Fingerprint {
            errors: self.errors.union(observation)?,
            observations: self.observations + 1,
        })
    }

    /// Merges two fingerprints for the same region (intersection, summed
    /// observation counts) — used when stitching clusters together.
    ///
    /// # Errors
    ///
    /// Propagates a size mismatch.
    pub fn merge(&self, other: &Fingerprint) -> Result<Fingerprint, crate::BitStringError> {
        Ok(Fingerprint {
            errors: self.errors.intersect(&other.errors)?,
            observations: self.observations + other.observations,
        })
    }

    /// Union counterpart of [`Fingerprint::merge`].
    ///
    /// # Errors
    ///
    /// Propagates a size mismatch.
    pub fn merge_union(&self, other: &Fingerprint) -> Result<Fingerprint, crate::BitStringError> {
        Ok(Fingerprint {
            errors: self.errors.union(&other.errors)?,
            observations: self.observations + other.observations,
        })
    }

    /// The fingerprint's error bits.
    pub fn errors(&self) -> &ErrorString {
        &self.errors
    }

    /// Number of observations intersected into this fingerprint.
    pub fn observations(&self) -> u32 {
        self.observations
    }

    /// Number of error bits in the fingerprint.
    pub fn weight(&self) -> u64 {
        self.errors.weight()
    }
}

impl From<ErrorString> for Fingerprint {
    fn from(errors: ErrorString) -> Self {
        Fingerprint::from_observation(errors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn es(bits: &[u64]) -> ErrorString {
        ErrorString::from_sorted(bits.to_vec(), 64).unwrap()
    }

    #[test]
    fn refine_shrinks_monotonically() {
        let fp = Fingerprint::from_observation(es(&[1, 2, 3, 4, 5]));
        let fp2 = fp.refine(&es(&[2, 3, 4, 5, 6])).unwrap();
        let fp3 = fp2.refine(&es(&[3, 4, 5, 6, 7])).unwrap();
        assert!(fp2.weight() <= fp.weight());
        assert!(fp3.weight() <= fp2.weight());
        assert_eq!(fp3.errors().positions(), &[3, 4, 5]);
        assert_eq!(fp3.observations(), 3);
    }

    #[test]
    fn merge_sums_observations() {
        let a = Fingerprint::from_observation(es(&[1, 2, 3]))
            .refine(&es(&[1, 2, 3]))
            .unwrap();
        let b = Fingerprint::from_observation(es(&[2, 3, 4]));
        let m = a.merge(&b).unwrap();
        assert_eq!(m.observations(), 3);
        assert_eq!(m.errors().positions(), &[2, 3]);
    }

    #[test]
    fn size_mismatch_propagates() {
        let a = Fingerprint::from_observation(es(&[1]));
        let other = ErrorString::from_sorted(vec![1], 128).unwrap();
        assert!(a.refine(&other).is_err());
    }

    #[test]
    fn from_error_string_conversion() {
        let fp: Fingerprint = es(&[7]).into();
        assert_eq!(fp.observations(), 1);
        assert_eq!(fp.weight(), 1);
    }
}
