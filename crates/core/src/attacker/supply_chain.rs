//! Scenario (a): the supply-chain attacker.

use crate::{characterize, CharacterizeError, ErrorString, Fingerprint, FingerprintDb, PcDistance};
use pc_approx::{ApproxMemory, DecayMedium};

/// The supply-chain attacker (threat model scenario *a*): intercepts devices
/// between manufacturer and user, characterizes each completely with chosen
/// inputs, and can later deanonymize any approximate output the device
/// publishes.
///
/// # Example
///
/// ```
/// use pc_approx::{AccuracyTarget, ApproxMemory, DecayMedium};
/// use pc_dram::{ChipId, ChipProfile, DramChip};
/// use probable_cause::{ErrorString, SupplyChainAttacker};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut attacker = SupplyChainAttacker::new(0.25);
///
/// // Interception: fingerprint the device before it ships.
/// let chip = DramChip::new(ChipProfile::km41464a(), ChipId(77));
/// let mut mem = ApproxMemory::with_target(chip, 40.0, AccuracyTarget::percent(99.0)?)?;
/// attacker.fingerprint_device("victim-laptop", &mut mem, 3)?;
///
/// // Deployment: the user publishes an output; the attacker identifies it.
/// let data = mem.medium().worst_case_pattern();
/// let size = data.len() as u64 * 8;
/// let output = ErrorString::from_sorted(mem.store_errors(0, &data), size)?;
/// assert_eq!(attacker.identify(&output), Some(&"victim-laptop"));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct SupplyChainAttacker<L> {
    db: FingerprintDb<L, PcDistance>,
}

impl<L> SupplyChainAttacker<L> {
    /// Creates an attacker whose identification threshold is `threshold`
    /// (paper: any value between the within- and between-class bands works;
    /// 0.25 is comfortably inside the gap).
    ///
    /// # Panics
    ///
    /// Panics unless `threshold` is in `(0, 1]`.
    pub fn new(threshold: f64) -> Self {
        Self {
            db: FingerprintDb::new(PcDistance::new(), threshold),
        }
    }

    /// Characterizes an intercepted device (Algorithm 1): writes the
    /// worst-case pattern, collects `outputs` approximate readbacks, and
    /// stores the intersection of their error strings under `label`.
    /// Returns the fingerprint it stored.
    ///
    /// # Errors
    ///
    /// [`CharacterizeError::NoObservations`] if `outputs` is zero.
    pub fn fingerprint_device<M: DecayMedium>(
        &mut self,
        label: L,
        memory: &mut ApproxMemory<M>,
        outputs: usize,
    ) -> Result<Fingerprint, CharacterizeError> {
        let data = memory.medium().worst_case_pattern();
        let size = data.len() as u64 * 8;
        let observations: Vec<ErrorString> = (0..outputs)
            .map(|_| {
                ErrorString::from_sorted(memory.store_errors(0, &data), size)
                    .expect("store_errors returns sorted in-range positions")
            })
            .collect();
        let fp = characterize(&observations)?;
        self.db.insert(label, fp.clone());
        Ok(fp)
    }

    /// The underlying fingerprint database.
    pub fn db(&self) -> &FingerprintDb<L, PcDistance> {
        &self.db
    }
}

impl<L: Ord> SupplyChainAttacker<L> {
    /// Identifies the device that produced an output's error string
    /// (Algorithm 2, deterministic best-match selection). `None` means "no
    /// fingerprinted device matches".
    pub fn identify(&self, errors: &ErrorString) -> Option<&L> {
        self.db.identify(errors)
    }

    /// Identifies from raw published bytes plus the reconstructed exact
    /// bytes (§8.3 gives the attacker several ways to obtain the latter).
    ///
    /// # Panics
    ///
    /// Panics if the buffers differ in length.
    pub fn identify_output(&self, approx: &[u8], exact: &[u8]) -> Option<&L> {
        self.identify(&ErrorString::from_xor(approx, exact))
    }

    /// The closest fingerprint and its distance, ignoring the threshold.
    pub fn identify_best(&self, errors: &ErrorString) -> Option<(&L, f64)> {
        self.db.identify_best(errors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pc_approx::{AccuracyTarget, CalibrationConfig};
    use pc_dram::{ChipGeometry, ChipId, ChipProfile, DramChip};

    fn memory(id: u64) -> ApproxMemory<DramChip> {
        let chip = DramChip::new(
            ChipProfile::km41464a().with_geometry(ChipGeometry::new(64, 1024, 2)),
            ChipId(id),
        );
        let cfg = CalibrationConfig {
            sample_cells: None,
            ..CalibrationConfig::default()
        };
        ApproxMemory::with_config(chip, 40.0, AccuracyTarget::percent(99.0).unwrap(), cfg).unwrap()
    }

    #[test]
    fn end_to_end_identification() {
        let mut attacker = SupplyChainAttacker::new(0.25);
        let mut victim = memory(1);
        let mut other = memory(2);
        attacker
            .fingerprint_device("victim", &mut victim, 3)
            .unwrap();

        let data = victim.medium().worst_case_pattern();
        let size = data.len() as u64 * 8;
        let out_victim = ErrorString::from_sorted(victim.store_errors(0, &data), size).unwrap();
        let out_other = ErrorString::from_sorted(other.store_errors(0, &data), size).unwrap();

        assert_eq!(attacker.identify(&out_victim), Some(&"victim"));
        assert_eq!(attacker.identify(&out_other), None);
    }

    #[test]
    fn identify_output_from_bytes() {
        let mut attacker = SupplyChainAttacker::new(0.25);
        let mut victim = memory(3);
        attacker.fingerprint_device("v", &mut victim, 3).unwrap();
        let exact = victim.medium().worst_case_pattern();
        let approx = victim.store_readback(0, &exact);
        assert_eq!(attacker.identify_output(&approx, &exact), Some(&"v"));
    }

    #[test]
    fn zero_outputs_fails_characterization() {
        let mut attacker: SupplyChainAttacker<&str> = SupplyChainAttacker::new(0.25);
        let mut victim = memory(4);
        assert_eq!(
            attacker
                .fingerprint_device("v", &mut victim, 0)
                .unwrap_err(),
            CharacterizeError::NoObservations
        );
        assert!(attacker.db().is_empty());
    }

    #[test]
    fn works_across_accuracy_mismatch() {
        // Fingerprint at 99%, identify an output produced at 90%: the paper's
        // key robustness property (§7.5).
        let mut attacker = SupplyChainAttacker::new(0.25);
        let mut victim = memory(5);
        attacker.fingerprint_device("v", &mut victim, 3).unwrap();
        victim
            .set_target(AccuracyTarget::percent(90.0).unwrap())
            .unwrap();
        let data = victim.medium().worst_case_pattern();
        let size = data.len() as u64 * 8;
        let heavy = ErrorString::from_sorted(victim.store_errors(0, &data), size).unwrap();
        assert_eq!(attacker.identify(&heavy), Some(&"v"));
    }
}
