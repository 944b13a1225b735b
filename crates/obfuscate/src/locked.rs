use crate::error::ObfuscateError;
use crate::key::Key;
use crate::scheme::SchemeKind;
use netlist::{Circuit, CircuitBuilder, GateId, GateKind, TruthTable};

/// A locked netlist bundled with its secret and its provenance.
///
/// `selected` lists the obfuscated gate ids **in the original circuit** —
/// this is the paper's "encryption location" vector, the input (together
/// with the original topology) of the runtime-prediction model.
#[derive(Debug, Clone, PartialEq)]
pub struct LockedCircuit {
    /// The unlocked source netlist.
    pub original: Circuit,
    /// The keyed netlist the attacker sees.
    pub locked: Circuit,
    /// The correct key.
    pub key: Key,
    /// Ids (in `original`) of the gates chosen for obfuscation.
    pub selected: Vec<GateId>,
    /// Which locking family produced this instance.
    pub scheme: SchemeKind,
}

impl LockedCircuit {
    /// Number of key bits the locked circuit expects.
    pub fn key_len(&self) -> usize {
        self.locked.keys().len()
    }

    /// Resolves the locked netlist under `key` into a key-free circuit by
    /// replacing every key input with a constant (a 0-input LUT).
    ///
    /// # Errors
    ///
    /// Returns [`ObfuscateError::KeyLengthMismatch`] for a wrong-sized key
    /// and propagates netlist rebuild failures.
    pub fn apply_key(&self, key: &Key) -> Result<Circuit, ObfuscateError> {
        if key.len() != self.key_len() {
            return Err(ObfuscateError::KeyLengthMismatch {
                expected: self.key_len(),
                actual: key.len(),
            });
        }
        let mut builder = CircuitBuilder::new(format!("{}_unlocked", self.locked.name()));
        let mut map: Vec<Option<GateId>> = vec![None; self.locked.num_gates()];
        for (id, gate) in self.locked.iter() {
            let new_id = match gate.kind() {
                GateKind::Input(netlist::InputRole::Data) => {
                    builder.add_input(gate.name().to_owned())?
                }
                GateKind::Input(netlist::InputRole::Key) => {
                    let pos = self
                        .locked
                        .keys()
                        .iter()
                        .position(|&k| k == id)
                        .expect("key input is in the key port list");
                    let constant =
                        TruthTable::new(0, key.bit(pos) as u64).expect("0-input tables are valid");
                    builder.add_gate(gate.name().to_owned(), GateKind::Lut(constant), &[])?
                }
                _ => {
                    let fanin: Vec<GateId> = gate
                        .fanin()
                        .iter()
                        .map(|f| map[f.index()].expect("id order is topological"))
                        .collect();
                    builder.add_gate(gate.name().to_owned(), gate.kind().clone(), &fanin)?
                }
            };
            map[id.index()] = Some(new_id);
        }
        for &out in self.locked.outputs() {
            builder.mark_output(map[out.index()].expect("all gates mapped"));
        }
        Ok(builder.finish()?)
    }

    /// Checks whether `key` restores the original function, by exhaustive
    /// simulation for small input counts and 1024 random 64-bit-parallel
    /// pattern words otherwise.
    ///
    /// # Errors
    ///
    /// Same conditions as [`LockedCircuit::apply_key`].
    pub fn verify_key(&self, key: &Key) -> Result<bool, ObfuscateError> {
        let applied = self.apply_key(key)?;
        Ok(self
            .original
            .equiv_random(&applied, &[], &[], 16, 0xACE1_F00D)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{lock_random, SchemeKind};

    #[test]
    fn apply_key_rejects_wrong_length() {
        let locked = lock_random(&netlist::c17(), SchemeKind::XorLock, 2, 0).unwrap();
        let err = locked.apply_key(&Key::from_bits([true])).unwrap_err();
        assert!(matches!(
            err,
            ObfuscateError::KeyLengthMismatch {
                expected: 2,
                actual: 1
            }
        ));
    }

    #[test]
    fn applied_circuit_has_no_keys() {
        let locked =
            lock_random(&netlist::c17(), SchemeKind::LutLock { lut_size: 2 }, 2, 0).unwrap();
        let applied = locked.apply_key(&locked.key).unwrap();
        assert!(applied.keys().is_empty());
        assert_eq!(applied.inputs().len(), 5);
        assert_eq!(applied.outputs().len(), 2);
    }

    #[test]
    fn key_len_matches_scheme() {
        let locked =
            lock_random(&netlist::c17(), SchemeKind::LutLock { lut_size: 3 }, 2, 0).unwrap();
        assert_eq!(locked.key_len(), 2 * 8);
    }
}
