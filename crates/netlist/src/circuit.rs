use crate::error::NetlistError;
use crate::gate::{Gate, GateKind, InputRole};
use std::collections::HashMap;
use std::fmt;

/// Index of a gate inside a [`Circuit`].
///
/// Ids are dense (`0..circuit.num_gates()`), stable for the lifetime of a
/// circuit, and ordered by creation order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GateId(pub(crate) u32);

impl GateId {
    /// The dense index of this gate.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a `GateId` from a dense index.
    ///
    /// Mostly useful for iterating `0..num_gates()`; passing an index that is
    /// out of range for the circuit it is used with will cause panics later.
    pub fn from_index(index: usize) -> Self {
        GateId(index as u32)
    }
}

impl fmt::Display for GateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g{}", self.0)
    }
}

/// An immutable, validated combinational circuit.
///
/// Construct circuits with [`CircuitBuilder`](crate::CircuitBuilder) or parse
/// them with [`Circuit::from_bench`]; both reject cyclic or ill-formed
/// netlists, so every `Circuit` in existence is a DAG whose stored
/// topological order ([`Circuit::topo_order`]) is valid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Circuit {
    pub(crate) name: String,
    pub(crate) gates: Vec<Gate>,
    pub(crate) inputs: Vec<GateId>,
    pub(crate) keys: Vec<GateId>,
    pub(crate) outputs: Vec<GateId>,
    pub(crate) topo: Vec<GateId>,
}

impl Circuit {
    /// The circuit's name (e.g. `"c17"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Total number of gates, including primary and key inputs.
    pub fn num_gates(&self) -> usize {
        self.gates.len()
    }

    /// The gate with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this circuit.
    pub fn gate(&self, id: GateId) -> &Gate {
        &self.gates[id.index()]
    }

    /// Iterates over all gates in id order.
    pub fn gates(&self) -> impl Iterator<Item = &Gate> + '_ {
        self.gates.iter()
    }

    /// Iterates over `(GateId, &Gate)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (GateId, &Gate)> + '_ {
        self.gates
            .iter()
            .enumerate()
            .map(|(i, g)| (GateId(i as u32), g))
    }

    /// Primary (data) input ids, in declaration order.
    pub fn inputs(&self) -> &[GateId] {
        &self.inputs
    }

    /// Key input ids, in declaration order.
    pub fn keys(&self) -> &[GateId] {
        &self.keys
    }

    /// Primary output ids, in declaration order.
    pub fn outputs(&self) -> &[GateId] {
        &self.outputs
    }

    /// Gate ids in a valid topological order (fan-ins before fan-outs).
    pub fn topo_order(&self) -> &[GateId] {
        &self.topo
    }

    /// Looks up a gate id by signal name.
    pub fn find(&self, name: &str) -> Option<GateId> {
        self.gates
            .iter()
            .position(|g| g.name == name)
            .map(|i| GateId(i as u32))
    }

    /// Number of logic gates (everything that is not a primary/key input).
    pub fn num_logic_gates(&self) -> usize {
        self.gates.iter().filter(|g| !g.kind.is_input()).count()
    }

    /// Whether the gate is a key input.
    pub fn is_key_input(&self, id: GateId) -> bool {
        matches!(self.gate(id).kind, GateKind::Input(InputRole::Key))
    }

    /// Directed edges `(from, to)` of the gate connectivity graph,
    /// i.e. one edge per (fan-in, gate) pair, in id order.
    pub fn edges(&self) -> Vec<(GateId, GateId)> {
        let mut edges = Vec::new();
        for (i, gate) in self.gates.iter().enumerate() {
            for &src in &gate.fanin {
                edges.push((src, GateId(i as u32)));
            }
        }
        edges
    }

    /// Fan-out adjacency: for each gate, the gates it feeds.
    pub fn fanouts(&self) -> Vec<Vec<GateId>> {
        let mut out = vec![Vec::new(); self.gates.len()];
        for (i, gate) in self.gates.iter().enumerate() {
            for &src in &gate.fanin {
                out[src.index()].push(GateId(i as u32));
            }
        }
        out
    }

    /// A map from signal name to gate id for every gate in the circuit.
    pub fn name_map(&self) -> HashMap<&str, GateId> {
        self.gates
            .iter()
            .enumerate()
            .map(|(i, g)| (g.name.as_str(), GateId(i as u32)))
            .collect()
    }

    /// Logical bytes of the circuit's storage: the gate records with their
    /// names and fan-in lists, plus the port and topological-order id
    /// lists. Bytes requested, not allocator capacity, so the value is a
    /// pure function of the netlist (see the `budget` crate).
    pub fn logical_bytes(&self) -> u64 {
        let id = std::mem::size_of::<GateId>();
        let gates: usize = self
            .gates
            .iter()
            .map(|g| std::mem::size_of::<Gate>() + g.name.len() + g.fanin.len() * id)
            .sum();
        let ids = self.inputs.len() + self.keys.len() + self.outputs.len() + self.topo.len();
        (self.name.len() + gates + ids * id) as u64
    }

    /// Returns a copy of this circuit with a different name.
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    pub(crate) fn validate_port_width(
        expected: usize,
        actual: usize,
        port: &'static str,
    ) -> Result<(), NetlistError> {
        if expected != actual {
            return Err(NetlistError::BadSimulationWidth {
                expected,
                actual,
                port,
            });
        }
        Ok(())
    }
}

impl fmt::Display for Circuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} gates ({} inputs, {} keys, {} outputs)",
            self.name,
            self.num_gates(),
            self.inputs.len(),
            self.keys.len(),
            self.outputs.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use crate::c17;

    #[test]
    fn c17_shape() {
        let c = c17();
        assert_eq!(c.name(), "c17");
        assert_eq!(c.num_gates(), 11);
        assert_eq!(c.num_logic_gates(), 6);
        assert_eq!(c.inputs().len(), 5);
        assert_eq!(c.keys().len(), 0);
        assert_eq!(c.outputs().len(), 2);
    }

    #[test]
    fn logical_bytes_count_names_and_gates() {
        let c = c17();
        let renamed = c.clone().with_name("c17-renamed");
        assert_eq!(
            renamed.logical_bytes() - c.logical_bytes(),
            ("c17-renamed".len() - "c17".len()) as u64
        );
        // At least one gate record per gate, and every fan-in id.
        let floor = c.num_gates() * std::mem::size_of::<crate::Gate>() + 12 * 4;
        assert!(c.logical_bytes() > floor as u64);
    }

    #[test]
    fn edges_match_fanin_counts() {
        let c = c17();
        let total_fanin: usize = c.gates().map(|g| g.fanin().len()).sum();
        assert_eq!(c.edges().len(), total_fanin);
        // Each NAND in c17 has 2 fan-ins.
        assert_eq!(total_fanin, 12);
    }

    #[test]
    fn fanouts_are_inverse_of_fanins() {
        let c = c17();
        let fanouts = c.fanouts();
        for (id, gate) in c.iter() {
            for &src in gate.fanin() {
                assert!(fanouts[src.index()].contains(&id));
            }
        }
    }

    #[test]
    fn find_resolves_names() {
        let c = c17();
        let id = c.find("n22").expect("c17 defines n22");
        assert_eq!(c.gate(id).name(), "n22");
        assert!(c.find("nonexistent").is_none());
    }

    #[test]
    fn topo_order_respects_dependencies() {
        let c = c17();
        let pos: Vec<usize> = {
            let mut pos = vec![0; c.num_gates()];
            for (rank, id) in c.topo_order().iter().enumerate() {
                pos[id.index()] = rank;
            }
            pos
        };
        for (id, gate) in c.iter() {
            for &src in gate.fanin() {
                assert!(pos[src.index()] < pos[id.index()]);
            }
        }
    }
}
