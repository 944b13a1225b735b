//! Gate-level netlist intermediate representation for combinational circuits.
//!
//! This crate is the substrate of the ICNet reproduction: every other crate
//! (obfuscation, SAT attack, dataset generation, graph learning) consumes the
//! [`Circuit`] type defined here.
//!
//! # Features
//!
//! * A validated, immutable [`Circuit`] DAG built through [`CircuitBuilder`].
//! * The ISCAS-85 `.bench` text format ([`Circuit::from_bench`],
//!   [`Circuit::to_bench`]), including a key-input naming convention used by
//!   logic-locking benchmarks.
//! * 64-way bit-parallel logic simulation ([`Circuit::simulate`]).
//! * Topological analysis: levelization, depth, fanout maps ([`topo`]).
//! * Circuit statistics for feature engineering ([`stats`]).
//! * The genuine ISCAS-85 `c17` circuit embedded for tests and examples
//!   ([`c17`]).
//!
//! # Example
//!
//! ```
//! use netlist::{c17, GateKind};
//!
//! let circuit = c17();
//! assert_eq!(circuit.inputs().len(), 5);
//! assert_eq!(circuit.outputs().len(), 2);
//! // All six internal gates of c17 are NANDs.
//! let nands = circuit
//!     .gates()
//!     .filter(|g| matches!(g.kind(), GateKind::Nand))
//!     .count();
//! assert_eq!(nands, 6);
//! ```

mod bench_format;
mod builder;
mod c17;
mod circuit;
mod error;
mod gate;
mod sim;
pub mod stats;
pub mod topo;

pub use bench_format::{parse_bench, write_bench, KEY_INPUT_PREFIX};
pub use builder::CircuitBuilder;
pub use c17::c17;
pub use circuit::{Circuit, GateId};
pub use error::NetlistError;
pub use gate::{Gate, GateKind, InputRole, TruthTable};
pub use sim::SimPatterns;
