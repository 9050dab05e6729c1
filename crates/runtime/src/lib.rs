//! # fearless-runtime
//!
//! The operational half of the reproduction: a small-step abstract machine
//! implementing the semantics of §3.2 and §7 of *"A Flexible Type System
//! for Fearless Concurrency"* (PLDI 2022):
//!
//! * a shared heap with the *stored reference counts* of §5.2,
//! * per-thread **dynamic reservations** with pervasive access checks
//!   (erasable for well-typed programs, Theorems 6.1/6.2),
//! * the novel `if disconnected` primitive in both its naive reference
//!   semantics and the efficient interleaved-traversal implementation,
//! * blocking `send`/`recv` rendezvous that transfers reachable subgraphs
//!   between reservations (rule EC3, Fig. 15), and
//! * a deterministic, seedable scheduler for interleaving exploration.
//!
//! ## Example
//!
//! ```
//! use fearless_runtime::{Machine, Value};
//! use fearless_syntax::parse_program;
//!
//! let program = parse_program(
//!     "struct data { value: int }
//!      def roundtrip() : int { send(new data(7)); 0 }
//!      def receive() : int { recv(data).value }",
//! )?;
//! let mut machine = Machine::new(&program)?;
//! machine.spawn("roundtrip", vec![])?;
//! let consumer = machine.spawn("receive", vec![])?;
//! machine.run()?;
//! assert_eq!(machine.thread(consumer).result(), Some(&Value::Int(7)));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub mod compile;
pub mod disconnect;
pub mod error;
pub mod flow;
pub mod heap;
pub mod ir;
pub mod lanes;
pub mod machine;
pub mod sanitize;
pub mod schedule;
pub mod value;

pub use compile::compile;
pub use disconnect::{
    efficient_disconnected, naive_disconnected, DisconnectOutcome, DisconnectStrategy,
};
pub use error::RuntimeError;
pub use flow::{FlowIndex, StepSafety};
pub use heap::{Heap, Object, StructLayout, TypeTable};
pub use ir::{CompiledFn, CompiledProgram, Inst};
pub use lanes::{run_journal, LaneStats};
pub use machine::{Machine, MachineConfig, Stats, Thread, ThreadStatus};
pub use sanitize::{check_domination, check_domination_touched, DominationViolation};
pub use schedule::{RoundRobin, Schedule, SeededRandom};
pub use value::{ObjId, Value};
