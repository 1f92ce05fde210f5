//! The BFJ compilation tier: AST → flat register bytecode → [`CompiledVm`].
//!
//! The tree-walking [`Interp`](crate::Interp) pays for a `HashMap`
//! environment lookup per variable mention, a `Vec<Work>` push/pop per
//! statement, and `Box<Expr>` pointer-chasing per operator. Once the
//! detectors got fast (dense slab shadow stores, inline vector clocks), that
//! interpretive overhead became the dominant cost of every experiment —
//! and the BigFoot overhead ratios are only honest when the *baseline*
//! execution is fast, which is also how the paper's StaticBF placements
//! were meant to be consumed: inlined into compiled code.
//!
//! [`compile`] lowers a (possibly instrumented) program once:
//!
//! * every local resolves to a dense **frame slot** (no hashing at run
//!   time; an init bitmask preserves unbound-variable errors),
//! * every statement becomes exactly **one instruction** carrying its
//!   explicit successor pc(s), so block joins cost zero steps and the
//!   instruction count per schedule equals the interpreter's step count,
//! * field, method, and `new` sites are **pre-bound per class** (the
//!   run-time class indexes a flat table instead of a name lookup),
//! * `check(C)` statements — the StaticBF placements chosen by
//!   `bigfoot-core` — compile to direct [`EventSink`](crate::EventSink)
//!   calls with their field indices pre-resolved per class, and
//! * expressions flatten to postfix register ops over a shared scratch
//!   file, preserving the recursive evaluator's exact evaluation and
//!   type-check order.
//!
//! [`CompiledVm`] then re-implements the interpreter's green-thread
//! scheduler — same quantum accounting, same xorshift64* / Lemire
//! `rand_below` draw sequence, same `wake_blocked` scan order, same
//! deadlock and step-limit behavior — over that bytecode. The contract,
//! enforced by a fuzz oracle and a differential suite, is **byte
//! identity**: for any program and [`SchedPolicy`](crate::SchedPolicy),
//! the BFTR-encoded event stream of the compiled run equals the
//! interpreted run's, bit for bit.

mod lower;
mod vm;

pub use lower::{compile, CompiledProgram};
pub use vm::CompiledVm;
