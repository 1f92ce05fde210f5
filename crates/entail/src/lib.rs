//! Entailment engine for the BigFoot static analysis.
//!
//! The paper's S TATIC BF implementation discharges history and
//! anticipated-set entailments (`H ⊢ h`, `H•A ⊢ a`) with the Z3 SMT
//! solver. All of those queries fall into a small fragment — linear
//! integer arithmetic over method locals, heap-alias congruence, strided
//! index ranges, and divisibility side conditions — so this crate
//! implements a dedicated, deterministic decision procedure for exactly
//! that fragment instead of binding an external solver.
//!
//! The three layers:
//!
//! * [`Lin`]/[`linearize`]: normalization of BFJ expressions into linear
//!   forms (non-linear subterms become opaque atoms compared
//!   syntactically);
//! * [`Kb`]: a fact base answering boolean entailment via
//!   Fourier–Motzkin refutation, reference equality via congruence
//!   closure, and `≡ (mod m)` queries; the [`Kb`]s of one analysis run
//!   share their verdicts through one [`Verdicts`] cache;
//! * [`SymRange`] with [`subsumes`], [`covered_by_union`], and
//!   [`coalesce`]: the strided-range algebra used for array-check motion
//!   and the §4 coalescing step.
//!
//! Every query is *conservative*: an unprovable entailment simply means
//! the analysis places an extra (legitimate) check, never an unsound one.
//!
//! # Examples
//!
//! ```
//! use bigfoot_entail::{coalesce, Kb, SymRange, linearize};
//! use bigfoot_bfj::Expr;
//!
//! // Coalesce a[0..i'] ∪ {i'} into a[0..i'+1] (the paper's Fig. 6(b)).
//! let mut kb = Kb::new();
//! // The loop context knows i >= 0.
//! kb.assume(&Expr::Binop(
//!     bigfoot_bfj::Binop::Ge,
//!     Box::new(Expr::var("i")),
//!     Box::new(Expr::Int(0)),
//! ));
//! let i = linearize(&Expr::var("i")).unwrap();
//! let prefix = SymRange { lo: linearize(&Expr::Int(0)).unwrap(), hi: i.clone(), step: 1 };
//! let last = SymRange::singleton(i);
//! let merged = coalesce(&mut kb, &[prefix, last]).unwrap();
//! assert_eq!(merged.to_ast().step, 1);
//! ```

mod fm;
mod kb;
mod lin;
mod obs;
mod range;

pub use kb::{AliasRhs, Kb, Verdicts};
pub use lin::{linearize, Atom, Lin};
pub use range::{coalesce, covered_by_union, subsumes, SymRange};
