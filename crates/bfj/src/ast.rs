//! Abstract syntax for BFJ (BigFoot Java), the idealized language of the
//! paper's §3.1, extended with `fork`/`join`, arithmetic, and array lengths.
//!
//! Statements are in A-normal form: every heap access reads from or writes
//! to a local variable, and conditions are heap-free expressions over
//! locals. The parser performs this lowering automatically, so surface
//! programs may use arbitrary nested expressions.

use crate::Sym;
pub use bigfoot_vc::AccessKind;

/// A unique statement identifier within one [`Program`].
///
/// Ids are assigned by the parser and refreshed by
/// [`Program::renumber`]; the static analysis uses them to key per-point
/// annotations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StmtId(pub u32);

/// A whole BFJ program: class definitions plus a `main` body.
///
/// Additional threads are created dynamically with `fork`, mirroring how
/// the paper's benchmarks spawn workers (the paper's static `s1‖…‖sn` form
/// is the special case of forking at the top of `main`).
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    /// All class definitions, in declaration order.
    pub classes: Vec<ClassDef>,
    /// The body of the initial thread.
    pub main: Block,
}

/// A class: a name, field names, and methods.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassDef {
    /// Class name.
    pub name: Sym,
    /// Field names, in declaration order (field indices at run time).
    pub fields: Vec<Sym>,
    /// Names of fields declared `volatile` (a subset of `fields`).
    /// Volatile accesses synchronize (write = release-like, read =
    /// acquire-like) and are not themselves checked for races (§5).
    pub volatiles: Vec<Sym>,
    /// Methods, in declaration order.
    pub methods: Vec<MethodDef>,
}

/// A method: `m(x̄) { s; return z }`.
#[derive(Debug, Clone, PartialEq)]
pub struct MethodDef {
    /// Method name (resolution is by name within the receiver's class).
    pub name: Sym,
    /// Formal parameters. The receiver is bound to the implicit `this`.
    pub params: Vec<Sym>,
    /// Method body.
    pub body: Block,
    /// The returned expression (atomic after lowering).
    pub ret: Expr,
}

/// A sequence of statements.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Block {
    /// The statements, executed in order.
    pub stmts: Vec<Stmt>,
}

impl Block {
    /// An empty block.
    pub fn new() -> Self {
        Self::default()
    }
}

/// A statement together with its program-unique id.
#[derive(Debug, Clone, PartialEq)]
pub struct Stmt {
    /// Unique id within the program (see [`Program::renumber`]).
    pub id: StmtId,
    /// The statement proper.
    pub kind: StmtKind,
}

impl Stmt {
    /// Wraps a [`StmtKind`] with a placeholder id; call
    /// [`Program::renumber`] before analysis.
    pub fn new(kind: StmtKind) -> Self {
        Stmt {
            id: StmtId(u32::MAX),
            kind,
        }
    }
}

/// BFJ statement forms (paper Fig. 5, plus `fork`/`join`).
#[derive(Debug, Clone, PartialEq)]
pub enum StmtKind {
    /// `skip;`
    Skip,
    /// `x = e;` — heap-free assignment.
    Assign { x: Sym, e: Expr },
    /// `fresh ← old;` — the renaming operator of §3.3: copies `old` into
    /// the fresh variable so `old` can be reassigned without invalidating
    /// analysis history. Inserted by the instrumenter; a no-op at run time
    /// beyond the copy.
    Rename { fresh: Sym, old: Sym },
    /// `if (cond) { … } else { … }`
    If {
        cond: Expr,
        then_b: Block,
        else_b: Block,
    },
    /// `loop { head; if (exit) break; tail }` — the paper's mid-test loop.
    /// `while (c) body` parses into `loop { skip; if (!c) break; body }`
    /// (with any heap reads of `c` lowered into the head).
    Loop {
        head: Block,
        exit: Expr,
        tail: Block,
    },
    /// `acq(lock);` — acquire the monitor of the object in `lock`.
    Acquire { lock: Sym },
    /// `rel(lock);` — release the monitor of the object in `lock`.
    Release { lock: Sym },
    /// `x = new C;`
    New { x: Sym, class: Sym },
    /// `x = new_array e;` (length expression is heap-free).
    NewArray { x: Sym, len: Expr },
    /// `x = obj.field;`
    ReadField { x: Sym, obj: Sym, field: Sym },
    /// `obj.field = src;`
    WriteField { obj: Sym, field: Sym, src: Sym },
    /// `x = arr[idx];` (idx atomic after lowering).
    ReadArr { x: Sym, arr: Sym, idx: Expr },
    /// `arr[idx] = src;`
    WriteArr { arr: Sym, idx: Expr, src: Sym },
    /// `x = recv.meth(args);`
    Call {
        x: Sym,
        recv: Sym,
        meth: Sym,
        args: Vec<Sym>,
    },
    /// `x = fork recv.meth(args);` — spawn a thread running the call;
    /// `x` receives the thread handle. A release-like synchronization.
    Fork {
        x: Sym,
        recv: Sym,
        meth: Sym,
        args: Vec<Sym>,
    },
    /// `join(t);` — wait for the thread in `t`. An acquire-like
    /// synchronization.
    Join { t: Sym },
    /// `wait(lock);` — release the monitor, block until notified, then
    /// re-acquire (Java `Object.wait`). Both a release and an acquire.
    Wait { lock: Sym },
    /// `notify(lock);` — wake every thread waiting on the monitor (Java
    /// `Object.notifyAll`; the caller must hold the monitor).
    Notify { lock: Sym },
    /// `check(C);` — explicit race checks inserted by instrumentation.
    Check { paths: Vec<CheckPath> },
}

/// One element of a `check(C)` statement: a path plus read/write kind.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckPath {
    /// Read check or write check (§5's read/write distinction).
    pub kind: AccessKind,
    /// The heap locations checked.
    pub path: Path,
}

/// A heap path: an object-field group or a strided array range.
#[derive(Debug, Clone, PartialEq)]
pub enum Path {
    /// `base.f1/f2/…/fn` — one or more fields of the object in `base`
    /// (more than one after §4 field coalescing).
    Fields { base: Sym, fields: Vec<Sym> },
    /// `base[lo..hi:step]` — a strided index range of the array in `base`.
    Arr { base: Sym, range: Range },
}

impl Path {
    /// A single-field path `base.field`.
    pub fn field(base: Sym, field: Sym) -> Path {
        Path::Fields {
            base,
            fields: vec![field],
        }
    }

    /// A single-index path `base[idx]`.
    pub fn index(base: Sym, idx: Expr) -> Path {
        Path::Arr {
            base,
            range: Range::singleton(idx),
        }
    }

    /// The designator (base variable) of the path.
    pub fn base(&self) -> Sym {
        match self {
            Path::Fields { base, .. } | Path::Arr { base, .. } => *base,
        }
    }
}

/// A strided index range `lo..hi:step`, denoting
/// `{ lo + i·step | lo + i·step < hi, i ≥ 0 }`.
///
/// Bounds are (heap-free) expressions evaluated when the enclosing check
/// executes; the stride is a positive constant (every strided pattern in
/// the paper's evaluation uses constant strides).
#[derive(Debug, Clone, PartialEq)]
pub struct Range {
    /// Inclusive lower bound.
    pub lo: Expr,
    /// Exclusive upper bound.
    pub hi: Expr,
    /// Positive constant stride.
    pub step: i64,
}

impl Range {
    /// The singleton range `idx..idx+1:1`.
    pub fn singleton(idx: Expr) -> Range {
        let hi = Expr::add(idx.clone(), Expr::Int(1));
        Range {
            lo: idx,
            hi,
            step: 1,
        }
    }

    /// The contiguous range `lo..hi:1`.
    pub fn contiguous(lo: Expr, hi: Expr) -> Range {
        Range { lo, hi, step: 1 }
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Unop {
    /// Integer negation.
    Neg,
    /// Boolean negation.
    Not,
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Binop {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    And,
    Or,
}

impl Binop {
    /// True for comparison operators producing booleans from ints or refs.
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            Binop::Eq | Binop::Ne | Binop::Lt | Binop::Le | Binop::Gt | Binop::Ge
        )
    }
}

/// Heap-free expressions over locals.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Expr {
    /// Integer literal.
    Int(i64),
    /// Boolean literal.
    Bool(bool),
    /// The null reference.
    Null,
    /// A local variable.
    Var(Sym),
    /// Unary operation.
    Unop(Unop, Box<Expr>),
    /// Binary operation.
    Binop(Binop, Box<Expr>, Box<Expr>),
    /// `a.length` — array length; immutable, hence not a heap access for
    /// race purposes (as in Java, length is fixed at allocation).
    Len(Sym),
}

impl Expr {
    /// Convenience constructor for `a + b`.
    ///
    /// An associated constructor, not an operator impl: `Expr` is an AST
    /// node, and `Expr::add(x, y)` builds syntax rather than evaluating.
    #[allow(clippy::should_implement_trait)]
    pub fn add(a: Expr, b: Expr) -> Expr {
        Expr::Binop(Binop::Add, Box::new(a), Box::new(b))
    }

    /// Convenience constructor for `a - b`.
    #[allow(clippy::should_implement_trait)]
    pub fn sub(a: Expr, b: Expr) -> Expr {
        Expr::Binop(Binop::Sub, Box::new(a), Box::new(b))
    }

    /// Convenience constructor for a variable reference.
    pub fn var(s: impl Into<Sym>) -> Expr {
        Expr::Var(s.into())
    }

    /// True for expressions that are already atomic operands in A-normal
    /// form (literals and variables).
    pub fn is_atomic(&self) -> bool {
        matches!(
            self,
            Expr::Int(_) | Expr::Bool(_) | Expr::Null | Expr::Var(_)
        )
    }

    /// Collects the free variables of the expression into `out`.
    pub fn vars(&self, out: &mut Vec<Sym>) {
        match self {
            Expr::Int(_) | Expr::Bool(_) | Expr::Null => {}
            Expr::Var(x) | Expr::Len(x) => out.push(*x),
            Expr::Unop(_, e) => e.vars(out),
            Expr::Binop(_, a, b) => {
                a.vars(out);
                b.vars(out);
            }
        }
    }

    /// True if variable `x` occurs free in the expression.
    pub fn mentions(&self, x: Sym) -> bool {
        match self {
            Expr::Int(_) | Expr::Bool(_) | Expr::Null => false,
            Expr::Var(y) | Expr::Len(y) => *y == x,
            Expr::Unop(_, e) => e.mentions(x),
            Expr::Binop(_, a, b) => a.mentions(x) || b.mentions(x),
        }
    }

    /// Substitutes expression `to` for variable `from`.
    pub fn subst(&self, from: Sym, to: &Expr) -> Expr {
        match self {
            Expr::Var(y) if *y == from => to.clone(),
            Expr::Int(_) | Expr::Bool(_) | Expr::Null | Expr::Var(_) => self.clone(),
            Expr::Len(y) => {
                if *y == from {
                    match to {
                        Expr::Var(z) => Expr::Len(*z),
                        // `len` of a non-variable cannot be represented;
                        // callers treat such facts as killed.
                        _ => self.clone(),
                    }
                } else {
                    self.clone()
                }
            }
            Expr::Unop(op, e) => Expr::Unop(*op, Box::new(e.subst(from, to))),
            Expr::Binop(op, a, b) => Expr::Binop(
                *op,
                Box::new(a.subst(from, to)),
                Box::new(b.subst(from, to)),
            ),
        }
    }
}

impl Program {
    /// Reassigns contiguous [`StmtId`]s to every statement; returns the
    /// number of statements.
    pub fn renumber(&mut self) -> u32 {
        let mut next = 0u32;
        fn walk(b: &mut Block, next: &mut u32) {
            for s in &mut b.stmts {
                s.id = StmtId(*next);
                *next += 1;
                match &mut s.kind {
                    StmtKind::If { then_b, else_b, .. } => {
                        walk(then_b, next);
                        walk(else_b, next);
                    }
                    StmtKind::Loop { head, tail, .. } => {
                        walk(head, next);
                        walk(tail, next);
                    }
                    _ => {}
                }
            }
        }
        for c in &mut self.classes {
            for m in &mut c.methods {
                walk(&mut m.body, &mut next);
            }
        }
        walk(&mut self.main, &mut next);
        next
    }

    /// Looks up a class by name.
    pub fn class(&self, name: Sym) -> Option<&ClassDef> {
        self.classes.iter().find(|c| c.name == name)
    }

    /// Iterates over `(class, method)` pairs.
    pub fn methods(&self) -> impl Iterator<Item = (&ClassDef, &MethodDef)> {
        self.classes
            .iter()
            .flat_map(|c| c.methods.iter().map(move |m| (c, m)))
    }

    /// Total number of statements (after [`Program::renumber`] this equals
    /// the id bound).
    pub fn stmt_count(&self) -> usize {
        fn count(b: &Block) -> usize {
            b.stmts
                .iter()
                .map(|s| {
                    1 + match &s.kind {
                        StmtKind::If { then_b, else_b, .. } => count(then_b) + count(else_b),
                        StmtKind::Loop { head, tail, .. } => count(head) + count(tail),
                        _ => 0,
                    }
                })
                .sum()
        }
        self.methods().map(|(_, m)| count(&m.body)).sum::<usize>() + count(&self.main)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renumber_assigns_unique_ids() {
        let mut p = Program {
            classes: vec![],
            main: Block {
                stmts: vec![
                    Stmt::new(StmtKind::Skip),
                    Stmt::new(StmtKind::If {
                        cond: Expr::Bool(true),
                        then_b: Block {
                            stmts: vec![Stmt::new(StmtKind::Skip)],
                        },
                        else_b: Block::new(),
                    }),
                ],
            },
        };
        let n = p.renumber();
        assert_eq!(n, 3);
        assert_eq!(p.main.stmts[0].id, StmtId(0));
        assert_eq!(p.main.stmts[1].id, StmtId(1));
    }

    #[test]
    fn expr_subst_and_mentions() {
        let x = Sym::intern("x");
        let y = Sym::intern("y");
        let e = Expr::add(Expr::Var(x), Expr::Int(1));
        assert!(e.mentions(x));
        assert!(!e.mentions(y));
        let e2 = e.subst(x, &Expr::Var(y));
        assert!(e2.mentions(y));
        assert!(!e2.mentions(x));
    }

    #[test]
    fn singleton_range_shape() {
        let i = Sym::intern("i");
        let r = Range::singleton(Expr::Var(i));
        assert_eq!(r.step, 1);
        assert_eq!(r.lo, Expr::Var(i));
    }
}
