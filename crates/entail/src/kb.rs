//! The knowledge base: decides entailment of boolean, aliasing, and
//! modular-arithmetic facts.
//!
//! This is the reproduction's stand-in for the paper's use of Z3 (§3.4,
//! §5). The check-placement analysis only ever asks questions of a very
//! restricted shape — linear inequalities over locals, reference equality
//! under heap-alias assumptions, and stride/divisibility side conditions —
//! so a small, complete-enough decision procedure covers it:
//!
//! * linear arithmetic: Fourier–Motzkin refutation over [`Lin`] facts;
//! * reference equality: union-find plus congruence closure over field and
//!   element alias facts (`x = y.f`, `x = y[i]`);
//! * divisibility: congruence facts `e ≡ 0 (mod m)` matched up to constant
//!   differences.
//!
//! All answers are conservative: "don't know" means *not entailed*, which
//! at worst places a redundant check (never an unsound one).

use crate::fm::Fm;
use crate::lin::{linearize, Atom, Lin};
use bigfoot_bfj::{Binop, Expr, Sym, Unop};
use bigfoot_obs::fx::FxHashMap;
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

/// A heap-alias right-hand side: what a variable was loaded from.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum AliasRhs {
    /// `x = base.field`
    Field {
        /// The object variable.
        base: Sym,
        /// The field name.
        field: Sym,
    },
    /// `x = base[index]`
    Elem {
        /// The array variable.
        base: Sym,
        /// The normalized index.
        index: Lin,
    },
}

/// Entailment verdicts shared by every [`Kb`] built for one analysis run.
///
/// The placement analysis builds a fresh [`Kb`] for every history it
/// consults, and the placement pass re-asks most of the questions the
/// recording pre-pass already answered on the same histories. A cache
/// keyed by the exact question answers those repeats across `Kb`s:
///
/// * each fact list a [`Kb`] is built from ([`Kb::from_facts`]) is
///   interned to a fact-list id; equal fact lists build equal `Kb`s, so
///   [`Kb::entails`] verdicts are keyed by (fact-list id, query) and
///   [`Kb::is_inconsistent`] verdicts by fact-list id, and a `Kb` whose
///   questions are all answered that way never assumes its facts;
/// * each distinct set of canonical inequality rows (sorted, since row
///   order cannot change a Fourier–Motzkin verdict) is interned to a
///   fact-set id; [`Kb::proves_nonneg`] verdicts are keyed by (fact-set
///   id, canonical query), [`Kb::is_inconsistent`] verdicts by fact-set
///   id.
///
/// Cloning shares the cache. Create one per analysis run and drop it at
/// the end of the run; [`Kb::new`] gives a `Kb` a private one.
#[derive(Debug, Clone, Default)]
pub struct Verdicts(Rc<RefCell<VerdictCache>>);

#[derive(Debug, Default)]
struct VerdictCache {
    /// Boolean facts, then alias facts → fact-list id.
    list_ids: FxHashMap<Rc<[Expr]>, FxHashMap<Rc<AliasFacts>, u32>>,
    /// Fact lists by id.
    lists: Vec<FactList>,
    /// Sorted canonical inequality rows → fact-set id.
    fact_sets: FxHashMap<Vec<Lin>, u32>,
    /// [`Kb::is_inconsistent`] verdicts, indexed by fact-set id.
    inconsistent: Vec<Option<bool>>,
    /// [`Kb::proves_nonneg`] verdicts by (fact-set id, canonical query).
    nonneg: FxHashMap<(u32, Lin), bool>,
    /// Fourier–Motzkin buffers reused across queries.
    fm: Fm,
}

/// Alias facts `x = rhs`, in assumption order.
type AliasFacts = [(Sym, AliasRhs)];

/// An interned fact list and the verdicts known for it.
#[derive(Debug)]
struct FactList {
    bools: Rc<[Expr]>,
    aliases: Rc<AliasFacts>,
    /// [`Kb::entails`] verdicts by query.
    entails: FxHashMap<Expr, bool>,
    /// The [`Kb::is_inconsistent`] verdict.
    inconsistent: Option<bool>,
}

impl Verdicts {
    /// An empty cache.
    pub fn new() -> Verdicts {
        Verdicts::default()
    }

    /// The id of a fact list.
    fn intern_facts(&self, bools: &[Expr], aliases: &AliasFacts) -> u32 {
        let mut c = self.0.borrow_mut();
        if let Some(&id) = c.list_ids.get(bools).and_then(|m| m.get(aliases)) {
            return id;
        }
        let id = u32::try_from(c.lists.len()).expect("fact-list ids fit in u32");
        let list = FactList {
            bools: bools.into(),
            aliases: aliases.into(),
            entails: FxHashMap::default(),
            inconsistent: None,
        };
        let by_aliases = match c.list_ids.get_mut(bools) {
            Some(m) => m,
            None => c.list_ids.entry(list.bools.clone()).or_default(),
        };
        by_aliases.insert(list.aliases.clone(), id);
        c.lists.push(list);
        id
    }

    /// The id of a sorted set of canonical inequality rows.
    fn intern_rows(&self, rows: &[Lin]) -> u32 {
        let mut c = self.0.borrow_mut();
        if let Some(&id) = c.fact_sets.get(rows) {
            return id;
        }
        let id = u32::try_from(c.inconsistent.len()).expect("fact-set ids fit in u32");
        c.inconsistent.push(None);
        c.fact_sets.insert(rows.to_vec(), id);
        id
    }
}

/// A set of assumed facts with entailment queries.
///
/// # Examples
///
/// ```
/// use bigfoot_entail::Kb;
/// use bigfoot_bfj::{Expr, Sym};
///
/// let mut kb = Kb::new();
/// // assume i = j
/// kb.assume(&Expr::Binop(
///     bigfoot_bfj::Binop::Eq,
///     Box::new(Expr::var("i")),
///     Box::new(Expr::var("j")),
/// ));
/// // then i + 1 > j holds
/// let q = Expr::Binop(
///     bigfoot_bfj::Binop::Gt,
///     Box::new(Expr::add(Expr::var("i"), Expr::Int(1))),
///     Box::new(Expr::var("j")),
/// );
/// assert!(kb.entails(&q));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Kb {
    /// Inequality facts, each meaning `lin >= 0`.
    ineqs: Vec<Lin>,
    /// Congruence facts, each meaning `lin ≡ 0 (mod m)`.
    congs: Vec<(Lin, i64)>,
    /// Union-find over reference variables.
    parent: HashMap<Sym, Sym>,
    /// Alias facts `lhs = rhs`.
    aliases: Vec<(Sym, AliasRhs)>,
    /// Whether the congruence closure is up to date.
    closed: bool,
    /// Bumped by every public assumption, so the fact-set id below can
    /// tell whether the knowledge base has changed since it was computed.
    /// Canonicalization is stable within one generation (the congruence
    /// closure is idempotent between assumptions).
    generation: u64,
    /// Canonicalized inequality rows, sorted, and their fact-set id in
    /// `verdicts`, valid for the recorded generation.
    canon_rows: Vec<Lin>,
    fact_set: Option<(u64, u32)>,
    /// The fact-list id of a `Kb` built by [`Kb::from_facts`], until the
    /// next public assumption.
    fact_list: Option<u32>,
    /// True while the facts of `fact_list` are not yet assumed: they are
    /// loaded on the first question the shared verdicts cannot answer.
    unloaded: bool,
    /// The verdict cache this knowledge base reads and fills.
    verdicts: Verdicts,
}

impl Kb {
    /// An empty knowledge base (entails only tautologies) with a private
    /// verdict cache.
    pub fn new() -> Kb {
        Kb::default()
    }

    /// A knowledge base assuming `bools` and then `aliases`, sharing
    /// `verdicts` with every other `Kb` built from it.
    pub fn from_facts(verdicts: &Verdicts, bools: &[Expr], aliases: &[(Sym, AliasRhs)]) -> Kb {
        Kb {
            fact_list: Some(verdicts.intern_facts(bools, aliases)),
            unloaded: true,
            verdicts: verdicts.clone(),
            ..Kb::default()
        }
    }

    /// Assumes the facts of `fact_list` if they are not assumed yet.
    fn load(&mut self) {
        if !std::mem::take(&mut self.unloaded) {
            return;
        }
        let Some(id) = self.fact_list else { return };
        let (bools, aliases) = {
            let c = self.verdicts.0.borrow();
            let list = &c.lists[id as usize];
            (list.bools.clone(), list.aliases.clone())
        };
        for b in bools.iter() {
            self.assume_expr(b);
        }
        for (x, rhs) in aliases.iter() {
            self.push_alias(*x, rhs.clone());
        }
    }

    /// Assumes a boolean expression. Conjunctions are split; comparisons
    /// become linear facts; `e % m == 0` becomes a congruence fact;
    /// disjunctions and other unhandled forms are soundly ignored.
    pub fn assume(&mut self, e: &Expr) {
        self.load();
        self.fact_list = None;
        self.assume_expr(e);
    }

    fn assume_expr(&mut self, e: &Expr) {
        self.generation = self.generation.wrapping_add(1);
        match e {
            Expr::Binop(Binop::And, a, b) => {
                self.assume_expr(a);
                self.assume_expr(b);
            }
            Expr::Unop(Unop::Not, inner) => {
                if let Some(neg) = negate_cmp(inner) {
                    self.assume_expr(&neg);
                }
            }
            Expr::Binop(op, a, b) if op.is_comparison() => {
                self.assume_cmp(*op, a, b);
            }
            _ => {}
        }
    }

    fn assume_cmp(&mut self, op: Binop, a: &Expr, b: &Expr) {
        // Recognize `x % m == c` and `(x - l) % m == 0` as congruences.
        if op == Binop::Eq {
            if let (Expr::Binop(Binop::Mod, inner, m), Expr::Int(c)) = (a, b) {
                if let (Some(li), Expr::Int(m)) = (linearize(inner), m.as_ref()) {
                    if *m > 0 {
                        self.congs.push((li.offset(-*c), *m));
                        return;
                    }
                }
            }
            if let (Expr::Int(c), Expr::Binop(Binop::Mod, inner, m)) = (a, b) {
                if let (Some(li), Expr::Int(m)) = (linearize(inner), m.as_ref()) {
                    if *m > 0 {
                        self.congs.push((li.offset(-*c), *m));
                        return;
                    }
                }
            }
            // Reference equality between variables.
            if let (Expr::Var(x), Expr::Var(y)) = (a, b) {
                self.union(*x, *y);
            }
        }
        let (Some(la), Some(lb)) = (linearize(a), linearize(b)) else {
            return;
        };
        match op {
            // a == b  →  a-b >= 0 ∧ b-a >= 0
            Binop::Eq => {
                self.ineqs.push(la.sub(&lb));
                self.ineqs.push(lb.sub(&la));
            }
            Binop::Le => self.ineqs.push(lb.sub(&la)),
            Binop::Lt => self.ineqs.push(lb.sub(&la).offset(-1)),
            Binop::Ge => self.ineqs.push(la.sub(&lb)),
            Binop::Gt => self.ineqs.push(la.sub(&lb).offset(-1)),
            Binop::Ne => {} // disjunction: ignored
            _ => {}
        }
    }

    /// Assumes a heap-alias fact `x = rhs` (recorded on field/array reads).
    pub fn assume_alias(&mut self, x: Sym, rhs: AliasRhs) {
        self.load();
        self.fact_list = None;
        self.push_alias(x, rhs);
    }

    fn push_alias(&mut self, x: Sym, rhs: AliasRhs) {
        self.generation = self.generation.wrapping_add(1);
        self.aliases.push((x, rhs));
        self.closed = false;
    }

    /// Assumes `x` and `y` hold the same value (copy or rename). Records
    /// both the numeric equality and the reference equality.
    pub fn assume_var_eq(&mut self, x: Sym, y: Sym) {
        self.load();
        self.fact_list = None;
        self.generation = self.generation.wrapping_add(1);
        let lx = Lin::var(x);
        let ly = Lin::var(y);
        self.ineqs.push(lx.sub(&ly));
        self.ineqs.push(ly.sub(&lx));
        self.union(x, y);
    }

    // ---------------- reference equality ----------------

    fn find(&self, x: Sym) -> Sym {
        let mut cur = x;
        while let Some(&p) = self.parent.get(&cur) {
            if p == cur {
                break;
            }
            cur = p;
        }
        cur
    }

    fn union(&mut self, x: Sym, y: Sym) {
        let rx = self.find(x);
        let ry = self.find(y);
        if rx != ry {
            self.parent.insert(rx, ry);
            self.closed = false;
        }
    }

    /// Runs congruence closure over the alias facts: two variables loaded
    /// from the same field of equal objects (or the same index of equal
    /// arrays) are themselves equal references. Loads pending facts first,
    /// so every question that reads the facts passes through here.
    fn close(&mut self) {
        self.load();
        if self.closed {
            return;
        }
        loop {
            let mut changed = false;
            let mut by_key: HashMap<(Sym, Option<Sym>, Option<Lin>), Sym> = HashMap::new();
            let aliases = self.aliases.clone();
            for (lhs, rhs) in &aliases {
                let key = match rhs {
                    AliasRhs::Field { base, field } => (self.find(*base), Some(*field), None),
                    AliasRhs::Elem { base, index } => {
                        (self.find(*base), None, Some(self.canon_lin(index)))
                    }
                };
                match by_key.get(&key) {
                    Some(&prev) => {
                        if self.find(prev) != self.find(*lhs) {
                            self.union(prev, *lhs);
                            changed = true;
                        }
                    }
                    None => {
                        by_key.insert(key, *lhs);
                    }
                }
            }
            if !changed {
                break;
            }
        }
        self.closed = true;
    }

    /// Canonicalizes the atoms of a linear term against the union-find.
    fn canon_lin(&self, l: &Lin) -> Lin {
        let mut out = Lin::constant(l.konst);
        for (a, &c) in &l.terms {
            let a = match a {
                Atom::Var(x) => Atom::Var(self.find(*x)),
                Atom::Len(x) => Atom::Len(self.find(*x)),
                Atom::Opaque(s) => Atom::Opaque(*s),
            };
            let e = out.terms.entry(a).or_insert(0);
            *e = e.wrapping_add(c);
            if *e == 0 {
                out.terms.remove(&a);
            }
        }
        out
    }

    /// True if `x` and `y` provably reference the same object/array.
    pub fn refs_equal(&mut self, x: Sym, y: Sym) -> bool {
        if x == y {
            return true;
        }
        bigfoot_obs::count!("entail.query.refs_equal");
        let _q = crate::obs::QueryGuard::enter();
        self.close();
        self.find(x) == self.find(y)
    }

    // ---------------- arithmetic entailment ----------------

    /// Normalizes an expression with union-find canonicalization.
    pub fn lin(&mut self, e: &Expr) -> Option<Lin> {
        self.close();
        linearize(e).map(|l| self.canon_lin(&l))
    }

    /// The id of the current canonical inequality rows, rebuilding and
    /// interning them if any assumption landed since they were last built.
    /// Requires the closure to be up to date.
    fn fact_set(&mut self) -> u32 {
        if let Some((generation, id)) = self.fact_set {
            if generation == self.generation {
                return id;
            }
        }
        let mut rows = std::mem::take(&mut self.canon_rows);
        rows.clear();
        rows.extend(self.ineqs.iter().map(|f| self.canon_lin(f)));
        rows.sort_unstable();
        let id = self.verdicts.intern_rows(&rows);
        self.canon_rows = rows;
        self.fact_set = Some((self.generation, id));
        id
    }

    /// Proves `l >= 0` from the assumed facts.
    ///
    /// Verdicts are memoized in the shared [`Verdicts`] per fact set and
    /// canonicalized query: the placement analysis re-asks the same bounds
    /// queries for every path flowing through a block, and of every
    /// history it revisits.
    pub fn proves_nonneg(&mut self, l: &Lin) -> bool {
        let _q = crate::obs::QueryGuard::enter();
        self.close();
        let q = self.canon_lin(l);
        if let Some(c) = q.as_const() {
            if c >= 0 {
                return true;
            }
            // Fall through: inconsistent facts entail everything.
        }
        let key = (self.fact_set(), q);
        let mut cache = self.verdicts.0.borrow_mut();
        let cache = &mut *cache;
        if let Some(&v) = cache.nonneg.get(&key) {
            bigfoot_obs::count!("entail.cache.hit");
            return v;
        }
        bigfoot_obs::count!("entail.cache.miss");
        // Refute facts ∧ (q <= -1), i.e. facts ∧ (-q - 1 >= 0).
        let refute = key.1.scale(-1).offset(-1);
        let v = cache.fm.infeasible(&self.canon_rows, Some(&refute));
        cache.nonneg.insert(key, v);
        v
    }

    /// Proves `a <= b`.
    pub fn proves_le(&mut self, a: &Lin, b: &Lin) -> bool {
        self.proves_nonneg(&b.sub(a))
    }

    /// True if the assumed facts are contradictory (a statically dead
    /// context, which entails everything).
    pub fn is_inconsistent(&mut self) -> bool {
        if let Some(list) = self.fact_list {
            if let Some(v) = self.verdicts.0.borrow().lists[list as usize].inconsistent {
                return v;
            }
        }
        self.close();
        let id = self.fact_set() as usize;
        let mut cache = self.verdicts.0.borrow_mut();
        let cache = &mut *cache;
        let v = match cache.inconsistent[id] {
            Some(v) => v,
            None => {
                let v = cache.fm.infeasible(&self.canon_rows, None);
                cache.inconsistent[id] = Some(v);
                v
            }
        };
        if let Some(list) = self.fact_list {
            cache.lists[list as usize].inconsistent = Some(v);
        }
        v
    }

    /// Proves `a == b`.
    pub fn proves_eq(&mut self, a: &Lin, b: &Lin) -> bool {
        let d = a.sub(b);
        if self.canon_const(&d) == Some(0) {
            return true;
        }
        self.proves_nonneg(&d) && self.proves_nonneg(&d.scale(-1))
    }

    fn canon_const(&mut self, l: &Lin) -> Option<i64> {
        self.close();
        self.canon_lin(l).as_const()
    }

    /// Proves `l ≡ 0 (mod m)`.
    pub fn proves_cong(&mut self, l: &Lin, m: i64) -> bool {
        if m <= 1 {
            return true;
        }
        let _q = crate::obs::QueryGuard::enter();
        self.close();
        let q = self.canon_lin(l);
        if let Some(c) = q.as_const() {
            return c.rem_euclid(m) == 0;
        }
        // Equality facts may pin the query to a constant (e.g. on loop
        // entry, `x - e0` is exactly 0); probe small multiples of m.
        if self.pins_to_multiple(&q, m) {
            return true;
        }
        let congs = self.congs.clone();
        for (f, fm) in &congs {
            if fm % m != 0 {
                continue;
            }
            let f = self.canon_lin(f);
            // q ≡ f (mod m) if q - f is a constant multiple of m (either
            // syntactically or via the linear facts).
            for d in [q.sub(&f), q.add(&f)] {
                match d.as_const() {
                    Some(c) => {
                        if c.rem_euclid(m) == 0 {
                            return true;
                        }
                    }
                    None => {
                        if self.pins_to_multiple(&d, m) {
                            return true;
                        }
                    }
                }
            }
        }
        false
    }

    /// True if the linear facts pin `q` to `k·m` for some small `k`.
    fn pins_to_multiple(&mut self, q: &Lin, m: i64) -> bool {
        for k in -4i64..=4 {
            if self.proves_eq(q, &Lin::constant(k * m)) {
                return true;
            }
        }
        false
    }

    /// Decides a boolean query expression from the assumed facts.
    ///
    /// Handles conjunction, comparison, and negated comparison queries;
    /// anything else is conservatively *not* entailed. On a `Kb` built by
    /// [`Kb::from_facts`], verdicts are shared with every `Kb` built from
    /// the same fact list.
    pub fn entails(&mut self, e: &Expr) -> bool {
        let Some(list) = self.fact_list.map(|id| id as usize) else {
            return self.decide(e);
        };
        if let Some(&v) = self.verdicts.0.borrow().lists[list].entails.get(e) {
            bigfoot_obs::count!("entail.cache.hit");
            return v;
        }
        let v = self.decide(e);
        self.verdicts.0.borrow_mut().lists[list]
            .entails
            .insert(e.clone(), v);
        v
    }

    /// [`Kb::entails`] without the fact-list cache.
    fn decide(&mut self, e: &Expr) -> bool {
        bigfoot_obs::count!("entail.query.entails");
        let _q = crate::obs::QueryGuard::enter();
        match e {
            Expr::Bool(true) => true,
            Expr::Binop(Binop::And, a, b) => self.entails(a) && self.entails(b),
            Expr::Unop(Unop::Not, inner) => match negate_cmp(inner) {
                Some(neg) => self.entails(&neg),
                None => false,
            },
            Expr::Binop(op, a, b) if op.is_comparison() => {
                // Congruence queries `e % m == 0`.
                if *op == Binop::Eq {
                    if let (Expr::Binop(Binop::Mod, inner, m), Expr::Int(c)) = (&**a, &**b) {
                        if let (Some(li), Expr::Int(m)) = (linearize(inner), m.as_ref()) {
                            if *m > 0 {
                                return self.proves_cong(&li.offset(-*c), *m);
                            }
                        }
                    }
                    if let (Expr::Var(x), Expr::Var(y)) = (&**a, &**b) {
                        if self.refs_equal(*x, *y) {
                            return true;
                        }
                    }
                }
                let (Some(la), Some(lb)) = (linearize(a), linearize(b)) else {
                    return false;
                };
                match op {
                    Binop::Eq => self.proves_eq(&la, &lb),
                    Binop::Le => self.proves_le(&la, &lb),
                    Binop::Lt => self.proves_nonneg(&lb.sub(&la).offset(-1)),
                    Binop::Ge => self.proves_le(&lb, &la),
                    Binop::Gt => self.proves_nonneg(&la.sub(&lb).offset(-1)),
                    Binop::Ne => {
                        self.proves_nonneg(&la.sub(&lb).offset(-1))
                            || self.proves_nonneg(&lb.sub(&la).offset(-1))
                    }
                    _ => false,
                }
            }
            _ => false,
        }
    }
}

/// Negates a comparison: `!(a < b)` → `a >= b`, etc.
fn negate_cmp(e: &Expr) -> Option<Expr> {
    match e {
        Expr::Binop(op, a, b) if op.is_comparison() => {
            let flipped = match op {
                Binop::Eq => Binop::Ne,
                Binop::Ne => Binop::Eq,
                Binop::Lt => Binop::Ge,
                Binop::Le => Binop::Gt,
                Binop::Gt => Binop::Le,
                Binop::Ge => Binop::Lt,
                _ => return None,
            };
            Some(Expr::Binop(flipped, a.clone(), b.clone()))
        }
        Expr::Unop(Unop::Not, inner) => Some((**inner).clone()),
        Expr::Bool(b) => Some(Expr::Bool(!b)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn expr(src: &str) -> Expr {
        let p = bigfoot_bfj::parse_program(&format!("main {{ q$q = {src}; }}")).unwrap();
        match &p.main.stmts[0].kind {
            bigfoot_bfj::StmtKind::Assign { e, .. } => e.clone(),
            _ => panic!("expected assign"),
        }
    }

    fn kb_with(facts: &[&str]) -> Kb {
        let mut kb = Kb::new();
        for f in facts {
            kb.assume(&expr(f));
        }
        kb
    }

    #[test]
    fn basic_transitivity() {
        let mut kb = kb_with(&["a <= b", "b <= c"]);
        assert!(kb.entails(&expr("a <= c")));
        assert!(!kb.entails(&expr("c <= a")));
    }

    #[test]
    fn equality_substitution() {
        let mut kb = kb_with(&["i == j", "i >= 0"]);
        assert!(kb.entails(&expr("j >= 0")));
        assert!(kb.entails(&expr("j + 1 > 0")));
    }

    #[test]
    fn paper_example_anticipated() {
        // {i < 10} ⊢ bounds for x[0..i] ⊆ x[0..10]: i <= 10.
        let mut kb = kb_with(&["i < 10"]);
        assert!(kb.entails(&expr("i <= 10")));
    }

    #[test]
    fn strict_inequalities_are_integer_tight() {
        let mut kb = kb_with(&["i < j"]);
        assert!(kb.entails(&expr("i + 1 <= j")));
    }

    #[test]
    fn unknowns_are_not_entailed() {
        let mut kb = kb_with(&["a <= b"]);
        assert!(!kb.entails(&expr("a == b")));
        assert!(!kb.entails(&expr("x >= 0")));
    }

    #[test]
    fn negated_comparisons() {
        let mut kb = kb_with(&["!(i < 0)"]);
        assert!(kb.entails(&expr("i >= 0")));
        assert!(kb.entails(&expr("!(i < 0)")));
    }

    #[test]
    fn congruence_facts() {
        let mut kb = kb_with(&["i % 2 == 0"]);
        assert!(kb.entails(&expr("i % 2 == 0")));
        assert!(kb.entails(&expr("(i + 2) % 2 == 0")));
        assert!(kb.entails(&expr("(i + 4) % 2 == 0")));
        assert!(!kb.entails(&expr("(i + 1) % 2 == 0")));
        assert!(!kb.entails(&expr("i % 3 == 0")));
    }

    #[test]
    fn reference_congruence_closure() {
        // x = a.f, y = a.f  ⇒  x == y (the §5 alias example).
        let mut kb = Kb::new();
        let (x, y, a, f) = (
            Sym::intern("x"),
            Sym::intern("y"),
            Sym::intern("a"),
            Sym::intern("f"),
        );
        kb.assume_alias(x, AliasRhs::Field { base: a, field: f });
        kb.assume_alias(y, AliasRhs::Field { base: a, field: f });
        assert!(kb.refs_equal(x, y));
        assert!(!kb.refs_equal(x, a));
    }

    #[test]
    fn nested_congruence_via_union() {
        // b = a, x = a.f, y = b.f  ⇒  x == y.
        let mut kb = Kb::new();
        let (a, b, x, y, f) = (
            Sym::intern("ca"),
            Sym::intern("cb"),
            Sym::intern("cx"),
            Sym::intern("cy"),
            Sym::intern("cf"),
        );
        kb.assume_var_eq(b, a);
        kb.assume_alias(x, AliasRhs::Field { base: a, field: f });
        kb.assume_alias(y, AliasRhs::Field { base: b, field: f });
        assert!(kb.refs_equal(x, y));
    }

    #[test]
    fn element_alias_congruence() {
        // x = a[i], y = a[j], i == j  ⇒  x == y.
        let mut kb = kb_with(&["i == j"]);
        let (x, y, a) = (Sym::intern("ex"), Sym::intern("ey"), Sym::intern("ea"));
        let i = linearize(&expr("i")).unwrap();
        let j = linearize(&expr("j")).unwrap();
        kb.assume_var_eq(Sym::intern("i"), Sym::intern("j"));
        kb.assume_alias(x, AliasRhs::Elem { base: a, index: i });
        kb.assume_alias(y, AliasRhs::Elem { base: a, index: j });
        assert!(kb.refs_equal(x, y));
    }

    #[test]
    fn opaque_terms_match_syntactically() {
        let mut kb = kb_with(&["lo == n / 2"]);
        assert!(kb.entails(&expr("lo == n / 2")));
        assert!(!kb.entails(&expr("lo == n / 3")));
    }

    #[test]
    fn length_facts() {
        let mut kb = kb_with(&["n == a.length", "i < n"]);
        assert!(kb.entails(&expr("i < a.length")));
    }

    #[test]
    fn infeasible_combination_detected() {
        let mut kb = kb_with(&["x >= 5", "x <= 3"]);
        // From contradictory facts everything follows.
        assert!(kb.entails(&expr("0 == 1")));
    }

    #[test]
    fn overflowing_elimination_is_not_a_contradiction() {
        // x = 0 satisfies both facts. Eliminating x multiplies the bound
        // by 3, which overflows i64; wrapping arithmetic turned the sum
        // negative and reported a contradiction, which entails anything.
        let mut kb = kb_with(&["3 * x >= 0", "3 * x <= 4611686018427387904"]);
        assert!(!kb.is_inconsistent());
        assert!(!kb.entails(&expr("0 == 1")));
        assert!(!kb.entails(&expr("x >= 5")));
    }

    #[test]
    fn shared_verdicts_match_private_ones() {
        let lists = [
            vec![expr("i < n"), expr("n <= a.length"), expr("i >= 0")],
            vec![expr("i >= n"), expr("n > 0")],
            vec![expr("i < n"), expr("i >= n")],
            vec![expr("i % 2 == 0"), expr("n <= a.length"), expr("i >= 0")],
        ];
        let queries = [
            "i + 1 <= a.length",
            "i >= 1",
            "n > 0",
            "0 == 1",
            "i % 2 == 0",
        ];
        let verdicts = Verdicts::new();
        for facts in lists.iter().chain(&lists) {
            let mut shared = Kb::from_facts(&verdicts, facts, &[]);
            let mut private = Kb::new();
            for f in facts {
                private.assume(f);
            }
            for q in queries {
                assert_eq!(shared.entails(&expr(q)), private.entails(&expr(q)), "{q}");
            }
            assert_eq!(shared.is_inconsistent(), private.is_inconsistent());
        }
    }

    #[test]
    fn assuming_on_a_shared_kb_leaves_the_fact_list_verdicts_alone() {
        let facts = [expr("i < n")];
        let verdicts = Verdicts::new();
        let mut kb = Kb::from_facts(&verdicts, &facts, &[]);
        assert!(!kb.entails(&expr("i < 5")));
        kb.assume(&expr("n <= 5"));
        assert!(kb.entails(&expr("i < 5")));
        let mut fresh = Kb::from_facts(&verdicts, &facts, &[]);
        assert!(!fresh.entails(&expr("i < 5")));
    }

    #[test]
    fn ne_entailed_by_strict_order() {
        let mut kb = kb_with(&["a < b"]);
        assert!(kb.entails(&expr("a != b")));
    }
}
