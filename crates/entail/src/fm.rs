//! Fourier–Motzkin refutation over dense, overflow-checked rows.
//!
//! A query's rows are sparse [`Lin`]s keyed by [`Atom`]. The kernel maps
//! the atoms of one call to column indices once, copies every row into a
//! flat `i64` buffer, and eliminates columns from the highest atom down.
//! Each round keeps the rows without the eliminated atom, in order, then
//! appends the combination of each (positive, negative) pair in order.
//!
//! Every multiplication and addition is checked. An overflow means the
//! combined row's true coefficients do not fit in `i64`, and a wrapped
//! value could fake a contradiction, so the kernel answers "not
//! infeasible", which only ever costs a redundant check.

use crate::lin::{Atom, Lin};

/// Caps for the elimination, beyond which the kernel gives up
/// (conservatively answering "not infeasible").
const FM_MAX_ROWS: usize = 600;
const FM_MAX_ATOMS: usize = 24;

/// Buffers reused across calls.
#[derive(Debug, Default)]
pub(crate) struct Fm {
    atoms: Vec<Atom>,
    cur: Vec<i64>,
    next: Vec<i64>,
    pos: Vec<usize>,
    neg: Vec<usize>,
}

impl Fm {
    /// Returns true if the conjunction of `facts` and `extra` (each row
    /// meaning `lin >= 0`) is infeasible over the rationals.
    ///
    /// Rational infeasibility implies integer infeasibility, so `true` is
    /// always a sound "contradiction" answer. Exceeding the row or atom
    /// caps, or overflowing `i64`, returns `false` (feasible / unknown).
    pub(crate) fn infeasible(&mut self, facts: &[Lin], extra: Option<&Lin>) -> bool {
        let rows = || facts.iter().chain(extra);
        if rows().any(|r| r.is_const() && r.konst < 0) {
            return true;
        }
        self.atoms.clear();
        self.atoms.extend(rows().flat_map(|r| r.atoms()));
        self.atoms.sort_unstable();
        self.atoms.dedup();
        let n = self.atoms.len();
        if n > FM_MAX_ATOMS {
            return false;
        }
        // Columns 0..n are the atoms in sorted order; column n is the
        // constant.
        let w = n + 1;
        self.cur.clear();
        for r in rows() {
            let base = self.cur.len();
            self.cur.resize(base + w, 0);
            for (a, &c) in &r.terms {
                let j = self.atoms.binary_search(a).expect("atom collected above");
                self.cur[base + j] = c;
            }
            self.cur[base + n] = r.konst;
        }
        for k in (0..n).rev() {
            match self.eliminate(k, w) {
                Some(Step::Refuted) => return true,
                Some(Step::Rows(rows)) if rows <= FM_MAX_ROWS => {
                    std::mem::swap(&mut self.cur, &mut self.next)
                }
                Some(Step::Rows(_)) | None => return false,
            }
        }
        false
    }

    /// Eliminates column `k` from `cur` (rows of width `w`, columns above
    /// `k` already zero) into `next`. `None` on overflow.
    fn eliminate(&mut self, k: usize, w: usize) -> Option<Step> {
        let konst = w - 1;
        self.next.clear();
        self.pos.clear();
        self.neg.clear();
        for (i, row) in self.cur.chunks_exact(w).enumerate() {
            match row[k] {
                0 => self.next.extend_from_slice(row),
                c if c > 0 => self.pos.push(i),
                _ => self.neg.push(i),
            }
        }
        // cp·x + rp >= 0 and -cn·x + rn >= 0  →  cn·rp + cp·rn >= 0.
        for &p in &self.pos {
            let rp = &self.cur[p * w..(p + 1) * w];
            let cp = rp[k];
            for &q in &self.neg {
                let rn = &self.cur[q * w..(q + 1) * w];
                let cn = rn[k].checked_neg()?;
                let combine = |j: usize| cn.checked_mul(rp[j])?.checked_add(cp.checked_mul(rn[j])?);
                let base = self.next.len();
                self.next.resize(base + w, 0);
                let mut is_const = true;
                for j in 0..k {
                    let v = combine(j)?;
                    self.next[base + j] = v;
                    is_const &= v == 0;
                }
                let c = combine(konst)?;
                if is_const {
                    self.next.truncate(base);
                    if c < 0 {
                        return Some(Step::Refuted);
                    }
                } else {
                    self.next[base + konst] = c;
                }
            }
        }
        Some(Step::Rows(self.next.len() / w))
    }
}

/// The outcome of one elimination round.
enum Step {
    /// A pair combined into a negative constant.
    Refuted,
    /// The number of rows left.
    Rows(usize),
}

#[cfg(test)]
mod tests {
    use super::*;
    use bigfoot_bfj::Sym;

    /// `Σ cᵢ·xᵢ + k` over the variables `fm0, fm1, ..`.
    fn row(coeffs: &[i64], k: i64) -> Lin {
        let mut l = Lin::constant(k);
        for (i, &c) in coeffs.iter().enumerate() {
            l = l.add(&Lin::var(Sym::intern(&format!("fm{i}"))).scale(c));
        }
        l
    }

    #[test]
    fn overflow_is_not_infeasible() {
        let big = i64::MAX / 2;
        let rows = [row(&[3], 0), row(&[-3], big)];
        assert!(!Fm::default().infeasible(&rows, None));
        // With the overflow out of the way the same kernel refutes.
        assert!(Fm::default().infeasible(&[row(&[3], 0), row(&[-3], -1)], None));
    }

    #[test]
    fn extra_row_joins_the_system() {
        let facts = [row(&[1, -1], 0), row(&[0, 1], -3)]; // x0 >= x1, x1 >= 3
        assert!(!Fm::default().infeasible(&facts, None));
        assert!(Fm::default().infeasible(&facts, Some(&row(&[-1, 0], 2)))); // x0 <= 2
    }

    /// splitmix64: a seeded stream of test inputs.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn range(&mut self, lo: i64, hi: i64) -> i64 {
            lo + (self.next() % (hi - lo + 1) as u64) as i64
        }
    }

    /// Whenever the kernel reports a random system (at most 3 variables,
    /// coefficients in [-4, 4], constants in [-8, 8]) infeasible, brute
    /// force over an integer box finds no solution. Fourier–Motzkin
    /// decides rational infeasibility, so it may miss systems with no
    /// integer solution; only soundness is asserted.
    #[test]
    fn infeasible_verdicts_have_no_integer_solution() {
        const BOX: i64 = 10;
        let mut rng = Rng(0x5eed);
        let mut fm = Fm::default();
        let (mut refuted, mut solved) = (0, 0);
        for _ in 0..400 {
            let vars = rng.range(1, 3) as usize;
            let system: Vec<(Vec<i64>, i64)> = (0..rng.range(1, 6))
                .map(|_| {
                    let coeffs = (0..vars).map(|_| rng.range(-4, 4)).collect();
                    (coeffs, rng.range(-8, 8))
                })
                .collect();
            let rows: Vec<Lin> = system.iter().map(|(c, k)| row(c, *k)).collect();
            let infeasible = fm.infeasible(&rows, None);
            let satisfies = |x: &[i64]| {
                system
                    .iter()
                    .all(|(c, k)| c.iter().zip(x).map(|(c, x)| c * x).sum::<i64>() + k >= 0)
            };
            let mut witness = None;
            let side = 2 * BOX + 1;
            for p in 0..side.pow(vars as u32) {
                let x: Vec<i64> = (0..vars as u32)
                    .map(|i| p / side.pow(i) % side - BOX)
                    .collect();
                if satisfies(&x) {
                    witness = Some(x);
                    break;
                }
            }
            if infeasible {
                assert_eq!(witness, None, "refuted a satisfiable system {system:?}");
                refuted += 1;
            }
            if witness.is_some() {
                solved += 1;
            }
        }
        assert!(refuted >= 40, "too few refutations to mean much: {refuted}");
        assert!(solved >= 40, "too few satisfiable systems: {solved}");
    }
}
