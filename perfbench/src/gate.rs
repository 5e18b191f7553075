//! The correctness gate: every operation's output is checked, and every
//! failure counts against `ok_share` and fails the run.

use enode_tensor::Tensor;

/// Failures kept verbatim for the report; the rest are only counted.
const KEEP: usize = 8;

/// `true` when `a` and `b` have the same shape and bit-identical data.
pub fn same_bits(a: &Tensor, b: &Tensor) -> bool {
    a.shape() == b.shape()
        && a.data()
            .iter()
            .zip(b.data())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Tally of checked operations.
#[derive(Debug, Default)]
pub struct Gate {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// The first few failure descriptions.
    pub failures: Vec<String>,
}

impl Gate {
    /// Records one operation that passed.
    pub fn pass(&mut self) {
        self.attempted += 1;
    }

    /// Records one operation that failed with `why`.
    pub fn fail(&mut self, why: String) {
        self.attempted += 1;
        self.failed += 1;
        if self.failures.len() < KEEP {
            self.failures.push(why);
        }
    }

    /// Records a served output against the expected solo output.
    /// Returns whether it matched.
    pub fn check_output(&mut self, what: &str, got: &Tensor, expected: &Tensor) -> bool {
        if same_bits(got, expected) {
            self.pass();
            true
        } else {
            self.fail(format!("{what}: output differs from the solo solve"));
            false
        }
    }

    /// A run-level condition that is not an operation (counter
    /// reconciliation, loss trend): fails the run without counting an
    /// attempt.
    pub fn require(&mut self, ok: bool, why: impl FnOnce() -> String) {
        if !ok {
            self.failed += 1;
            if self.failures.len() < KEEP {
                self.failures.push(why());
            }
        }
    }

    /// `true` when nothing failed.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// Verified operations over attempted ones.
    pub fn ok_share(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.attempted.saturating_sub(self.failed) as f64 / self.attempted as f64
        }
    }
}
