//! Tuples: fixed-arity sequences of values.

use crate::attrset::AttrSet;
use crate::schema::AttrId;
use crate::value::Value;
use std::fmt;
use std::sync::Arc;

/// A tuple `t = (a₁, …, a_k)` over some schema.
///
/// The values are shared copy-on-write: cloning a tuple is one atomic
/// increment, not a heap allocation. [`Tuple::set`] unshares first, so
/// aliased tuples never observe each other's writes.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Tuple(Arc<[Value]>);

impl Tuple {
    /// Builds a tuple from values.
    pub fn new<I: IntoIterator<Item = Value>>(values: I) -> Tuple {
        Tuple(values.into_iter().collect())
    }

    /// Arity of the tuple.
    pub fn arity(&self) -> usize {
        self.0.len()
    }

    /// The value `t.A`.
    pub fn get(&self, attr: AttrId) -> &Value {
        &self.0[attr.usize()]
    }

    /// Unshares the backing storage (clones it if aliased) and returns
    /// the unique mutable view.
    fn make_mut(&mut self) -> &mut [Value] {
        if Arc::get_mut(&mut self.0).is_none() {
            self.0 = self.0.iter().cloned().collect();
        }
        Arc::get_mut(&mut self.0).expect("freshly cloned storage is unique")
    }

    /// Replaces the value at `attr`, returning the old value.
    pub fn set(&mut self, attr: AttrId, value: Value) -> Value {
        std::mem::replace(&mut self.make_mut()[attr.usize()], value)
    }

    /// All values in schema order.
    pub fn values(&self) -> &[Value] {
        &self.0
    }

    /// The projection `t[X]` as a key (values in ascending attribute order).
    pub fn project(&self, attrs: AttrSet) -> Vec<Value> {
        attrs.iter().map(|a| self.0[a.usize()].clone()).collect()
    }

    /// True iff `t[X] = s[X]`.
    pub fn agrees_on(&self, other: &Tuple, attrs: AttrSet) -> bool {
        attrs
            .iter()
            .all(|a| self.0[a.usize()] == other.0[a.usize()])
    }

    /// The Hamming distance `H(t, s)`: the number of attributes on which the
    /// tuples disagree (§2.3).
    pub fn hamming(&self, other: &Tuple) -> usize {
        debug_assert_eq!(self.arity(), other.arity());
        self.0
            .iter()
            .zip(other.0.iter())
            .filter(|(a, b)| a != b)
            .count()
    }

    /// The attributes on which the tuples disagree.
    pub fn disagreement(&self, other: &Tuple) -> AttrSet {
        debug_assert_eq!(self.arity(), other.arity());
        (0..self.arity() as u16)
            .map(AttrId::new)
            .filter(|&a| self.0[a.usize()] != other.0[a.usize()])
            .collect()
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

impl fmt::Debug for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

/// Builds a tuple from heterogeneous literals: `tup![ "HQ", 322, 3, "Paris" ]`.
#[macro_export]
macro_rules! tup {
    ($($v:expr),* $(,)?) => {
        $crate::Tuple::new(vec![$($crate::Value::from($v)),*])
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::schema_rabc;

    #[test]
    fn access_and_projection() {
        let s = schema_rabc();
        let t = tup!["x", 1, 2];
        assert_eq!(t.arity(), 3);
        assert_eq!(t.get(s.attr("A").unwrap()), &Value::str("x"));
        let proj = t.project(s.attr_set(["A", "C"]).unwrap());
        assert_eq!(proj, vec![Value::str("x"), Value::from(2)]);
    }

    #[test]
    fn agreement_and_hamming() {
        let s = schema_rabc();
        let t = tup!["x", 1, 2];
        let u = tup!["x", 1, 3];
        assert!(t.agrees_on(&u, s.attr_set(["A", "B"]).unwrap()));
        assert!(!t.agrees_on(&u, s.attr_set(["A", "C"]).unwrap()));
        assert_eq!(t.hamming(&u), 1);
        assert_eq!(t.hamming(&t), 0);
        assert_eq!(t.disagreement(&u), AttrSet::singleton(s.attr("C").unwrap()));
        // Every tuple agrees with every tuple on ∅.
        let v = tup!["y", 9, 9];
        assert!(t.agrees_on(&v, AttrSet::EMPTY));
    }

    #[test]
    fn clones_are_copy_on_write() {
        let s = schema_rabc();
        let mut t = tup!["x", 1, 2];
        let snapshot = t.clone();
        t.set(s.attr("B").unwrap(), Value::from(9));
        assert_eq!(t, tup!["x", 9, 2]);
        assert_eq!(snapshot, tup!["x", 1, 2]);
    }

    #[test]
    fn set_replaces_value() {
        let s = schema_rabc();
        let mut t = tup!["x", 1, 2];
        let old = t.set(s.attr("B").unwrap(), Value::from(7));
        assert_eq!(old, Value::from(1));
        assert_eq!(t, tup!["x", 7, 2]);
    }

    #[test]
    fn display() {
        let t = tup!["x", 1];
        assert_eq!(t.to_string(), "(x, 1)");
    }
}
