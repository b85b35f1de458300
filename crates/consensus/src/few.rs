//! [`Few`]: an owned sequence that keeps its first item in place.
//!
//! Most calls into the register bank and the decision log produce one
//! item: one decided register per message, one applied slot per decision,
//! one entry, claim or watermark in it. A `Vec` allocates for that one
//! item and frees it a moment later. A `Few` holds none or one without a
//! heap block and moves to a `Vec` at the second push. It reads as a
//! slice and iterates by value, so a caller uses it as it used the `Vec`.

use std::iter::Chain;
use std::ops::Deref;
use std::{option, slice, vec};

/// Zero or one item in place, more in a `Vec` (see the module doc).
#[derive(Clone)]
pub struct Few<T>(Repr<T>);

#[derive(Clone)]
enum Repr<T> {
    Zero,
    One(T),
    Many(Vec<T>),
}

impl<T> Few<T> {
    /// An empty sequence; allocates nothing.
    pub const fn new() -> Self {
        Few(Repr::Zero)
    }

    /// Appends `item`; only the second item allocates.
    pub fn push(&mut self, item: T) {
        match &mut self.0 {
            Repr::Many(items) => items.push(item),
            repr => {
                *repr = match std::mem::replace(repr, Repr::Zero) {
                    Repr::Zero => Repr::One(item),
                    Repr::One(first) => Repr::Many(vec![first, item]),
                    Repr::Many(_) => unreachable!("matched above"),
                };
            }
        }
    }

    /// Keeps the items `keep` accepts, in order.
    pub fn retain(&mut self, mut keep: impl FnMut(&T) -> bool) {
        match &mut self.0 {
            Repr::Zero => {}
            Repr::One(item) => {
                if !keep(item) {
                    self.0 = Repr::Zero;
                }
            }
            Repr::Many(items) => items.retain(keep),
        }
    }
}

impl<T> Default for Few<T> {
    fn default() -> Self {
        Few::new()
    }
}

impl<T> Deref for Few<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        match &self.0 {
            Repr::Zero => &[],
            Repr::One(item) => slice::from_ref(item),
            Repr::Many(items) => items,
        }
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for Few<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<T: PartialEq> PartialEq for Few<T> {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl<T: PartialEq, const N: usize> PartialEq<[T; N]> for Few<T> {
    fn eq(&self, other: &[T; N]) -> bool {
        **self == other[..]
    }
}

impl<T> Extend<T> for Few<T> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, items: I) {
        for item in items {
            self.push(item);
        }
    }
}

impl<T> IntoIterator for Few<T> {
    type Item = T;
    type IntoIter = Chain<option::IntoIter<T>, vec::IntoIter<T>>;

    fn into_iter(self) -> Self::IntoIter {
        let (one, many) = match self.0 {
            Repr::Zero => (None, Vec::new()),
            Repr::One(item) => (Some(item), Vec::new()),
            Repr::Many(items) => (None, items),
        };
        one.into_iter().chain(many)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// A `Few` is a `Vec`: under any sequence of pushes and retains it
        /// holds the items a `Vec` holds, in the same order, and iterates
        /// them by value in that order.
        #[test]
        fn a_few_is_a_vec(ops in proptest::collection::vec((0u8..3, 0u32..8), 0..24)) {
            let (mut few, mut model) = (Few::new(), Vec::new());
            for (op, x) in ops {
                match op {
                    0 | 1 => {
                        few.push(x);
                        model.push(x);
                    }
                    _ => {
                        few.retain(|&y| y != x);
                        model.retain(|&y| y != x);
                    }
                }
                prop_assert_eq!(&few[..], &model[..]);
                prop_assert_eq!(few.clone().into_iter().collect::<Vec<_>>(), model.clone());
                let mut rebuilt = Few::new();
                rebuilt.extend(model.iter().copied());
                prop_assert_eq!(few.clone(), rebuilt);
            }
        }
    }

    #[test]
    fn one_item_stays_in_place() {
        let mut few = Few::new();
        few.push(7u64);
        assert!(matches!(few.0, Repr::One(7)));
        assert_eq!(few, [7]);
        few.push(8);
        assert!(matches!(few.0, Repr::Many(_)));
        assert_eq!(few.into_iter().size_hint(), (2, Some(2)));
    }
}
