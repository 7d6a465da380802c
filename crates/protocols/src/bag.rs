//! The bag: the set of (label, value) pairs an agent has heard of.

use std::collections::BTreeMap;
use std::sync::Arc;

/// An agent's bag `W`: every label it has heard of, with the initial value
/// attached to that label (for gossiping). Bags only ever grow, by merging
/// at meetings.
///
/// Storage is copy-on-write: `clone` is a reference-count bump, and a bag
/// detaches from the storage it shares only when a merge learns a label —
/// at most `k − 1` times per agent in a team of `k`. SGL hands its bag to
/// every peer at every meeting, so this is what keeps the exchange cheap.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Bag {
    entries: Arc<BTreeMap<u64, u64>>,
}

impl Bag {
    /// A bag holding only the owner's own (label, value).
    pub fn singleton(label: u64, value: u64) -> Self {
        Bag {
            entries: Arc::new(BTreeMap::from([(label, value)])),
        }
    }

    /// Smallest label heard of (`Min(W)`); bags are never empty.
    pub fn min_label(&self) -> u64 {
        *self.entries.keys().next().expect("bags are never empty")
    }

    /// Number of distinct labels.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Bags are never empty (they always hold the owner's label).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Whether `label` has been heard of.
    pub fn contains(&self, label: u64) -> bool {
        self.entries.contains_key(&label)
    }

    /// Merges another bag in (set union; values agree by construction,
    /// and on a disagreement `other`'s value wins).
    ///
    /// Touches the storage only when `other` holds a pair this bag lacks;
    /// merging the same bag or a subset leaves any sharing intact.
    pub fn merge(&mut self, other: &Bag) {
        if Arc::ptr_eq(&self.entries, &other.entries)
            || other.iter().all(|(l, v)| self.entries.get(&l) == Some(&v))
        {
            return;
        }
        let entries = Arc::make_mut(&mut self.entries);
        for (l, v) in other.iter() {
            entries.insert(l, v);
        }
    }

    /// Iterates `(label, value)` pairs in increasing label order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.entries.iter().map(|(&l, &v)| (l, v))
    }

    /// The labels in increasing order.
    pub fn labels(&self) -> Vec<u64> {
        self.entries.keys().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singleton_and_min() {
        let b = Bag::singleton(7, 70);
        assert_eq!(b.min_label(), 7);
        assert_eq!(b.len(), 1);
        assert!(b.contains(7));
        assert!(!b.contains(8));
    }

    #[test]
    fn merge_is_union_and_idempotent() {
        let mut a = Bag::singleton(5, 50);
        let b = Bag::singleton(3, 30);
        a.merge(&b);
        assert_eq!(a.labels(), vec![3, 5]);
        assert_eq!(a.min_label(), 3);
        let snapshot = a.clone();
        a.merge(&b);
        assert_eq!(a, snapshot, "merging twice changes nothing");
    }

    #[test]
    fn values_ride_along_with_labels() {
        let mut a = Bag::singleton(2, 200);
        a.merge(&Bag::singleton(9, 900));
        let pairs: Vec<_> = a.iter().collect();
        assert_eq!(pairs, vec![(2, 200), (9, 900)]);
    }

    fn shared(a: &Bag, b: &Bag) -> bool {
        Arc::ptr_eq(&a.entries, &b.entries)
    }

    #[test]
    fn merging_nothing_new_keeps_the_storage_shared() {
        let mut a = Bag::singleton(5, 50);
        a.merge(&Bag::singleton(3, 30));
        let handle = a.clone();
        assert!(shared(&a, &handle), "clone is a reference-count bump");
        a.merge(&handle);
        assert!(shared(&a, &handle), "merging the same bag");
        a.merge(&Bag::singleton(3, 30));
        assert!(shared(&a, &handle), "merging a subset");
        assert_eq!(a.labels(), vec![3, 5]);
    }

    #[test]
    fn merging_a_new_label_detaches_and_leaves_the_other_handle_alone() {
        let mut a = Bag::singleton(5, 50);
        let handle = a.clone();
        a.merge(&Bag::singleton(3, 30));
        assert!(!shared(&a, &handle));
        assert_eq!(a.labels(), vec![3, 5]);
        assert_eq!(handle.labels(), vec![5], "the other handle never changes");
    }

    #[test]
    fn a_forked_sgl_agent_merges_without_touching_the_original() {
        use crate::sgl::{SglBehavior, SglConfig, SglInfo, StateKind};
        use rv_graph::{generators, NodeId};
        use rv_sim::{Behavior, MeetingPlace};

        let g = generators::ring(4);
        let label = rv_core::Label::new(5).expect("positive label");
        let original = SglBehavior::new(
            &g,
            rv_explore::SeededUxs::quadratic(),
            NodeId(0),
            label,
            50,
            SglConfig::default(),
        );
        let mut fork = original.fork();
        assert!(shared(original.bag(), fork.bag()));
        let mut complete = Bag::singleton(3, 30);
        complete.merge(&Bag::singleton(5, 50));
        let peer = SglInfo {
            label: 3,
            state: StateKind::Traveller,
            bag: Bag::singleton(3, 30),
            final_set: Some(complete.clone()),
            has_output: false,
        };
        fork.on_meeting(MeetingPlace::Node(NodeId(0)), &[peer]);

        assert_eq!(fork.bag(), &complete);
        assert_eq!(fork.info().final_set, Some(complete));
        assert_eq!(original.bag(), &Bag::singleton(5, 50));
        assert_eq!(original.info().final_set, None);
        assert!(!shared(original.bag(), fork.bag()));
    }
}
