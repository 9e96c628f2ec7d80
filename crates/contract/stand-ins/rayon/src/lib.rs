//! Stand-in for `rayon`: only the reductions the static determinism
//! contract bans (DESIGN.md §13, F1).

/// Parallel iterators.
pub mod iter {
    /// An iterator whose items are combined in scheduling order.
    pub trait ParallelIterator: Sized {
        /// The item type.
        type Item;

        /// Sums the items.
        fn sum<S: std::iter::Sum<Self::Item>>(self) -> S;

        /// Multiplies the items.
        fn product<P: std::iter::Product<Self::Item>>(self) -> P;
    }
}
