//! Tree nodes and the node arena.

use parsim_geometry::{HyperRect, Point};
use parsim_storage::VectorArena;

/// Index of a node in the tree's arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeId(pub u32);

/// An entry of a leaf node: one indexed point and its caller-supplied item
/// id.
///
/// Inside a leaf the entries are stored columnar ([`LeafEntries`]); this
/// owned form exists for the mutation paths (insert, split, condense) that
/// shuffle individual entries around.
#[derive(Debug, Clone, PartialEq)]
pub struct LeafEntry {
    /// The indexed feature vector.
    pub point: Point,
    /// Caller-supplied identifier of the multimedia object.
    pub item: u64,
}

/// The entries of one leaf page, stored as a flat row-major
/// [`VectorArena`] plus a parallel item-id column.
///
/// This is the layout the hot k-NN scan runs over: one linear sweep of
/// contiguous `f64`s instead of a pointer chase through per-point heap
/// allocations (see `DESIGN.md`, "Memory layout & distance kernels").
#[derive(Debug, Clone, PartialEq)]
pub struct LeafEntries {
    coords: VectorArena,
    items: Vec<u64>,
}

impl LeafEntries {
    /// An empty entry block for points of dimension `dim`.
    pub fn new(dim: usize) -> Self {
        LeafEntries {
            coords: VectorArena::new(dim),
            items: Vec::new(),
        }
    }

    /// Builds a block from owned entries (e.g. a split half or a bulk-load
    /// run).
    pub fn from_entries(dim: usize, entries: Vec<LeafEntry>) -> Self {
        let mut coords = VectorArena::with_capacity(dim, entries.len());
        let mut items = Vec::with_capacity(entries.len());
        for e in entries {
            coords.push(e.point.coords());
            items.push(e.item);
        }
        LeafEntries { coords, items }
    }

    /// Vector dimension of every row.
    #[inline]
    pub fn dim(&self) -> usize {
        self.coords.dim()
    }

    /// Number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True if the block holds no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Appends one entry.
    pub fn push(&mut self, entry: LeafEntry) {
        self.coords.push(entry.point.coords());
        self.items.push(entry.item);
    }

    /// Coordinate row of entry `i`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        self.coords.row(i)
    }

    /// Item id of entry `i`.
    #[inline]
    pub fn item(&self, i: usize) -> u64 {
        self.items[i]
    }

    /// Materializes entry `i`'s coordinates as an owned [`Point`].
    pub fn point(&self, i: usize) -> Point {
        Point::from_vec(self.coords.row(i).to_vec())
    }

    /// The whole block as one flat row-major slice (exact batch-kernel
    /// view).
    #[inline]
    pub fn flat_coords(&self) -> &[f64] {
        self.coords.as_flat()
    }

    /// Iterates over `(coordinate row, item id)` pairs in storage order.
    #[inline]
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (&[f64], u64)> {
        self.coords.iter().zip(self.items.iter().copied())
    }

    /// Materializes all entries as owned [`LeafEntry`] values (order
    /// preserved).
    pub fn to_entries(&self) -> Vec<LeafEntry> {
        self.iter()
            .map(|(row, item)| LeafEntry {
                point: Point::from_vec(row.to_vec()),
                item,
            })
            .collect()
    }

    /// Drains the block into owned entries, leaving it empty (dimension
    /// kept). Used by the split and condense paths that re-distribute
    /// entries.
    pub fn take_all(&mut self) -> Vec<LeafEntry> {
        let out = self.to_entries();
        self.coords.clear();
        self.items.clear();
        out
    }

    /// Removes entry `i` by moving the last entry into its slot (order not
    /// preserved).
    pub fn swap_remove(&mut self, i: usize) {
        self.coords.swap_remove(i);
        self.items.swap_remove(i);
    }

    /// Index of the entry matching `(coords, item)` exactly, if present.
    pub fn position(&self, coords: &[f64], item: u64) -> Option<usize> {
        self.iter()
            .position(|(row, it)| it == item && row == coords)
    }
}

/// An entry of a directory node: the bounding rectangle of a child
/// subtree.
#[derive(Debug, Clone, PartialEq)]
pub struct InnerEntry {
    /// Minimum bounding rectangle of everything below `child`.
    pub mbr: HyperRect,
    /// The child node.
    pub child: NodeId,
}

/// A tree node. `pages > 1` marks an X-tree supernode, which occupies
/// several contiguous disk pages and has proportionally enlarged capacity.
#[derive(Debug, Clone, PartialEq)]
pub enum Node {
    /// A leaf holding data points.
    Leaf {
        /// The stored points, flat row-major.
        entries: LeafEntries,
        /// Number of disk pages this node occupies.
        pages: u32,
    },
    /// A directory node holding child MBRs.
    Inner {
        /// The child entries.
        entries: Vec<InnerEntry>,
        /// Number of disk pages this node occupies (supernodes: > 1).
        pages: u32,
        /// X-tree split history: bitmask of the dimensions along which the
        /// entries of this node have been separated by past splits.
        split_dims: u64,
    },
}

impl Node {
    /// Creates an empty single-page leaf for points of dimension `dim`.
    pub fn empty_leaf(dim: usize) -> Self {
        Node::Leaf {
            entries: LeafEntries::new(dim),
            pages: 1,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        match self {
            Node::Leaf { entries, .. } => entries.len(),
            Node::Inner { entries, .. } => entries.len(),
        }
    }

    /// True if the node has no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True for leaf nodes.
    pub fn is_leaf(&self) -> bool {
        matches!(self, Node::Leaf { .. })
    }

    /// Number of disk pages the node occupies.
    pub fn pages(&self) -> u32 {
        match self {
            Node::Leaf { pages, .. } | Node::Inner { pages, .. } => *pages,
        }
    }

    /// The tight bounding rectangle of the node's entries, or `None` for an
    /// empty node.
    pub fn mbr(&self) -> Option<HyperRect> {
        match self {
            Node::Leaf { entries, .. } => {
                let mut it = entries.iter();
                let (first, _) = it.next()?;
                let mut mbr = HyperRect::from_coords(first);
                for (row, _) in it {
                    mbr.expand_to_coords(row);
                }
                Some(mbr)
            }
            Node::Inner { entries, .. } => {
                let mut it = entries.iter();
                let first = it.next()?;
                let mut mbr = first.mbr.clone();
                for e in it {
                    mbr.expand_to_rect(&e.mbr);
                }
                Some(mbr)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(coords: &[f64]) -> Point {
        Point::new(coords.to_vec()).unwrap()
    }

    #[test]
    fn empty_leaf_has_no_mbr() {
        let n = Node::empty_leaf(2);
        assert!(n.is_leaf());
        assert!(n.is_empty());
        assert_eq!(n.pages(), 1);
        assert!(n.mbr().is_none());
    }

    #[test]
    fn leaf_mbr_covers_points() {
        let n = Node::Leaf {
            entries: LeafEntries::from_entries(
                2,
                vec![
                    LeafEntry {
                        point: p(&[0.1, 0.9]),
                        item: 0,
                    },
                    LeafEntry {
                        point: p(&[0.5, 0.2]),
                        item: 1,
                    },
                ],
            ),
            pages: 1,
        };
        let mbr = n.mbr().unwrap();
        assert_eq!(mbr.lo_coords(), &[0.1, 0.2]);
        assert_eq!(mbr.hi_coords(), &[0.5, 0.9]);
        assert_eq!(n.len(), 2);
    }

    #[test]
    fn leaf_entries_round_trip_and_mutate() {
        let mut es = LeafEntries::new(2);
        es.push(LeafEntry {
            point: p(&[0.1, 0.2]),
            item: 7,
        });
        es.push(LeafEntry {
            point: p(&[0.3, 0.4]),
            item: 8,
        });
        es.push(LeafEntry {
            point: p(&[0.5, 0.6]),
            item: 9,
        });
        assert_eq!(es.dim(), 2);
        assert_eq!(es.row(1), &[0.3, 0.4]);
        assert_eq!(es.item(1), 8);
        assert_eq!(es.point(2), p(&[0.5, 0.6]));
        assert_eq!(es.flat_coords().len(), 6);
        assert_eq!(es.position(&[0.3, 0.4], 8), Some(1));
        assert_eq!(es.position(&[0.3, 0.4], 9), None);

        let copy = es.to_entries();
        assert_eq!(copy.len(), 3);
        assert_eq!(LeafEntries::from_entries(2, copy), es);

        es.swap_remove(0);
        assert_eq!(es.len(), 2);
        assert_eq!(es.item(0), 9);

        let drained = es.take_all();
        assert_eq!(drained.len(), 2);
        assert!(es.is_empty());
        assert_eq!(es.dim(), 2);
    }

    #[test]
    fn inner_mbr_covers_children() {
        let a = HyperRect::new(vec![0.0, 0.0], vec![0.3, 0.3]).unwrap();
        let b = HyperRect::new(vec![0.5, 0.5], vec![1.0, 0.8]).unwrap();
        let n = Node::Inner {
            entries: vec![
                InnerEntry {
                    mbr: a,
                    child: NodeId(1),
                },
                InnerEntry {
                    mbr: b,
                    child: NodeId(2),
                },
            ],
            pages: 2,
            split_dims: 0b1,
        };
        let mbr = n.mbr().unwrap();
        assert_eq!(mbr.lo_coords(), &[0.0, 0.0]);
        assert_eq!(mbr.hi_coords(), &[1.0, 0.8]);
        assert_eq!(n.pages(), 2);
        assert!(!n.is_leaf());
    }
}
