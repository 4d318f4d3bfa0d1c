//! The page-declustered parallel X-tree — the paper's exact architecture.
//!
//! One **global** X-tree indexes all feature vectors; the declustering
//! method decides on which disk each *data (leaf) page* resides. A k-NN
//! query performs the ordinary branch-and-bound traversal of the global
//! tree; all the data pages it needs are fetched from their disks in
//! parallel, so the query's I/O time is the service time of the
//! most-loaded disk — precisely the quantity the paper reports. The small
//! X-tree directory is cached in RAM (the 1997 cluster had ample memory
//! for it) and accounted separately.
//!
//! Because the page set a query reads is decided by the *shared* tree, it
//! is identical for every declustering method; the methods differ only in
//! how those pages spread over the disks. This isolates exactly the effect
//! the paper studies. (The sibling [`crate::ParallelKnnEngine`] models the
//! alternative share-nothing design with one local tree per disk.)

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;
use std::collections::HashMap;

use parsim_decluster::quantile::median_splits;
use parsim_decluster::{BucketDecluster, Declusterer, NearOptimal};
use parsim_geometry::{Point, QuadrantSplitter};
use parsim_index::knn::Neighbor;
use parsim_index::node::{Node, NodeId};
use parsim_index::{KnnAlgorithm, NodeSink, SpatialTree, TreeParams, VisitOutcome};
use parsim_storage::{DiskArray, QueryCost, SimDisk};

use crate::config::{EngineConfig, SplitStrategy};
use crate::EngineError;

/// How leaf pages are mapped to disks.
enum PageAssignment {
    /// Leaf page id modulo n — round robin at page granularity.
    RoundRobinPages,
    /// The disk of the point-level declusterer, evaluated on the leaf's
    /// center (exact for disk-pure leaves; the build aligns them).
    Declusterer(Arc<dyn Declusterer>),
    /// A bucket method over a quadrant splitter, evaluated on the leaf's
    /// center bucket (exact for bucket-pure leaves; the build aligns
    /// them).
    Bucket {
        method: Arc<dyn BucketDecluster>,
        splitter: Arc<QuadrantSplitter>,
    },
}

/// The visit sink installed on the global tree: leaf pages charge their
/// assigned disk, directory pages a separate counter.
struct DeclusterSink {
    disks: Vec<Arc<SimDisk>>,
    assignment: PageAssignment,
    /// Leaf → disk map recorded at build time (bucket-pure leaves).
    /// Leaves created later (splits after dynamic inserts) fall back to
    /// the assignment rule.
    leaf_map: RwLock<HashMap<u32, usize>>,
    directory_reads: AtomicU64,
}

impl DeclusterSink {
    fn disk_of_leaf(&self, id: NodeId, node: &Node) -> usize {
        if let Some(&d) = self.leaf_map.read().get(&id.0) {
            return d;
        }
        let d = match &self.assignment {
            PageAssignment::RoundRobinPages => id.0 as usize % self.disks.len(),
            PageAssignment::Declusterer(dec) => {
                let center = node.mbr().expect("visited leaves are non-empty").center();
                dec.assign(id.0 as u64, &center)
            }
            PageAssignment::Bucket { method, splitter } => {
                let center = node.mbr().expect("visited leaves are non-empty").center();
                method.disk_of_bucket(splitter.bucket_of(&center), splitter.dim())
            }
        };
        self.leaf_map.write().insert(id.0, d);
        d
    }
}

impl NodeSink for DeclusterSink {
    fn visit(&self, id: NodeId, node: &Node) -> VisitOutcome {
        if node.is_leaf() {
            let disk = self.disk_of_leaf(id, node);
            self.disks[disk].touch_read(node.pages() as u64);
        } else {
            self.directory_reads
                .fetch_add(node.pages() as u64, Ordering::Relaxed);
        }
        VisitOutcome::Charged
    }
}

/// The paper's parallel X-tree: one global index whose data pages are
/// declustered over `n` simulated disks.
pub struct DeclusteredXTree {
    config: EngineConfig,
    array: DiskArray,
    tree: SpatialTree,
    sink: Arc<DeclusterSink>,
    name: String,
    next_item: u64,
}

impl DeclusteredXTree {
    /// Builds the tree with a **bucket-level** declustering method over a
    /// quadrant splitter. Points are grouped by bucket before bulk
    /// loading, so every leaf page holds points of exactly one bucket and
    /// the declustering is page-exact. The resulting global tree is
    /// **identical for every bucket method** given the same splitter —
    /// exactly the comparison the paper's figures make.
    pub fn build_bucket(
        points: &[Point],
        method: Arc<dyn BucketDecluster>,
        splitter: QuadrantSplitter,
        config: EngineConfig,
    ) -> Result<Self, EngineError> {
        Self::validate(points, &config)?;
        if splitter.dim() != config.dim {
            return Err(EngineError::DimensionMismatch {
                expected: config.dim,
                got: splitter.dim(),
            });
        }
        let disks = method.disks();
        // Partition by bucket, ordered by bucket number (z-order of the
        // quadrant grid, which keeps neighboring buckets close in the
        // directory).
        let mut by_bucket: std::collections::BTreeMap<u64, Vec<(Point, u64)>> =
            std::collections::BTreeMap::new();
        for (i, p) in points.iter().enumerate() {
            by_bucket
                .entry(splitter.bucket_of(p))
                .or_default()
                .push((p.clone(), i as u64));
        }
        let group_to_disk: Vec<usize> = by_bucket
            .keys()
            .map(|&b| method.disk_of_bucket(b, splitter.dim()))
            .collect();
        let groups: Vec<Vec<(Point, u64)>> = by_bucket.into_values().collect();
        let name = method.name().to_owned();
        Self::finish(
            groups,
            group_to_disk,
            PageAssignment::Bucket {
                method,
                splitter: Arc::new(splitter),
            },
            disks,
            config,
            name,
        )
    }

    /// Builds the tree with an explicit point-level declusterer (e.g. the
    /// recursive declusterer). Points are grouped by their assigned disk
    /// before bulk loading, so every leaf page holds points of exactly one
    /// disk and the declustering is page-exact.
    pub fn build(
        points: &[Point],
        declusterer: Arc<dyn Declusterer>,
        config: EngineConfig,
    ) -> Result<Self, EngineError> {
        Self::validate(points, &config)?;
        let disks = declusterer.disks();
        let mut groups: Vec<Vec<(Point, u64)>> = vec![Vec::new(); disks];
        for (i, p) in points.iter().enumerate() {
            groups[declusterer.assign(i as u64, p)].push((p.clone(), i as u64));
        }
        let name = declusterer.name();
        let group_to_disk: Vec<usize> = (0..disks).collect();
        Self::finish(
            groups,
            group_to_disk,
            PageAssignment::Declusterer(declusterer),
            disks,
            config,
            name,
        )
    }

    /// Builds the tree with round-robin **page** placement (leaf page `j`
    /// on disk `j mod n`) — the baseline of the paper's Figure 2/3 at page
    /// granularity.
    pub fn build_round_robin_pages(
        points: &[Point],
        disks: usize,
        config: EngineConfig,
    ) -> Result<Self, EngineError> {
        Self::validate(points, &config)?;
        if disks == 0 {
            return Err(EngineError::Internal("need at least one disk".into()));
        }
        let items: Vec<(Point, u64)> = points
            .iter()
            .enumerate()
            .map(|(i, p)| (p.clone(), i as u64))
            .collect();
        Self::finish(
            vec![items],
            Vec::new(),
            PageAssignment::RoundRobinPages,
            disks,
            config,
            "round-robin-pages".to_owned(),
        )
    }

    /// Builds the tree with the paper's near-optimal declustering (folded
    /// to at most `disks` disks).
    pub fn build_near_optimal(
        points: &[Point],
        disks: usize,
        config: EngineConfig,
    ) -> Result<Self, EngineError> {
        Self::validate(points, &config)?;
        let splitter = match config.splits {
            SplitStrategy::Midpoint => QuadrantSplitter::midpoint(config.dim)
                .map_err(|e| EngineError::Internal(e.to_string()))?,
            SplitStrategy::DataMedian => {
                median_splits(points).map_err(|e| EngineError::Internal(e.to_string()))?
            }
        };
        let capped =
            disks.min(parsim_decluster::near_optimal::colors_required(config.dim) as usize);
        let method = NearOptimal::new(config.dim, capped)
            .map_err(|e| EngineError::Internal(e.to_string()))?;
        Self::build_bucket(points, Arc::new(method), splitter, config)
    }

    fn validate(points: &[Point], config: &EngineConfig) -> Result<(), EngineError> {
        if points.is_empty() {
            return Err(EngineError::EmptyDataSet);
        }
        for p in points {
            if p.dim() != config.dim {
                return Err(EngineError::DimensionMismatch {
                    expected: config.dim,
                    got: p.dim(),
                });
            }
        }
        Ok(())
    }

    fn finish(
        groups: Vec<Vec<(Point, u64)>>,
        group_to_disk: Vec<usize>,
        assignment: PageAssignment,
        disks: usize,
        config: EngineConfig,
        name: String,
    ) -> Result<Self, EngineError> {
        let array = DiskArray::new(disks, config.disk_model)
            .map_err(|e| EngineError::Internal(e.to_string()))?;
        let params = TreeParams::for_dim(config.dim, config.variant)
            .map_err(|e| EngineError::Internal(e.to_string()))?;
        let (tree, group_leaves) = SpatialTree::bulk_load_grouped(params, groups)
            .map_err(|e| EngineError::Internal(e.to_string()))?;

        let mut leaf_map = HashMap::new();
        if !matches!(assignment, PageAssignment::RoundRobinPages) {
            for (gi, leaves) in group_leaves.iter().enumerate() {
                for id in leaves {
                    leaf_map.insert(id.0, group_to_disk[gi]);
                }
            }
        }
        let sink = Arc::new(DeclusterSink {
            disks: array.iter().cloned().collect(),
            assignment,
            leaf_map: RwLock::new(leaf_map),
            directory_reads: AtomicU64::new(0),
        });
        let tree = tree.with_sink(Arc::clone(&sink) as Arc<dyn NodeSink>);
        let next_item = tree.len() as u64;
        Ok(DeclusteredXTree {
            config,
            array,
            tree,
            sink,
            name,
            next_item,
        })
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Number of disks.
    pub fn disks(&self) -> usize {
        self.array.len()
    }

    /// Name of the declustering in use (for experiment logs).
    pub fn declusterer_name(&self) -> &str {
        &self.name
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.tree.len()
    }

    /// True if no points are indexed.
    pub fn is_empty(&self) -> bool {
        self.tree.is_empty()
    }

    /// The global tree (for statistics).
    pub fn tree(&self) -> &SpatialTree {
        &self.tree
    }

    /// Per-disk counts of *data pages* (leaves) currently assigned.
    pub fn page_distribution(&self) -> Vec<u64> {
        let mut counts = vec![0u64; self.disks()];
        for (&leaf, &disk) in self.sink.leaf_map.read().iter() {
            let _ = leaf;
            counts[disk] += 1;
        }
        counts
    }

    /// Runs a k-NN query on the global tree. Returns the neighbors and the
    /// per-disk data-page cost; directory pages (RAM-cached) are available
    /// via the second tuple element of [`DeclusteredXTree::knn_detailed`].
    pub fn knn(&self, query: &Point, k: usize) -> Result<(Vec<Neighbor>, QueryCost), EngineError> {
        let (nb, cost, _) = self.knn_detailed(query, k)?;
        Ok((nb, cost))
    }

    /// Like [`DeclusteredXTree::knn`] but also returns the number of
    /// directory pages the traversal touched.
    pub fn knn_detailed(
        &self,
        query: &Point,
        k: usize,
    ) -> Result<(Vec<Neighbor>, QueryCost, u64), EngineError> {
        if query.dim() != self.config.dim {
            return Err(EngineError::DimensionMismatch {
                expected: self.config.dim,
                got: query.dim(),
            });
        }
        let scope = self.array.begin_query();
        let dir_before = self.sink.directory_reads.load(Ordering::Relaxed);
        let neighbors = self.tree.knn(query, k, KnnAlgorithm::Rkv);
        let dir_after = self.sink.directory_reads.load(Ordering::Relaxed);
        Ok((neighbors, scope.finish(&self.array), dir_after - dir_before))
    }

    /// The disk service-time model in use.
    pub fn disk_model(&self) -> parsim_storage::DiskModel {
        *self.array.model()
    }

    /// Runs a similarity ε-range query: all points within `radius` of
    /// `center`, sorted by distance, plus the per-disk page cost.
    pub fn range_query(
        &self,
        center: &Point,
        radius: f64,
    ) -> Result<(Vec<Neighbor>, QueryCost), EngineError> {
        if center.dim() != self.config.dim {
            return Err(EngineError::DimensionMismatch {
                expected: self.config.dim,
                got: center.dim(),
            });
        }
        let scope = self.array.begin_query();
        let hits = self.tree.range_query(center, radius);
        Ok((hits, scope.finish(&self.array)))
    }

    /// Runs a window query: all points inside the closed rectangle, plus
    /// the per-disk page cost.
    pub fn window_query(
        &self,
        window: &parsim_geometry::HyperRect,
    ) -> Result<(Vec<Neighbor>, QueryCost), EngineError> {
        if window.dim() != self.config.dim {
            return Err(EngineError::DimensionMismatch {
                expected: self.config.dim,
                got: window.dim(),
            });
        }
        let scope = self.array.begin_query();
        let hits = self.tree.window_query(window);
        Ok((hits, scope.finish(&self.array)))
    }

    /// Starts an incremental (distance-browsing) neighbor scan; page costs
    /// accrue on the disks as the iterator advances.
    pub fn nn_iter(&self, query: &Point) -> parsim_index::NnIterator<'_> {
        self.tree.nn_iter(query)
    }

    /// Inserts a point dynamically. New leaves created by later splits are
    /// assigned by the declustering rule on their region center.
    pub fn insert(&mut self, point: Point) -> Result<u64, EngineError> {
        if point.dim() != self.config.dim {
            return Err(EngineError::DimensionMismatch {
                expected: self.config.dim,
                got: point.dim(),
            });
        }
        let item = self.next_item;
        self.next_item += 1;
        // Structural changes invalidate recorded leaf placements of the
        // nodes involved; conservatively drop the cache for simplicity —
        // the assignment rule recomputes on demand.
        self.sink.leaf_map.write().clear();
        self.tree
            .insert(point, item)
            .map_err(|e| EngineError::Internal(e.to_string()))?;
        Ok(item)
    }

    /// Deletes a previously stored point. Structural changes invalidate
    /// recorded leaf placements, so the placement cache is dropped and
    /// recomputed lazily from the assignment rule.
    pub fn delete(&mut self, point: &Point, item: u64) -> Result<(), EngineError> {
        if point.dim() != self.config.dim {
            return Err(EngineError::DimensionMismatch {
                expected: self.config.dim,
                got: point.dim(),
            });
        }
        self.sink.leaf_map.write().clear();
        self.tree
            .delete(point, item)
            .map_err(|e| EngineError::Internal(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parsim_datagen::{DataGenerator, UniformGenerator};
    use parsim_index::knn::brute_force_knn;

    fn build(n: usize, dim: usize, disks: usize) -> (DeclusteredXTree, Vec<Point>) {
        let pts = UniformGenerator::new(dim).generate(n, 3);
        let config = EngineConfig::paper_defaults(dim);
        let e = DeclusteredXTree::build_near_optimal(&pts, disks, config).unwrap();
        (e, pts)
    }

    #[test]
    fn knn_is_exact() {
        let (e, pts) = build(3000, 8, 8);
        let data: Vec<(Point, u64)> = pts
            .iter()
            .enumerate()
            .map(|(i, p)| (p.clone(), i as u64))
            .collect();
        for q in UniformGenerator::new(8).generate(10, 99) {
            let (got, cost) = e.knn(&q, 10).unwrap();
            let want = brute_force_knn(&data, &q, 10);
            for (g, w) in got.iter().zip(want.iter()) {
                assert!((g.dist - w.dist).abs() < 1e-12);
            }
            assert!(cost.total_reads > 0);
        }
    }

    #[test]
    fn page_set_is_method_independent() {
        // The global tree is shared, so total pages per query must be
        // identical across declusterings built from the same disk-pure
        // grouping order... here we check the weaker, robust property:
        // round-robin pages and near-optimal read similar totals (same
        // tree family), but distribute differently.
        let dim = 8;
        let pts = UniformGenerator::new(dim).generate(4000, 5);
        let config = EngineConfig::paper_defaults(dim);
        let no = DeclusteredXTree::build_near_optimal(&pts, 8, config).unwrap();
        let rr = DeclusteredXTree::build_round_robin_pages(&pts, 8, config).unwrap();
        let q = UniformGenerator::new(dim).generate(1, 6).pop().unwrap();
        let (_, c1) = no.knn(&q, 10).unwrap();
        let (_, c2) = rr.knn(&q, 10).unwrap();
        assert!(c1.total_reads > 0 && c2.total_reads > 0);
        // Same order of magnitude (both are bulk-loaded X-trees).
        let ratio = c1.total_reads as f64 / c2.total_reads as f64;
        assert!((0.4..2.5).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn directory_pages_are_counted_separately() {
        let (e, _) = build(3000, 8, 8);
        let q = UniformGenerator::new(8).generate(1, 7).pop().unwrap();
        let (_, cost, dir) = e.knn_detailed(&q, 10).unwrap();
        assert!(dir > 0, "directory must be traversed");
        assert!(cost.total_reads > 0, "leaves must be read");
    }

    #[test]
    fn leaf_pages_balance_on_uniform_data() {
        let (e, pts) = build(8000, 8, 8);
        // Run a workload so the lazy leaf map fills, then check placement.
        for q in UniformGenerator::new(8).generate(20, 8) {
            e.knn(&q, 10).unwrap();
        }
        let dist = e.page_distribution();
        let total: u64 = dist.iter().sum();
        assert!(total > 0);
        let _ = pts;
        let max = *dist.iter().max().unwrap() as f64;
        let avg = total as f64 / dist.len() as f64;
        assert!(max / avg < 2.0, "distribution {dist:?}");
    }

    #[test]
    fn dynamic_insert_keeps_answers_correct() {
        let (mut e, pts) = build(1000, 6, 4);
        let extra = UniformGenerator::new(6).generate(300, 11);
        for p in &extra {
            e.insert(p.clone()).unwrap();
        }
        assert_eq!(e.len(), 1300);
        let (res, _) = e.knn(&pts[0], 1).unwrap();
        assert_eq!(res[0].dist, 0.0);
        let (res, _) = e.knn(&extra[0], 1).unwrap();
        assert_eq!(res[0].dist, 0.0);
    }

    #[test]
    fn rejects_bad_input() {
        let config = EngineConfig::paper_defaults(4);
        assert!(matches!(
            DeclusteredXTree::build_near_optimal(&[], 4, config),
            Err(EngineError::EmptyDataSet)
        ));
        let (e, _) = build(100, 4, 4);
        let wrong = Point::new(vec![0.1; 3]).unwrap();
        assert!(e.knn(&wrong, 1).is_err());
    }
}

#[cfg(test)]
mod passthrough_tests {
    use super::*;
    use parsim_datagen::{DataGenerator, UniformGenerator};
    use parsim_geometry::HyperRect;

    fn engine(dim: usize, n: usize) -> (DeclusteredXTree, Vec<Point>) {
        let pts = UniformGenerator::new(dim).generate(n, 23);
        let config = EngineConfig::paper_defaults(dim);
        let e = DeclusteredXTree::build_near_optimal(&pts, 8, config).unwrap();
        (e, pts)
    }

    #[test]
    fn range_query_matches_scan_and_charges_disks() {
        let (e, pts) = engine(5, 3000);
        let center = Point::new(vec![0.5; 5]).unwrap();
        let (hits, cost) = e.range_query(&center, 0.4).unwrap();
        let expected = pts.iter().filter(|p| p.dist(&center) <= 0.4).count();
        assert_eq!(hits.len(), expected);
        assert!(hits.windows(2).all(|w| w[0].dist <= w[1].dist));
        assert!(cost.total_reads > 0);
        // The sphere pages must spread over several disks.
        let active = cost.per_disk_reads.iter().filter(|&&r| r > 0).count();
        assert!(
            active >= 4,
            "only {active} disks active: {:?}",
            cost.per_disk_reads
        );
    }

    #[test]
    fn window_query_matches_scan() {
        let (e, pts) = engine(4, 2000);
        let window = HyperRect::new(vec![0.2; 4], vec![0.8; 4]).unwrap();
        let (hits, cost) = e.window_query(&window).unwrap();
        let expected = pts.iter().filter(|p| window.contains_point(p)).count();
        assert_eq!(hits.len(), expected);
        assert!(cost.total_reads > 0);
    }

    #[test]
    fn nn_iter_streams_in_order_and_charges() {
        let (e, _) = engine(6, 2500);
        let q = Point::new(vec![0.3; 6]).unwrap();
        let scope = e.array.begin_query();
        let firsts: Vec<f64> = e.nn_iter(&q).take(20).map(|nb| nb.dist).collect();
        let cost = scope.finish(&e.array);
        assert_eq!(firsts.len(), 20);
        assert!(firsts.windows(2).all(|w| w[0] <= w[1]));
        assert!(cost.total_reads > 0);
    }

    #[test]
    fn insert_then_delete_round_trip() {
        let dim = 5;
        let pts = UniformGenerator::new(dim).generate(800, 41);
        let config = EngineConfig::paper_defaults(dim);
        let mut e = DeclusteredXTree::build_near_optimal(&pts, 8, config).unwrap();
        let extra = UniformGenerator::new(dim).generate(50, 42);
        let mut ids = Vec::new();
        for p in &extra {
            ids.push(e.insert(p.clone()).unwrap());
        }
        assert_eq!(e.len(), 850);
        for (p, id) in extra.iter().zip(&ids) {
            e.delete(p, *id).unwrap();
        }
        assert_eq!(e.len(), 800);
        // Remaining data still answers exactly.
        let (res, _) = e.knn(&pts[3], 1).unwrap();
        assert_eq!(res[0].dist, 0.0);
        // Deleting twice fails cleanly.
        assert!(e.delete(&extra[0], ids[0]).is_err());
    }

    #[test]
    fn queries_with_wrong_dimension_fail() {
        let (e, _) = engine(4, 200);
        let bad = Point::new(vec![0.5; 3]).unwrap();
        assert!(e.range_query(&bad, 0.1).is_err());
        let bad_window = HyperRect::new(vec![0.0; 3], vec![1.0; 3]).unwrap();
        assert!(e.window_query(&bad_window).is_err());
    }
}
