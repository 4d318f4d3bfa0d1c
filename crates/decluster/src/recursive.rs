//! Recursive declustering of overloaded buckets (Section 4.3).
//!
//! For highly *correlated* data even per-dimension quantile splits cannot
//! balance the disks: every 1-d marginal is balanced, yet only a few
//! quadrants carry data. The paper's answer: detect the overloaded disk and
//! **recursively decluster all of its buckets in one step** with the `col`
//! function, permuting the colors with a simple heuristic when descending a
//! level. Declustering *all* overloaded buckets would need `O(2^d)` state
//! per level; refining only the buckets of the single most loaded disk
//! keeps the rule table small, and the step can be repeated until the load
//! is balanced ([`RecursiveDeclusterer::build`], Figure 16).
//!
//! [`RecursiveDeclusterer::refine_dense`] is the one-pass variant the
//! engine places its data with: every bucket holding more than a point
//! limit gets a child partition at its own medians, recursively. Only the
//! dense buckets carry state, so the rule table stays small without
//! singling out one disk.

use std::collections::HashMap;

use parsim_geometry::quadrant::BucketId;
use parsim_geometry::{Point, QuadrantSplitter};

use crate::methods::Declusterer;
use crate::near_optimal::NearOptimal;
use crate::quantile::median_splits_of;
use crate::DeclusterError;

/// Tuning knobs of [`RecursiveDeclusterer::build`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecursiveConfig {
    /// Maximum number of refinement passes (the paper needed one pass for
    /// its clustered Fourier data, Figure 16).
    pub max_levels: usize,
    /// Stop refining once `max_disk_load / avg_disk_load` drops to this.
    pub imbalance_threshold: f64,
    /// Buckets with fewer points than this are never refined.
    pub min_bucket_points: usize,
    /// Split buckets at the median of their content (true) or at the
    /// region mid-point (false).
    pub median_splits: bool,
}

impl Default for RecursiveConfig {
    fn default() -> Self {
        RecursiveConfig {
            max_levels: 4,
            imbalance_threshold: 1.5,
            min_bucket_points: 32,
            median_splits: true,
        }
    }
}

/// Why [`RecursiveDeclusterer::build`] stopped refining.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The imbalance dropped below the configured threshold.
    Balanced,
    /// A pass refined nothing: every candidate bucket of the most-loaded
    /// disk was too small ([`RecursiveConfig::min_bucket_points`]) or held
    /// only identical points.
    NothingToRefine,
    /// [`RecursiveConfig::max_levels`] passes ran without converging.
    MaxLevels,
    /// The one-pass [`RecursiveDeclusterer::refine_dense`] left no bucket
    /// above its point limit that its own medians could split.
    NoDenseBucket,
}

/// Diagnostics of one refinement pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LevelStats {
    /// Load imbalance (`max / avg`) *before* this pass.
    pub imbalance_before: f64,
    /// The most-loaded disk this pass targeted.
    pub target_disk: usize,
    /// Buckets of the target disk that received a child partition.
    pub refined_buckets: usize,
    /// Candidate buckets skipped for holding fewer than
    /// [`RecursiveConfig::min_bucket_points`] points.
    pub skipped_small: usize,
    /// Candidate buckets skipped because all their points are identical.
    pub skipped_uniform: usize,
}

/// Build-time diagnostics of a [`RecursiveDeclusterer`]: the per-level
/// imbalance trace that documents *why* refinement converged or plateaued.
#[derive(Debug, Clone, PartialEq)]
pub struct RecursiveStats {
    /// One entry per refinement pass that ran (may be empty if the flat
    /// declustering was already balanced).
    pub levels: Vec<LevelStats>,
    /// Load imbalance after the final pass.
    pub final_imbalance: f64,
    /// Why the build loop stopped.
    pub stop: StopReason,
}

/// Per-pass refinement counters returned by the internal `refine` walk.
#[derive(Debug, Clone, Copy, Default)]
struct RefineCounts {
    refined: usize,
    skipped_small: usize,
    skipped_uniform: usize,
}

impl RefineCounts {
    fn absorb(&mut self, other: RefineCounts) {
        self.refined += other.refined;
        self.skipped_small += other.skipped_small;
        self.skipped_uniform += other.skipped_uniform;
    }
}

/// One node of the refinement tree: a quadrant partition of (a region of)
/// the data space whose buckets map to disks via the folded `col`
/// coloring, except where a child node refines a bucket further.
#[derive(Debug, Clone)]
struct Node {
    splitter: QuadrantSplitter,
    base: NearOptimal,
    /// Color rotation at this level — the paper's "permuting the colors
    /// using a simple heuristic when going to the next level of recursion".
    rotation: usize,
    children: HashMap<BucketId, Node>,
}

impl Node {
    fn disk_of_bucket(&self, bucket: BucketId, disks: usize) -> usize {
        use crate::methods::BucketDecluster;
        (self.base.disk_of_bucket(bucket, self.splitter.dim()) + self.rotation) % disks
    }

    fn assign(&self, p: &Point, disks: usize) -> usize {
        let bucket = self.splitter.bucket_of(p);
        match self.children.get(&bucket) {
            Some(child) => child.assign(p, disks),
            None => self.disk_of_bucket(bucket, disks),
        }
    }

    fn depth(&self) -> usize {
        1 + self.children.values().map(Node::depth).max().unwrap_or(0)
    }

    /// Gives every bucket of this (childless) node that holds more than
    /// `limit` of `points` a child partition at the bucket's own medians,
    /// one rotation further, recursively; adds the points of every
    /// unrefined bucket to `loads`. `counts` are the points per bucket.
    /// Only the dense buckets' points are gathered, as references.
    fn refine_dense<'a, I>(
        &mut self,
        points: I,
        counts: HashMap<BucketId, usize>,
        disks: usize,
        limit: usize,
        loads: &mut [u64],
    ) -> Result<(), DeclusterError>
    where
        I: Iterator<Item = &'a Point>,
    {
        let mut dense: HashMap<BucketId, Vec<&'a Point>> = counts
            .iter()
            .filter(|&(_, &n)| n > limit)
            .map(|(&bucket, &n)| (bucket, Vec::with_capacity(n)))
            .collect();
        if !dense.is_empty() {
            for p in points {
                if let Some(members) = dense.get_mut(&self.splitter.bucket_of(p)) {
                    members.push(p);
                }
            }
        }
        for (bucket, n) in counts {
            if !dense.contains_key(&bucket) {
                loads[self.disk_of_bucket(bucket, disks)] += n as u64;
            }
        }
        for (bucket, members) in dense {
            let dim = self.splitter.dim();
            let splitter = median_splits_of(members.iter().copied())
                .map_err(|_| DeclusterError::BadDimension { dim })?;
            let child_counts = bucket_counts(&splitter, members.iter().copied());
            if child_counts.len() < 2 {
                // Identical points (or values the medians cannot tell
                // apart): no split separates them, refining would not end.
                loads[self.disk_of_bucket(bucket, disks)] += members.len() as u64;
                continue;
            }
            let mut child = Node {
                splitter,
                base: self.base.clone(),
                rotation: self.rotation + 1,
                children: HashMap::new(),
            };
            child.refine_dense(members.into_iter(), child_counts, disks, limit, loads)?;
            self.children.insert(bucket, child);
        }
        Ok(())
    }
}

/// Points per bucket of `splitter`.
fn bucket_counts<'a>(
    splitter: &QuadrantSplitter,
    points: impl Iterator<Item = &'a Point>,
) -> HashMap<BucketId, usize> {
    let mut counts = HashMap::new();
    for p in points {
        *counts.entry(splitter.bucket_of(p)).or_default() += 1;
    }
    counts
}

/// The recursive declusterer: a near-optimal quadrant declustering whose
/// overloaded buckets are recursively re-declustered — those of the most
/// loaded disk until the per-disk load is balanced
/// ([`RecursiveDeclusterer::build`]), or every bucket above a point limit
/// ([`RecursiveDeclusterer::refine_dense`]).
#[derive(Debug, Clone)]
pub struct RecursiveDeclusterer {
    disks: usize,
    dim: usize,
    root: Node,
    stats: RecursiveStats,
}

impl RecursiveDeclusterer {
    /// Builds the declusterer for `points` over `disks` disks.
    ///
    /// The root partition uses median (or mid-point) splits; refinement
    /// passes then repeatedly pick the most loaded disk and re-decluster
    /// all of its sufficiently large buckets one level deeper, rotating
    /// the colors per level.
    pub fn build(
        points: &[Point],
        disks: usize,
        config: RecursiveConfig,
    ) -> Result<Self, DeclusterError> {
        if disks == 0 {
            return Err(DeclusterError::ZeroDisks);
        }
        if points.is_empty() {
            return Err(DeclusterError::BadDimension { dim: 0 });
        }
        let dim = points[0].dim();
        let effective_disks = disks.min(crate::near_optimal::colors_required(dim) as usize);
        let splitter = Self::make_splitter(points, dim, config.median_splits)?;
        let base = NearOptimal::new(dim, effective_disks)?;
        let mut this = RecursiveDeclusterer {
            disks: effective_disks,
            dim,
            root: Node {
                splitter,
                base,
                rotation: 0,
                children: HashMap::new(),
            },
            stats: RecursiveStats {
                levels: Vec::new(),
                final_imbalance: 1.0,
                stop: StopReason::MaxLevels,
            },
        };

        for level in 1..=config.max_levels {
            let loads = this.load_histogram(points);
            let total: u64 = loads.iter().sum();
            let max = loads.iter().copied().max().unwrap_or(0);
            let avg = total as f64 / this.disks as f64;
            if avg == 0.0 || (max as f64) <= config.imbalance_threshold * avg {
                this.stats.stop = StopReason::Balanced;
                break;
            }
            let target = loads
                .iter()
                .enumerate()
                .max_by_key(|&(_, &l)| l)
                .map(|(i, _)| i)
                .expect("non-empty loads");
            let point_refs: Vec<&Point> = points.iter().collect();
            let disks_n = this.disks;
            let counts =
                Self::refine(&mut this.root, &point_refs, target, disks_n, level, &config)?;
            this.stats.levels.push(LevelStats {
                imbalance_before: max as f64 / avg,
                target_disk: target,
                refined_buckets: counts.refined,
                skipped_small: counts.skipped_small,
                skipped_uniform: counts.skipped_uniform,
            });
            if counts.refined == 0 {
                this.stats.stop = StopReason::NothingToRefine;
                break; // nothing left to refine — avoid spinning
            }
        }
        this.stats.final_imbalance = this.imbalance(points);
        Ok(this)
    }

    /// Builds the declusterer in one pass over `points`, starting from the
    /// quadrant partition `splitter`: every bucket holding more than
    /// `max_bucket_points` points gets a child partition at the bucket's
    /// own medians, colored by `col` with the per-level rotation, and so on
    /// down until no bucket is that dense or a dense bucket holds only
    /// identical points (Section 4.3). A bucket that would fill two leaves
    /// on every disk should not sit on one disk: the engine passes
    /// `2 × disks × leaf_capacity`.
    ///
    /// `points` is read twice at the root (once to count the buckets, once
    /// to gather the dense ones) and never copied. With no dense bucket
    /// the placement is the flat near-optimal one over `splitter`. The
    /// [`RecursiveStats`] record no passes and the final imbalance over
    /// `points`.
    pub fn refine_dense<'a, I>(
        points: I,
        splitter: QuadrantSplitter,
        disks: usize,
        max_bucket_points: usize,
    ) -> Result<Self, DeclusterError>
    where
        I: Iterator<Item = &'a Point> + Clone,
    {
        if disks == 0 {
            return Err(DeclusterError::ZeroDisks);
        }
        let dim = splitter.dim();
        let disks = disks.min(crate::near_optimal::colors_required(dim) as usize);
        let counts = bucket_counts(&splitter, points.clone());
        if counts.is_empty() {
            return Err(DeclusterError::BadDimension { dim: 0 });
        }
        let mut root = Node {
            splitter,
            base: NearOptimal::new(dim, disks)?,
            rotation: 0,
            children: HashMap::new(),
        };
        let mut loads = vec![0u64; disks];
        root.refine_dense(points, counts, disks, max_bucket_points, &mut loads)?;
        let total: u64 = loads.iter().sum();
        let max = loads.iter().copied().max().unwrap_or(0);
        Ok(RecursiveDeclusterer {
            disks,
            dim,
            root,
            stats: RecursiveStats {
                levels: Vec::new(),
                final_imbalance: max as f64 / (total as f64 / disks as f64),
                stop: StopReason::NoDenseBucket,
            },
        })
    }

    fn make_splitter<P: std::borrow::Borrow<Point>>(
        points: &[P],
        dim: usize,
        medians: bool,
    ) -> Result<QuadrantSplitter, DeclusterError> {
        if medians {
            median_splits_of(points.iter().map(|p| p.borrow()))
                .map_err(|_| DeclusterError::BadDimension { dim })
        } else {
            QuadrantSplitter::midpoint(dim).map_err(|_| DeclusterError::BadDimension { dim })
        }
    }

    /// One refinement pass: descend the tree and give every sufficiently
    /// large leaf bucket of `target_disk` a child node.
    fn refine(
        node: &mut Node,
        points: &[&Point],
        target_disk: usize,
        disks: usize,
        level: usize,
        config: &RecursiveConfig,
    ) -> Result<RefineCounts, DeclusterError> {
        // Partition this node's points by bucket.
        let mut by_bucket: HashMap<BucketId, Vec<&Point>> = HashMap::new();
        for &p in points {
            by_bucket
                .entry(node.splitter.bucket_of(p))
                .or_default()
                .push(p);
        }
        let mut counts = RefineCounts::default();
        for (bucket, bucket_points) in by_bucket {
            if let Some(child) = node.children.get_mut(&bucket) {
                counts.absorb(Self::refine(
                    child,
                    &bucket_points,
                    target_disk,
                    disks,
                    level,
                    config,
                )?);
                continue;
            }
            if node.disk_of_bucket(bucket, disks) != target_disk {
                continue;
            }
            if bucket_points.len() < config.min_bucket_points {
                counts.skipped_small += 1;
                continue;
            }
            // All points identical? Splitting cannot separate them.
            if bucket_points.windows(2).all(|w| w[0] == w[1]) {
                counts.skipped_uniform += 1;
                continue;
            }
            let dim = node.splitter.dim();
            let splitter = Self::make_splitter(&bucket_points, dim, config.median_splits)?;
            let base = NearOptimal::new(
                dim,
                disks.min(crate::near_optimal::colors_required(dim) as usize),
            )?;
            node.children.insert(
                bucket,
                Node {
                    splitter,
                    base,
                    rotation: level,
                    children: HashMap::new(),
                },
            );
            counts.refined += 1;
        }
        Ok(counts)
    }

    /// Number of partition levels (1 = no refinement happened).
    pub fn levels(&self) -> usize {
        self.root.depth()
    }

    /// Build-time diagnostics: the per-pass imbalance trace and the reason
    /// refinement stopped.
    pub fn stats(&self) -> &RecursiveStats {
        &self.stats
    }

    /// Per-disk point counts under the current assignment.
    pub fn load_histogram(&self, points: &[Point]) -> Vec<u64> {
        let mut loads = vec![0u64; self.disks];
        for p in points {
            loads[self.root.assign(p, self.disks)] += 1;
        }
        loads
    }

    /// Load imbalance `max / avg` over the given points (1.0 = perfect).
    pub fn imbalance(&self, points: &[Point]) -> f64 {
        let loads = self.load_histogram(points);
        let total: u64 = loads.iter().sum();
        if total == 0 {
            return 1.0;
        }
        let max = loads.iter().copied().max().unwrap_or(0) as f64;
        max / (total as f64 / self.disks as f64)
    }
}

impl Declusterer for RecursiveDeclusterer {
    fn name(&self) -> String {
        format!("near-optimal+recursive(x{})", self.levels())
    }

    fn disks(&self) -> usize {
        self.disks
    }

    fn assign(&self, _seq: u64, p: &Point) -> usize {
        debug_assert_eq!(p.dim(), self.dim);
        self.root.assign(p, self.disks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::methods::BucketBased;
    use crate::quantile::median_splits;
    use parsim_datagen::{
        ClusteredGenerator, CorrelatedGenerator, DataGenerator, UniformGenerator,
    };

    fn flat_imbalance(method: &dyn Declusterer, points: &[Point]) -> f64 {
        let mut loads = vec![0u64; method.disks()];
        for (i, p) in points.iter().enumerate() {
            loads[method.assign(i as u64, p)] += 1;
        }
        let total: u64 = loads.iter().sum();
        let max = loads.iter().copied().max().unwrap() as f64;
        max / (total as f64 / method.disks() as f64)
    }

    #[test]
    fn uniform_data_needs_no_refinement() {
        let pts = UniformGenerator::new(6).generate(4000, 1);
        let r = RecursiveDeclusterer::build(&pts, 8, RecursiveConfig::default()).unwrap();
        assert_eq!(r.levels(), 1);
        assert!(r.imbalance(&pts) < 1.5);
    }

    #[test]
    fn correlated_data_gets_refined_and_balanced() {
        let pts = CorrelatedGenerator::new(8, 0.01).generate(8000, 5);
        // Without recursion: the flat near-optimal declustering with
        // median splits is badly imbalanced on correlated data.
        let flat = BucketBased::new(
            NearOptimal::new(8, 8).unwrap(),
            median_splits(&pts).unwrap(),
        );
        let flat_imb = flat_imbalance(&flat, &pts);
        // With recursion the imbalance must improve substantially.
        let r = RecursiveDeclusterer::build(&pts, 8, RecursiveConfig::default()).unwrap();
        let rec_imb = r.imbalance(&pts);
        assert!(r.levels() > 1, "no refinement happened");
        // The achievable ratio depends on the drawn data (≈0.70 with the
        // vendored xoshiro RNG stream); assert a solid improvement rather
        // than a stream-specific constant.
        assert!(
            rec_imb < 0.75 * flat_imb,
            "flat {flat_imb:.2} vs recursive {rec_imb:.2}"
        );
    }

    #[test]
    fn single_quadrant_clusters_are_spread() {
        // The pathological case of Section 4.3: most points in one quadrant.
        let pts = ClusteredGenerator::new(6, 2, 0.02)
            .in_single_quadrant()
            .generate(6000, 9);
        let r = RecursiveDeclusterer::build(&pts, 8, RecursiveConfig::default()).unwrap();
        let loads = r.load_histogram(&pts);
        // Every disk must receive a meaningful share.
        let min = *loads.iter().min().unwrap();
        assert!(min > 0, "some disk got nothing: {loads:?}");
        assert!(r.imbalance(&pts) < 2.0, "imbalance {}", r.imbalance(&pts));
    }

    #[test]
    fn assignment_is_deterministic_and_total() {
        let pts = CorrelatedGenerator::new(5, 0.02).generate(2000, 3);
        let r = RecursiveDeclusterer::build(&pts, 8, RecursiveConfig::default()).unwrap();
        for (i, p) in pts.iter().enumerate() {
            let d = r.assign(i as u64, p);
            assert!(d < r.disks());
            assert_eq!(d, r.assign(i as u64, p));
        }
    }

    #[test]
    fn rejects_degenerate_input() {
        assert!(matches!(
            RecursiveDeclusterer::build(&[], 4, RecursiveConfig::default()),
            Err(DeclusterError::BadDimension { .. })
        ));
        let pts = UniformGenerator::new(3).generate(10, 0);
        assert!(matches!(
            RecursiveDeclusterer::build(&pts, 0, RecursiveConfig::default()),
            Err(DeclusterError::ZeroDisks)
        ));
    }

    #[test]
    fn identical_points_terminate() {
        // All points equal: nothing can be balanced, but build must not
        // loop forever or panic.
        let p = Point::new(vec![0.3, 0.3, 0.3]).unwrap();
        let pts = vec![p; 500];
        let r = RecursiveDeclusterer::build(&pts, 4, RecursiveConfig::default()).unwrap();
        assert!(r.levels() <= 2);
        let loads = r.load_histogram(&pts);
        assert_eq!(loads.iter().sum::<u64>(), 500);
    }

    #[test]
    fn per_level_stats_document_the_plateau() {
        // The ROADMAP open item: at some seeds levels 4–5 stop improving
        // the imbalance. The per-level trace shows why: each pass only
        // refines buckets of the *single* most-loaded disk, and after two
        // or three passes that disk's surplus sits in buckets that are
        // either below `min_bucket_points` or already refined — the pass
        // then refines few (or zero) new buckets and the imbalance curve
        // flattens even though `max_levels` has not been reached.
        let mut plateaued = 0usize;
        for seed in [5u64, 7, 11, 23, 41] {
            let pts = CorrelatedGenerator::new(8, 0.01).generate(6000, seed);
            let config = RecursiveConfig {
                max_levels: 6,
                ..Default::default()
            };
            let r = RecursiveDeclusterer::build(&pts, 8, config).unwrap();
            let stats = r.stats();
            println!(
                "seed {seed}: stop={:?} final={:.3} levels={:?}",
                stats.stop,
                stats.final_imbalance,
                stats
                    .levels
                    .iter()
                    .map(|l| (l.imbalance_before, l.refined_buckets, l.skipped_small))
                    .collect::<Vec<_>>()
            );
            // The trace is internally consistent at every seed.
            assert!(!stats.levels.is_empty(), "seed {seed}: no pass recorded");
            assert!(stats.final_imbalance >= 1.0);
            assert!(
                stats.final_imbalance <= stats.levels[0].imbalance_before,
                "seed {seed}: refinement made things worse"
            );
            for l in &stats.levels {
                assert!(l.target_disk < r.disks());
                assert!(l.imbalance_before > config.imbalance_threshold);
            }
            if stats.stop == StopReason::Balanced {
                continue;
            }
            // A non-converged run must show the plateau signature: the
            // last pass refined no new bucket, or passes kept skipping
            // undersized buckets while refining hardly anything.
            let last = stats.levels.last().unwrap();
            let starved = last.refined_buckets == 0
                || stats
                    .levels
                    .iter()
                    .rev()
                    .take(2)
                    .all(|l| l.skipped_small > 0 && l.refined_buckets <= l.skipped_small);
            assert!(
                starved,
                "seed {seed}: plateau without starvation signature: {stats:?}"
            );
            plateaued += 1;
        }
        // The relaxed-threshold seeds of the original open item do exist.
        assert!(plateaued > 0, "every seed converged — plateau gone?");
    }

    #[test]
    fn disks_capped_at_colors_required() {
        // Asking for more disks than colors exist quietly caps, mirroring
        // the paper's premise that col needs at most nextpow2(d+1) disks.
        let pts = UniformGenerator::new(3).generate(100, 1);
        let r = RecursiveDeclusterer::build(&pts, 16, RecursiveConfig::default()).unwrap();
        assert_eq!(r.disks(), 4);
    }

    /// The engine's limit at 8 disks and 30-entry leaves.
    const DENSE_LIMIT: usize = 2 * 8 * 30;

    #[test]
    fn refine_dense_leaves_uniform_data_on_the_flat_placement() {
        let pts = UniformGenerator::new(8).generate(4000, 2);
        let splitter = median_splits(&pts).unwrap();
        let r = RecursiveDeclusterer::refine_dense(pts.iter(), splitter.clone(), 8, DENSE_LIMIT)
            .unwrap();
        assert_eq!(r.levels(), 1);
        assert_eq!(r.stats().stop, StopReason::NoDenseBucket);
        let flat = BucketBased::new(NearOptimal::new(8, 8).unwrap(), splitter);
        for (i, p) in pts.iter().enumerate() {
            assert_eq!(r.assign(i as u64, p), flat.assign(i as u64, p));
        }
    }

    #[test]
    fn refine_dense_spreads_a_single_dense_cluster_over_every_disk() {
        let pts = ClusteredGenerator::new(6, 2, 0.02)
            .in_single_quadrant()
            .generate(6000, 9);
        let splitter = QuadrantSplitter::midpoint(6).unwrap();
        let flat = BucketBased::new(NearOptimal::new(6, 8).unwrap(), splitter.clone());
        let r = RecursiveDeclusterer::refine_dense(pts.iter(), splitter, 8, DENSE_LIMIT).unwrap();
        assert!(r.levels() > 1, "no refinement happened");
        let loads = r.load_histogram(&pts);
        assert!(
            loads.iter().all(|&l| l > 0),
            "some disk got nothing: {loads:?}"
        );
        let imbalance = r.imbalance(&pts);
        assert!(imbalance < 0.5 * flat_imbalance(&flat, &pts), "{imbalance}");
        // The loads tallied while building match the assignment.
        assert!((r.stats().final_imbalance - imbalance).abs() < 1e-12);
    }

    #[test]
    fn refine_dense_refines_only_buckets_strictly_above_the_limit() {
        let limit = 20;
        let spread = |cx: f64, n: usize| -> Vec<Point> {
            (0..n)
                .map(|i| Point::new(vec![cx + i as f64 * 1e-3, cx - i as f64 * 1e-3]).unwrap())
                .collect()
        };
        let at_limit = spread(0.25, limit);
        let above = spread(0.75, limit + 1);
        let pts: Vec<Point> = at_limit.iter().chain(&above).cloned().collect();
        let splitter = QuadrantSplitter::midpoint(2).unwrap();
        let r = RecursiveDeclusterer::refine_dense(pts.iter(), splitter.clone(), 4, limit).unwrap();
        let refined: Vec<BucketId> = r.root.children.keys().copied().collect();
        assert_eq!(refined, vec![splitter.bucket_of(&above[0])]);
        assert_eq!(r.levels(), 2);
        assert_eq!(r.load_histogram(&pts).iter().sum::<u64>(), pts.len() as u64);
    }

    #[test]
    fn refine_dense_terminates_on_identical_points() {
        let p = Point::new(vec![0.3, 0.3, 0.3]).unwrap();
        let mut pts = vec![p; 500];
        let splitter = median_splits(&pts).unwrap();
        let r = RecursiveDeclusterer::refine_dense(pts.iter(), splitter, 4, 10).unwrap();
        assert!(r.levels() <= 2);
        assert_eq!(r.load_histogram(&pts).iter().sum::<u64>(), 500);
        // A few distinct points among the copies: the copies still end in
        // one unsplittable bucket after finitely many levels.
        pts.extend((1..=5).map(|i| Point::new(vec![0.3 + 0.01 * i as f64; 3]).unwrap()));
        let splitter = median_splits(&pts).unwrap();
        let r = RecursiveDeclusterer::refine_dense(pts.iter(), splitter, 4, 10).unwrap();
        assert!(r.levels() <= 3, "levels {}", r.levels());
        assert_eq!(r.load_histogram(&pts).iter().sum::<u64>(), 505);
    }
}
