//! The sequential (single-disk) baseline engine.

use std::sync::Arc;

use parsim_geometry::Point;
use parsim_index::knn::Neighbor;
use parsim_index::{KnnAlgorithm, SpatialTree, TreeParams};
use parsim_storage::{DiskArray, QueryCost};

use crate::config::EngineConfig;
use crate::EngineError;

/// One X-tree on one disk — the baseline against which the paper computes
/// speed-ups ("we compared the search time of the parallel X-tree with a
/// sequential X-tree using the original implementation of \[BKK 96\]").
pub struct SequentialEngine {
    config: EngineConfig,
    array: DiskArray,
    tree: SpatialTree,
}

impl SequentialEngine {
    /// Builds the single-disk engine over `points` (bulk-loaded).
    pub fn build(points: &[Point], config: EngineConfig) -> Result<Self, EngineError> {
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
        let array = DiskArray::new(1, config.disk_model)
            .map_err(|e| EngineError::Internal(e.to_string()))?;
        let params = TreeParams::for_dim(config.dim, config.variant)
            .map_err(|e| EngineError::Internal(e.to_string()))?;
        let items: Vec<(Point, u64)> = points
            .iter()
            .enumerate()
            .map(|(i, p)| (p.clone(), i as u64))
            .collect();
        let tree = SpatialTree::bulk_load(params, items)
            .map_err(|e| EngineError::Internal(e.to_string()))?
            .with_disk(Arc::clone(array.disk(0)));
        Ok(SequentialEngine {
            config,
            array,
            tree,
        })
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.tree.len()
    }

    /// True if empty (never for a successfully built engine).
    pub fn is_empty(&self) -> bool {
        self.tree.is_empty()
    }

    /// The underlying tree.
    pub fn tree(&self) -> &SpatialTree {
        &self.tree
    }

    /// Runs a k-NN query, returning the neighbors and the page cost.
    pub fn knn(&self, query: &Point, k: usize) -> Result<(Vec<Neighbor>, QueryCost), EngineError> {
        if query.dim() != self.config.dim {
            return Err(EngineError::DimensionMismatch {
                expected: self.config.dim,
                got: query.dim(),
            });
        }
        let scope = self.array.begin_query();
        let result = self.tree.knn(query, k, KnnAlgorithm::Rkv);
        Ok((result, scope.finish(&self.array)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parsim_datagen::{DataGenerator, UniformGenerator};
    use parsim_index::knn::brute_force_knn;

    #[test]
    fn sequential_knn_is_exact_and_costed() {
        let pts = UniformGenerator::new(6).generate(2000, 1);
        let e = SequentialEngine::build(&pts, EngineConfig::paper_defaults(6)).unwrap();
        let data: Vec<(Point, u64)> = pts
            .iter()
            .enumerate()
            .map(|(i, p)| (p.clone(), i as u64))
            .collect();
        let q = UniformGenerator::new(6).generate(1, 50).pop().unwrap();
        let (got, cost) = e.knn(&q, 10).unwrap();
        let want = brute_force_knn(&data, &q, 10);
        for (g, w) in got.iter().zip(want.iter()) {
            assert!((g.dist - w.dist).abs() < 1e-12);
        }
        assert_eq!(cost.per_disk_reads.len(), 1);
        assert_eq!(cost.total_reads, cost.max_reads);
        assert!(cost.total_reads > 0);
    }

    #[test]
    fn rejects_empty_and_mismatched() {
        assert!(matches!(
            SequentialEngine::build(&[], EngineConfig::paper_defaults(4)),
            Err(EngineError::EmptyDataSet)
        ));
        let pts = UniformGenerator::new(4).generate(10, 2);
        let e = SequentialEngine::build(&pts, EngineConfig::paper_defaults(4)).unwrap();
        assert_eq!(e.len(), 10);
        let wrong = Point::new(vec![0.5; 5]).unwrap();
        assert!(e.knn(&wrong, 1).is_err());
    }
}
