//! Engine configuration.

use parsim_index::TreeVariant;
use parsim_storage::DiskModel;

/// How the quadrant split values are chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SplitStrategy {
    /// Split every dimension at 0.5 (Section 3.1; correct for uniform
    /// data).
    Midpoint,
    /// Split every dimension at the 0.5-quantile of the data (Section 4.3;
    /// required for skewed real data).
    #[default]
    DataMedian,
}

/// Configuration of a parallel (or sequential) engine. Every engine
/// searches with the paper's RKV branch-and-bound.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineConfig {
    /// Dimensionality of the feature vectors.
    pub dim: usize,
    /// Index variant of the per-disk trees (default: X-tree, as in the
    /// paper).
    pub variant: TreeVariant,
    /// Split-value strategy for bucket-based declustering.
    pub splits: SplitStrategy,
    /// Disk service-time model.
    pub disk_model: DiskModel,
}

impl EngineConfig {
    /// The configuration used by the paper's experiments: X-tree,
    /// data-median splits, 1997-era disks.
    pub fn paper_defaults(dim: usize) -> Self {
        EngineConfig {
            dim,
            variant: TreeVariant::xtree_default(),
            splits: SplitStrategy::DataMedian,
            disk_model: DiskModel::hp_workstation_1997(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_paper() {
        let c = EngineConfig::paper_defaults(16);
        assert_eq!(c.dim, 16);
        assert_eq!(c.splits, SplitStrategy::DataMedian);
        assert!(matches!(c.variant, TreeVariant::XTree { .. }));
    }
}
