//! A guided tour: where each part of the paper lives in this codebase.
//!
//! This module contains no code — it is the map from the sections, lemmas
//! and figures of *Fast Parallel Similarity Search in Multimedia
//! Databases* (Berchtold, Böhm, Braunmüller, Keim, Kriegel; SIGMOD 1997)
//! to the items that implement them.
//!
//! # Section 1 — Introduction
//!
//! Feature-based similarity search: multimedia objects become points of a
//! d-dimensional feature space ([`crate::geometry::Point`]); similarity
//! queries become k-NN queries (Definition 1,
//! [`crate::index::SpatialTree::knn`]). The motivating feature kinds are
//! generated by [`crate::datagen`]: color histograms (the `image_search`
//! example), Fourier shape descriptors
//! ([`crate::datagen::FourierGenerator`]) and text descriptors
//! ([`crate::datagen::TextDescriptorGenerator`]).
//!
//! # Section 2 — Nearest-neighbor search in high-dimensional spaces
//!
//! * The branch-and-bound algorithm of Roussopoulos et al. \[RKV 95\]
//!   with MINDIST / MINMAXDIST pruning:
//!   [`crate::index::KnnAlgorithm::Rkv`], bounds in
//!   [`crate::geometry::HyperRect::min_dist2`] and
//!   [`crate::geometry::HyperRect::min_max_dist2`].
//! * The priority-queue algorithm of Hjaltason & Samet \[HS 95\]:
//!   [`crate::index::KnnAlgorithm::Hs`] and, in its natural incremental
//!   form, [`crate::index::SpatialTree::nn_iter`].
//! * The X-tree \[BKK 96\] with supernodes and split history:
//!   [`crate::index::TreeVariant::XTree`]; the R\*-tree baseline:
//!   [`crate::index::TreeVariant::RStar`]; the TV-tree \[LJF 94\] named
//!   alongside it in the introduction: [`crate::index::TvTree`]
//!   (simplified telescope balls, exact search).
//! * Welch's bucketing algorithm \[Wel 71\]:
//!   [`crate::index::GridFile`]; the FBF k-d-tree \[FBF 77\]:
//!   [`crate::index::KdTree`]. Both degenerate with the dimension —
//!   quantified by experiment `ext5`.
//! * Figure 1 (degeneration with dimension): `figures fig1`, with the
//!   analytic counterpart in [`crate::index::predict_leaf_accesses`].
//!
//! # Section 3 — Parallel nearest-neighbor search
//!
//! * Round robin (`v_j → j mod n`): [`crate::decluster::RoundRobin`]
//!   (Figure 2 = `figures fig2`).
//! * Disk modulo \[DS 82\]: [`crate::decluster::DiskModulo`]; FX \[KP 88\]:
//!   [`crate::decluster::FxXor`]; Hilbert \[FB 93\]:
//!   [`crate::decluster::HilbertDecluster`] over
//!   [`crate::hilbert::HilbertCurve`] (Figure 3 = `figures fig3`).
//! * Section 3.1's high-dimensional effects: surface concentration
//!   ([`crate::geometry::highdim::surface_probability`], Figure 5 =
//!   `figures fig5`), NN-sphere radius
//!   ([`crate::geometry::highdim::expected_nn_distance`]), the binary
//!   quadrant partition with bucket numbers (Definition 2,
//!   [`crate::geometry::QuadrantSplitter`]), and direct/indirect
//!   neighbors (Definition 3, [`crate::geometry::quadrant`]).
//! * Near-optimality (Definition 4) and Lemma 1 (the classical methods
//!   fail; Figure 7): [`crate::decluster::DiskAssignmentGraph::verify`]
//!   and `figures fig7`.
//!
//! # Section 4 — Near-optimal declustering
//!
//! * The disk assignment graph (Definition 5):
//!   [`crate::decluster::DiskAssignmentGraph`].
//! * The vertex coloring function (Definition 6, Figure 9):
//!   [`crate::decluster::near_optimal::col`].
//! * Lemma 2 (distributivity), Lemmas 3/4 (neighbor separation), Lemma 5
//!   (near-optimality): unit and property tests in
//!   `parsim-decluster`, re-verified exhaustively by the integration
//!   tests.
//! * Lemma 6 (the `nextpow2(d+1)` staircase, Figure 10):
//!   [`crate::decluster::near_optimal::colors_required`] and
//!   `figures fig10`; minimality for small d via
//!   [`crate::decluster::DiskAssignmentGraph::colorable_with`].
//! * Section 4.3 extensions: arbitrary disk counts by complement folding
//!   ([`crate::decluster::near_optimal::fold_table`]), adaptive
//!   0.5-quantiles ([`crate::decluster::quantile`]), recursive
//!   declustering ([`crate::decluster::RecursiveDeclusterer`], Figure 16
//!   = `figures fig16`; its one-pass dense-bucket form
//!   [`crate::decluster::RecursiveDeclusterer::refine_dense`] is the
//!   engine builder's default placement).
//!
//! # Section 5 — Experimental results
//!
//! The measurement environment is [`crate::storage`] (16 simulated disks,
//! 4 KB pages, the paper's "most-loaded disk" metric in
//! [`crate::storage::QueryCost`]) driving
//! [`crate::parallel::DeclusteredXTree`]. Every figure is regenerated by
//! `cargo run -p parsim-bench --bin figures -- all`; the record lives in
//! `EXPERIMENTS.md`.
//!
//! # Section 6 — Conclusions / future work
//!
//! The deferred throughput question is implemented and measured in
//! [`crate::parallel::throughput`] (experiment `ext1`), including the
//! [`crate::decluster::StripedNearOptimal`] extension that lifts the
//! disk-count ceiling of the coloring.
