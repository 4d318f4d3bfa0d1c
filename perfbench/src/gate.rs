//! The correctness gate: answers sampled during the timed window are
//! checked afterwards, outside it, against a bounded-heap brute-force
//! reference.
//!
//! Exact answers must reproduce the reference's distance-bit sequence.
//! Item ids are not compared because ties at equal distance are not yet
//! broken canonically by the engine. Approximate answers must be members
//! of the data set, reported at their true f64 distance.

use std::collections::BinaryHeap;

use parsim_geometry::Point;
use parsim_index::knn::Neighbor;

/// The `k` smallest distances from `query` to the live points, ascending,
/// as f64 bit patterns. Non-negative f64s order like their bits, so the
/// heap works on `u64`.
pub fn reference_bits<'a>(
    points: impl IntoIterator<Item = &'a Point>,
    query: &Point,
    k: usize,
) -> Vec<u64> {
    if k == 0 {
        return Vec::new();
    }
    let mut heap: BinaryHeap<u64> = BinaryHeap::with_capacity(k + 1);
    for p in points {
        let d = p.dist(query).to_bits();
        if heap.len() < k {
            heap.push(d);
        } else if d < *heap.peek().expect("heap holds k entries") {
            heap.pop();
            heap.push(d);
        }
    }
    heap.into_sorted_vec()
}

/// Distance bits of an engine answer, in answer order.
pub fn answer_bits(answer: &[Neighbor]) -> Vec<u64> {
    answer.iter().map(|n| n.dist.to_bits()).collect()
}

/// Checks an exact answer against the reference; `Err` describes the
/// first difference.
pub fn check_exact(answer_bits: &[u64], reference: &[u64]) -> Result<(), String> {
    if answer_bits.len() != reference.len() {
        return Err(format!(
            "answer has {} neighbors, reference {}",
            answer_bits.len(),
            reference.len()
        ));
    }
    match answer_bits.iter().zip(reference).position(|(a, r)| a != r) {
        None => Ok(()),
        Some(i) => Err(format!(
            "rank {i}: distance {} differs from reference {}",
            f64::from_bits(answer_bits[i]),
            f64::from_bits(reference[i])
        )),
    }
}

/// Checks that every approximate answer is the data point its item id
/// names, at its true f64 distance to the query. `lookup` maps an item
/// id to its point.
pub fn check_members<'a>(
    answer: &[Neighbor],
    query: &Point,
    lookup: impl Fn(u64) -> Option<&'a Point>,
) -> Result<(), String> {
    for n in answer {
        let Some(p) = lookup(n.item) else {
            return Err(format!("item {} is not in the data set", n.item));
        };
        if p.coords() != n.point.coords() {
            return Err(format!(
                "item {} carries a point that is not its own",
                n.item
            ));
        }
        if p.dist(query).to_bits() != n.dist.to_bits() {
            return Err(format!(
                "item {} reported at distance {}, true distance {}",
                n.item,
                n.dist,
                p.dist(query)
            ));
        }
    }
    Ok(())
}

/// Tie-aware recall: the share of the `k` reference slots matched by
/// answers at a distance no farther than the reference's k-th.
pub fn recall(answer_bits: &[u64], reference: &[u64]) -> f64 {
    let Some(&kth) = reference.last() else {
        return 1.0;
    };
    let hits = answer_bits.iter().filter(|&&d| d <= kth).count();
    hits.min(reference.len()) as f64 / reference.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pts(v: &[[f64; 2]]) -> Vec<Point> {
        v.iter().map(|c| Point::from_vec(c.to_vec())).collect()
    }

    #[test]
    fn reference_keeps_the_k_nearest() {
        let data = pts(&[[0.0, 0.0], [3.0, 0.0], [1.0, 0.0], [2.0, 0.0], [1.0, 0.0]]);
        let q = Point::from_vec(vec![0.0, 0.0]);
        let got: Vec<f64> = reference_bits(&data, &q, 3)
            .into_iter()
            .map(f64::from_bits)
            .collect();
        assert_eq!(got, vec![0.0, 1.0, 1.0]);
        assert!(reference_bits(&data, &q, 0).is_empty());
        assert_eq!(reference_bits(&data, &q, 9).len(), 5);
    }

    #[test]
    fn exact_check_rejects_a_perturbed_answer() {
        let reference = vec![1.0f64.to_bits(), 2.0f64.to_bits()];
        assert!(check_exact(&reference, &reference).is_ok());
        let nudged = vec![1.0f64.to_bits(), 2.0f64.to_bits() + 1];
        assert!(check_exact(&nudged, &reference).is_err());
        assert!(check_exact(&reference[..1], &reference).is_err());
    }

    #[test]
    fn member_check_rejects_foreign_points_and_wrong_distances() {
        let data = pts(&[[0.0, 0.0], [1.0, 0.0]]);
        let q = Point::from_vec(vec![0.0, 0.0]);
        let ok = Neighbor {
            item: 1,
            point: data[1].clone(),
            dist: 1.0,
        };
        let lookup = |id: u64| data.get(id as usize);
        assert!(check_members(std::slice::from_ref(&ok), &q, lookup).is_ok());
        let wrong_dist = Neighbor {
            dist: 1.5,
            ..ok.clone()
        };
        assert!(check_members(&[wrong_dist], &q, lookup).is_err());
        let wrong_point = Neighbor {
            item: 0,
            ..ok.clone()
        };
        assert!(check_members(&[wrong_point], &q, lookup).is_err());
        let missing = Neighbor { item: 9, ..ok };
        assert!(check_members(&[missing], &q, lookup).is_err());
    }

    #[test]
    fn recall_counts_ties_at_the_kth_distance() {
        let reference: Vec<u64> = [1.0f64, 2.0, 2.0].iter().map(|d| d.to_bits()).collect();
        let tied: Vec<u64> = [1.0f64, 2.0, 2.0].iter().map(|d| d.to_bits()).collect();
        assert_eq!(recall(&tied, &reference), 1.0);
        let one_miss: Vec<u64> = [1.0f64, 2.0, 3.0].iter().map(|d| d.to_bits()).collect();
        assert!((recall(&one_miss, &reference) - 2.0 / 3.0).abs() < 1e-12);
    }
}
