//! k-means clustering with k-means++ seeding and BIC model selection.
//!
//! This is the clustering engine behind the SimPoint reimplementation
//! (`archpredict-simpoint`): per-interval basic-block vectors are projected
//! to a low dimension and clustered here; the Bayesian Information Criterion
//! picks the number of clusters, exactly as in Sherwood et al. (ASPLOS 2002).

use crate::rng::Xoshiro256;

/// Result of a k-means run.
#[derive(Debug, Clone, PartialEq)]
pub struct Clustering {
    /// Cluster centroids, one `Vec<f64>` per cluster.
    pub centroids: Vec<Vec<f64>>,
    /// Cluster assignment for each input point.
    pub assignments: Vec<usize>,
    /// Sum of squared distances of points to their assigned centroid.
    pub inertia: f64,
}

impl Clustering {
    /// Number of clusters.
    pub fn k(&self) -> usize {
        self.centroids.len()
    }

    /// Number of points assigned to each cluster.
    pub fn cluster_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.k()];
        for &a in &self.assignments {
            sizes[a] += 1;
        }
        sizes
    }

    /// Index of the point closest to each centroid (the "representative").
    ///
    /// Returns one point index per cluster; empty clusters (which Lloyd's
    /// algorithm here never produces for `k <= n`) would yield `usize::MAX`.
    pub fn representatives(&self, points: &[Vec<f64>]) -> Vec<usize> {
        let mut best = vec![(f64::INFINITY, usize::MAX); self.k()];
        for (i, p) in points.iter().enumerate() {
            let c = self.assignments[i];
            let d = squared_distance(p, &self.centroids[c]);
            if d < best[c].0 {
                best[c] = (d, i);
            }
        }
        best.into_iter().map(|(_, i)| i).collect()
    }
}

/// Squared Euclidean distance between equal-length vectors.
#[inline]
fn squared_distance(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// Runs k-means with k-means++ initialization and Lloyd iterations.
///
/// Iterates until assignments stabilize or `max_iters` is reached.
///
/// # Panics
///
/// Panics if `points` is empty, `k` is zero, `k > points.len()`, or points
/// have inconsistent dimensionality.
///
/// # Example
///
/// ```
/// use archpredict_stats::kmeans::kmeans;
/// use archpredict_stats::rng::Xoshiro256;
/// let pts = vec![vec![0.0], vec![0.1], vec![10.0], vec![10.1]];
/// let c = kmeans(&pts, 2, 100, &mut Xoshiro256::seed_from(1));
/// assert_eq!(c.assignments[0], c.assignments[1]);
/// assert_eq!(c.assignments[2], c.assignments[3]);
/// assert_ne!(c.assignments[0], c.assignments[2]);
/// ```
pub fn kmeans(points: &[Vec<f64>], k: usize, max_iters: usize, rng: &mut Xoshiro256) -> Clustering {
    assert!(!points.is_empty(), "kmeans on empty data");
    assert!(k > 0 && k <= points.len(), "k must be in 1..=n");
    let dim = points[0].len();
    assert!(
        points.iter().all(|p| p.len() == dim),
        "inconsistent point dimensionality"
    );

    let mut centroids = plus_plus_init(points, k, rng);
    let mut assignments = vec![0usize; points.len()];
    let mut inertia = f64::INFINITY;

    for _ in 0..max_iters {
        // Assignment step.
        let mut changed = false;
        let mut new_inertia = 0.0;
        for (i, p) in points.iter().enumerate() {
            let (best, dist) = nearest(p, &centroids);
            if assignments[i] != best {
                assignments[i] = best;
                changed = true;
            }
            new_inertia += dist;
        }
        inertia = new_inertia;
        if !changed {
            break;
        }
        // Update step.
        let mut sums = vec![vec![0.0; dim]; k];
        let mut counts = vec![0usize; k];
        for (i, p) in points.iter().enumerate() {
            let c = assignments[i];
            counts[c] += 1;
            for (s, &x) in sums[c].iter_mut().zip(p) {
                *s += x;
            }
        }
        for c in 0..k {
            if counts[c] == 0 {
                // Re-seed an empty cluster at a random point.
                centroids[c] = points[rng.index(points.len())].clone();
            } else {
                for (cc, s) in centroids[c].iter_mut().zip(&sums[c]) {
                    *cc = s / counts[c] as f64;
                }
            }
        }
    }

    Clustering {
        centroids,
        assignments,
        inertia,
    }
}

fn nearest(p: &[f64], centroids: &[Vec<f64>]) -> (usize, f64) {
    let mut best = 0;
    let mut best_d = f64::INFINITY;
    for (c, centroid) in centroids.iter().enumerate() {
        let d = squared_distance(p, centroid);
        if d < best_d {
            best_d = d;
            best = c;
        }
    }
    (best, best_d)
}

fn plus_plus_init(points: &[Vec<f64>], k: usize, rng: &mut Xoshiro256) -> Vec<Vec<f64>> {
    let mut centroids = Vec::with_capacity(k);
    centroids.push(points[rng.index(points.len())].clone());
    let mut dists: Vec<f64> = points
        .iter()
        .map(|p| squared_distance(p, &centroids[0]))
        .collect();
    while centroids.len() < k {
        let total: f64 = dists.iter().sum();
        let next = if total <= 0.0 {
            // All points coincide with existing centroids: pick uniformly.
            rng.index(points.len())
        } else {
            rng.weighted_index(&dists)
        };
        centroids.push(points[next].clone());
        for (d, p) in dists.iter_mut().zip(points) {
            *d = d.min(squared_distance(p, centroids.last().expect("nonempty")));
        }
    }
    centroids
}

/// Bayesian Information Criterion score of a clustering (higher is better).
///
/// Uses the spherical-Gaussian formulation from Pelleg & Moore (X-means),
/// the same score SimPoint uses to select its cluster count.
pub fn bic_score(points: &[Vec<f64>], clustering: &Clustering) -> f64 {
    let n = points.len() as f64;
    let k = clustering.k() as f64;
    let d = points[0].len() as f64;
    // Maximum-likelihood variance estimate (guard against zero).
    let variance = (clustering.inertia / ((n - k).max(1.0) * d)).max(1e-12);
    let sizes = clustering.cluster_sizes();
    let mut log_likelihood = 0.0;
    for &sz in &sizes {
        if sz == 0 {
            continue;
        }
        let ni = sz as f64;
        log_likelihood += ni * (ni / n).ln()
            - ni * d / 2.0 * (2.0 * std::f64::consts::PI * variance).ln()
            - (ni - 1.0) * d / 2.0;
    }
    let free_params = k * (d + 1.0);
    log_likelihood - free_params / 2.0 * n.ln()
}

/// Runs k-means for every `k` in `1..=max_k` and returns the clustering with
/// the best (highest) BIC score, along with that `k`.
///
/// SimPoint's "max K" selection: this caps the number of representative
/// simulation points per application.
///
/// # Panics
///
/// Panics under the same conditions as [`kmeans`].
pub fn kmeans_best_bic(
    points: &[Vec<f64>],
    max_k: usize,
    max_iters: usize,
    rng: &mut Xoshiro256,
) -> (usize, Clustering) {
    let max_k = max_k.min(points.len());
    assert!(max_k >= 1, "max_k must be at least 1");
    let mut best: Option<(f64, usize, Clustering)> = None;
    for k in 1..=max_k {
        let c = kmeans(points, k, max_iters, rng);
        let score = bic_score(points, &c);
        if best.as_ref().is_none_or(|(s, _, _)| score > *s) {
            best = Some((score, k, c));
        }
    }
    let (_, k, c) = best.expect("at least one k evaluated");
    (k, c)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blobs(rng: &mut Xoshiro256) -> (Vec<Vec<f64>>, Vec<usize>) {
        // Three well-separated 2-D blobs of 30 points each.
        let centers = [[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]];
        let mut pts = Vec::new();
        let mut labels = Vec::new();
        for (li, c) in centers.iter().enumerate() {
            for _ in 0..30 {
                pts.push(vec![
                    c[0] + rng.next_gaussian() * 0.5,
                    c[1] + rng.next_gaussian() * 0.5,
                ]);
                labels.push(li);
            }
        }
        (pts, labels)
    }

    #[test]
    fn recovers_separated_blobs() {
        let mut rng = Xoshiro256::seed_from(10);
        let (pts, labels) = blobs(&mut rng);
        let c = kmeans(&pts, 3, 100, &mut rng);
        // All points with the same true label must share a cluster.
        for group in 0..3 {
            let ids: Vec<usize> = (0..pts.len()).filter(|&i| labels[i] == group).collect();
            let first = c.assignments[ids[0]];
            assert!(ids.iter().all(|&i| c.assignments[i] == first));
        }
    }

    #[test]
    fn inertia_decreases_with_k() {
        let mut rng = Xoshiro256::seed_from(11);
        let (pts, _) = blobs(&mut rng);
        let i1 = kmeans(&pts, 1, 100, &mut rng).inertia;
        let i3 = kmeans(&pts, 3, 100, &mut rng).inertia;
        let i9 = kmeans(&pts, 9, 100, &mut rng).inertia;
        assert!(i1 > i3, "{i1} !> {i3}");
        assert!(i3 > i9, "{i3} !> {i9}");
    }

    #[test]
    fn bic_selects_true_cluster_count() {
        let mut rng = Xoshiro256::seed_from(12);
        let (pts, _) = blobs(&mut rng);
        let (k, _) = kmeans_best_bic(&pts, 8, 100, &mut rng);
        assert_eq!(k, 3, "BIC picked k={k}");
    }

    #[test]
    fn representatives_are_members_of_their_cluster() {
        let mut rng = Xoshiro256::seed_from(13);
        let (pts, _) = blobs(&mut rng);
        let c = kmeans(&pts, 3, 100, &mut rng);
        for (cluster, &rep) in c.representatives(&pts).iter().enumerate() {
            assert_eq!(c.assignments[rep], cluster);
        }
    }

    #[test]
    fn k_equals_n_gives_zero_inertia() {
        let pts = vec![vec![1.0], vec![2.0], vec![5.0]];
        let mut rng = Xoshiro256::seed_from(14);
        let c = kmeans(&pts, 3, 100, &mut rng);
        assert!(c.inertia < 1e-12);
    }

    #[test]
    fn degenerate_identical_points() {
        let pts = vec![vec![1.0, 1.0]; 10];
        let mut rng = Xoshiro256::seed_from(15);
        let c = kmeans(&pts, 3, 100, &mut rng);
        assert!(c.inertia < 1e-12);
        assert_eq!(c.assignments.len(), 10);
    }

    #[test]
    #[should_panic(expected = "k must be in 1..=n")]
    fn k_zero_panics() {
        let mut rng = Xoshiro256::seed_from(1);
        kmeans(&[vec![0.0]], 0, 10, &mut rng);
    }
}
