//! The abstract vector-space interface the Krylov and Newton drivers are
//! written against, so they stay independent of the distributed field types.

/// Linear-algebra operations over an abstract (possibly distributed) vector
/// type `V`. Inner products must be *globally* reduced when `V` is
/// distributed — every rank sees the same scalar.
pub trait VectorOps<V> {
    /// Global inner product `⟨a, b⟩`.
    fn dot(&self, a: &V, b: &V) -> f64;
    /// `y += alpha * x`.
    fn axpy(&self, y: &mut V, alpha: f64, x: &V);
    /// `y *= alpha`.
    fn scale(&self, y: &mut V, alpha: f64);
    /// A zero vector with the same shape as `v`.
    fn zero_like(&self, v: &V) -> V;

    /// Norm induced by [`VectorOps::dot`]. A non-finite component makes it
    /// NaN or infinite, never zero.
    fn norm(&self, a: &V) -> f64 {
        self.dot(a, a).sqrt()
    }
}

/// Plain `Vec<f64>` vector space with the Euclidean inner product (used by
/// tests and small dense problems).
#[derive(Debug, Clone, Copy, Default)]
pub struct DenseOps;

impl VectorOps<Vec<f64>> for DenseOps {
    fn dot(&self, a: &Vec<f64>, b: &Vec<f64>) -> f64 {
        a.iter().zip(b).map(|(x, y)| x * y).sum()
    }

    fn axpy(&self, y: &mut Vec<f64>, alpha: f64, x: &Vec<f64>) {
        for (yi, xi) in y.iter_mut().zip(x) {
            *yi += alpha * xi;
        }
    }

    fn scale(&self, y: &mut Vec<f64>, alpha: f64) {
        for yi in y.iter_mut() {
            *yi *= alpha;
        }
    }

    fn zero_like(&self, v: &Vec<f64>) -> Vec<f64> {
        vec![0.0; v.len()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_ops_basics() {
        let ops = DenseOps;
        let a = vec![1.0, 2.0, 2.0];
        assert_eq!(ops.dot(&a, &a), 9.0);
        assert_eq!(ops.norm(&a), 3.0);
        let mut y = vec![1.0, 0.0, -1.0];
        ops.axpy(&mut y, 2.0, &a);
        assert_eq!(y, vec![3.0, 4.0, 3.0]);
        ops.scale(&mut y, 0.5);
        assert_eq!(y, vec![1.5, 2.0, 1.5]);
        assert_eq!(ops.zero_like(&a), vec![0.0; 3]);
    }
}
