//! Fixture: a fully clean tree.

/// Convergence threshold, named as the contract requires.
pub const TOL: f64 = 1e-10;

/// Converged when the residual beats [`TOL`].
pub fn converged(residual: f64) -> bool {
    residual < TOL
}

#[cfg(test)]
mod tests {
    #[test]
    fn exercised() {
        assert!(super::converged(0.0));
    }
}
