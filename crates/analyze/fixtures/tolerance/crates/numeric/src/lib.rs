//! Fixture: tolerance-hygiene violation.

/// Converged when the residual is tiny.
pub fn converged(residual: f64) -> bool {
    residual < 1e-10
}

#[cfg(test)]
mod tests {
    #[test]
    fn exercised() {
        assert!(super::converged(0.0));
    }
}
