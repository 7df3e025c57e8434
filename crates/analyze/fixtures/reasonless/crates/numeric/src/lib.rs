//! Fixture: reasonless suppressions are findings.

/// Reasonless suppression below.
pub fn nope(v: Option<f64>) -> f64 {
    // ind101: allow(panic-policy)
    v.unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    #[test]
    fn exercised() {
        assert_eq!(super::nope(None), 0.0);
    }
}
