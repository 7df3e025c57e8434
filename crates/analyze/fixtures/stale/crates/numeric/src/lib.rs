//! Fixture: a suppression matching nothing is itself flagged.

/// Nothing to suppress here.
pub fn fine() -> f64 {
    // ind101: allow(panic-policy, stale justification)
    1.0
}

#[cfg(test)]
mod tests {
    #[test]
    fn exercised() {
        assert_eq!(super::fine(), 1.0);
    }
}
