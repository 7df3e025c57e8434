//! Fixture: clean library code; the violations live in CI coverage.

/// Nothing to see here.
pub fn fine() -> f64 {
    1.0
}

#[cfg(test)]
mod tests {
    #[test]
    fn exercised() {
        assert_eq!(super::fine(), 1.0);
    }
}
