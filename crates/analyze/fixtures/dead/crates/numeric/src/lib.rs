//! Fixture: one dead public function among live ones.

/// Called by this crate's unit test.
pub fn tested() -> f64 {
    1.0
}

/// Called only by the perfbench harness.
pub fn benched() -> f64 {
    2.0
}

/// Named in this doc comment as `orphan`, but called nowhere.
pub fn orphan() -> f64 {
    helper()
}

/// Crate-private, so out of scope even though only `orphan` calls it.
pub(crate) fn helper() -> f64 {
    3.0
}

/// Uncalled, but kept on purpose and suppressed inline.
// ind101: allow(dead-public, fixture: deliberately kept public API)
pub fn kept() -> f64 {
    4.0
}

#[cfg(test)]
mod tests {
    #[test]
    fn exercised() {
        assert_eq!(super::tested(), 1.0);
    }
}
