//! Fixture: justified suppressions silence findings.

/// Fixed-size accumulator access, justified on the line above.
pub fn head(xs: &[f64; 4]) -> f64 {
    // ind101: allow(index-panic, fixed-size array; index 0 is always in bounds)
    xs[0]
}

/// CLI-style unwrap, justified inline.
pub fn must(v: Option<f64>) -> f64 {
    v.unwrap() // ind101: allow(panic-policy, fixture contract is a documented panic)
}

#[cfg(test)]
mod tests {
    #[test]
    fn exercised() {
        assert_eq!(super::head(&[1.0; 4]), super::must(Some(1.0)));
    }
}
