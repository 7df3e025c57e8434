//! Fixture: atomics-ordering violation on a cancellation path.

use std::sync::atomic::{AtomicBool, Ordering};

/// Cancellation flag written with the wrong ordering.
pub fn cancel(flag: &AtomicBool) {
    flag.store(true, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    #[test]
    fn exercised() {
        super::cancel(&std::sync::atomic::AtomicBool::new(false));
    }
}
