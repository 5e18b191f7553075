//! Helpers shared by the serve integration tests.

use std::sync::mpsc::RecvTimeoutError;
use std::time::Duration;

/// Runs `drain` on `target` on a helper thread and hands `target` back
/// once it returns. Panics if it has not returned after 10 s, so a lost
/// wakeup after the last delivery fails the test with a message instead
/// of hanging the test binary (the unit tests' `server::drain_bounded`
/// does the same for a shared `Arc`).
pub fn drain_bounded<T: Send + 'static>(target: T, drain: fn(&T)) -> T {
    let bound = Duration::from_secs(10);
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let helper = std::thread::spawn(move || {
        drain(&target);
        let _ = done_tx.send(target);
    });
    let received = done_rx.recv_timeout(bound);
    if let Err(RecvTimeoutError::Timeout) = received {
        panic!(
            "drain did not return within {bound:?}: the wakeup after the last delivery was lost"
        );
    }
    helper.join().expect("the drain helper panicked");
    received.expect("the helper sends before it returns")
}
