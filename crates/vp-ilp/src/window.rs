//! The finite instruction window.

/// A sliding window over instruction completion times.
///
/// Models a `capacity`-entry instruction window in a limit study:
/// instruction *i* cannot dispatch until instruction *i − capacity* has
/// completed, i.e. the dispatch lower bound is the completion cycle of the
/// instruction whose slot is being reused.
///
/// The window is a fixed ring of `capacity` completion cycles. Slots that
/// no instruction has used yet hold cycle 0, which constrains nothing, so
/// the ring needs no occupancy count.
///
/// # Examples
///
/// ```
/// use vp_ilp::SlidingWindow;
/// let mut w = SlidingWindow::new(2);
/// assert_eq!(w.dispatch_bound(), 0); // empty window: no constraint
/// w.push_completion(10);
/// w.push_completion(20);
/// assert_eq!(w.dispatch_bound(), 10); // next instr reuses slot of the 1st
/// ```
#[derive(Debug, Clone)]
pub struct SlidingWindow {
    completions: Box<[u64]>,
    next: usize,
}

impl SlidingWindow {
    /// A window with `capacity` slots.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "window capacity must be positive");
        SlidingWindow {
            completions: vec![0; capacity].into_boxed_slice(),
            next: 0,
        }
    }

    /// The window capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.completions.len()
    }

    /// The earliest cycle at which the next instruction may dispatch, given
    /// window occupancy alone.
    #[inline]
    #[must_use]
    pub fn dispatch_bound(&self) -> u64 {
        self.completions[self.next]
    }

    /// Records the completion cycle of the instruction just dispatched,
    /// sliding the window forward.
    #[inline]
    pub fn push_completion(&mut self, completion: u64) {
        self.completions[self.next] = completion;
        self.next += 1;
        if self.next == self.completions.len() {
            self.next = 0;
        }
    }

    /// Empties the window.
    pub fn clear(&mut self) {
        self.completions.fill(0);
        self.next = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_constraint_until_full() {
        let mut w = SlidingWindow::new(3);
        w.push_completion(5);
        w.push_completion(6);
        assert_eq!(w.dispatch_bound(), 0);
        w.push_completion(7);
        assert_eq!(w.dispatch_bound(), 5);
    }

    #[test]
    fn window_slides_in_order() {
        let mut w = SlidingWindow::new(2);
        w.push_completion(10);
        w.push_completion(4); // out-of-order completion is fine
        assert_eq!(w.dispatch_bound(), 10);
        w.push_completion(12);
        assert_eq!(w.dispatch_bound(), 4);
    }

    #[test]
    fn size_one_window_serialises() {
        let mut w = SlidingWindow::new(1);
        w.push_completion(3);
        assert_eq!(w.dispatch_bound(), 3);
    }

    #[test]
    fn clear_empties_the_ring() {
        let mut w = SlidingWindow::new(2);
        w.push_completion(9);
        w.push_completion(9);
        w.clear();
        assert_eq!(w.dispatch_bound(), 0);
        w.push_completion(3);
        assert_eq!(w.dispatch_bound(), 0);
        w.push_completion(4);
        assert_eq!(w.dispatch_bound(), 3);
        assert_eq!(w.capacity(), 2);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_panics() {
        let _ = SlidingWindow::new(0);
    }
}
