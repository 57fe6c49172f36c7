//! Seeded violations of the engine's declared lock order (state lock,
//! then a session's progress cell): the reverse nesting is a finding
//! even though no forward nesting completes a cycle in this file, and a
//! cell guard held across detector dispatch is a blocking violation.

pub fn peek_under_cell(shared: &Shared, cell: &SessionCell) -> usize {
    let progress = cell.progress.lock().expect("poisoned");
    let state = lock_state(shared);
    state.sessions.len() + progress.events.len()
}

pub fn publish_while_detecting(core: &mut SessionCore, frames: &[u64]) {
    let mut progress = core.cell.progress.lock().expect("poisoned");
    let banks = dispatch_batch(&core.detectors, frames, &mut core.scratch);
    progress.found += banks.len() as u64;
}
