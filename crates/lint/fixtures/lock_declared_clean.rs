//! Clean counterpart of `lock_declared_bad.rs`: the state lock (taken
//! through its `lock_state` helper) nests a session's progress cell in
//! the declared order, and the worker publishes into the cell with the
//! state lock released and the dispatch already done.

pub fn forget(shared: &Shared, id: SessionId) -> bool {
    let mut state = lock_state(shared);
    let finished = match state.sessions.get(&id) {
        Some(slot) => slot.cell.progress.lock().expect("poisoned").finished,
        None => return false,
    };
    finished && state.sessions.remove(&id).is_some()
}

pub fn quantum(shared: &Shared, core: &mut SessionCore, frames: &[u64]) {
    let state = lock_state(shared);
    drop(state);
    let banks = dispatch_batch(&core.detectors, frames, &mut core.scratch);
    {
        let mut progress = core.cell.progress.lock().expect("poisoned");
        progress.found += banks.len() as u64;
    }
    let mut state = lock_state(shared);
    state.released += 1;
}
