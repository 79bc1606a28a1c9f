//! Optional per-query stats dump for the `reproduce` binary.
//!
//! Passing `reproduce --stats-json <path>` streams one flat
//! JSON object per tracked query (see [`QueryStats::to_json`]) to `<path>`,
//! one per line. The dump is append-only and process-global so the
//! experiment runners — which fan out across the [`crate::sweep`] worker
//! threads — can record from anywhere without threading a sink through
//! every signature. Lines are written atomically under a lock, but their
//! *order* follows completion order, not issue order, when several
//! experiments run in parallel.

use std::fs::File;
use std::io::Write;
use std::sync::Mutex;

use overlay_sim::QueryStats;

// Unbuffered on purpose: one `write` per line means nothing is lost when a
// binary exits without an explicit flush, and the volume (one line per
// query) is far too low for syscall overhead to matter.
static SINK: Mutex<Option<File>> = Mutex::new(None);

/// Opens `path` (truncating) and starts recording. Replaces any previous
/// sink.
///
/// # Errors
///
/// Propagates the file-creation error.
pub fn init(path: &str) -> std::io::Result<()> {
    let file = File::create(path)?;
    *SINK.lock().expect("stats sink poisoned") = Some(file);
    Ok(())
}

/// Records one query's stats if a sink is active; no-op (and no formatting
/// work beyond the lock probe) otherwise.
pub fn record(stats: &QueryStats) {
    let mut guard = SINK.lock().expect("stats sink poisoned");
    if let Some(w) = guard.as_mut() {
        let _ = writeln!(w, "{}", stats.to_json());
    }
}
