//! Result and error types shared by the bridge-finding algorithms.

use graph_core::bitset::BitSet;
use graph_core::ids::EdgeId;
use std::time::{Duration, Instant};

/// Outcome of a bridge-finding run: a per-edge bridge flag plus the named
/// phase durations that Figure 11 plots.
#[derive(Debug, Clone)]
pub struct BridgesResult {
    /// `is_bridge[e]` for every undirected edge id `e` of the input.
    pub is_bridge: BitSet,
    /// Named phase durations in execution order (e.g. `"bfs"`, `"mark"`).
    pub phases: Vec<(String, Duration)>,
}

impl BridgesResult {
    /// Number of bridges found.
    pub fn num_bridges(&self) -> usize {
        self.is_bridge.count_ones()
    }

    /// Ascending list of bridge edge ids.
    pub fn bridge_ids(&self) -> Vec<EdgeId> {
        self.is_bridge.iter_ones().map(|e| e as EdgeId).collect()
    }

    /// Total time across phases.
    pub fn total_time(&self) -> Duration {
        self.phases.iter().map(|(_, d)| *d).sum()
    }

    /// Duration of a named phase (first occurrence), if present.
    pub fn phase(&self, name: &str) -> Option<Duration> {
        self.phases.iter().find(|(n, _)| n == name).map(|(_, d)| *d)
    }
}

/// Errors from the parallel bridge algorithms (the sequential DFS handles
/// every input).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BridgesError {
    /// The graph has no nodes.
    Empty,
    /// The graph is disconnected; the paper's parallel algorithms assume a
    /// connected input (datasets are largest connected components).
    Disconnected,
}

impl std::fmt::Display for BridgesError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BridgesError::Empty => write!(f, "graph has no nodes"),
            BridgesError::Disconnected => {
                write!(
                    f,
                    "graph is disconnected; extract a connected component first"
                )
            }
        }
    }
}

impl std::error::Error for BridgesError {}

/// Back-to-back phase timings for [`BridgesResult::phases`]: each
/// [`PhaseClock::lap`] closes the phase that began at the previous lap (or
/// at [`PhaseClock::start`]), so a stage shared by several pipelines can
/// close a phase partway through its work.
pub(crate) struct PhaseClock {
    phases: Vec<(String, Duration)>,
    since: Instant,
}

impl PhaseClock {
    /// Starts the first phase now.
    pub(crate) fn start() -> Self {
        Self {
            phases: Vec::new(),
            since: Instant::now(),
        }
    }

    /// Records the running phase as `name` and starts the next one.
    pub(crate) fn lap(&mut self, name: &str) {
        let now = Instant::now();
        self.phases.push((name.to_string(), now - self.since));
        self.since = now;
    }

    /// The recorded phases, in execution order.
    pub(crate) fn into_phases(self) -> Vec<(String, Duration)> {
        self.phases
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        let mut bits = BitSet::new(5);
        bits.set(1, true);
        bits.set(4, true);
        let r = BridgesResult {
            is_bridge: bits,
            phases: vec![
                ("a".into(), Duration::from_millis(2)),
                ("b".into(), Duration::from_millis(3)),
            ],
        };
        assert_eq!(r.num_bridges(), 2);
        assert_eq!(r.bridge_ids(), vec![1, 4]);
        assert_eq!(r.total_time(), Duration::from_millis(5));
        assert_eq!(r.phase("b"), Some(Duration::from_millis(3)));
        assert_eq!(r.phase("zz"), None);
    }
}
