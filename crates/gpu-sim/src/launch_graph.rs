//! The launch-graph plane: capture + static dataflow analysis.
//!
//! The paper's pipelines are fixed DAGs of kernel launches over shared
//! device arrays — the *shape* of that DAG (how many launches, which
//! regions each touches) is the performance model on memory-bound
//! hardware. The [sanitizer](crate::sanitize) and the traffic counters in
//! [`crate::metrics`] validate individual launches dynamically; this
//! module reasons about the pipeline as a whole.
//!
//! ## Capture
//!
//! With [`crate::DeviceConfig::capture`] on, the device records one node
//! per kernel launch: its label (the [`crate::Device::kernel_label`]
//! stack joined with the primitive scope labels), its work-item count,
//! and the set of *(region, access kind)* pairs it touched. Accesses flow
//! in from two sources:
//!
//! * **tracked views** — every [`crate::SharedSlice::read`]/`write` and
//!   atomic-view operation obtained via [`crate::Device::shared`] /
//!   [`crate::Device::atomic_u32`] notes its region and kind against the
//!   launch it ran in (the same machinery racecheck attribution uses, so
//!   capture is pool-width-independent by construction);
//! * **primitive declarations** — the device primitives (scan, reduce,
//!   gather, scatter, ...) access their operands through untracked raw
//!   slices internally, so each declares its user-facing inputs and
//!   outputs on a capture scope that every launch it issues inherits.
//!   Primitive-internal scratch (per-block scan sums, compaction
//!   counts) is deliberately *not* declared: the graph models
//!   pipeline-level dataflow, not intra-primitive plumbing.
//!
//! Closure-captured inputs (the generator of a fused `map_scan`, a
//! predicate's array) are invisible to both sources; call sites annotate
//! them with [`crate::Device::capture_read`] / `capture_write`, which
//! attach to the next launch. A primitive that evaluates its generator in
//! two launches (the two-pass scan, the parallel compaction) moves them
//! onto its scope, so both launches declare the reads. Host-side accesses
//! through tracked views outside any launch accumulate into explicit
//! `host` nodes.
//!
//! ## Region identity under pooling
//!
//! Regions are keyed by base address but *retired* on arena release (and
//! on re-acquisition of a recycled block), so a pooled buffer that comes
//! back for a different role becomes a **new** region — identity follows
//! the logical buffer, not the storage. Region ids are assigned in
//! first-registration order on the host thread, which is deterministic
//! for a fixed pipeline, so captured graphs are bit-identical across pool
//! widths and runs.
//!
//! ## Analyses
//!
//! Every launch is followed by a device-wide barrier (DESIGN.md §1), so
//! two nodes touching the same region are always ordered. Beside counting
//! those RAW/WAR/WAW dependence edges, [`LaunchGraph::analyze`] runs two
//! passes (DESIGN.md §11):
//!
//! * **dead-write** — a launch's write to an arena-backed region that no
//!   later node reads before the region's release is wasted traffic.
//!   Caller-owned (non-arena) regions are live-out and exempt.
//! * **fusion-candidate** — a region with exactly one writer and exactly
//!   one reader, immediately adjacent and with identical work-item
//!   counts, marks a producer/consumer pair a later PR could fuse into
//!   one launch; launches already produced by the fused primitives
//!   (`map_scan_*`, `map_segmented_reduce_into`) are reported as fused.

use crate::metrics::MetricsSnapshot;
use crate::sanitize::AccessKind;
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicUsize, Ordering};

// ---- access masks ------------------------------------------------------

/// Bit set: plain/atomic read.
pub const ACC_READ: u8 = 1;
/// Bit set: plain write or atomic store (non-benign).
pub const ACC_WRITE: u8 = 2;
/// Bit set: atomic read-modify-write (non-benign).
pub const ACC_RMW: u8 = 4;
/// Bit set: write/store through a `benign`-annotated view.
pub const ACC_BENIGN_WRITE: u8 = 8;
/// Bit set: atomic RMW through a `benign`-annotated view.
pub const ACC_BENIGN_RMW: u8 = 16;

const WRITE_BITS: u8 = ACC_WRITE | ACC_RMW | ACC_BENIGN_WRITE | ACC_BENIGN_RMW;

pub(crate) fn mask_for(kind: AccessKind, benign: bool) -> u8 {
    match (kind, benign) {
        (AccessKind::Read | AccessKind::AtomicLoad, _) => ACC_READ,
        (AccessKind::Write | AccessKind::AtomicStore, false) => ACC_WRITE,
        (AccessKind::Write | AccessKind::AtomicStore, true) => ACC_BENIGN_WRITE,
        (AccessKind::AtomicRmw, false) => ACC_RMW,
        (AccessKind::AtomicRmw, true) => ACC_BENIGN_RMW,
    }
}

/// Whether the mask includes any write-side access.
pub fn mask_writes(mask: u8) -> bool {
    mask & WRITE_BITS != 0
}

/// Whether the mask includes a read side (atomic RMWs read too).
pub fn mask_reads(mask: u8) -> bool {
    mask & (ACC_READ | ACC_RMW | ACC_BENIGN_RMW) != 0
}

/// Stable string form of an access mask (`r`, `w`, `rmw`, benign forms
/// suffixed `~`), bits joined with `+` in fixed order.
pub fn mask_name(mask: u8) -> String {
    let mut parts = Vec::new();
    if mask & ACC_READ != 0 {
        parts.push("r");
    }
    if mask & ACC_WRITE != 0 {
        parts.push("w");
    }
    if mask & ACC_RMW != 0 {
        parts.push("rmw");
    }
    if mask & ACC_BENIGN_WRITE != 0 {
        parts.push("w~");
    }
    if mask & ACC_BENIGN_RMW != 0 {
        parts.push("rmw~");
    }
    parts.join("+")
}

// ---- recorder ----------------------------------------------------------

/// No launch currently executing.
const NO_LAUNCH: usize = usize::MAX;

/// Access shards: per-element notes during a launch land here, keyed by
/// (node, region), and are merged into the node at graph-build time.
const NOTE_SHARDS: usize = 16;

struct RegionSlot {
    ty: &'static str,
    len: usize,
    elem_bytes: usize,
    arena: bool,
    released: Option<usize>,
}

struct NodeSlot {
    label: String,
    work: u64,
    host: bool,
    fused: bool,
    /// Declared + host-attributed accesses (per-element notes are merged
    /// in from the shards when the graph is built).
    accesses: BTreeMap<u32, u8>,
}

struct ScopeFrame {
    label: Option<String>,
    fused: bool,
    accesses: Vec<(u32, u8)>,
}

#[derive(Default)]
struct RecState {
    regions: Vec<RegionSlot>,
    /// Live region id by base address.
    by_base: BTreeMap<usize, u32>,
    /// Live arena blocks: base → capacity in bytes.
    arena_blocks: BTreeMap<usize, usize>,
    nodes: Vec<NodeSlot>,
    labels: Vec<String>,
    scopes: Vec<ScopeFrame>,
    /// `capture_read`/`capture_write` annotations awaiting the next
    /// launch (flushed into a host node if the pipeline ends first).
    pending_next: Vec<(u32, u8)>,
}

/// The capture recorder attached to a [`crate::Device`] when
/// [`crate::DeviceConfig::capture`] is on.
pub(crate) struct Recorder {
    state: Mutex<RecState>,
    /// Node index of the launch currently executing ([`NO_LAUNCH`] when
    /// host-side). Launches are barrier-serialized, so one cell suffices
    /// and attribution never races.
    current: AtomicUsize,
    shards: [Mutex<HashMap<(usize, u32), u8>>; NOTE_SHARDS],
}

impl Recorder {
    pub(crate) fn new() -> Self {
        Self {
            state: Mutex::new(RecState::default()),
            current: AtomicUsize::new(NO_LAUNCH),
            shards: std::array::from_fn(|_| Mutex::new(HashMap::new())),
        }
    }

    // ---- labels and scopes --------------------------------------------

    pub(crate) fn push_label(&self, label: &str) {
        self.state.lock().labels.push(label.to_string());
    }

    pub(crate) fn pop_label(&self) {
        self.state.lock().labels.pop();
    }

    pub(crate) fn push_scope(&self, label: &str) {
        self.state.lock().scopes.push(ScopeFrame {
            label: (!label.is_empty()).then(|| label.to_string()),
            fused: false,
            accesses: Vec::new(),
        });
    }

    /// Opens an unlabeled scope for a bare launch's own declarations
    /// **unless** a scope is already open (so bare maps record their
    /// output but primitive-internal maps stay silent). Returns whether
    /// a scope was pushed.
    pub(crate) fn push_bare_scope(&self) -> bool {
        let bare = self.state.lock().scopes.is_empty();
        if bare {
            self.push_scope("");
        }
        bare
    }

    pub(crate) fn pop_scope(&self) {
        self.state.lock().scopes.pop();
    }

    pub(crate) fn scope_fused(&self) {
        if let Some(top) = self.state.lock().scopes.last_mut() {
            top.fused = true;
        }
    }

    /// Declares an access on the innermost scope; every launch issued
    /// while the scope is open inherits it.
    pub(crate) fn scope_access(
        &self,
        base: usize,
        len: usize,
        elem_bytes: usize,
        ty: &'static str,
        mask: u8,
    ) {
        let mut st = self.state.lock();
        let region = Self::region_for_locked(&mut st, base, len, elem_bytes, ty);
        match st.scopes.last_mut() {
            Some(top) => top.accesses.push((region, mask)),
            // No scope open: treat as a next-launch annotation.
            None => st.pending_next.push((region, mask)),
        }
    }

    /// Attributes an access to the most recently recorded node — for
    /// primitives that allocate their output internally, where the region
    /// only exists after the producing launch already ran.
    pub(crate) fn attribute_last(
        &self,
        base: usize,
        len: usize,
        elem_bytes: usize,
        ty: &'static str,
        mask: u8,
    ) {
        let mut st = self.state.lock();
        let region = Self::region_for_locked(&mut st, base, len, elem_bytes, ty);
        if let Some(last) = st.nodes.last_mut() {
            *last.accesses.entry(region).or_default() |= mask;
        }
    }

    /// Records a `capture_read`/`capture_write` annotation: attached to
    /// the next launch (or a trailing host node if none follows).
    pub(crate) fn annotate(
        &self,
        base: usize,
        len: usize,
        elem_bytes: usize,
        ty: &'static str,
        mask: u8,
    ) {
        let mut st = self.state.lock();
        let region = Self::region_for_locked(&mut st, base, len, elem_bytes, ty);
        st.pending_next.push((region, mask));
    }

    /// Moves the pending `capture_read`/`capture_write` annotations onto
    /// the innermost scope, so every launch issued while it is open
    /// declares them, not only the next one (they stay pending when no
    /// scope is open).
    pub(crate) fn pending_to_scope(&self) {
        let st = &mut *self.state.lock();
        if let Some(top) = st.scopes.last_mut() {
            top.accesses.append(&mut st.pending_next);
        }
    }

    // ---- regions -------------------------------------------------------

    /// Live region id for the buffer at `base`, creating one on first
    /// sight or when the existing mapping was retired / mismatches shape.
    fn region_for_locked(
        st: &mut RecState,
        base: usize,
        len: usize,
        elem_bytes: usize,
        ty: &'static str,
    ) -> u32 {
        if let Some(&id) = st.by_base.get(&base) {
            let r = &st.regions[id as usize];
            if r.released.is_none() && r.len == len && r.elem_bytes == elem_bytes && r.ty == ty {
                return id;
            }
            let at = st.nodes.len();
            st.regions[id as usize].released.get_or_insert(at);
        }
        let arena = st
            .arena_blocks
            .range(..=base)
            .next_back()
            .is_some_and(|(&b, &cap)| base + len * elem_bytes <= b + cap);
        let id = st.regions.len() as u32;
        st.regions.push(RegionSlot {
            ty,
            len,
            elem_bytes,
            arena,
            released: None,
        });
        st.by_base.insert(base, id);
        id
    }

    /// Freshly allocated buffer at `base`: force-retires whatever region
    /// is mapped there (even on an exact shape match — that is the stale
    /// case this exists for) and opens a new region now, so region ids
    /// depend on program order rather than on which freed base the
    /// allocator happened to recycle.
    pub(crate) fn mark_fresh(&self, base: usize, len: usize, elem_bytes: usize, ty: &'static str) {
        let mut st = self.state.lock();
        if let Some(id) = st.by_base.remove(&base) {
            let at = st.nodes.len();
            st.regions[id as usize].released.get_or_insert(at);
        }
        Self::region_for_locked(&mut st, base, len, elem_bytes, ty);
    }

    /// Live region id of the buffer `slice` (registered on first sight).
    pub(crate) fn region_for<T>(&self, slice: &[T]) -> u32 {
        Self::region_for_locked(
            &mut self.state.lock(),
            slice.as_ptr() as usize,
            slice.len(),
            size_of::<T>(),
            std::any::type_name::<T>(),
        )
    }

    /// Arena block handed out: any region still mapped inside it belongs
    /// to a previous occupancy and is retired.
    pub(crate) fn arena_acquire(&self, base: usize, bytes: usize) {
        let mut st = self.state.lock();
        Self::retire_range(&mut st, base, bytes);
        st.arena_blocks.insert(base, bytes);
    }

    /// Arena block released: regions inside it are retired so a recycled
    /// block becomes a fresh region.
    pub(crate) fn arena_release(&self, base: usize) {
        let mut st = self.state.lock();
        if let Some(bytes) = st.arena_blocks.remove(&base) {
            Self::retire_range(&mut st, base, bytes);
        }
    }

    fn retire_range(st: &mut RecState, base: usize, bytes: usize) {
        let at = st.nodes.len();
        let stale: Vec<usize> = st
            .by_base
            .range(base..base + bytes.max(1))
            .map(|(&b, _)| b)
            .collect();
        for b in stale {
            if let Some(id) = st.by_base.remove(&b) {
                st.regions[id as usize].released.get_or_insert(at);
            }
        }
    }

    // ---- launch lifecycle ----------------------------------------------

    /// Opens a launch node: label from the kernel-label stack plus open
    /// scope labels, accesses seeded from scope declarations and pending
    /// annotations. Tracked-view accesses attribute to it until
    /// [`Recorder::end_launch`].
    pub(crate) fn begin_launch(&self, work: u64) {
        let mut st = self.state.lock();
        let mut parts: Vec<&str> = st.labels.iter().map(String::as_str).collect();
        parts.extend(st.scopes.iter().filter_map(|s| s.label.as_deref()));
        let label = if parts.is_empty() {
            format!("kernel#{}", st.nodes.len())
        } else {
            parts.join("/")
        };
        let fused = st.scopes.iter().any(|s| s.fused);
        let mut accesses: BTreeMap<u32, u8> = BTreeMap::new();
        for (region, mask) in st
            .scopes
            .iter()
            .flat_map(|s| s.accesses.iter())
            .chain(st.pending_next.iter())
        {
            *accesses.entry(*region).or_default() |= mask;
        }
        st.pending_next.clear();
        let idx = st.nodes.len();
        st.nodes.push(NodeSlot {
            label,
            work,
            host: false,
            fused,
            accesses,
        });
        self.current.store(idx, Ordering::Release);
    }

    pub(crate) fn end_launch(&self) {
        self.current.store(NO_LAUNCH, Ordering::Release);
    }

    // ---- per-access notes ----------------------------------------------

    /// Notes one tracked-view access. During a launch this is a sharded
    /// mask merge keyed by (node, region); outside any launch it folds
    /// into the trailing host node.
    pub(crate) fn note(&self, region: u32, mask: u8) {
        let cur = self.current.load(Ordering::Acquire);
        if cur == NO_LAUNCH {
            self.note_host(region, mask);
            return;
        }
        let shard = region as usize % NOTE_SHARDS;
        let mut map = self.shards[shard].lock();
        *map.entry((cur, region)).or_default() |= mask;
    }

    fn note_host(&self, region: u32, mask: u8) {
        let mut st = self.state.lock();
        match st.nodes.last_mut() {
            Some(last) if last.host => {
                *last.accesses.entry(region).or_default() |= mask;
            }
            _ => {
                let mut accesses = BTreeMap::new();
                accesses.insert(region, mask);
                st.nodes.push(NodeSlot {
                    label: "host".to_string(),
                    work: 0,
                    host: true,
                    fused: false,
                    accesses,
                });
            }
        }
    }

    // ---- graph ---------------------------------------------------------

    /// Builds the captured [`LaunchGraph`]: merges the per-element note
    /// shards into their nodes, flushes dangling annotations into a host
    /// node, and drops regions nothing ever accessed. The modeled traffic
    /// comes from the device's `metrics`.
    pub(crate) fn graph(&self, metrics: &MetricsSnapshot) -> LaunchGraph {
        let mut st = self.state.lock();
        // Dangling capture_read/_write annotations (no launch followed).
        let pending = std::mem::take(&mut st.pending_next);
        for (region, mask) in pending {
            let node = match st.nodes.last_mut() {
                Some(last) if last.host => Some(last),
                _ => None,
            };
            match node {
                Some(last) => *last.accesses.entry(region).or_default() |= mask,
                None => {
                    let mut accesses = BTreeMap::new();
                    accesses.insert(region, mask);
                    st.nodes.push(NodeSlot {
                        label: "host".to_string(),
                        work: 0,
                        host: true,
                        fused: false,
                        accesses,
                    });
                }
            }
        }
        let mut nodes: Vec<Node> = st
            .nodes
            .iter()
            .map(|n| Node {
                label: n.label.clone(),
                work: n.work,
                host: n.host,
                fused: n.fused,
                accesses: n.accesses.clone(),
            })
            .collect();
        for shard in &self.shards {
            for (&(node, region), &mask) in shard.lock().iter() {
                *nodes[node].accesses.entry(region).or_default() |= mask;
            }
        }
        let regions = st
            .regions
            .iter()
            .enumerate()
            .map(|(id, r)| Region {
                id: id as u32,
                name: format!("r{id}:{}[{}]", short_type(r.ty), r.len),
                len: r.len,
                elem_bytes: r.elem_bytes,
                arena: r.arena,
                released: r.released,
            })
            .collect();
        let mut graph = LaunchGraph {
            nodes,
            regions,
            bytes_read: metrics.bytes_read,
            bytes_written: metrics.bytes_written,
        };
        graph.prune_untouched();
        graph
    }
}

fn short_type(ty: &str) -> &str {
    ty.rsplit("::").next().unwrap_or(ty)
}

// ---- the graph ---------------------------------------------------------

/// One shared buffer as the capture saw it: a logical region whose
/// identity survives arena pooling (see the [module docs](self)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Region {
    /// Stable id (first-registration order).
    pub id: u32,
    /// Readable name, `r<id>:<type>[<len>]`.
    pub name: String,
    /// Element count.
    pub len: usize,
    /// Bytes per element.
    pub elem_bytes: usize,
    /// Whether the storage came from the device arena (pooled scratch);
    /// arena regions are subject to the dead-write pass.
    pub arena: bool,
    /// Node position at which the region was retired (arena release or
    /// base reuse), if it was.
    pub released: Option<usize>,
}

/// One node of the captured graph: a kernel launch, or a run of host-side
/// accesses between launches.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Node {
    /// Kernel label (label stack + primitive scopes), `host` for host
    /// nodes, `kernel#<i>` when unlabeled.
    pub label: String,
    /// Work items (virtual threads) of the launch; 0 for host nodes.
    pub work: u64,
    /// Whether this is a host node.
    pub host: bool,
    /// Whether the launch came from a fused primitive.
    pub fused: bool,
    /// Region id → access mask (see [`mask_name`]).
    pub accesses: BTreeMap<u32, u8>,
}

/// A captured launch graph; obtain via [`crate::Device::launch_graph`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaunchGraph {
    /// Launch and host nodes in execution order.
    pub nodes: Vec<Node>,
    /// Regions at least one node accessed (ids may have gaps: regions
    /// nothing touched are dropped).
    pub regions: Vec<Region>,
    /// Modeled bytes the device's primitives read (the traffic plane,
    /// [`crate::Metrics::bytes_read`]), pool-width independent.
    pub bytes_read: u64,
    /// Modeled bytes the device's primitives wrote.
    pub bytes_written: u64,
}

/// A write to an arena region that nothing read before its release.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeadWrite {
    /// Index of the writing node.
    pub node: usize,
    /// Label of the writing node.
    pub label: String,
    /// Region written.
    pub region: u32,
    /// Region name.
    pub region_name: String,
    /// Wasted bytes (region granularity: len × elem_bytes).
    pub bytes: u64,
}

/// An adjacent single-writer/single-reader pair a later PR could fuse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FusionCandidate {
    /// Producer node index.
    pub producer: usize,
    /// Consumer node index (`producer + 1`).
    pub consumer: usize,
    /// Producer label.
    pub producer_label: String,
    /// Consumer label.
    pub consumer_label: String,
    /// The intermediate region.
    pub region: u32,
    /// Region name.
    pub region_name: String,
}

/// Counts of dependence edges by kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DepCounts {
    /// Read-after-write edges.
    pub raw: u64,
    /// Write-after-read edges.
    pub war: u64,
    /// Write-after-write edges.
    pub waw: u64,
}

/// Output of [`LaunchGraph::analyze`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Analysis {
    /// Dependence-edge counts (the dataflow shape; all barrier-ordered).
    pub deps: DepCounts,
    /// Dead writes (must be empty for every shipped pipeline).
    pub dead_writes: Vec<DeadWrite>,
    /// Total wasted bytes across [`Analysis::dead_writes`].
    pub dead_bytes: u64,
    /// Number of launches produced by fused primitives.
    pub fused_launches: u64,
    /// Remaining producer/consumer pairs eligible for fusion.
    pub fusion_candidates: Vec<FusionCandidate>,
}

impl LaunchGraph {
    fn prune_untouched(&mut self) {
        let mut touched = vec![false; self.regions.len()];
        let index_of: HashMap<u32, usize> = self
            .regions
            .iter()
            .enumerate()
            .map(|(i, r)| (r.id, i))
            .collect();
        for node in &self.nodes {
            for region in node.accesses.keys() {
                if let Some(&i) = index_of.get(region) {
                    touched[i] = true;
                }
            }
        }
        let mut keep = touched.into_iter();
        self.regions.retain(|_| keep.next().unwrap_or(false));
    }

    fn region(&self, id: u32) -> Option<&Region> {
        self.regions.iter().find(|r| r.id == id)
    }

    /// Per-region node-touch lists: region id → [(node index, mask)].
    fn touches(&self) -> BTreeMap<u32, Vec<(usize, u8)>> {
        let mut map: BTreeMap<u32, Vec<(usize, u8)>> = BTreeMap::new();
        for (i, node) in self.nodes.iter().enumerate() {
            for (&region, &mask) in &node.accesses {
                map.entry(region).or_default().push((i, mask));
            }
        }
        map
    }

    /// Counts the dependence edges and runs the dead-write and
    /// fusion-candidate passes.
    pub fn analyze(&self) -> Analysis {
        let mut out = Analysis::default();
        let touches = self.touches();

        for (&region, list) in &touches {
            let region_name = self
                .region(region)
                .map(|r| r.name.clone())
                .unwrap_or_default();

            // ---- dependence counts ------------------------------------
            for (a, &(_, mi)) in list.iter().enumerate() {
                for &(_, mj) in &list[a + 1..] {
                    out.deps.raw += u64::from(mask_writes(mi) && mask_reads(mj));
                    out.deps.war += u64::from(mask_reads(mi) && mask_writes(mj));
                    out.deps.waw += u64::from(mask_writes(mi) && mask_writes(mj));
                }
            }

            // ---- dead-write pass ---------------------------------------
            let arena = self.region(region).is_some_and(|r| r.arena);
            if arena {
                for (a, &(i, mi)) in list.iter().enumerate() {
                    if self.nodes[i].host || !mask_writes(mi) {
                        continue;
                    }
                    let read_later = list[a + 1..].iter().any(|&(_, mj)| mask_reads(mj));
                    if !read_later {
                        let r = self.region(region).expect("region exists");
                        let bytes = (r.len * r.elem_bytes) as u64;
                        out.dead_bytes += bytes;
                        out.dead_writes.push(DeadWrite {
                            node: i,
                            label: self.nodes[i].label.clone(),
                            region,
                            region_name: region_name.clone(),
                            bytes,
                        });
                    }
                }
            }

            // ---- fusion-candidate pass ---------------------------------
            let writers: Vec<usize> = list
                .iter()
                .filter(|&&(i, m)| mask_writes(m) && !self.nodes[i].host)
                .map(|&(i, _)| i)
                .collect();
            let readers: Vec<usize> = list
                .iter()
                .filter(|&&(i, m)| mask_reads(m) && !self.nodes[i].host)
                .map(|&(i, _)| i)
                .collect();
            if let (&[w], &[r]) = (writers.as_slice(), readers.as_slice()) {
                let (p, c) = (self.nodes.get(w), self.nodes.get(r));
                if let (Some(p), Some(c)) = (p, c) {
                    let in_place = mask_reads(p.accesses[&region]);
                    if r == w + 1
                        && !in_place
                        && p.work == c.work
                        && p.work > 0
                        && !p.fused
                        && !c.fused
                    {
                        out.fusion_candidates.push(FusionCandidate {
                            producer: w,
                            consumer: r,
                            producer_label: p.label.clone(),
                            consumer_label: c.label.clone(),
                            region,
                            region_name: region_name.clone(),
                        });
                    }
                }
            }
        }

        out.fused_launches = self.nodes.iter().filter(|n| n.fused).count() as u64;
        out
    }

    /// Serializes the graph, its modeled traffic and its [`Analysis`] to
    /// the stable JSON form the golden files use: 2-space indent, fixed
    /// key order, sorted collections, trailing newline.
    pub fn to_json(&self, pipeline: &str) -> String {
        let analysis = self.analyze();
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str(&format!("  \"pipeline\": {},\n", json_str(pipeline)));
        s.push_str(&format!("  \"launches\": {},\n", self.launch_count()));
        s.push_str(&format!("  \"bytes_read\": {},\n", self.bytes_read));
        s.push_str(&format!("  \"bytes_written\": {},\n", self.bytes_written));

        s.push_str("  \"regions\": [\n");
        for (i, r) in self.regions.iter().enumerate() {
            // A release point is only meaningful for arena regions (the
            // dead-write pass keys on it). Plain heap regions retire when
            // the allocator happens to recycle their base address, which
            // varies with pool width — never let that into the golden JSON.
            let released = match r.released.filter(|_| r.arena) {
                Some(p) => p.to_string(),
                None => "null".to_string(),
            };
            s.push_str(&format!(
                "    {{\"id\": {}, \"name\": {}, \"len\": {}, \"elem_bytes\": {}, \
                 \"arena\": {}, \"released\": {}}}{}\n",
                r.id,
                json_str(&r.name),
                r.len,
                r.elem_bytes,
                r.arena,
                released,
                comma(i, self.regions.len()),
            ));
        }
        s.push_str("  ],\n");

        s.push_str("  \"nodes\": [\n");
        for (i, n) in self.nodes.iter().enumerate() {
            let accesses: Vec<String> = n
                .accesses
                .iter()
                .map(|(region, &mask)| format!("\"{}:{}\"", region, mask_name(mask)))
                .collect();
            let mut flags = String::new();
            if n.host {
                flags.push_str(", \"host\": true");
            }
            if n.fused {
                flags.push_str(", \"fused\": true");
            }
            s.push_str(&format!(
                "    {{\"i\": {}, \"label\": {}, \"work\": {}{}, \"accesses\": [{}]}}{}\n",
                i,
                json_str(&n.label),
                n.work,
                flags,
                accesses.join(", "),
                comma(i, self.nodes.len()),
            ));
        }
        s.push_str("  ],\n");

        s.push_str("  \"analysis\": {\n");
        s.push_str(&format!(
            "    \"deps\": {{\"raw\": {}, \"war\": {}, \"waw\": {}}},\n",
            analysis.deps.raw, analysis.deps.war, analysis.deps.waw
        ));
        s.push_str(&format!("    \"dead_bytes\": {},\n", analysis.dead_bytes));
        s.push_str("    \"dead_writes\": [\n");
        for (i, d) in analysis.dead_writes.iter().enumerate() {
            s.push_str(&format!(
                "      {{\"node\": {}, \"label\": {}, \"region\": {}, \"bytes\": {}}}{}\n",
                d.node,
                json_str(&d.label),
                d.region,
                d.bytes,
                comma(i, analysis.dead_writes.len()),
            ));
        }
        s.push_str("    ],\n");
        s.push_str(&format!(
            "    \"fused_launches\": {},\n",
            analysis.fused_launches
        ));
        s.push_str("    \"fusion_candidates\": [\n");
        for (i, f) in analysis.fusion_candidates.iter().enumerate() {
            s.push_str(&format!(
                "      {{\"producer\": {}, \"consumer\": {}, \"producer_label\": {}, \
                 \"consumer_label\": {}, \"region\": {}}}{}\n",
                f.producer,
                f.consumer,
                json_str(&f.producer_label),
                json_str(&f.consumer_label),
                f.region,
                comma(i, analysis.fusion_candidates.len()),
            ));
        }
        s.push_str("    ]\n");
        s.push_str("  }\n");
        s.push_str("}\n");
        s
    }

    /// Number of kernel-launch nodes (host nodes excluded).
    pub fn launch_count(&self) -> u64 {
        self.nodes.iter().filter(|n| !n.host).count() as u64
    }
}

fn comma(i: usize, len: usize) -> &'static str {
    if i + 1 == len {
        ""
    } else {
        ","
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

// ---- view-side capture context ------------------------------------------

/// Per-view capture context: the capture half of the plane probe a
/// tracked view ([`crate::SharedSlice`], the atomic views) carries.
pub(crate) struct Cap<'a> {
    pub(crate) rec: &'a Recorder,
    pub(crate) region: u32,
    pub(crate) benign: bool,
}

impl Cap<'_> {
    #[inline]
    pub(crate) fn note(&self, kind: AccessKind) {
        self.rec.note(self.region, mask_for(kind, self.benign));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(label: &str, work: u64, accesses: &[(u32, u8)]) -> Node {
        Node {
            label: label.to_string(),
            work,
            host: false,
            fused: false,
            accesses: accesses.iter().copied().collect(),
        }
    }

    fn graph(nodes: Vec<Node>, regions: Vec<Region>) -> LaunchGraph {
        LaunchGraph {
            nodes,
            regions,
            bytes_read: 0,
            bytes_written: 0,
        }
    }

    fn region(id: u32, arena: bool) -> Region {
        Region {
            id,
            name: format!("r{id}:u32[100]"),
            len: 100,
            elem_bytes: 4,
            arena,
            released: None,
        }
    }

    #[test]
    fn mask_names_are_stable() {
        assert_eq!(mask_name(ACC_READ), "r");
        assert_eq!(mask_name(ACC_READ | ACC_WRITE), "r+w");
        assert_eq!(mask_name(ACC_BENIGN_RMW), "rmw~");
        assert_eq!(
            mask_name(ACC_READ | ACC_WRITE | ACC_RMW | ACC_BENIGN_WRITE | ACC_BENIGN_RMW),
            "r+w+rmw+w~+rmw~"
        );
    }

    #[test]
    fn write_then_read_is_one_raw_dependence() {
        let g = graph(
            vec![
                node("produce", 100, &[(0, ACC_WRITE)]),
                node("consume", 100, &[(0, ACC_READ)]),
            ],
            vec![region(0, false)],
        );
        let a = g.analyze();
        assert_eq!(
            a.deps,
            DepCounts {
                raw: 1,
                war: 0,
                waw: 0
            }
        );
    }

    #[test]
    fn rmw_pair_counts_raw_war_and_waw() {
        let g = graph(
            vec![
                node("hook_a", 100, &[(0, ACC_BENIGN_RMW)]),
                node("hook_b", 100, &[(0, ACC_BENIGN_RMW)]),
            ],
            vec![region(0, false)],
        );
        // An RMW reads and writes, so the pair is all three kinds at once.
        let a = g.analyze();
        assert_eq!(
            a.deps,
            DepCounts {
                raw: 1,
                war: 1,
                waw: 1
            }
        );
    }

    #[test]
    fn dead_write_only_on_arena_regions() {
        let g = graph(
            vec![node("w", 100, &[(0, ACC_WRITE), (1, ACC_WRITE)])],
            vec![region(0, true), region(1, false)],
        );
        let a = g.analyze();
        assert_eq!(a.dead_writes.len(), 1);
        assert_eq!(a.dead_writes[0].region, 0);
        assert_eq!(a.dead_bytes, 400);
    }

    #[test]
    fn read_after_write_clears_dead_write() {
        let g = graph(
            vec![
                node("w", 100, &[(0, ACC_WRITE)]),
                node("r", 100, &[(0, ACC_READ)]),
            ],
            vec![region(0, true)],
        );
        assert!(g.analyze().dead_writes.is_empty());
    }

    #[test]
    fn fusion_candidate_on_adjacent_unique_pair() {
        let g = graph(
            vec![
                node("produce", 100, &[(0, ACC_WRITE)]),
                node("consume", 100, &[(0, ACC_READ), (1, ACC_WRITE)]),
            ],
            vec![region(0, true), region(1, false)],
        );
        let a = g.analyze();
        assert_eq!(a.fusion_candidates.len(), 1);
        assert_eq!(a.fusion_candidates[0].producer_label, "produce");
        assert_eq!(a.fusion_candidates[0].consumer_label, "consume");
    }

    #[test]
    fn no_fusion_candidate_when_geometry_differs_or_fused() {
        let mut g = graph(
            vec![
                node("produce", 100, &[(0, ACC_WRITE)]),
                node("consume", 50, &[(0, ACC_READ)]),
            ],
            vec![region(0, true)],
        );
        assert!(g.analyze().fusion_candidates.is_empty());
        g.nodes[1].work = 100;
        g.nodes[1].fused = true;
        let a = g.analyze();
        assert!(a.fusion_candidates.is_empty());
        assert_eq!(a.fused_launches, 1);
    }

    #[test]
    fn json_is_stable_and_escaped() {
        let g = graph(
            vec![node("a\"b", 10, &[(0, ACC_READ)])],
            vec![region(0, false)],
        );
        let j1 = g.to_json("p");
        let j2 = g.to_json("p");
        assert_eq!(j1, j2);
        assert!(j1.contains("\"a\\\"b\""));
        assert!(j1.ends_with("}\n"));
        assert!(j1.contains("\"0:r\""));
        assert!(j1.contains("\"bytes_read\": 0,\n  \"bytes_written\": 0,"));
    }
}
