//! The kernel's per-event observer set: the packet log, the auditor, the
//! drop-forensics ledger and the self-profiler, with their toggles and
//! accessors.
//!
//! The kernel reports each site once, through one hook per site
//! (`queued`, `marked`, `dropped`, `transmitted`, `delivered`,
//! `unroutable`, `injected`, `dispatched`), and each hook fans out to the
//! stores that record that site. With no store attached a hook is one
//! predictable branch, and it reads nothing from the packet.
//!
//! Observers record, they never steer (DESIGN.md §9, §10): no hook draws
//! randomness or writes kernel state, so a run's result is the same with
//! any set of stores attached. `tests/observer_specialization.rs` pins it.

use super::{Kernel, LinkId, Sim, EVENT_CLASS_LABELS};
use crate::auditor::Auditor;
use crate::eventlog::{PacketEvent, PacketLog, PacketRecord};
use crate::forensics::{DropLedger, DropReason, ForensicsConfig, MarkReason};
use crate::packet::Packet;
use simcore::{Profile, SimTime};

/// The per-event stores, each `None` until enabled.
#[derive(Default)]
pub(super) struct Observers {
    /// Whether any store was attached: a hook that fans out to more than
    /// one store tests this first.
    on: bool,
    packet_log: Option<PacketLog>,
    auditor: Option<Auditor>,
    forensics: Option<DropLedger>,
    prof: Option<Profile>,
}

impl Observers {
    #[inline]
    fn log(&mut self, now: SimTime, p: &Packet, link: Option<LinkId>, event: PacketEvent) {
        if let Some(log) = &mut self.packet_log {
            log.push(PacketRecord::new(now, p.uid, p.flow, link, event));
        }
    }

    /// `p` entered `link`'s output queue, or went straight to its
    /// transmitter.
    // Hot path — once per packet offered to a link
    #[inline]
    pub(super) fn queued(&mut self, now: SimTime, link: LinkId, p: &Packet) {
        self.log(now, p, Some(link), PacketEvent::Queued);
    }

    /// A mark-mode queue on `link` CE-marked `p` at `depth` packets
    /// (saturated at `u32::MAX` in the records).
    #[inline]
    pub(super) fn marked(
        &mut self,
        now: SimTime,
        link: LinkId,
        p: &Packet,
        reason: MarkReason,
        depth: usize,
    ) {
        if self.on {
            let depth = u32::try_from(depth).unwrap_or(u32::MAX);
            self.log(now, p, Some(link), PacketEvent::Marked { reason, depth });
            if let Some(led) = &mut self.forensics {
                led.on_mark(link, p.flow, reason);
            }
        }
    }

    /// `link` dropped `p` at `depth` packets (saturated at `u32::MAX` in
    /// the records).
    #[inline]
    pub(super) fn dropped(
        &mut self,
        now: SimTime,
        link: LinkId,
        p: &Packet,
        reason: DropReason,
        depth: usize,
    ) {
        if self.on {
            let depth = u32::try_from(depth).unwrap_or(u32::MAX);
            self.log(now, p, Some(link), PacketEvent::Dropped { reason, depth });
            if let Some(led) = &mut self.forensics {
                led.on_drop(now, link, p.flow, reason, depth);
            }
            if let Some(a) = &mut self.auditor {
                a.on_dropped();
            }
        }
    }

    /// `p` finished serializing onto `link`.
    // Hot path — once per TxEnd event
    #[inline]
    pub(super) fn transmitted(&mut self, now: SimTime, link: LinkId, p: &Packet) {
        self.log(now, p, Some(link), PacketEvent::Transmitted);
    }

    /// `p` is handed to its destination agent.
    // Hot path — once per delivered packet
    #[inline]
    pub(super) fn delivered(&mut self, now: SimTime, p: &Packet) {
        if self.on {
            self.log(now, p, None, PacketEvent::Delivered);
            if let Some(a) = &mut self.auditor {
                a.on_delivered();
            }
        }
    }

    /// A packet met no route, or no agent bound to its flow.
    #[inline]
    pub(super) fn unroutable(&mut self) {
        if let Some(a) = &mut self.auditor {
            a.on_unroutable();
        }
    }

    /// An agent sent a packet.
    // Hot path — once per agent send
    #[inline]
    pub(super) fn injected(&mut self) {
        if let Some(a) = &mut self.auditor {
            a.on_injected();
        }
    }

    /// An event of class `class` is dispatched at `t`, in a batch that
    /// moved the clock from `from`.
    // Hot path — once per event
    #[inline]
    pub(super) fn dispatched(&mut self, class: usize, from: SimTime, t: SimTime) {
        if self.on {
            if let Some(a) = &self.auditor {
                a.check_monotonic(from, t);
            }
            if let Some(p) = &mut self.prof {
                p.on_dispatch(class, t.as_nanos());
            }
        }
    }

    /// The sync point at the end of [`Sim::run_until`]: the packet log
    /// takes back what its encoder thread made, so every read after the
    /// call sees every record logged before it.
    pub(super) fn sync(&mut self) {
        if let Some(log) = &mut self.packet_log {
            log.sync();
        }
    }

    /// The kernel's post-event census found `structural` packets inside
    /// the network; the auditor reconciles it with its counters.
    pub(super) fn audited(&mut self, now: SimTime, structural: u64) {
        if let Some(a) = &mut self.auditor {
            a.verify(now, structural);
        }
    }
}

impl Kernel {
    /// The packet log, if tracing is enabled.
    pub fn packet_log(&self) -> Option<&PacketLog> {
        self.obs.packet_log.as_ref()
    }

    /// The runtime auditor, if enabled.
    pub fn auditor(&self) -> Option<&Auditor> {
        self.obs.auditor.as_ref()
    }

    /// The drop-forensics ledger, if enabled.
    pub fn forensics(&self) -> Option<&DropLedger> {
        self.obs.forensics.as_ref()
    }
}

impl Sim {
    /// Enables per-packet event logging with a bounded capacity (off by
    /// default; see [`crate::eventlog::PacketLog`]), and starts the log's
    /// encoder thread.
    pub fn enable_packet_log(&mut self, capacity: usize) {
        self.kernel.obs.packet_log = Some(PacketLog::new(capacity));
        self.kernel.obs.on = true;
    }

    /// Detaches the packet log from a finished simulation so its encoded
    /// blocks can be moved out ([`PacketLog::into_records`]) instead of
    /// copied, and joins its encoder thread. Logging is off afterwards.
    pub fn take_packet_log(&mut self) -> Option<PacketLog> {
        let mut log = self.kernel.obs.packet_log.take()?;
        log.finish();
        Some(log)
    }

    /// Enables runtime invariant auditing: packet conservation, queue
    /// bounds, and event-time monotonicity are checked after every event
    /// (see [`Auditor`]). Must be called before [`Sim::start`]; auditing
    /// walks every link per event, so reserve it for tests and validation
    /// runs.
    pub fn enable_auditor(&mut self) {
        assert!(!self.started, "enable_auditor() after start()");
        self.kernel.obs.auditor = Some(Auditor::default());
        self.kernel.obs.on = true;
    }

    /// Enables causal drop forensics (off by default): every kernel drop is
    /// attributed to the discipline mechanism that caused it
    /// ([`DropReason`]) and aggregated by reason, flow, link, and time
    /// interval in a [`DropLedger`]; drops from ≥ `sync_k` distinct flows
    /// inside one `sync_window` are grouped into synchronized-loss episodes.
    ///
    /// The ledger is a pure observer of the kernel's existing drop sites: it
    /// consumes no randomness and never mutates simulation state, so
    /// enabling it cannot change the outcome of a run (DESIGN.md §9, §10).
    pub fn enable_drop_forensics(&mut self, config: ForensicsConfig) {
        let obs = &mut self.kernel.obs;
        assert!(
            obs.forensics.is_none(),
            "enable_drop_forensics() called twice"
        );
        obs.forensics = Some(DropLedger::new(config));
        obs.on = true;
    }

    /// The drop-forensics ledger, if [`Sim::enable_drop_forensics`] was
    /// called.
    pub fn forensics(&self) -> Option<&DropLedger> {
        self.kernel.forensics()
    }

    /// Enables the self-profiler (off by default): per-event-class dispatch
    /// counts, inter-event sim-time gap histograms, event-queue high-water
    /// marks, and reservation counters are collected into a
    /// [`Profile`]. Everything counted is a deterministic function of the
    /// event stream — no wall clock is read — so profiles are bit-identical
    /// across runs of the same seed and enabling the profiler cannot change
    /// a run's outcome.
    pub fn enable_profiler(&mut self) {
        let obs = &mut self.kernel.obs;
        assert!(obs.prof.is_none(), "enable_profiler() called twice");
        obs.prof = Some(Profile::new(&EVENT_CLASS_LABELS));
        obs.on = true;
    }

    /// A snapshot of the self-profiler's state, if [`Sim::enable_profiler`]
    /// was called: the dispatch-level counters plus the event queue's
    /// high-water mark and reservation statistics as of now.
    pub fn profile(&self) -> Option<Profile> {
        let mut p = self.kernel.obs.prof.clone()?;
        let (calls, slots) = self.kernel.events.reserve_stats();
        p.set_queue_stats(self.kernel.events.depth_high_water() as u64, calls, slots);
        p.set_state_high_water(self.kernel.arena_high_water() as u64, 0);
        Some(p)
    }
}
