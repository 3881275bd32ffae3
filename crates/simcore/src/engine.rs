//! The event loop: timers and flow completions on a virtual clock.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::LazyLock;

use crate::flownet::{FlowNet, FlowSpec, ResourceId};

static FLOWS_STARTED: LazyLock<&'static telemetry::Counter> =
    LazyLock::new(|| telemetry::counter("simcore.flows_started"));
static FLOWS_COMPLETED: LazyLock<&'static telemetry::Counter> =
    LazyLock::new(|| telemetry::counter("simcore.flows_completed"));
static TIMERS_FIRED: LazyLock<&'static telemetry::Counter> =
    LazyLock::new(|| telemetry::counter("simcore.timers_fired"));
static ACTIVE_FLOWS: LazyLock<&'static telemetry::Gauge> =
    LazyLock::new(|| telemetry::gauge("simcore.active_flows"));
static FLOW_DURATION: LazyLock<&'static telemetry::Histogram> =
    LazyLock::new(|| telemetry::histogram("simcore.flow_duration_us"));
static FLOW_WORK: LazyLock<&'static telemetry::Histogram> =
    LazyLock::new(|| telemetry::histogram("simcore.flow_work"));

/// One recorded simulation event (see [`Engine::enable_trace`]).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Virtual time of the event.
    pub at: f64,
    /// What happened.
    pub kind: TraceKind,
}

/// The kinds of events a trace records. Each carries the identity of the
/// flow or timer involved so traces can be correlated with the handles
/// returned by [`Engine::start_flow`] / [`Engine::schedule`].
#[derive(Debug, Clone, PartialEq)]
pub enum TraceKind {
    /// A flow was started.
    FlowStarted {
        /// The handle [`Engine::start_flow`] returned.
        id: FlowId,
        /// Work in MB or core-seconds.
        work: f64,
        /// The resources the flow traverses, in path order.
        path: Vec<ResourceId>,
    },
    /// A flow drained.
    FlowCompleted {
        /// The completed flow.
        id: FlowId,
    },
    /// A timer fired.
    TimerFired {
        /// The handle [`Engine::schedule`] returned.
        id: TimerId,
    },
}

/// Identifies a flow started on an [`Engine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlowId(usize);

/// Identifies a scheduled timer in the trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerId(u64);

struct Timer<E> {
    at: f64,
    seq: u64,
    id: TimerId,
    event: E,
}

impl<E> PartialEq for Timer<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Timer<E> {}
impl<E> PartialOrd for Timer<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Timer<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse for a min-heap; ties broken by insertion order for
        // determinism.
        other
            .at
            .partial_cmp(&self.at)
            .unwrap_or(Ordering::Equal)
            .then(other.seq.cmp(&self.seq))
    }
}

/// A discrete-event engine combining a timer queue with a [`FlowNet`].
///
/// `E` is the client-defined event payload returned by
/// [`Engine::next_event`] when a timer fires or a flow completes.
pub struct Engine<E> {
    now: f64,
    seq: u64,
    timers: BinaryHeap<Timer<E>>,
    net: FlowNet,
    /// Completion events for in-flight flows, indexed by flow slot.
    completions: Vec<Option<E>>,
    flows_started: u64,
    trace: Option<Vec<TraceEvent>>,
    resource_work: Vec<f64>,
    /// Virtual start time of each in-flight flow, indexed by flow slot —
    /// feeds the `simcore.flow_duration_us` histogram on completion.
    flow_started_at: Vec<f64>,
}

impl<E> Default for Engine<E> {
    fn default() -> Self {
        Engine::new()
    }
}

impl<E> Engine<E> {
    /// Creates an engine at time zero with no resources.
    pub fn new() -> Self {
        Engine {
            now: 0.0,
            seq: 0,
            timers: BinaryHeap::new(),
            net: FlowNet::new(),
            completions: Vec::new(),
            flows_started: 0,
            trace: None,
            resource_work: Vec::new(),
            flow_started_at: Vec::new(),
        }
    }

    /// Turns on event tracing: every flow start/completion and timer firing
    /// is recorded with its virtual time. Useful for debugging simulations
    /// and asserting on schedules in tests.
    pub fn enable_trace(&mut self) {
        self.trace.get_or_insert_with(Vec::new);
    }

    /// The recorded events (empty unless [`Engine::enable_trace`] was
    /// called before the activity of interest).
    pub fn trace(&self) -> &[TraceEvent] {
        self.trace.as_deref().unwrap_or(&[])
    }

    fn record(&mut self, kind: TraceKind) {
        let at = self.now;
        // Stream to the shared telemetry sink (when one is installed) so
        // simulator schedules land in the same JSON-lines file as metric
        // snapshots and spans; the in-memory trace stays available for
        // in-test assertions.
        if telemetry::event_sink_installed() {
            let obj = telemetry::json::Obj::new().str("type", "sim").f64("at", at);
            let obj = match &kind {
                TraceKind::FlowStarted { id, work, path } => {
                    let mut ids = String::from("[");
                    for (i, r) in path.iter().enumerate() {
                        if i > 0 {
                            ids.push(',');
                        }
                        ids.push_str(&r.index().to_string());
                    }
                    ids.push(']');
                    obj.str("kind", "flow_started")
                        .u64("flow", id.0 as u64)
                        .f64("work", *work)
                        .raw("path", &ids)
                }
                TraceKind::FlowCompleted { id } => {
                    obj.str("kind", "flow_completed").u64("flow", id.0 as u64)
                }
                TraceKind::TimerFired { id } => obj.str("kind", "timer_fired").u64("timer", id.0),
            };
            telemetry::emit_event(obj);
        }
        if let Some(tr) = self.trace.as_mut() {
            tr.push(TraceEvent { at, kind });
        }
    }

    /// Current virtual time in seconds.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Total flows ever started (for statistics).
    pub fn flows_started(&self) -> u64 {
        self.flows_started
    }

    /// Adds a capacity resource (disk, link, CPU pool).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is not strictly positive and finite.
    pub fn add_resource(&mut self, name: &str, capacity: f64) -> ResourceId {
        self.resource_work.push(0.0);
        self.net.add_resource(name, capacity)
    }

    /// Total work (MB or core-seconds) a resource has served so far — the
    /// integral of its allocated rate over virtual time.
    pub fn resource_work(&self, r: ResourceId) -> f64 {
        self.net.capacity(r); // index validation
        self.resource_work[r.index()]
    }

    /// Schedules `event` to fire `delay` seconds from now.
    ///
    /// # Panics
    ///
    /// Panics if `delay` is negative or NaN.
    pub fn schedule(&mut self, delay: f64, event: E) -> TimerId {
        assert!(delay >= 0.0, "cannot schedule in the past");
        self.seq += 1;
        let id = TimerId(self.seq);
        self.timers.push(Timer {
            at: self.now + delay,
            seq: self.seq,
            id,
            event,
        });
        id
    }

    /// Starts a flow of `work` units across `path`, firing `on_complete`
    /// when it drains. `max_rate` caps the flow (e.g. one CPU core).
    ///
    /// A zero-work flow completes at the next `next_event` call without
    /// consuming bandwidth.
    ///
    /// # Panics
    ///
    /// Panics if the path is empty or references unknown resources.
    pub fn start_flow(
        &mut self,
        work: f64,
        path: &[ResourceId],
        max_rate: Option<f64>,
        on_complete: E,
    ) -> FlowId {
        let slot = self.net.insert(FlowSpec {
            remaining: work.max(0.0),
            path: path.to_vec(),
            max_rate,
        });
        if slot >= self.completions.len() {
            self.completions.resize_with(slot + 1, || None);
        }
        if slot >= self.flow_started_at.len() {
            self.flow_started_at.resize(slot + 1, 0.0);
        }
        self.completions[slot] = Some(on_complete);
        self.flow_started_at[slot] = self.now;
        self.flows_started += 1;
        FLOWS_STARTED.inc();
        ACTIVE_FLOWS.add(1);
        FLOW_WORK.record_f64(work.max(0.0));
        self.record(TraceKind::FlowStarted {
            id: FlowId(slot),
            work: work.max(0.0),
            path: path.to_vec(),
        });
        FlowId(slot)
    }

    /// Advances virtual time to the next timer firing or flow completion
    /// and returns `(time, event)`; `None` when the simulation has drained.
    pub fn next_event(&mut self) -> Option<(f64, E)> {
        let timer_at = self.timers.peek().map(|t| t.at);
        let flow_eta = self
            .net
            .next_completion()
            .map(|(dt, slot)| (self.now + dt, slot));
        match (timer_at, flow_eta) {
            (None, None) => None,
            (Some(t), None) => {
                self.advance_to(t);
                let timer = self.timers.pop().expect("peeked");
                TIMERS_FIRED.inc();
                self.record(TraceKind::TimerFired { id: timer.id });
                Some((self.now, timer.event))
            }
            (None, Some((t, slot))) => {
                self.advance_to(t);
                Some((self.now, self.finish_flow(slot)))
            }
            (Some(tt), Some((ft, slot))) => {
                if tt <= ft {
                    self.advance_to(tt);
                    let timer = self.timers.pop().expect("peeked");
                    TIMERS_FIRED.inc();
                    self.record(TraceKind::TimerFired { id: timer.id });
                    return Some((self.now, timer.event));
                }
                self.advance_to(ft);
                Some((self.now, self.finish_flow(slot)))
            }
        }
    }

    /// Runs the whole simulation, invoking `handle` for every event; the
    /// handler gets `&mut Engine` to schedule further work.
    ///
    /// Returns the final virtual time.
    ///
    /// # Examples
    ///
    /// ```
    /// use simcore::Engine;
    ///
    /// let mut engine: Engine<&str> = Engine::new();
    /// let link = engine.add_resource("link", 10.0);
    /// engine.start_flow(50.0, &[link], None, "transfer done");
    /// let end = engine.run(|eng, _t, ev| {
    ///     if ev == "transfer done" {
    ///         eng.schedule(1.0, "cleanup done");
    ///     }
    /// });
    /// assert!((end - 6.0).abs() < 1e-9); // 5 s transfer + 1 s cleanup
    /// ```
    pub fn run(mut self, mut handle: impl FnMut(&mut Engine<E>, f64, E)) -> f64 {
        while let Some((t, ev)) = self.next_event() {
            handle(&mut self, t, ev);
        }
        self.now
    }

    fn advance_to(&mut self, t: f64) {
        let dt = (t - self.now).max(0.0);
        if dt > 0.0 {
            for (i, w) in self.resource_work.iter_mut().enumerate() {
                *w += self.net.allocated(crate::flownet::ResourceId(i)) * dt;
            }
            self.net.advance(dt);
        }
        self.now = self.now.max(t);
    }

    fn finish_flow(&mut self, slot: usize) -> E {
        self.net.remove(slot).expect("completing flow exists");
        FLOWS_COMPLETED.inc();
        ACTIVE_FLOWS.add(-1);
        let dur_us = (self.now - self.flow_started_at[slot]).max(0.0) * 1e6;
        FLOW_DURATION.record_f64(dur_us);
        self.record(TraceKind::FlowCompleted { id: FlowId(slot) });
        self.completions[slot]
            .take()
            .expect("completion event present")
    }
}

impl<E> std::fmt::Debug for Engine<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("now", &self.now)
            .field("timers", &self.timers.len())
            .field("active_flows", &self.net.active_flows())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq, Clone, Copy)]
    enum Ev {
        Timer(u32),
        Flow(u32),
    }

    #[test]
    fn timers_fire_in_order() {
        let mut e: Engine<Ev> = Engine::new();
        e.schedule(5.0, Ev::Timer(2));
        e.schedule(1.0, Ev::Timer(1));
        e.schedule(9.0, Ev::Timer(3));
        assert_eq!(e.next_event(), Some((1.0, Ev::Timer(1))));
        assert_eq!(e.next_event(), Some((5.0, Ev::Timer(2))));
        assert_eq!(e.next_event(), Some((9.0, Ev::Timer(3))));
        assert_eq!(e.next_event(), None);
    }

    #[test]
    fn simultaneous_timers_fifo() {
        let mut e: Engine<Ev> = Engine::new();
        e.schedule(2.0, Ev::Timer(1));
        e.schedule(2.0, Ev::Timer(2));
        assert_eq!(e.next_event(), Some((2.0, Ev::Timer(1))));
        assert_eq!(e.next_event(), Some((2.0, Ev::Timer(2))));
    }

    #[test]
    fn flow_completion_time_reflects_sharing() {
        let mut e: Engine<Ev> = Engine::new();
        let link = e.add_resource("link", 100.0);
        e.start_flow(100.0, &[link], None, Ev::Flow(1));
        e.start_flow(200.0, &[link], None, Ev::Flow(2));
        // Share 50/50 until flow 1 finishes at t=2 (100/50); flow 2 then has
        // 100 left at 100 MB/s -> finishes at t=3.
        assert_eq!(e.next_event(), Some((2.0, Ev::Flow(1))));
        let (t, ev) = e.next_event().unwrap();
        assert_eq!(ev, Ev::Flow(2));
        assert!((t - 3.0).abs() < 1e-9);
    }

    #[test]
    fn timer_interleaves_with_flows() {
        let mut e: Engine<Ev> = Engine::new();
        let link = e.add_resource("link", 10.0);
        e.start_flow(100.0, &[link], None, Ev::Flow(1)); // completes at 10
        e.schedule(4.0, Ev::Timer(1));
        assert_eq!(e.next_event(), Some((4.0, Ev::Timer(1))));
        let (t, ev) = e.next_event().unwrap();
        assert_eq!(ev, Ev::Flow(1));
        assert!((t - 10.0).abs() < 1e-9);
    }

    #[test]
    fn zero_work_flow_completes_immediately() {
        let mut e: Engine<Ev> = Engine::new();
        let link = e.add_resource("link", 10.0);
        e.start_flow(0.0, &[link], None, Ev::Flow(7));
        assert_eq!(e.next_event(), Some((0.0, Ev::Flow(7))));
    }

    #[test]
    fn run_drives_a_chain() {
        // A timer spawns a flow; the flow's completion spawns another timer.
        let mut e: Engine<Ev> = Engine::new();
        let link = e.add_resource("link", 10.0);
        e.schedule(1.0, Ev::Timer(1));
        let end = e.run(move |eng, _t, ev| match ev {
            Ev::Timer(1) => {
                eng.start_flow(50.0, &[link], None, Ev::Flow(1));
            }
            Ev::Flow(1) => {
                eng.schedule(0.5, Ev::Timer(99));
            }
            _ => {}
        });
        // 1.0 + 5.0 + 0.5
        assert!((end - 6.5).abs() < 1e-9);
    }

    #[test]
    fn trace_records_schedule() {
        let mut e: Engine<Ev> = Engine::new();
        e.enable_trace();
        let link = e.add_resource("link", 10.0);
        let flow = e.start_flow(20.0, &[link], None, Ev::Flow(1));
        let timer = e.schedule(1.0, Ev::Timer(1));
        while e.next_event().is_some() {}
        let kinds: Vec<_> = e.trace().iter().map(|ev| ev.kind.clone()).collect();
        assert_eq!(
            kinds,
            vec![
                TraceKind::FlowStarted {
                    id: flow,
                    work: 20.0,
                    path: vec![link],
                },
                TraceKind::TimerFired { id: timer },
                TraceKind::FlowCompleted { id: flow },
            ]
        );
        assert!((e.trace()[2].at - 2.0).abs() < 1e-9);
    }

    #[test]
    fn resource_work_integrates_allocated_rates() {
        let mut e: Engine<Ev> = Engine::new();
        let link = e.add_resource("link", 10.0);
        e.start_flow(20.0, &[link], None, Ev::Flow(1)); // busy 2 s at 10 MB/s
        while e.next_event().is_some() {}
        assert!((e.resource_work(link) - 20.0).abs() < 1e-9);
        // Idle time adds no work.
        e.schedule(2.0, Ev::Timer(1));
        while e.next_event().is_some() {}
        assert!((e.resource_work(link) - 20.0).abs() < 1e-9);
    }

    #[test]
    fn trace_disabled_by_default() {
        let mut e: Engine<Ev> = Engine::new();
        let link = e.add_resource("link", 10.0);
        e.start_flow(5.0, &[link], None, Ev::Flow(1));
        while e.next_event().is_some() {}
        assert!(e.trace().is_empty());
    }

    #[test]
    fn simultaneous_flow_completions_all_fire() {
        let mut e: Engine<Ev> = Engine::new();
        let a = e.add_resource("a", 10.0);
        let b = e.add_resource("b", 10.0);
        e.start_flow(20.0, &[a], None, Ev::Flow(1));
        e.start_flow(20.0, &[b], None, Ev::Flow(2));
        let mut got = Vec::new();
        while let Some((t, ev)) = e.next_event() {
            assert!((t - 2.0).abs() < 1e-9);
            got.push(ev);
        }
        assert_eq!(got.len(), 2);
    }

    #[test]
    fn cpu_pool_with_core_caps() {
        // 2 cores, 3 tasks of 4 core-seconds each at max 1 core: two run at
        // 1.0, one waits... actually max-min gives each 2/3 core -> all
        // finish at t = 6. This matches processor sharing with more tasks
        // than cores.
        let mut e: Engine<Ev> = Engine::new();
        let cpu = e.add_resource("cpu", 2.0);
        for i in 0..3 {
            e.start_flow(4.0, &[cpu], Some(1.0), Ev::Flow(i));
        }
        let mut times = Vec::new();
        while let Some((t, _)) = e.next_event() {
            times.push(t);
        }
        assert_eq!(times.len(), 3);
        for t in times {
            assert!((t - 6.0).abs() < 1e-9);
        }
    }
}
