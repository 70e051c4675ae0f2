// Package admit is the long-lived admission-control engine: it holds the
// live TDMA schedule of a serving mesh and answers a stream of Admit/Release
// calls by incremental repair instead of from-scratch re-planning.
//
// The engine has one decision core over a spatial decomposition of the link
// set into zones (internal/partition). Each zone keeps a persistent,
// mutation-driven ILP model (schedule.Incremental) over the grow-only set of
// its links that ever carried demand, plus a proven lower bound on its
// minimum window. An unzoned engine is the single-zone case: one zone holds
// every link, and first-fitting the zone's solved schedule in ascending
// start order never places a block later than the solver did, so the
// engine keeps the solver's exact window and its accept/reject verdicts
// match a cold schedule.MinSlots re-plan — the differential tests pin this.
// A zoned engine (city scale) re-solves only the zones an admission touches
// and stitches their blocks against the rest of the schedule; its verdicts
// are conservative, as for the partitioned planner.
//
// A decision tries three tiers, cheapest first:
//
//   - Fast: first-fit placement of the new flow's slots into the free space
//     of the current schedule window, checked against a per-link interval
//     index — O(conflict degree), no solver. Fill-in only: the window never
//     grows on this tier.
//   - Warm: re-solve of each touched zone's model, hinted at the zone's
//     current makespan and bounded below by its last exact window, so the
//     common case is one integer program of a few dual pivots.
//   - Cold: a touched zone's model does not cover the new demand; rebuild it
//     over the widened support and solve. Support only ever grows, so cold
//     admits become rarer as the engine warms up.
//
// Rejections are always structural, solver or stitch verdicts (the fast
// tier only admits). Serial and sharded engines run the same core under two
// lock policies (see Config.Sharded).
package admit

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"wimesh/internal/conflict"
	"wimesh/internal/milp"
	"wimesh/internal/obs"
	"wimesh/internal/partition"
	"wimesh/internal/schedule"
	"wimesh/internal/tdma"
	"wimesh/internal/topology"
)

// ErrUnknownFlow reports a Release of a flow ID the engine is not serving.
var ErrUnknownFlow = errors.New("admit: unknown flow")

// ErrBadFlow reports a malformed admission request.
var ErrBadFlow = errors.New("admit: bad flow")

// Tier identifies which repair tier decided an admission.
type Tier int

const (
	// TierNone marks decisions that needed no tier: structurally impossible
	// requests (per-link demand beyond the window cap) rejected up front.
	TierNone Tier = iota
	// TierFast is first-fit placement into the current window, no solver.
	TierFast
	// TierWarm is a re-solve of the persistent incremental ILP model.
	TierWarm
	// TierCold is a model rebuild (support growth) followed by a solve.
	TierCold
)

func (t Tier) String() string {
	switch t {
	case TierFast:
		return "fast"
	case TierWarm:
		return "warm"
	case TierCold:
		return "cold"
	default:
		return "none"
	}
}

// FlowID names an admitted flow for later release.
type FlowID string

// Flow is an admission request: Slots[i] data slots per frame on link
// Path[i]. A link appearing twice contributes the sum of its entries.
// Class is the flow's 802.16 service class; the zero value (best effort)
// reproduces the engine's class-oblivious behavior exactly.
type Flow struct {
	ID    FlowID
	Path  []topology.LinkID
	Slots []int
	Class Class
}

// demand folds the flow into a per-link slot map.
func (f Flow) demand() map[topology.LinkID]int {
	d := make(map[topology.LinkID]int, len(f.Path))
	for i, l := range f.Path {
		d[l] += f.Slots[i]
	}
	return d
}

// Decision reports the outcome of one Admit call.
type Decision struct {
	Admitted bool
	Tier     Tier
	// Window is the schedule makespan in slots after the call.
	Window int
	// Solved and Pivots count the integer programs and simplex pivots the
	// decision spent (zero on the fast tier).
	Solved int
	Pivots int
	// Latency is the in-engine decision time.
	Latency time.Duration
	// Preempted lists the flows evicted to make this admission possible
	// (Config.Preempt). Non-empty only on admitted guaranteed-class
	// decisions; the evicted flows are no longer served and must not be
	// released again.
	Preempted []FlowID
	// budget marks a rejection issued because a solve exhausted its budget
	// (Config.BudgetRejects); it is booked only if it is the final verdict.
	budget bool
}

// Stats is a snapshot of the engine's lifetime tallies.
type Stats struct {
	Admitted, Rejected    uint64
	Fast, Warm, Cold      uint64
	Releases, Compactions uint64
	ZoneGreedy            uint64
	WarmPivots            uint64
	// Batched counts admissions decided jointly: calls whose verdict was
	// recovered from a shared solve of a batch of two or more arrivals.
	Batched uint64
	// Defrags counts background solver-driven re-packs swapped into the live
	// schedule; DefragSlots is the total window shrinkage they bought.
	Defrags     uint64
	DefragSlots uint64
	// Satisficed counts admissions decided by the satisficing fallback: the
	// exact min-window search blew its budget and a single probe at the
	// window cap found a feasible (not necessarily minimal) schedule.
	Satisficed uint64
	// BudgetRejected counts decisions whose final verdict is a rejection
	// because a solve exhausted its branch-and-bound budget — with
	// Config.BudgetRejects, after the satisficing fallback also failed to
	// decide in time. A joint batch attempt that falls back to individual
	// decisions, and a guaranteed arrival that preemption then admits, are
	// not budget rejections.
	BudgetRejected uint64
	// PreemptAttempts counts guaranteed-class rejections that entered the
	// preemption search; PreemptAdmits the ones it converted to admissions;
	// PreemptEvicted the BE/nrtPS flows evicted across those admissions.
	PreemptAttempts uint64
	PreemptAdmits   uint64
	PreemptEvicted  uint64
}

// Config parameterizes an Engine.
type Config struct {
	// Graph is the link conflict graph; Frame the TDMA frame layout.
	Graph *conflict.Graph
	Frame tdma.FrameConfig
	// MaxWindow caps the schedule makespan in slots (0 = all data slots).
	// Admissions that cannot fit within it are rejected.
	MaxWindow int
	// UGSDeadline, when positive, requires every link's aggregate UGS slots
	// to complete within the first UGSDeadline slots of the frame — the
	// periodic-grant region of the 802.16 frame map. RtPSWindow, when
	// positive, requires each link's UGS+rtPS slots to complete within the
	// first RtPSWindow slots (at least UGSDeadline when both are set).
	// Zero disables the deadline machinery entirely; classes then only
	// order preemption, and the engine's verdicts and schedules are
	// byte-identical to the class-oblivious ones.
	UGSDeadline int
	RtPSWindow  int
	// Preempt lets a guaranteed-class (UGS/rtPS) arrival that fails every
	// repair tier evict the cheapest conflict-relevant set of BE/nrtPS
	// flows and retry. Evictions are reported in Decision.Preempted and the
	// evicted flows are no longer served. Non-guaranteed arrivals never
	// preempt, and guaranteed flows are never victims. Requires the serial
	// engine (not Sharded): preemption retries mutate and roll back the
	// whole schedule under one lock.
	Preempt bool
	// MaxPreempt caps the evictions spent on one admission (0 = no cap).
	MaxPreempt int
	// MILP configures the branch-and-bound solves. Admit overrides
	// Interrupt with the call context's Done channel.
	MILP milp.Options
	// BudgetRejects trades exactness for bounded decision latency when a
	// solve exhausts its branch-and-bound budget (milp.ErrLimit with a live
	// context). The blown exact search — almost always stuck in an
	// infeasibility proof at the incumbent window — first falls back to a
	// single feasibility probe at the window cap: admission needs *a*
	// window within the cap, not the minimum, and the loose probe is cheap
	// exactly where the tight proof is hard. A feasible witness admits the
	// call with its window marked unproven; only if the fallback also blows
	// its budget is the call rejected conservatively. Differential tests
	// leave this off so a blown budget fails loudly.
	BudgetRejects bool
	// Zoned cuts the link set into square zones of ZoneSize meters (0 =
	// automatic), each with its own incremental model: city-scale mode,
	// where a decision re-solves only the zones its demand touches and
	// verdicts are conservative. Off, the engine is the single-zone case —
	// one model over every link, exact verdicts.
	Zoned    bool
	ZoneSize float64
	// Sharded selects the per-zone lock policy: a decision holds the locks
	// of the zones its flows touch (in ascending zone-ID order, so
	// concurrent decisions cannot deadlock) and takes the engine lock only
	// to screen and snapshot its inputs and to stitch and commit, so zone
	// solves in disjoint zones run truly in parallel. Off, a decision holds
	// the engine lock throughout. Requires Zoned. Verdicts stay the zoned
	// engine's conservative ones, but their arrival order under concurrency
	// is scheduler-dependent; serial replay needs Sharded off.
	Sharded bool
	// MaxZonePairs gates zone ILP size on a zoned engine as in
	// internal/partition; larger zones fall back to greedy packing (0 =
	// partition default). An unzoned engine never packs greedily.
	MaxZonePairs int
	// CompactEvery re-packs the schedule after that many releases to
	// reclaim fragmented slots (0 = 64, negative = never).
	CompactEvery int
	// Registry receives admit.* counters and the decision-latency
	// histogram; nil disables metrics.
	Registry *obs.Registry
}

const defaultCompactEvery = 64

// Engine is the long-lived admission engine. All methods are safe for
// concurrent use. Decisions serialize on one engine lock by default; with
// Config.Sharded a decision instead holds the locks of the zones it touches
// and takes the engine lock only around the shared schedule, so the solver
// work of decisions in disjoint zones runs in parallel (see lock).
type Engine struct {
	cfg    Config
	maxWin int
	// maxPairs is the zone ILP size gate, resolved at New: math.MaxInt on
	// an unzoned engine, which never packs greedily.
	maxPairs int
	sharded  bool
	// dec is the static decomposition over the full link universe (one
	// zone when unzoned): every link has a zone for the engine's lifetime,
	// whatever the demand pattern does.
	dec *partition.Decomposition

	// mu is the stitch lock: it guards the live schedule, the occupancy
	// index, the aggregate demand, the flow table and the tallies.
	mu     sync.Mutex
	sched  *tdma.Schedule
	occ    [][][2]int // per-link [start,end) intervals, sorted by start
	demand map[topology.LinkID]int
	flows  map[FlowID]Flow
	win    int
	// cls tracks, per link, the aggregate guaranteed-class slots:
	// [0] UGS, [1] rtPS. Maintained only when classed() — a deadline is
	// configured — and guarded by e.mu like demand.
	cls map[topology.LinkID][2]int
	// gen counts committed mutations of the live schedule (admit, release,
	// compaction, defrag swap). Background defragmentation snapshots it and
	// discards its candidate when the schedule moved underneath the solve.
	gen uint64
	// pending reserves flow IDs whose decision is mid-solve outside e.mu,
	// so a concurrent duplicate of the same ID fails instead of racing.
	pending  map[FlowID]bool
	releases int
	// zones are the decision path's per-zone models. zones[zi] is guarded
	// by zoneMu[zi] on a sharded engine, by e.mu otherwise.
	zones  []zoneModel
	zoneMu []sync.Mutex

	// Defragmentation state: dfMu serializes background re-packs (one at a
	// time); dfZones are private models, so a defrag solve never touches
	// the decision path's.
	dfMu    sync.Mutex
	dfZones []zoneModel

	stats   Stats
	scratch [][2]int

	cFast, cWarm, cCold, cReject *obs.Counter
	cRelease, cCompact           *obs.Counter
	cZoneGreedy, cWarmPivots     *obs.Counter
	cSatisfice, cBudget          *obs.Counter
	cDefrag, cDefragSlots        *obs.Counter
	cPreemptAttempt              *obs.Counter
	cPreemptAdmit, cPreemptEvict *obs.Counter
	hDecision, hCompact          *obs.Histogram
	hBatch, hLockWait            *obs.Histogram
	gQueue                       *obs.Gauge
}

// New builds an engine serving an empty schedule.
func New(cfg Config) (*Engine, error) {
	if cfg.Graph == nil {
		return nil, fmt.Errorf("%w: nil conflict graph", ErrBadFlow)
	}
	if err := cfg.Frame.Validate(); err != nil {
		return nil, err
	}
	maxWin := cfg.MaxWindow
	if maxWin <= 0 || maxWin > cfg.Frame.DataSlots {
		maxWin = cfg.Frame.DataSlots
	}
	s, err := tdma.NewSchedule(cfg.Frame)
	if err != nil {
		return nil, err
	}
	if cfg.Sharded && !cfg.Zoned {
		return nil, fmt.Errorf("%w: Sharded requires Zoned (per-zone locks need zones)", ErrBadFlow)
	}
	if cfg.UGSDeadline < 0 || cfg.RtPSWindow < 0 {
		return nil, fmt.Errorf("%w: negative class deadline (ugs %d, rtps %d)",
			ErrBadFlow, cfg.UGSDeadline, cfg.RtPSWindow)
	}
	if cfg.UGSDeadline > 0 && cfg.RtPSWindow > 0 && cfg.RtPSWindow < cfg.UGSDeadline {
		return nil, fmt.Errorf("%w: rtPS window %d below UGS deadline %d",
			ErrBadFlow, cfg.RtPSWindow, cfg.UGSDeadline)
	}
	if cfg.Preempt && cfg.Sharded {
		return nil, fmt.Errorf("%w: Preempt requires the serial engine (preemption retries roll back the whole schedule)", ErrBadFlow)
	}
	// Decompose a synthetic all-active problem; an unzoned engine uses an
	// infinite zone size, which puts every link in one zone.
	zoneSize, maxPairs := math.Inf(1), math.MaxInt
	if cfg.Zoned {
		zoneSize, maxPairs = cfg.ZoneSize, cfg.MaxZonePairs
		if maxPairs <= 0 {
			maxPairs = partition.DefaultMaxZonePairs
		}
	}
	synth := &schedule.Problem{
		Graph:      cfg.Graph,
		Demand:     make(map[topology.LinkID]int, cfg.Graph.NumVertices()),
		FrameSlots: cfg.Frame.DataSlots,
	}
	for l := 0; l < cfg.Graph.NumVertices(); l++ {
		synth.Demand[topology.LinkID(l)] = 1
	}
	dec, err := partition.Decompose(synth, zoneSize)
	if err != nil {
		return nil, err
	}
	e := &Engine{
		cfg:      cfg,
		maxWin:   maxWin,
		maxPairs: maxPairs,
		sharded:  cfg.Sharded,
		dec:      dec,
		sched:    s,
		occ:      make([][][2]int, cfg.Graph.NumVertices()),
		demand:   make(map[topology.LinkID]int),
		flows:    make(map[FlowID]Flow),
		cls:      make(map[topology.LinkID][2]int),
		pending:  make(map[FlowID]bool),
		zones:    make([]zoneModel, len(dec.Zones)),
		zoneMu:   make([]sync.Mutex, len(dec.Zones)),
	}
	for zi := range e.zones {
		e.zones[zi].links = dec.Zones[zi].Links
	}
	if r := cfg.Registry; r != nil {
		e.cFast = r.Counter("admit.fastpath_hit")
		e.cWarm = r.Counter("admit.warm_hit")
		e.cCold = r.Counter("admit.cold_hit")
		e.cReject = r.Counter("admit.reject")
		e.cRelease = r.Counter("admit.release")
		e.cCompact = r.Counter("admit.compact")
		e.cZoneGreedy = r.Counter("admit.zone_greedy")
		e.cWarmPivots = r.Counter("admit.warm_pivots")
		e.cSatisfice = r.Counter("admit.satisfice")
		e.cBudget = r.Counter("admit.budget_reject")
		e.cDefrag = r.Counter("admit.defrag")
		e.cDefragSlots = r.Counter("admit.defrag_win_slots")
		e.cPreemptAttempt = r.Counter("admit.preempt_attempt")
		e.cPreemptAdmit = r.Counter("admit.preempt_admit")
		e.cPreemptEvict = r.Counter("admit.preempt_evict")
		e.hDecision = r.Histogram("admit.decision_us", 0, 100_000, 50)
		e.hCompact = r.Histogram("admit.compact_us", 0, 100_000, 50)
		e.hBatch = r.Histogram("admit.batch_size", 0, 64, 32)
		e.hLockWait = r.Histogram("admit.lock_wait_us", 0, 100_000, 50)
		e.gQueue = r.Gauge("admit.queue_depth")
	}
	return e, nil
}

// Window returns the current schedule makespan in slots.
//
// Locking note (audited for the sharded engine): e.mu alone is sufficient
// for this and the other read accessors even under Config.Sharded. Every
// mutation of reader-visible state — e.sched, e.occ, e.demand, e.flows,
// e.win, e.cls, e.stats — happens with e.mu held: a sharded decision
// mutates only its zones' models (guarded by the zone locks) during its
// solve phase B, and commits through phases A and C under e.mu. TestShardedSnapshotRace hammers these
// accessors against ServeConcurrent under the race detector to keep it
// that way.
func (e *Engine) Window() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.win
}

// NumFlows returns the number of flows currently admitted.
func (e *Engine) NumFlows() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.flows)
}

// Stats returns a snapshot of the lifetime tallies.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats
}

// Snapshot returns a copy of the live schedule. The assignment slice is
// cloned under e.mu (see the locking note on Window), so the copy is a
// consistent point-in-time schedule even while sharded admissions and
// background defrag run concurrently.
func (e *Engine) Snapshot() *tdma.Schedule {
	e.mu.Lock()
	defer e.mu.Unlock()
	cp := &tdma.Schedule{Config: e.sched.Config,
		Assignments: slices.Clone(e.sched.Assignments)}
	cp.Invalidate()
	return cp
}

func (f Flow) validate(numLinks, frameSlots int) error {
	if f.ID == "" {
		return fmt.Errorf("%w: empty flow ID", ErrBadFlow)
	}
	if len(f.Path) == 0 || len(f.Path) != len(f.Slots) {
		return fmt.Errorf("%w: flow %s has %d links, %d slot counts",
			ErrBadFlow, f.ID, len(f.Path), len(f.Slots))
	}
	if f.Class > ClassUGS {
		return fmt.Errorf("%w: flow %s has unknown class %d", ErrBadFlow, f.ID, f.Class)
	}
	for i, l := range f.Path {
		if l < 0 || int(l) >= numLinks {
			return fmt.Errorf("%w: flow %s link %d outside graph", ErrBadFlow, f.ID, l)
		}
		if f.Slots[i] <= 0 {
			return fmt.Errorf("%w: flow %s slot count %d on link %d",
				ErrBadFlow, f.ID, f.Slots[i], l)
		}
	}
	// A link may appear on the path more than once (a route crossing the
	// same contention domain twice); the tiers all see the FOLDED per-link
	// demand (see demand()). Folded demand beyond the frame can never be
	// served in any window, and unlike a single oversized entry — which the
	// structural cap screens per tier — the individual entries of a
	// duplicate-link flow can each look harmless, so the mismatch is
	// rejected here where the request is still a request.
	for i, l := range f.Path {
		seen := false
		for j := 0; j < i; j++ {
			if f.Path[j] == l {
				seen = true
				break
			}
		}
		if seen {
			continue
		}
		total := 0
		for j := i; j < len(f.Path); j++ {
			if f.Path[j] == l {
				total += f.Slots[j]
			}
		}
		if total > frameSlots {
			return fmt.Errorf("%w: flow %s folded demand %d on link %d exceeds the %d-slot frame",
				ErrBadFlow, f.ID, total, l, frameSlots)
		}
	}
	return nil
}

// Admit decides one admission request. Rejections return Admitted=false
// with a nil error; errors are reserved for malformed requests, solver
// resource exhaustion, and context cancellation (ctx.Err() once the
// in-flight solve has been interrupted and rolled back).
func (e *Engine) Admit(ctx context.Context, f Flow) (Decision, error) {
	start := time.Now()
	if err := f.validate(len(e.occ), e.cfg.Frame.DataSlots); err != nil {
		return Decision{}, err
	}
	defer e.unlock(e.lock(f.Path))
	return e.admitLocked(ctx, f, start)
}

// admitLocked decides one validated flow under its decision locks: the
// decision itself, the preemption retry loop for a rejected guaranteed-class
// arrival (Config.Preempt, serial engines only), then the shared tallies.
func (e *Engine) admitLocked(ctx context.Context, f Flow, start time.Time) (Decision, error) {
	dec, _, err := e.decide(ctx, []Flow{f})
	if err != nil {
		return Decision{}, err
	}
	if !dec.Admitted && e.cfg.Preempt && f.Class.Guaranteed() {
		// Only guaranteed-class arrivals ever enter the preemption search,
		// so a BE or nrtPS arrival can never evict anything.
		if dec, err = e.tryPreempt(ctx, f, dec); err != nil {
			return Decision{}, err
		}
	}
	return e.finish(start, 1, dec), nil
}

// AdmitBatch decides the flows as one joint admission where possible: the
// union of their demand deltas is checked, fastpathed or solved once, and
// every member inherits the joint verdict. Demands are monotone, so a joint
// admit proves each member individually admissible; any joint failure —
// duplicate ID, structural cap, infeasibility, budget miss, stitch conflict —
// falls back to deciding the flows individually in slice order, so batching
// never changes a verdict relative to sequential Admit calls. On an error the
// decisions made so far are returned with it; the remaining flows are
// undecided. The batch holds the decision locks of all its flows throughout.
func (e *Engine) AdmitBatch(ctx context.Context, flows []Flow) ([]Decision, error) {
	start := time.Now()
	if len(flows) == 0 {
		return nil, nil
	}
	ids := make(map[FlowID]bool, len(flows))
	var union []topology.LinkID
	for _, f := range flows {
		if err := f.validate(len(e.occ), e.cfg.Frame.DataSlots); err != nil {
			return nil, err
		}
		if ids[f.ID] {
			return nil, fmt.Errorf("%w: duplicate flow %s in batch", ErrBadFlow, f.ID)
		}
		ids[f.ID] = true
		union = append(union, f.Path...)
	}
	e.hBatch.Observe(float64(len(flows)))
	defer e.unlock(e.lock(union))
	out := make([]Decision, 0, len(flows))
	if len(flows) > 1 {
		dec, ok, err := e.decide(ctx, flows)
		if err != nil {
			return nil, err
		}
		if ok {
			d := e.finish(start, len(flows), dec)
			out = append(out, d)
			// Solver effort is attributed once, to the first member.
			d.Solved, d.Pivots = 0, 0
			for range flows[1:] {
				out = append(out, d)
			}
			return out, nil
		}
	}
	for _, f := range flows {
		d, err := e.admitLocked(ctx, f, time.Now())
		if err != nil {
			return out, err
		}
		out = append(out, d)
	}
	return out, nil
}

// finish books the shared tallies of a decision covering k flows — the
// admit/reject counts, the budget rejection when that is the final verdict,
// and the latency histogram — and returns the per-member decision, whose
// latency is the elapsed time amortized across the members (the solve ran
// once for all of them).
func (e *Engine) finish(start time.Time, k int, d Decision) Decision {
	d.Latency = time.Since(start) / time.Duration(k)
	e.stitchLock()
	defer e.stitchUnlock()
	for i := 0; i < k; i++ {
		if d.Admitted {
			e.stats.Admitted++
		} else {
			e.stats.Rejected++
			e.cReject.Inc()
		}
		e.hDecision.Observe(float64(d.Latency.Microseconds()))
	}
	if !d.Admitted && d.budget {
		e.stats.BudgetRejected++
		e.cBudget.Inc()
	}
	return d
}

// Release returns a flow's slots. The schedule shrinks in place (highest
// start blocks first); every CompactEvery releases the engine re-packs all
// blocks first-fit to reclaim fragmentation — the re-pack provably never
// grows the makespan. The flow is looked up before its decision locks are
// taken (a sharded engine must lock zones before e.mu) and looked up again
// under them, since a concurrent Release of the same ID may have won.
func (e *Engine) Release(id FlowID) error {
	e.mu.Lock()
	f, ok := e.flows[id]
	e.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownFlow, id)
	}
	defer e.unlock(e.lock(f.Path))
	e.stitchLock()
	defer e.stitchUnlock()
	if f, ok = e.flows[id]; !ok {
		return fmt.Errorf("%w: %s", ErrUnknownFlow, id)
	}
	return e.releaseLocked(f)
}

// releaseLocked returns f's slots and runs the periodic compaction. Called
// under f's decision locks with e.mu held.
func (e *Engine) releaseLocked(f Flow) error {
	if err := e.dropFlow(f); err != nil {
		return err
	}
	e.gen++
	e.stats.Releases++
	e.cRelease.Inc()
	e.releases++
	every := e.cfg.CompactEvery
	if every == 0 {
		every = defaultCompactEvery
	}
	if every > 0 && e.releases >= every {
		e.releases = 0
		if err := e.compact(); err != nil {
			return err
		}
	}
	return nil
}

// dropFlow removes f's slots and state. The zones of f's links lose their
// lower bounds: with less demand their minimum windows may have dropped.
// A preemption eviction is exactly this, without the release bookkeeping —
// no stats, no counters, no periodic compaction — because it is an internal
// move of one admission decision, and a rolled-back trial must leave the
// tallies untouched. Called under f's decision locks with e.mu held.
func (e *Engine) dropFlow(f Flow) error {
	for l, d := range f.demand() {
		if err := e.sched.TrimLink(l, d); err != nil {
			return err
		}
		if e.demand[l] -= d; e.demand[l] <= 0 {
			delete(e.demand, l)
		}
		e.zones[e.dec.ZoneOf(l)].lo = 0
	}
	delete(e.flows, f.ID)
	e.classAdd(f, -1)
	e.rebuildOcc()
	e.win = makespanOf(e.sched)
	return nil
}

// compact re-packs every block first-fit in ascending (start, length desc)
// order. Sorted re-insertion can only move a block to an earlier slot: all
// earlier-starting conflicting blocks end at or before this block's old
// start and are re-placed no later than they were, so the old position is
// always still free. Hence the makespan never grows. Called with e.mu held.
func (e *Engine) compact() error {
	start := time.Now()
	blocks := slices.Clone(e.sched.Assignments)
	slices.SortFunc(blocks, byStart)
	e.sched.Assignments = e.sched.Assignments[:0]
	e.sched.Invalidate()
	for i := range e.occ {
		e.occ[i] = e.occ[i][:0]
	}
	for _, b := range blocks {
		s := e.firstFit(b.Link, b.Length, e.maxWin, nil)
		if s < 0 || s > b.Start {
			return fmt.Errorf("admit: compaction moved link %d block from %d to %d", b.Link, b.Start, s)
		}
		if err := e.sched.Add(tdma.Assignment{Link: b.Link, Start: s, Length: b.Length}); err != nil {
			return err
		}
		e.occAdd(b.Link, s, s+b.Length)
	}
	e.win = makespanOf(e.sched)
	e.gen++
	e.stats.Compactions++
	e.cCompact.Inc()
	e.hCompact.Observe(float64(time.Since(start).Microseconds()))
	return nil
}

// Check verifies the engine's internal invariants: the schedule is
// conflict-free, carries exactly the aggregate demand, and the occupancy
// index and makespan mirror it. Test hook.
func (e *Engine) Check() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.sched.Validate(e.cfg.Graph); err != nil {
		return err
	}
	slots := make(map[topology.LinkID]int)
	for _, a := range e.sched.Assignments {
		slots[a.Link] += a.Length
	}
	for l, d := range e.demand {
		if slots[l] != d {
			return fmt.Errorf("admit: link %d carries %d slots, demand %d", l, slots[l], d)
		}
	}
	for l, n := range slots {
		if e.demand[l] != n {
			return fmt.Errorf("admit: link %d carries %d slots, demand %d", l, n, e.demand[l])
		}
	}
	if got := makespanOf(e.sched); got != e.win {
		return fmt.Errorf("admit: window %d, makespan %d", e.win, got)
	}
	if e.win > e.maxWin {
		return fmt.Errorf("admit: window %d beyond cap %d", e.win, e.maxWin)
	}
	occSlots := 0
	for _, ivs := range e.occ {
		for _, iv := range ivs {
			occSlots += iv[1] - iv[0]
		}
	}
	schedSlots := 0
	for _, a := range e.sched.Assignments {
		schedSlots += a.Length
	}
	if occSlots != schedSlots {
		return fmt.Errorf("admit: occupancy index holds %d slots, schedule %d", occSlots, schedSlots)
	}
	if e.classed() {
		// The class totals must mirror the flow table, and every link's
		// guaranteed prefixes must be covered by their deadlines.
		want := make(map[topology.LinkID][2]int)
		for _, f := range e.flows {
			var idx int
			switch f.Class {
			case ClassUGS:
				idx = 0
			case ClassRtPS:
				idx = 1
			default:
				continue
			}
			for i, l := range f.Path {
				v := want[l]
				v[idx] += f.Slots[i]
				want[l] = v
			}
		}
		for l, v := range want {
			if e.cls[l] != v {
				return fmt.Errorf("admit: link %d class totals %v, flows say %v", l, e.cls[l], v)
			}
		}
		for l, v := range e.cls {
			if want[l] != v {
				return fmt.Errorf("admit: link %d class totals %v, flows say %v", l, v, want[l])
			}
			if D1 := e.cfg.UGSDeadline; D1 > 0 && v[0] > 0 && e.covered(l, D1) < v[0] {
				return fmt.Errorf("admit: link %d covers %d slots by UGS deadline %d, needs %d",
					l, e.covered(l, D1), D1, v[0])
			}
			if D2 := e.cfg.RtPSWindow; D2 > 0 && v[1] > 0 && e.covered(l, D2) < v[0]+v[1] {
				return fmt.Errorf("admit: link %d covers %d slots by rtPS window %d, needs %d",
					l, e.covered(l, D2), D2, v[0]+v[1])
			}
		}
	}
	return nil
}

// tryFastpath attempts first-fit placement of the delta entirely within the
// current window. Returns the placements to commit, or nil when any link
// does not fit (the solver tiers take over). newCls, when non-nil, carries
// the prospective per-link class totals: each link's placement is then cut
// into up to three segments — slots that must end by the UGS deadline,
// by the rtPS window, and anywhere in the window — sized so the link's
// deadline coverage (see Check) holds after the commit. With newCls nil the
// placement degenerates to the single unconstrained segment and is
// byte-identical to the class-oblivious fastpath. Called with e.mu held.
func (e *Engine) tryFastpath(delta map[topology.LinkID]int, newCls map[topology.LinkID][2]int) []tdma.Assignment {
	if e.win == 0 {
		return nil
	}
	links := make([]topology.LinkID, 0, len(delta))
	for l := range delta {
		links = append(links, l)
	}
	slices.Sort(links)
	var pending []tdma.Assignment
	for _, l := range links {
		need := delta[l]
		n1, n2 := 0, 0
		lim1, lim2 := e.win, e.win
		if newCls != nil {
			v := newCls[l]
			if D1 := e.cfg.UGSDeadline; D1 > 0 && v[0] > 0 {
				if n1 = v[0] - e.covered(l, D1); n1 < 0 {
					n1 = 0
				}
				lim1 = min(lim1, D1)
			}
			if D2 := e.cfg.RtPSWindow; D2 > 0 && v[1] > 0 {
				if n2 = v[0] + v[1] - e.covered(l, D2); n2 < 0 {
					n2 = 0
				}
				lim2 = min(lim2, D2)
			}
			n2 = max(n2, n1)
			if n2 > need {
				// Coverage short by more than this delta adds: the live
				// invariant should make this impossible, but defer to the
				// solver rather than over-place.
				return nil
			}
		}
		for _, seg := range [3][2]int{{n1, lim1}, {n2 - n1, lim2}, {need - n2, e.win}} {
			n, lim := seg[0], seg[1]
			for n > 0 {
				s := e.firstFit(l, n, lim, pending)
				m := n
				if s < 0 {
					// No room for the full run; take the largest leading free
					// gap instead, splitting the demand across blocks.
					s, m = e.firstGap(l, lim, pending)
					if s < 0 {
						return nil
					}
					if m > n {
						m = n
					}
				}
				pending = append(pending, tdma.Assignment{Link: l, Start: s, Length: m})
				n -= m
			}
		}
	}
	return pending
}

// occAdd inserts [s,end) into link l's interval index, keeping start order.
func (e *Engine) occAdd(l topology.LinkID, s, end int) {
	ivs := e.occ[l]
	i, _ := slices.BinarySearchFunc(ivs, s, func(iv [2]int, s int) int { return iv[0] - s })
	e.occ[l] = slices.Insert(ivs, i, [2]int{s, end})
}

// rebuildOcc regenerates the interval index from the live schedule.
func (e *Engine) rebuildOcc() {
	for i := range e.occ {
		e.occ[i] = e.occ[i][:0]
	}
	for _, a := range e.sched.Assignments {
		e.occ[a.Link] = append(e.occ[a.Link], [2]int{a.Start, a.End()})
	}
	for i := range e.occ {
		slices.SortFunc(e.occ[i], func(a, b [2]int) int { return a[0] - b[0] })
	}
}

// blockers collects the intervals that constrain link l — its own and its
// conflict neighbors', plus pending placements — sorted by start.
func (e *Engine) blockers(l topology.LinkID, pending []tdma.Assignment) [][2]int {
	bs := e.scratch[:0]
	bs = append(bs, e.occ[l]...)
	e.cfg.Graph.VisitNeighbors(l, func(nb topology.LinkID) bool {
		bs = append(bs, e.occ[nb]...)
		return true
	})
	for _, p := range pending {
		if p.Link == l || e.cfg.Graph.Conflicts(p.Link, l) {
			bs = append(bs, [2]int{p.Start, p.End()})
		}
	}
	slices.SortFunc(bs, func(a, b [2]int) int { return a[0] - b[0] })
	e.scratch = bs
	return bs
}

// firstFit returns the earliest start for a length-d block of link l ending
// at or before limit, or -1. O(conflict degree × blocks).
func (e *Engine) firstFit(l topology.LinkID, d, limit int, pending []tdma.Assignment) int {
	cur := 0
	for _, b := range e.blockers(l, pending) {
		if b[0]-cur >= d {
			break
		}
		cur = max(cur, b[1])
		if cur+d > limit {
			return -1
		}
	}
	if cur+d > limit {
		return -1
	}
	return cur
}

// firstGap returns the earliest free gap for link l within limit as (start,
// length), or (-1, 0).
func (e *Engine) firstGap(l topology.LinkID, limit int, pending []tdma.Assignment) (int, int) {
	cur := 0
	for _, b := range e.blockers(l, pending) {
		if b[0] > cur {
			return cur, min(b[0], limit) - cur
		}
		cur = max(cur, b[1])
		if cur >= limit {
			return -1, 0
		}
	}
	if cur >= limit {
		return -1, 0
	}
	return cur, limit - cur
}

func makespanOf(s *tdma.Schedule) int {
	end := 0
	for _, a := range s.Assignments {
		if a.End() > end {
			end = a.End()
		}
	}
	return end
}

// byStart orders blocks for first-fit re-placement: ascending start, longer
// first on ties, then by link. Re-inserting a valid schedule in this order
// never moves a block later (see compact).
func byStart(a, b tdma.Assignment) int {
	if a.Start != b.Start {
		return a.Start - b.Start
	}
	if a.Length != b.Length {
		return b.Length - a.Length
	}
	return int(a.Link - b.Link)
}
