package core

import (
	"errors"
	"fmt"
	"time"

	"wimesh/internal/obs"
	"wimesh/internal/topology"
	"wimesh/internal/voip"
)

// SearchStrategy selects how the capacity search probes call counts.
type SearchStrategy int

const (
	// SearchGalloping (the default) brackets the capacity with an
	// exponential gallop followed by a binary search of the failing
	// bracket, aborting provably failing probe runs early. Under a
	// pass/fail verdict monotone in the call count it returns exactly what
	// SearchLinear returns while probing O(log n) candidates; the
	// differential suite pins that equality on every R3/R17 scenario.
	SearchGalloping SearchStrategy = iota
	// SearchLinear is the preserved reference scan: k = 1, 2, 3, ... with
	// full-length sequential runs and no early abort.
	SearchLinear
)

// CapacityConfig parameterizes the call-capacity search of experiment R3:
// calls are added one at a time until the network can no longer serve all of
// them at toll quality.
type CapacityConfig struct {
	// MaxCalls caps the search (default 60).
	MaxCalls int
	// Method is the TDMA planner (default MethodPathMajor; MethodILP is
	// exact but slow beyond small meshes).
	Method PlanMethod
	// Run configures each simulation run.
	Run RunConfig
	// DelayBound is each call's end-to-end delay budget (default 150 ms).
	DelayBound time.Duration
	// Downlink adds a gateway->node flow per call in addition to the
	// node->gateway uplink (a full duplex call).
	Downlink bool
	// Search selects the probe strategy (default SearchGalloping).
	Search SearchStrategy
	// Screen selects the screening predictor of the galloping search
	// (default ScreenAuto: the closed-form analytic model). The screen
	// only brackets the capacity; full-length simulation always confirms
	// the C/C+1 edge, so every mode returns identical results. Ignored by
	// SearchLinear.
	Screen ScreenMode
	// Workers caps concurrent speculative probes (default 1: sequential).
	// Probe outcomes are pure functions of the call count, so any worker
	// count yields identical results. Ignored by SearchLinear.
	Workers int
}

func (c *CapacityConfig) applyDefaults() {
	if c.MaxCalls == 0 {
		c.MaxCalls = 60
	}
	if c.Method == 0 {
		c.Method = MethodPathMajor
	}
	if c.DelayBound == 0 {
		c.DelayBound = 150 * time.Millisecond
	}
	if c.Workers < 1 {
		c.Workers = 1
	}
	c.Run.applyDefaults()
}

// StopReason reports what ended a capacity search.
type StopReason string

// Stop reasons.
const (
	// StopSchedule: no feasible schedule for one more call.
	StopSchedule StopReason = "schedule-infeasible"
	// StopQuality: one more call pushed a flow below toll quality.
	StopQuality StopReason = "quality"
	// StopMaxCalls: the search cap was reached while still acceptable.
	StopMaxCalls StopReason = "max-calls"
)

// CapacityResult is the outcome of a capacity search.
type CapacityResult struct {
	// Calls is the largest number of calls served at toll quality.
	Calls int
	// StoppedBy explains the limit.
	StoppedBy StopReason
	// LastGood is the run result at Calls (nil when Calls is 0).
	LastGood *RunResult
}

// callSequence builds the round-robin gateway call pattern incrementally:
// growing from n to n+1 calls appends flows to one canonical set instead of
// rebuilding it, and per-caller shortest paths are resolved once and shared
// by every call count. Views handed to probes are capacity-capped slices of
// the canonical set, so later extensions never leak into a view and
// concurrent probes can read their views race-free.
type callSequence struct {
	topo      *topology.Network
	gw        topology.NodeID
	callers   []topology.NodeID
	rate      float64
	bound     time.Duration
	downlink  bool
	fs        *topology.FlowSet
	calls     int
	upPaths   []topology.Path
	downPaths []topology.Path
}

func newCallSequence(topo *topology.Network, codec voip.Codec, bound time.Duration, downlink bool) (*callSequence, error) {
	gw, ok := topo.Gateway()
	if !ok {
		return nil, errors.New("core: topology has no gateway")
	}
	var callers []topology.NodeID
	for _, nd := range topo.Nodes() {
		if nd.ID != gw {
			callers = append(callers, nd.ID)
		}
	}
	if len(callers) == 0 {
		return nil, errors.New("core: no non-gateway nodes")
	}
	return &callSequence{
		topo:      topo,
		gw:        gw,
		callers:   callers,
		rate:      codec.BandwidthBps(),
		bound:     bound,
		downlink:  downlink,
		fs:        topology.NewFlowSet(topo),
		upPaths:   make([]topology.Path, len(callers)),
		downPaths: make([]topology.Path, len(callers)),
	}, nil
}

func (cs *callSequence) pathTo(caller topology.NodeID, ci int, down bool) (topology.Path, error) {
	cache := cs.upPaths
	src, dst := caller, cs.gw
	if down {
		cache = cs.downPaths
		src, dst = cs.gw, caller
	}
	if cache[ci] == nil {
		p, err := cs.topo.ShortestPath(src, dst)
		if err != nil {
			return nil, fmt.Errorf("add flow %d->%d: %w", src, dst, err)
		}
		cache[ci] = p
	}
	return cache[ci], nil
}

// extend materializes calls up to n (no-op when already there).
func (cs *callSequence) extend(n int) error {
	for ; cs.calls < n; cs.calls++ {
		i := cs.calls
		ci := i % len(cs.callers)
		caller := cs.callers[ci]
		up, err := cs.pathTo(caller, ci, false)
		if err != nil {
			return fmt.Errorf("core: call %d: %w", i, err)
		}
		if _, err := cs.fs.AddOnPath(caller, cs.gw, cs.rate, cs.bound, up); err != nil {
			return fmt.Errorf("core: call %d: %w", i, err)
		}
		if cs.downlink {
			down, err := cs.pathTo(caller, ci, true)
			if err != nil {
				return fmt.Errorf("core: call %d downlink: %w", i, err)
			}
			if _, err := cs.fs.AddOnPath(cs.gw, caller, cs.rate, cs.bound, down); err != nil {
				return fmt.Errorf("core: call %d downlink: %w", i, err)
			}
		}
	}
	return nil
}

// view returns the n-call flow set as an immutable capacity-capped slice of
// the canonical set.
func (cs *callSequence) view(n int) *topology.FlowSet {
	k := n
	if cs.downlink {
		k = 2 * n
	}
	return &topology.FlowSet{Net: cs.fs.Net, Flows: cs.fs.Flows[:k:k]}
}

// GatewayCalls builds a flow set of n VoIP calls between distinct
// non-gateway nodes and the gateway (uplink; plus downlink when downlink is
// set), assigning callers round-robin over nodes sorted by ID.
func GatewayCalls(topo *topology.Network, n int, codec voip.Codec, bound time.Duration, downlink bool) (*topology.FlowSet, error) {
	seq, err := newCallSequence(topo, codec, bound, downlink)
	if err != nil {
		return nil, err
	}
	if err := seq.extend(n); err != nil {
		return nil, err
	}
	return seq.view(n), nil
}

// VoIPCapacityTDMA finds the TDMA-emulation call capacity: the largest
// number of gateway calls that can be scheduled and served at toll quality.
func (s *System) VoIPCapacityTDMA(cfg CapacityConfig) (*CapacityResult, error) {
	cfg.applyDefaults()
	return s.capacitySearch(cfg, true)
}

// VoIPCapacityDCF finds the DCF baseline call capacity under the same call
// pattern (no admission control: calls degrade until quality breaks).
func (s *System) VoIPCapacityDCF(cfg CapacityConfig) (*CapacityResult, error) {
	cfg.applyDefaults()
	return s.capacitySearch(cfg, false)
}

func (s *System) capacitySearch(cfg CapacityConfig, tdma bool) (*CapacityResult, error) {
	if cfg.MaxCalls < 1 {
		return &CapacityResult{StoppedBy: StopMaxCalls}, nil
	}
	seq, err := newCallSequence(s.Topo, cfg.Run.Codec, cfg.DelayBound, cfg.Downlink)
	if err != nil {
		return nil, err
	}
	probeRun := cfg.Run
	probeRun.AbortOnProvableFailure = cfg.Search != SearchLinear
	prepare := func(k int) (*topology.FlowSet, error) {
		if err := seq.extend(k); err != nil {
			return nil, err
		}
		return seq.view(k), nil
	}
	mkProbe := func(rc RunConfig) func(int, *topology.FlowSet) (probeOutcome, error) {
		return func(k int, fs *topology.FlowSet) (probeOutcome, error) {
			if tdma {
				plan, planErr := s.PlanVoIP(fs, cfg.Method, rc.Codec)
				if planErr != nil {
					return probeOutcome{stop: StopSchedule}, nil
				}
				run, runErr := s.RunTDMA(plan, fs, rc)
				if runErr != nil {
					return probeOutcome{}, runErr
				}
				return outcomeOf(run), nil
			}
			run, runErr := s.RunDCF(fs, rc)
			if runErr != nil {
				return probeOutcome{}, runErr
			}
			return outcomeOf(run), nil
		}
	}
	workers := cfg.Workers
	if cfg.Search == SearchLinear {
		workers = 1
	}
	reg := obs.Or(cfg.Run.Metrics)
	tr := obs.OrTrace(cfg.Run.Trace)
	p := newProber(mkProbe(probeRun), prepare, workers)
	p.instrument("full", reg, tr)
	defer p.drain()
	if cfg.Search == SearchLinear {
		return linearScan(p, cfg.MaxCalls)
	}
	switch cfg.Screen {
	case ScreenNone:
		return gallopSearch(p, cfg.MaxCalls)
	default: // ScreenAuto, ScreenAnalytic
		// The closed-form screen costs microseconds per probe, so it pays
		// off at every run duration; the verified bracket edge (one full
		// passing run at C, one failing at C+1) is the only simulation the
		// search needs when the prediction holds.
		ap, err := s.analyticProber(cfg, tdma, prepare)
		if err != nil {
			return nil, err
		}
		ap.instrument("analytic", reg, tr)
		ap.instrumentScreen(reg)
		return screenedSearch(p, ap, cfg.MaxCalls)
	}
}

func outcomeOf(run *RunResult) probeOutcome {
	if !run.AllAcceptable {
		return probeOutcome{stop: StopQuality}
	}
	return probeOutcome{pass: true, run: run}
}
