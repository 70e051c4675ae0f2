package core

import (
	"context"
	"fmt"
	"math"

	"wimesh/internal/admit"
	"wimesh/internal/mac/tdmaemu"
	"wimesh/internal/milp"
	"wimesh/internal/obs"
	"wimesh/internal/topology"
	"wimesh/internal/voip"
)

// SessionConfig customizes NewSession. The zero value serves the full frame
// with the planner's default solver limits.
type SessionConfig struct {
	// MaxWindow caps the serving schedule's makespan in slots (0 = the
	// frame's data slots). Calls that cannot fit are rejected.
	MaxWindow int
	// MILP bounds the admission solves; the zero value means
	// DefaultMILPOptions.
	MILP milp.Options
	// BudgetRejects passes through to admit.Config: a solve that exhausts
	// its budget falls back to a single feasibility probe at the window cap
	// and, failing that too, rejects conservatively instead of erroring.
	// Serving deployments want this on; it trades exactness for bounded
	// decision latency.
	BudgetRejects bool
	// Zoned cuts the engine's links into zones of the system's ZoneSize,
	// each with its own model: city-scale mode, conservative verdicts. Off,
	// the engine is the single-zone case, whose verdicts match a cold Plan.
	Zoned bool
	// Sharded passes through to admit.Config: the per-zone lock policy, so
	// admissions in disjoint zones solve concurrently. Requires Zoned.
	Sharded bool
	// CompactEvery passes through to admit.Config.
	CompactEvery int
	// UGSDeadline and RtPSWindow pass through to admit.Config: per-link
	// slot deadlines for the guaranteed service classes (0 = unconstrained;
	// zero deadlines make classes purely informational, so tagged calls
	// decide exactly like untagged ones).
	UGSDeadline int
	RtPSWindow  int
	// Preempt passes through to admit.Config: a guaranteed-class call that
	// would otherwise be rejected may evict best-effort and nrtPS flows.
	Preempt bool
	// Registry receives the engine's admit.* metrics (nil disables them).
	Registry *obs.Registry
}

// Session is the serving-path counterpart of Plan: a long-lived admission
// engine over the system's conflict graph and frame, admitting and releasing
// one call at a time through incremental schedule repair instead of
// re-planning the whole mesh. Decisions agree with a cold Plan over the same
// aggregate demand (see internal/admit).
type Session struct {
	sys *System
	eng *admit.Engine
}

// NewSession starts an empty serving session.
func (s *System) NewSession(cfg SessionConfig) (*Session, error) {
	opts := cfg.MILP
	if opts == (milp.Options{}) {
		opts = DefaultMILPOptions()
	}
	eng, err := admit.New(admit.Config{
		Graph:         s.Graph,
		Frame:         s.Frame,
		MaxWindow:     cfg.MaxWindow,
		MILP:          opts,
		BudgetRejects: cfg.BudgetRejects,
		Zoned:         cfg.Zoned,
		Sharded:       cfg.Sharded,
		ZoneSize:      s.ZoneSize,
		CompactEvery:  cfg.CompactEvery,
		UGSDeadline:   cfg.UGSDeadline,
		RtPSWindow:    cfg.RtPSWindow,
		Preempt:       cfg.Preempt,
		Registry:      cfg.Registry,
	})
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return &Session{sys: s, eng: eng}, nil
}

// Engine exposes the underlying admission engine (for workload replay via
// admit.Serve and for metrics snapshots).
func (s *Session) Engine() *admit.Engine { return s.eng }

// Window returns the current schedule makespan in slots.
func (s *Session) Window() int { return s.eng.Window() }

// NumCalls returns the number of calls currently admitted.
func (s *Session) NumCalls() int { return s.eng.NumFlows() }

// Stats returns cumulative serving counters.
func (s *Session) Stats() admit.Stats { return s.eng.Stats() }

// CallSlots computes the per-hop slot demand of one codec call along path —
// the identical adaptive-rate conversion Plan applies to a flow set: each
// link's PHY rate sets its bytes-per-slot capacity, and the codec's on-wire
// bandwidth (payload + RTP/UDP/IP) is rounded up to whole slots per frame.
func (s *System) CallSlots(path topology.Path, codec voip.Codec) ([]int, error) {
	if err := codec.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return s.ServiceSlots(path, codec.Service())
}

// ServiceSlots computes the per-hop slot demand of one constant-rate service
// flow along path, with the same adaptive-rate conversion as CallSlots: each
// link's PHY rate sets its bytes-per-slot capacity for the service's packet
// size, and the service bandwidth is rounded up to whole slots per frame.
func (s *System) ServiceSlots(path topology.Path, svc voip.Service) ([]int, error) {
	if err := svc.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	mac := s.MAC.Defaulted()
	slots := make([]int, len(path))
	for i, l := range path {
		lk, err := s.Topo.Link(l)
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		rate := mac.DataRateBps
		if lk.RateBps > 0 && mac.PHY.SupportsRate(lk.RateBps) {
			rate = lk.RateBps
		}
		b, err := tdmaemu.BytesPerSlotAtRate(mac, s.Frame, svc.PacketBytes, rate)
		if err != nil {
			return nil, err
		}
		if b <= 0 {
			return nil, fmt.Errorf("core: a %v slot at %g b/s cannot carry a %d-byte packet (link %d)",
				s.Frame.SlotDuration(), rate, svc.PacketBytes, l)
		}
		d := int(math.Ceil(svc.BitrateBps * s.Frame.FrameDuration.Seconds() / float64(8*b)))
		if d < 1 {
			d = 1
		}
		slots[i] = d
	}
	return slots, nil
}

// AdmitCall routes one codec call over the minimum-hop path and asks the
// engine to admit it. A nil error with Decision.Admitted == false is a
// capacity rejection, not a failure; the path is returned either way. ctx
// cancellation interrupts an in-flight solve and rolls the schedule back.
func (s *Session) AdmitCall(ctx context.Context, id admit.FlowID, src, dst topology.NodeID, codec voip.Codec) (admit.Decision, topology.Path, error) {
	path, err := s.sys.Topo.ShortestPath(src, dst)
	if err != nil {
		return admit.Decision{}, nil, fmt.Errorf("core: route %d->%d: %w", src, dst, err)
	}
	slots, err := s.sys.CallSlots(path, codec)
	if err != nil {
		return admit.Decision{}, path, err
	}
	// Voice is the UGS service: without a configured UGSDeadline the tag is
	// purely informational and the decision matches an untagged engine's.
	dec, err := s.eng.Admit(ctx, admit.Flow{ID: id, Path: path, Slots: slots, Class: admit.ClassUGS})
	return dec, path, err
}

// AdmitService routes one constant-rate service flow over the minimum-hop
// path and asks the engine to admit it under the given service class — the
// generalization of AdmitCall to video (rtPS), bulk data (nrtPS) and
// best-effort traffic. A nil error with Decision.Admitted == false is a
// capacity rejection; with preemption configured, Decision.Preempted lists
// any flows evicted to make room.
func (s *Session) AdmitService(ctx context.Context, id admit.FlowID, src, dst topology.NodeID, svc voip.Service, class admit.Class) (admit.Decision, topology.Path, error) {
	path, err := s.sys.Topo.ShortestPath(src, dst)
	if err != nil {
		return admit.Decision{}, nil, fmt.Errorf("core: route %d->%d: %w", src, dst, err)
	}
	slots, err := s.sys.ServiceSlots(path, svc)
	if err != nil {
		return admit.Decision{}, path, err
	}
	dec, err := s.eng.Admit(ctx, admit.Flow{ID: id, Path: path, Slots: slots, Class: class})
	return dec, path, err
}

// ReleaseCall removes a previously admitted call and reclaims its slots.
func (s *Session) ReleaseCall(id admit.FlowID) error { return s.eng.Release(id) }
