package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"time"

	"wimesh/internal/admit"
	"wimesh/internal/conflict"
	"wimesh/internal/tdma"
	"wimesh/internal/topology"
)

// City geometry shared by the serving and planning workloads: R18's
// constant-density random disk (130 m range, side scaled with sqrt(n)) on a
// 256-slot frame, with 260 m zones. The placement is R18-R21's seed-42 city
// whatever the run's seed: one random placement differs from the next in
// gateway degree and hop counts far more than the load on it varies from
// one call stream to another, and would make runs on different seeds
// incomparable.
const (
	cityRange      = 130.0
	cityZone       = 2 * cityRange
	cityFrameSlots = 256
	citySeed       = 42
)

func citySide(n int) float64 { return math.Round(2400 * math.Sqrt(float64(n)/1000)) }

// frame is the emulation frame of the experiments: 1.25 ms per data slot.
func frame(slots int) tdma.FrameConfig {
	return tdma.FrameConfig{FrameDuration: time.Duration(slots) * 1250 * time.Microsecond, DataSlots: slots}
}

// cityTopo builds the n-node random-disk city and its two-hop conflict
// graph.
func cityTopo(n int, spans *spanLog, parent int) (*topology.Network, *conflict.Graph, time.Duration, error) {
	id := spans.begin("topology.RandomDisk", "", parent)
	net, err := topology.RandomDisk(n, citySide(n), cityRange, citySeed)
	spans.end(id)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("city n=%d: %w", n, err)
	}
	id = spans.begin("conflict.Build", "", parent)
	start := time.Now()
	g, err := conflict.Build(net, conflict.Options{Model: conflict.ModelTwoHop})
	build := time.Since(start)
	spans.end(id)
	if err != nil {
		return nil, nil, 0, err
	}
	return net, g, build, nil
}

// callStream yields an endless serving workload: admit.Generate chunks of
// cfg.Calls calls, each from its own seed derived from the run's seed,
// laid end to end in virtual time. A chunk's departures that fall after
// the next chunk starts are merged into it, so the engine sees continuous
// churn, never a drain.
type callStream struct {
	cfg     admit.WorkloadConfig
	seed    int64
	k       int
	offset  time.Duration
	buf     []admit.Event
	pos     int
	pending []admit.Event
	// genTime is the wall time spent generating chunks, which replay
	// throughput excludes.
	genTime time.Duration
}

func newCallStream(cfg admit.WorkloadConfig) *callStream {
	return &callStream{cfg: cfg, seed: cfg.Seed}
}

// chunk generates chunk k as admit.Generate returns it.
func (s *callStream) chunk(k int) (*admit.Workload, error) {
	cfg := s.cfg
	cfg.Seed = s.seed + int64(k)*1_000_003
	return admit.Generate(cfg)
}

// next returns the next event in virtual-time order.
func (s *callStream) next() (admit.Event, error) {
	for s.pos >= len(s.buf) {
		if err := s.refill(); err != nil {
			return admit.Event{}, err
		}
	}
	s.pos++
	return s.buf[s.pos-1], nil
}

func (s *callStream) refill() error {
	start := time.Now()
	defer func() { s.genTime += time.Since(start) }()
	w, err := s.chunk(s.k)
	if err != nil {
		return err
	}
	prefix := fmt.Sprintf("k%d-", s.k)
	s.k++
	evs := make([]admit.Event, 0, len(w.Events)+len(s.pending))
	var last time.Duration
	for _, ev := range w.Events {
		ev.At += s.offset
		ev.Flow.ID = admit.FlowID(prefix + string(ev.Flow.ID))
		if ev.Arrive {
			last = ev.At
		}
		evs = append(evs, ev)
	}
	evs = append(evs, s.pending...)
	// Same order as admit.Generate: by time, departures first at a tie.
	slices.SortStableFunc(evs, func(a, b admit.Event) int {
		if a.At != b.At {
			if a.At < b.At {
				return -1
			}
			return 1
		}
		if a.Arrive != b.Arrive {
			if a.Arrive {
				return 1
			}
			return -1
		}
		return 0
	})
	cut := sort.Search(len(evs), func(i int) bool { return evs[i].At > last })
	s.buf, s.pending = evs[:cut], slices.Clone(evs[cut:])
	s.pos = 0
	s.offset = last
	return nil
}

// digest is a short SHA-256 over a canonical binary encoding.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) int(v int64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(v))
	d.h.Write(b[:])
}

func (d *digest) float(v float64) { d.int(int64(math.Float64bits(v))) }

func (d *digest) str(s string) {
	d.int(int64(len(s)))
	d.h.Write([]byte(s))
}

func (d *digest) sum() string { return hex.EncodeToString(d.h.Sum(nil))[:16] }

// topoDigest pins node placement, the gateway and the directed links.
func topoDigest(net *topology.Network) string {
	d := newDigest()
	for _, n := range net.Nodes() {
		d.int(int64(n.ID))
		d.float(n.X)
		d.float(n.Y)
		if n.Gateway {
			d.int(1)
		} else {
			d.int(0)
		}
	}
	for _, l := range net.Links() {
		d.int(int64(l.ID))
		d.int(int64(l.From))
		d.int(int64(l.To))
		d.float(l.RateBps)
	}
	return d.sum()
}

// workloadDigest pins one generated call chunk: every event's time, kind,
// ID, route, per-link slots and class.
func workloadDigest(w *admit.Workload) string {
	d := newDigest()
	for _, ev := range w.Events {
		d.int(int64(ev.At))
		d.str(string(ev.Flow.ID))
		if ev.Arrive {
			d.int(1)
		} else {
			d.int(0)
		}
		d.int(int64(ev.Flow.Class))
		for i, l := range ev.Flow.Path {
			d.int(int64(l))
			d.int(int64(ev.Flow.Slots[i]))
		}
		d.int(-1)
	}
	return d.sum()
}

// streamDigest pins a call stream by its first chunk.
func streamDigest(s *callStream) (string, error) {
	w, err := s.chunk(0)
	if err != nil {
		return "", err
	}
	return workloadDigest(w), nil
}

// offeredFlows is the planning workload's flow set: unit-demand flows
// between seed-derived random node pairs, admitted while every link's
// interference load (its demand plus the demand of every conflicting link)
// stays within the frame — R18's rule, which guarantees the stitched
// first-fit placement always finds room.
type offeredFlows struct {
	Offered, Admitted int
	Demand            map[topology.LinkID]int
	digest            string
}

func admitByLoad(net *topology.Network, g *conflict.Graph, offered, frameSlots int, seed int64) (*offeredFlows, error) {
	ids := make([]topology.NodeID, 0, net.NumNodes())
	for _, nd := range net.Nodes() {
		ids = append(ids, nd.ID)
	}
	rng := rand.New(rand.NewSource(seed))
	out := &offeredFlows{Offered: offered, Demand: make(map[topology.LinkID]int)}
	load := make([]int, g.NumVertices())
	delta := make(map[topology.LinkID]int)
	d := newDigest()
	for range offered {
		src := ids[rng.Intn(len(ids))]
		dst := ids[rng.Intn(len(ids))]
		if src == dst {
			continue
		}
		path, err := net.ShortestPath(src, dst)
		if err != nil {
			return nil, err
		}
		clear(delta)
		for _, l := range path {
			delta[l]++
			g.VisitNeighbors(l, func(nb topology.LinkID) bool {
				delta[nb]++
				return true
			})
		}
		fits := true
		for l, dl := range delta {
			if load[l]+dl > frameSlots {
				fits = false
				break
			}
		}
		if !fits {
			continue
		}
		for l, dl := range delta {
			load[l] += dl
		}
		for _, l := range path {
			out.Demand[l]++
			d.int(int64(l))
		}
		d.int(-1)
		out.Admitted++
	}
	out.digest = d.sum()
	return out, nil
}

// pins holds the recorded input digests and expected outputs per seed and
// workload (see pins.json). A seed with no entry runs unchecked, so a claim
// can be rechecked on a held-out seed.
//
//go:embed pins.json
var pinsJSON []byte

type pinSet map[string]string

func loadPins() (map[string]map[string]pinSet, error) {
	var p struct {
		Seeds map[string]map[string]pinSet `json:"seeds"`
	}
	if err := json.Unmarshal(pinsJSON, &p); err != nil {
		return nil, fmt.Errorf("pins.json: %w", err)
	}
	return p.Seeds, nil
}

// checkPins compares a run's input digests with the ones recorded for its
// seed and workload. It returns the mismatches and the recorded set, which
// is nil when the seed is not pinned.
func checkPins(workload string, seed int64, got pinSet) ([]string, pinSet, error) {
	all, err := loadPins()
	if err != nil {
		return nil, nil, err
	}
	want, ok := all[strconv.FormatInt(seed, 10)][workload]
	if !ok {
		return nil, nil, nil
	}
	var bad []string
	for k, v := range got {
		if want[k] != v {
			bad = append(bad, fmt.Sprintf("%s: got %s, pinned %q", k, v, want[k]))
		}
	}
	slices.Sort(bad)
	return bad, want, nil
}
