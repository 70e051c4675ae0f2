package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"sync"
	"time"
)

// samples is an unsorted list of measurements in one unit.
type samples []float64

// quantile returns the q-quantile by the nearest-rank rule (0 when empty).
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	c := slices.Clone(s)
	slices.Sort(c)
	i := int(math.Ceil(q*float64(len(c)))) - 1
	return c[min(max(i, 0), len(c)-1)]
}

func (s samples) median() float64 { return s.quantile(0.5) }

func (s samples) mean() float64 {
	if len(s) == 0 {
		return 0
	}
	t := 0.0
	for _, v := range s {
		t += v
	}
	return t / float64(len(s))
}

func (s samples) sum() float64 {
	t := 0.0
	for _, v := range s {
		t += v
	}
	return t
}

// tailQuantiles is the ladder per-layer tails pick from: the highest rung
// that leaves at least ten samples beyond it.
var tailQuantiles = []float64{0.999, 0.995, 0.99, 0.95, 0.9}

// tailOf returns the highest ladder quantile that has at least ten samples
// beyond it in a sample of n, or 0 when even p90 has fewer.
func tailOf(n int) float64 {
	for _, q := range tailQuantiles {
		if float64(n)*(1-q) >= 10 {
			return q
		}
	}
	return 0
}

// ratio returns a/b, or 0 when b is 0 (a layer the workload never touched).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// heapSampler tracks the Go heap in use while a run measures. It reads
// runtime/metrics, which does not stop the world, every few milliseconds
// and keeps the peak of each second; the run reports the median of those
// peaks, the heap a collection cycle climbs to, which one allocation burst
// does not set.
type heapSampler struct {
	stop  chan struct{}
	done  chan struct{}
	peaks samples
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	sample := []metrics.Sample{{Name: heapMetric}}
	var peak uint64
	read := func() {
		metrics.Read(sample)
		if sample[0].Value.Kind() == metrics.KindUint64 {
			peak = max(peak, sample[0].Value.Uint64())
		}
	}
	read()
	go func() {
		defer close(h.done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		window := time.Now()
		for {
			select {
			case <-h.stop:
				read()
				h.peaks = append(h.peaks, float64(peak)/(1<<20))
				return
			case <-t.C:
				read()
			}
			if time.Since(window) >= time.Second {
				h.peaks = append(h.peaks, float64(peak)/(1<<20))
				peak, window = 0, time.Now()
			}
		}
	}()
	return h
}

// finish stops the sampler, waits for it and returns the median of its
// per-second peaks in MB.
func (h *heapSampler) finish() float64 {
	close(h.stop)
	<-h.done
	return h.peaks.median()
}

// timeSetup runs build reps times from a collected heap and returns the last
// result with the median wall time, so one slow set-up does not set the
// figure.
func timeSetup[T any](reps int, build func() (T, error)) (T, float64, error) {
	var out T
	var walls samples
	for range reps {
		runtime.GC()
		start := time.Now()
		v, err := build()
		if err != nil {
			return out, 0, err
		}
		walls = append(walls, time.Since(start).Seconds())
		out = v
	}
	return out, walls.median(), nil
}

// spanLog records spans around the benchmark's calls into the program: a
// name, start, end, parent and the flow (or mesh) the call served. A nil
// log records nothing, so untraced runs pay one nil check per call.
type spanLog struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Flow   string  `json:"flow,omitempty"`
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// begin opens a span and returns its ID (0 on a nil log, which is also the
// parent ID of root spans).
func (l *spanLog) begin(name, flow string, parent int) int {
	if l == nil {
		return 0
	}
	now := us(time.Since(l.t0))
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{ID: len(l.spans) + 1, Parent: parent, Name: name, Flow: flow, Start: now, End: -1})
	return len(l.spans)
}

// end closes the span begin returned.
func (l *spanLog) end(id int) {
	if l == nil || id == 0 {
		return
	}
	now := us(time.Since(l.t0))
	l.mu.Lock()
	l.spans[id-1].End = now
	l.mu.Unlock()
}

// spanTotals aggregates the spans of one name.
type spanTotals struct {
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

// selfTimes returns, per span name, the count, the total duration and the
// self time: each span's duration minus the part of it its children cover.
func (l *spanLog) selfTimes() map[string]spanTotals {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	children := make(map[int][][2]float64)
	for _, s := range l.spans {
		if s.Parent != 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]float64{s.Start, s.End})
		}
	}
	out := make(map[string]spanTotals)
	for _, s := range l.spans {
		if s.End < 0 {
			continue
		}
		dur := s.End - s.Start
		t := out[s.Name]
		t.Count++
		t.TotalMS += dur / 1000
		t.SelfMS += (dur - covered(children[s.ID], s.Start, s.End)) / 1000
		out[s.Name] = t
	}
	return out
}

// covered returns the length of the union of the intervals, clipped to
// [lo, hi].
func covered(iv [][2]float64, lo, hi float64) float64 {
	if len(iv) == 0 {
		return 0
	}
	slices.SortFunc(iv, func(a, b [2]float64) int {
		switch {
		case a[0] < b[0]:
			return -1
		case a[0] > b[0]:
			return 1
		}
		return 0
	})
	total, curLo, curHi, open := 0.0, 0.0, 0.0, false
	for _, v := range iv {
		a, b := max(v[0], lo), min(v[1], hi)
		if b <= a {
			continue
		}
		if !open || a > curHi {
			if open {
				total += curHi - curLo
			}
			curLo, curHi, open = a, b, true
			continue
		}
		curHi = max(curHi, b)
	}
	if open {
		total += curHi - curLo
	}
	return total
}
