package gossip

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/sim"
	"repro/internal/stats"
)

// refGossip is the origin-sorted cache kernel that the eviction-ordered
// caches replaced, kept as the reference the equivalence tests pin the
// protocol to. Each cache[i] holds at most one record per origin in
// ascending origin order, node i's own record included; a push is one
// sorted merge of the sender's whole cache into a scratch buffer followed
// by the counting-pass eviction. The cache contents feed RPM pricing, so
// any divergence - even an equally stale victim - would shift downstream
// scheduling decisions.
type refGossip struct {
	cfg   Config
	cache [][]StateRecord
	buf   []StateRecord

	// Cycle-driving state: the same draws in the same order as the
	// protocol's serial cycle.
	local        LocalState
	rng          *rand.Rand
	sampleBuf    []int
	MessagesSent uint64
	BytesSent    uint64
}

func newRefGossip(cfg Config, local LocalState) *refGossip {
	return &refGossip{
		cfg:   cfg,
		cache: make([][]StateRecord, cfg.N),
		local: local,
		rng:   stats.NewRand(cfg.Seed, 0xC3),
	}
}

func (r *refGossip) expirySeconds() float64 { return r.cfg.ExpiryCycles * r.cfg.CycleSeconds }

// cycle is the serial cycle's cache and traffic work: the own-record
// merge, the fan-out pushes and the aggregation draw and count. The
// aggregation estimates themselves are not modelled.
func (r *refGossip) cycle(now float64) {
	for i := 0; i < r.cfg.N; i++ {
		s := r.local.Snapshot(i)
		if !s.Alive {
			continue
		}
		r.merge(i, StateRecord{
			Node: i, Capacity: s.Capacity, TotalLoadMI: s.TotalLoadMI,
			Timestamp: now, TTL: r.cfg.TTL,
		}, now)
		for _, t := range stats.SampleWithoutInto(r.rng, r.cfg.N, r.cfg.FanOut, i, r.sampleBuf) {
			if r.local.Snapshot(t).Alive {
				r.push(i, t, now)
			}
		}
		partner := stats.SampleWithoutInto(r.rng, r.cfg.N, 1, i, r.sampleBuf)
		if len(partner) == 1 && r.local.Snapshot(partner[0]).Alive {
			r.MessagesSent++
			r.BytesSent += 2 * MessageBytes
		}
	}
}

// push sends node from's whole cache (records with hops left) to node to:
// a sorted merge with freshness expiry folded in, then the capacity
// eviction.
func (r *refGossip) push(from, to int, now float64) {
	r.MessagesSent++
	src, dst := r.cache[from], r.cache[to]
	expiry := r.expirySeconds()
	out := r.buf[:0]
	si, di := 0, 0
	for si < len(src) || di < len(dst) {
		switch {
		case di == len(dst) || (si < len(src) && src[si].Node < dst[di].Node):
			rec := src[si]
			si++
			if rec.TTL <= 0 {
				continue
			}
			r.BytesSent += MessageBytes
			rec.TTL--
			if now-rec.Timestamp <= expiry {
				out = append(out, rec)
			}
		case si == len(src) || dst[di].Node < src[si].Node:
			rec := dst[di]
			di++
			if now-rec.Timestamp <= expiry {
				out = append(out, rec)
			}
		default:
			rec, old := src[si], dst[di]
			si++
			di++
			if rec.TTL > 0 {
				r.BytesSent += MessageBytes
				rec.TTL--
				if now-rec.Timestamp <= expiry && fresher(&rec, &old) {
					out = append(out, rec)
					continue
				}
			}
			if now-old.Timestamp <= expiry {
				out = append(out, old)
			}
		}
	}
	r.buf = out
	r.cache[to] = evictCounting(to, r.cfg.CacheCapacity, out, r.cache[to][:0])
}

// evictCounting appends the merged view out, minus its capacity victims,
// to dst. The stalest records go first (ties to the lowest origin, which
// ascending index order yields); the owner's record is always kept.
// Victims are the over smallest eligible records by (timestamp, index),
// found by a counting pass per distinct timestamp, stalest first: the
// timestamp at which the running count reaches over is the cut.
func evictCounting(to, capacity int, out, dst []StateRecord) []StateRecord {
	var cut float64
	take, below := 0, 0
	for over := len(out) - capacity; below < over; {
		next, count := 0.0, 0
		for i := range out {
			ts := out[i].Timestamp
			if out[i].Node == to || (below > 0 && ts <= cut) {
				continue
			}
			switch {
			case count == 0 || ts < next:
				next, count = ts, 1
			case ts == next:
				count++
			}
		}
		if count == 0 {
			break // fewer eligible records than over: all go
		}
		cut, take = next, min(count, over-below)
		below += count
	}
	for i := range out {
		if below > 0 && out[i].Node != to {
			switch ts := out[i].Timestamp; {
			case ts < cut:
				continue
			case ts == cut && take > 0:
				take--
				continue
			}
		}
		dst = append(dst, out[i])
	}
	return dst
}

// findOrigin locates origin in recs (sorted by Node): the matching index,
// or the insertion position with found == false.
func findOrigin(recs []StateRecord, origin int) (idx int, found bool) {
	idx, found = slices.BinarySearchFunc(recs, origin, func(r StateRecord, o int) int { return r.Node - o })
	return idx, found
}

// merge keeps the freshest record per origin, inserting in origin order.
func (r *refGossip) merge(at int, rec StateRecord, now float64) {
	if now-rec.Timestamp > r.expirySeconds() {
		return
	}
	i, ok := findOrigin(r.cache[at], rec.Node)
	if ok {
		if fresher(&rec, &r.cache[at][i]) {
			r.cache[at][i] = rec
		}
		return
	}
	r.cache[at] = slices.Insert(r.cache[at], i, rec)
}

// The readers, over the origin-sorted layout.

func (r *refGossip) appendRSS(node int, now float64, buf []StateRecord) []StateRecord {
	for _, rec := range r.cache[node] {
		if rec.Node != node && now-rec.Timestamp <= r.expirySeconds() {
			buf = append(buf, rec)
		}
	}
	return buf
}

func (r *refGossip) idleKnown(node int, now float64) int {
	n := 0
	for _, rec := range r.appendRSS(node, now, nil) {
		if rec.TotalLoadMI == 0 {
			n++
		}
	}
	return n
}

func (r *refGossip) meanRecordAge(node int, now float64) float64 {
	var sum float64
	rss := r.appendRSS(node, now, nil)
	for _, rec := range rss {
		sum += now - rec.Timestamp
	}
	if len(rss) == 0 {
		return 0
	}
	return sum / float64(len(rss))
}

func (r *refGossip) recordAge(viewer, origin int, now float64) (float64, bool) {
	i, ok := findOrigin(r.cache[viewer], origin)
	if !ok {
		return 0, false
	}
	age := now - r.cache[viewer][i].Timestamp
	if age > r.expirySeconds() {
		return 0, false
	}
	return age, true
}

func (r *refGossip) addLoadHint(scheduler, target int, deltaMI float64) {
	if i, ok := findOrigin(r.cache[scheduler], target); ok {
		r.cache[scheduler][i].TotalLoadMI += deltaMI
	}
}

func (r *refGossip) forgetNode(origin int) {
	for i := range r.cache {
		if j, ok := findOrigin(r.cache[i], origin); ok {
			r.cache[i] = slices.Delete(r.cache[i], j, j+1)
		}
	}
}

// canonical returns node's records in the reference layout: its own
// record and the others, in ascending origin order.
func canonical(p *Protocol, node int) []StateRecord {
	out := append([]StateRecord{}, p.cache[node]...)
	if p.hasOwn[node] {
		out = append(out, p.own[node])
	}
	slices.SortFunc(out, func(a, b StateRecord) int { return a.Node - b.Node })
	return out
}

// install loads a reference-layout view into node's records: the own
// record apart, the others in eviction order. A view that fits is copied
// into node's slot; a larger one (only ever read, as a sender's) gets its
// own slice.
func install(p *Protocol, node int, view []StateRecord) {
	var others []StateRecord
	p.hasOwn[node] = false
	for _, rec := range view {
		if rec.Node == node {
			p.own[node], p.hasOwn[node] = rec, true
		} else {
			others = append(others, rec)
		}
	}
	slices.SortFunc(others, func(a, b StateRecord) int {
		if ahead(&a, &b) {
			return -1
		}
		return 1
	})
	if len(others) <= cap(p.cache[node]) {
		p.cache[node] = append(p.cache[node][:0], others...)
	} else {
		p.cache[node] = others
	}
}

// checkLayout asserts the layout invariants of node's records: no record
// about node itself among the others, the others in strict eviction order
// and within the capacity.
func checkLayout(t testing.TB, p *Protocol, node int) {
	t.Helper()
	recs := p.cache[node]
	if len(recs) > p.cfg.CacheCapacity {
		t.Fatalf("node %d holds %d other records, capacity %d", node, len(recs), p.cfg.CacheCapacity)
	}
	for i, rec := range recs {
		if rec.Node == node {
			t.Fatalf("node %d lists its own record among the others", node)
		}
		if i > 0 && !ahead(&recs[i-1], &recs[i]) {
			t.Fatalf("node %d records %d and %d out of eviction order: %+v, %+v", node, i-1, i, recs[i-1], rec)
		}
	}
	if p.hasOwn[node] && p.own[node].Node != node {
		t.Fatalf("node %d own record is about node %d", node, p.own[node].Node)
	}
}

// checkReaders compares every reader's answer for viewer with the
// reference's, bit for bit; floats compare exactly.
func checkReaders(t testing.TB, label string, p *Protocol, r *refGossip, viewer int) {
	t.Helper()
	now := p.engine.Now()
	prefix := []StateRecord{{Node: -7}}
	got := p.AppendRSS(viewer, append([]StateRecord{}, prefix...))
	want := r.appendRSS(viewer, now, append([]StateRecord{}, prefix...))
	if !slices.Equal(got, want) {
		t.Fatalf("%s: AppendRSS(%d)\ngot  %+v\nwant %+v", label, viewer, got, want)
	}
	if got, want := p.RSSSize(viewer), len(want)-len(prefix); got != want {
		t.Fatalf("%s: RSSSize(%d) = %d, want %d", label, viewer, got, want)
	}
	if got, want := p.IdleKnown(viewer), r.idleKnown(viewer, now); got != want {
		t.Fatalf("%s: IdleKnown(%d) = %d, want %d", label, viewer, got, want)
	}
	if got, want := p.MeanRecordAge(viewer), r.meanRecordAge(viewer, now); got != want {
		t.Fatalf("%s: MeanRecordAge(%d) = %v, want %v", label, viewer, got, want)
	}
	for origin := -1; origin <= p.cfg.N; origin++ {
		gotAge, gotOK := p.RecordAge(viewer, origin)
		wantAge, wantOK := r.recordAge(viewer, origin, now)
		if gotAge != wantAge || gotOK != wantOK {
			t.Fatalf("%s: RecordAge(%d, %d) = (%v, %v), want (%v, %v)",
				label, viewer, origin, gotAge, gotOK, wantAge, wantOK)
		}
	}
}

// testClock is a Clock frozen at one instant, for driving the kernel
// without an engine.
type testClock struct{ now float64 }

func (c *testClock) Now() float64 { return c.now }

func (c *testClock) Every(float64, float64, sim.Event) *sim.Ticker { return nil }

// bareProtocol builds a protocol over n nodes whose caches hold capacity
// records - zero allowed, unlike New's defaulting - on a clock frozen at
// now, with the paper's cycle, TTL and expiry.
func bareProtocol(n, capacity int, now float64) *Protocol {
	p := &Protocol{
		cfg:    Config{N: n, CacheCapacity: capacity, CycleSeconds: 300, ExpiryCycles: 4, TTL: 4},
		engine: &testClock{now: now},
	}
	p.allocCaches()
	return p
}
