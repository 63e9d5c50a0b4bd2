package gossip

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/sim"
	"repro/internal/stats"
)

// deliverCase is one push turn: a sender's view and the views of the
// receivers it pushes to in order, all in the reference layout (ascending
// origin, each node's own record included).
type deliverCase struct {
	nodes, capacity int
	now             float64
	from            int
	send            []StateRecord
	to              []int
	recv            [][]StateRecord
}

// runDeliverCase composes the sender's message once, pushes it to every
// receiver in order, and after each push compares the receiver's records
// (own record and others, in origin order), the traffic counters and
// every reader's answer with the origin-sorted reference kernel's.
func runDeliverCase(t testing.TB, label string, c deliverCase) {
	t.Helper()
	p := bareProtocol(c.nodes, c.capacity, c.now)
	r := newRefGossip(p.cfg, nil)
	install(p, c.from, c.send)
	r.cache[c.from] = append([]StateRecord{}, c.send...)
	for k, to := range c.to {
		install(p, to, c.recv[k])
		r.cache[to] = append([]StateRecord{}, c.recv[k]...)
	}
	p.compose(p.send, c.from, c.now)
	for _, to := range c.to {
		p.push(p.send, to, c.now)
		r.push(c.from, to, c.now)
		checkLayout(t, p, to)
		if got, want := canonical(p, to), append([]StateRecord{}, r.cache[to]...); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: push %d -> %d (cap %d, now %v)\nsend %+v\ngot  %+v\nwant %+v",
				label, c.from, to, c.capacity, c.now, c.send, got, want)
		}
		if p.MessagesSent != r.MessagesSent || p.BytesSent != r.BytesSent {
			t.Fatalf("%s: traffic (%d msgs, %d bytes), reference (%d, %d)",
				label, p.MessagesSent, p.BytesSent, r.MessagesSent, r.BytesSent)
		}
		checkReaders(t, label, p, r, to)
	}
	checkReaders(t, label, p, r, c.from)
	p.send.reset()
	for origin, k := range p.send.pos {
		if k != 0 {
			t.Fatalf("%s: pos[%d] = %d after reset", label, origin, k)
		}
	}
}

// TestDeliverMatchesReference pins the eviction-ordered push to the
// origin-sorted reference over random sender and receiver views: stamps at
// cycle instants, fine-grained or all equal (at the expiry boundary);
// TTL 0-4 and expired records on both sides; a receiver own record that is
// present, absent or expired, and the receiver's own origin arriving in
// the message; copies with equal (timestamp, origin) that differ only in
// TTL; capacity 1-12; one message delivered to up to three receivers.
func TestDeliverMatchesReference(t *testing.T) {
	const nodes, now = 32, 1800.0 // expiry is 1200 s: stamps before 600 are stale
	shapes := []struct {
		name  string
		stamp func(rng *rand.Rand) float64
	}{
		{"cycle-instants", func(rng *rand.Rand) float64 { return 300 * float64(rng.Intn(7)) }},
		{"fine-grained", func(rng *rand.Rand) float64 { return rng.Float64() * now }},
		{"all-equal", func(*rand.Rand) float64 { return 600 }},
	}
	rng := rand.New(rand.NewSource(7))
	for _, shape := range shapes {
		for trial := 0; trial < 3000; trial++ {
			c := randomDeliverCase(rng, nodes, now, shape.stamp)
			runDeliverCase(t, fmt.Sprintf("%s trial %d", shape.name, trial), c)
		}
	}
}

// randomDeliverCase draws one push turn over nodes origins.
func randomDeliverCase(rng *rand.Rand, nodes int, now float64, stamp func(*rand.Rand) float64) deliverCase {
	c := deliverCase{nodes: nodes, capacity: 1 + rng.Intn(12), now: now, from: rng.Intn(nodes)}
	record := func(origin int) StateRecord {
		return StateRecord{
			Node: origin, Timestamp: stamp(rng), TTL: rng.Intn(5),
			Capacity: float64(1 + rng.Intn(16)), TotalLoadMI: float64(rng.Intn(3)),
		}
	}
	// view draws up to capacity records about other origins, in origin
	// order, plus node's own record by ownMode: 0 absent, 1 fresh, 2
	// expired. Records about origins in like copy like's stamp half the
	// time, with a TTL within one of the forwarded copy's.
	view := func(node, ownMode int, like []StateRecord) []StateRecord {
		var out []StateRecord
		budget := rng.Intn(c.capacity + 1)
		for origin := 0; origin < nodes; origin++ {
			switch {
			case origin == node:
				switch ownMode {
				case 1:
					out = append(out, StateRecord{Node: node, Timestamp: now, TTL: rng.Intn(5), TotalLoadMI: 1})
				case 2:
					out = append(out, StateRecord{Node: node, Timestamp: now - 1500, TTL: 4})
				}
			case budget > 0 && rng.Intn(nodes) < 2*c.capacity:
				budget--
				rec := record(origin)
				if j, ok := findOrigin(like, origin); ok && rng.Intn(2) == 0 {
					rec.Timestamp = like[j].Timestamp
					rec.TTL = max(0, min(4, like[j].TTL-1+rng.Intn(3)-1))
				}
				out = append(out, rec)
			}
		}
		return out
	}
	c.send = view(c.from, rng.Intn(3), nil)
	for _, to := range rng.Perm(nodes)[:1+rng.Intn(3)] {
		if to == c.from {
			continue
		}
		own := rng.Intn(3)
		recv := view(to, own, c.send)
		// The receiver's own origin in the message, at times as fresh as
		// the receiver's own record.
		if j, ok := findOrigin(recv, to); ok && own == 1 && rng.Intn(3) == 0 {
			if k, found := findOrigin(c.send, to); !found && others(c.send, c.from) < c.capacity {
				rec := recv[j]
				rec.TTL = rng.Intn(5)
				c.send = slices.Insert(c.send, k, rec)
			}
		}
		c.to = append(c.to, to)
		c.recv = append(c.recv, recv)
	}
	return c
}

// FuzzGossipMerge decodes bytes into a push turn - two views, the
// receiver, the capacity and the clock - and checks the push against the
// origin-sorted reference: it must never panic and must match exactly.
func FuzzGossipMerge(f *testing.F) {
	f.Add([]byte{5, 1, 2, 3, 0x03, 0x20, 4, 0x85, 0x20, 3, 0x02, 0x91, 2})
	f.Add([]byte{0, 7, 7, 0, 0x07, 0x00, 1, 0x87, 0x00, 2, 0x87, 0x10, 1})
	f.Add([]byte{11, 0, 9, 7, 0x09, 0xff, 4, 0x80, 0xff, 3, 0x09, 0x70, 0, 0x89, 0x70, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		runDeliverCase(t, "fuzz", decodeDeliverCase(data))
	})
}

// decodeDeliverCase reads a header (capacity, sender, receiver, clock)
// and then three bytes per record: side bit and origin, stamp, and TTL
// with load. A stamp byte under 0x80 is a cycle instant, otherwise a
// fine-grained time. Duplicate origins and records beyond the capacity
// are skipped, so both views are ones the protocol can hold.
func decodeDeliverCase(data []byte) deliverCase {
	const nodes = 16
	at := func(i int) byte {
		if i < len(data) {
			return data[i]
		}
		return 0
	}
	c := deliverCase{
		nodes:    nodes,
		capacity: 1 + int(at(0)%12),
		from:     int(at(1) % nodes),
		now:      1200 + 300*float64(at(3)%8),
	}
	to := int(at(2) % nodes)
	if to == c.from {
		to = (to + 1) % nodes
	}
	var views [2][]StateRecord
	owners := [2]int{c.from, to}
	for i := 4; i+2 < len(data); i += 3 {
		side, origin := int(data[i]>>7), int(data[i]%nodes)
		var ts float64
		if s := data[i+1]; s < 0x80 {
			ts = 300 * float64(s>>4)
		} else {
			ts = 17.25 * float64(s&0x7f)
		}
		rec := StateRecord{Node: origin, Timestamp: ts, TTL: int(data[i+2] % 5), TotalLoadMI: float64(data[i+2] >> 5)}
		k, dup := findOrigin(views[side], origin)
		if dup || (origin != owners[side] && others(views[side], owners[side]) >= c.capacity) {
			continue
		}
		views[side] = slices.Insert(views[side], k, rec)
	}
	c.send, c.to, c.recv = views[0], []int{to}, [][]StateRecord{views[1]}
	return c
}

// others counts the records in a reference-layout view of node that are
// about other origins.
func others(view []StateRecord, node int) int {
	if _, ok := findOrigin(view, node); ok {
		return len(view) - 1
	}
	return len(view)
}

// lockstep drives a protocol with the given worker count and the
// origin-sorted reference through the same churning cycles. Between
// cycles a seeded walk flips nodes alive or dead and redraws loads, a
// third of them idle.
type lockstep struct {
	engine *sim.Engine
	grid   *fakeGrid
	p      *Protocol
	r      *refGossip
	churn  *rand.Rand
}

func newLockstep(t testing.TB, n, workers int, seed int64) *lockstep {
	t.Helper()
	engine := sim.NewEngine()
	grid := newFakeGrid(n, seed)
	p, err := New(engine, Config{N: n, Seed: seed, Workers: workers}, grid)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	p.Start(0)
	return &lockstep{engine: engine, grid: grid, p: p, r: newRefGossip(p.Config(), grid), churn: stats.NewRand(seed, 9)}
}

// step runs cycle c on both and compares every node's records and the
// traffic counters.
func (l *lockstep) step(t testing.TB, c int) {
	t.Helper()
	n := l.p.cfg.N
	for k := 0; k < 1+n/16; k++ {
		i := l.churn.Intn(n)
		l.grid.alive[i] = !l.grid.alive[i]
	}
	for i := range l.grid.loads {
		l.grid.loads[i] = float64(l.churn.Intn(3) * l.churn.Intn(500))
	}
	now := float64(c) * l.p.cfg.CycleSeconds
	l.engine.RunUntil(now)
	l.r.cycle(now)
	l.compare(t, fmt.Sprintf("cycle %d", c))
}

func (l *lockstep) compare(t testing.TB, label string) {
	t.Helper()
	if l.p.MessagesSent != l.r.MessagesSent || l.p.BytesSent != l.r.BytesSent {
		t.Fatalf("%s: traffic (%d msgs, %d bytes), reference (%d, %d)",
			label, l.p.MessagesSent, l.p.BytesSent, l.r.MessagesSent, l.r.BytesSent)
	}
	for i := 0; i < l.p.cfg.N; i++ {
		checkLayout(t, l.p, i)
		if got, want := canonical(l.p, i), append([]StateRecord{}, l.r.cache[i]...); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: node %d\ngot  %+v\nwant %+v", label, i, got, want)
		}
	}
}

// TestProtocolMatchesReference runs the whole protocol, serial and on two
// workers, beside the origin-sorted reference: 64 nodes with churn flips
// for 40 cycles, compared every cycle.
func TestProtocolMatchesReference(t *testing.T) {
	for _, workers := range []int{1, 2} {
		l := newLockstep(t, 64, workers, 5)
		for c := 0; c < 40; c++ {
			l.step(t, c)
		}
	}
}

// TestReadersMatchReference compares every reader with the reference's
// over every (viewer, origin) pair of a churning 64-node protocol: after
// plain cycles, after load hints (self-hints included, which must bump the
// viewer's own record), after a cycle spreads the hinted records, and
// after ForgetNode.
func TestReadersMatchReference(t *testing.T) {
	const n = 64
	l := newLockstep(t, n, 1, 11)
	checkAll := func(label string) {
		t.Helper()
		l.compare(t, label)
		for v := 0; v < n; v++ {
			checkReaders(t, label, l.p, l.r, v)
		}
	}
	for c := 0; c < 12; c++ {
		l.step(t, c)
	}
	checkAll("after cycles")
	hints := rand.New(rand.NewSource(3))
	for v := 0; v < n; v++ {
		l.p.AddLoadHint(v, v, 7)
		l.r.addLoadHint(v, v, 7)
		for k := 0; k < 4; k++ {
			origin, delta := hints.Intn(n+2)-1, float64(1+hints.Intn(100))
			l.p.AddLoadHint(v, origin, delta)
			l.r.addLoadHint(v, origin, delta)
		}
	}
	checkAll("after hints")
	l.step(t, 12)
	checkAll("after hinted cycle")
	for _, origin := range []int{0, 17, n - 1, n + 5} {
		l.p.ForgetNode(origin)
		l.r.forgetNode(origin)
	}
	checkAll("after ForgetNode")
	l.step(t, 13)
	checkAll("after forgotten cycle")
}
