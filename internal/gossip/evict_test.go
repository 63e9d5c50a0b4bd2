package gossip

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// evictReference is the per-victim min-scan eviction that the
// counting-pass victim selection, and then truncation of the
// eviction-ordered caches, replaced: repeatedly mark the stalest eligible record
// (strict <, so ties fall to the lowest index), then compact. The
// equivalence test pins the rewrite to this exact victim choice — the
// cache contents feed RPM pricing, so a different (even equally stale)
// victim set would shift downstream scheduling decisions.
func evictReference(to, capacity int, out []StateRecord) []StateRecord {
	for over := len(out) - capacity; over > 0; over-- {
		victim := -1
		var victimTS float64
		for i := range out {
			if out[i].Node == to || out[i].TTL < 0 {
				continue
			}
			if victim < 0 || out[i].Timestamp < victimTS {
				victim, victimTS = i, out[i].Timestamp
			}
		}
		if victim < 0 {
			break
		}
		out[victim].TTL = -1
	}
	dst := []StateRecord{}
	for i := range out {
		if out[i].TTL >= 0 {
			dst = append(dst, out[i])
		}
	}
	return dst
}

// TestEvictMatchesReference pins the push's capacity eviction to the
// reference's victim choice over random merged views. The timestamp shapes cover the protocol's
// coarse cycle instants (few distinct values, plenty of ties), fine-grained
// stamps (many more distinct values than a live view holds), and all
// stamps equal; the owner rule covers views where only the owner's record
// is eligible, so over exceeds the eligible count.
func TestEvictMatchesReference(t *testing.T) {
	const nodes = 64
	shapes := []struct {
		name  string
		stamp func(rng *rand.Rand) float64
	}{
		{"cycle-instants", func(rng *rand.Rand) float64 { return float64(rng.Intn(5)) }},
		{"fine-grained", func(rng *rand.Rand) float64 { return rng.Float64() * 1000 }},
		{"all-equal", func(*rand.Rand) float64 { return 300 }},
	}
	rng := rand.New(rand.NewSource(99))
	for _, shape := range shapes {
		for trial := 0; trial < 5000; trial++ {
			n := 1 + rng.Intn(24)
			capacity := 1 + rng.Intn(12)
			// Half the trials put the cache owner among the merged records
			// (its record is never evicted).
			to := rng.Intn(nodes)
			merged := make([]StateRecord, n)
			for i := range merged {
				merged[i] = StateRecord{
					Node:      i * 2, // sorted origins; collides with even `to`s
					Timestamp: shape.stamp(rng),
					TTL:       rng.Intn(4),
					Capacity:  float64(1 + rng.Intn(16)),
				}
			}
			checkEvict(t, fmt.Sprintf("%s trial %d", shape.name, trial), to, capacity, merged)
		}
	}
	// Views where over exceeds the eligible count: the owner's record
	// alone (nothing may go), and the owner's plus one other (the other
	// goes, the owner's stays).
	own := StateRecord{Node: 3, Timestamp: 0, TTL: 1}
	checkEvict(t, "owner only", 3, 0, []StateRecord{own})
	checkEvict(t, "owner and one", 3, 0, []StateRecord{{Node: 1, Timestamp: 600, TTL: 2}, own})
}

// checkEvict delivers merged, as a message, to an empty receiver - so
// that eviction alone decides what the receiver keeps - and compares the
// receiver's records with evictReference's, as it does the counting-pass
// eviction of the origin-sorted reference kernel. The sender (an odd id
// other than to, never among the even merged origins) holds every record with one more
// hop, all fresh, so the message carries the view unchanged.
func checkEvict(t *testing.T, label string, to, capacity int, merged []StateRecord) {
	t.Helper()
	const nodes = 64
	from := 63
	if to == from {
		from = 61
	}
	want := evictReference(to, capacity, append([]StateRecord(nil), merged...))
	if got := evictCounting(to, capacity, merged, nil); !reflect.DeepEqual(append([]StateRecord{}, got...), want) {
		t.Fatalf("%s (to %d, cap %d): counting pass\ngot  %+v\nwant %+v", label, to, capacity, got, want)
	}
	p := bareProtocol(nodes, capacity, 1000)
	p.cfg.ExpiryCycles = 1e6
	sent := make([]StateRecord, len(merged))
	for i, rec := range merged {
		rec.TTL++
		sent[i] = rec
	}
	install(p, from, sent)
	p.compose(p.send, from, 1000)
	p.deliver(p.send, to, 1000)
	checkLayout(t, p, to)
	if got := canonical(p, to); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s (to %d, cap %d):\ngot  %+v\nwant %+v", label, to, capacity, got, want)
	}
	if p.version[to] != 1 {
		t.Fatalf("%s: version %d, want 1", label, p.version[to])
	}
}
