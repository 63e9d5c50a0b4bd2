// Package stats provides the small numeric toolkit shared by the simulator:
// deterministic seed derivation, bounded distributions and descriptive
// summaries. Everything is driven from a single root seed so that any
// experiment is exactly reproducible.
package stats

import "math/rand"

// SplitSeed derives a new 64-bit seed from a parent seed and a stream label.
// It applies the SplitMix64 finalizer to the combination, which is enough to
// decorrelate streams that differ in a single bit. Deriving seeds instead of
// sharing one *rand.Rand lets independent subsystems (topology, workload,
// gossip, churn) consume randomness without perturbing each other.
func SplitSeed(parent int64, label uint64) int64 {
	z := uint64(parent) + 0x9e3779b97f4a7c15*(label+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

// ChainSeed folds a sequence of stream labels into a parent seed by
// iterated SplitSeed application. It is the hierarchical form of SplitSeed:
// the sweep engine derives per-run seeds as
// ChainSeed(root, scaleLabel, repLabel), so every (scale, replication) cell
// owns an independent stream while the whole matrix stays a pure function
// of the root seed. With no labels the parent is returned unchanged.
func ChainSeed(parent int64, labels ...uint64) int64 {
	seed := parent
	for _, label := range labels {
		seed = SplitSeed(seed, label)
	}
	return seed
}

// NewRand returns a rand.Rand seeded with the derived stream seed.
func NewRand(parent int64, label uint64) *rand.Rand {
	return rand.New(rand.NewSource(SplitSeed(parent, label)))
}

// Range is a closed interval used for uniform sampling of workload and
// topology parameters (task loads, data sizes, bandwidths...).
type Range struct {
	Min, Max float64
}

// Sample draws a uniform value from the range. A degenerate range (Min==Max)
// returns Min so fixed parameters can reuse the same plumbing.
func (r Range) Sample(rng *rand.Rand) float64 {
	if r.Max <= r.Min {
		return r.Min
	}
	return r.Min + rng.Float64()*(r.Max-r.Min)
}

// Mid returns the midpoint, the expected value of a uniform sample.
func (r Range) Mid() float64 { return (r.Min + r.Max) / 2 }

// Contains reports whether v lies inside the closed interval.
func (r Range) Contains(v float64) bool { return v >= r.Min && v <= r.Max }

// SampleInt draws a uniform integer from [min, max] inclusive.
func SampleInt(rng *rand.Rand, min, max int) int {
	if max <= min {
		return min
	}
	return min + rng.Intn(max-min+1)
}

// Choice returns a uniformly chosen element of the non-empty slice.
func Choice[T any](rng *rand.Rand, xs []T) T {
	return xs[rng.Intn(len(xs))]
}

// Shuffle permutes xs in place using the supplied generator.
func Shuffle[T any](rng *rand.Rand, xs []T) {
	rng.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
}

// SampleWithout draws k distinct integers from [0, n) excluding the given
// value (pass a negative excluded value to disable exclusion). It is used for
// gossip fan-out neighbor selection. If fewer than k candidates exist, all of
// them are returned.
func SampleWithout(rng *rand.Rand, n, k, exclude int) []int {
	m, _ := candidates(n, exclude)
	return SampleWithoutInto(rng, n, k, exclude, make([]int, 0, min(k, m)))
}

// candidates returns the size m of the candidate set [0, n) \ {exclude}
// and the first value the exclusion shifts: candidate position p holds p
// when p < shift and p+1 otherwise. An exclude outside [0, n) removes
// nothing, which shift = n expresses.
func candidates(n, exclude int) (m, shift int) {
	if exclude >= 0 && exclude < n {
		return n - 1, exclude
	}
	return max(0, n), n
}

// SampleWithoutInto is SampleWithout reusing buf's backing array, for
// callers that sample every cycle (the gossip hot loop). The result aliases
// buf and is only valid until the buffer's next use.
//
// It is a partial Fisher-Yates shuffle of the candidate list
// [0, n) \ {exclude} in ascending order, run over that list virtually: a
// position that no swap has touched holds its ascending value, and only
// the positions a swap displaced are tracked, in a short list. It makes
// the same rng.Intn(m-i) draw per output as a shuffle of the materialized
// list and returns the same values, so the cost is O(k) draws plus an
// O(k) scan of the displaced positions per draw, independent of n, and no
// allocation while k stays within the inline list. When k >= m it returns
// every candidate in ascending order without drawing.
func SampleWithoutInto(rng *rand.Rand, n, k, exclude int, buf []int) []int {
	m, shift := candidates(n, exclude)
	out := buf[:0]
	if k >= m {
		for p := 0; p < m; p++ {
			out = append(out, shiftPast(p, shift))
		}
		return out
	}
	// moved lists the positions ahead of the draw cursor whose value a swap
	// replaced. The inline array covers the gossip fan-outs (log2 n) with
	// no allocation; a larger k grows the list on the heap.
	var inline [32]displaced
	moved := inline[:0]
	for i := 0; i < k; i++ {
		j := i + rng.Intn(m-i)
		vi, _ := valueAt(moved, i, shift)
		vj, at := valueAt(moved, j, shift)
		out = append(out, vj)
		if j == i {
			continue
		}
		if at >= 0 {
			moved[at].val = vi
		} else {
			moved = append(moved, displaced{pos: j, val: vi})
		}
	}
	return out
}

// displaced records that a swap left value val at candidate position pos.
type displaced struct{ pos, val int }

// valueAt returns the value at candidate position p and its index in
// moved, or -1 when no swap has touched p.
func valueAt(moved []displaced, p, shift int) (val, at int) {
	for x := range moved {
		if moved[x].pos == p {
			return moved[x].val, x
		}
	}
	return shiftPast(p, shift), -1
}

// shiftPast maps candidate position p to its value: positions at or past
// the excluded value skip over it.
func shiftPast(p, shift int) int {
	if p < shift {
		return p
	}
	return p + 1
}
