package stats

import (
	"math/rand"
	"slices"
	"testing"
)

// sampleWithoutReference is the O(n) sampler the sparse one replaced:
// materialize the ascending candidate list, then run a partial
// Fisher-Yates over its first k positions. The equivalence test pins the
// rewrite to its exact draws and outputs — gossip neighbor choice feeds
// every cache, so one differing draw would shift every later decision.
func sampleWithoutReference(rng *rand.Rand, n, k, exclude int) []int {
	candidates := []int{}
	for i := 0; i < n; i++ {
		if i != exclude {
			candidates = append(candidates, i)
		}
	}
	if k >= len(candidates) {
		return candidates
	}
	for i := 0; i < k; i++ {
		j := i + rng.Intn(len(candidates)-i)
		candidates[i], candidates[j] = candidates[j], candidates[i]
	}
	return candidates[:k]
}

func TestSampleWithoutMatchesReference(t *testing.T) {
	type input struct{ n, k, exclude int }
	var cases []input
	for _, n := range []int{0, 1, 2, 3, 7, 40, 1000} {
		for _, exclude := range []int{-1, 0, n / 2, n - 1, n, n + 3} {
			m := n
			if exclude >= 0 && exclude < n {
				m--
			}
			for _, k := range []int{0, 1, m - 1, m, m + 1, 2 * m} {
				if k >= 0 {
					cases = append(cases, input{n, k, exclude})
				}
			}
		}
	}
	pick := rand.New(rand.NewSource(17))
	for trial := 0; trial < 3000; trial++ {
		n := pick.Intn(120)
		// Large k relative to n drives the displaced list past its inline
		// capacity, exercising the heap-grown path too.
		cases = append(cases, input{n, pick.Intn(n + 3), pick.Intn(n+4) - 2})
	}
	for c, in := range cases {
		seed := int64(1000 + c)
		wantRNG := rand.New(rand.NewSource(seed))
		want := sampleWithoutReference(wantRNG, in.n, in.k, in.exclude)
		wantNext := wantRNG.Int63()

		rng := rand.New(rand.NewSource(seed))
		got := SampleWithout(rng, in.n, in.k, in.exclude)
		if !slices.Equal(got, want) {
			t.Fatalf("SampleWithout(n=%d, k=%d, exclude=%d) = %v, want %v", in.n, in.k, in.exclude, got, want)
		}
		if next := rng.Int63(); next != wantNext {
			t.Fatalf("SampleWithout(n=%d, k=%d, exclude=%d) left the rng at %d, want %d", in.n, in.k, in.exclude, next, wantNext)
		}

		// The Into form over a dirty, undersized buffer must agree too.
		rng = rand.New(rand.NewSource(seed))
		got = SampleWithoutInto(rng, in.n, in.k, in.exclude, []int{-7, -7})
		if !slices.Equal(got, want) || rng.Int63() != wantNext {
			t.Fatalf("SampleWithoutInto(n=%d, k=%d, exclude=%d) = %v, want %v", in.n, in.k, in.exclude, got, want)
		}
	}
}

func TestSampleWithoutIntoAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	buf := make([]int, 0, 10)
	allocs := testing.AllocsPerRun(200, func() {
		buf = SampleWithoutInto(rng, 1000, 10, 123, buf)
	})
	if allocs != 0 {
		t.Fatalf("SampleWithoutInto(n=1000, k=10) allocates %v times per call, want 0", allocs)
	}
}
