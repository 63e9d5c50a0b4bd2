package experiments

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"repro/internal/metrics"
)

// craftedShard returns a one-record shard whose spec claims reps
// replications of all eight algorithms, stamped with a valid spec hash and
// the job count the spec expands to (1 when it overflows) — the kind of
// file a corrupted disk or a hostile peer could hand to -merge.
func craftedShard(t testing.TB, reps int) []byte {
	t.Helper()
	spec := SweepSpec{Name: "crafted", Scales: []Scale{microScale}, Reps: reps, Seed: 7}
	jobs, err := spec.NumJobs()
	if err != nil {
		jobs = 1
	}
	data, err := json.Marshal(shardJSON{
		Schema: shardSchema,
		Hash:   spec.SpecHash(),
		Lo:     0,
		Hi:     1,
		Jobs:   jobs,
		Spec:   spec,
		Stats:  []metrics.RunStats{{Submitted: 30}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestCraftedShardRepsFailFast: a shard whose spec claims 1<<40 or 1<<62
// replications must fail to decode or merge within a second, without
// sizing anything from the claimed matrix.
func TestCraftedShardRepsFailFast(t *testing.T) {
	for _, reps := range []int{1 << 40, 1 << 62} {
		start := time.Now()
		s, err := DecodeShard(craftedShard(t, reps))
		if err == nil {
			_, err = MergeShards(s)
		}
		if err == nil {
			t.Fatalf("reps %d: crafted shard merged without error", reps)
		}
		if d := time.Since(start); d > time.Second {
			t.Fatalf("reps %d: rejection took %v", reps, d)
		}
	}
	// The overflowing count is rejected by the spec itself.
	spec := SweepSpec{Scales: []Scale{microScale}, Reps: 1 << 62}
	if _, err := spec.NumJobs(); err == nil {
		t.Fatal("8 algorithms x 1<<62 replications did not overflow")
	}
}

// FuzzDecodeShard feeds mutated shard files to the decoder. Each input's
// spec hash is re-stamped before decoding, so mutations reach the
// coverage and spec checks behind the hash check. Decoding and merging
// must never panic, and any shard the decoder accepts must survive a
// JSON round trip unchanged.
func FuzzDecodeShard(f *testing.F) {
	spec := microSpec([]string{"DSMF"}, 2, 7)
	part, err := RunShard(spec, 0, 1, RunOptions{})
	if err != nil {
		f.Fatal(err)
	}
	whole, err := part.JSON()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(whole)
	idSet := *part
	idSet.IDs, idSet.Stats = []int{1}, part.Stats[1:]
	ids, err := idSet.JSON()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(ids)
	f.Add(craftedShard(f, 1<<40))
	f.Add(craftedShard(f, 1<<62))

	f.Fuzz(func(t *testing.T, data []byte) {
		var doc shardJSON
		if json.Unmarshal(data, &doc) == nil {
			doc.Hash = doc.Spec.SpecHash()
			if stamped, err := json.Marshal(doc); err == nil {
				data = stamped
			}
		}
		s, err := DecodeShard(data)
		if err != nil {
			return
		}
		first, err := s.JSON()
		if err != nil {
			t.Fatalf("accepted shard does not encode: %v", err)
		}
		again, err := DecodeShard(first)
		if err != nil {
			t.Fatalf("accepted shard does not decode after a round trip: %v\n%s", err, first)
		}
		second, err := again.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("round trip changed the shard:\n%s\nvs\n%s", first, second)
		}
		_, _ = MergeShards(s)
	})
}
