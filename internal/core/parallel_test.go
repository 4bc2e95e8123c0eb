package core

import (
	"testing"

	"netsample/internal/bins"
	"netsample/internal/dist"
	"netsample/internal/traffgen"
)

// replicateSequential mirrors ReplicateParallel's seed derivation on a
// single goroutine through the legacy Select+Score split: the reference
// for scheduling-independence.
func replicateSequential(e *Evaluator, s Sampler, n int, seed uint64) ([]Replication, error) {
	out := make([]Replication, 0, n)
	for i := 0; i < n; i++ {
		idx, err := s.Select(e.pop, dist.NewRNG(replicationSeed(seed, i)))
		if err != nil {
			return nil, err
		}
		rep, err := e.Score(idx)
		if err != nil {
			return nil, err
		}
		out = append(out, Replication{SampleSize: len(idx), Report: rep})
	}
	return out, nil
}

func TestReplicateParallelDeterministic(t *testing.T) {
	tr, err := traffgen.Generate(traffgen.SmallTrace(2020))
	if err != nil {
		t.Fatal(err)
	}
	ev, err := NewEvaluator(tr, TargetSize, bins.PacketSize())
	if err != nil {
		t.Fatal(err)
	}
	const n = 16
	const seed = 777
	par, err := ReplicateParallel(ev, StratifiedCount{K: 128}, n, seed)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := replicateSequential(ev, StratifiedCount{K: 128}, n, seed)
	if err != nil {
		t.Fatal(err)
	}
	if len(par) != n || len(seq) != n {
		t.Fatalf("lengths %d, %d", len(par), len(seq))
	}
	for i := range par {
		if par[i] != seq[i] {
			t.Fatalf("replication %d differs: %+v vs %+v", i, par[i], seq[i])
		}
	}
	// And a second parallel run is identical to the first.
	par2, err := ReplicateParallel(ev, StratifiedCount{K: 128}, n, seed)
	if err != nil {
		t.Fatal(err)
	}
	for i := range par {
		if par[i] != par2[i] {
			t.Fatalf("parallel runs differ at %d", i)
		}
	}
}

func TestReplicateParallelEdgeCases(t *testing.T) {
	tr, err := traffgen.Generate(traffgen.SmallTrace(2021))
	if err != nil {
		t.Fatal(err)
	}
	ev, err := NewEvaluator(tr, TargetSize, bins.PacketSize())
	if err != nil {
		t.Fatal(err)
	}
	if reps, err := ReplicateParallel(ev, StratifiedCount{K: 64}, 0, 1); err != nil || reps != nil {
		t.Fatalf("n=0: %v, %v", reps, err)
	}
	if reps, err := ReplicateParallel(ev, StratifiedCount{K: 64}, 1, 1); err != nil || len(reps) != 1 {
		t.Fatalf("n=1: %v, %v", reps, err)
	}
	if _, err := ReplicateParallel(ev, SystematicCount{K: 0}, 4, 1); err == nil {
		t.Fatal("bad sampler accepted")
	}
}

func TestReplicateParallelDifferentSeedsDiffer(t *testing.T) {
	tr, err := traffgen.Generate(traffgen.SmallTrace(2022))
	if err != nil {
		t.Fatal(err)
	}
	ev, err := NewEvaluator(tr, TargetSize, bins.PacketSize())
	if err != nil {
		t.Fatal(err)
	}
	a, err := ReplicateParallel(ev, SimpleRandom{K: 256}, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ReplicateParallel(ev, SimpleRandom{K: 256}, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds gave identical replications")
	}
}
