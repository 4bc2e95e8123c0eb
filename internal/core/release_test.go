package core

import (
	"runtime"
	"testing"
	"time"

	"netsample/internal/bins"
	"netsample/internal/dist"
	"netsample/internal/trace"
	"netsample/internal/traffgen"
)

// A used evaluator must not outlive its last reference: its scorer
// scratch points back at it, and it points at its population, so
// scratch parked anywhere the runtime can see (a sync.Pool is listed
// globally and survives two collections) keeps a dead trace — tens of
// megabytes for an hour — reachable and counted into the GC goal. The
// finalizer sits on the population trace, not on the evaluator:
// evaluator ↔ scorer is a cycle, and finalizers on cycles never run.

// awaitRelease fails unless released closes within two seconds of one
// collection.
func awaitRelease(t *testing.T, released <-chan struct{}) {
	t.Helper()
	runtime.GC()
	select {
	case <-released:
	case <-time.After(2 * time.Second):
		t.Fatal("population still reachable one collection after its evaluator's last reference died")
	}
}

// useAndDrop generates a population, lets use build an evaluator over
// it and score once, and returns only the channel the population's
// finalizer closes: when it returns, nothing refers to either.
//
//go:noinline
func useAndDrop(t *testing.T, use func(tr *trace.Trace) error) <-chan struct{} {
	tr, err := traffgen.Generate(traffgen.SmallTrace(90))
	if err != nil {
		t.Fatal(err)
	}
	if err := use(tr); err != nil {
		t.Fatal(err)
	}
	released := make(chan struct{})
	runtime.SetFinalizer(tr, func(any) { close(released) })
	return released
}

func TestUsedEvaluatorReleasesPopulation(t *testing.T) {
	awaitRelease(t, useAndDrop(t, func(tr *trace.Trace) error {
		ev, err := NewEvaluator(tr, TargetSize, bins.PacketSize())
		if err != nil {
			return err
		}
		_, err = Replicate(ev, SystematicCount{K: 50}, 1, dist.NewRNG(1))
		return err
	}))
}

func TestUsedCategoricalEvaluatorReleasesPopulation(t *testing.T) {
	awaitRelease(t, useAndDrop(t, func(tr *trace.Trace) error {
		ev, err := NewCategoricalEvaluator(tr, PortCategorizer{}, 0)
		if err != nil {
			return err
		}
		_, err = ReplicateCategorical(ev, SystematicCount{K: 50}, 1, dist.NewRNG(1))
		return err
	}))
}
