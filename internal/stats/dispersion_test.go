package stats

import (
	"testing"

	"netsample/internal/dist"
)

// at reads an event sequence held as a slice.
func at(times []int64) func(i int) int64 {
	return func(i int) int64 { return times[i] }
}

func TestIDCPoissonIsOne(t *testing.T) {
	// A Poisson process has IDC ≈ 1 at every timescale.
	r := dist.NewRNG(100)
	var times []int64
	var tt float64
	for i := 0; i < 200000; i++ {
		tt += r.ExpFloat64() * 1000 // mean gap 1 ms
		times = append(times, int64(tt))
	}
	for _, w := range []int64{10_000, 100_000, 1_000_000} {
		idc, err := IndexOfDispersion(len(times), at(times), w)
		if err != nil {
			t.Fatal(err)
		}
		if idc < 0.9 || idc > 1.15 {
			t.Errorf("Poisson IDC at %dµs = %v, want ≈1", w, idc)
		}
	}
}

func TestIDCDeterministicBelowOne(t *testing.T) {
	// A perfectly periodic process is underdispersed: IDC ≈ 0.
	var times []int64
	for i := 0; i < 100000; i++ {
		times = append(times, int64(i)*1000)
	}
	idc, err := IndexOfDispersion(len(times), at(times), 50_000)
	if err != nil {
		t.Fatal(err)
	}
	if idc > 0.05 {
		t.Fatalf("periodic IDC = %v, want ≈0", idc)
	}
}

func TestIDCBurstyAboveOne(t *testing.T) {
	// On/off bursts: long silences between dense trains.
	r := dist.NewRNG(101)
	var times []int64
	tt := int64(0)
	for burst := 0; burst < 2000; burst++ {
		n := 5 + r.IntN(45)
		for i := 0; i < n; i++ {
			tt += int64(100 + r.IntN(400)) // dense: ~4 kpps
			times = append(times, tt)
		}
		tt += int64(50_000 + r.IntN(200_000)) // silence
	}
	idc, err := IndexOfDispersion(len(times), at(times), 100_000)
	if err != nil {
		t.Fatal(err)
	}
	if idc < 2 {
		t.Fatalf("bursty IDC = %v, want >> 1", idc)
	}
}

func TestIDCErrors(t *testing.T) {
	if _, err := IndexOfDispersion(0, nil, 100); err != ErrEmpty {
		t.Error("empty accepted")
	}
	if _, err := IndexOfDispersion(2, at([]int64{1, 2}), 0); err == nil {
		t.Error("zero window accepted")
	}
	if _, err := IndexOfDispersion(2, at([]int64{1, 2}), 1000); err == nil {
		t.Error("too-short span accepted")
	}
}

func TestIDCProfile(t *testing.T) {
	r := dist.NewRNG(102)
	var times []int64
	var tt float64
	for i := 0; i < 50000; i++ {
		tt += r.ExpFloat64() * 1000
		times = append(times, int64(tt))
	}
	prof, err := IDCProfile(len(times), at(times), []int64{10_000, 100_000})
	if err != nil {
		t.Fatal(err)
	}
	if len(prof) != 2 {
		t.Fatalf("profile = %v", prof)
	}
	if _, err := IDCProfile(len(times), at(times), []int64{0}); err == nil {
		t.Error("bad window accepted")
	}
}
