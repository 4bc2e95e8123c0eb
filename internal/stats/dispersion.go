package stats

import (
	"errors"
	"math"
	"sort"
)

// IndexOfDispersion returns the index of dispersion for counts (IDC) of
// an event arrival sequence at a given counting-window size: the
// variance of the per-window event counts divided by their mean. A
// Poisson process has IDC = 1 at every timescale; bursty traffic shows
// IDC growing with the window — the structure that makes timer-driven
// sampling miss "bursty periods with many packets of relatively small
// interarrival times" (Section 7.2 of the paper).
//
// The n events are read through at, which returns the i-th timestamp in
// µs; timestamps are ordered. windowUS is the counting window. At least
// two full windows are required.
//
// Because the timestamps are ordered, each window's count is a run of
// consecutive events, so the counts are walked rather than stored. The
// result is Describe's over the count vector, bit for bit: the counts
// are whole numbers, whose float sum is exact in any order, so the mean
// needs only the number of events in full windows; the squared
// deviations are then added in window order, empty windows included.
func IndexOfDispersion(n int, at func(i int) int64, windowUS int64) (float64, error) {
	if n == 0 {
		return 0, ErrEmpty
	}
	if windowUS < 1 {
		return 0, errors.New("stats: window must be positive")
	}
	base := at(0)
	nWindows := (at(n-1) - base) / windowUS
	if nWindows < 2 {
		return 0, errors.New("stats: need at least two full windows")
	}
	// Events of the partial final window are excluded.
	full := sort.Search(n, func(i int) bool { return at(i) >= base+nWindows*windowUS })
	mean := float64(full) / float64(nWindows)
	var m2 float64
	// By the definition of nWindows the last event is at or past every
	// window's end, so the walk stops on it at the latest: i stays < n.
	i, t := 0, base
	for w := int64(1); w <= nWindows; w++ {
		end := base + w*windowUS
		var c float64
		for t < end {
			c++
			i++
			t = at(i)
		}
		d := c - mean
		m2 += d * d
	}
	sd := math.Sqrt(m2 / float64(nWindows))
	return sd * sd / mean, nil
}

// IDCProfile computes the IDC at each of the given window sizes,
// returning one value per window.
func IDCProfile(n int, at func(i int) int64, windowsUS []int64) ([]float64, error) {
	out := make([]float64, len(windowsUS))
	for i, w := range windowsUS {
		v, err := IndexOfDispersion(n, at, w)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}
