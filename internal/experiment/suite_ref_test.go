package experiment

import "netsample/internal/trace"

// allSerial runs All's job list on the calling goroutine, in order. It
// is the reference implementation the parallel All is pinned against.
func allSerial(tr *trace.Trace) ([]Result, error) {
	jobs := suiteJobs(tr)
	out := make([]Result, 0, len(jobs))
	for _, job := range jobs {
		r, err := job()
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}
