package experiment

import (
	"netsample/internal/core"
	"netsample/internal/trace"
)

// allSerial runs All's job list on the calling goroutine, in order. It
// is the reference implementation the parallel All is pinned against.
func allSerial(tr *trace.Trace) ([]Result, error) {
	p := core.NewProfile(tr)
	out := make([]Result, 0, len(suite))
	for _, job := range suite {
		r, err := job.run(p)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}
