package trace

import "io"

// Replayer streams an in-memory trace packet by packet, presenting the
// same Next contract as MapReader — any consumer of a live stream
// can be driven from a recorded or generated trace for tests,
// benchmarks, and deterministic daemon runs.
type Replayer struct {
	packets []Packet
	pos     int
}

// Replay returns a Replayer positioned at the start of the trace; its
// raw windows alias t.Packets, so do not mutate them during a replay.
func (t *Trace) Replay() *Replayer {
	return &Replayer{packets: t.Packets}
}

// Next returns the next packet, or io.EOF when the trace is exhausted.
func (r *Replayer) Next() (Packet, error) {
	if r.pos >= len(r.packets) {
		return Packet{}, io.EOF
	}
	p := r.packets[r.pos]
	r.pos++
	return p, nil
}

// NextRawBatch returns the next up-to-limit packets as NSTR record bytes
// (pipeline.RawBatchSource, on MapReader.NextRawBatch's contract): where
// the layout identity holds (layout.go), a view of the packets themselves.
//
//nslint:hotpath
func (r *Replayer) NextRawBatch(limit int) ([]byte, int, error) {
	if r.pos >= len(r.packets) {
		return nil, 0, io.EOF
	}
	n := min(max(limit, 0), len(r.packets)-r.pos)
	pkts := r.packets[r.pos : r.pos+n]
	r.pos += n
	raw, ok := packetsAsRecords(pkts)
	if !ok {
		raw = encodeFresh(pkts)
	}
	return raw, n, nil
}

// Rewind repositions the replayer at the start of the trace.
func (r *Replayer) Rewind() { r.pos = 0 }
