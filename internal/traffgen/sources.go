package traffgen

import (
	"netsample/internal/dist"
	"netsample/internal/packet"
	"netsample/internal/trace"
)

// sourceModel creates flows of one application type. A flow is a finite
// packet emitter: next returns the gap to the flow's next packet, the
// packet itself, and whether further packets follow.
//
// Models embed one scratch flow struct that newFlow reinitializes and
// returns, so spawning a flow allocates nothing. This relies on the
// generator's access pattern — each flow is fully drained before the
// model's next newFlow — and makes a model single-flow at a time; use
// one model value per run and per worker staging it (fork).
type sourceModel interface {
	// newFlow starts the run's flow i, drawing from r.
	newFlow(i int, r *dist.RNG, addrs *addressPool) flow
	// fork copies the model, scratch flow included.
	fork() sourceModel
}

// pad holds a model with a cache line on either side: runs, and the
// copies workers stage one run with, each write their model's scratch
// flow every packet, so no two models may share a cache line.
type pad[M any] struct {
	_ [64]byte
	m M
	_ [64]byte
}

// padded copies m into memory of its own.
func padded[M any, P interface {
	*M
	sourceModel
}](m P) sourceModel {
	c := &pad[M]{m: *m}
	return P(&c.m)
}

type flow interface {
	next(r *dist.RNG) (gapUS int64, pkt trace.Packet, more bool)
}

// expGapUS draws an exponential gap in µs with the given mean.
func expGapUS(r *dist.RNG, meanUS float64) int64 {
	return int64(r.ExpFloat64() * meanUS)
}

// geometricCount draws a count >= 1 with the given mean (> 1).
func geometricCount(r *dist.RNG, mean float64) int {
	if mean <= 1 {
		return 1
	}
	p := 1 / mean
	n := 1
	for r.Float64() > p {
		n++
		if n >= 100000 { // hard cap against pathological streaks
			break
		}
	}
	return n
}

// paretoCount draws a heavy-tailed count in [min, cap].
func paretoCount(r *dist.RNG, xm float64, alpha float64, maxCount int) int {
	v := int(dist.Pareto{Xm: xm, Alpha: alpha}.Sample(r))
	if v < int(xm) {
		v = int(xm)
	}
	if v > maxCount {
		v = maxCount
	}
	return v
}

// --- telnet: interactive character echo -----------------------------------

// telnetModel emits the character-at-a-time echo traffic of remote
// logins: 41-byte packets (one typed character over a 40-byte TCP/IP
// header), occasionally a longer line or screen update, at human typing
// timescales.
type telnetModel struct {
	scratch telnetFlow
}

type telnetFlow struct {
	base      trace.Packet
	remaining int
}

func (m *telnetModel) fork() sourceModel { return padded(m) }

func (m *telnetModel) newFlow(_ int, r *dist.RNG, addrs *addressPool) flow {
	src, dst := addrs.pair(r)
	m.scratch = telnetFlow{
		base: trace.Packet{
			Protocol: packet.ProtoTCP,
			TCPFlags: packet.TCPAck | packet.TCPPsh,
			Src:      src, Dst: dst,
			SrcPort: ephemeralPort(r), DstPort: packet.PortTelnet,
		},
		remaining: geometricCount(r, 120),
	}
	return &m.scratch
}

func (f *telnetFlow) next(r *dist.RNG) (int64, trace.Packet, bool) {
	p := f.base
	if r.Float64() < 0.82 {
		p.Size = 41 // single echoed character
	} else {
		p.Size = uint16(42 + r.IntN(39)) // line echo: 2..40 characters
	}
	f.remaining--
	// Keystroke gaps: mostly sub-second, occasionally a long pause.
	gap := expGapUS(r, 220_000)
	if r.Float64() < 0.03 {
		gap += expGapUS(r, 4_000_000)
	}
	return gap, p, f.remaining > 0
}

// --- ack: acknowledgement trains for inbound bulk data --------------------

// ackModel emits pure 40-byte TCP acknowledgements flowing out of the
// SDSC environment in response to inbound bulk transfers. ACK trains are
// clocked by the inbound data rate, so their intra-train gaps are
// milliseconds — the dense runs that make timer-driven sampling miss
// bursts.
type ackModel struct {
	scratch ackFlow
}

type ackFlow struct {
	base       trace.Packet
	trainLeft  int
	trainsLeft int
	gapMeanUS  float64
}

func (m *ackModel) fork() sourceModel { return padded(m) }

func (m *ackModel) newFlow(_ int, r *dist.RNG, addrs *addressPool) flow {
	src, dst := addrs.pair(r)
	m.scratch = ackFlow{
		base: trace.Packet{
			Size:     40,
			Protocol: packet.ProtoTCP,
			TCPFlags: packet.TCPAck,
			Src:      src, Dst: dst,
			SrcPort: ephemeralPort(r), DstPort: packet.PortFTPData,
		},
		trainLeft:  paretoCount(r, 4, 1.4, 400),
		trainsLeft: geometricCount(r, 3),
		// Inbound path speeds varied from 56 kb/s to T1: one ACK per two
		// 552-byte segments spans roughly 9..160 ms.
		gapMeanUS: 9000 + 150000*r.Float64()*r.Float64(),
	}
	return &m.scratch
}

func (f *ackFlow) next(r *dist.RNG) (int64, trace.Packet, bool) {
	p := f.base
	var gap int64
	if f.trainLeft <= 0 {
		// Between transfers within the session.
		f.trainsLeft--
		if f.trainsLeft <= 0 {
			return expGapUS(r, 8000), p, false
		}
		f.trainLeft = paretoCount(r, 4, 1.4, 400)
		gap = expGapUS(r, 2_500_000)
	} else {
		gap = expGapUS(r, f.gapMeanUS)
	}
	f.trainLeft--
	return gap, p, true
}

// --- bulk: outbound data transfers -----------------------------------------

// bulkModel emits outbound bulk transfers (FTP data, large mail, file
// service): trains of MSS-sized segments — 552 bytes on most 1993 paths,
// 1500 on MTU-discovering ones — separated by source-clocked gaps with
// occasional window stalls, ending in a remainder segment.
type bulkModel struct {
	scratch bulkFlow
}

type bulkFlow struct {
	base      trace.Packet
	mss       uint16
	remaining int
	gapMeanUS float64
}

func (m *bulkModel) fork() sourceModel { return padded(m) }

func (m *bulkModel) newFlow(_ int, r *dist.RNG, addrs *addressPool) flow {
	src, dst := addrs.pair(r)
	var mss uint16
	switch u := r.Float64(); {
	case u < 0.95:
		mss = 552
	case u < 0.965:
		mss = 1500
	default:
		// Odd path MTUs and TCP implementations: mid-range segments.
		mss = uint16(200 + 4*r.IntN(326)) // 200..1500 step 4
	}
	dstPort := packet.PortFTPData
	if r.Float64() < 0.25 {
		dstPort = packet.PortNNTP
	}
	m.scratch = bulkFlow{
		base: trace.Packet{
			Protocol: packet.ProtoTCP,
			TCPFlags: packet.TCPAck,
			Src:      src, Dst: dst,
			SrcPort: ephemeralPort(r), DstPort: dstPort,
		},
		mss:       mss,
		remaining: paretoCount(r, 6, 1.35, 1500),
		// Source clocking: 552 B at 0.35..1.1 Mb/s is 4..14 ms/segment.
		gapMeanUS: 4000 + 10000*r.Float64(),
	}
	return &m.scratch
}

func (f *bulkFlow) next(r *dist.RNG) (int64, trace.Packet, bool) {
	p := f.base
	f.remaining--
	if f.remaining <= 0 {
		// Final remainder segment.
		p.Size = uint16(41 + r.IntN(int(f.mss)-40))
		p.TCPFlags |= packet.TCPPsh | packet.TCPFin
		return expGapUS(r, f.gapMeanUS), p, false
	}
	p.Size = f.mss
	gap := expGapUS(r, f.gapMeanUS)
	if r.Float64() < 0.04 {
		// Window exhausted: wait for the ACK clock to restart.
		gap += expGapUS(r, 250_000)
	}
	return gap, p, true
}

// --- transaction: UDP request/response -------------------------------------

// transactionModel emits DNS-style UDP transactions: one to a few small
// packets per exchange.
type transactionModel struct {
	scratch transactionFlow
}

type transactionFlow struct {
	base      trace.Packet
	remaining int
}

func (m *transactionModel) fork() sourceModel { return padded(m) }

func (m *transactionModel) newFlow(_ int, r *dist.RNG, addrs *addressPool) flow {
	src, dst := addrs.pair(r)
	dstPort := packet.PortDNS
	if r.Float64() < 0.2 {
		dstPort = packet.PortNTP
	}
	m.scratch = transactionFlow{
		base: trace.Packet{
			Protocol: packet.ProtoUDP,
			Src:      src, Dst: dst,
			SrcPort: ephemeralPort(r), DstPort: dstPort,
		},
		remaining: 1 + r.IntN(4),
	}
	return &m.scratch
}

func (f *transactionFlow) next(r *dist.RNG) (int64, trace.Packet, bool) {
	p := f.base
	// Queries cluster near 70-90 bytes; responses spread up to ~300.
	if r.Float64() < 0.6 {
		p.Size = uint16(62 + r.IntN(36))
	} else {
		p.Size = uint16(90 + r.IntN(210))
	}
	f.remaining--
	return expGapUS(r, 90_000), p, f.remaining > 0
}

// --- mail: SMTP/NNTP command exchanges --------------------------------------

// mailModel emits the command/response phase of mail and news sessions:
// medium packets between the telnet and bulk regimes.
type mailModel struct {
	scratch mailFlow
}

type mailFlow struct {
	base      trace.Packet
	remaining int
}

func (m *mailModel) fork() sourceModel { return padded(m) }

func (m *mailModel) newFlow(_ int, r *dist.RNG, addrs *addressPool) flow {
	src, dst := addrs.pair(r)
	dstPort := packet.PortSMTP
	if r.Float64() < 0.3 {
		dstPort = packet.PortNNTP
	}
	m.scratch = mailFlow{
		base: trace.Packet{
			Protocol: packet.ProtoTCP,
			TCPFlags: packet.TCPAck | packet.TCPPsh,
			Src:      src, Dst: dst,
			SrcPort: ephemeralPort(r), DstPort: dstPort,
		},
		remaining: geometricCount(r, 25),
	}
	return &m.scratch
}

func (f *mailFlow) next(r *dist.RNG) (int64, trace.Packet, bool) {
	p := f.base
	switch u := r.Float64(); {
	case u < 0.25:
		p.Size = uint16(44 + r.IntN(33)) // short commands/responses
	case u < 0.85:
		p.Size = uint16(77 + r.IntN(104)) // header lines
	default:
		p.Size = 552 // a body segment
	}
	f.remaining--
	return expGapUS(r, 150_000), p, f.remaining > 0
}

// --- icmp: pings and errors --------------------------------------------------

// icmpModel emits ICMP echo traffic: the 28-byte minimum packets that set
// the trace's size floor, plus standard 56-byte-payload pings.
type icmpModel struct {
	scratch icmpFlow
}

type icmpFlow struct {
	base      trace.Packet
	remaining int
}

func (m *icmpModel) fork() sourceModel { return padded(m) }

func (m *icmpModel) newFlow(_ int, r *dist.RNG, addrs *addressPool) flow {
	src, dst := addrs.pair(r)
	m.scratch = icmpFlow{
		base: trace.Packet{
			Protocol: packet.ProtoICMP,
			Src:      src, Dst: dst,
		},
		remaining: geometricCount(r, 6),
	}
	return &m.scratch
}

func (f *icmpFlow) next(r *dist.RNG) (int64, trace.Packet, bool) {
	p := f.base
	switch u := r.Float64(); {
	case u < 0.45:
		p.Size = 28 // bare header: the population minimum
	case u < 0.8:
		p.Size = 84 // unix ping default: 56 B payload
	default:
		p.Size = uint16(36 + r.IntN(80))
	}
	f.remaining--
	return expGapUS(r, 1_000_000), p, f.remaining > 0
}
