package traffgen

import (
	"math"

	"netsample/internal/dist"
	"netsample/internal/packet"
)

// addressPool generates plausible 1993-style source/destination address
// pairs: sources are hosts in the SDSC environment (the class B
// 132.249/16 plus a handful of neighboring campus networks routed
// through the FDDI entrance), destinations are hosts scattered across
// many remote networks with a Zipf-like popularity law, so the ARTS
// source-destination matrix has the paper's character — a few heavy
// pairs and a long tail of tiny ones.
type addressPool struct {
	srcHosts []packet.Addr
	dstHosts []packet.Addr
	srcPick  cumWeights
	dstPick  cumWeights
}

// newZipf weights indices in [0, n) by 1/(i+1)^s.
func newZipf(n int, s float64) cumWeights {
	c := makeCumWeights(n)
	for i := range c.cum {
		c.cum[i] = 1.0
		if s > 0 {
			c.cum[i] = 1.0 / math.Pow(float64(i+1), s)
		}
	}
	c.accumulate()
	return c
}

// cumWeights draws index i with probability ∝ its weight: the smallest
// i ≤ len(cum)−1 with cum[i] > u, u uniform on [0, total). A Chen–Asau
// guide table (two cells per weight) starts a walk that ends, in O(1)
// expected steps, where a binary search over cum would. The guide holds
// its indices as float64s (exact below 2⁵³), so it shares cum's array
// and a table is one allocation.
type cumWeights struct {
	cum   []float64
	total float64
	guide []float64 // guide[j] = search(j/scale)
	scale float64   // len(guide)/total
}

// makeCumWeights makes a table for n weights, all zero: write them
// into cum, then accumulate.
func makeCumWeights(n int) cumWeights {
	buf := make([]float64, 3*n)
	return cumWeights{cum: buf[:n:n], guide: buf[n:]}
}

// accumulate turns the weights held in cum into running sums in index
// order and builds the guide.
func (c *cumWeights) accumulate() {
	for i := range c.cum {
		c.total += c.cum[i]
		c.cum[i] = c.total
	}
	c.scale = float64(len(c.guide)) / c.total
	i, n := 0, len(c.cum)
	for j := range c.guide {
		for u := float64(j) / c.scale; i < n-1 && c.cum[i] <= u; i++ {
		}
		c.guide[j] = float64(i)
	}
}

// draw returns an index with probability proportional to its weight.
func (c *cumWeights) draw(r *dist.RNG) int {
	return c.search(r.Float64() * c.total)
}

// search returns the binary search's answer for u. Both walks test
// cum[i] <= u as that search does, so a NaN u lands where it would: 0.
func (c *cumWeights) search(u float64) int {
	j := len(c.guide) - 1
	if x := u * c.scale; x < float64(j) {
		j = int(x)
	}
	i := int(c.guide[j])
	for i > 0 && !(c.cum[i-1] <= u) {
		i--
	}
	for i < len(c.cum)-1 && c.cum[i] <= u {
		i++
	}
	return i
}

// newAddressPool builds the host populations for a measurement
// environment.
func newAddressPool(profile Profile, r *dist.RNG) *addressPool {
	// "Local" networks: the traffic sources behind the measured link.
	// SDSC aggregates a campus handful; FIX-West, an interexchange
	// point, aggregates far more networks with a flatter popularity law.
	const fixWestNets = 35
	localNets := append(make([]packet.Addr, 0, 5+fixWestNets),
		packet.Addr{132, 249, 0, 0},  // SDSC
		packet.Addr{128, 54, 0, 0},   // UCSD
		packet.Addr{192, 31, 21, 0},  // campus class C
		packet.Addr{192, 101, 10, 0}, // campus class C
		packet.Addr{130, 191, 0, 0},  // regional class B
	)
	hostsPerLocal := 24
	srcZipf := 0.8
	if profile == ProfileFIXWest {
		hostsPerLocal = 8
		srcZipf = 0.5 // flatter: no single dominant site
		for i := 0; i < fixWestNets; i++ {
			var net packet.Addr
			if i%3 == 0 {
				net = packet.Addr{byte(128 + r.IntN(63)), byte(1 + r.IntN(250)), 0, 0}
			} else {
				net = packet.Addr{byte(192 + r.IntN(31)), byte(r.IntN(250)), byte(1 + r.IntN(250)), 0}
			}
			localNets = append(localNets, net)
		}
	}
	// Remote networks: a spread of class A/B/C destinations.
	const remoteNets = 140
	const hostsPerRemote = 3
	// Sources and destinations share one array, sized up front.
	srcs := len(localNets) * hostsPerLocal
	hosts := make([]packet.Addr, 0, srcs+remoteNets*hostsPerRemote)
	for _, net := range localNets {
		for h := 0; h < hostsPerLocal; h++ {
			a := net
			if a[0] < 192 { // class B: vary third and fourth octet
				a[2] = byte(1 + r.IntN(250))
				a[3] = byte(1 + r.IntN(250))
			} else { // class C: vary fourth octet
				a[3] = byte(1 + r.IntN(250))
			}
			hosts = append(hosts, a)
		}
	}
	for i := 0; i < remoteNets; i++ {
		var net packet.Addr
		switch r.IntN(10) {
		case 0, 1: // class A nets (e.g. 18/8 MIT, 26/8 DDN)
			net = packet.Addr{byte(10 + r.IntN(110)), 0, 0, 0}
		case 2, 3, 4, 5: // class B
			net = packet.Addr{byte(128 + r.IntN(63)), byte(1 + r.IntN(250)), 0, 0}
		default: // class C
			net = packet.Addr{byte(192 + r.IntN(31)), byte(r.IntN(250)), byte(1 + r.IntN(250)), 0}
		}
		for h := 0; h < hostsPerRemote; h++ {
			a := net
			a[3] = byte(1 + r.IntN(250))
			if a[0] < 128 {
				a[1], a[2] = byte(r.IntN(250)), byte(r.IntN(250))
			} else if a[0] < 192 {
				a[2] = byte(r.IntN(250))
			}
			hosts = append(hosts, a)
		}
	}
	p := &addressPool{srcHosts: hosts[:srcs:srcs], dstHosts: hosts[srcs:]}
	p.srcPick = newZipf(len(p.srcHosts), srcZipf)
	p.dstPick = newZipf(len(p.dstHosts), 1.0)
	return p
}

// pair draws a source/destination host pair for a new flow.
func (p *addressPool) pair(r *dist.RNG) (src, dst packet.Addr) {
	return p.srcHosts[p.srcPick.draw(r)], p.dstHosts[p.dstPick.draw(r)]
}

// ephemeralPort draws a client-side port.
func ephemeralPort(r *dist.RNG) uint16 {
	return uint16(1024 + r.IntN(4000))
}
