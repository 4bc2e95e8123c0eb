// Package lib holds the corpus declarations: good.go is reached, and
// bad.go is what the rule must report.
package lib

import "fmt"

// Meter is aliased by the facade.
type Meter struct{ n int }

// Add has no caller in the module: the facade alias exports it.
func (m *Meter) Add(d int) { m.n += d }

// Gauge is returned by the facade's NewGauge.
type Gauge struct{ v float64 }

// NewGauge is called by the facade.
func NewGauge() *Gauge { return &Gauge{} }

// Value has no caller in the module: the facade returns its receiver.
func (g *Gauge) Value() float64 { return g.v }

// Scorer accumulates visited indices.
type Scorer struct{ sum int }

// Visit is never called by name, only taken as a method value.
func (s *Scorer) Visit(i int) { s.sum += i }

// Replicate is called by the tool; the allow above it excuses nothing.
//
//nslint:allow unreached stale on purpose: Replicate is reached from cmd/tool
func Replicate(idx []int) int {
	sc := &Scorer{}
	visit := sc.Visit
	for _, i := range idx {
		visit(i)
	}
	return sc.sum
}

// Sampler is the interface Run dispatches through.
type Sampler interface{ Offer(i int) bool }

type everyOther struct{ n int }

// Offer is reached only because everyOther satisfies Sampler.
func (e *everyOther) Offer(int) bool {
	e.n++
	return e.n%2 == 0
}

// NewEveryOther hides the concrete type behind the interface.
func NewEveryOther() Sampler { return &everyOther{} }

// Run counts the offers s accepts.
func Run(s Sampler, n int) int {
	kept := 0
	for i := 0; i < n; i++ {
		if s.Offer(i) {
			kept++
		}
	}
	return kept
}

// Level prints through fmt, which finds String by interface.
type Level int

// String is reached because Level satisfies fmt.Stringer.
func (l Level) String() string { return fmt.Sprintf("level-%d", int(l)) }

var registry []string

// The blank initialiser runs in every binary that links the package.
var _ = register("lib")

func register(name string) bool {
	registry = append(registry, name)
	return true
}

// sleeper is constructed by Nap, so the type is reached; see bad.go for
// the method only a dead interface asks for.
type sleeper struct{}

// Nap is called by the tool.
func Nap() any { return sleeper{} }
