package lib

func (m *Meter) reset() { m.n = 0 } // want `method Meter.reset is reached by no main`

// Orphan is exported, but from internal/ nobody outside can import it.
func Orphan() {} // want `func Orphan is reached by no main`

// onlyTests is called from lib_test.go, which no binary links.
func onlyTests() int { return 1 } // want `func onlyTests is reached by no main`

// A dead caller keeps nothing alive.
func chainStart() { chainEnd() } // want `func chainStart is reached by no main`
func chainEnd()   {}             // want `func chainEnd is reached by no main`

// ledger is reported once, with its methods.
type ledger struct{ rows int } // want `type ledger \(and its 2 methods\) is reached by no main`

func (l *ledger) post()      { l.rows++ }
func (l *ledger) total() int { return l.rows }

var spare = 3 // want `var spare is reached by no main`

// dormant is never mentioned, so satisfying it reaches nothing.
type dormant interface{ Wake() } // want `type dormant is reached by no main`

func (sleeper) Wake() {} // want `method sleeper.Wake is reached by no main`

// Kept stands in for a declaration kept on purpose.
//
//nslint:allow unreached corpus stand-in for an on-disk format a reader must still accept
func Kept() {}
