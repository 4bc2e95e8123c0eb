// Package harness is imported by nothing the module ships.
package harness // want `package harness: nothing the module ships reaches any of its 2 declarations`

// Inject would be driven by tests alone.
func Inject() int { return delay }

var delay = 5
