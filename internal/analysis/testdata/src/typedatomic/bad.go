// Package typedatomic is the nslint golden corpus for the typedatomic
// rule: sync/atomic's package-level functions are forbidden. The
// atomicalign and atomicfield corpora hold the two hazards the function
// form allows; good.go is the typed form that rules them out.
package typedatomic

import "sync/atomic"

type snapshot struct {
	seq uint64
}

// state is a 32-bit flag, clean of both hazards, and still reported:
// the ban covers every width.
var state int32

func claim() bool {
	return atomic.CompareAndSwapInt32(&state, 0, 1) // want `atomic.CompareAndSwapInt32 on a plain variable`
}

// load passes the function as a value: reported like a call.
var load = atomic.LoadInt64 // want `atomic.LoadInt64 on a plain variable`
