// Package nounsafe is the nslint golden corpus for the nounsafe rule.
package nounsafe

import "unsafe" // want "import of unsafe outside internal/trace/layout.go"

// Reinterpret trusts a layout nothing asserts: the second importer the
// rule exists to stop.
func Reinterpret(b []byte) *uint64 {
	return (*uint64)(unsafe.Pointer(&b[0]))
}
