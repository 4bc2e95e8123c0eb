package nounsafe

import "encoding/binary"

// Decode is the sanctioned pattern outside the layout file: a portable
// codec, no assumption about the machine.
func Decode(b []byte) uint64 {
	return binary.LittleEndian.Uint64(b)
}
