package trace

import (
	"encoding/binary"
	"unsafe"
)

// The layout identity: an NSTR record and a Packet are the same 24
// bytes. Every field sits at its record offset, the struct has no
// padding, no field holds a pointer, and decoding validates nothing, so
// on a little-endian machine a record region *is* a []Packet and a
// []Packet *is* a record region. This file states that once and is the
// module's only importer of unsafe (nslint rule nounsafe); the
// assertions below fail the build if Packet or the format drifts apart.
var (
	_ = [1]struct{}{}[unsafe.Sizeof(Packet{})-RecordLen]
	_ = [1]struct{}{}[unsafe.Offsetof(Packet{}.Time)-0]
	_ = [1]struct{}{}[unsafe.Offsetof(Packet{}.Size)-8]
	_ = [1]struct{}{}[unsafe.Offsetof(Packet{}.Protocol)-10]
	_ = [1]struct{}{}[unsafe.Offsetof(Packet{}.TCPFlags)-11]
	_ = [1]struct{}{}[unsafe.Offsetof(Packet{}.Src)-12]
	_ = [1]struct{}{}[unsafe.Offsetof(Packet{}.Dst)-16]
	_ = [1]struct{}{}[unsafe.Offsetof(Packet{}.SrcPort)-20]
	_ = [1]struct{}{}[unsafe.Offsetof(Packet{}.DstPort)-22]
)

// nativeLE observes the one part of the identity the compiler cannot
// assert: the records are little-endian, so the machine must be.
var nativeLE = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// recordsAsPackets returns the complete records of raw as packets
// without copying: the result aliases raw, is capacity-clipped, and
// lives and dies with it. It reports false — and the caller decodes
// with DecodeRecords instead — on a big-endian machine or when raw does
// not start on a Packet alignment boundary (8 bytes on 64-bit
// platforms; the records of a page-aligned mapping start at byte 32).
func recordsAsPackets(raw []byte) ([]Packet, bool) {
	base := unsafe.Pointer(unsafe.SliceData(raw))
	if !nativeLE || uintptr(base)%unsafe.Alignof(Packet{}) != 0 {
		return nil, false
	}
	return unsafe.Slice((*Packet)(base), len(raw)/RecordLen), true
}

// packetsAsRecords returns pkts as NSTR record bytes without copying:
// the result aliases pkts and is capacity-clipped. It reports false on
// a big-endian machine, where the caller encodes with EncodeRecords.
func packetsAsRecords(pkts []Packet) ([]byte, bool) {
	if !nativeLE {
		return nil, false
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(pkts))), len(pkts)*RecordLen), true
}
