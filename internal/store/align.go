package store

import (
	"encoding/binary"
	"unsafe"
)

// The v2 snapshot is written little-endian with every section aligned so
// a reader on a little-endian 64-bit host can view the mapped bytes as
// typed slices without copying. The helpers below do exactly that when
// the host allows it and fall back to a decoded copy otherwise — the
// format stays portable, the fast path stays zero-copy.

// hostLittle reports whether the host stores integers little-endian.
var hostLittle = binary.NativeEndian.Uint16([]byte{0x34, 0x12}) == 0x1234

func aligned(b []byte, to uintptr) bool {
	if len(b) == 0 {
		return true
	}
	return uintptr(unsafe.Pointer(&b[0]))%to == 0
}

// u32view returns b viewed as little-endian uint32s. len(b) must be a
// multiple of 4 (checked by the section validator before any view is
// taken). Zero-copy on aligned little-endian hosts.
func u32view(b []byte) []uint32 {
	n := len(b) / 4
	if n == 0 {
		return nil
	}
	if hostLittle && aligned(b, 4) {
		return unsafe.Slice((*uint32)(unsafe.Pointer(&b[0])), n)
	}
	out := make([]uint32, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(b[4*i:])
	}
	return out
}

// s64view returns b viewed as little-endian int64s. len(b) must be a
// multiple of 8. Zero-copy on aligned little-endian hosts.
func s64view(b []byte) []int64 {
	n := len(b) / 8
	if n == 0 {
		return nil
	}
	if hostLittle && aligned(b, 8) {
		return unsafe.Slice((*int64)(unsafe.Pointer(&b[0])), n)
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out
}

// intview returns b (little-endian int64s) viewed as Go ints — the form
// the synopsis arrays consume directly. Zero-copy when the
// host is little-endian with 64-bit ints; otherwise each value is
// materialized (truncation on 32-bit hosts is guarded by the caller's
// range validation).
func intview(b []byte) []int {
	n := len(b) / 8
	if n == 0 {
		return nil
	}
	if hostLittle && strconvIntSize == 64 && aligned(b, 8) {
		return unsafe.Slice((*int)(unsafe.Pointer(&b[0])), n)
	}
	out := make([]int, n)
	for i := range out {
		out[i] = int(int64(binary.LittleEndian.Uint64(b[8*i:])))
	}
	return out
}

// strconvIntSize mirrors strconv.IntSize without the import.
const strconvIntSize = 32 << (^uint(0) >> 63)

// byteString views b as a string without copying. The returned string
// aliases b: it stays valid exactly as long as the underlying mapping.
func byteString(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}
