package store

import (
	"unsafe"
)

// views.go holds the zero-copy reinterpretation helpers the segment reader
// uses over mapped memory. The segment body is written little-endian with
// natural alignment (the writer pads the series block to 8 bytes, and a file
// mapping starts page-aligned), so on little-endian hosts — every first-class
// Go target this project builds for — a block of the mapping *is* the typed
// slice and lookups read it without a decode step or a per-lookup allocation.
// openSegment verifies the alignment invariants before any view is taken, so
// a corrupt or truncated file yields ErrCorruptSegment, never a misaligned
// load.

// u32View reinterprets b (length a multiple of 4, 4-byte aligned) as []uint32.
func u32View(b []byte) []uint32 {
	if len(b) == 0 {
		return nil
	}
	return unsafe.Slice((*uint32)(unsafe.Pointer(&b[0])), len(b)/4)
}

// f64View reinterprets b (length a multiple of 8, 8-byte aligned) as
// []float64.
func f64View(b []byte) []float64 {
	if len(b) == 0 {
		return nil
	}
	return unsafe.Slice((*float64)(unsafe.Pointer(&b[0])), len(b)/8)
}

// unsafeBytes reinterprets a []uint64 as its backing bytes (the heap
// fallback's aligned-allocation trick).
func unsafeBytes(w []uint64) []byte {
	if len(w) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&w[0])), len(w)*8)
}

// viewString reinterprets b as a string without copying. The string borrows
// the mapping: it is valid while the owning store stays open.
func viewString(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}

// aligned reports whether off is a multiple of align.
func aligned(off uint64, align uint64) bool { return off%align == 0 }
