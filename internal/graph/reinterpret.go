package graph

import "unsafe"

// Zero-copy reinterpretation of raw little-endian section bytes as typed
// slices — the idiom that makes a v2 container load O(1) in decode work.
// Every helper is guarded twice: the host must be little-endian (the
// on-disk byte order) and the base pointer must satisfy the target
// type's alignment. Callers fall back to an explicit decode-copy when a
// helper returns ok=false, so a big-endian or strict-alignment host is
// slower, never wrong.

// hostLittleEndian is probed once: reinterpretation is only valid where
// the in-memory integer layout matches the file's little-endian layout.
var hostLittleEndian = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

func reinterpretOK[T any](b []byte) bool {
	var t T
	size := int(unsafe.Sizeof(t))
	if !hostLittleEndian || len(b)%size != 0 {
		return false
	}
	if len(b) == 0 {
		return true
	}
	return uintptr(unsafe.Pointer(unsafe.SliceData(b)))%unsafe.Alignof(t) == 0
}

func reinterpret[T any](b []byte) ([]T, bool) {
	if !reinterpretOK[T](b) {
		return nil, false
	}
	if len(b) == 0 {
		return []T{}, true
	}
	var t T
	return unsafe.Slice((*T)(unsafe.Pointer(unsafe.SliceData(b))), len(b)/int(unsafe.Sizeof(t))), true
}

// edgesFromBytes views b (little-endian {src u32, dst u32} records) as
// an Edge slice without copying. ok is false when the host byte order or
// the slice's alignment makes the view invalid; callers must then decode.
// The view aliases b: it is read-only if b is (e.g. a PROT_READ mmap).
func edgesFromBytes(b []byte) ([]Edge, bool) { return reinterpret[Edge](b) }

// float32sFromBytes views b as a []float32 without copying (same
// contract as edgesFromBytes).
func float32sFromBytes(b []byte) ([]float32, bool) { return reinterpret[float32](b) }
