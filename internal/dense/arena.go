package dense

import (
	"math/bits"
	"sync"
	"sync/atomic"
	"unsafe"
)

// An arena of float64 buffers, one free list per power-of-two size class,
// and of Matrix headers that garbage collections do not empty, so repeated
// runs allocate no matrix storage. Every buffer has exactly one releaser:
// buffers handed to other goroutines (message payloads) are released by the
// final consumer only when the producer has provably dropped its interest.

const (
	minBufClass      = 2        // smallest retained buffer: 4 float64s
	maxBufClass      = 20       // largest retained buffer: 1M float64s (8 MiB)
	maxRetainedBytes = 64 << 20 // all lists; a cold P = 16 grid op keeps ≈20 MB
	headerBytes      = int(unsafe.Sizeof(Matrix{}))
)

// A freeList is a mutex-guarded stack whose entries hold size bytes each;
// push drops an entry that would take the arena past maxRetainedBytes.
type freeList[T any] struct {
	sync.Mutex
	free []T
}

func (l *freeList[T]) pop(size int) (x T) {
	var zero T
	l.Lock()
	if n := len(l.free); n > 0 {
		x, l.free[n-1], l.free = l.free[n-1], zero, l.free[:n-1]
		retained.Add(int64(-size))
	}
	l.Unlock()
	return x
}

func (l *freeList[T]) push(x T, size int) {
	if retained.Add(int64(size)) > maxRetainedBytes {
		retained.Add(int64(-size))
		return
	}
	l.Lock()
	l.free = append(l.free, x)
	l.Unlock()
}

var (
	bufs     [maxBufClass + 1]freeList[[]float64] // class c holds buffers of cap 1<<c
	headers  freeList[*Matrix]
	retained atomic.Int64 // bytes the lists hold or have reserved
)

// GetBuf returns a length-n buffer with undefined contents from the arena.
func GetBuf(n int) []float64 {
	c := max(minBufClass, bits.Len(uint(max(n, 1)-1))) // the smallest class holding n
	if c > maxBufClass {
		return make([]float64, n)
	}
	if s := bufs[c].pop(8 << c); s != nil {
		return s[:n]
	}
	return make([]float64, n, 1<<c)
}

// PutBuf returns a buffer to the arena; the caller must not touch s (or any
// matrix wrapping it) afterwards. One of a capacity no class has is dropped.
func PutBuf(s []float64) {
	if c := bits.Len(uint(cap(s))) - 1; c >= minBufClass && c <= maxBufClass && cap(s) == 1<<c {
		bufs[c].push(s[:cap(s)], 8<<c)
	}
}

// GetMatrixElem returns a zeroed rows×cols matrix of the given element
// type from the arena. Release it with PutMatrix when its contents are dead.
func GetMatrixElem(rows, cols int, elem Elem) *Matrix {
	m := GetMatrixUninitElem(rows, cols, elem)
	m.Zero()
	return m
}

// GetMatrixUninitElem is GetMatrixElem without the clearing pass: the
// contents are undefined and must be fully overwritten by the caller.
func GetMatrixUninitElem(rows, cols int, elem Elem) *Matrix {
	m := headers.pop(headerBytes)
	if m == nil {
		m = new(Matrix)
	}
	*m = Matrix{Rows: rows, Cols: cols, Elem: elem, Data: GetBuf(rows * cols * elem.Width())}
	return m
}

// GetMatrixCopy returns an arena-backed deep copy of src (any element type).
func GetMatrixCopy(src *Matrix) *Matrix {
	m := GetMatrixUninitElem(src.Rows, src.Cols, src.Elem)
	copy(m.Data, src.Data)
	return m
}

// PutMatrix returns both the matrix storage and its header to the arena.
// The matrix must not be used afterwards. nil is a no-op.
func PutMatrix(m *Matrix) {
	if m == nil {
		return
	}
	PutBuf(m.Data)
	*m = Matrix{}
	headers.push(m, headerBytes)
}
