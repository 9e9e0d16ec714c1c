package dense

import (
	"math/bits"
	"sync"
)

// A sync.Pool-backed arena of float64 buffers and Matrix headers, bucketed
// by power-of-two size class. The GEMM/TRSM pack buffers and the engine's
// reduction accumulators, broadcast clones and message payloads all draw
// from it, so the steady state of repeated runs performs no heap
// allocation for matrix storage.
//
// Ownership discipline: every buffer has exactly one releaser. Buffers
// handed to other goroutines (message payloads) are released by the final
// consumer only when the producer has provably dropped its interest.

const (
	minBufClass = 6  // smallest pooled buffer: 64 float64s
	maxBufClass = 24 // largest pooled buffer: 16M float64s (128 MB)
)

var bufPools [maxBufClass + 1]sync.Pool

// bufItem boxes a slice for pooling so Get/Put cycles allocate nothing;
// empty boxes recirculate through bufItemPool.
type bufItem struct{ data []float64 }

var bufItemPool = sync.Pool{New: func() any { return new(bufItem) }}

// GetBuf returns a length-n buffer with undefined contents from the arena.
func GetBuf(n int) []float64 {
	c := bufClassUp(n)
	if c > maxBufClass {
		return make([]float64, n)
	}
	if it, _ := bufPools[c].Get().(*bufItem); it != nil {
		s := it.data[:n]
		it.data = nil
		bufItemPool.Put(it)
		return s
	}
	return make([]float64, n, 1<<c)
}

// PutBuf returns a buffer to the arena. The caller must not touch s (or any
// matrix wrapping it) afterwards. Buffers below the minimum class size are
// dropped to the garbage collector.
func PutBuf(s []float64) {
	c := bufClassDown(cap(s))
	if c < minBufClass {
		return
	}
	if c > maxBufClass {
		c = maxBufClass
	}
	it := bufItemPool.Get().(*bufItem)
	it.data = s[:cap(s)]
	bufPools[c].Put(it)
}

// bufClassUp returns the smallest class whose buffers hold n elements.
func bufClassUp(n int) int {
	if n <= 1<<minBufClass {
		return minBufClass
	}
	return bits.Len(uint(n - 1))
}

// bufClassDown returns the largest class c with 1<<c <= capacity.
func bufClassDown(capacity int) int {
	if capacity == 0 {
		return 0
	}
	return bits.Len(uint(capacity)) - 1
}

var matHeaderPool = sync.Pool{New: func() any { return new(Matrix) }}

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
	m := matHeaderPool.Get().(*Matrix)
	m.Rows, m.Cols, m.Elem = rows, cols, elem
	m.Data = GetBuf(rows * cols * elem.Width())
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
	m.Data = nil
	m.Rows, m.Cols, m.Elem = 0, 0, Real
	matHeaderPool.Put(m)
}
