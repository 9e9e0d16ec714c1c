package dense

import "fmt"

// Elem tags a Matrix with its element type. The storage itself stays
// []float64 — complex matrices interleave (re, im) pairs in the same
// column-major buffer — so message payloads, the arena and the wire
// framing are element-type agnostic. The zero value is Real, so every
// existing construction site keeps its meaning.
type Elem uint8

const (
	// Real matrices store one float64 per entry.
	Real Elem = iota
	// Complex matrices store an interleaved (re, im) float64 pair per
	// entry: entry (i, j) of an m×n matrix occupies Data[2*(i+j*m)] and
	// Data[2*(i+j*m)+1].
	Complex
)

// Width returns the number of float64 words one entry occupies.
func (e Elem) Width() int {
	if e == Complex {
		return 2
	}
	return 1
}

func (e Elem) String() string {
	if e <= Complex {
		return [...]string{"real", "complex"}[e]
	}
	return fmt.Sprintf("Elem(%d)", uint8(e))
}

// Width returns the per-entry float64 word count of the matrix.
func (a *Matrix) Width() int { return a.Elem.Width() }

// NewMatrixElem returns a zero-initialized Rows×Cols matrix of the given
// element type.
func NewMatrixElem(rows, cols int, elem Elem) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("dense: negative dimension %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Elem: elem, Data: make([]float64, rows*cols*elem.Width())}
}

// ZAt returns complex entry (i, j). The matrix must be Complex.
func (a *Matrix) ZAt(i, j int) complex128 {
	p := 2 * (i + j*a.Rows)
	return complex(a.Data[p], a.Data[p+1])
}

// ZSet assigns complex entry (i, j). The matrix must be Complex.
func (a *Matrix) ZSet(i, j int, v complex128) {
	p := 2 * (i + j*a.Rows)
	a.Data[p], a.Data[p+1] = real(v), imag(v)
}

// checkElem panics unless every operand shares the element type.
func checkElem(op string, ms ...*Matrix) Elem {
	e := ms[0].Elem
	for _, m := range ms[1:] {
		if m.Elem != e {
			panic(fmt.Sprintf("dense: mixed element types in %s (%s vs %s)", op, e, m.Elem))
		}
	}
	return e
}
