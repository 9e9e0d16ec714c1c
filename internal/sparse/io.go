package sparse

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// WriteMatrixMarket writes a in MatrixMarket coordinate general format
// (1-based indices, values with 17 significant digits so they read back
// bit-identical), the interchange format of the University of Florida
// collection the paper draws its matrices from.
func WriteMatrixMarket(w io.Writer, a *CSC) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "%%%%MatrixMarket matrix coordinate real general\n%d %d %d\n",
		a.N, a.N, a.NNZ()); err != nil {
		return err
	}
	var line []byte
	for j := 0; j < a.N; j++ {
		for k := a.ColPtr[j]; k < a.ColPtr[j+1]; k++ {
			line = strconv.AppendInt(line[:0], int64(a.RowIdx[k]+1), 10)
			line = append(line, ' ')
			line = strconv.AppendInt(line, int64(j+1), 10)
			line = append(line, ' ')
			line = strconv.AppendFloat(line, a.Val[k], 'g', 17, 64)
			line = append(line, '\n')
			if _, err := bw.Write(line); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// minEntryBytes is the shortest possible entry line, "1 1 1\n".
const minEntryBytes = 6

// ReadMatrixMarket parses a coordinate MatrixMarket stream with field real
// or integer and symmetry general or symmetric; for symmetric the missing
// triangle is mirrored. Duplicate entries are summed. The input is
// untrusted: every other header, a non-square or non-positive size, an
// entry count above n², an out-of-range index and a non-finite value are
// errors, and memory is committed in proportion to the bytes actually
// read, never to the declared entry count.
func ReadMatrixMarket(r io.Reader) (*CSC, error) {
	// An in-memory reader knows how many bytes remain, which bounds the
	// entries it can hold; other readers start small and grow.
	maxEntries := 1 << 16
	if lr, ok := r.(interface{ Len() int }); ok {
		maxEntries = lr.Len() / minEntryBytes
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("sparse: empty MatrixMarket stream")
	}
	h := bytes.Fields(bytes.ToLower(sc.Bytes()))
	if len(h) != 5 || string(h[0]) != "%%matrixmarket" || string(h[1]) != "matrix" || string(h[2]) != "coordinate" {
		return nil, fmt.Errorf("sparse: unsupported MatrixMarket header %q", sc.Text())
	}
	// complex values, and the sign or conjugation a skew-symmetric or
	// hermitian mirror needs, have no representation here.
	field, symmetry := string(h[3]), string(h[4])
	if field != "real" && field != "integer" {
		return nil, fmt.Errorf("sparse: unsupported MatrixMarket field %q (want real or integer)", field)
	}
	if symmetry != "general" && symmetry != "symmetric" {
		return nil, fmt.Errorf("sparse: unsupported MatrixMarket symmetry %q (want general or symmetric)", symmetry)
	}
	symmetric := symmetry == "symmetric"
	// Skip comments.
	var sizeLine string
	for sizeLine == "" && sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); !strings.HasPrefix(line, "%") {
			sizeLine = line
		}
	}
	var m, n, nnz int
	if _, err := fmt.Sscan(sizeLine, &m, &n, &nnz); err != nil {
		return nil, fmt.Errorf("sparse: bad size line %q: %v", sizeLine, err)
	}
	if m != n {
		return nil, fmt.Errorf("sparse: only square matrices supported, got %dx%d", m, n)
	}
	if n <= 0 {
		return nil, fmt.Errorf("sparse: matrix dimension %d is not positive", n)
	}
	// nnz > n² without forming n², which can overflow.
	if nnz < 0 || (nnz > 0 && (nnz-1)/n >= n) {
		return nil, fmt.Errorf("sparse: entry count %d is outside [0, %d²]", nnz, n)
	}

	capHint := min(nnz, maxEntries)
	if symmetric {
		capHint *= 2
	}
	ts := make([]Triplet, 0, capHint)
	read := 0
	for read < nnz && sc.Scan() {
		ti, rest := nextField(sc.Bytes())
		if len(ti) == 0 {
			continue
		}
		tj, rest := nextField(rest)
		tv, rest := nextField(rest)
		if extra, _ := nextField(rest); len(tv) == 0 || len(extra) != 0 {
			return nil, fmt.Errorf("sparse: bad entry line %q: want row col value", sc.Text())
		}
		i, erri := strconv.Atoi(string(ti))
		j, errj := strconv.Atoi(string(tj))
		v, errv := strconv.ParseFloat(string(tv), 64)
		if erri != nil || errj != nil || errv != nil {
			return nil, fmt.Errorf("sparse: bad entry line %q", sc.Text())
		}
		if i < 1 || i > n || j < 1 || j > n {
			return nil, fmt.Errorf("sparse: entry (%d,%d) out of range", i, j)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("sparse: entry (%d,%d) has non-finite value %q", i, j, tv)
		}
		read++
		ts = append(ts, Triplet{Row: i - 1, Col: j - 1, Val: v})
		if symmetric && i != j {
			ts = append(ts, Triplet{Row: j - 1, Col: i - 1, Val: v})
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if read < nnz {
		return nil, fmt.Errorf("sparse: expected %d entries, got %d", nnz, read)
	}
	// Fewer stored entries than columns means an empty column, i.e. a
	// structurally singular matrix; refusing it before assembly also keeps
	// the O(n) arrays below within what the bytes read can justify.
	var a *CSC
	if len(ts) >= n {
		a = FromTriplets(n, ts)
	}
	if a == nil || a.NNZ() < n {
		return nil, fmt.Errorf("sparse: %d×%d matrix with fewer than %d entries is structurally singular", n, n, n)
	}
	return a, nil
}

// nextField splits the first blank-delimited token off line; tok is empty
// when line holds none.
func nextField(line []byte) (tok, rest []byte) {
	i := 0
	for i < len(line) && isBlank(line[i]) {
		i++
	}
	j := i
	for j < len(line) && !isBlank(line[j]) {
		j++
	}
	return line[i:j], line[j:]
}

func isBlank(c byte) bool { return c == ' ' || c == '\t' || c == '\r' }
