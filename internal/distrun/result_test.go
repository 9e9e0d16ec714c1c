package distrun

import (
	"encoding/json"
	"errors"
	"testing"

	"pselinv/internal/obs"
	"pselinv/internal/simmpi"
)

// validLine is a well-formed result line of rank 0 with every counter zero.
func validLine(t testing.TB) []byte {
	nc := len(simmpi.Classes())
	line, err := json.Marshal(Result{SentBytes: make([]int64, nc), RecvBytes: make([]int64, nc),
		SentMsgs: make([]int64, nc), RecvMsgs: make([]int64, nc)})
	if err != nil {
		t.Fatal(err)
	}
	return line
}

// TestDecodeResultRejectsMalformed: a result line that is no Result, names
// another rank, or carries per-class counters not one per class is a
// *ResultError naming the rank it arrived from — not a launch that later
// indexes a short vector.
func TestDecodeResultRejectsMalformed(t *testing.T) {
	if _, err := decodeResult(0, validLine(t)); err != nil {
		t.Fatalf("a well-formed line: %v", err)
	}
	for _, line := range []string{
		`{"rank":0}`,
		`{"rank":0,"error":"spec build failed"}`,
		`{"rank":0,"sent_bytes":[1],"recv_bytes":[1],"sent_msgs":[1],"recv_msgs":[1]}`,
		`{"rank":1,"sent_bytes":[0,0,0,0,0,0,0,0,0],"recv_bytes":[0,0,0,0,0,0,0,0,0],"sent_msgs":[0,0,0,0,0,0,0,0,0],"recv_msgs":[0,0,0,0,0,0,0,0,0]}`,
		`not json`,
	} {
		_, err := decodeResult(0, []byte(line))
		var re *ResultError
		if !errors.As(err, &re) || re.Rank != 0 {
			t.Errorf("%s: error %v, want a *ResultError naming rank 0", line, err)
		}
	}
}

// FuzzResultLine: decoding and validating a result line never panics, and a
// result it accepts is safe for every Outcome method.
func FuzzResultLine(f *testing.F) {
	f.Add(validLine(f))
	f.Add([]byte(`{"rank":0}`))
	f.Add([]byte(`{"rank":0,"sent_bytes":[1],"recv_bytes":[],"sent_msgs":null}`))
	f.Add([]byte(`{"rank":0,"sent_bytes":[1,2,3,4,5,6,7,8,9,10],"recv_bytes":[1],"sent_msgs":[1],"recv_msgs":[1]}`))
	f.Fuzz(func(t *testing.T, line []byte) {
		res, err := decodeResult(0, line)
		if err != nil {
			var re *ResultError
			if !errors.As(err, &re) || re.Rank != 0 {
				t.Fatalf("error %v, want a *ResultError naming rank 0", err)
			}
			return
		}
		o := &Outcome{Results: []Result{res}, Snapshots: []*obs.Snapshot{{P: 1}}}
		for _, c := range simmpi.Classes() {
			o.SentBytes(c)
			o.RecvBytes(c)
		}
		o.TotalSent(0)
		o.checkConservation()
		o.MergeObs()
	})
}
